import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from descregions.signomial import (
    Signomial,
    Term,
    evaluate_log,
    negatives,
    newton_dim,
    positives,
    restrict,
    restrict_indices,
    signed_support,
)

from descregions import signomial, tracedoc
from descregions.linalg import lattice
from descregions.parsing import parse_signomial

import parse_oracle
from fixtures import (
    SADDLE,
    TEN_TERM,
    TEN_TERM_LOWER,
    TEN_TERM_UPPER,
    vec,
)

F = Fraction


def test_signed_support_ten_term():
    ss = signed_support(TEN_TERM)
    assert ss.positives == {
        vec(2, 3), vec(1, 3), vec(0, 4), vec(2, 0), vec(0, 2), vec(0, 0)
    }
    assert ss.negatives == {vec(3, 2), vec(2, 1), vec(0, 3), vec(0, 1)}


def test_signed_support_single_negative_term():
    f = Signomial.from_terms(1, [(-1, (1,))])
    ss = signed_support(f)
    assert ss.positives == frozenset()
    assert ss.negatives == {vec(1)}


def test_signed_support_saddle():
    assert signed_support(SADDLE).negatives == {vec(1, 1)}


def test_restrict_to_upper_side_set():
    upper = set(positives(TEN_TERM)) | {vec(3, 2), vec(2, 1)}
    assert restrict(TEN_TERM, upper) == TEN_TERM_UPPER


def test_restrict_to_lower_side_set():
    lower = set(positives(TEN_TERM)) | {vec(0, 3), vec(0, 1)}
    assert restrict(TEN_TERM, lower) == TEN_TERM_LOWER


def test_restrict_identity_and_idempotence():
    assert restrict(TEN_TERM, TEN_TERM.support) == TEN_TERM
    sub = {vec(0, 0), vec(3, 2)}
    once = restrict(TEN_TERM, sub)
    assert restrict(once, sub) == once


def test_restrict_can_empty():
    empty = restrict(TEN_TERM, [vec(9, 9)])
    assert empty.terms == ()
    assert evaluate_log(empty, (0.0, 0.0)) == 0.0


def test_evaluate_log_constant():
    one = Signomial.from_terms(1, [(1, (0,))])
    assert evaluate_log(one, (3.7,)) == 1.0


def test_evaluate_log_quadratic_at_one():
    f = Signomial.from_terms(1, [(-1, (2,)), (3, (1,)), (-1, (0,))])
    assert evaluate_log(f, (0.0,)) == pytest.approx(1.0)


def test_evaluate_log_ten_term_at_one():
    assert evaluate_log(TEN_TERM, (0.0, 0.0)) == pytest.approx(-3.0)


def test_evaluate_log_overflow():
    f = Signomial.from_terms(1, [(1, (5,))])
    with pytest.raises(OverflowError):
        evaluate_log(f, (200.0,))


def test_partition_counts():
    assert len(positives(TEN_TERM)) + len(negatives(TEN_TERM)) == len(TEN_TERM.terms)


def test_from_terms_merges_and_drops_zero():
    f = Signomial.from_terms(1, [(1, (1,)), (2, (1,)), (1, (0,)), (-1, (0,))])
    assert f.terms == (Term(F(3), vec(1)),)


def test_invariants_rejected():
    with pytest.raises(ValueError):
        Term(F(0), vec(1))
    with pytest.raises(ValueError):
        Signomial(1, (Term(F(1), vec(1)), Term(F(2), vec(0))))  # unsorted
    with pytest.raises(ValueError):
        Signomial(2, (Term(F(1), vec(1)),))  # wrong arity
    with pytest.raises(ValueError):
        Signomial(0, ())


def test_newton_dim():
    assert newton_dim(TEN_TERM) == 2
    assert newton_dim(Signomial.from_terms(2, [(1, (1, 1))])) == 0
    assert newton_dim(Signomial.from_terms(2, [])) == -1


@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
    st.integers(0, 15),
)
@settings(deadline=None, max_examples=60)
def test_dropping_negative_terms_never_decreases_value(point, mask):
    # keep all positives plus an arbitrary subset of the negatives
    neg = negatives(TEN_TERM)
    keep = [b for i, b in enumerate(neg) if mask >> i & 1]
    g = restrict(TEN_TERM, list(positives(TEN_TERM)) + keep)
    y = [p - 1.5 for p in point]
    fy = evaluate_log(TEN_TERM, y)
    gy = evaluate_log(g, y)
    assert gy >= fy - 1e-9 * max(1.0, abs(fy))


# --- the lattice frame and the types around it --------------------------------


def _all_fractions(f):
    """Every coefficient and exponent entry is a Fraction: an int that leaked
    into a Vector would turn a later '/' into float division."""
    return all(type(t.coefficient) is Fraction and all(type(e) is Fraction for e in t.exponent) for t in f.terms)


def _frame_holds(f):
    """The frame is the exponents' own lattice frame, on the least scale."""
    rows = tuple(tuple(f.scale * e for e in t.exponent) for t in f.terms)
    dens = [e.denominator for t in f.terms for e in t.exponent]
    return (
        f.frame == rows == lattice(f.support)[1]
        and all(type(a) is int for row in f.frame for a in row)
        and f.scale == math.lcm(*dens)
    )


_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 6)))


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.one_of(st.integers(-3, 3), _RATIONALS),
                st.lists(st.one_of(st.integers(-2, 2), _RATIONALS), min_size=n, max_size=n),
            ),
            max_size=8,
        ).map(lambda pairs: (n, pairs))
    )
)
@settings(deadline=None, max_examples=150)
def test_from_terms_sorts_and_merges_on_the_frame_like_the_fraction_sort(case):
    n, pairs = case
    f = Signomial.from_terms(n, pairs)
    assert f == parse_oracle._from_terms(n, pairs)
    assert _all_fractions(f) and _frame_holds(f)
    kept = range(0, len(f.terms), 2)
    for g in (restrict(f, [f.terms[i].exponent for i in kept]), restrict_indices(f, kept)):
        assert g.terms == tuple(f.terms[i] for i in kept)
        assert _all_fractions(g) and _frame_holds(g)


def test_every_path_in_gives_fractions_and_a_frame():
    from descregions.tracedoc import signomial_from_json, signomial_to_json

    f = parse_signomial("3*x^(1/2)*y - 2*y^3 + 1.5 + x*y^(-2/3)")
    assert f.scale == 6 and f.frame == ((0, 0), (0, 18), (3, 6), (6, -4))
    g = Signomial.from_terms(2, [(3, (1, 2)), (-1, (0, 0)), (F(1, 2), [F(1, 3), 1])])
    h = signomial_from_json(signomial_to_json(f))
    # the largest denominator cancels in the merge, or is left out of a face
    cancelled = parse_signomial("x^(1/3) - x^(1/3) + x")
    halves = restrict_indices(f, [0, 2])
    assert (cancelled.scale, cancelled.frame, halves.scale, halves.frame) == (1, ((1,),), 2, ((0, 0), (1, 2)))
    paths = (f, g, h, cancelled, halves, restrict(f, f.support[:2]), restrict_indices(g, [0, 2]))
    for s in paths + tuple(signomial_from_json(signomial_to_json(s)) for s in paths):
        assert _all_fractions(s) and _frame_holds(s)
    assert h == f


def test_frame_check_keeps_its_messages():
    with pytest.raises(ValueError, match="sorted"):
        Signomial(1, (Term(F(1), (F(1, 2),)), Term(F(1), (F(1, 3),))))
    with pytest.raises(ValueError, match="distinct"):
        Signomial(1, (Term(F(1), (F(2, 4),)), Term(F(-1), (F(1, 2),))))
    # a sorting problem is reported first, as before
    with pytest.raises(ValueError, match="sorted"):
        Signomial(1, (Term(F(1), (F(1),)), Term(F(1), (F(1),)), Term(F(1), (F(0),))))
    assert Signomial(1, ()).frame == () and Signomial(1, ()).scale == 1


def test_each_signomial_is_framed_once(monkeypatch):
    """One ``lattice`` call per parse, and none to restrict an integral
    signomial or to read an integral trace: those build on the frame rows
    they already hold."""
    calls = []
    real = lattice
    for module in (signomial, tracedoc):
        if hasattr(module, "lattice"):
            monkeypatch.setattr(module, "lattice", lambda points: calls.append(1) or real(points))
    f = parse_signomial("3*x^2*y - 2*x*y^3 + 5 - x^4")
    assert len(calls) == 1
    calls.clear()
    child = restrict_indices(f, [0, 2])
    document = tracedoc.signomial_to_json(f)
    read = tracedoc.signomial_from_json(document)
    assert calls == []
    assert child.frame == (f.frame[0], f.frame[2]) and read == f and read.frame == f.frame
