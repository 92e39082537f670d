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
    signed_support,
)

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
