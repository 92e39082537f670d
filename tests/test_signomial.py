import json
import math
import operator
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
from strategies import rational_signed_supports, signed_supports
from fixtures import (
    BOX_TEXT,
    CUBE4_TEXT,
    SADDLE,
    SADDLE_TEXT,
    TEN_TERM_UPPER_TEXT,
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
    with pytest.raises(ValueError, match="term coefficient must be nonzero"):
        Signomial.of_terms(1, (Term(F(0), vec(1)),))
    with pytest.raises(ValueError, match="term coefficient must be nonzero"):
        Signomial(1, (1, 0), 1, ((0,), (1,)))
    with pytest.raises(ValueError):
        Signomial.of_terms(1, (Term(F(1), vec(1)), Term(F(2), vec(0))))  # unsorted
    with pytest.raises(ValueError):
        Signomial.of_terms(2, (Term(F(1), vec(1)),))  # wrong arity
    with pytest.raises(ValueError):
        Signomial.of_terms(0, ())
    with pytest.raises(ValueError, match="coefficient count"):
        Signomial(1, (1,), 1, ((0,), (1,)))


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
        Signomial.of_terms(1, (Term(F(1), (F(1, 2),)), Term(F(1), (F(1, 3),))))
    with pytest.raises(ValueError, match="distinct"):
        Signomial.of_terms(1, (Term(F(1), (F(2, 4),)), Term(F(-1), (F(1, 2),))))
    # a sorting problem is reported first, as before
    with pytest.raises(ValueError, match="sorted"):
        Signomial.of_terms(1, (Term(F(1), (F(1),)), Term(F(1), (F(1),)), Term(F(1), (F(0),))))
    assert Signomial.of_terms(1, ()).frame == () and Signomial.of_terms(1, ()).scale == 1


def test_each_signomial_is_framed_once(monkeypatch):
    """One ``lattice`` call per parse and per read of a trace, and none to
    restrict an integral signomial, which builds on the frame rows it
    already holds.  An integral parse or trace hands ``lattice`` int rows,
    which come back as they are, with scale 1."""
    calls = []
    real = lattice

    def framed(points):
        calls.append((points, real(points)))
        return calls[-1][1]

    for module in (signomial, tracedoc):
        if hasattr(module, "lattice"):
            monkeypatch.setattr(module, "lattice", framed)
    rational = parse_signomial("3*x^(1/2)*y - 2*x*y^3 + 5 - x^4")
    assert len(calls) == 1 and rational.scale == 2
    calls.clear()
    f = parse_signomial("3*x^2*y - 2*x*y^3 + 5 - x^4")
    [(rows, (scale, frame))] = calls
    assert scale == f.scale == 1 and all(map(operator.is_, frame, rows)) and frame == f.frame
    assert all(type(a) is int for row in f.frame for a in row)
    calls.clear()
    child = restrict_indices(f, [0, 2])
    assert calls == []
    document = tracedoc.signomial_to_json(f)
    read = tracedoc.signomial_from_json(document)
    [(rows, (scale, frame))] = calls
    assert scale == 1 and all(map(operator.is_, frame, rows))
    assert child.frame == (f.frame[0], f.frame[2]) and read == f and read.frame == f.frame


# --- one lookup from a rational point to its row and term -------------------------

# small entries, entries with denominators off most lattices, and entries
# beyond the exponent digit caps
_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 14)),
    st.sampled_from([10 ** 6, -(10 ** 7) - 1, Fraction(1, 10 ** 6 + 3), Fraction(10 ** 9, 7), 2 ** 80]),
)


@st.composite
def _lookups(draw):
    """A signomial and a point: one of its exponents as ints and Fractions,
    such an exponent with one entry redrawn, or a point of any entries and
    possibly the wrong length."""
    f = draw(st.one_of(signed_supports(3), rational_signed_supports(3)))
    mu = list(draw(st.sampled_from(f.support)))
    kind = draw(st.sampled_from(("exponent", "redrawn", "any")))
    if kind == "exponent":
        point = [int(a) if a.denominator == 1 and draw(st.booleans()) else a for a in mu]
    elif kind == "redrawn":
        mu[draw(st.integers(0, f.dimension - 1))] = draw(_ENTRIES)
        point = mu
    else:
        n = draw(st.sampled_from((f.dimension, f.dimension, f.dimension - 1, f.dimension + 1)))
        point = draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    return f, tuple(point)


@given(_lookups())
@settings(deadline=None, max_examples=300)
def test_lookup_matches_a_scan_of_the_fraction_support(case):
    """``term_index`` against a scan of the ``Fraction`` support, and
    ``frame_row`` against the definition: the point times L when every entry
    times L is an int, else None.  ``coefficient`` and ``restrict`` answer
    through the same lookup."""
    f, point = case
    support = f.support
    exact = tuple(map(Fraction, point))
    expected = next((i for i, mu in enumerate(support) if mu == exact), None)
    assert f.term_index(point) == expected
    scaled = [f.scale * a for a in exact]
    on_lattice = len(point) == f.dimension and all(a.denominator == 1 for a in scaled)
    assert f.frame_row(point) == (tuple(map(int, scaled)) if on_lattice else None)
    assert f.coefficient(point) == (0 if expected is None else f.terms[expected].coefficient)
    kept = [mu for i, mu in enumerate(support) if i % 2 == 0]
    assert restrict(f, kept + [point]) == parse_oracle.Signomial.of_terms(
        f.dimension, [t for t in f.terms if t.exponent in set(kept) or t.exponent == exact]
    )


def test_a_point_off_the_lattice_is_not_rounded_onto_it():
    # L = 2: the entry 1/3 times L floored would be 0, the row of x^0
    f = Signomial.from_terms(1, [(1, (0,)), (-1, (F(1, 2),)), (1, (F(3, 2),))])
    assert (f.scale, f.frame) == (2, ((0,), (1,), (3,)))
    for point in ((F(1, 3),), (F(2, 3),), (F(1, 4),), (F(1, 10 ** 6 + 3),)):
        assert f.frame_row(point) is None and f.term_index(point) is None and f.coefficient(point) == 0
    assert f.term_index((F(3, 2),)) == 2 and f.frame_row((F(3, 2),)) == (3,) and f.term_index((1,)) is None
    assert f.term_index((0, 0)) is None and f.term_index(()) is None


# --- one exponent form: no Term and no Fraction per exponent entry ---------------


class _Entry(int):
    """An exponent entry that remembers it is one; arithmetic on it gives
    plain ints."""


def _count_constructions(monkeypatch):
    """Every Term built, every Fraction built from an ``_Entry``, and the
    value of every Fraction built (in ``values``)."""
    made = {"Term": 0, "Fraction of an entry": 0}
    values = []
    real_new, real_init = Fraction.__new__, Term.__init__

    def fraction_new(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(numerator, _Entry) or isinstance(denominator, _Entry):
            made["Fraction of an entry"] += 1
        values.append(real_new(cls, numerator, denominator, **kwargs))
        return values[-1]

    def term_init(self, *args, **kwargs):
        made["Term"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", fraction_new)
    monkeypatch.setattr(Term, "__init__", term_init)
    return made, values


def test_search_and_replay_read_only_the_frame(monkeypatch):
    """On integral input, parse -> certify_connectivity -> make_document and
    replay of the trace build no Term and make no Fraction of an exponent
    entry: a parse makes Fractions only of its coefficients, the
    signomial's entries are marked for the search, and the
    replayed document has only integer spellings in its input and recorded
    points, which the reader keeps as ints.  The inputs take the recursion
    (CUBE4), the box criterion (BOX), the separating hyperplane (TEN_TERM_UPPER)
    and a recorded exponent (SADDLE).  The hull is built on the frame with no
    lattice call."""
    from descregions import check, polytope
    from descregions.certify import certify_connectivity
    from descregions.check import CERTIFIED_OUTCOMES, CertifyConfig
    from descregions.linalg import _fraction

    made, values = _count_constructions(monkeypatch)
    flagged = CertifyConfig(enable_simplex_search=True, enable_box_criterion=True)
    kinds = set()
    inputs = [(CUBE4_TEXT, CertifyConfig()), (BOX_TEXT, flagged), (TEN_TERM_UPPER_TEXT, flagged), (SADDLE_TEXT, flagged)]
    for text, config in inputs:
        values.clear()
        _fraction.cache_clear()  # a memoized Fraction of an equal int would hide one
        f = parse_signomial(text)
        assert made == {"Term": 0, "Fraction of an entry": 0} and set(values) <= set(f.coefficients)
        assert f.scale == 1 and type(f.frame[0][0]) is int

        marked = Signomial(f.dimension, f.coefficients, 1, tuple(tuple(map(_Entry, row)) for row in f.frame))
        _fraction.cache_clear()
        cert = certify_connectivity(marked, config)
        doc = json.loads(tracedoc.document_to_json(tracedoc.make_document(marked, config, cert, source=text)))
        assert cert.outcome in CERTIFIED_OUTCOMES and made == {"Term": 0, "Fraction of an entry": 0}
        kinds |= set(_strings(doc["tree"]))

        fractions = []
        real_new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: fractions.append(args) or real_new(cls, *args, **kw))
        assert tracedoc.verify_document(doc) == []
        monkeypatch.setattr(Fraction, "__new__", real_new)
        # the only Fractions are the ratio spellings the reader meets, each
        # once: coefficients and functionals, as every exponent entry is an int
        ratios = {s for s in _strings([doc["input"]["terms"], doc["tree"]]) if "/" in s}
        assert len(fractions) <= len(ratios) and made["Term"] == 0
    assert {"parallel-split", "negative-face-reduction", "box", "strict-separating", "one-negative-coeff"} <= kinds

    lattice_calls = []
    for module in (polytope, check):
        if hasattr(module, "lattice"):
            monkeypatch.setattr(module, "lattice", lambda points: lattice_calls.append(1) or lattice(points))
    assert polytope.build_polytope(parse_signomial(CUBE4_TEXT).frame).dim == 4 and lattice_calls == []


def _strings(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)
    elif isinstance(node, str):
        yield node


def test_scale_must_be_the_least():
    """The constructor refuses a scale below 1, and for L > 1 keeps a frame
    whose entries all share a factor g with L on the least scale, L and the
    rows divided by g: x^1 on the frame of scale 2 is x^1 on its least
    frame, equal and hashing alike."""
    with pytest.raises(ValueError, match="scale must be >= 1"):
        Signomial(1, (1,), 0, ((1,),))
    with pytest.raises(ValueError, match="scale must be >= 1"):
        Signomial(1, (1,), -1, ((1,),))
    f, least = Signomial(1, (1,), 2, ((2,),)), Signomial.from_terms(1, [(1, (1,))])
    assert f == least and hash(f) == hash(least) and (f.scale, f.frame) == (1, ((1,),))
    g = Signomial(2, (1, -1), 6, ((0, 2), (4, 6)))
    assert (g.scale, g.frame) == (3, ((0, 1), (2, 3)))
    assert g == Signomial.from_terms(2, [(1, (0, F(1, 3))), (-1, (F(2, 3), 1))])
    assert (Signomial(1, (), 3, ()).scale, Signomial(1, (), 3, ()).frame) == (1, ())
    # gcd(6, 2, 3) = 1: each entry may share a factor with L on its own
    f = Signomial(2, (1, -1), 6, ((0, 2), (3, 6)))
    assert f.scale == 6 and f == Signomial.from_terms(2, [(1, (0, F(1, 3))), (-1, (F(1, 2), 1))])
    assert Signomial(1, (1,), 1, ((2,),)).support == ((F(2),),)


def test_the_least_scale_check_does_no_gcd_work_at_scale_one(monkeypatch):
    """An integral frame pays nothing for the check."""
    calls = []
    real = math.gcd
    monkeypatch.setattr(signomial, "math", type("M", (), {"gcd": lambda *a: calls.append(a) or real(*a)}))
    Signomial(2, (1, -1), 1, ((0, 2), (4, 6)))
    assert calls == []
    Signomial(2, (1, -1), 2, ((0, 2), (4, 5)))
    assert len(calls) == 1


def test_sign_views_build_only_their_own_rows(monkeypatch):
    """``negatives`` and ``positives`` build the Fractions of their own rows
    only: on WIDE16 (19 terms, 16 variables, L = 12) at most 16 per row of
    the sign, where the full support view builds all 19 rows' 304."""
    from fixtures import WIDE16

    assert WIDE16.scale > 1 and len(WIDE16.frame) == 19
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or real_new(cls, *args, **kw))
    for view, indices in ((negatives, WIDE16.negative_indices), (positives, WIDE16.positive_indices)):
        built.clear()
        rows = view(WIDE16)
        assert len(built) <= 16 * len(indices) < 304
        assert rows == tuple(WIDE16.support[i] for i in indices)


def previous_evaluate_log(f, y):
    """``evaluate_log`` on the ``terms`` view, each exponent entry and
    coefficient a ``Fraction`` made float."""
    total = 0.0
    for t in f.terms:
        e = sum(float(m) * float(c) for m, c in zip(t.exponent, y))
        total += float(t.coefficient) * math.exp(e)
    return total


@given(rational_signed_supports(), st.lists(st.floats(-4, 4), min_size=4, max_size=4))
@settings(deadline=None, max_examples=60)
def test_evaluate_log_reads_the_frame_to_the_same_float(f, y):
    """Each frame entry over L is the correctly rounded float of the
    exponent entry, so the frame gives the view's float bit for bit."""
    y = y[: f.dimension]
    assert evaluate_log(f, y).hex() == previous_evaluate_log(f, y).hex()


def test_evaluate_log_makes_no_fraction(monkeypatch):
    """On WIDE16 (L = 12) the ``terms`` view made 323 Fractions per call:
    its 19 coefficients and all 304 exponent entries."""
    from fixtures import WIDE16

    y = [0.1 * k for k in range(16)]
    expected = previous_evaluate_log(WIDE16, y)
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or real_new(cls, *args, **kw))
    assert evaluate_log(WIDE16, y) == expected and built == []
    previous_evaluate_log(WIDE16, y)
    assert len(built) == 323
