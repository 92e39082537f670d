import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from descregions import criteria, lp
from descregions.lp import (
    LinearSystem,
    feasible,
    separate_segment_from_hull,
)
from descregions.linalg import dot, lattice
from descregions.certify import certify_connectivity
from descregions.check import CertifyConfig
from descregions.parsing import parse_signomial
from descregions.signomial import Signomial

import fixtures
import lp_oracle
import row_lp_oracle
from lp_oracle import int_system
from fixtures import BOX_F, TEN_TERM, TEN_TERM_UPPER, vec
from fm_oracle import fm_feasible
from signs import negatives, positives
from workloads import WORKLOADS, corpus

F = Fraction


def test_infeasible_pair():
    sys_ = int_system(1, [((1,), 1, ">="), ((-1,), 0, ">=")])
    assert not feasible(sys_).is_feasible


def test_feasible_triangle():
    sys_ = int_system(2, [((1, 1), 1, ">="), ((1, 0), 0, ">="), ((0, 1), 0, ">=")])
    res = feasible(sys_)
    assert res.is_feasible
    x, y = res.witness
    assert x + y >= 1 and x >= 0 and y >= 0


def test_equality_rows():
    sys_ = int_system(2, [((1, 1), 2, "="), ((1, -1), 0, "="), ((1, 0), 1, ">=")])
    res = feasible(sys_)
    assert res.is_feasible
    assert res.witness == (F(1), F(1))
    sys_bad = int_system(1, [((1,), 1, "="), ((1,), 2, "=")])
    assert not feasible(sys_bad).is_feasible


def test_separating_system_for_upper_restriction():
    # unknowns (v1, v2, a); beta0 = (3, 2) strictly above
    neg = sorted(negatives(TEN_TERM_UPPER))
    pos = sorted(positives(TEN_TERM_UPPER))
    rows = []
    for beta in neg:
        rows.append((tuple(beta) + (-1,), 0, ">="))
    for alpha in pos:
        rows.append((tuple(-c for c in alpha) + (1,), 0, ">="))
    rows.append(((3, 2, -1), 1, ">="))
    res = feasible(int_system(3, rows))
    assert res.is_feasible
    v = res.witness[:2]
    a = res.witness[2]
    assert all(dot(v, b) >= a for b in neg)
    assert all(dot(v, p) <= a for p in pos)
    assert dot(v, vec(3, 2)) > a
    # the printed witness (v, a) = ((1, 0), 2) satisfies the same system
    assert all(dot(vec(1, 0), b) >= 2 for b in neg)
    assert all(dot(vec(1, 0), p) <= 2 for p in pos)


def test_separate_segment_feasible_for_box_fixture():
    # integral exponents: the lattice frame is the exponents as ints
    pos = lattice(sorted(set(positives(BOX_F))))[1]
    res = separate_segment_from_hull((0, 4), (4, 4), pos)
    assert res.is_feasible
    w, c = res.witness[:2], res.witness[2]
    assert min(dot(w, (0, 4)), dot(w, (4, 4))) > max(dot(w, p) for p in pos)


def test_separate_segment_shared_point_infeasible():
    res = separate_segment_from_hull((0, 0), (0, 0), [(0, 0)])
    assert not res.is_feasible


def test_separate_segment_through_hull_infeasible():
    # (0, 2) is a positive exponent lying on the segment (0,1)-(0,3)
    pos = lattice(sorted(set(positives(TEN_TERM))))[1]
    res = separate_segment_from_hull((0, 3), (0, 1), pos)
    assert not res.is_feasible


def _random_system(rng):
    unknowns = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 8)):
        coeffs = tuple(F(rng.randint(-5, 5)) for _ in range(unknowns))
        rhs = F(rng.randint(-5, 5))
        rel = "=" if rng.random() < 0.25 else ">="
        rows.append((coeffs, rhs, rel))
    return unknowns, rows


def test_simplex_matches_fourier_motzkin_sample():
    rng = random.Random(1729)
    for _ in range(120):
        unknowns, rows = _random_system(rng)
        got = feasible(int_system(unknowns, rows)).is_feasible
        want = fm_feasible(rows, unknowns)
        assert got == want, (unknowns, rows)


@given(st.integers(1, 1000000))
@settings(deadline=None, max_examples=40)
def test_scaling_invariance(scale_num):
    scale = F(scale_num, 977)
    rng = random.Random(scale_num)
    unknowns, rows = _random_system(rng)
    base = feasible(int_system(unknowns, rows)).is_feasible
    scaled_rows = [
        (tuple(scale * c for c in coeffs), scale * rhs, rel) for coeffs, rhs, rel in rows
    ]
    scaled = feasible(int_system(unknowns, scaled_rows)).is_feasible
    assert base == scaled


def test_witnesses_satisfy_rows_exactly():
    rng = random.Random(42)
    for _ in range(60):
        unknowns, rows = _random_system(rng)
        res = feasible(int_system(unknowns, rows))
        if not res.is_feasible:
            continue
        for coeffs, rhs, rel in rows:
            lhs = dot(coeffs, res.witness)
            assert lhs == rhs if rel == "=" else lhs >= rhs


def test_row_width_validation():
    with pytest.raises(ValueError):
        LinearSystem(2, (((1,), 0),))


def test_rational_system_witness_is_pinned():
    # non-integer coefficients, an "=" row and negative right-hand sides
    rows = [
        ((F(1, 2), F(-2, 3), F(1)), F(5, 4), ">="),
        ((F(3, 5), F(1), F(-1, 7)), F(-2, 3), ">="),
        ((F(1), F(1), F(1)), F(1, 3), "="),
        ((F(-1, 3), F(1, 2), F(0)), F(-1), ">="),
    ]
    assert feasible(int_system(3, rows)).witness == (F(53, 42), F(-13, 14), F(0))


def _rational_system(rng):
    unknowns = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 7)):
        coeffs = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(unknowns))
        rhs = F(rng.randint(-6, 6), rng.randint(1, 5))
        rel = "=" if rng.random() < 0.25 else ">="
        rows.append((coeffs, rhs, rel))
    return unknowns, rows


def _is_farkas_certificate(y, system):
    """y >= 0 combines the int rows into 0 . x >= a positive number."""
    rows = system.rows
    return (
        len(y) == len(rows)
        and all(yi >= 0 for yi in y)
        and all(sum(yi * coeffs[j] for yi, (coeffs, _) in zip(y, rows)) == 0 for j in range(system.unknowns))
        and sum(yi * rhs for yi, (_, rhs) in zip(y, rows)) > 0
    )


def test_rational_systems_match_fourier_motzkin_with_checked_answers():
    rng = random.Random(2718)
    infeasible = 0
    for _ in range(300):
        unknowns, rows = _rational_system(rng)
        system = int_system(unknowns, rows)
        res = feasible(system)
        assert res.is_feasible == fm_feasible(rows, unknowns), (unknowns, rows)
        if res.is_feasible:
            assert res.farkas is None
            for coeffs, rhs, rel in rows:
                lhs = dot(coeffs, res.witness)
                assert lhs == rhs if rel == "=" else lhs >= rhs
        else:
            infeasible += 1
            assert _is_farkas_certificate(res.farkas, system), (unknowns, rows)
    assert infeasible >= 50


def test_farkas_check_rejects_a_wrong_certificate(monkeypatch):
    # x >= 1, -x >= 0 and x = 3, the last as x >= 3 and -x >= -3
    system = int_system(1, [((1,), 1, ">="), ((-1,), 0, ">="), ((1,), 3, "=")])
    y = feasible(system).farkas
    assert lp._refutes(system, y)
    # a nonzero combination, a negative multiplier, a nonpositive
    # right-hand side
    for wrong in ((1, 1, 1, 0), (-1, 0, 0, -1), (0, 0, 1, 1), (0, 0, 0, 0)):
        assert not lp._refutes(system, wrong)
    # a kernel whose certificate fails the check raises instead of answering
    monkeypatch.setattr(lp, "_refutes", lambda system, y: False)
    with pytest.raises(RuntimeError):
        feasible(system)


def same_path(unknowns, rows, scales):
    """Solve the rows, and the rows with column j multiplied by scales[j] > 0
    as the lattice frame does: the same answer, a witness with x_j =
    scales[j] * x'_j, and Farkas vectors with the same support."""
    plain = feasible(int_system(unknowns, rows))
    scaled_rows = [(tuple(c * s for c, s in zip(coeffs, scales)), rhs, rel) for coeffs, rhs, rel in rows]
    scaled = feasible(int_system(unknowns, scaled_rows))
    assert plain.is_feasible == scaled.is_feasible
    if plain.is_feasible:
        assert plain.witness == tuple(s * x for s, x in zip(scales, scaled.witness))
    else:
        assert [y != 0 for y in plain.farkas] == [y != 0 for y in scaled.farkas]
    return plain


def test_column_scaling_keeps_the_bland_path_on_the_oracle_systems():
    """Each column times the lcm of its denominators (its integer frame) and
    a random positive factor, on the rational Fourier-Motzkin systems."""
    rng = random.Random(4242)
    infeasible = 0
    for _ in range(300):
        unknowns, rows = _rational_system(rng)
        scales = [
            math.lcm(*(coeffs[j].denominator for coeffs, _, _ in rows)) * rng.choice((1, 1, 2, 5))
            for j in range(unknowns)
        ]
        res = same_path(unknowns, rows, scales)
        assert res.is_feasible == fm_feasible(rows, unknowns)
        infeasible += not res.is_feasible
    assert infeasible >= 50


def same_status_as_oracles(system, eliminate=True):
    """The narrow kernel against the wide tableau it replaced and, with
    ``eliminate``, Fourier-Motzkin: the same feasibility status.  Their
    Bland paths differ, so the witness or Farkas vector is checked exactly
    on the rows as given instead, and the integer witness (values, d) is
    the witness times d."""
    got = feasible(system)
    assert got.is_feasible == lp_oracle.feasible(system).is_feasible, system
    if eliminate:
        assert got.is_feasible == fm_feasible([(c, b, ">=") for c, b in system.rows], system.unknowns), system
    if got.is_feasible:
        assert got.farkas is None and len(got.witness) == system.unknowns
        assert all(dot(coeffs, got.witness) >= rhs for coeffs, rhs in system.rows)
        values, d = got.integer_witness
        assert all(type(a) is int for a in values) and type(d) is int and d > 0
        assert tuple(Fraction(a, d) for a in values) == got.witness
    else:
        assert _is_farkas_certificate(got.farkas, system), system
        assert got.integer_witness is None
    return got


RATIONAL = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 5)))


@st.composite
def rational_systems(draw):
    """Up to 6 unknowns and 12 rows: >= and = rows, negative right-hand
    sides, and zero rows."""
    n = draw(st.integers(1, 6))
    row = st.tuples(
        st.one_of(st.just((F(0),) * n), st.tuples(*[RATIONAL] * n)),
        RATIONAL,
        st.sampled_from((">=", ">=", ">=", "=")),
    )
    return int_system(n, draw(st.lists(row, min_size=1, max_size=12)))


@given(rational_systems())
@settings(deadline=None, max_examples=300)
def test_narrow_kernel_agrees_with_the_oracles(system):
    same_status_as_oracles(system)


def test_narrow_kernel_agrees_with_the_oracles_on_the_oracle_systems():
    rng = random.Random(3141)
    answers = set()
    for make in (_random_system, _rational_system):
        for _ in range(300):
            unknowns, rows = make(rng)
            answers.add(same_status_as_oracles(int_system(unknowns, rows)).is_feasible)
    assert answers == {True, False}


def test_narrow_kernel_agrees_with_the_oracles_on_the_fixture_lps(monkeypatch):
    """Every separating, enclosing and segment LP that certifying the
    fixtures solves, with the default searches and with every search on;
    Fourier-Motzkin only up to 4 unknowns, past which it blows up."""
    systems = []
    solve = lp.feasible

    def record(system):
        systems.append(system)
        return solve(system)

    monkeypatch.setattr(lp, "feasible", record)
    flagged = CertifyConfig(enable_simplex_search=True, enable_enclosing_search=True, enable_box_criterion=True)
    for f in vars(fixtures).values():
        if isinstance(f, Signomial):
            for config in (CertifyConfig(), flagged):
                certify_connectivity(f, config)
    monkeypatch.undo()
    assert len(systems) > 100
    answers = {same_status_as_oracles(system, system.unknowns <= 4).is_feasible for system in systems}
    assert answers == {True, False}


def result_fields(res):
    """All four fields, the last two being left out of ``==``."""
    return res.witness, res.farkas, res.pivots, res.integer_witness


@st.composite
def int_systems(draw):
    """0 to 6 unknowns and 0 to 12 int rows, with zero rows, about half of
    the other entries 0, so that columns stay stale across pivots, and
    right-hand sides above, at and below 0."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    coeffs = st.one_of(st.just((0,) * n), st.tuples(*[entry] * n))
    rhs = st.one_of(st.integers(1, 6), st.just(0), st.integers(-6, -1))
    return LinearSystem(n, tuple(draw(st.lists(st.tuples(coeffs, rhs), max_size=12))))


@given(int_systems())
@settings(deadline=None, max_examples=400)
@example(LinearSystem(0, ()))
@example(LinearSystem(3, ()))
@example(LinearSystem(0, (((), 1), ((), 0), ((), -2))))
@example(LinearSystem(2, (((0, 0), 1), ((1, -1), 0))))
def test_column_kernel_walks_the_row_kernels_path(system):
    """The column-major kernel against the row-major one it replaced: the
    same witness, Farkas vector, pivot count and integer witness."""
    assert result_fields(feasible(system)) == result_fields(row_lp_oracle.feasible(system))


# systems whose answer reads a column that a pivot left over an older
# denominator, and their four fields
STALE_COLUMNS = {
    # the first pivot, on -2 x_1 >= 2, leaves x_2's column over 1 and makes
    # d = 2; x_2 then enters, brought to d, for -x_2 >= 3
    "stale-column-enters": (
        LinearSystem(2, (((0, -1), 3), ((-2, 0), 2))),
        ((F(-1), F(-3)), None, 2, ((-2, -6), 2)),
    ),
    # 0 x >= 1 keeps its artificial basic: the one pivot, on -2 x >= 2,
    # leaves the surplus column of 0 x >= 1 over 1, and its multiplier 2 is
    # read over d = 2
    "farkas-off-a-stale-surplus": (
        LinearSystem(1, (((0,), 1), ((-2,), 2))),
        (None, (2, 0), 1, None),
    ),
    # the first pivot, on 3 x_1 >= 0, leaves x_2's column and the right-hand
    # side over 1 and makes d = 3; the second, on -x_1 - x_2 >= 1, rebuilds
    # the right-hand side and brings its pivot-row entry 1 to d = 3 there
    "stale-column-rebuilt": (
        LinearSystem(2, (((3, 0), 0), ((-1, -1), 1))),
        ((F(0), F(-1)), None, 2, ((0, -3), 3)),
    ),
}


@pytest.mark.parametrize("name", sorted(STALE_COLUMNS))
def test_stale_columns_are_brought_to_d_where_they_are_read(name):
    system, fields = STALE_COLUMNS[name]
    assert result_fields(feasible(system)) == fields == result_fields(row_lp_oracle.feasible(system))


# seed-1 certify corpora: (LPs solved, pivots made); 73 and 216 on
# cube-recursion and 17 and 102 on wide-hull before negative-face children
# inherited their parent's failed separating search, 85 and 348 on
# lowdim-flagged before the enclosing search walked depth first, and 65 and
# 192 on cube-recursion before a separating search skipped the second
# problem its first one's Farkas certificate rules out
SEED_1_LP_COUNTS = {"lowdim-flagged": (76, 310), "cube-recursion": (54, 157), "wide-hull": (15, 96)}


@pytest.mark.parametrize("workload", sorted(SEED_1_LP_COUNTS))
def test_seed_1_corpus_lps_walk_the_row_kernels_path_with_pinned_counts(workload, monkeypatch):
    """Every LP that certifying a seed-1 benchmark corpus solves gives the
    row-major kernel's four fields, and the LP and pivot counts, which
    trace digests cannot see on infeasible paths, stay pinned."""
    count, config = WORKLOADS[workload]
    solved = []
    solve = lp.feasible

    def record(system):
        solved.append((system, solve(system)))
        return solved[-1][1]

    monkeypatch.setattr(lp, "feasible", record)
    for text in corpus.corpus(workload, 1, count):
        certify_connectivity(parse_signomial(text), config)
    monkeypatch.undo()
    assert (len(solved), sum(res.pivots for _, res in solved)) == SEED_1_LP_COUNTS[workload]
    for system, res in solved:
        assert result_fields(res) == result_fields(row_lp_oracle.feasible(system)), system


# seed-1 certify corpora: second separating problems not solved
SEED_1_SKIPPED_SECOND_PROBLEMS = {"lowdim-flagged": 0, "cube-recursion": 11, "wide-hull": 0}


@pytest.mark.parametrize("workload", sorted(SEED_1_SKIPPED_SECOND_PROBLEMS))
def test_skipped_second_separating_problems_are_infeasible(workload, monkeypatch):
    """A separating search on two or more negatives that solves one problem
    and finds nothing has skipped its second one on the first one's Farkas
    certificate.  Each skipped problem, rebuilt from the first one's weak
    rows and solved after all, is infeasible, on seeds 1-3; the seed-1
    counts are pinned."""
    count, config = WORKLOADS[workload]
    solve, search = lp.feasible, criteria.find_strict_separating_hyperplane
    solved, skipped = [], []

    def searching(f):
        solved.clear()
        found = search(f)
        k = len(f.negative_indices)
        if found is None and k > 1 and len(solved) == 1:
            weak = solved[0].rows[:-1]  # the negatives' rows first, in order
            total = tuple(map(sum, zip(*(coeffs for coeffs, _ in weak[1:k]))))
            skipped.append(LinearSystem(solved[0].unknowns, (*weak, (total, 1))))
        return found

    for seed in (1, 2, 3):
        skipped.clear()
        monkeypatch.setattr(lp, "feasible", lambda system: solved.append(system) or solve(system))
        monkeypatch.setattr(criteria, "find_strict_separating_hyperplane", searching)
        for text in corpus.corpus(workload, seed, count):
            certify_connectivity(parse_signomial(text), config)
        monkeypatch.undo()
        if seed == 1:
            assert len(skipped) == SEED_1_SKIPPED_SECOND_PROBLEMS[workload]
        assert not any(feasible(system).is_feasible for system in skipped)


@given(int_systems(), st.data())
@settings(deadline=None, max_examples=300)
def test_sparse_farkas_check_agrees_with_the_dense_one(system, data):
    """``lp._refutes`` combines only the rows whose multiplier is nonzero;
    the dense check combines every row.  Random multipliers with negatives
    and zeros, and the kernel's own certificate."""
    y = data.draw(st.lists(st.integers(-2, 3), min_size=len(system.rows), max_size=len(system.rows)))
    candidates = [y, [abs(a) for a in y]]
    farkas = feasible(system).farkas
    if farkas is not None:
        candidates += [farkas, [a + (i == 0) for i, a in enumerate(farkas)]]
    for candidate in candidates:
        assert lp._refutes(system, candidate) == row_lp_oracle._refutes(system, candidate), candidate
