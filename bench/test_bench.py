"""Tests of the benchmark's own code: seeded inputs and arithmetic.

Run with ``python -m pytest bench`` from the repository root.
"""

import math
import statistics
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import layers  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
from measure import (  # noqa: E402
    REF_LEAST,
    REF_SECONDS,
    Span,
    Tracer,
    normalized,
    quantile,
    reference_work,
    self_times,
    share,
    tail,
    tail_percentile,
)

from descregions.parsing import parse_signomial  # noqa: E402

CERTIFY_WORKLOADS = ("lowdim-flagged", "cube-recursion", "wide-hull")


@pytest.mark.parametrize("workload", CERTIFY_WORKLOADS)
def test_same_seed_same_texts_other_seed_other_texts(workload):
    first = corpus.corpus(workload, 7, 12)
    assert first == corpus.corpus(workload, 7, 12)
    other = corpus.corpus(workload, 8, 12)
    assert first != other
    generated = slice(1, None) if workload == "wide-hull" else slice(None)
    assert all(a != b for a, b in zip(first[generated], other[generated]))


@pytest.mark.parametrize("workload", CERTIFY_WORKLOADS)
def test_seeded_images_keep_the_shape_and_order_of_their_base(workload):
    for a, b in zip(corpus.corpus(workload, 1, 12), corpus.corpus(workload, 2, 12)):
        f, g = parse_signomial(a), parse_signomial(b)
        assert (f.dimension, len(f.terms)) == (g.dimension, len(g.terms))
        # terms are kept in exponent order, so equal sign sequences mean the
        # scaling kept the order in which the certifier visits exponents
        assert [t.coefficient > 0 for t in f.terms] == [t.coefficient > 0 for t in g.terms]


def test_lowdim_shapes_follow_the_stratification():
    for i, text in enumerate(corpus.corpus("lowdim-flagged", 3, 28)):
        f = parse_signomial(text)
        n, k, bound = corpus.LOWDIM_SHAPES[i % len(corpus.LOWDIM_SHAPES)]
        assert (f.dimension, len(f.terms)) == (n, k)
        top = bound * max(corpus.SCALE_FACTORS)
        assert all(0 <= e <= top and e.denominator == 1 for t in f.terms for e in t.exponent)


def test_wide_hull_starts_with_the_fixture():
    assert corpus.corpus("wide-hull", 5, 3)[0] == corpus.load_fixture_text("WIDE16_TEXT")


def test_tail_percentile_leaves_ten_samples_and_is_the_highest_that_does():
    for n in range(11, 400):
        q = tail_percentile(n)
        assert n - math.ceil(q * n / 100) >= 10
        assert q == 99 or n - math.ceil((q + 1) * n / 100) < 10
    assert [tail_percentile(n) for n in (10, 11, 20, 28, 42, 1000)] == [0, 9, 50, 64, 76, 99]


def test_tail_of_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_tail_lies_between_median_and_maximum():
    values = [float(i) for i in range(1, 41)]
    value, pct = tail(values)
    assert pct == 75
    assert quantile(values, 0.5) < value < max(values)


def test_quantile_of_symmetric_and_constant_samples():
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert quantile([2.5] * 7, 0.9) == pytest.approx(2.5)
    assert quantile([4.0], 0.5) == 4.0
    values = [0.1, 0.4, 0.2, 3.0, 0.3, 0.25]
    assert quantile(values, 0.25) < quantile(values, 0.5) < quantile(values, 0.75)


def test_self_time_subtracts_children_on_a_nested_tree():
    spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.leaf", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 7.0),
        Span("b", 0, 6.5, 8.0),  # overlaps its sibling: the union counts once
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 3, 2.0, 1.0, 2.0, 1.5])


def test_share_with_a_zero_denominator_is_zero():
    assert share(0, 0) == 0.0
    assert share(3, 4) == 0.75
    metrics = layers.layer_metrics({})
    assert metrics["lp.feasible.feasible_share"] == 0.0
    assert metrics["certify.intersection_nonempty.found_share"] == 0.0
    assert metrics["lp.feasible.calls"] == 0


def test_tracer_patches_names_imported_by_other_modules():
    home = types.ModuleType("home")
    user = types.ModuleType("user")

    def inner(x):
        return x + 1

    def outer(x):
        return home.inner(x) * 2

    home.inner, home.outer = inner, outer
    user.inner = inner  # as after "from home import inner"
    tracer = Tracer()
    undo = tracer.patch(
        [home, user],
        {"inner": (home, "inner", lambda a, k, r: {"value": r}), "outer": (home, "outer", None)},
    )
    assert user.inner is home.inner and user.inner is not inner
    assert home.outer(1) == 4 and user.inner(5) == 6
    Tracer.unpatch(undo)
    assert (home.inner, home.outer, user.inner) == (inner, outer, inner)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", -1)]
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["inner"]["value"] == 2 + 6


def test_every_span_has_a_home_and_known_quantities():
    names = [name for name, _ in layers.per_layer_names()]
    assert len(names) == len(set(names))
    for span, (_, quantities, homes) in layers.SPANS.items():
        module, attr = span.split(".")
        assert module and attr and homes and quantities


def test_every_workload_times_a_stage_and_every_span_home_is_a_workload():
    assert tuple(pipeline.TIMED_STAGE) == run.WORKLOADS
    assert set(pipeline.TIMED_STAGE.values()) == set(pipeline.STAGES)
    assert set(pipeline.SCALED) <= set(run.WORKLOADS)
    for _, (_, _, homes) in layers.SPANS.items():
        assert set(homes) <= set(run.WORKLOADS)


def test_measure_samples_every_instance_and_stops_at_the_deadline(monkeypatch):
    costs = {"cheap": 0.001, "costly": 0.004}

    def fake_stage(inst):
        time.sleep(costs[inst.text])
        return costs[inst.text]

    monkeypatch.setitem(pipeline.STAGES, "replay", fake_stage)
    instances = [pipeline.Instance("test", text, None) for text in costs]
    t0 = time.perf_counter()
    samples, refs = pipeline.measure(instances, "replay", t0 + 0.3, scaled=True)
    assert time.perf_counter() - t0 < 0.3 + 2 * pipeline.BURST_SECONDS
    assert len(samples) == sum(len(i.times["replay"]) for i in instances)
    # the reference computation gets its share of the window, interleaved
    assert refs and refs[0][0] < samples[-1][1]
    cheap, costly = (len(i.times["replay"]) for i in instances)
    assert costly >= pipeline.MIN_SAMPLES
    assert cheap > costly  # even shares of the window, not of the samples


def test_normalized_scales_each_sample_by_the_reference_runs_near_it():
    slow = [(t / 10, 2 * REF_SECONDS) for t in range(10)]  # in [0, 1)
    fast = [(10 + t / 10, REF_SECONDS / 2) for t in range(10)]  # in [10, 11)
    samples = [(0.5, 0.1), (10.5, 0.1)]
    assert normalized(samples, slow + fast) == pytest.approx([0.05, 0.2])


def test_normalized_falls_back_to_the_nearest_reference_runs():
    refs = [(100.0 + t, REF_SECONDS * (1 + t)) for t in range(2 * REF_LEAST)]
    nearest = statistics.median(e for _, e in refs[:REF_LEAST])
    assert normalized([(0.0, 1.0)], refs) == pytest.approx([REF_SECONDS / nearest])


def test_reference_work_is_a_fixed_computation():
    first = reference_work()
    assert first == reference_work()
    n = len(first)
    assert all((first[r][c] == 0) == (r != c) for r in range(n) for c in range(n))
