"""The traced run: per-layer spans and counts, recorded from outside the
library by wrapping its public functions.

The workload's timed stage runs on every instance once untraced and once
traced, in alternating order so that neither side always meets warm caches;
the traces must be byte-identical, and the difference in wall time is
reported as the tracing overhead.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

from measure import Tracer, share

CERTIFY_HOMES = ("lowdim-flagged", "cube-recursion", "wide-hull")


def _found(args, kwargs, result):
    return {"found": result is not None}


def _lp_counts(args, kwargs, result):
    system = args[0]
    rows = len(system.rows)
    return {"rows": rows, "cells": rows * system.unknowns, "feasible": result.is_feasible}


def _hull_counts(args, kwargs, result):
    return {"points": len(result.points), "facets": len(result.facets), "vertices": len(result.vertices)}


def _tree_counts(args, kwargs, result):
    nodes, depth, stack = 0, 0, [(result, 1)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in node.children)
    return {"nodes": nodes, "max_depth": depth}


def _json_counts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _mask_counts(args, kwargs, result):
    return {"cells": int(result.size)}


# span name ("<module>.<function>") -> (counter, reported quantities, home
# workloads on which the span must record calls)
SPANS: Dict[str, tuple] = {
    "lp.feasible": (_lp_counts, ("calls", "self_s", "rows", "cells", "feasible_share"),
                    ("lowdim-flagged", "wide-hull")),
    "lp.separate_segment_from_hull": (None, ("calls", "self_s"), ("lowdim-flagged",)),
    "polytope.build_polytope": (_hull_counts, ("calls", "self_s", "points", "facets", "vertices"),
                                ("wide-hull", "cube-recursion")),
    "polytope.smallest_face_containing": (None, ("calls", "self_s"), ("cube-recursion",)),
    "polytope.parallel_face_pairs": (None, ("calls", "self_s"), ("cube-recursion",)),
    "criteria.find_strict_separating_hyperplane": (_found, ("calls", "self_s", "found_share"), CERTIFY_HOMES),
    "criteria.check_connectivity": (_found, ("calls", "self_s", "found_share"), ("lowdim-flagged",)),
    "criteria.check_box_criterion": (_found, ("calls", "self_s", "found_share"), ("lowdim-flagged",)),
    "criteria.find_strict_enclosing_pair": (None, ("calls", "self_s"), ("lowdim-flagged",)),
    "criteria.negative_vertex_functional": (None, ("calls", "self_s"), ("cube-recursion",)),
    "certify.intersection_nonempty": (_found, ("calls", "self_s", "found_share"), ("cube-recursion",)),
    "certify.certify_connectivity": (_tree_counts, ("calls", "self_s", "nodes", "max_depth"), CERTIFY_HOMES),
    "parsing.parse_signomial": (None, ("calls", "self_s"), ("lowdim-flagged",)),
    "tracedoc.make_document": (None, ("calls", "self_s"), ("lowdim-flagged",)),
    "tracedoc.document_to_json": (_json_counts, ("self_s", "bytes"), ("lowdim-flagged",)),
    "tracedoc.verify_document": (None, ("calls", "self_s"), ("replay",)),
    "certify.verify_certificate": (None, ("self_s",), ("replay",)),
    "oracle.negative_mask": (_mask_counts, ("calls", "self_s", "cells"), ("oracle",)),
    "oracle.count_negative_components": (None, ("calls", "self_s"), ("oracle",)),
}

UNITS = {"self_s": "s", "bytes": "B", "feasible_share": "ratio", "found_share": "ratio"}
SHARES = {"feasible_share": "feasible", "found_share": "found"}
OVERHEAD = {"trace.overhead_s": "s", "trace.overhead_share": "ratio"}


def per_layer_names() -> List[Tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = [
        (f"{span}.{q}", UNITS.get(q, "count"))
        for span, (_, quantities, _) in SPANS.items()
        for q in quantities
    ]
    return out + list(OVERHEAD.items())


def patch_library(tracer: Tracer):
    """Wrap every span target in every descregions module that holds it."""
    modules = [m for name, m in sys.modules.items() if name == "descregions" or name.startswith("descregions.")]
    targets = {}
    for span, (counter, _, _) in SPANS.items():
        module, attr = span.split(".")
        targets[span] = (sys.modules[f"descregions.{module}"], attr, counter)
    return tracer.patch(modules, targets)


def layer_metrics(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    out = {}
    for span, (_, quantities, _) in SPANS.items():
        agg = summary.get(span, {})
        for q in quantities:
            if q in SHARES:
                out[f"{span}.{q}"] = share(agg.get(SHARES[q], 0), agg.get("calls", 0))
            else:
                out[f"{span}.{q}"] = agg.get(q, 0)
    return out


def traced_run(workload: str, seed: int, report: dict):
    """Per-layer metrics from a traced run of the workload's timed stage on
    every instance, checked against an untraced run of it.  Only that stage
    is traced, so no LP or hull span records a call on the replay and oracle
    workloads; the gate runs the other stages untraced."""
    from pipeline import TIMED_STAGE, build_instances, gate, prepare, run_stage

    stage = TIMED_STAGE[workload]
    built = build_instances(workload, seed)
    instances = prepare(workload, built)

    tracer = Tracer()
    elapsed = {False: 0.0, True: 0.0}
    patched = 0
    for k, inst in enumerate(instances):
        for traced in (k % 2 == 1, k % 2 == 0):
            undo = patch_library(tracer) if traced else []
            try:
                t0 = time.perf_counter()
                run_stage(inst, stage)  # the second run is checked against the first
                elapsed[traced] += time.perf_counter() - t0
            finally:
                Tracer.unpatch(undo)
            if traced:
                patched = len(undo)
    untraced, traced = elapsed[False], elapsed[True]
    gate(built)

    summary = tracer.summary()
    metrics = layer_metrics(summary)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = share(traced - untraced, untraced)
    missing = [
        span for span, (_, _, homes) in SPANS.items()
        if workload in homes and summary.get(span, {}).get("calls", 0) == 0
    ]
    report["patched_references"] = patched
    report["missing_spans"] = missing
    report["trace_checks_ok"] = not missing
    units = dict(per_layer_names())
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, built
