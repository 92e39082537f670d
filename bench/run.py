"""Layered benchmark of the exact certifier.

Usage, from the repository root::

    python3 bench/run.py --workload lowdim-flagged --seed 1 --seconds 20 --trace 0

Drives the library in-process on a seeded corpus, checks every output, and
prints one JSON report line followed by the result line (the last line of
standard output).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the timed stage of every instance once untraced and once
traced and reports the per-layer metrics, recorded by wrapping the library's public functions
from outside.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from corpus import REPO

SRC = REPO / "src"
WORKLOADS = ("lowdim-flagged", "cube-recursion", "wide-hull", "replay", "oracle")
SETUP_SAMPLES = 3

SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import descregions.cli\n"
    "from descregions.parsing import parse_signomial\n"
    "for text in json.load(sys.stdin):\n"
    "    parse_signomial(text)\n"
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "instance_s_p50": "s",
    "instance_s_tail": "s",
    "instances_per_s": "1/s",
    "certified_share": "ratio",
}


def setup_seconds(texts: List[str]) -> List[float]:
    """Fresh interpreters, each importing the CLI and parsing the inputs."""
    payload = json.dumps(texts).encode()
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)], input=payload, check=True, cwd=REPO,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (REPO / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def histogram(instances) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for inst in instances:
        key = inst.outcome if inst.failure is None else "failed"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def end_to_end(workload: str, seed: int, seconds: float, report: dict):
    """End-to-end metrics and the instances built, with tracing off.  Only the
    workload's own stage is timed; the gate runs the other stages once."""
    from measure import normalized, quantile, share, tail
    from pipeline import SCALED, TIMED_STAGE, build_instances, certify, gate, measure, prepare

    stage = TIMED_STAGE[workload]
    built = build_instances(workload, seed)
    setup = setup_seconds([inst.text for inst in built])
    measured = prepare(workload, built)
    t0 = time.perf_counter()
    scaled = workload in SCALED
    samples, refs = measure(measured, stage, t0 + seconds, scaled)
    report["window_s"] = time.perf_counter() - t0
    gate(built)

    # each instance's median sample, scaled to the reference speed if the
    # workload is
    raw = [elapsed for _, _, elapsed in samples]
    timed = normalized([s[1:] for s in samples], refs) if scaled else raw
    per_instance: Dict[int, List[float]] = {}
    per_instance_raw: Dict[int, List[float]] = {}
    for (inst, _, _), value, elapsed in zip(samples, timed, raw):
        per_instance.setdefault(id(inst), []).append(value)
        per_instance_raw.setdefault(id(inst), []).append(elapsed)
    values = [statistics.median(v) for v in per_instance.values()]
    raw_values = [statistics.median(v) for v in per_instance_raw.values()]
    metrics = {"setup_s": statistics.median(setup)}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["instance_s_p50"] = quantile(values, 0.5)
    metrics["instance_s_tail"], pct = tail(values)
    metrics["instances_per_s"] = share(len(values), sum(values))
    certified = sum(i.outcome in certify.CERTIFIED_OUTCOMES for i in built if i.failure is None)
    metrics["certified_share"] = share(certified, len(built))
    counts = sorted(len(v) for v in per_instance.values())
    report["stage"] = stage
    report["setup_samples_s"] = setup
    report["tail"] = {"percentile": pct, "instances": len(values)}
    report["samples_per_instance"] = {"min": counts[0], "median": statistics.median(counts)}
    if scaled:
        report["reference"] = {"runs": len(refs), "median_s": statistics.median(e for _, e in refs)}
        report["unscaled_s"] = {"p50": quantile(raw_values, 0.5), "tail": tail(raw_values)[0]}
    return metrics, built


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "descregions" / "__init__.py").is_file() or not (REPO / "tests" / "fixtures.py").is_file():
        print(f"error: no descregions sources under {REPO}", file=sys.stderr)
        return 2

    report = {"workload": args.workload, "env": environment(args.seed)}
    if args.trace:
        import layers

        metrics, built = layers.traced_run(args.workload, args.seed, report)
    else:
        metrics, built = end_to_end(args.workload, args.seed, args.seconds, report)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    report["histogram"] = histogram(built)
    failed = [i for i in built if i.failure is not None]
    report["failed_share"] = len(failed) / len(built)
    report["failures"] = [{"origin": i.origin, "text": i.text, "error": i.failure} for i in failed]
    correct = not failed and report.get("trace_checks_ok", True)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(built), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
