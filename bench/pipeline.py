"""The per-instance pipeline the benchmark times, and its correctness gate.

An instance goes from polynomial text to a trace (``verdict``), the trace is
replayed from its JSON (``replay``), and the grid oracle counts components
(``oracle``).  Each workload times one of these stages; the gate runs every
stage once on every instance, whatever the workload times.  Every stage
checks its output the first time and that repeats give the same output; any
exception or disagreement fails the instance and is reported with its text.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import corpus
from measure import reference_work

sys.path.insert(0, str(corpus.REPO / "src"))
# cli is imported so that the traced run also wraps the names it imported
from descregions import certify, cli, lp, oracle, parsing, polytope, tracedoc  # noqa: E402,F401
from descregions.criteria import CertifyConfig  # noqa: E402

# workload -> the stage it times
TIMED_STAGE = {
    "lowdim-flagged": "verdict",
    "cube-recursion": "verdict",
    "wide-hull": "verdict",
    "replay": "replay",
    "oracle": "oracle",
}
# the workloads whose times are scaled to the reference speed: their stages
# are interpreted Python over Fraction and lists, which slows down with the
# machine the way the reference computation does.  The oracle's numpy and
# scipy calls do not follow it.
SCALED = ("lowdim-flagged", "cube-recursion", "wide-hull", "replay")
# the certify corpora whose certified instances the replay and oracle workloads use
VALIDATE_SOURCES = ("lowdim-flagged", "cube-recursion")
CORPUS_SIZE = {"lowdim-flagged": 28, "cube-recursion": 26, "wide-hull": 10}
MIN_SAMPLES = 3  # every instance gets this many before the even shares start
MAX_SAMPLES = 1000  # per instance; caps the cheapest instances
BURST_SAMPLES = 10  # a repeat runs the stage back to back up to this many times
BURST_SECONDS = 0.02  # or until this long has passed
REF_SHARE = 0.15  # reference-computation time per unit of timed stage time


@dataclass
class Instance:
    origin: str  # workload whose corpus the text belongs to
    text: str
    config: object
    f: object = None
    outcome: Optional[str] = None
    trace: Optional[str] = None
    errors: Optional[list] = None
    count: Optional[int] = None
    failure: Optional[str] = None
    times: Dict[str, List[float]] = field(default_factory=lambda: {"verdict": [], "replay": [], "oracle": []})


def _fail(inst: Instance, message: str):
    if inst.failure is None:
        inst.failure = message


def stage_verdict(inst: Instance) -> float:
    t0 = time.perf_counter()
    f = parsing.parse_signomial(inst.text)
    cert = certify.certify_connectivity(f, inst.config)
    doc = tracedoc.make_document(f, inst.config, cert, source=inst.text)
    text = tracedoc.document_to_json(doc)
    elapsed = time.perf_counter() - t0
    if inst.trace is None:
        inst.f, inst.outcome, inst.trace = f, cert.outcome, text
        loaded = json.loads(text)
        if loaded != doc or tracedoc.certificate_from_json(loaded["tree"]) != cert:
            _fail(inst, "trace does not round-trip through JSON")
    elif text != inst.trace:
        _fail(inst, "trace differs between repeats")
    return elapsed


def stage_replay(inst: Instance) -> float:
    t0 = time.perf_counter()
    errors = tracedoc.verify_document(json.loads(inst.trace))
    elapsed = time.perf_counter() - t0
    if inst.errors is None:
        inst.errors = errors
        if errors:
            _fail(inst, f"replay rejected the trace: {errors}")
    elif errors != inst.errors:
        _fail(inst, "replay result differs between repeats")
    return elapsed


def stage_oracle(inst: Instance) -> float:
    t0 = time.perf_counter()
    count = oracle.count_negative_components(inst.f).component_count
    elapsed = time.perf_counter() - t0
    if inst.count is None:
        inst.count = count
        problem = oracle_disagreement(inst.outcome, count)
        if problem:
            _fail(inst, problem)
    elif count != inst.count:
        _fail(inst, "oracle count differs between repeats")
    return elapsed


STAGES = {"verdict": stage_verdict, "replay": stage_replay, "oracle": stage_oracle}


def oracle_disagreement(outcome: str, count: int) -> Optional[str]:
    allowed = {
        certify.CERTIFIED_EMPTY: (0,),
        certify.CERTIFIED_AT_MOST_ONE: (0, 1),
        certify.CERTIFIED_EXACTLY_ONE: (1,),
    }.get(outcome)
    if allowed is not None and count not in allowed:
        return f"oracle counts {count} components for a {outcome} verdict"
    return None


def oracle_fits(inst: Instance) -> bool:
    grid = oracle.default_grid(inst.f.dimension)
    return grid.resolution ** grid.dimension <= grid.cell_cap


def run_stage(inst: Instance, name: str) -> Optional[float]:
    """One timed run of one stage, and its time; an exception fails the
    instance."""
    if inst.failure is not None:
        return None
    if name == "oracle" and (inst.f is None or not oracle_fits(inst)):
        return None
    try:
        elapsed = STAGES[name](inst)
    except Exception as exc:  # the gate reports every failure, whatever it is
        _fail(inst, f"{name}: {type(exc).__name__}: {exc}")
        return None
    inst.times[name].append(elapsed)
    return elapsed


def gate(instances: List[Instance]):
    """Every stage once on every instance that has not been through it yet:
    the checks of the correctness gate."""
    for inst in instances:
        for name in STAGES:
            if not inst.times[name]:
                run_stage(inst, name)


def measure(instances: List[Instance], name: str, deadline: float, scaled: bool):
    """Stage ``name`` on the instances until the deadline, and until each has
    a sample.  Returns the (instance, start, elapsed) samples and the
    (start, elapsed) runs of the reference computation.

    Each repeat goes to the instance with the fewest samples while any has
    fewer than ``MIN_SAMPLES``, and otherwise to the instance that has used
    the least time so far among those not ahead of an even pace to
    ``MAX_SAMPLES`` over the window.  Every instance so gets an even share of
    the window, spread over all of it: cheap instances collect many samples
    and costly ones a few.  A repeat is a burst of back-to-back runs.  If
    ``scaled``, the reference computation runs after each burst for
    ``REF_SHARE`` of the burst's time, so that every sample has reference
    runs close to it."""
    samples, refs = [], []
    # objects built before the window are exempt from collection, so that the
    # collector's pauses scale with the garbage of the timed runs, not with
    # the corpus
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    window = max(deadline - start, 1e-9)
    live = list(instances)
    owed = 0.0
    while True:
        now = time.perf_counter()
        live = [i for i in live if i.failure is None and len(i.times[name]) < MAX_SAMPLES]
        if not live or (now >= deadline and all(i.times[name] for i in live)):
            gc.unfreeze()
            return samples, refs
        pace = BURST_SAMPLES + MAX_SAMPLES * (now - start) / window
        inst = min(
            [i for i in live if len(i.times[name]) < pace] or live,
            key=lambda i: (min(len(i.times[name]), MIN_SAMPLES), sum(i.times[name])),
        )
        for _ in range(BURST_SAMPLES):
            t0 = time.perf_counter()
            elapsed = run_stage(inst, name)
            if elapsed is None:  # the instance failed
                live.remove(inst)
                break
            samples.append((inst, t0, elapsed))
            owed += REF_SHARE * elapsed if scaled else 0.0
            if time.perf_counter() >= now + BURST_SECONDS:
                break
        while owed > 0:
            t0 = time.perf_counter()
            reference_work()
            elapsed = time.perf_counter() - t0
            refs.append((t0, elapsed))
            owed -= elapsed


def config_for(origin: str) -> CertifyConfig:
    if origin == "lowdim-flagged":
        return CertifyConfig(enable_simplex_search=True, enable_box_criterion=True, enable_enclosing_search=True)
    return CertifyConfig()


def build_instances(workload: str, seed: int) -> List[Instance]:
    origins = (workload,) if TIMED_STAGE[workload] == "verdict" else VALIDATE_SOURCES
    return [
        Instance(origin, text, config_for(origin))
        for origin in origins
        for text in corpus.corpus(origin, seed, CORPUS_SIZE[origin])
    ]


def prepare(workload: str, built: List[Instance]) -> List[Instance]:
    """The instances whose timed stage is measured.  The replay and oracle
    workloads first pass their source corpora through the gate, which builds
    the traces, and then measure the certified instances that have a sample
    of their stage."""
    stage = TIMED_STAGE[workload]
    if stage == "verdict":
        return built
    gate(built)
    return [
        i for i in built
        if i.failure is None and i.outcome in certify.CERTIFIED_OUTCOMES and i.times[stage]
    ]
