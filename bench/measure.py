"""The benchmark's arithmetic and its tracer.

``quantile`` and ``tail`` turn per-instance timings into the reported
percentiles; ``share`` gives ratios that stay defined on an empty
denominator; ``reference_work`` and ``normalized`` scale timings to a fixed
reference speed; ``Tracer`` records spans around calls into the library
from outside it, and ``self_times`` subtracts child spans from each span.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
import statistics
import time
from fractions import Fraction
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from scipy.special import betainc

TAIL_BEYOND = 10  # samples a tail percentile must leave above it
REF_SECONDS = 0.003  # a reference computation's time at the reference speed
REF_REACH = 1.0  # seconds around a sample whose reference runs give its speed,
# or twice the sample's own time if that is longer
REF_LEAST = 5  # or this many nearest reference runs, if fewer lie that close

_rng = random.Random(0)
_REF_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(9)] for _ in range(8)]


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics with Beta((n+1)q, (n+1)(1-q))
    weights.  Unlike the sample quantile it does not jump when two
    neighbouring samples swap places, which keeps it steady on corpora whose
    instance costs have gaps between them.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("quantile of no samples")
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ``TAIL_BEYOND`` of ``n`` samples
    beyond it (nearest rank), or 0 when no percentile has that many."""
    if n <= TAIL_BEYOND:
        return 0
    q = (100 * (n - TAIL_BEYOND)) // n
    while q > 0 and n - math.ceil(q * n / 100) < TAIL_BEYOND:
        q -= 1
    return q


def tail(values: Sequence[float]) -> Tuple[float, int]:
    """(value, percentile) of the tail statistic; the value is the maximum
    when there are too few samples for any percentile to qualify."""
    q = tail_percentile(len(values))
    if q == 0:
        return max(values), 100
    return quantile(values, q / 100), q


def share(part: float, whole: float) -> float:
    """part / whole, and 0.0 when whole is 0 (no attempts, no successes)."""
    return part / whole if whole else 0.0


def reference_work():
    """A fixed computation that does not use the library: Gauss-Jordan
    elimination over ``Fraction`` on a fixed 8x9 matrix.  Its mix of
    rational arithmetic and list churn is the certifier's, so it slows down
    with the machine the way the certifier does."""
    a = [row[:] for row in _REF_MATRIX]
    n = len(a)
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def normalized(samples: Sequence[Tuple[float, float]], refs: Sequence[Tuple[float, float]]) -> List[float]:
    """Each (start, elapsed) sample scaled to the reference speed:
    ``elapsed * REF_SECONDS / local``, where ``local`` is the median elapsed
    time of the (start, elapsed) reference runs that start within
    ``REF_REACH`` seconds of the sample (twice its time for a long sample),
    or of the ``REF_LEAST`` nearest ones when fewer start that close."""
    refs = sorted(refs)
    starts = [r[0] for r in refs]
    out = []
    for start, elapsed in samples:
        reach = max(REF_REACH, 2 * elapsed)
        lo = bisect.bisect_left(starts, start - reach)
        hi = bisect.bisect_right(starts, start + elapsed + reach)
        if hi - lo < REF_LEAST:
            mid = start + elapsed / 2
            near = sorted(refs, key=lambda r: abs(r[0] + r[1] / 2 - mid))[:REF_LEAST]
        else:
            near = refs[lo:hi]
        out.append(elapsed * REF_SECONDS / statistics.median(r[1] for r in near))
    return out


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float = 0.0
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            cs, ce = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Span recorder that wraps library functions from outside the library.

    ``patch`` replaces every reference to a wrapped function in the given
    modules, including modules that imported it by name, and returns an undo
    list for ``unpatch``.  Spans stay in memory until ``summary``.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def patch(self, modules, targets: Dict[str, Tuple[object, str, Optional[Counter]]]):
        """``targets`` maps a span name to (home module, attribute, counter)."""
        undo = []
        for name, (home, attr, counter) in targets.items():
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        return undo

    @staticmethod
    def unpatch(undo):
        for module, key, original in reversed(undo):
            setattr(module, key, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and the summed counts."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += own
            for key, value in span.counts.items():
                if key.startswith("max_"):
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return out
