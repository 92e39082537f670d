"""Seeded input generators for the benchmark workloads.

Every generator returns polynomial *text*, so parsing stays on the timed
path.  The same seed always gives the same texts.

Each corpus is a fixed list of base instances (signed exponent supports,
drawn once from a fixed stream).  The seed draws, per instance, a scale
``e_i -> k_i * e_i`` whose factors ``k_i`` are a permutation of
1, 2, 3, 1, 2, 3, ... (as many as there are coordinates), fresh coefficient
magnitudes and a fresh term order.  The scaling is linear and
invertible, so the Newton polytope keeps its face lattice; it is increasing
in every coordinate, so the sorted exponent order, and with it the order in
which the certifier tries candidates, is kept too.  Every number the LPs and
hulls compute with still changes with the seed.  Seeded corpora that changed
the search order (random draws, or coordinate permutations and reflections)
moved single instances' verdict times by up to 3.6x and the corpus median by
a quarter between seeds, which would measure the corpus rather than the
program.  Factors drawn independently from 1..3 still moved the ``wide-hull``
median by 0.12 (interquartile range over median, six seeds); permuting a
fixed set of factors keeps the magnitudes of the numbers alike across seeds
and moved it by 0.04.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path
from typing import List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent

COEFF_MAX = 9
SCALE_FACTORS = (1, 2, 3)

# (variables, terms, exponent bound) per base instance, stratified by index
LOWDIM_SHAPES = [(n, k, 4) for n in (2, 3) for k in range(4, 9)]
CUBE_SHAPES = [(3, k, 1) for k in range(4, 9)] + [(4, k, 1) for k in range(5, 13)]
WIDE_SHAPES = [(4, 12, 5)]

Exponent = Tuple[int, ...]
SignedSupport = List[Tuple[int, Exponent]]  # (sign, exponent)


def monomial_text(exponent: Sequence[int]) -> str:
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exponent) if e
    )


def polynomial_text(terms: Sequence[Tuple[int, Sequence[int]]]) -> str:
    """Text for integer (coefficient, exponent) pairs, in the given order."""
    chunks = []
    for coeff, exponent in terms:
        mono = monomial_text(exponent)
        mag = abs(coeff)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        chunks.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def base_support(workload: str, index: int, shape: Tuple[int, int, int]) -> SignedSupport:
    """Distinct exponents in {0..bound}^n, each coordinate non-constant (so
    every variable occurs), with both signs present."""
    variables, terms, bound = shape
    rng = random.Random(f"base/{workload}/{index}")
    grid = list(itertools.product(range(bound + 1), repeat=variables))
    while True:
        picked = rng.sample(grid, terms)
        if all(len({e[i] for e in picked}) > 1 for i in range(variables)):
            break
    while True:
        signs = [rng.choice((-1, 1)) for _ in picked]
        if 1 in signs and -1 in signs:
            return list(zip(signs, picked))


def seeded_image(support: SignedSupport, seed: int, tag: str) -> str:
    """The seed's image of a base support, as polynomial text."""
    rng = random.Random(f"{seed}/{tag}")
    dimension = len(support[0][1])
    scale = [SCALE_FACTORS[i % len(SCALE_FACTORS)] for i in range(dimension)]
    rng.shuffle(scale)
    terms = [
        (sign * rng.randint(1, COEFF_MAX), tuple(k * e for k, e in zip(scale, exponent)))
        for sign, exponent in support
    ]
    rng.shuffle(terms)
    return polynomial_text(terms)


def _stratified(workload: str, shapes, seed: int, count: int) -> List[str]:
    texts = []
    for i in range(count):
        shape = shapes[i % len(shapes)]
        support = base_support(workload, i, shape)
        texts.append(seeded_image(support, seed, f"{workload}/{i}"))
    return texts


def load_fixture_text(name: str) -> str:
    """A ``*_TEXT`` constant of ``tests/fixtures.py``, read without editing it."""
    spec = importlib.util.spec_from_file_location("_bench_fixtures", REPO / "tests" / "fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def corpus(workload: str, seed: int, count: int) -> List[str]:
    """The ``count`` instance texts of a certify workload for ``seed``."""
    if workload == "lowdim-flagged":
        return _stratified("lowdim", LOWDIM_SHAPES, seed, count)
    if workload == "cube-recursion":
        return _stratified("cube", CUBE_SHAPES, seed, count)
    if workload == "wide-hull":
        return [load_fixture_text("WIDE16_TEXT")] + _stratified("wide", WIDE_SHAPES, seed, count - 1)
    raise ValueError(f"unknown certify workload {workload!r}")
