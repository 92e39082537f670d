"""Inputs within the parser's caps that once made the certifier run away,
or that drive a search to its budget, and trace documents that once held
replay for seconds.

Each input is polynomial text, each document a dict as ``json.loads``
gives it.  The tests bound the work they take by counted work (simplex
pivots, recursion nodes, simplex inverses), which repeats exactly, not by
wall time.
"""

import itertools
import random


def parabola_text(terms: int = 400) -> str:
    """Two variables, exponents (i, i^2) for i = 1..terms with alternating
    signs: every exponent is a vertex of the Newton polygon, and each
    separating LP has one row per term."""
    return " ".join(f"{'-' if i % 2 else '+'} x^{i}*y^{i * i}" for i in range(1, terms + 1)).lstrip("+ ")


def _largest_primes(count: int, below: int = 10**6):
    primes, q = [], below
    while len(primes) < count:
        q -= 1
        if q % 2 and all(q % p for p in range(3, int(q**0.5) + 1, 2)):
            primes.append(q)
    return primes


def prime_denominator_text(terms: int = 80) -> str:
    """Two variables, term i with exponent ((i+1)/p, (i+1)^2/q), every
    denominator its own 6-digit prime, so the lattice frame's scale L is the
    product of 2 * terms primes (960 digits at 80 terms)."""
    primes = _largest_primes(2 * terms)
    return " ".join(
        f"{'-' if i % 2 else '+'} x^({i + 1}/{primes[2 * i]})*y^({(i + 1) ** 2}/{primes[2 * i + 1]})"
        for i in range(terms)
    ).lstrip("+ ")


def box_budget_text() -> str:
    """Two variables, exponents in {0..6}^2, 12 negatives and 4 positives:
    exactly the box criterion's default budget of negatives.  No side
    assignment is feasible, and every Farkas certificate of a full
    assignment uses all 12 negatives: the mask loop that tried one LP per
    assignment solved all 2^11 - 1 of them, where the depth-first walk
    refutes them all with the certificates of 3 partial assignments."""
    return (
        "1 - x2^2 - x2^3 - x2^5 - x1 + x1*x2^4 - x1^3 - x1^3*x2^2 - x1^3*x2^4 - x1^3*x2^5"
        " - x1^3*x2^6 + x1^4 - x1^4*x2^6 + x1^5*x2^6 - x1^6*x2^3 - x1^6*x2^6"
    )


def many_negatives_text(seed: int) -> str:
    """Two or three variables, distinct exponents in {0..6}^n, 13 to 20
    negatives and 2 to 5 positives in an order, all drawn by
    ``random.Random(seed)``: past the enclosing search's default budget of
    12 negatives, where one LP per side assignment would be up to 2^19."""
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    k, p = rng.randint(13, 20), rng.randint(2, 5)
    points = rng.sample(list(itertools.product(range(7), repeat=n)), k + p)
    signs = ["-"] * k + ["+"] * p
    rng.shuffle(signs)
    terms = []
    for sign, exponent in zip(signs, points):
        monomial = "*".join(f"x{i + 1}^{a}" for i, a in enumerate(exponent) if a) or "1"
        terms.append(f"{sign} {monomial}")
    return " ".join(terms).lstrip("+ ")


def cube_signs_text(d: int, seed: int) -> str:
    """The vertices of {0,1}^d, in ``itertools.product`` order, each with the
    sign ``random.Random(seed).choice((-1, 1))`` draws for it: 2^d terms
    with exponents 0 and 1, on which the parallel-split recursion re-walks
    the same faces once per order of splits."""
    rng = random.Random(seed)
    terms = []
    for vertex in itertools.product((0, 1), repeat=d):
        monomial = "*".join(f"x{i + 1}" for i, b in enumerate(vertex) if b) or "1"
        terms.append(f"{'-' if rng.choice((-1, 1)) < 0 else '+'} {monomial}")
    return " ".join(terms).lstrip("+ ")


def _simplex_document(vertices) -> dict:
    """A trace whose root is a negatives-inside simplex criterion with the
    given vertex entries (ints or ``(numerator, denominator)`` pairs), on
    the corner signomial in as many variables as the vertices have
    entries: positives at 0 and 4 e_i, negatives at e_1 and e_2."""
    n = len(vertices[0])

    def point(entries):
        return [str(a) if isinstance(a, int) else f"{a[0]}/{a[1]}" for a in entries]

    exponents = [(0,) * n] + [tuple(4 * (j == i) for j in range(n)) for i in range(n)]
    units = [tuple(int(j == i) for j in range(n)) for i in (0, 1)]
    terms = [("1", e) for e in exponents] + [("-1", e) for e in units]
    terms.sort(key=lambda t: t[1])
    outcome = "CertifiedAtMostOne"
    return {
        "schema": 1,
        "input": {"dimension": n, "terms": [{"coefficient": c, "exponent": point(e)} for c, e in terms]},
        "outcome": outcome,
        "tree": {
            "kind": "criterion",
            "outcome": outcome,
            "criterion": "simplex-negatives-inside",
            "nonempty": False,
            "witness": {"vertices": [point(p) for p in vertices], "mode": "negatives-inside"},
        },
    }


def prime_vertex_document(denominators: int = 17, n: int = 16, seed: int = 0) -> dict:
    """n + 1 simplex vertices in n variables whose entries k/p cycle through
    ``denominators`` distinct 6-digit primes p, each entry within the
    exponent digit caps, against an integral signomial.  Framing the
    vertices with the support multiplies every entry by the product of the
    primes (17 of them: about 100 digits) before one inverse."""
    rng = random.Random(seed)
    primes = _largest_primes(denominators)
    entries = ((rng.randrange(1, p), p) for p in itertools.cycle(primes))
    return _simplex_document([[next(entries) for _ in range(n)] for _ in range(n + 1)])


def wide_vertex_document(digits: int = 600, n: int = 16, seed: int = 0) -> dict:
    """n + 1 simplex vertices in n variables whose entries are random
    integers of ``digits`` digits, beyond the exponent digit caps: about
    160 KB of JSON at 600 digits and n = 16."""
    rng = random.Random(seed)
    low = 10 ** (digits - 1)
    return _simplex_document([[rng.randrange(low, 10 * low) for _ in range(n)] for _ in range(n + 1)])


def simplex_walk_text(terms: int = 80) -> str:
    """Two variables, positives at the corners of [0, 40]^2 and ``terms - 4``
    points of the interior grid {4, 8, ..., 36}^2 in row-major order, every
    7th one negative.  Every vertex of the Newton polygon is positive, so
    negatives-inside needs no vertex and the simplex search walks all
    C(terms, 3) combinations; none certifies."""
    corners = [(0, 0), (0, 40), (40, 0), (40, 40)]
    inner = [(4 * a, 4 * b) for b in range(1, 10) for a in range(1, 10)][: terms - 4]
    signed = [("+", p) for p in corners] + [("-" if i % 7 == 6 else "+", p) for i, p in enumerate(inner)]
    return " ".join(f"{s} x1^{a}*x2^{b}" for s, (a, b) in signed).lstrip("+ ")
