"""Inputs within the parser's caps that once made the certifier run away,
or that drive a search to its budget.

Each is polynomial text.  The tests bound the work they take by counted
simplex pivots, which repeat exactly, not by wall time.
"""


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
    exactly the box criterion's default budget of negatives.  No Farkas
    nogood refutes a later side assignment, so the enclosing-pair search
    solves all 2^11 - 1 feasibility problems and finds no pair."""
    return (
        "1 - x2^2 - x2^3 - x2^5 - x1 + x1*x2^4 - x1^3 - x1^3*x2^2 - x1^3*x2^4 - x1^3*x2^5"
        " - x1^3*x2^6 + x1^4 - x1^4*x2^6 + x1^5*x2^6 - x1^6*x2^3 - x1^6*x2^6"
    )
