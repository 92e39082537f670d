"""The eager fraction-free inverse that ``check.simplex_halfspaces``
replaced, frozen as a differential oracle for the tests (like
``row_lp_oracle`` for the LP kernel).

Every elimination step multiplies every row by q / prev, the rows with a
zero in the pivot column included; the package keeps, per row, the
denominator it was last brought to and scales it only when it is read.  The
tests ask both for the same halfspaces and the same degenerate cases.
"""

from descregions.check import DegenerateSimplexError
from descregions.linalg import dot, primitive_int, vneg


def simplex_halfspaces(vertices):
    """Outer halfspaces (v_j, a_j), the j-th opposite vertex j, from one
    Gauss-Jordan elimination of [M | I] with every row divided exactly by
    the previous pivot at every step (Bareiss 1968)."""
    n = len(vertices[0])
    if len(vertices) != n + 1:
        raise DegenerateSimplexError("vertices do not form an n-simplex")
    base = vertices[0]
    rows = [[a - b for a, b in zip(p, base)] + [int(i == k) for k in range(n)] for i, p in enumerate(vertices[1:])]
    prev = 1
    for k in range(n):
        # each row holds columns k.. of the eliminated [M | I]
        r = next((i for i in range(k, n) if rows[i][0]), None)
        if r is None:
            raise DegenerateSimplexError("vertices do not form an n-simplex")
        rows[k], rows[r] = rows[r], rows[k]
        q, pivot = rows[k][0], rows[k][1:]
        rows = [
            pivot if i == k else [(q * a - row[0] * b) // prev for a, b in zip(row[1:], pivot)]
            for i, row in enumerate(rows)
        ]
        prev = q
    # rows is now d M^-1
    columns = [tuple(map(sum, rows))] + list(zip(*rows))
    out = []
    for j, col in enumerate(columns):
        normal = primitive_int(col)
        offset = dot(normal, vertices[1 if j == 0 else 0])
        if dot(normal, vertices[j]) > offset:
            normal, offset = vneg(normal), -offset
        out.append((normal, offset))
    return tuple(out)
