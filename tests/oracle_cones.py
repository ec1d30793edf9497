"""Reference answers for cone-intersection queries.

`cones_intersect_oracle` is an independent brute-force oracle: it decides
whether two cones of nonzero PSD operators share a nonzero point by
enumerating circuits (minimal linearly dependent column subsets) of the
stacked coordinate matrix [vec(G_1).. vec(G_m) | -vec(H_1).. -vec(H_n)]:
a nonzero nonnegative kernel vector exists exactly when some circuit's
one-dimensional kernel is sign-constant with full support.  Pure exact
Gaussian elimination; no simplex anywhere.

`intersection_reference` is the LP encoding `cones_intersect` replaced:
`Fraction` coordinate rows of the generators themselves, a trace row, and
for strict queries the max-min-slack `oracle_lp.strict_positive_reference`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from oracle_lp import strict_positive_reference

from loccsynth.cone_geometry import LPProblem, lp_feasible
from loccsynth.exact_algebra import HermitianOp, vectorize


def _nullspace(columns: list[tuple[Fraction, ...]]) -> list[list[Fraction]]:
    """Kernel basis of the matrix whose columns are given, exact."""
    n = len(columns)
    if n == 0:
        return []
    rows = len(columns[0])
    a = [[columns[j][i] for j in range(n)] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [v / inv for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f_col in free:
        vec = [Fraction(0)] * n
        vec[f_col] = Fraction(1)
        for row_idx, p_col in enumerate(pivots):
            vec[p_col] = -a[row_idx][f_col]
        basis.append(vec)
    return basis


def cones_intersect_oracle(
    gens1: list[HermitianOp], gens2: list[HermitianOp]
) -> bool:
    columns = [vectorize(g) for g in gens1]
    columns += [tuple(-x for x in vectorize(h)) for h in gens2]
    n = len(columns)
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            kernel = _nullspace([columns[i] for i in subset])
            if len(kernel) != 1:
                continue
            v = kernel[0]
            if any(x == 0 for x in v):
                continue
            if all(x > 0 for x in v) or all(x < 0 for x in v):
                return True
    return False


def intersection_reference(cones, strict=False):
    """Per-cone generator coefficients of a common point of trace 1, or None.

    Unknowns are the coefficients of every cone's generators.  One row per
    coordinate and cone i >= 1 says cone 0's combination minus cone i's is
    zero, and a last row pins the trace of cone 0's combination to 1.
    Strictly, `strict_positive_reference` asks for a solution with every
    coefficient positive; plainly, `lp_feasible` for any nonnegative one.
    """
    offsets, n = [], 0
    for cone in cones:
        offsets.append(n)
        n += len(cone.generators)
    vectors = [[vectorize(g) for g in cone.generators] for cone in cones]
    rows, rhs = [], []
    for ci in range(1, len(cones)):
        for comp in range(len(vectors[0][0])):
            row = [Fraction(0)] * n
            for gi, v in enumerate(vectors[0]):
                row[gi] = v[comp]
            for gi, v in enumerate(vectors[ci]):
                row[offsets[ci] + gi] -= v[comp]
            rows.append(tuple(row))
            rhs.append(Fraction(0))
    first = cones[0].generators
    rows.append(tuple(g.trace() for g in first) + (Fraction(0),) * (n - len(first)))
    rhs.append(Fraction(1))
    if strict:
        point = strict_positive_reference(rows, rhs, n)
    else:
        _, point = lp_feasible(LPProblem(tuple(rows), tuple(rhs), n))
    if point is None:
        return None
    return tuple(
        tuple(point[offsets[ci] + gi] for gi in range(len(cone.generators)))
        for ci, cone in enumerate(cones)
    )
