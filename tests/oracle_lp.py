"""Reference LP kernel: the two-phase Bland simplex over a Fraction tableau.

This is the kernel `cone_geometry` ran before it moved to an integer
tableau, kept as an oracle.  The integer kernel must make the same pivots,
so it returns the same (status, point, value) as `_solve` here on every LP.
Entries are read as Fractions, so the oracle divides exactly on integer
LPs too.  Like the library kernel, it keeps no count of its calls.

`strict_positive_reference` is the strict-positivity encoding
`cone_geometry.strict_positive_solution` replaced: the max-min-slack LP,
solved by the library's `lp_maximize`.

`validate_reference`, `side_system_reference` and
`intersection_problem_reference` write the package's three LP encodings
row by row, one row per coordinate, from `vectorize` and `Cone.rays` in
plain loops.  They stand in for `validate_measurement`, `_side_system`
and `_intersection_problem`, which state each LP as one column per
unknown; both must hand the kernel the same rows (`_kernel_rows`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from loccsynth.cone_geometry import LPProblem, lp_maximize, strict_positive_solution
from loccsynth.exact_algebra import HermitianOp, vectorize
from loccsynth.synthesis_engine import NotASeparableMeasurement


class _Tableau:
    """Dense exact simplex tableau with Bland pivoting."""

    def __init__(self, rows, rhs, n_vars: int):
        self.n = n_vars
        self.m = len(rows)
        self.a = [[Fraction(v) for v in r] for r in rows]
        self.b = [Fraction(v) for v in rhs]
        for i in range(self.m):
            if self.b[i] < 0:
                self.a[i] = [-v for v in self.a[i]]
                self.b[i] = -self.b[i]
        # One artificial variable per row; artificials form the first basis.
        for i in range(self.m):
            self.a[i].extend(Fraction(1) if k == i else Fraction(0) for k in range(self.m))
        self.total = self.n + self.m
        self.basis = [self.n + i for i in range(self.m)]

    def _pivot(self, row: int, col: int) -> None:
        piv = self.a[row][col]
        self.a[row] = [v / piv for v in self.a[row]]
        self.b[row] /= piv
        for i in range(self.m):
            if i == row:
                continue
            f = self.a[i][col]
            if f == 0:
                continue
            self.a[i] = [v - f * w for v, w in zip(self.a[i], self.a[row])]
            self.b[i] -= f * self.b[row]
        self.basis[row] = col

    def _minimize(self, cost: list[Fraction], allowed: int) -> str:
        """Bland-rule minimization of cost . x over columns < allowed."""
        while True:
            duals_basis = [cost[self.basis[i]] for i in range(self.m)]
            entering = -1
            for j in range(allowed):
                if j in self.basis:
                    continue
                reduced = cost[j] - sum(
                    duals_basis[i] * self.a[i][j] for i in range(self.m)
                )
                if reduced < 0:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leaving = -1
            best = None
            for i in range(self.m):
                coef = self.a[i][entering]
                if coef > 0:
                    ratio = self.b[i] / coef
                    key = (ratio, self.basis[i])
                    if best is None or key < best:
                        best = key
                        leaving = i
            if leaving < 0:
                return "unbounded"
            self._pivot(leaving, entering)

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i, v in enumerate(self.basis):
            if v < self.n:
                x[v] = self.b[i]
        return x


def _solve(p: LPProblem) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Two-phase simplex.  Returns (status, point, objective value)."""
    t = _Tableau(p.rows, p.rhs, p.n_vars)
    phase1 = [Fraction(0)] * p.n_vars + [Fraction(1)] * t.m
    t._minimize(phase1, t.total)
    if sum(t.b[i] for i in range(t.m) if t.basis[i] >= p.n_vars) > 0:
        return "infeasible", None, None
    # Drive leftover artificials out of the basis where possible.
    for i in range(t.m):
        if t.basis[i] >= p.n_vars:
            for j in range(p.n_vars):
                if t.a[i][j] != 0:
                    t._pivot(i, j)
                    break
    if p.objective is None:
        return "optimal", t.solution(), None
    # Artificial columns must never re-enter the basis in phase 2.
    cost = [-c for c in p.objective] + [Fraction(0)] * t.m
    status = t._minimize(cost, p.n_vars)
    x = t.solution()
    if status == "unbounded":
        return "unbounded", x, None
    value = sum(c * v for c, v in zip(p.objective, x))
    return "optimal", x, value


def strict_positive_reference(rows, rhs, n: int) -> Optional[list[Fraction]]:
    """A solution x of rows . x = rhs with every x_i > 0, or None.

    Solved as max t subject to x_i - t - s_i = 0 and t + s = 1 over the
    columns (x, t, one slack per x_i, the slack of t <= 1); x at the optimum
    is returned when t* > 0.  Bland's rule makes the returned point depend
    on this column and row order.
    """
    width = n + 1 + n + 1
    t_col = n
    full_rows = [tuple(row) + (Fraction(0),) * (width - n) for row in rows]
    full_rhs = list(rhs)
    for i in range(n):
        row = [Fraction(0)] * width
        row[i] = Fraction(1)
        row[t_col] = Fraction(-1)
        row[n + 1 + i] = Fraction(-1)
        full_rows.append(tuple(row))
        full_rhs.append(Fraction(0))
    row = [Fraction(0)] * width
    row[t_col] = Fraction(1)
    row[width - 1] = Fraction(1)
    full_rows.append(tuple(row))
    full_rhs.append(Fraction(1))
    objective = [Fraction(0)] * width
    objective[t_col] = Fraction(1)
    status, point, value = lp_maximize(
        LPProblem(tuple(full_rows), tuple(full_rhs), width, tuple(objective))
    )
    if status != "optimal" or point is None or value is None or value <= 0:
        return None
    return point[:n]


def _integer_coords(m, side: str):
    """The side's common denominator D, and `vectorize` of each of its
    operators times D, as integers."""
    vectors = [vectorize(m.op(side, j)) for j in range(1, m.n_outcomes + 1)]
    scale = math.lcm(*(v.denominator for vec in vectors for v in vec))
    return scale, [[int(v * scale) for v in vec] for vec in vectors]


def validate_reference(m) -> list[Fraction]:
    """`validate_measurement` on rows written one coordinate pair at a time:
    sum_j r_j A_j[ka] B_j[kb] = I_A[ka] I_B[kb], times D_A * D_B."""
    scale_a, coords_a = _integer_coords(m, "A")
    scale_b, coords_b = _integer_coords(m, "B")
    ident_a = vectorize(HermitianOp.identity(m.dA))
    ident_b = vectorize(HermitianOp.identity(m.dB))
    rows, rhs = [], []
    for ka in range(m.dA * m.dA):
        for kb in range(m.dB * m.dB):
            rows.append(tuple(a[ka] * b[kb] for a, b in zip(coords_a, coords_b)))
            rhs.append(int(scale_a * scale_b * ident_a[ka] * ident_b[kb]))
    point = strict_positive_solution(rows, rhs, m.n_outcomes)
    if point is None:
        raise NotASeparableMeasurement("no strictly positive weights")
    return point


def side_system_reference(tree, m, side: str):
    """`_side_system` row by row: per ledger constraint and coordinate,
    lhs minus rhs is 0; per coordinate, the root label sums to D * I."""
    d = m.side_dim(side)
    scale, coords = _integer_coords(m, side)
    root = tree.root if tree.root.side == side else tree.root.children[0]
    constraints = [c for c in tree.ledger if c.side == side]
    refs = sorted(set().union(root.terms, *[c.refs() for c in constraints]))
    index = {r: i for i, r in enumerate(refs)}
    rows, rhs = [], []
    for c in constraints:
        for comp in range(d * d):
            row = [0] * len(refs)
            for r in c.lhs:
                row[index[r]] += coords[r.j - 1][comp]
            for r in c.rhs:
                row[index[r]] -= coords[r.j - 1][comp]
            rows.append(tuple(row))
            rhs.append(0)
    ident = vectorize(HermitianOp.identity(d))
    for comp in range(d * d):
        row = [0] * len(refs)
        for r in root.terms:
            row[index[r]] += coords[r.j - 1][comp]
        rows.append(tuple(row))
        rhs.append(int(scale * ident[comp]))
    return tuple(rows), tuple(rhs), refs


def intersection_problem_reference(cones, strict: bool):
    """`_intersection_problem` row by row: per cone i > 0 and coordinate,
    cone 0's combination minus cone i's is 0; plainly, one more row pins
    the trace of cone 0's combination (its diagonal coordinates, which
    `vectorize` puts first) to 1."""
    offsets, n = [], 0
    for cone in cones:
        offsets.append(n)
        n += len(cone.rays)
    dim = cones[0].dim
    rows, rhs = [], []
    for i in range(1, len(cones)):
        for comp in range(dim * dim):
            row = [0] * n
            for g, ray in enumerate(cones[0].rays):
                row[g] = ray[comp]
            for g, ray in enumerate(cones[i].rays):
                row[offsets[i] + g] = -ray[comp]
            rows.append(tuple(row))
            rhs.append(0)
    if not strict:
        row = [0] * n
        for g, ray in enumerate(cones[0].rays):
            row[g] = sum(ray[:dim])
        rows.append(tuple(row))
        rhs.append(1)
    return tuple(rows), tuple(rhs), n, offsets
