"""Convex-cone intersection decisions over exact rationals.

The decision kernel is a two-phase simplex with Bland's anti-cycling rule,
run entirely over Fractions.  Beside it sits the one strict-positivity LP
(a solution with every coordinate positive) that cone tests, measurement
validation and tree solving share.  On top sit the cone queries the
synthesis engine consumes: pairwise/mutual nonzero intersection of cones of
positive operators, proportionality, and enumeration of maximal mutually
intersecting families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Optional, Sequence

from .exact_algebra import HermitianOp, is_psd, op_linear_combine, vectorize

# Running count of simplex solves, reported in run statistics.
_LP_CALLS = 0


def lp_call_count() -> int:
    return _LP_CALLS


@dataclass(frozen=True)
class LPProblem:
    """Equality-form LP: find x >= 0 with rows . x = rhs.

    `objective`, when present, is a row to maximize over the feasible set.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    n_vars: int
    objective: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.n_vars:
                raise ValueError("LP row width does not match n_vars")
        if len(self.rhs) != len(self.rows):
            raise ValueError("rhs length does not match row count")
        if self.objective is not None and len(self.objective) != self.n_vars:
            raise ValueError("objective width does not match n_vars")


class _Tableau:
    """Dense exact simplex tableau with Bland pivoting."""

    def __init__(self, rows, rhs, n_vars: int):
        self.n = n_vars
        self.m = len(rows)
        self.a = [list(r) for r in rows]
        self.b = list(rhs)
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
    global _LP_CALLS
    _LP_CALLS += 1
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


def lp_feasible(p: LPProblem) -> tuple[bool, Optional[list[Fraction]]]:
    """Exact feasibility of rows . x = rhs, x >= 0.

    Unboundedness of an optional objective is irrelevant here: any run that
    finds a basic point reports feasible.
    """
    status, point, _ = _solve(LPProblem(p.rows, p.rhs, p.n_vars))
    if status == "infeasible":
        return False, None
    return True, point


def lp_maximize(p: LPProblem) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Maximize p.objective over the feasible set (status/point/value)."""
    if p.objective is None:
        raise ValueError("lp_maximize needs an objective row")
    return _solve(p)


def strict_positive_solution(rows, rhs, n: int) -> Optional[list[Fraction]]:
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


@dataclass(frozen=True)
class Cone:
    """Cone of nonnegative combinations of nonzero PSD generators."""

    generators: tuple[HermitianOp, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("a cone needs at least one generator")
        dim = self.generators[0].dim
        for g in self.generators:
            if g.dim != dim:
                raise ValueError("cone generators must share a dimension")
            if g.is_zero():
                raise ValueError("zero operator cannot generate a cone")
            if not is_psd(g):
                raise ValueError("cone generators must be PSD")

    @property
    def dim(self) -> int:
        return self.generators[0].dim


@dataclass(frozen=True)
class IntersectionWitness:
    """A common nonzero point plus the per-cone coefficients producing it."""

    coefficients: tuple[tuple[Fraction, ...], ...]
    common: HermitianOp


def _intersection_problem(cones: Sequence[Cone]) -> tuple[LPProblem, list[int]]:
    """Encode 'all cones share a trace-one common point' as an equality LP.

    Unknowns are the generator coefficients of every cone.  Cone 1's
    combination is pinned to trace 1, which is exactly nontriviality: a
    nonzero nonnegative combination of nonzero PSD operators has strictly
    positive trace.
    """
    dim = cones[0].dim
    offsets = []
    n = 0
    for cone in cones:
        offsets.append(n)
        n += len(cone.generators)
    vec_len = dim * dim
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    vecs = [[vectorize(g) for g in cone.generators] for cone in cones]
    for ci in range(1, len(cones)):
        for comp in range(vec_len):
            row = [Fraction(0)] * n
            for gi, v in enumerate(vecs[0]):
                row[offsets[0] + gi] = v[comp]
            for gi, v in enumerate(vecs[ci]):
                row[offsets[ci] + gi] -= v[comp]
            rows.append(row)
            rhs.append(Fraction(0))
    row = [Fraction(0)] * n
    for gi, g in enumerate(cones[0].generators):
        row[offsets[0] + gi] = g.trace()
    rows.append(row)
    rhs.append(Fraction(1))
    return LPProblem(tuple(tuple(r) for r in rows), tuple(rhs), n), offsets


def cones_intersect(
    cones: Sequence[Cone], strict: bool = False
) -> Optional[IntersectionWitness]:
    """Witness that all cones share a common nonzero point, else None.

    With strict=True the witness must additionally use every generator of
    every cone with a strictly positive coefficient; this is the
    admissibility test the synthesis engine applies before merging, since a
    protocol's leaf weights are strictly positive.
    """
    if len(cones) < 2:
        raise ValueError("need at least two cones")
    dim = cones[0].dim
    for cone in cones:
        if cone.dim != dim:
            raise ValueError("cones must share an ambient dimension")
    problem, offsets = _intersection_problem(cones)
    if strict:
        point = strict_positive_solution(problem.rows, problem.rhs, problem.n_vars)
    else:
        _, point = lp_feasible(problem)
    if point is None:
        return None
    coefficient_lists = []
    for ci, cone in enumerate(cones):
        base = offsets[ci]
        coefficient_lists.append(tuple(point[base + gi] for gi in range(len(cone.generators))))
    common = op_linear_combine(
        list(zip(coefficient_lists[0], cones[0].generators)), dim=dim
    )
    return IntersectionWitness(tuple(coefficient_lists), common)


def proportional(x: HermitianOp, y: HermitianOp) -> Optional[Fraction]:
    """The positive rational lam with x = lam * y, if one exists."""
    if x.is_zero() or y.is_zero():
        raise ValueError("proportionality is only defined for nonzero operators")
    if x.dim != y.dim:
        return None
    vx = vectorize(x)
    vy = vectorize(y)
    lam: Optional[Fraction] = None
    for a, b in zip(vx, vy):
        if b != 0:
            lam = a / b
            break
    if lam is None or lam <= 0:
        return None
    if all(a == lam * b for a, b in zip(vx, vy)):
        return lam
    return None


def _max_cliques(n: int, adj: list[set[int]]) -> list[frozenset[int]]:
    """Maximal cliques of an undirected graph (Bron-Kerbosch, deterministic)."""
    cliques: list[frozenset[int]] = []

    def expand(r: set[int], p: list[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        for v in list(p):
            expand(r | {v}, [u for u in p if u in adj[v]], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), list(range(n)), set())
    return cliques


def mutually_intersecting_families(
    items: Sequence[tuple[Hashable, Cone]],
    strict: bool = False,
    size_cap: int = 12,
    exhaustive: bool = False,
) -> tuple[list[frozenset], bool]:
    """All maximal subsets (size >= 2) whose cones share a common point.

    Returns (families, complete).  Families are reported as frozensets of
    the provided ids, in deterministic sorted order.  When a candidate
    clique exceeds size_cap and exhaustive is False, its subsets are only
    explored greedily and `complete` comes back False, signalling that a
    negative search verdict built on this enumeration is not conclusive.
    """
    n = len(items)
    ids = [item[0] for item in items]
    cones = [item[1] for item in items]
    if len(set(ids)) != n:
        raise ValueError("item ids must be unique")
    complete = True
    pair_ok = [[False] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        ok = cones_intersect([cones[i], cones[j]], strict=strict) is not None
        pair_ok[i][j] = pair_ok[j][i] = ok
    adj = [{j for j in range(n) if j != i and pair_ok[i][j]} for i in range(n)]

    def joint(subset: tuple[int, ...]) -> bool:
        if len(subset) == 2:
            return pair_ok[subset[0]][subset[1]]
        return cones_intersect([cones[i] for i in subset], strict=strict) is not None

    verified: list[frozenset[int]] = []
    for clique in sorted(_max_cliques(n, adj), key=lambda c: tuple(sorted(c))):
        if len(clique) < 2:
            continue
        members = tuple(sorted(clique))
        if joint(members):
            verified.append(frozenset(members))
            continue
        if len(members) > size_cap and not exhaustive:
            complete = False
            # Greedy fallback: grow each intersecting pair as far as it goes.
            for seed in itertools.combinations(members, 2):
                if not joint(seed):
                    continue
                current = list(seed)
                for cand in members:
                    if cand in current:
                        continue
                    if joint(tuple(sorted(current + [cand]))):
                        current.append(cand)
                verified.append(frozenset(current))
            continue
        found_at_size: list[frozenset[int]] = []
        for size in range(len(members) - 1, 1, -1):
            for subset in itertools.combinations(members, size):
                if any(set(subset) <= bigger for bigger in found_at_size):
                    continue
                if joint(subset):
                    found_at_size.append(frozenset(subset))
        verified.extend(found_at_size)
    families = [
        fam
        for fam in verified
        if not any(fam < other for other in verified)
    ]
    unique = sorted(set(families), key=lambda f: tuple(sorted(f)))
    return [frozenset(ids[i] for i in fam) for fam in unique], complete
