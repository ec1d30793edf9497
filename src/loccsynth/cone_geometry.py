"""Convex-cone intersection decisions over exact rationals.

The decision kernel is a two-phase simplex with Bland's anti-cycling rule on
an integer tableau over one common denominator, with Bareiss updates: the
same Bland pivots a Fraction tableau makes.  `lp_feasible` and
`lp_maximize` hand it each LP without its 0 = 0 rows, which changes no
pivot.  Beside it sits the strict-positivity LP, `strict_positive_solution`
(a solution with every coordinate positive): one homogeneous phase-1 LP
that strict cone queries, measurement validation and tree solving share.
On top sit the cone queries the synthesis engine consumes: pairwise/mutual
nonzero intersection of cones of positive operators, proportionality, and
enumeration of maximal mutually intersecting families.

A cone query is one integer LP over the cones' integer generator rays
(`Cone.rays`), solved by phase 1 alone: plainly with a trace-one row,
strictly by `strict_positive_solution` (`_intersection_problem`).  A query
made only of rays (one-generator cones) compares the rays and solves no LP.
The answer keeps only the LP point: its witness converts the point to
per-generator coefficients and a common operator when they are first read.
The synthesis engine's cones come from `Cone.of_checked`, over outcome
operators and rays its measurement has already checked and computed, so a
cone query proves nothing PSD and vectorizes nothing again.

Every LP the package builds is integer: cone rows over the rays,
validation and tree rows over a measurement's integer coordinates
(`SeparableMeasurement.table`).  Each is the rational LP times one
positive factor, which changes no pivot and no returned point.

Whether cones intersect depends only on the cones as sets of operators, so
`IntersectionMemo` answers a yes/no query once per key: the set of cones,
each keyed by its set of generator rays (`Cone.key`).  Each `synthesize`
call's search owns one memo, which counts the LPs its misses solve; this
module keeps no state between calls.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Optional, Sequence

from .exact_algebra import HermitianOp, RealVector, is_psd, op_linear_combine, vectorize


@dataclass(frozen=True)
class LPProblem:
    """Equality-form LP: find x >= 0 with rows . x = rhs.

    `objective`, when present, is a row to maximize over the feasible set.
    Coefficients may be `Fraction`s or `int`s.  An all-integer LP goes to
    the integer kernel as it is; any other is scaled to integers first
    (`_kernel_problem`).
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
    """Dense exact simplex tableau with Bland pivoting.

    An integer tableau over one common denominator d > 0: the rational
    tableau is a / d with right-hand side b / d.  It starts from integer
    rows and rhs (`_kernel_problem` scales a rational LP to integers).
    Pivots are fraction-free (Bareiss): every update divides exactly by d.
    """

    def __init__(self, rows, rhs, n_vars: int):
        self.n = n_vars
        self.m = len(rows)
        self.a: list[list[int]] = []
        self.b: list[int] = []
        for i, (row, r) in enumerate(zip(rows, rhs)):
            sign = -1 if r < 0 else 1
            self.a.append([sign * v for v in row])
            self.b.append(sign * r)
            # One artificial variable per row; artificials form the first basis.
            self.a[i].extend(1 if k == i else 0 for k in range(self.m))
        self.d = 1
        self.total = self.n + self.m
        self.basis = [self.n + i for i in range(self.m)]
        self.basic = set(self.basis)

    def _pivot(self, row: int, col: int) -> None:
        a, b, d = self.a, self.b, self.d
        prow, pb = a[row], b[row]
        p = prow[col]
        for i in range(self.m):
            f = a[i][col]
            if i == row or (f == 0 and p == d):
                continue
            a[i] = [(p * v - f * w) // d for v, w in zip(a[i], prow)]
            b[i] = (p * b[i] - f * pb) // d
        if p < 0:
            # Only the cleanup of leftover artificials pivots on p < 0.
            self.a = [[-v for v in r] for r in a]
            self.b = [-v for v in b]
            p = -p
        self.d = p
        self.basic.remove(self.basis[row])
        self.basic.add(col)
        self.basis[row] = col

    def _minimize(self, cost: list[int], allowed: int) -> str:
        """Bland-rule minimization of the integer cost . x over columns < allowed."""
        while True:
            a, b, basis = self.a, self.b, self.basis
            priced = [(cost[v], a[i]) for i, v in enumerate(basis) if cost[v]]
            entering = -1
            for j in range(allowed):
                # The reduced cost of column j, times d.
                if j not in self.basic and self.d * cost[j] < sum(
                    c * row[j] for c, row in priced
                ):
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            # Smallest (b[i] / a[i][entering], basis[i]) over positive entries.
            leaving = -1
            for i in range(self.m):
                coef = a[i][entering]
                if coef <= 0:
                    continue
                if leaving >= 0:
                    lhs, rhs = b[i] * a[leaving][entering], b[leaving] * coef
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                        continue
                leaving = i
            if leaving < 0:
                return "unbounded"
            self._pivot(leaving, entering)

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i, v in enumerate(self.basis):
            if v < self.n:
                x[v] = Fraction(self.b[i], self.d)
        return x


def _solve(p: LPProblem) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Two-phase simplex.  Returns (status, point, objective value)."""
    t = _Tableau(p.rows, p.rhs, p.n_vars)
    t._minimize([0] * p.n_vars + [1] * t.m, t.total)
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
    scale = math.lcm(*(c.denominator for c in p.objective))
    cost = [-c.numerator * (scale // c.denominator) for c in p.objective] + [0] * t.m
    status = t._minimize(cost, p.n_vars)
    x = t.solution()
    if status == "unbounded":
        return "unbounded", x, None
    value = sum(c * v for c, v in zip(p.objective, x))
    return "optimal", x, value


def _kernel_problem(
    p: LPProblem, objective: Optional[tuple[Fraction, ...]]
) -> LPProblem:
    """p with `objective`, minus every row that reads 0 = 0, with integer
    rows and rhs.

    A row whose coefficients and rhs are all zero changes no pivot: it
    never leaves the basis (all its entries stay 0), so its artificial
    variable stays basic at 0 and never enters; it adds nothing to any
    reduced cost, to the phase-1 sum or to the common denominator; and the
    other rows and their artificials keep their relative order, which is
    all Bland's rule reads.  So the solve makes the same pivots and returns
    the same status, point and value on fewer rows.  A row 0 = b with
    b != 0 stays: it makes the LP infeasible.

    An LP with a non-integer entry has every row and the rhs multiplied by
    the lcm of all denominators: one positive factor for the whole LP, which
    rescales every artificial variable alike, so each sign and ratio
    Bland's rule reads, and the point, are those of the rational LP.  The
    package's own LPs are integer already.
    """
    keep = [i for i, row in enumerate(p.rows) if p.rhs[i] or any(row)]
    rows = tuple(p.rows[i] for i in keep)
    rhs = tuple(p.rhs[i] for i in keep)
    if any(type(v) is not int for v in itertools.chain(rhs, *rows)):
        scale = math.lcm(*(v.denominator for v in itertools.chain(rhs, *rows)))
        rows = tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows
        )
        rhs = tuple(v.numerator * (scale // v.denominator) for v in rhs)
    return LPProblem(rows, rhs, p.n_vars, objective)


def lp_feasible(p: LPProblem) -> tuple[bool, Optional[list[Fraction]]]:
    """Exact feasibility of rows . x = rhs, x >= 0.

    Unboundedness of an optional objective is irrelevant here: any run that
    finds a basic point reports feasible.
    """
    status, point, _ = _solve(_kernel_problem(p, None))
    if status == "infeasible":
        return False, None
    return True, point


def lp_maximize(p: LPProblem) -> tuple[str, Optional[list[Fraction]], Optional[Fraction]]:
    """Maximize p.objective over the feasible set (status/point/value).

    No solve in this package needs an objective; this is the only entry
    point to phase 2."""
    if p.objective is None:
        raise ValueError("lp_maximize needs an objective row")
    return _solve(_kernel_problem(p, p.objective))


def strict_positive_solution(rows, rhs, n: int) -> Optional[list[Fraction]]:
    """A solution x of rows . x = rhs with every x_i > 0, or None.

    With one more unknown s, whose column -rhs is added only when
    rhs != 0, the system is homogeneous: A x = b has a solution x > 0
    exactly when [A | -b] (x, s) = 0 has one with (x, s) >= 1 (divide by
    the smallest entry).  So this is one phase-1 LP,
    [A | -b] y = -[A | -b] . 1 over y >= 0, and x is (1 + y_x) / (1 + y_s).
    Bland's rule makes the returned point depend on the column and row
    order, but not on one positive factor applied to every row and the
    rhs: the package's callers pass integer rows, each LP scaled by its
    own common denominator.
    """
    homogeneous = not any(rhs)
    if not homogeneous:
        rows = [(*row, -b) for row, b in zip(rows, rhs)]
    rows = tuple(tuple(row) for row in rows)
    rhs = tuple(-sum(row) for row in rows)
    feasible, point = lp_feasible(LPProblem(rows, rhs, n if homogeneous else n + 1))
    if not feasible:
        return None
    x = [1 + v for v in point]
    return x if homogeneous else [v / x[n] for v in x[:n]]


def ray_key(coords: RealVector) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero coordinate
    vector: the coordinates scaled to integers and divided by their gcd.
    Two nonzero vectors get one key exactly when one is a positive multiple
    of the other, and it is built with integer arithmetic only."""
    scale = math.lcm(*(v.denominator for v in coords))
    ints = [v.numerator * (scale // v.denominator) for v in coords]
    common = math.gcd(*ints)
    return tuple(v // common for v in ints)


@dataclass(frozen=True)
class Cone:
    """Cone of nonnegative combinations of nonzero PSD generators.

    Each generator's integer ray (`rays`) is computed once per Cone; the
    intersection LP, ray-only queries and `key` read it.  `Cone(generators)`
    checks every generator; `Cone.of_checked` takes generators that are
    already proved nonzero and PSD, with their rays.
    """

    generators: tuple[HermitianOp, ...]

    @classmethod
    def of_checked(
        cls, generators: tuple[HermitianOp, ...], rays: tuple[tuple[int, ...], ...]
    ) -> "Cone":
        """A Cone over nonzero PSD generators of one dimension, the caller
        having proved that, with `rays[i]` the `ray_key` of `generators[i]`'s
        coordinate vector.  Runs no check and computes no ray: the synthesis
        engine builds its cones from a measurement's outcome operators,
        which `SeparableMeasurement` checked and whose rays it keeps."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "generators", generators)
        cone.__dict__["rays"] = rays
        return cone

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

    @functools.cached_property
    def rays(self) -> tuple[tuple[int, ...], ...]:
        """`ray_key(vectorize(g))` for each generator g, in generator order:
        the positive multiple of g's coordinate vector whose entries are
        coprime integers."""
        return tuple(ray_key(vectorize(g)) for g in self.generators)

    @functools.cached_property
    def key(self) -> frozenset[tuple[int, ...]]:
        """The set of generator rays: equal for cones that differ only by
        positive rescaling, order or repetition of generators, which are
        the same set of operators.

        Two generators get one ray exactly when their trace-one multiples
        g / tr g are equal.
        """
        return frozenset(self.rays)


class IntersectionWitness:
    """A common nonzero point plus the per-cone coefficients producing it.

    Built from the LP point alone; `coefficients` and `common` are computed
    when first read, so a caller that only asks whether a witness exists
    (the run's `IntersectionMemo`) pays for neither.
    """

    def __init__(
        self, cones: Sequence[Cone], point: Sequence[Fraction], offsets: Sequence[int]
    ) -> None:
        self._cones = tuple(cones)
        self._point = point
        self._offsets = offsets

    @functools.cached_property
    def coefficients(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per cone, one coefficient per generator, scaled so that every
        cone's combination is the trace-one common point."""
        cones, point, dim = self._cones, self._point, self._cones[0].dim
        # Ray r of generator g is tr(r) / tr(g) times g's coordinate vector,
        # and cone 0's combination has trace `total`.
        total = sum(x * sum(r[:dim]) for x, r in zip(point, cones[0].rays))
        return tuple(
            tuple(
                point[base + gi] * sum(r[:dim]) / (g.trace() * total)
                for gi, (r, g) in enumerate(zip(cone.rays, cone.generators))
            )
            for base, cone in zip(self._offsets, cones)
        )

    @functools.cached_property
    def common(self) -> HermitianOp:
        """The common point, with trace 1."""
        cone = self._cones[0]
        return op_linear_combine(
            list(zip(self.coefficients[0], cone.generators)), dim=cone.dim
        )


def _intersection_problem(
    cones: Sequence[Cone], strict: bool
) -> tuple[LPProblem, list[int]]:
    """Encode 'all cones share a common point' as an integer equality LP.

    Unknowns are the coefficients x of every cone's integer rays.  The
    rows say cone 0's combination minus cone i's combination is zero, one
    per coordinate; a coordinate none of the two cones uses gives no row.
    Call these rows A.  Plainly, one more row pins the trace of cone 0's
    combination to 1, which is exactly nontriviality: a nonzero
    nonnegative combination of nonzero PSD operators has positive trace.
    Strictly, the LP is A x = 0 alone, for `strict_positive_solution`.
    """
    offsets = []
    n = 0
    for cone in cones:
        offsets.append(n)
        n += len(cone.rays)
    first = cones[0].rays
    rows: list[tuple[int, ...]] = []
    for ci in range(1, len(cones)):
        rays = cones[ci].rays
        gap = (0,) * (offsets[ci] - len(first))
        tail = (0,) * (n - offsets[ci] - len(rays))
        for left, right in zip(zip(*first), zip(*rays)):
            if any(left) or any(right):
                rows.append((*left, *gap, *(-v for v in right), *tail))
    rhs = (0,) * len(rows)
    if not strict:
        dim = cones[0].dim
        rows.append(tuple(sum(r[:dim]) for r in first) + (0,) * (n - len(first)))
        rhs += (1,)
    return LPProblem(tuple(rows), rhs, n), offsets


def _rays_only(cones: Sequence[Cone]) -> bool:
    """Whether every cone is one ray, so `cones_intersect` solves no LP."""
    return all(len(cone.rays) == 1 for cone in cones)


def cones_intersect(
    cones: Sequence[Cone], strict: bool = False
) -> Optional[IntersectionWitness]:
    """Witness that all cones share a common nonzero point, else None.

    With strict=True the witness must additionally use every generator of
    every cone with a strictly positive coefficient; this is the
    admissibility test the synthesis engine applies before merging, since a
    protocol's leaf weights are strictly positive.  Rays need no LP: both
    questions reduce to equal integer rays.  Any other query solves one
    phase-1 LP from `_intersection_problem`.  The witness's common point
    has trace 1.  A plain witness is the point the LP over the generators'
    own coordinate vectors finds; a strict one is the point
    `strict_positive_solution` finds.  Both are computed from the LP point
    when the witness is first read.
    """
    if len(cones) < 2:
        raise ValueError("need at least two cones")
    dim = cones[0].dim
    for cone in cones:
        if cone.dim != dim:
            raise ValueError("cones must share an ambient dimension")
    if _rays_only(cones):
        if any(cone.rays[0] != cones[0].rays[0] for cone in cones[1:]):
            return None
        # One unit per ray is a point of the LP: the rays are all equal.  Its
        # trace-one common point, g_1 / tr g_1, is unique here.
        return IntersectionWitness(cones, (1,) * len(cones), range(len(cones)))
    problem, offsets = _intersection_problem(cones, strict)
    if strict:
        point = strict_positive_solution(problem.rows, problem.rhs, problem.n_vars)
    else:
        point = lp_feasible(problem)[1]
    if point is None:
        return None
    return IntersectionWitness(cones, point, offsets)


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


class IntersectionMemo:
    """`cones_intersect(cones, strict) is not None`, answered once per key.

    The key is (strict, the set of `Cone.key`s).  The answer is a property
    of the set of cones, each taken as a set of operators: plainly, whether
    they share a nonzero point; strictly, whether they share a nonzero
    point in every cone's relative interior, which is the set of strictly
    positive combinations of its generators (Rockafellar, Convex Analysis,
    Thm 6.6).  So rescaling a generator by a positive rational, reordering
    or repeating generators, and reordering or repeating cones leave both
    the key and the answer unchanged.  Only the boolean is kept, never a
    witness.  A miss calls `cones_intersect` through its module-level name,
    looked up at call time, so a wrapper bound to that name (a tracer) sees
    every query that is solved.  `hits` counts the queries answered from an
    earlier one, and `lp_calls` the misses that solved an LP.
    """

    def __init__(self) -> None:
        self.answers: dict[tuple[bool, frozenset], bool] = {}
        self.hits = 0
        self.lp_calls = 0

    def __call__(self, cones: Sequence[Cone], strict: bool) -> bool:
        key = (strict, frozenset(cone.key for cone in cones))
        answer = self.answers.get(key)
        if answer is None:
            answer = cones_intersect(cones, strict=strict) is not None
            self.answers[key] = answer
            if not _rays_only(cones):
                self.lp_calls += 1
        else:
            self.hits += 1
        return answer


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
    intersect: Optional[Callable[[Sequence[Cone], bool], bool]] = None,
) -> tuple[list[frozenset], bool]:
    """All maximal subsets (size >= 2) whose cones share a common point.

    Returns (families, complete).  Families are reported as frozensets of
    the provided ids, in deterministic sorted order.  When a candidate
    clique exceeds size_cap and exhaustive is False, its subsets are only
    explored greedily and `complete` comes back False, signalling that a
    negative search verdict built on this enumeration is not conclusive.

    Only whether each query's cones intersect is read, never a witness.
    `intersect(cones, strict)` answers that; `synthesize` passes one
    `IntersectionMemo` for every round of a run, and a fresh one serves
    when none is given.
    """
    n = len(items)
    ids = [item[0] for item in items]
    cones = [item[1] for item in items]
    if len(set(ids)) != n:
        raise ValueError("item ids must be unique")

    if intersect is None:
        intersect = IntersectionMemo()
    complete = True
    pair_ok = [[False] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        ok = intersect([cones[i], cones[j]], strict)
        pair_ok[i][j] = pair_ok[j][i] = ok
    adj = [{j for j in range(n) if j != i and pair_ok[i][j]} for i in range(n)]

    def joint(subset: tuple[int, ...]) -> bool:
        if len(subset) == 2:
            return pair_ok[subset[0]][subset[1]]
        return intersect([cones[i] for i in subset], strict)

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
