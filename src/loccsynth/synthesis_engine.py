"""Round-by-round synthesis of an LOCC protocol for a separable measurement.

The engine grows a toolbox of partial protocol trees backward from the
measurement outcomes.  Each round it finds which left-most node labels can
be made equal as operators (their cones share a strictly positive common
point), merges every admissible subset of trees, extends everything one
level leftward, and checks newly completed trees for an exact nonnegative
coefficient assignment with identity roots.

Exhaustion is detected as a fixed point: once two consecutive rounds (one
per party) produce no new label families, no further merge can ever become
available and the absence of a protocol holds for any number of rounds.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .cone_geometry import (
    Cone,
    IntersectionMemo,
    LPProblem,
    lp_feasible,
    mutually_intersecting_families,
    ray_key,
    strict_positive_solution,
)
from .exact_algebra import HermitianOp, RealVector, is_psd, vectorize
from .protocol_tree import (
    LeafRef,
    OpConstraint,
    Tree,
    TreeNode,
    _sorted_children,
    branch_terms,
    congruent,
    covered_outcomes,
    equivalence_signature,
    has_congruent_siblings,
    leaf_refs,
    merge_and_extend,
    seed_trees,
    validate_tree,
)

NO_LOCC_WITHIN_L = "NO_LOCC_WITHIN_L"
NO_LOCC_ANY_ROUNDS = "NO_LOCC_ANY_ROUNDS"
INCONCLUSIVE_CAPPED = "INCONCLUSIVE_CAPPED"


class MeasurementError(ValueError):
    """The outcome list does not describe a separable measurement."""


class NotASeparableMeasurement(MeasurementError):
    """No strictly positive weights complete the outcomes to the identity."""


class ProtocolVerificationError(AssertionError):
    """A solved protocol failed an exact internal consistency check."""


@dataclass(frozen=True)
class SideTable:
    """One party's outcome operators in integer coordinates.

    `coords[j - 1]` is `denominator` times `vectorize` of that party's
    operator j, `denominator` being the lcm of every denominator on the
    side, and `rays[j - 1]` is that vector divided by its gcd: the
    primitive integer vector on the operator's ray, `ray_key` of its
    coordinates.
    """

    denominator: int
    coords: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, vectors: list[RealVector]) -> "SideTable":
        scale = math.lcm(*(v.denominator for vec in vectors for v in vec))
        coords = tuple(
            tuple(v.numerator * (scale // v.denominator) for v in vec) for vec in vectors
        )
        return cls(scale, coords, tuple(ray_key(c) for c in coords))


@dataclass(frozen=True)
class SeparableMeasurement:
    """Indexed product positive operators (A_j, B_j), j = 1..n.

    Per party, the measurement keeps one integer table (`table`): a common
    denominator D, each operator's integer coordinates over D and each
    operator's primitive ray.  It is computed once, when the measurement is
    built, and cached on it outside the dataclass fields, so equality and
    repr are unchanged.  Everything exact downstream reads the table: the
    cones of a search are built from its rays, the weight LP's rows are
    integers over D_A * D_B and the tree systems' over D, and
    `verify_protocol_exact` and `realize` sum coefficients times its
    integer coordinates.

    Product operators are compared in the tensor-product basis, where
    A_j (x) B_j has the coordinates `vec(A_j) (x) vec(B_j)`, vec being
    `vectorize`.  `vec (x) vec`
    is a linear bijection from Herm(dA) (x) Herm(dB) onto Herm(dA*dB), and
    the outer product of two primitive integer vectors is primitive, so two
    outcomes are equal, or positive multiples of each other, exactly when
    the outer products of their two rays are equal.
    """

    dA: int
    dB: int
    outcomes: tuple[tuple[HermitianOp, HermitianOp], ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise MeasurementError("a measurement needs at least one outcome")
        for j, (a, b) in enumerate(self.outcomes, start=1):
            if a.dim != self.dA or b.dim != self.dB:
                raise MeasurementError(f"outcome {j}: operator dimensions disagree")
            for side, op in (("A", a), ("B", b)):
                if op.is_zero():
                    raise MeasurementError(f"outcome {j}: {side} operator is zero")
                if not is_psd(op):
                    raise MeasurementError(
                        f"outcome {j}: {side} operator fails is_psd"
                    )
        rays = [_outer(a, b) for a, b in zip(self.table("A").rays, self.table("B").rays)]
        for i, j in itertools.combinations(range(len(rays)), 2):
            if rays[i] == rays[j]:
                raise MeasurementError(
                    f"outcomes {i + 1} and {j + 1} coincide up to positive scaling"
                )

    @functools.cached_property
    def _tables(self) -> dict[str, SideTable]:
        return {
            "A": SideTable.of([vectorize(a) for a, _ in self.outcomes]),
            "B": SideTable.of([vectorize(b) for _, b in self.outcomes]),
        }

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def op(self, side: str, j: int) -> HermitianOp:
        pair = self.outcomes[j - 1]
        return pair[0] if side == "A" else pair[1]

    def table(self, side: str) -> SideTable:
        """The integer table of one party's outcome operators."""
        return self._tables[side]

    def side_dim(self, side: str) -> int:
        return self.dA if side == "A" else self.dB


@dataclass(frozen=True)
class SearchConfig:
    max_rounds: int
    family_size_cap: int = 12
    max_trees: int = 5000
    exhaustive: bool = False

    def __post_init__(self) -> None:
        for name in ("max_rounds", "family_size_cap", "max_trees"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        if not isinstance(self.exhaustive, bool):
            raise ValueError(f"exhaustive must be a bool, not {self.exhaustive!r}")


@dataclass(frozen=True)
class RoundStats:
    round_index: int
    side: str
    new_families: tuple[tuple[tuple[int, ...], ...], ...]
    merged_subsets: tuple[tuple[int, ...], ...]
    trees_created: int
    trees_total: int
    lp_calls: int
    memo_hits: int


@dataclass(frozen=True)
class SearchStats:
    """Run counters.  `lp_calls` counts the exact LPs this search solved
    after validating the measurement, in all and per round; a search nested
    inside it, or running beside it, adds none.  `memo_hits` counts the cone
    queries the run's `IntersectionMemo` answered without one."""

    rounds: tuple[RoundStats, ...]
    rounds_completed: int
    last_progress_round: int
    lp_calls: int
    memo_hits: int
    trees_total: int
    capped: bool
    signature_dedup_hits: int
    congruence_skips: int


@dataclass(frozen=True)
class LOCCProtocol:
    tree: Tree
    q: dict[LeafRef, Fraction]
    p: dict[LeafRef, Fraction]
    weights: dict[LeafRef, Fraction]
    measurement: SeparableMeasurement
    stats: Optional[SearchStats] = None


@dataclass(frozen=True)
class NoLoccCertificate:
    verdict: str
    stats: SearchStats


SynthesisOutcome = Union[LOCCProtocol, NoLoccCertificate]


@functools.cache
def _identity_coords(dim: int) -> tuple[int, ...]:
    """`vectorize` of the dim x dim identity: 1 on the diagonal
    coordinates, which come first, and 0 after them."""
    return (1,) * dim + (0,) * (dim * dim - dim)


def validate_measurement(m: SeparableMeasurement) -> list[Fraction]:
    """Strictly positive weights r with sum r_j A_j (x) B_j = identity.

    One equation per coordinate of the tensor-product basis:
    sum_j r_j vec(A_j) (x) vec(B_j) = vec(I_A) (x) vec(I_B), times
    D_A * D_B.  So the rows are the outer products of the two sides'
    integer coordinates (`SeparableMeasurement.table`), in that basis's
    order; a coordinate with a zero row and a zero target gives no row.
    Solved exactly by `strict_positive_solution`, one phase-1 LP; when it
    finds none, NotASeparableMeasurement is raised.
    """
    ta, tb = m.table("A"), m.table("B")
    scale = ta.denominator * tb.denominator
    cols_b = list(zip(zip(*tb.coords), _identity_coords(m.dB)))
    rows: list[tuple[int, ...]] = []
    rhs: list[int] = []
    for ca, ia in zip(zip(*ta.coords), _identity_coords(m.dA)):
        if not ia and not any(ca):
            continue
        for cb, ib in cols_b:
            row = tuple(x * y for x, y in zip(ca, cb))
            target = scale if ia and ib else 0
            if target or any(row):
                rows.append(row)
                rhs.append(target)
    point = strict_positive_solution(rows, rhs, m.n_outcomes)
    if point is None:
        raise NotASeparableMeasurement(
            "no strictly positive weights complete the outcomes to the identity"
        )
    return point


def _side_system(tree: Tree, m: SeparableMeasurement, side: str):
    """Equality rows for one party: ledger constraints plus the identity
    condition on that party's root, all times the party's common
    denominator D, so every row is an integer combination of its table's
    coordinates.  Returns (rows, rhs, variable refs)."""
    d = m.side_dim(side)
    table = m.table(side)
    root, second = tree.root, tree.root.children[0]
    root_label = root.terms if root.side == side else second.terms
    constraints = [c for c in tree.ledger if c.side == side]
    refs = sorted(set().union(root_label, *[c.refs() for c in constraints]))
    index = {r: i for i, r in enumerate(refs)}
    vec = {r: table.coords[r.j - 1] for r in refs}
    vl = d * d
    rows: list[list[int]] = []
    rhs: list[int] = []
    for c in constraints:
        for comp in range(vl):
            row = [0] * len(refs)
            for r in c.lhs:
                row[index[r]] += vec[r][comp]
            for r in c.rhs:
                row[index[r]] -= vec[r][comp]
            rows.append(row)
            rhs.append(0)
    ident = _identity_coords(d)
    for comp in range(vl):
        row = [0] * len(refs)
        for r in root_label:
            row[index[r]] += vec[r][comp]
        rows.append(row)
        rhs.append(table.denominator * ident[comp])
    return rows, rhs, refs


def _prune_zero_leaves(
    tree: Tree, q: dict[LeafRef, Fraction], p: dict[LeafRef, Fraction]
) -> Optional[Tree]:
    """Drop zero-weight leaves, side by side.

    A reference leaves a label only on the party whose coefficient is zero:
    a leaf with q = 0 but p > 0 disappears as an outcome, yet its p summand
    may still carry a B label, surviving there as a coefficient-only
    reference.  Surviving internal labels are then renormalized to their
    first branch union so the set-level sum rule holds again.
    """
    dead_side = {
        "A": {r for r, v in q.items() if v == 0},
        "B": {r for r, v in p.items() if v == 0},
    }
    dead_leaf = {r for r in leaf_refs(tree) if q[r] == 0 or p[r] == 0}

    def walk(node: TreeNode) -> Optional[TreeNode]:
        if node.leaf is not None:
            return None if node.leaf in dead_leaf else node
        kids = [w for w in (walk(c) for c in node.children) if w is not None]
        terms = frozenset(r for r in node.terms if r not in dead_side[node.side])
        if not kids or not terms:
            return None
        return TreeNode(node.side, terms, _sorted_children(kids), None)

    def relabel(node: TreeNode) -> TreeNode:
        if node.leaf is not None:
            return node
        kids = _sorted_children([relabel(c) for c in node.children])
        return TreeNode(node.side, branch_terms(kids[0]), kids, None)

    root = walk(tree.root)
    if root is None or root.leaf is not None or len(root.children) != 1:
        return None
    root = relabel(root)
    ledger = []
    for c in tree.ledger:
        lhs = frozenset(r for r in c.lhs if r not in dead_side[c.side])
        rhs = frozenset(r for r in c.rhs if r not in dead_side[c.side])
        if not lhs and not rhs:
            continue
        if not lhs or not rhs:
            return None
        if lhs != rhs:
            ledger.append(OpConstraint.make(c.side, lhs, rhs))
    return Tree(
        root,
        tuple(sorted(set(ledger), key=OpConstraint.sort_key)),
        tree.depth,
        tree.uid,
    )


def _verified_protocol(tree: Tree, m: SeparableMeasurement, q, p) -> LOCCProtocol:
    weights = {r: q[r] * p[r] for r in leaf_refs(tree)}
    protocol = LOCCProtocol(tree, q, p, weights, m)
    verify_protocol_exact(protocol)
    return protocol


def solve_tree(tree: Tree, m: SeparableMeasurement) -> Optional[LOCCProtocol]:
    """Exact coefficient solve for a complete tree, as a verified protocol.

    The A and B systems are independent: ledger constraints are one-sided
    and the two root conditions split by party.  Strict positivity is tried
    first, one `strict_positive_solution` LP per party; its solution
    satisfies every checked equation by construction, so a failed check
    raises ProtocolVerificationError.  Failing that, a plain nonnegative
    solution (one `lp_feasible` per party) is accepted if pruning its
    zero-weight leaves leaves a protocol with full coverage that passes
    verify_protocol_exact.
    """
    return _solve_tree(tree, m)[0]


def _solve_tree(tree: Tree, m: SeparableMeasurement) -> tuple[Optional[LOCCProtocol], int]:
    """`solve_tree`'s protocol, or None, and the number of LPs it solved:
    one per party and attempt, up to the first party without a solution."""
    systems = [_side_system(tree, m, side) for side in ("A", "B")]
    lps = 0
    for strict in (True, False):
        solutions = []
        for rows, rhs, refs in systems:
            lps += 1
            if strict:
                point = strict_positive_solution(rows, rhs, len(refs))
            else:
                problem = LPProblem(tuple(map(tuple, rows)), tuple(rhs), len(refs))
                point = lp_feasible(problem)[1]
            if point is None:
                break
            solutions.append(dict(zip(refs, point)))
        if len(solutions) == len(systems):
            break
    else:
        return None, lps
    q, p = _complete_maps(tree, *solutions)
    if strict or all(q[r] > 0 and p[r] > 0 for r in leaf_refs(tree)):
        return _verified_protocol(tree, m, q, p), lps
    pruned = _prune_zero_leaves(tree, q, p)
    if pruned is None:
        return None, lps
    if {r.j for r in leaf_refs(pruned)} != set(range(1, m.n_outcomes + 1)):
        return None, lps
    try:
        return _verified_protocol(pruned, m, *_complete_maps(pruned, q, p)), lps
    except ProtocolVerificationError:
        return None, lps


def _side_refs(tree: Tree, side: str) -> set[LeafRef]:
    """References that carry a coefficient on one party's side: those in
    that side's node labels or ledger constraints, plus every leaf."""
    refs: set[LeafRef] = set(leaf_refs(tree))

    def walk(node: TreeNode) -> None:
        if node.side == side:
            refs.update(node.terms)
        for c in node.children:
            walk(c)

    walk(tree.root)
    for c in tree.ledger:
        if c.side == side:
            refs.update(c.refs())
    return refs


def _complete_maps(tree, a_map, b_map):
    """Per-side coefficient maps over the refs each side actually uses.

    A ref a side's system never mentions is a free coefficient; any positive
    value works, and 1 keeps it clear of the zero-leaf pruning."""
    q = {r: a_map.get(r, Fraction(1)) for r in sorted(_side_refs(tree, "A"))}
    p = {r: b_map.get(r, Fraction(1)) for r in sorted(_side_refs(tree, "B"))}
    return q, p


def _outer(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The tensor product u (x) v of two coordinate vectors."""
    return tuple(x * y for x in u for y in v)


def _side_sum(
    m: SeparableMeasurement,
    side: str,
    terms,
    coeffs: dict[LeafRef, Fraction],
) -> tuple[list[int], int]:
    """sum coeffs[r] * m.op(side, r.j) over r in terms, exactly, as
    (integer coordinates, positive denominator): its `vectorize` is the
    coordinates divided by the denominator.  The coefficients are brought
    to their common denominator, so the sum is of integers times the
    table's integer coordinates.

    Raises ProtocolVerificationError when a term has no coefficient or a
    negative one."""
    for r in terms:
        if r not in coeffs:
            raise ProtocolVerificationError(f"{r} has no {side} coefficient")
        if coeffs[r] < 0:
            raise ProtocolVerificationError(f"{r} has a negative {side} coefficient")
    table = m.table(side)
    scale = math.lcm(*(coeffs[r].denominator for r in terms))
    total = [0] * m.side_dim(side) ** 2
    for r in terms:
        c = coeffs[r]
        w = c.numerator * (scale // c.denominator)
        if w:
            for k, v in enumerate(table.coords[r.j - 1]):
                if v:
                    total[k] += w * v
    return total, scale * table.denominator


def _same_value(x: tuple[list[int], int], y: tuple[list[int], int]) -> bool:
    """Whether two (coordinates, denominator) pairs are one vector."""
    (cx, dx), (cy, dy) = x, y
    return all(a * dy == b * dx for a, b in zip(cx, cy))


def verify_protocol_exact(protocol: LOCCProtocol) -> None:
    """Exact re-check of every structural protocol property.

    Raises ProtocolVerificationError if a reference the tree uses has no
    coefficient or a negative one, a leaf weight is not strictly positive,
    the sum rule fails at any node (a sibling branch disagrees), a ledger
    constraint fails, a root is not the identity, or the leaves do not
    resolve the identity.

    Every operator sum is compared as its exact coordinate vector, an
    integer vector over one denominator, summed from the measurement's
    integer tables (`_side_sum`): `vectorize`, and for the leaves the
    tensor-product basis `vec (x) vec`, are linear and injective, so equal
    coordinates are equal operators.  No check reads the LP rows the
    coefficients were solved from.
    """
    m = protocol.measurement
    tree = protocol.tree
    validate_tree(tree)
    coeffs = {"A": protocol.q, "B": protocol.p}
    for r in leaf_refs(tree):
        for side, table in coeffs.items():
            if r not in table:
                raise ProtocolVerificationError(f"{r} has no {side} coefficient")
        if protocol.q[r] <= 0 or protocol.p[r] <= 0:
            raise ProtocolVerificationError(f"leaf {r} has a nonpositive weight")

    def value(side: str, terms) -> tuple[list[int], int]:
        return _side_sum(m, side, terms, coeffs[side])

    def walk(node: TreeNode) -> None:
        if node.leaf is not None:
            return
        target = value(node.side, node.terms)
        for child in node.children:
            if not _same_value(value(node.side, branch_terms(child)), target):
                raise ProtocolVerificationError(
                    f"branch sum mismatch at a {node.side} node"
                )
            walk(child)

    walk(tree.root)
    for c in tree.ledger:
        if not _same_value(value(c.side, c.lhs), value(c.side, c.rhs)):
            raise ProtocolVerificationError("ledger constraint violated")
    root, second = tree.root, tree.root.children[0]
    for node in (root, second):
        coords, den = value(node.side, node.terms)
        if coords != [den * t for t in _identity_coords(m.side_dim(node.side))]:
            raise ProtocolVerificationError(f"{node.side} root is not the identity")
    # sum_r q_r p_r vec(A_j) (x) vec(B_j), times the product of the weights'
    # common denominator and D_A * D_B, against the identity's coordinates.
    ta, tb = m.table("A"), m.table("B")
    leaves = leaf_refs(tree)
    weights = [protocol.q[r] * protocol.p[r] for r in leaves]
    scale = math.lcm(*(w.denominator for w in weights))
    total = [0] * (m.dA * m.dB) ** 2
    for r, w in zip(leaves, weights):
        wn = w.numerator * (scale // w.denominator)
        pairs = itertools.product(ta.coords[r.j - 1], tb.coords[r.j - 1])
        for k, (x, y) in enumerate(pairs):
            if x and y:
                total[k] += wn * x * y
    den = scale * ta.denominator * tb.denominator
    target = [den * x * y for x in _identity_coords(m.dA) for y in _identity_coords(m.dB)]
    if total != target:
        raise ProtocolVerificationError("leaf weights do not resolve the identity")


def _root_key(tree: Tree) -> frozenset[int]:
    return frozenset(r.j for r in tree.root.terms)


def _candidate_merges(families, groups, cap):
    """Every merge a round may try, as (family, trees): per family, the
    subsets of at least two of its trees, smallest first, drawn from its
    first `cap` trees in uid order."""
    for fam in families:
        members = sorted((t for key in fam for t in groups[key]), key=lambda t: t.uid)
        members = members[:cap]
        for size in range(2, len(members) + 1):
            for combo in itertools.combinations(members, size):
                yield fam, combo


class _Search:
    """The state of one `synthesize` call: the frontier of partial trees,
    the signatures and label families earlier rounds saw, the (side, label)
    cones with the memo that answers their queries, and the counters
    `stats` reports.  It counts only the LPs it causes: its memo's cone LPs
    and its tree solves'."""

    def __init__(self, m: SeparableMeasurement, cfg: SearchConfig) -> None:
        self.m, self.cfg = m, cfg
        self.frontier = seed_trees(m.n_outcomes)
        self.created: list[Tree] = []  # the last round's new trees
        self.trees_total = m.n_outcomes  # also the last uid given out
        self.seen_sigs = {equivalence_signature(t) for t in self.frontier}
        self.seen_families: dict[str, list[frozenset[frozenset[int]]]] = {"A": [], "B": []}
        self.cones: dict[tuple[str, frozenset[int]], Cone] = {}  # one per side and label
        self.memo = IntersectionMemo()
        self.tree_lps = 0
        self.rounds: list[RoundStats] = []
        self.capped = False
        self.dedup_hits = 0
        self.congruence_skips = 0

    @property
    def lp_calls(self) -> int:
        return self.memo.lp_calls + self.tree_lps

    def stats(self) -> SearchStats:
        return SearchStats(
            rounds=tuple(self.rounds),
            rounds_completed=len(self.rounds),
            last_progress_round=max(
                (r.round_index for r in self.rounds if r.trees_created), default=0
            ),
            lp_calls=self.lp_calls,
            memo_hits=self.memo.hits,
            trees_total=self.trees_total,
            capped=self.capped,
            signature_dedup_hits=self.dedup_hits,
            congruence_skips=self.congruence_skips,
        )

    def first_protocol(self, trees: list[Tree]) -> Optional[LOCCProtocol]:
        """The first protocol solved from one of `trees` that covers every
        outcome, or None."""
        for t in trees:
            if covered_outcomes(t) == frozenset(range(1, self.m.n_outcomes + 1)):
                protocol, lps = _solve_tree(t, self.m)
                self.tree_lps += lps
                if protocol is not None:
                    return protocol
        return None

    def round(self) -> tuple[Optional[LOCCProtocol], bool]:
        """Extend the trees carried over, then run the next round.  Returns
        the protocol it found, or None, and whether it created a tree."""
        m, cfg, side_seen = self.m, self.cfg, self.seen_families
        # The frontier is extended only when a round runs after it.
        if self.rounds:
            self.frontier = [
                replace(merge_and_extend([t]), uid=t.uid) for t in self.frontier
            ] + self.created
        side = self.frontier[0].root.side
        lp_base, hits_base = self.lp_calls, self.memo.hits
        groups: dict[frozenset[int], list[Tree]] = {}
        for t in self.frontier:
            groups.setdefault(_root_key(t), []).append(t)
        keys = sorted(groups, key=lambda k: tuple(sorted(k)))
        for key in keys:
            if (side, key) not in self.cones:
                js = sorted(key)
                self.cones[side, key] = Cone.of_checked(
                    tuple(m.op(side, j) for j in js),
                    tuple(m.table(side).rays[j - 1] for j in js),
                )
        items = [(key, self.cones[side, key]) for key in keys]
        families, complete = mutually_intersecting_families(
            items,
            strict=True,
            size_cap=cfg.family_size_cap,
            exhaustive=cfg.exhaustive,
            intersect=self.memo,
        )
        if not complete:
            self.capped = True
        # A label used by several distinct trees is mergeable with itself.
        for key in keys:
            if len(groups[key]) >= 2 and not any(key in fam for fam in families):
                families.append(frozenset({key}))
        families.sort(key=lambda f: tuple(sorted(tuple(sorted(k)) for k in f)))
        new_families = [
            f for f in families if not any(f <= prev for prev in side_seen[side])
        ]

        if any(
            sum(len(groups[key]) for key in fam) > cfg.family_size_cap
            for fam in new_families
        ):
            self.capped = True

        created: list[Tree] = []
        merged_subsets: list[tuple[int, ...]] = []
        tried: set[frozenset[int]] = set()
        for _, combo in _candidate_merges(new_families, groups, cfg.family_size_cap):
            uids = frozenset(t.uid for t in combo)
            if uids in tried:
                continue
            tried.add(uids)
            keyset = frozenset(_root_key(t) for t in combo)
            if any(keyset <= prev for prev in side_seen[side]):
                continue
            if any(congruent(a.root, b.root) for a, b in itertools.combinations(combo, 2)):
                self.congruence_skips += 1
                continue
            merged = merge_and_extend(combo)
            if has_congruent_siblings(merged):
                self.congruence_skips += 1
                continue
            sig = equivalence_signature(merged)
            if sig in self.seen_sigs:
                self.dedup_hits += 1
                continue
            self.seen_sigs.add(sig)
            self.trees_total += 1
            created.append(replace(merged, uid=self.trees_total))
            merged_subsets.append(tuple(sorted(t.uid for t in combo)))
            if self.trees_total > cfg.max_trees:
                self.capped = True
                break

        protocol = self.first_protocol(created)
        side_seen[side].extend(new_families)
        self.created = created
        self.rounds.append(
            RoundStats(
                round_index=len(self.rounds) + 1,
                side=side,
                new_families=tuple(
                    tuple(sorted(tuple(sorted(k)) for k in f)) for f in new_families
                ),
                merged_subsets=tuple(merged_subsets),
                trees_created=len(created),
                trees_total=self.trees_total,
                lp_calls=self.lp_calls - lp_base,
                memo_hits=self.memo.hits - hits_base,
            )
        )
        return protocol, bool(created)


def synthesize(m: SeparableMeasurement, cfg: SearchConfig) -> SynthesisOutcome:
    """Build an LOCC protocol within cfg.max_rounds rounds or certify failure.

    Returns the first protocol found (deterministic enumeration order), or a
    certificate whose verdict distinguishes a proven fixed point
    (NO_LOCC_ANY_ROUNDS), plain round exhaustion (NO_LOCC_WITHIN_L), and a
    search truncated by a cap (INCONCLUSIVE_CAPPED).
    """
    validate_measurement(m)
    run = _Search(m, cfg)
    protocol = run.first_protocol(run.frontier)  # a seed is complete for one outcome
    if protocol is not None:
        return replace(protocol, stats=run.stats())
    empty_streak = 0
    for _ in range(cfg.max_rounds):
        protocol, progress = run.round()
        if protocol is not None:
            return replace(protocol, stats=run.stats())
        empty_streak = 0 if progress else empty_streak + 1
        if empty_streak >= 2:
            verdict = INCONCLUSIVE_CAPPED if run.capped else NO_LOCC_ANY_ROUNDS
            return NoLoccCertificate(verdict, run.stats())
        if run.trees_total > cfg.max_trees:
            return NoLoccCertificate(INCONCLUSIVE_CAPPED, run.stats())
    verdict = INCONCLUSIVE_CAPPED if run.capped else NO_LOCC_WITHIN_L
    return NoLoccCertificate(verdict, run.stats())
