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
    _rows,
    lp_feasible,
    mutually_intersecting_families,
    ray_key,
    strict_positive_solution,
)
from .exact_algebra import HermitianOp, is_psd, vectorize
from .protocol_tree import (
    LeafRef,
    OpConstraint,
    Tree,
    TreeNode,
    _sorted_children,
    branch_terms,
    covered_outcomes,
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


def _outer(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The tensor product u (x) v of two coordinate vectors."""
    return tuple(x * y for x in u for y in v)


@dataclass(frozen=True)
class SideTable:
    """One space's outcome operators in integer coordinates: a party's, or
    the product space's in the tensor-product basis.

    `coords[j - 1]` is `denominator` times operator j's coordinates,
    `rays[j - 1]` is that vector over its gcd (`ray_key`), and `identity`
    is the space's identity's coordinates.  A party's are `vectorize`'s,
    over the lcm of every denominator on the side (`of`); the product
    space's are the outer products of the parties', over D_A * D_B.
    """

    denominator: int
    coords: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]
    identity: tuple[int, ...]

    @classmethod
    def of(cls, ops: list[HermitianOp]) -> "SideTable":
        vectors = [vectorize(op) for op in ops]
        scale = math.lcm(*(v.denominator for vec in vectors for v in vec))
        coords = tuple(
            tuple(v.numerator * (scale // v.denominator) for v in vec) for vec in vectors
        )
        d = ops[0].dim  # `vectorize` puts the d diagonal coordinates first
        identity = (1,) * d + (0,) * (d * d - d)
        return cls(scale, coords, tuple(ray_key(c) for c in coords), identity)

    def product(self, other: "SideTable") -> "SideTable":
        # The outer product of two primitive integer vectors is primitive.
        return SideTable(
            self.denominator * other.denominator,
            tuple(map(_outer, self.coords, other.coords)),
            tuple(map(_outer, self.rays, other.rays)),
            _outer(self.identity, other.identity),
        )


@dataclass(frozen=True)
class SeparableMeasurement:
    """Indexed product positive operators (A_j, B_j), j = 1..n.

    The measurement keeps one integer table (`SideTable`) per space, the
    parties' `table("A")` and `table("B")` and the product space's
    `table("AB")`, computed once, when the measurement is built, and cached
    on it outside the dataclass fields, so equality and repr are unchanged.
    Everything exact downstream reads them: the cones of a search are built
    from the parties' rays, the tree systems' rows are integers over a
    party's D and the weight LP's over D_A * D_B, and
    `verify_protocol_exact` and `realize` sum coefficients times their
    integer coordinates.

    In the product table A_j (x) B_j has the coordinates
    `vec(A_j) (x) vec(B_j)`, vec being `vectorize`.  `vec (x) vec` is a
    linear bijection from Herm(dA) (x) Herm(dB) onto Herm(dA*dB), so two
    outcomes are equal, or positive multiples of each other, exactly when
    their product rays are.
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
        rays = self.table("AB").rays
        for i, j in itertools.combinations(range(len(rays)), 2):
            if rays[i] == rays[j]:
                raise MeasurementError(
                    f"outcomes {i + 1} and {j + 1} coincide up to positive scaling"
                )

    @functools.cached_property
    def _tables(self) -> dict[str, SideTable]:
        ta = SideTable.of([a for a, _ in self.outcomes])
        tb = SideTable.of([b for _, b in self.outcomes])
        return {"A": ta, "B": tb, "AB": ta.product(tb)}

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def op(self, side: str, j: int) -> HermitianOp:
        """Party `side`'s ("A" or "B") operator of outcome j (from 1)."""
        return self.outcomes[j - 1][_party(side)]

    def table(self, side: str) -> SideTable:
        """The integer table of one space: "A", "B" or the product "AB"."""
        return self._tables[side]

    def side_dim(self, side: str) -> int:
        """Party `side`'s ("A" or "B") dimension."""
        return (self.dA, self.dB)[_party(side)]


def _party(side: str) -> int:
    """0 for "A", 1 for "B"; any other key, the product's "AB" included,
    names no party."""
    if side == "A":
        return 0
    if side == "B":
        return 1
    raise ValueError(f"{side!r} is not a party: expected 'A' or 'B'")


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
    queries the run's `IntersectionMemo` answered without one.
    `signature_dedup_hits` and `congruence_skips` are 0 by construction:
    the frontier's invariant (`_Search.round`) rules out both events."""

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


def validate_measurement(m: SeparableMeasurement) -> list[Fraction]:
    """Strictly positive weights r with sum r_j A_j (x) B_j = identity.

    One unknown per outcome, whose column is the outcome's integer
    coordinates in the product table (`table("AB")`); the target is that
    table's `identity` times its denominator D_A * D_B, and `_rows` turns
    them into rows.  Solved exactly by `strict_positive_solution`, one
    phase-1 LP; when it finds none, NotASeparableMeasurement is raised.
    """
    t = m.table("AB")
    rows, rhs = _rows(t.coords, [t.denominator * x for x in t.identity])
    point = strict_positive_solution(rows, rhs, m.n_outcomes)
    if point is None:
        raise NotASeparableMeasurement(
            "no strictly positive weights complete the outcomes to the identity"
        )
    return point


def _side_system(tree: Tree, m: SeparableMeasurement, side: str):
    """One party's ledger constraints and root identity condition, times its
    common denominator D, as (rows, rhs, variable refs) (`_rows`).  Ref r's
    column has one block per constraint, r's integer coordinates times +1
    (r on the lhs only), -1 (on the rhs only) or 0, then the root block:
    r's coordinates if r is in the root label, else 0.  The target is 0,
    then D * vec(I) on the root block."""
    table = m.table(side)
    root, second = tree.root, tree.root.children[0]
    root_label = root.terms if root.side == side else second.terms
    constraints = [c for c in tree.ledger if c.side == side]
    refs = sorted(set().union(root_label, *[c.refs() for c in constraints]))
    zero = (0,) * len(table.identity)
    cols = []
    for r in refs:
        v = table.coords[r.j - 1]
        col: list[int] = []
        for c in constraints:
            sign = (r in c.lhs) - (r in c.rhs)
            col.extend(v if sign > 0 else (-x for x in v) if sign else zero)
        col.extend(v if r in root_label else zero)
        cols.append(col)
    target = zero * len(constraints) + tuple(table.denominator * x for x in table.identity)
    rows, rhs = _rows(cols, target)
    return rows, rhs, refs


def _prune_zero_leaves(
    tree: Tree, q: dict[LeafRef, Fraction], p: dict[LeafRef, Fraction]
) -> Optional[Tree]:
    """Drop zero-weight leaves, side by side, in one bottom-up pass.

    A reference leaves a label only on the party whose coefficient is zero:
    a leaf with q = 0 but p > 0 disappears as an outcome, yet its p summand
    may still carry a B label, surviving there as a coefficient-only
    reference.  An internal node goes when no child survives or every
    reference of its label is dead on its side; a surviving one is labelled
    with its first sorted branch union so the set-level sum rule holds
    again.
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
        if not kids or node.terms <= dead_side[node.side]:
            return None
        kids = _sorted_children(kids)
        return TreeNode(node.side, branch_terms(kids[0]), kids, None)

    root = walk(tree.root)
    if root is None or root.leaf is not None or len(root.children) != 1:
        return None
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
    one per party and attempt, up to the first party without a solution.
    A tree with no leaf for some outcome solves none."""
    if covered_outcomes(tree) != frozenset(range(1, m.n_outcomes + 1)):
        return None, 0
    systems = [_side_system(tree, m, side) for side in ("A", "B")]
    lps = 0
    for strict in (True, False):
        solutions = []
        for rows, rhs, refs in systems:
            lps += 1
            if strict:
                point = strict_positive_solution(rows, rhs, len(refs))
            else:
                point = lp_feasible(LPProblem(rows, rhs, len(refs)))[1]
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


def _side_sum(
    m: SeparableMeasurement,
    side: str,
    terms,
    coeffs: dict[LeafRef, Fraction],
) -> tuple[list[int], int]:
    """sum coeffs[r] * (operator r.j of `m.table(side)`) over r in terms,
    exactly, as (integer coordinates, positive denominator): in the table's
    basis the sum is the coordinates divided by the denominator.  The
    coefficients are brought to their common denominator, so the sum is of
    integers times the table's integer coordinates.

    Raises ProtocolVerificationError when a term has no coefficient or a
    negative one."""
    for r in terms:
        if r not in coeffs:
            raise ProtocolVerificationError(f"{r} has no {side} coefficient")
        if coeffs[r] < 0:
            raise ProtocolVerificationError(f"{r} has a negative {side} coefficient")
    table = m.table(side)
    scale = math.lcm(*(coeffs[r].denominator for r in terms))
    total = [0] * len(table.identity)
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

    Raises ProtocolVerificationError if an outcome has no leaf, a reference
    the tree uses has no coefficient or a negative one, a leaf weight is not
    strictly positive, the sum rule fails at any node (a sibling branch
    disagrees), a ledger constraint fails, a root is not the identity,
    `weights` is not q * p on exactly the leaves, or the leaves do not
    resolve the identity.

    Each check runs in the order listed and compares an exact coordinate
    vector, an integer vector over one denominator, summed by `_side_sum`
    from a party's integer table or, for the leaves' weights, the product
    table: `vectorize` and `vec (x) vec` are linear and injective, so equal
    coordinates are equal operators.  No check reads the LP rows the
    coefficients were solved from.
    """
    m = protocol.measurement
    tree = protocol.tree
    validate_tree(tree)
    leaves = leaf_refs(tree)
    missing = set(range(1, m.n_outcomes + 1)).difference(r.j for r in leaves)
    if missing:
        raise ProtocolVerificationError(f"outcome {min(missing)} has no leaf")
    coeffs = {"A": protocol.q, "B": protocol.p}
    for r in leaves:
        for side, table in coeffs.items():
            if r not in table:
                raise ProtocolVerificationError(f"{r} has no {side} coefficient")
        if protocol.q[r] <= 0 or protocol.p[r] <= 0:
            raise ProtocolVerificationError(f"leaf {r} has a nonpositive weight")

    def value(side: str, terms) -> tuple[list[int], int]:
        return _side_sum(m, side, terms, coeffs[side])

    def is_identity(side: str, terms, coeff) -> bool:
        return _same_value(_side_sum(m, side, terms, coeff), (m.table(side).identity, 1))

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
        if not is_identity(node.side, node.terms, coeffs[node.side]):
            raise ProtocolVerificationError(f"{node.side} root is not the identity")
    weights = [protocol.q[r] * protocol.p[r] for r in leaves]
    if protocol.weights != dict(zip(leaves, weights)):
        raise ProtocolVerificationError("the weights are not q * p on the leaves")
    if not is_identity("AB", leaves, protocol.weights):
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
    the label families earlier rounds saw, the (side, label) cones with the
    memo that answers their queries, and the counters `stats` reports.  It
    counts only the LPs it causes: its memo's cone LPs and its tree
    solves'."""

    def __init__(self, m: SeparableMeasurement, cfg: SearchConfig) -> None:
        self.m, self.cfg = m, cfg
        self.frontier = seed_trees(m.n_outcomes)
        self.created: list[Tree] = []  # the last round's new trees
        self.trees_total = m.n_outcomes  # also the last uid given out
        self.seen_families: dict[str, list[frozenset[frozenset[int]]]] = {"A": [], "B": []}
        self.cones: dict[tuple[str, frozenset[int]], Cone] = {}  # one per side and label
        self.memo = IntersectionMemo()
        self.tree_lps = 0
        self.rounds: list[RoundStats] = []
        self.capped = False

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
            signature_dedup_hits=0,
            congruence_skips=0,
        )

    def first_protocol(self, trees: list[Tree]) -> Optional[LOCCProtocol]:
        """The first protocol solved from one of `trees`, or None."""
        for t in trees:
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
            extended = [(merge_and_extend([t]), t.uid) for t in self.frontier]
            self.frontier = [
                Tree(e.root, e.ledger, e.depth, uid) for e, uid in extended
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

        # Every frontier merged here has, keys being `canonical_key`s:
        #   (I1) every root has exactly one child;
        #   (I2) the roots' keys are pairwise distinct;
        #   (I3) no tree has congruent siblings.
        # Seeds have them: a B root over an A leaf, one j each.  Each new root
        # has one child (I1).  An extended tree's is an old root, distinct by
        # I2; a created tree's is the merged node M, whose children are its
        # combo's roots, distinct by I2 (so I3), and whose key differs for
        # distinct uid sets (`tried`) and from every old root's, M having two
        # or more children.  A root's key holds its child's, so I2 holds again.
        # Hence no two roots of a combo are congruent, no merged tree has
        # congruent siblings, and none repeats an earlier `equivalence_signature`
        # (M keys differ within a round; earlier trees are shallower).
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
            self.trees_total += 1
            merged = merge_and_extend(combo)
            created.append(Tree(merged.root, merged.ledger, merged.depth, self.trees_total))
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
