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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .cone_geometry import (
    Cone,
    IntersectionMemo,
    LPProblem,
    lp_call_count,
    lp_feasible,
    mutually_intersecting_families,
    ray_key,
    strict_positive_solution,
)
from .exact_algebra import HermitianOp, RealVector, is_psd, kron, vectorize
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
class SeparableMeasurement:
    """Indexed product positive operators (A_j, B_j), j = 1..n.

    Each operator's coordinate vector (`vec`) and each outcome's product
    vector `vectorize(A_j (x) B_j)` (`product_vectors`) are computed once
    per measurement and cached on it, outside the dataclass fields, so
    equality and repr are unchanged.  The weight LP, the tree systems and
    `verify_protocol_exact` all read them.
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
        rays = [ray_key(v) for v in self.product_vectors]
        for i, j in itertools.combinations(range(len(rays)), 2):
            if rays[i] == rays[j]:
                raise MeasurementError(
                    f"outcomes {i + 1} and {j + 1} coincide up to positive scaling"
                )

    @functools.cached_property
    def product_vectors(self) -> tuple[RealVector, ...]:
        """`vectorize(kron(A_j, B_j))` for each outcome, in outcome order."""
        return tuple(vectorize(kron(a, b)) for a, b in self.outcomes)

    @functools.cached_property
    def _side_vectors(self) -> dict[str, tuple[RealVector, ...]]:
        return {
            "A": tuple(vectorize(a) for a, _ in self.outcomes),
            "B": tuple(vectorize(b) for _, b in self.outcomes),
        }

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def op(self, side: str, j: int) -> HermitianOp:
        pair = self.outcomes[j - 1]
        return pair[0] if side == "A" else pair[1]

    def vec(self, side: str, j: int) -> RealVector:
        """`vectorize(self.op(side, j))`."""
        return self._side_vectors[side][j - 1]

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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


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
    """Run counters.  `lp_calls` counts the exact LPs actually solved, here
    and per round; `memo_hits` counts the cone queries the run's
    `IntersectionMemo` answered without one."""

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

    Solved exactly by `strict_positive_solution`, one phase-1 LP; when it
    finds none, NotASeparableMeasurement is raised.
    """
    n = m.n_outcomes
    target = vectorize(HermitianOp.identity(m.dA * m.dB))
    vecs = m.product_vectors
    rows = []
    rhs = []
    for comp in range(len(target)):
        rows.append(tuple(v[comp] for v in vecs))
        rhs.append(target[comp])
    point = strict_positive_solution(rows, rhs, n)
    if point is None:
        raise NotASeparableMeasurement(
            "no strictly positive weights complete the outcomes to the identity"
        )
    return point


def _side_system(tree: Tree, m: SeparableMeasurement, side: str):
    """Equality rows for one party: ledger constraints plus the identity
    condition on that party's root.  Returns (rows, rhs, variable refs)."""
    d = m.side_dim(side)
    root, second = tree.root, tree.root.children[0]
    root_label = root.terms if root.side == side else second.terms
    constraints = [c for c in tree.ledger if c.side == side]
    refs = sorted(
        set().union(root_label, *[c.refs() for c in constraints])
        if constraints
        else set(root_label)
    )
    index = {r: i for i, r in enumerate(refs)}
    vec = {r: m.vec(side, r.j) for r in refs}
    vl = d * d
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for c in constraints:
        for comp in range(vl):
            row = [Fraction(0)] * len(refs)
            for r in c.lhs:
                row[index[r]] += vec[r][comp]
            for r in c.rhs:
                row[index[r]] -= vec[r][comp]
            rows.append(row)
            rhs.append(Fraction(0))
    ident = vectorize(HermitianOp.identity(d))
    for comp in range(vl):
        row = [Fraction(0)] * len(refs)
        for r in root_label:
            row[index[r]] += vec[r][comp]
        rows.append(row)
        rhs.append(ident[comp])
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
    systems = [_side_system(tree, m, side) for side in ("A", "B")]
    solutions = []
    for rows, rhs, refs in systems:
        point = strict_positive_solution(rows, rhs, len(refs))
        if point is None:
            break
        solutions.append(dict(zip(refs, point)))
    else:
        return _verified_protocol(tree, m, *_complete_maps(tree, *solutions))

    solutions = []
    for rows, rhs, refs in systems:
        feasible, point = lp_feasible(
            LPProblem(tuple(tuple(r) for r in rows), tuple(rhs), len(refs))
        )
        if not feasible:
            return None
        solutions.append(dict(zip(refs, point)))
    q, p = _complete_maps(tree, *solutions)
    if all(q[r] > 0 and p[r] > 0 for r in leaf_refs(tree)):
        return _verified_protocol(tree, m, q, p)
    pruned = _prune_zero_leaves(tree, q, p)
    if pruned is None:
        return None
    if {r.j for r in leaf_refs(pruned)} != set(range(1, m.n_outcomes + 1)):
        return None
    try:
        return _verified_protocol(pruned, m, *_complete_maps(pruned, q, p))
    except ProtocolVerificationError:
        return None


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


def _coords_sum(terms, size: int) -> RealVector:
    """The exact sum of c * v over (coefficient c, coordinate vector v)."""
    total = [Fraction(0)] * size
    for c, vec in terms:
        for k, v in enumerate(vec):
            if v:
                total[k] += c * v
    return tuple(total)


def _side_coords(
    m: SeparableMeasurement,
    side: str,
    terms,
    coeffs: dict[LeafRef, Fraction],
) -> RealVector:
    """`vectorize` of sum coeffs[r] * m.op(side, r.j) over r in terms.

    Raises ProtocolVerificationError when a term has no coefficient or a
    negative one."""
    for r in terms:
        if r not in coeffs:
            raise ProtocolVerificationError(f"{r} has no {side} coefficient")
        if coeffs[r] < 0:
            raise ProtocolVerificationError(f"{r} has a negative {side} coefficient")
    return _coords_sum(((coeffs[r], m.vec(side, r.j)) for r in terms), m.side_dim(side) ** 2)


def verify_protocol_exact(protocol: LOCCProtocol) -> None:
    """Exact re-check of every structural protocol property.

    Raises ProtocolVerificationError if a reference the tree uses has no
    coefficient or a negative one, a leaf weight is not strictly positive,
    the sum rule fails at any node (a sibling branch disagrees), a ledger
    constraint fails, a root is not the identity, or the leaves do not
    resolve the identity.

    Every operator sum is compared as its exact coordinate vector, summed
    from the measurement's cached vectors: `vectorize` is linear and
    injective, so equal coordinates are equal operators.  No check reads
    the LP rows the coefficients were solved from.
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

    def value(side: str, terms) -> RealVector:
        return _side_coords(m, side, terms, coeffs[side])

    def walk(node: TreeNode) -> None:
        if node.leaf is not None:
            return
        target = value(node.side, node.terms)
        for child in node.children:
            if value(node.side, branch_terms(child)) != target:
                raise ProtocolVerificationError(
                    f"branch sum mismatch at a {node.side} node"
                )
            walk(child)

    walk(tree.root)
    for c in tree.ledger:
        if value(c.side, c.lhs) != value(c.side, c.rhs):
            raise ProtocolVerificationError("ledger constraint violated")
    root, second = tree.root, tree.root.children[0]
    for node in (root, second):
        identity = vectorize(HermitianOp.identity(m.side_dim(node.side)))
        if value(node.side, node.terms) != identity:
            raise ProtocolVerificationError(f"{node.side} root is not the identity")
    weighted = (
        (protocol.q[r] * protocol.p[r], m.product_vectors[r.j - 1]) for r in leaf_refs(tree)
    )
    total = _coords_sum(weighted, (m.dA * m.dB) ** 2)
    if total != vectorize(HermitianOp.identity(m.dA * m.dB)):
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


def synthesize(m: SeparableMeasurement, cfg: SearchConfig) -> SynthesisOutcome:
    """Build an LOCC protocol within cfg.max_rounds rounds or certify failure.

    Returns the first protocol found (deterministic enumeration order), or a
    certificate whose verdict distinguishes a proven fixed point
    (NO_LOCC_ANY_ROUNDS), plain round exhaustion (NO_LOCC_WITHIN_L), and a
    search truncated by a cap (INCONCLUSIVE_CAPPED).
    """
    validate_measurement(m)
    all_j = frozenset(range(1, m.n_outcomes + 1))
    lp_base = lp_call_count()
    frontier = seed_trees(m.n_outcomes)
    next_uid = m.n_outcomes + 1
    trees_total = m.n_outcomes
    seen_sigs = {equivalence_signature(t) for t in frontier}
    seen_families: dict[str, list[frozenset[frozenset[int]]]] = {"A": [], "B": []}
    cone_of = functools.cache(Cone)  # one Cone per distinct generator tuple
    intersect = IntersectionMemo()
    rounds: list[RoundStats] = []
    capped = False
    dedup_hits = 0
    congruence_skips = 0
    last_progress = 0
    empty_streak = 0

    def stats_now(rounds_completed: int) -> SearchStats:
        return SearchStats(
            rounds=tuple(rounds),
            rounds_completed=rounds_completed,
            last_progress_round=last_progress,
            lp_calls=lp_call_count() - lp_base,
            memo_hits=intersect.hits,
            trees_total=trees_total,
            capped=capped,
            signature_dedup_hits=dedup_hits,
            congruence_skips=congruence_skips,
        )

    if m.n_outcomes == 1:
        protocol = solve_tree(frontier[0], m)
        if protocol is not None:
            return replace(protocol, stats=stats_now(0))

    for round_index in range(1, cfg.max_rounds + 1):
        side = frontier[0].root.side
        lp_round_base = lp_call_count()
        hits_round_base = intersect.hits
        groups: dict[frozenset[int], list[Tree]] = {}
        for t in frontier:
            groups.setdefault(_root_key(t), []).append(t)
        keys = sorted(groups, key=lambda k: tuple(sorted(k)))
        items = [
            (key, cone_of(tuple(m.op(side, j) for j in sorted(key)))) for key in keys
        ]
        families, complete = mutually_intersecting_families(
            items,
            strict=True,
            size_cap=cfg.family_size_cap,
            exhaustive=cfg.exhaustive,
            intersect=intersect,
        )
        if not complete:
            capped = True
        # A label used by several distinct trees is mergeable with itself.
        for key in keys:
            if len(groups[key]) >= 2 and not any(key in fam for fam in families):
                families.append(frozenset({key}))
        families.sort(key=lambda f: tuple(sorted(tuple(sorted(k)) for k in f)))
        new_families = [
            f
            for f in families
            if not any(f <= prev for prev in seen_families[side])
        ]

        if any(
            sum(len(groups[key]) for key in fam) > cfg.family_size_cap
            for fam in new_families
        ):
            capped = True

        created: list[Tree] = []
        merged_subsets: list[tuple[int, ...]] = []
        tried: set[frozenset[int]] = set()
        for _, combo in _candidate_merges(new_families, groups, cfg.family_size_cap):
            uids = frozenset(t.uid for t in combo)
            if uids in tried:
                continue
            tried.add(uids)
            keyset = frozenset(_root_key(t) for t in combo)
            if any(keyset <= prev for prev in seen_families[side]):
                continue
            if any(congruent(a.root, b.root) for a, b in itertools.combinations(combo, 2)):
                congruence_skips += 1
                continue
            merged = merge_and_extend(combo)
            if has_congruent_siblings(merged):
                congruence_skips += 1
                continue
            sig = equivalence_signature(merged)
            if sig in seen_sigs:
                dedup_hits += 1
                continue
            seen_sigs.add(sig)
            merged = replace(merged, uid=next_uid)
            next_uid += 1
            trees_total += 1
            created.append(merged)
            merged_subsets.append(tuple(sorted(t.uid for t in combo)))
            if trees_total > cfg.max_trees:
                capped = True
                break

        protocol = None
        for t in created:
            if covered_outcomes(t) == all_j:
                protocol = solve_tree(t, m)
                if protocol is not None:
                    break

        seen_families[side].extend(new_families)
        progress = bool(created)
        if progress:
            last_progress = round_index
            empty_streak = 0
        else:
            empty_streak += 1
        rounds.append(
            RoundStats(
                round_index=round_index,
                side=side,
                new_families=tuple(
                    tuple(sorted(tuple(sorted(k)) for k in f)) for f in new_families
                ),
                merged_subsets=tuple(merged_subsets),
                trees_created=len(created),
                trees_total=trees_total,
                lp_calls=lp_call_count() - lp_round_base,
                memo_hits=intersect.hits - hits_round_base,
            )
        )
        if protocol is not None:
            return replace(protocol, stats=stats_now(round_index))
        if empty_streak >= 2:
            verdict = INCONCLUSIVE_CAPPED if capped else NO_LOCC_ANY_ROUNDS
            return NoLoccCertificate(verdict, stats_now(round_index))
        if trees_total > cfg.max_trees:
            return NoLoccCertificate(INCONCLUSIVE_CAPPED, stats_now(round_index))
        frontier = [
            replace(merge_and_extend([t]), uid=t.uid) for t in frontier
        ] + created

    verdict = INCONCLUSIVE_CAPPED if capped else NO_LOCC_WITHIN_L
    return NoLoccCertificate(verdict, stats_now(cfg.max_rounds))
