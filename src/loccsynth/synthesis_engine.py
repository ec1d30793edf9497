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

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .cone_geometry import (
    Cone,
    LPProblem,
    lp_call_count,
    lp_feasible,
    mutually_intersecting_families,
    proportional,
    strict_positive_solution,
)
from .exact_algebra import (
    HermitianOp,
    is_psd,
    kron,
    op_linear_combine,
    vectorize,
)
from .protocol_tree import (
    LeafRef,
    OpConstraint,
    Tree,
    TreeNode,
    _sorted_children,
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
    """Indexed product positive operators (A_j, B_j), j = 1..n."""

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
        products = [kron(a, b) for a, b in self.outcomes]
        for i, j in itertools.combinations(range(len(products)), 2):
            if proportional(products[i], products[j]) is not None:
                raise MeasurementError(
                    f"outcomes {i + 1} and {j + 1} coincide up to positive scaling"
                )

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def op(self, side: str, j: int) -> HermitianOp:
        pair = self.outcomes[j - 1]
        return pair[0] if side == "A" else pair[1]

    def side_dim(self, side: str) -> int:
        return self.dA if side == "A" else self.dB


@dataclass(frozen=True)
class SearchConfig:
    max_rounds: int
    family_size_cap: int = 12
    max_trees: int = 5000
    exhaustive: bool = False
    # Test hook: only merge a family whole, never a proper subset of it.
    full_family_merges_only: bool = False

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


@dataclass(frozen=True)
class SearchStats:
    rounds: tuple[RoundStats, ...]
    rounds_completed: int
    last_progress_round: int
    lp_calls: int
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

    Solved as an exact LP with a max-min-slack phase (maximize t subject to
    r_j >= t, t <= 1); only t > 0 certifies the completeness condition.
    """
    n = m.n_outcomes
    target = vectorize(HermitianOp.identity(m.dA * m.dB))
    vecs = [vectorize(kron(a, b)) for a, b in m.outcomes]
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
    vec_cache = {j: vectorize(m.op(side, j)) for j in {r.j for r in refs}}
    vl = d * d
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for c in constraints:
        for comp in range(vl):
            row = [Fraction(0)] * len(refs)
            for r in c.lhs:
                row[index[r]] += vec_cache[r.j][comp]
            for r in c.rhs:
                row[index[r]] -= vec_cache[r.j][comp]
            rows.append(row)
            rhs.append(Fraction(0))
    ident = vectorize(HermitianOp.identity(d))
    for comp in range(vl):
        row = [Fraction(0)] * len(refs)
        for r in root_label:
            row[index[r]] += vec_cache[r.j][comp]
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
        first = kids[0]
        if first.leaf is not None:
            terms = frozenset({first.leaf})
        else:
            terms = frozenset().union(*[c.terms for c in first.children])
        return TreeNode(node.side, terms, kids, None)

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


def _solve_tree(
    tree: Tree, m: SeparableMeasurement
) -> Optional[tuple[Tree, dict[LeafRef, Fraction], dict[LeafRef, Fraction]]]:
    """Exact coefficient solve for a complete tree.

    The A and B systems are independent: ledger constraints are one-sided
    and the two root conditions split by party.  Strict positivity is tried
    first; failing that, a plain nonnegative solution is accepted if pruning
    its zero-weight leaves leaves a verifiable protocol (full coverage and
    the exact completeness sum, re-checked by the standard verifier).
    """
    systems = [_side_system(tree, m, side) for side in ("A", "B")]
    solutions = []
    for rows, rhs, refs in systems:
        point = strict_positive_solution(rows, rhs, len(refs))
        if point is None:
            break
        solutions.append(dict(zip(refs, point)))
    else:
        q, p = _complete_maps(tree, *solutions)
        return tree, q, p

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
        return tree, q, p
    pruned = _prune_zero_leaves(tree, q, p)
    if pruned is None:
        return None
    if {r.j for r in leaf_refs(pruned)} != set(range(1, m.n_outcomes + 1)):
        return None
    q2, p2 = _complete_maps(pruned, q, p)
    weights = {r: q2[r] * p2[r] for r in leaf_refs(pruned)}
    candidate = LOCCProtocol(pruned, q2, p2, weights, m, None)
    try:
        verify_protocol_exact(candidate)
    except ProtocolVerificationError:
        return None
    return pruned, q2, p2


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


def check_tree_feasibility(
    tree: Tree, m: SeparableMeasurement
) -> Optional[tuple[dict[LeafRef, Fraction], dict[LeafRef, Fraction]]]:
    """Public wrapper: the solved (q, p) maps for a complete tree, if any."""
    solved = _solve_tree(tree, m)
    if solved is None:
        return None
    _, q, p = solved
    return q, p


def _side_value(
    m: SeparableMeasurement,
    side: str,
    terms,
    coeffs: dict[LeafRef, Fraction],
) -> HermitianOp:
    return op_linear_combine(
        [(coeffs[r], m.op(side, r.j)) for r in sorted(terms)],
        dim=m.side_dim(side),
    )


def verify_protocol_exact(protocol: LOCCProtocol) -> None:
    """Exact re-check of every structural protocol property.

    Raises ProtocolVerificationError if the sum rule fails at any node, any
    sibling branch disagrees, a root is not the identity, a coefficient is
    not strictly positive, or the leaves do not resolve the identity.
    """
    m = protocol.measurement
    tree = protocol.tree
    validate_tree(tree)
    coeffs = {"A": protocol.q, "B": protocol.p}
    for r in leaf_refs(tree):
        if protocol.q[r] <= 0 or protocol.p[r] <= 0:
            raise ProtocolVerificationError(f"leaf {r} has a nonpositive weight")

    def branch_value(node: TreeNode, child: TreeNode) -> HermitianOp:
        if child.leaf is not None:
            terms = frozenset({child.leaf})
        else:
            terms = set()
            for z in child.children:
                terms |= z.terms
        return _side_value(m, node.side, terms, coeffs[node.side])

    def walk(node: TreeNode) -> None:
        if node.leaf is not None:
            return
        target = _side_value(m, node.side, node.terms, coeffs[node.side])
        for child in node.children:
            if branch_value(node, child) != target:
                raise ProtocolVerificationError(
                    f"branch sum mismatch at a {node.side} node"
                )
            walk(child)

    walk(tree.root)
    for c in tree.ledger:
        lhs = _side_value(m, c.side, c.lhs, coeffs[c.side])
        rhs = _side_value(m, c.side, c.rhs, coeffs[c.side])
        if lhs != rhs:
            raise ProtocolVerificationError("ledger constraint violated")
    root, second = tree.root, tree.root.children[0]
    for node in (root, second):
        value = _side_value(m, node.side, node.terms, coeffs[node.side])
        if value != HermitianOp.identity(m.side_dim(node.side)):
            raise ProtocolVerificationError(f"{node.side} root is not the identity")
    total = op_linear_combine(
        [
            (protocol.q[r] * protocol.p[r], kron(m.op("A", r.j), m.op("B", r.j)))
            for r in sorted(leaf_refs(tree))
        ],
        dim=m.dA * m.dB,
    )
    if total != HermitianOp.identity(m.dA * m.dB):
        raise ProtocolVerificationError("leaf weights do not resolve the identity")


def _root_key(tree: Tree) -> frozenset[int]:
    return frozenset(r.j for r in tree.root.terms)


def _proportionality_families(
    keys: list[frozenset[int]], gens: dict[frozenset[int], tuple[HermitianOp, ...]]
) -> list[frozenset[frozenset[int]]]:
    """Round-one families: partition single-generator labels by exact
    proportionality (the cones are rays, so this is the cone criterion)."""
    classes: list[list[frozenset[int]]] = []
    for key in keys:
        op = gens[key][0]
        for cls in classes:
            if proportional(op, gens[cls[0]][0]) is not None:
                cls.append(key)
                break
        else:
            classes.append([key])
    return [frozenset(cls) for cls in classes if len(cls) >= 2]


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
    frontier = seed_trees(m)
    next_uid = m.n_outcomes + 1
    trees_total = m.n_outcomes
    seen_sigs = {equivalence_signature(t) for t in frontier}
    seen_families: dict[str, list[frozenset[frozenset[int]]]] = {"A": [], "B": []}
    rounds: list[RoundStats] = []
    capped = False
    dedup_hits = 0
    congruence_skips = 0
    last_progress = 0
    empty_streak = 0

    def finish_protocol(solved, stats):
        tree, q, p = solved
        weights = {r: q[r] * p[r] for r in leaf_refs(tree)}
        protocol = LOCCProtocol(tree, q, p, weights, m, stats)
        verify_protocol_exact(protocol)
        return protocol

    def stats_now(rounds_completed: int) -> SearchStats:
        return SearchStats(
            rounds=tuple(rounds),
            rounds_completed=rounds_completed,
            last_progress_round=last_progress,
            lp_calls=lp_call_count() - lp_base,
            trees_total=trees_total,
            capped=capped,
            signature_dedup_hits=dedup_hits,
            congruence_skips=congruence_skips,
        )

    if m.n_outcomes == 1:
        solved = _solve_tree(frontier[0], m)
        if solved is not None:
            return finish_protocol(solved, stats_now(0))

    for round_index in range(1, cfg.max_rounds + 1):
        side = frontier[0].root.side
        lp_round_base = lp_call_count()
        groups: dict[frozenset[int], list[Tree]] = {}
        for t in frontier:
            groups.setdefault(_root_key(t), []).append(t)
        keys = sorted(groups, key=lambda k: tuple(sorted(k)))
        gens = {
            key: tuple(m.op(side, j) for j in sorted(key)) for key in keys
        }
        if round_index == 1:
            families = _proportionality_families(keys, gens)
        else:
            items = [(key, Cone(gens[key])) for key in keys]
            families, complete = mutually_intersecting_families(
                items,
                strict=True,
                size_cap=cfg.family_size_cap,
                exhaustive=cfg.exhaustive,
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

        created: list[Tree] = []
        merged_subsets: list[tuple[int, ...]] = []
        tried: set[frozenset[int]] = set()
        for fam in new_families:
            members = sorted(
                (t for key in sorted(fam, key=lambda k: tuple(sorted(k))) for t in groups[key]),
                key=lambda t: t.uid,
            )
            if len(members) > cfg.family_size_cap:
                capped = True
                members = members[: cfg.family_size_cap]
            stop = False
            for size in range(2, len(members) + 1):
                for combo in itertools.combinations(members, size):
                    uids = frozenset(t.uid for t in combo)
                    if uids in tried:
                        continue
                    tried.add(uids)
                    keyset = frozenset(_root_key(t) for t in combo)
                    if any(keyset <= prev for prev in seen_families[side]):
                        continue
                    if cfg.full_family_merges_only and keyset != fam:
                        continue
                    if any(
                        congruent(a.root, b.root)
                        for a, b in itertools.combinations(combo, 2)
                    ):
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
                        stop = True
                        break
                if stop:
                    break
            if stop:
                break

        protocol_result = None
        for t in created:
            if covered_outcomes(t) == all_j:
                solved = _solve_tree(t, m)
                if solved is not None:
                    protocol_result = solved
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
            )
        )
        if protocol_result is not None:
            return finish_protocol(protocol_result, stats_now(round_index))
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
