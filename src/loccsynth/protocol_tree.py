"""Double-rooted alternating-party protocol trees with symbolic labels.

Nodes carry formal nonnegative combinations of measurement operators: a
label is a set of (outcome j, copy k) references, read as sum over refs of
q_{jk} * A_j on the A side (p_{jk} * B_j on the B side).  The coefficients
stay free symbols until a completed tree's constraint ledger is handed to
the exact LP solver.

Trees are immutable; every operation returns a new tree.  Children are
kept in a canonical sorted order at all times so that congruence testing
and deduplication reduce to serialization comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence


class LeafRef(NamedTuple):
    """Identifies one use of outcome j; k distinguishes repeated uses."""

    j: int
    k: int


def other_side(side: str) -> str:
    return "B" if side == "A" else "A"


@dataclass(frozen=True)
class OpConstraint:
    """Operator equality between two same-side symbolic sums."""

    side: str
    lhs: frozenset[LeafRef]
    rhs: frozenset[LeafRef]

    @staticmethod
    def make(side: str, lhs, rhs) -> "OpConstraint":
        a, b = sorted((frozenset(lhs), frozenset(rhs)), key=lambda s: tuple(sorted(s)))
        return OpConstraint(side, a, b)

    def refs(self) -> frozenset[LeafRef]:
        return self.lhs | self.rhs

    def sort_key(self):
        return (self.side, tuple(sorted(self.lhs)), tuple(sorted(self.rhs)))


@dataclass(frozen=True)
class TreeNode:
    side: str
    terms: frozenset[LeafRef]
    children: tuple["TreeNode", ...]
    leaf: Optional[LeafRef] = None

    def __post_init__(self) -> None:
        if self.side not in ("A", "B"):
            raise ValueError("side must be 'A' or 'B'")
        if not self.terms:
            raise ValueError("node label must be nonempty")
        if self.leaf is not None and self.children:
            raise ValueError("leaf nodes have no children")
        if self.leaf is None and not self.children:
            raise ValueError("internal nodes need at least one child")


def canonical_key(node: TreeNode):
    """k-free canonical form: structure plus outcome indices only.

    Labels enter as sorted sets of distinct j, so trees that differ only in
    copy indices (or in how many copies feed one label) compare equal.
    """
    if node.leaf is not None:
        return ("L", node.side, node.leaf.j)
    return (
        "N",
        node.side,
        tuple(sorted({r.j for r in node.terms})),
        tuple(canonical_key(c) for c in node.children),
    )


def full_key(node: TreeNode):
    """Copy-index-bearing form, used only as a deterministic tie-break."""
    if node.leaf is not None:
        return ("L", node.side, tuple(node.leaf))
    return (
        "N",
        node.side,
        tuple(sorted(node.terms)),
        tuple(full_key(c) for c in node.children),
    )


def _sorted_children(children: Sequence[TreeNode]) -> tuple[TreeNode, ...]:
    return tuple(sorted(children, key=lambda c: (canonical_key(c), full_key(c))))


def congruent(t1: TreeNode, t2: TreeNode) -> bool:
    """Identical shape and outcome indices; coefficients (k indices) ignored."""
    if t1.side != t2.side:
        return False
    return canonical_key(t1) == canonical_key(t2)


@dataclass(frozen=True)
class Tree:
    root: TreeNode
    ledger: tuple[OpConstraint, ...]
    depth: int
    uid: int = -1


def leaves_in_order(node: TreeNode) -> Iterator[TreeNode]:
    if node.leaf is not None:
        yield node
        return
    for child in node.children:
        yield from leaves_in_order(child)


def leaf_refs(tree: Tree) -> list[LeafRef]:
    return [n.leaf for n in leaves_in_order(tree.root)]


def covered_outcomes(tree: Tree) -> frozenset[int]:
    return frozenset(r.j for r in leaf_refs(tree))


def equivalence_signature(tree: Tree):
    """Dedup key: left-most label's outcome set plus the k-free tree form."""
    jset = tuple(sorted({r.j for r in tree.root.terms}))
    return (jset, canonical_key(tree.root))


def seed_trees(count: int) -> list[Tree]:
    """One two-node tree per outcome 1..count, B node on the left.

    Seed uid equals the outcome index j.
    """
    trees = []
    for j in range(1, count + 1):
        ref = LeafRef(j, 1)
        leaf = TreeNode("A", frozenset({ref}), (), ref)
        root = TreeNode("B", frozenset({ref}), (leaf,), None)
        trees.append(Tree(root, (), 2, uid=j))
    return trees


def _map_node(node: TreeNode, mapping: dict[LeafRef, LeafRef]) -> TreeNode:
    terms = frozenset(mapping.get(r, r) for r in node.terms)
    if node.leaf is not None:
        return TreeNode(node.side, terms, (), mapping.get(node.leaf, node.leaf))
    children = _sorted_children([_map_node(c, mapping) for c in node.children])
    return TreeNode(node.side, terms, children, None)


def _map_ledger(
    ledger: Sequence[OpConstraint], mapping: dict[LeafRef, LeafRef]
) -> list[OpConstraint]:
    return [
        OpConstraint.make(
            c.side,
            {mapping.get(r, r) for r in c.lhs},
            {mapping.get(r, r) for r in c.rhs},
        )
        for c in ledger
    ]


def _extension_label(node: TreeNode) -> frozenset[LeafRef]:
    out: set[LeafRef] = set()
    for c in node.children:
        out.update(c.terms)
    return frozenset(out)


def merge_and_extend(trees: Sequence[Tree]) -> Tree:
    """Merge the left-most nodes of same-depth trees and extend on the left.

    For a single tree this is the pure extension step (a round in which the
    other party does nothing).  For several trees, every copy index is
    re-issued so (j, k) stays unique across the combined leaves, the merged
    node keeps the smallest participating label as its representative, one
    equality constraint is recorded per pair of merged labels, and the new
    left node is labeled by the union over the merged node's children.
    """
    if not trees:
        raise ValueError("nothing to merge")
    depth = trees[0].depth
    side = trees[0].root.side
    for t in trees:
        if t.depth != depth or t.root.side != side:
            raise ValueError("merge requires equal depth and matching left side")
    if len(trees) == 1:
        t = trees[0]
        root = TreeNode(
            other_side(side), _extension_label(t.root), (t.root,), None
        )
        return Tree(root, t.ledger, depth + 1, uid=-1)

    counters: dict[int, int] = {}
    roots: list[TreeNode] = []
    ledgers: list[OpConstraint] = []
    for t in trees:
        mapping: dict[LeafRef, LeafRef] = {}
        for leaf_node in leaves_in_order(t.root):
            ref = leaf_node.leaf
            k = counters.get(ref.j, 0) + 1
            counters[ref.j] = k
            mapping[ref] = LeafRef(ref.j, k)
        roots.append(_map_node(t.root, mapping))
        ledgers.extend(_map_ledger(t.ledger, mapping))

    labels = [r.terms for r in roots]
    representative = min(labels, key=lambda ts: (len(ts), tuple(sorted(ts))))
    merged_children = _sorted_children(
        list(itertools.chain.from_iterable(r.children for r in roots))
    )
    merged = TreeNode(side, representative, merged_children, None)
    for a, b in itertools.combinations(labels, 2):
        if a != b:
            ledgers.append(OpConstraint.make(side, a, b))
    root = TreeNode(other_side(side), _extension_label(merged), (merged,), None)
    ledger = tuple(sorted(set(ledgers), key=OpConstraint.sort_key))
    return Tree(root, ledger, depth + 1, uid=-1)


def has_congruent_siblings(tree: Tree) -> bool:
    """True when any node has two congruent child subtrees (class C shape)."""

    def walk(node: TreeNode) -> bool:
        keys = [canonical_key(c) for c in node.children]
        if len(keys) != len(set(keys)):
            return True
        return any(walk(c) for c in node.children)

    return walk(tree.root)


def collapse_congruent(tree: Tree) -> Tree:
    """Fold congruent sibling subtrees into one, per the cut-and-sum rule.

    At each node with congruent child subtrees, one copy is kept.  Labels of
    the party at the merge node stay untouched; labels of the other party
    inside the kept subtree become the union of the counterpart term sets,
    so the dropped copies' coefficients survive as extra summands.  Ledger
    constraints internal to the dropped copies (and the equalities that tied
    the copies together) are removed; the kept copy's other-party
    constraints are rewritten with the same unions.  Idempotent.
    """
    ledger: set[OpConstraint] = set(tree.ledger)

    def rebuild(node: TreeNode, merge_side: str, pairs) -> TreeNode:
        if node.side == merge_side:
            terms = node.terms
        else:
            terms = frozenset(
                set(node.terms)
                | {cp for r in node.terms for cp in pairs.get(r, ())}
            )
        if node.leaf is not None:
            return TreeNode(node.side, terms, (), node.leaf)
        children = _sorted_children(
            [rebuild(c, merge_side, pairs) for c in node.children]
        )
        return TreeNode(node.side, terms, children, None)

    def walk(node: TreeNode) -> TreeNode:
        nonlocal ledger
        if node.leaf is not None:
            return node
        children = [walk(c) for c in node.children]
        grouped: dict[object, list[TreeNode]] = {}
        order: list[object] = []
        for c in children:
            key = canonical_key(c)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(c)
        new_children: list[TreeNode] = []
        for key in order:
            group = sorted(grouped[key], key=full_key)
            if len(group) == 1:
                new_children.append(group[0])
                continue
            kept, removed = group[0], group[1:]
            pairs: dict[LeafRef, list[LeafRef]] = {}
            kept_leaves = [n.leaf for n in leaves_in_order(kept)]
            for rm in removed:
                for a, b in zip(kept_leaves, [n.leaf for n in leaves_in_order(rm)]):
                    pairs.setdefault(a, []).append(b)
            kept_refs = set(kept_leaves)
            removed_refs = {n.leaf for rm in removed for n in leaves_in_order(rm)}
            merge_side = node.side
            new_children.append(rebuild(kept, merge_side, pairs))

            def augment(term_set: frozenset[LeafRef]) -> frozenset[LeafRef]:
                return frozenset(
                    set(term_set)
                    | {cp for r in term_set for cp in pairs.get(r, ())}
                )

            rewritten: set[OpConstraint] = set()
            for c in ledger:
                refs = c.refs()
                if refs & removed_refs:
                    if refs <= (removed_refs | kept_refs):
                        continue
                    rewritten.add(c)
                elif c.side != merge_side and refs and refs <= kept_refs:
                    rewritten.add(OpConstraint.make(c.side, augment(c.lhs), augment(c.rhs)))
                else:
                    rewritten.add(c)
            ledger = rewritten
        return TreeNode(node.side, node.terms, _sorted_children(new_children), None)

    root = walk(tree.root)
    return Tree(
        root,
        tuple(sorted(ledger, key=OpConstraint.sort_key)),
        tree.depth,
        tree.uid,
    )


def branch_terms(child: TreeNode) -> frozenset[LeafRef]:
    """The term set whose sum, read on the parent's side, a child branch
    contributes to its parent's sum rule.

    A leaf child contributes its payload reference, not its label: the leaf
    label carries the leaf's own side while the branch is read on the
    parent's side, and the two diverge once congruent copies are folded."""
    if child.leaf is not None:
        return frozenset({child.leaf})
    return _extension_label(child)


def sum_rule_consistent(tree: Tree) -> bool:
    """Set-level sum-rule check: every internal node's label is realized by
    at least one of its child branches (the others are equated through the
    ledger, which only exact evaluation can confirm)."""

    def walk(node: TreeNode) -> bool:
        if node.leaf is not None:
            return True
        if not any(node.terms == branch_terms(c) for c in node.children):
            return False
        return all(walk(c) for c in node.children)

    return walk(tree.root)


def validate_tree(tree: Tree) -> None:
    """Structural invariants: alternation, equal leaf depth, (j,k) unique,
    canonical child order, set-level sum rule."""
    depths: set[int] = set()
    seen: set[LeafRef] = set()

    def walk(node: TreeNode, depth: int) -> None:
        for c in node.children:
            if c.side != other_side(node.side):
                raise ValueError("party sides must alternate along every path")
            walk(c, depth + 1)
        if node.leaf is not None:
            depths.add(depth)
            if node.leaf in seen:
                raise ValueError(f"duplicate leaf reference {node.leaf}")
            seen.add(node.leaf)
        else:
            if node.children != _sorted_children(node.children):
                raise ValueError("children are not in canonical order")

    walk(tree.root, 1)
    if depths and depths != {tree.depth}:
        raise ValueError(f"leaves at depths {depths}, expected {tree.depth}")
    if not sum_rule_consistent(tree):
        raise ValueError("node label not realized by any child branch")


def tree_to_text(tree: Tree) -> str:
    """Deterministic text form (stable across runs; used for goldens)."""

    def fmt_terms(terms: frozenset[LeafRef]) -> str:
        return "+".join(f"{r.j}.{r.k}" for r in sorted(terms))

    lines = [f"tree depth={tree.depth}"]

    def walk(node: TreeNode, indent: int) -> None:
        mark = "*" if node.leaf is not None else ""
        lines.append("  " * indent + f"{node.side}{mark} {fmt_terms(node.terms)}")
        for c in node.children:
            walk(c, indent + 1)

    walk(tree.root, 1)
    for c in tree.ledger:
        lines.append(
            f"eq {c.side}: {fmt_terms(c.lhs)} = {fmt_terms(c.rhs)}"
        )
    return "\n".join(lines) + "\n"
