"""Symbolic protocol trees: seeding, merging, congruence, collapse."""

import random

import pytest

from helpers import (
    ledger_solution,
    proj,
    random_merged_tree,
    sum_rule_values_hold,
)

from loccsynth.fixtures import BUILTIN
from loccsynth.protocol_tree import (
    LeafRef,
    OpConstraint,
    canonical_key,
    collapse_congruent,
    congruent,
    covered_outcomes,
    equivalence_signature,
    has_congruent_siblings,
    leaf_refs,
    merge_and_extend,
    seed_trees,
    sum_rule_consistent,
    tree_to_text,
    validate_tree,
)
from loccsynth.synthesis_engine import SeparableMeasurement


def ref(j, k):
    return LeafRef(j, k)


# --- seeding ----------------------------------------------------------------


def test_seed_trees_counts():
    assert len(seed_trees(BUILTIN["bennett9"]().n_outcomes)) == 9
    assert len(seed_trees(BUILTIN["single_identity"]().n_outcomes)) == 1
    assert len(seed_trees(BUILTIN["example5"]().n_outcomes)) == 7


def test_seed_tree_shape():
    (tree,) = seed_trees(1)
    assert tree.depth == 2
    assert tree.root.side == "B"
    assert tree.root.terms == frozenset({ref(1, 1)})
    leaf = tree.root.children[0]
    assert leaf.side == "A" and leaf.leaf == ref(1, 1)
    validate_tree(tree)


# --- merge / extend ---------------------------------------------------------


def test_pair_merge_structure_and_constraint():
    trees = seed_trees(9)
    merged = merge_and_extend([trees[5], trees[6]])  # outcomes 6 and 7
    assert merged.depth == 3
    assert merged.root.side == "A"
    assert merged.root.terms == frozenset({ref(6, 1), ref(7, 1)})
    assert merged.ledger == (
        OpConstraint.make("B", {ref(6, 1)}, {ref(7, 1)}),
    )
    inner = merged.root.children[0]
    assert inner.side == "B" and len(inner.children) == 2
    validate_tree(merged)


def test_singleton_merge_is_pure_extension():
    trees = seed_trees(3)
    extended = merge_and_extend([trees[0]])
    assert extended.depth == 3
    assert extended.ledger == ()
    assert extended.root.side == "A"
    assert extended.root.terms == frozenset({ref(1, 1)})
    assert leaf_refs(extended) == leaf_refs(trees[0])
    validate_tree(extended)


def test_merge_reissues_copy_indices():
    (tree,) = seed_trees(1)
    doubled = merge_and_extend([tree, tree])
    refs = leaf_refs(doubled)
    assert sorted(refs) == [ref(1, 1), ref(1, 2)]
    validate_tree(doubled)
    # The pair equality between the two copies is recorded.
    assert OpConstraint.make("B", {ref(1, 1)}, {ref(1, 2)}) in doubled.ledger


def test_merge_requires_matching_depth_and_side():
    trees = seed_trees(2)
    taller = merge_and_extend([trees[0]])
    with pytest.raises(ValueError):
        merge_and_extend([taller, trees[1]])
    with pytest.raises(ValueError):
        merge_and_extend([])


def test_merge_representative_prefers_fewest_terms():
    trees = seed_trees(3)
    pair = merge_and_extend([trees[0], trees[1]])
    deep = [merge_and_extend([t]) for t in trees]
    # Merge the extended pair (2-term root) with the extended single (1 term).
    combined = merge_and_extend([pair, deep[2]])
    merged_node = combined.root.children[0]
    assert merged_node.terms == frozenset({ref(3, 1)})


# --- congruence -------------------------------------------------------------


def test_seed_congruence():
    trees = seed_trees(3)
    other = seed_trees(3)
    assert congruent(trees[0].root, other[0].root)
    assert not congruent(trees[0].root, trees[1].root)


def test_congruence_ignores_copy_indices():
    trees = seed_trees(2)
    doubled = merge_and_extend([trees[0], trees[0]])
    copies = doubled.root.children[0].children
    assert len(copies) == 2
    assert congruent(copies[0], copies[1])
    assert has_congruent_siblings(doubled)


def test_congruence_is_an_equivalence_relation():
    rng = random.Random(31)
    nodes = []
    for _ in range(12):
        t = random_merged_tree(rng, rng.randint(2, 4), rng.randint(1, 3))
        nodes.append(t.root)
    for a in nodes:
        assert congruent(a, a)
        for b in nodes:
            if a.side != b.side:
                continue
            assert congruent(a, b) == congruent(b, a)
            for c in nodes:
                if c.side != a.side:
                    continue
                if congruent(a, b) and congruent(b, c):
                    assert congruent(a, c)


# --- coverage and signatures --------------------------------------------------


def test_covered_outcomes():
    trees = seed_trees(5)
    assert covered_outcomes(trees[2]) == frozenset({3})
    merged = merge_and_extend([trees[0], trees[1]])
    assert covered_outcomes(merged) == frozenset({1, 2})


def test_signatures_distinguish_outcomes_but_not_copies():
    trees = seed_trees(2)
    assert equivalence_signature(trees[0]) != equivalence_signature(trees[1])
    a = merge_and_extend([trees[0], trees[1]])
    b = merge_and_extend([trees[1], trees[0]])
    assert equivalence_signature(a) == equivalence_signature(b)


def test_signature_separates_structures():
    # The four ways to merge three mutually mergeable trees give four keys.
    trees = seed_trees(3)
    merges = [
        merge_and_extend([trees[0], trees[1]]),
        merge_and_extend([trees[0], trees[2]]),
        merge_and_extend([trees[1], trees[2]]),
        merge_and_extend(trees),
    ]
    assert len({equivalence_signature(t) for t in merges}) == 4


# --- uniqueness invariant -----------------------------------------------------


def test_leaf_reference_uniqueness_random():
    rng = random.Random(47)
    for _ in range(25):
        t = random_merged_tree(rng, rng.randint(2, 5), rng.randint(1, 3))
        refs = leaf_refs(t)
        assert len(refs) == len(set(refs))
        validate_tree(t)
        assert sum_rule_consistent(t)


# --- serialization -----------------------------------------------------------


def test_text_form_is_deterministic():
    rng1, rng2 = random.Random(5), random.Random(5)
    t1 = random_merged_tree(rng1, 4, 2)
    t2 = random_merged_tree(rng2, 4, 2)
    assert tree_to_text(t1) == tree_to_text(t2)
    assert "tree depth=" in tree_to_text(t1)


# --- collapse_congruent -------------------------------------------------------


def _pair_measurement() -> SeparableMeasurement:
    # Two outcomes with equal B parts (mergeable) and orthogonal A parts;
    # not complete to the identity, which collapse tests do not need.
    shared = proj((3, 4))
    return SeparableMeasurement(
        2, 2, ((proj((1, 0)), shared), (proj((0, 1)), shared.scale(2)))
    )


def test_collapse_without_congruent_siblings_is_identity():
    trees = seed_trees(4)
    merged = merge_and_extend([trees[0], trees[1]])
    assert collapse_congruent(merged) == merged


def test_collapse_two_leaf_copies():
    (tree,) = seed_trees(1)
    doubled = merge_and_extend([tree, tree])
    collapsed = collapse_congruent(doubled)
    assert not has_congruent_siblings(collapsed)
    # One leaf remains; its own-side label now carries both coefficients.
    assert [n.leaf for n in [collapsed.root.children[0].children[0]]] == [ref(1, 1)]
    assert collapsed.root.children[0].children[0].terms == frozenset(
        {ref(1, 1), ref(1, 2)}
    )
    # Distinct outcome coverage is preserved.
    assert covered_outcomes(collapsed) == covered_outcomes(doubled)
    assert collapse_congruent(collapsed) == collapsed


def test_collapse_preserves_ledger_satisfiability():
    m = _pair_measurement()
    trees = seed_trees(m.n_outcomes)
    base = merge_and_extend([trees[0], trees[1]])
    doubled = merge_and_extend([base, base])
    assert has_congruent_siblings(doubled)
    collapsed = collapse_congruent(doubled)
    assert not has_congruent_siblings(collapsed)
    assert covered_outcomes(collapsed) == frozenset({1, 2})
    for t in (doubled, collapsed):
        sol = ledger_solution(t, m)
        assert sol is not None
        assert sum_rule_values_hold(t, m, sol)


def test_collapse_three_copies_matches_pairwise_form():
    m = _pair_measurement()
    trees = seed_trees(m.n_outcomes)
    base = merge_and_extend([trees[0], trees[1]])
    tripled = merge_and_extend([base, base, base])
    collapsed = collapse_congruent(tripled)
    doubled = collapse_congruent(merge_and_extend([base, base]))
    # Same canonical shape and label structure up to copy indices.
    assert canonical_key(collapsed.root) == canonical_key(doubled.root)
    assert not has_congruent_siblings(collapsed)
    sol = ledger_solution(collapsed, m)
    assert sol is not None and sum_rule_values_hold(collapsed, m, sol)
