"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line when its criterion holds (run with -s
to see them); tolerances are pinned here, not configured elsewhere.
"""

import itertools
import random
import time
from fractions import Fraction

from helpers import (
    kron,
    ledger_solution,
    permute_outcomes,
    proj,
    random_rescale,
    random_small_measurement,
    sum_rule_values_hold,
)
from oracle_cones import cones_intersect_oracle
from oracle_psd import char_poly

from loccsynth import synthesis_engine
from loccsynth.cone_geometry import Cone, cones_intersect, proportional
from loccsynth.exact_algebra import HermitianOp, op_linear_combine
from loccsynth.fixtures import BUILTIN
from loccsynth.kraus_realization import INSTRUMENT_TOL, realize, verify_instrument
from loccsynth.protocol_tree import (
    LeafRef,
    collapse_congruent,
    covered_outcomes,
    has_congruent_siblings,
    leaf_refs,
    merge_and_extend,
    seed_trees,
)
from loccsynth.synthesis_engine import (
    NO_LOCC_ANY_ROUNDS,
    LOCCProtocol,
    NoLoccCertificate,
    SearchConfig,
    SeparableMeasurement,
    _root_key,
    synthesize,
    verify_protocol_exact,
)

FLOAT_TOL = 1e-9
RUNTIME_LIMIT_S = 10.0


def _passed(line: str) -> None:
    print(f"PASS: {line}")


def _synth(m, rounds, **kw):
    return synthesize(m, SearchConfig(max_rounds=rounds, **kw))


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


def _assert_identity_roots(protocol: LOCCProtocol) -> None:
    m = protocol.measurement
    coeffs = {"A": protocol.q, "B": protocol.p}
    for node in (protocol.tree.root, protocol.tree.root.children[0]):
        value = _side_value(m, node.side, node.terms, coeffs[node.side])
        assert value == HermitianOp.identity(m.side_dim(node.side))


def test_criterion_1_bennett9_unimplementable():
    started = time.monotonic()
    out = _synth(BUILTIN["bennett9"](), 10, exhaustive=True)
    elapsed = time.monotonic() - started
    assert isinstance(out, NoLoccCertificate)
    assert out.verdict == NO_LOCC_ANY_ROUNDS
    rounds = out.stats.rounds
    assert rounds[0].side == "B"
    assert rounds[0].merged_subsets == ((6, 7), (8, 9))
    assert rounds[1].side == "A"
    assert rounds[1].merged_subsets == ((2, 3), (4, 5))
    for later in rounds[2:]:
        assert later.new_families == ()
        assert later.merged_subsets == ()
    assert out.stats.last_progress_round == 2
    assert elapsed < RUNTIME_LIMIT_S
    _passed(
        "criterion 1: nine-state measurement certified unimplementable; "
        f"round-1 merges (6,7),(8,9); round-2 merges (2,3),(4,5); {elapsed:.2f}s"
    )


def test_criterion_2_projective_and_conditional_protocols():
    cases = [
        ("product basis 2x2", BUILTIN["product_basis_2x2"]()),
        ("product basis 3x3", BUILTIN["product_basis_3x3"]()),
        ("conditional basis", BUILTIN["conditional_basis_2x2"]()),
    ]
    assert INSTRUMENT_TOL == FLOAT_TOL
    for name, m in cases:
        started = time.monotonic()
        out = _synth(m, 4)
        elapsed = time.monotonic() - started
        assert isinstance(out, LOCCProtocol), name
        _assert_identity_roots(out)
        report = verify_instrument(realize(out), m)
        assert report.ok, (name, report)
        assert elapsed < RUNTIME_LIMIT_S, name
    _passed("criterion 2: projective and conditional bases close to identity roots")


def test_criterion_3_pairwise_merge_required(monkeypatch):
    m = BUILTIN["example4"]()
    out = _synth(m, 8)
    assert isinstance(out, LOCCProtocol)
    verify_protocol_exact(out)

    def shape(node):
        if node.leaf is not None:
            return (node.side, node.leaf.j, ())
        return (node.side, None, tuple(sorted(shape(c) for c in node.children)))

    def leaf(j):
        return ("A", j, ())

    def chain(inner, sides):
        for side in sides:
            inner = (side, None, (inner,))
        return inner

    deepest = ("B", None, tuple(sorted((leaf(1), leaf(2)))))
    b4 = ("B", None, (leaf(4),))
    a12 = ("A", None, tuple(sorted((deepest, b4))))
    a5 = chain(leaf(5), ("B", "A"))
    bmid = ("B", None, tuple(sorted((a12, a5))))
    b3 = chain(leaf(3), ("B", "A", "B"))
    atop = ("A", None, tuple(sorted((bmid, b3))))
    expected = ("B", None, (atop,))
    assert shape(out.tree.root) == expected
    assert sorted(r.j for r in leaf_refs(out.tree)) == [1, 2, 3, 4, 5]

    every_merge = synthesis_engine._candidate_merges

    def whole_families_only(families, groups, cap):
        for fam, combo in every_merge(families, groups, cap):
            if frozenset(_root_key(t) for t in combo) == fam:
                yield fam, combo

    monkeypatch.setattr(synthesis_engine, "_candidate_merges", whole_families_only)
    restricted = _synth(m, 8)
    assert isinstance(restricted, NoLoccCertificate)
    assert restricted.verdict == NO_LOCC_ANY_ROUNDS
    assert restricted.stats.rounds_completed == 3
    assert [r.merged_subsets for r in restricted.stats.rounds] == [((1, 2, 3),), (), ()]
    _passed(
        "criterion 3: five-operator instance solved with the expected tree; "
        "whole-class-only merging fails as required"
    )


def test_criterion_4_seven_operators_eight_leaves():
    m = BUILTIN["example5"]()
    out = _synth(m, 8)
    assert isinstance(out, LOCCProtocol)
    verify_protocol_exact(out)
    refs = leaf_refs(out.tree)
    assert len(refs) == 8
    by_outcome = {}
    for r in refs:
        by_outcome.setdefault(r.j, []).append(r.k)
    assert sorted(by_outcome) == [1, 2, 3, 4, 5, 6, 7]
    assert sorted(by_outcome[1]) == [1, 2]
    assert all(len(ks) == 1 for j, ks in by_outcome.items() if j != 1)

    def jshape(c):
        return (
            c.side,
            frozenset(
                {
                    frozenset(r.j for r in c.lhs),
                    frozenset(r.j for r in c.rhs),
                }
            ),
        )

    got = {jshape(c) for c in out.tree.ledger}
    expected = {
        ("B", frozenset({frozenset({1}), frozenset({2})})),
        ("B", frozenset({frozenset({1}), frozenset({3})})),
        ("A", frozenset({frozenset({1, 2}), frozenset({4})})),
        ("A", frozenset({frozenset({1, 3}), frozenset({5})})),
        ("B", frozenset({frozenset({1, 4}), frozenset({6})})),
        ("B", frozenset({frozenset({1, 5}), frozenset({7})})),
        ("A", frozenset({frozenset({4, 6}), frozenset({5, 7})})),
    }
    assert got == expected
    root_b, root_a = out.tree.root, out.tree.root.children[0]
    assert {r.j for r in root_b.terms} == {6, 7}
    assert {r.j for r in root_a.terms} == {4, 6}
    _assert_identity_roots(out)
    # Exact completeness with the product weights (checked again end to end).
    total = op_linear_combine(
        [(out.weights[r], kron(m.op("A", r.j), m.op("B", r.j))) for r in refs],
        dim=m.dA * m.dB,
    )
    assert total == HermitianOp.identity(m.dA * m.dB)
    _passed(
        "criterion 4: seven-operator instance closes with eight leaves, "
        "outcome 1 reused, ledger matching the expected equality shapes"
    )


def test_criterion_5_nothing_can_merge():
    m = BUILTIN["five_rank_one"]()
    rank_one_count = 0
    for a, b in m.outcomes:
        if char_poly(a)[2] == 0:  # 2x2 rank <= 1
            rank_one_count += 1
    assert rank_one_count >= 5
    for side in ("A", "B"):
        ops = [m.op(side, j) for j in range(1, m.n_outcomes + 1)]
        for x, y in itertools.combinations(ops, 2):
            assert proportional(x, y) is None
    out = _synth(m, 6)
    assert isinstance(out, NoLoccCertificate)
    assert out.verdict == NO_LOCC_ANY_ROUNDS
    assert out.stats.last_progress_round == 0
    assert all(r.merged_subsets == () for r in out.stats.rounds)
    _passed(
        "criterion 5: all-distinct rank-one instance refuted with no merge "
        "ever available (stuck at round 1)"
    )


def test_criterion_6_randomized_invariance_suite():
    assert INSTRUMENT_TOL == FLOAT_TOL
    protocols = 0
    refutations = 0
    for i in range(500):
        rng = random.Random(20_000 + i)
        m = random_small_measurement(rng)
        base = _synth(m, 4)
        variants = [
            _synth(permute_outcomes(m, rng), 4),
            _synth(random_rescale(m, rng), 4),
        ]
        if isinstance(base, LOCCProtocol):
            protocols += 1
            for out in [base] + variants:
                assert isinstance(out, LOCCProtocol)
                assert out.stats.rounds_completed == base.stats.rounds_completed
                verify_protocol_exact(out)
                report = verify_instrument(realize(out), out.measurement)
                assert report.ok, (i, report)
        else:
            refutations += 1
            for out in variants:
                assert isinstance(out, NoLoccCertificate)
                assert out.verdict == base.verdict
                assert out.stats.rounds_completed == base.stats.rounds_completed
            if base.verdict == NO_LOCC_ANY_ROUNDS:
                doubled = _synth(m, 8)
                assert isinstance(doubled, NoLoccCertificate)
                assert doubled.verdict == NO_LOCC_ANY_ROUNDS
                assert doubled.stats.rounds_completed == base.stats.rounds_completed
    assert protocols >= 300
    assert refutations >= 30
    _passed(
        f"criterion 6: 500 randomized instances ({protocols} protocols, "
        f"{refutations} refutations) invariant under permutation/rescaling, "
        "with refutations stable under doubled round budgets"
    )


def test_criterion_7_cone_oracle_equivalence():
    pool = [
        proj((1, 0)),
        proj((0, 1)),
        proj((1, 1)),
        proj((1, -1)),
        proj((3, 4)),
        proj((4, -3)),
        HermitianOp.identity(2),
        op_linear_combine([(Fraction(1, 2), proj((1, 0))), (1, proj((1, 1)))]),
        HermitianOp.diag(Fraction(1, 2), Fraction(1, 3)),
    ]
    subsets = [
        tuple(pool[i] for i in combo)
        for size in (1, 2, 3)
        for combo in itertools.combinations(range(len(pool)), size)
    ]
    rng = random.Random(7)
    queries = 0
    agreed = 0
    while queries < 240:
        g1 = rng.choice(subsets)
        g2 = rng.choice(subsets)
        got = cones_intersect([Cone(g1), Cone(g2)]) is not None
        want = cones_intersect_oracle(list(g1), list(g2))
        assert got == want, (g1, g2)
        agreed += got
        queries += 1
    assert queries >= 200
    _passed(
        f"criterion 7: {queries} two-cone queries agree with the independent "
        f"circuit-enumeration oracle ({agreed} intersecting)"
    )


def test_criterion_8_congruent_collapse_preserves_validity():
    rng = random.Random(400)
    cases = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        shared = proj((3, 4))
        outcomes = tuple(
            (proj((1 + k, 2 + 3 * k)), shared.scale(Fraction(k + 1, 2)))
            for k in range(n)
        )
        m = SeparableMeasurement(2, 2, outcomes)
        trees = seed_trees(m.n_outcomes)
        rng.shuffle(trees)
        cut = rng.randint(2, len(trees)) if len(trees) > 2 else 2
        base = merge_and_extend(trees[:cut])
        copies = rng.randint(2, 3)
        tangled = merge_and_extend([base] * copies)
        if rng.random() < 0.5:
            tangled = merge_and_extend([tangled])
        assert has_congruent_siblings(tangled)
        collapsed = collapse_congruent(tangled)
        assert not has_congruent_siblings(collapsed)
        assert covered_outcomes(collapsed) == covered_outcomes(tangled)
        assert collapse_congruent(collapsed) == collapsed
        sol_in = ledger_solution(tangled, m)
        assert sol_in is not None
        assert sum_rule_values_hold(tangled, m, sol_in)
        sol_out = ledger_solution(collapsed, m)
        assert sol_out is not None
        assert sum_rule_values_hold(collapsed, m, sol_out)
        cases += 1
    assert cases == 40
    _passed(
        "criterion 8: collapsing injected congruent sibling subtrees keeps "
        "outcome coverage, ledger solvability, and node-sum consistency"
    )
