"""Measurement validation and the synthesis loop."""

import math
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import kron, permute_outcomes, proj, random_rescale, random_small_measurement
from oracle_lp import (
    intersection_problem_reference,
    side_system_reference,
    strict_positive_reference,
    validate_reference,
)

from loccsynth import cone_geometry, synthesis_engine
from loccsynth.cone_geometry import Cone, ray_key
from loccsynth.exact_algebra import HermitianOp, vectorize
from loccsynth.fixtures import BUILTIN
from loccsynth.kraus_realization import realize, verify_instrument
from loccsynth.protocol_tree import (
    LeafRef,
    OpConstraint,
    canonical_key,
    has_congruent_siblings,
    merge_and_extend,
    seed_trees,
    tree_to_text,
)
from loccsynth.synthesis_engine import (
    INCONCLUSIVE_CAPPED,
    NO_LOCC_ANY_ROUNDS,
    NO_LOCC_WITHIN_L,
    LOCCProtocol,
    MeasurementError,
    NoLoccCertificate,
    NotASeparableMeasurement,
    ProtocolVerificationError,
    SearchConfig,
    SeparableMeasurement,
    solve_tree,
    synthesize,
    validate_measurement,
    verify_protocol_exact,
)


# --- measurement ingestion ----------------------------------------------------


def test_ingest_rejects_non_psd():
    bad = HermitianOp.diag(1, Fraction(-1, 4))
    with pytest.raises(MeasurementError, match="is_psd"):
        SeparableMeasurement(2, 2, ((bad, HermitianOp.identity(2)),))


def test_ingest_rejects_zero_operator():
    with pytest.raises(MeasurementError, match="zero"):
        SeparableMeasurement(2, 2, ((HermitianOp.zero(2), HermitianOp.identity(2)),))


def test_ingest_rejects_duplicate_products():
    a = proj((1, 0))
    b = proj((0, 1))
    with pytest.raises(MeasurementError, match="coincide"):
        SeparableMeasurement(2, 2, ((a, b), (a.scale(2), b.scale(3))))
    # A scaling split across the two sides leaves the product unchanged.
    with pytest.raises(MeasurementError, match="coincide"):
        SeparableMeasurement(2, 2, ((a, b), (a.scale(2), b.scale(Fraction(1, 2)))))


def test_ingest_rejects_dimension_mismatch():
    with pytest.raises(MeasurementError, match="dimensions"):
        SeparableMeasurement(2, 3, ((HermitianOp.identity(2), HermitianOp.identity(2)),))


@pytest.mark.parametrize("key", ["AB", "C"])
def test_only_a_party_has_operators_and_a_dimension(key):
    # example5 has dA = 2 and dB = 3; the product table "AB" is no party.
    m = BUILTIN["example5"]()
    assert (m.side_dim("A"), m.side_dim("B")) == (2, 3)
    assert (m.op("A", 2), m.op("B", 2)) == m.outcomes[1]
    assert len(m.table("AB").coords[0]) == 36
    with pytest.raises(ValueError, match=f"{key!r} is not a party"):
        m.side_dim(key)
    with pytest.raises(ValueError, match=f"{key!r} is not a party"):
        m.op(key, 1)


# --- validate_measurement -------------------------------------------------------


def test_validate_bennett9_weights_are_one():
    assert validate_measurement(BUILTIN["bennett9"]()) == [Fraction(1)] * 9


def test_validate_product_basis_weights_are_one():
    assert validate_measurement(BUILTIN["product_basis_2x2"]()) == [Fraction(1)] * 4


def test_validate_scaled_single_outcome():
    m = BUILTIN["single_identity"]()
    assert validate_measurement(m) == [Fraction(1, 2)]


def test_validate_rejects_incomplete_family():
    m = SeparableMeasurement(
        2, 2, ((proj((1, 0)), proj((1, 0))), (proj((0, 1)), proj((0, 1))))
    )
    with pytest.raises(NotASeparableMeasurement):
        validate_measurement(m)


# --- solve_tree ------------------------------------------------------------------


def test_feasibility_solves_completed_search_tree():
    m = BUILTIN["product_basis_2x2"]()
    protocol = synthesize(m, SearchConfig(max_rounds=4))
    assert isinstance(protocol, LOCCProtocol)
    solved = solve_tree(protocol.tree, m)
    assert solved is not None
    assert all(v > 0 for v in solved.q.values())
    assert all(v > 0 for v in solved.p.values())


def test_feasibility_rejects_root_that_cannot_reach_identity():
    # Both A parts sit on the same ray, so no combination reaches I_A.
    m = SeparableMeasurement(
        2, 2, ((proj((1, 0)), proj((1, 0))), (proj((1, 0)).scale(2), proj((0, 1))))
    )
    trees = seed_trees(m.n_outcomes)
    complete = merge_and_extend(trees)
    assert solve_tree(complete, m) is None


def test_a_tree_missing_an_outcome_is_no_protocol():
    # A complete tree over outcomes 1 and 2 alone: coefficients 1 meet
    # every equation, yet outcomes 3 and 4 never occur.
    ident = HermitianOp.identity(2)
    p0, p1 = proj((1, 0)), proj((0, 1))
    m = SeparableMeasurement(2, 2, ((p0, ident), (p1, ident), (ident, p0), (ident, p1)))
    tree = merge_and_extend([merge_and_extend(seed_trees(4)[:2])])
    assert synthesis_engine._solve_tree(tree, m) == (None, 0)
    ones = {r: Fraction(1) for r in (LeafRef(1, 1), LeafRef(2, 1))}
    with pytest.raises(ProtocolVerificationError, match="outcome 3 has no leaf"):
        verify_protocol_exact(LOCCProtocol(tree, ones, ones, ones, m))
    out = synthesize(m, SearchConfig(max_rounds=4))
    assert isinstance(out, LOCCProtocol)
    assert {r.j for r in out.weights} == {1, 2, 3, 4}
    verify_protocol_exact(out)


def test_example4_protocol_is_verified_once(monkeypatch):
    # example4 closes through zero-leaf pruning.
    verify = synthesis_engine.verify_protocol_exact
    calls = []

    def counting(protocol):
        calls.append(protocol)
        verify(protocol)

    monkeypatch.setattr(synthesis_engine, "verify_protocol_exact", counting)
    out = synthesize(BUILTIN["example4"](), SearchConfig(max_rounds=8))
    assert isinstance(out, LOCCProtocol)
    assert len(calls) == 1


def test_strict_solution_failing_verification_raises(monkeypatch):
    # A strict-positivity solution satisfies every checked equation by
    # construction, so a failed check is an engine fault, not a verdict.
    def reject(protocol):
        raise ProtocolVerificationError("rejected")

    monkeypatch.setattr(synthesis_engine, "verify_protocol_exact", reject)
    with pytest.raises(ProtocolVerificationError):
        synthesize(BUILTIN["product_basis_2x2"](), SearchConfig(max_rounds=4))


# --- verify_protocol_exact: one perturbed protocol per rejection -------------


@pytest.fixture(scope="module")
def example5_protocol():
    out = synthesize(BUILTIN["example5"](), SearchConfig(max_rounds=8))
    verify_protocol_exact(out)
    return out


def _rescaled(table, ref, factor):
    return {r: v * factor if r == ref else v for r, v in table.items()}


def test_verify_rejects_a_nonpositive_leaf_weight(example5_protocol):
    out = example5_protocol
    bad = replace(out, q=_rescaled(out.q, LeafRef(1, 1), 0))
    with pytest.raises(ProtocolVerificationError, match="nonpositive weight"):
        verify_protocol_exact(bad)


def test_verify_rejects_a_branch_sum_mismatch(example5_protocol):
    # 6.1 sits in the A node 4.1+6.1 and in one of its branches, not the other.
    out = example5_protocol
    bad = replace(out, q=_rescaled(out.q, LeafRef(6, 1), 2))
    with pytest.raises(ProtocolVerificationError, match="branch sum mismatch at a A node"):
        verify_protocol_exact(bad)


def test_verify_rejects_a_violated_ledger_constraint(example5_protocol):
    # A_1 and A_6 differ, so the added equation q[1.1] A_1 = q[6.1] A_6 fails.
    out = example5_protocol
    false = OpConstraint.make("A", {LeafRef(1, 1)}, {LeafRef(6, 1)})
    bad = replace(out, tree=replace(out.tree, ledger=out.tree.ledger + (false,)))
    with pytest.raises(ProtocolVerificationError, match="ledger constraint violated"):
        verify_protocol_exact(bad)


def test_verify_rejects_a_root_that_is_not_the_identity(example5_protocol):
    # Doubling every q keeps each sum rule and ledger equation, and doubles
    # the A root.
    out = example5_protocol
    bad = replace(out, q={r: 2 * v for r, v in out.q.items()})
    with pytest.raises(ProtocolVerificationError, match="A root is not the identity"):
        verify_protocol_exact(bad)


def test_verify_rejects_a_missing_coefficient(example5_protocol):
    out = example5_protocol
    q = {r: v for r, v in out.q.items() if r != LeafRef(1, 1)}
    with pytest.raises(ProtocolVerificationError, match="no A coefficient"):
        verify_protocol_exact(replace(out, q=q))


def test_verify_rejects_a_weight_other_than_q_times_p(example5_protocol):
    out = example5_protocol
    bad = replace(out, weights=_rescaled(out.weights, LeafRef(1, 1), 2))
    with pytest.raises(ProtocolVerificationError, match="weights are not q"):
        verify_protocol_exact(bad)
    weights = {r: v for r, v in out.weights.items() if r != LeafRef(1, 1)}
    with pytest.raises(ProtocolVerificationError, match="weights are not q"):
        verify_protocol_exact(replace(out, weights=weights))


def test_verify_checks_the_leaves_against_the_product_identity(example5_protocol):
    # The leaves are summed on the product table and compared with its
    # identity; the other checks read only the parties' tables.  So in a copy
    # whose product identity is doubled, only the leaf check fails.
    out = example5_protocol
    m = SeparableMeasurement(out.measurement.dA, out.measurement.dB, out.measurement.outcomes)
    verify_protocol_exact(replace(out, measurement=m))
    ab = m.table("AB")
    m._tables["AB"] = replace(ab, identity=tuple(2 * x for x in ab.identity))
    with pytest.raises(ProtocolVerificationError, match="leaf weights do not resolve"):
        verify_protocol_exact(replace(out, measurement=m))


def test_verify_rejects_a_negative_coefficient_only_reference():
    # example4's protocol keeps 1.1 and 2.1 as B coefficients, not leaves.
    out = synthesize(BUILTIN["example4"](), SearchConfig(max_rounds=8))
    assert LeafRef(1, 1) in out.p and LeafRef(1, 1) not in out.q
    bad = replace(out, p=_rescaled(out.p, LeafRef(1, 1), -1))
    with pytest.raises(ProtocolVerificationError, match="negative B coefficient"):
        verify_protocol_exact(bad)


# --- coordinate vectors and integer tables, built once per measurement --------


def _outer(u, v):
    return tuple(x * y for x in u for y in v)


def _assert_table_matches_vectors(m):
    vectors = {
        side: [vectorize(m.op(side, j)) for j in range(1, m.n_outcomes + 1)]
        for side in "AB"
    }
    identity = {side: vectorize(HermitianOp.identity(m.side_dim(side))) for side in "AB"}
    # The product table holds A_j (x) B_j in the tensor-product basis.
    vectors["AB"] = [_outer(a, b) for a, b in zip(vectors["A"], vectors["B"])]
    identity["AB"] = _outer(identity["A"], identity["B"])
    for side in ("A", "B", "AB"):
        table = m.table(side)
        if side == "AB":
            den = m.table("A").denominator * m.table("B").denominator
        else:
            den = math.lcm(*(v.denominator for vec in vectors[side] for v in vec))
        assert table.denominator == den
        for j, vec in enumerate(vectors[side], start=1):
            ints = table.coords[j - 1]
            assert all(type(v) is int for v in ints)
            assert ints == tuple(v * table.denominator for v in vec)
            assert table.rays[j - 1] == ray_key(vec)
        assert all(type(v) is int for v in table.identity)
        assert table.identity == identity[side]


def _assert_product_rays(m):
    # The outcome coincidence check compares the product table's rays:
    # rayA (x) rayB is the ray of vec(A_j) (x) vec(B_j), the outer product
    # of two primitive integer vectors being primitive.
    ta, tb = m.table("A"), m.table("B")
    for j, (a, b) in enumerate(m.outcomes):
        product = _outer(vectorize(a), vectorize(b))
        assert m.table("AB").rays[j] == _outer(ta.rays[j], tb.rays[j]) == ray_key(product)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_measurement_vectors_are_built_once(name, monkeypatch):
    m = BUILTIN[name]()
    _assert_table_matches_vectors(m)
    # After validation, a run, its verification and its Kraus stage build no
    # coordinate vector, ray or outer product and prove nothing PSD again.
    validate_measurement(m)
    calls = []
    modules = [mod for key, mod in sys.modules.items() if key.startswith("loccsynth.")]
    for attr in ("vectorize", "_outer", "ray_key", "is_psd"):
        for mod in modules:
            build = vars(mod).get(attr)
            if build is None:
                continue

            def counting(*args, build=build, attr=attr):
                calls.append(attr)
                return build(*args)

            monkeypatch.setattr(mod, attr, counting)
    out = synthesize(m, SearchConfig(max_rounds=10, exhaustive=True))
    if isinstance(out, LOCCProtocol):
        verify_protocol_exact(out)
        assert verify_instrument(realize(out), m).ok
    assert calls == []


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_side_rays_give_product_rays_on_fixtures(name):
    rng = random.Random(f"product-rays-{name}")
    m = BUILTIN[name]()
    for variant in [m] + [random_rescale(permute_outcomes(m, rng), rng) for _ in range(4)]:
        _assert_table_matches_vectors(variant)
        _assert_product_rays(variant)


def test_side_rays_give_product_rays_on_criterion_6():
    # Criterion 6's seeds (tests/test_acceptance.py).
    for i in range(500):
        m = random_small_measurement(random.Random(20_000 + i))
        _assert_table_matches_vectors(m)
        _assert_product_rays(m)


def _weights_in_the_kron_basis(m):
    """`validate_measurement`'s LP on the entrywise coordinates
    vectorize(kron(A_j, B_j)) with target vectorize(I): its weights, or None."""
    vecs = [vectorize(kron(a, b)) for a, b in m.outcomes]
    target = vectorize(HermitianOp.identity(m.dA * m.dB))
    return cone_geometry.strict_positive_solution(
        tuple(zip(*vecs)), target, m.n_outcomes
    )


def _assert_same_weights_in_both_bases(m):
    # The two bases are related by an invertible linear map of the rows, so
    # the LPs are feasible together; Bland's rule could still end at
    # another vertex on the other rows, and this pins that it does not.
    want = _weights_in_the_kron_basis(m)
    assert want is not None
    assert validate_measurement(m) == want


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_weights_match_the_kron_basis_on_fixtures(name):
    rng = random.Random(f"kron-basis-{name}")
    m = BUILTIN[name]()
    for variant in [m] + [random_rescale(permute_outcomes(m, rng), rng) for _ in range(12)]:
        _assert_same_weights_in_both_bases(variant)


def test_weights_match_the_kron_basis_on_criterion_6():
    # Criterion 6's seeds (tests/test_acceptance.py).
    for i in range(500):
        _assert_same_weights_in_both_bases(random_small_measurement(random.Random(20_000 + i)))


# --- synthesize ------------------------------------------------------------------


def test_single_outcome_closes_at_round_zero():
    out = synthesize(BUILTIN["single_identity"](), SearchConfig(max_rounds=2))
    assert isinstance(out, LOCCProtocol)
    assert out.stats.rounds_completed == 0
    assert out.weights == {next(iter(out.weights)): Fraction(1, 2)}


def test_within_l_exhaustion_verdict():
    out = synthesize(BUILTIN["bennett9"](), SearchConfig(max_rounds=1))
    assert isinstance(out, NoLoccCertificate)
    assert out.verdict == NO_LOCC_WITHIN_L


def test_cap_poisons_the_verdict():
    out = synthesize(BUILTIN["bennett9"](), SearchConfig(max_rounds=10, max_trees=10))
    assert isinstance(out, NoLoccCertificate)
    assert out.verdict == INCONCLUSIVE_CAPPED
    assert out.stats.capped


def test_a_truncated_enumeration_poisons_the_verdict(monkeypatch):
    # No bundled measurement truncates family enumeration at small family
    # caps, so here the enumeration returns its own families, marked as
    # incomplete.  The run is otherwise the same, and the proven fixed
    # point becomes INCONCLUSIVE_CAPPED.
    cfg = SearchConfig(max_rounds=10)
    plain = synthesize(BUILTIN["bennett9"](), cfg)
    assert plain.verdict == NO_LOCC_ANY_ROUNDS and not plain.stats.capped
    enumerate_families = synthesis_engine.mutually_intersecting_families

    def truncated(*args, **kwargs):
        families, _ = enumerate_families(*args, **kwargs)
        return families, False

    monkeypatch.setattr(synthesis_engine, "mutually_intersecting_families", truncated)
    out = synthesize(BUILTIN["bennett9"](), cfg)
    assert isinstance(out, NoLoccCertificate)
    assert out.verdict == INCONCLUSIVE_CAPPED
    assert out.stats.capped
    assert replace(out.stats, capped=False) == plain.stats


def test_example4_solution_has_unit_coefficients():
    # The fixture is normalized so the closing assignment is all ones.
    out = synthesize(BUILTIN["example4"](), SearchConfig(max_rounds=8))
    assert isinstance(out, LOCCProtocol)
    assert set(out.q.values()) == {Fraction(1)}
    assert set(out.p.values()) == {Fraction(1)}


def test_determinism_of_runs():
    m = BUILTIN["example4"]()
    cfg = SearchConfig(max_rounds=6)
    a = synthesize(m, cfg)
    b = synthesize(m, cfg)
    assert isinstance(a, LOCCProtocol) and isinstance(b, LOCCProtocol)
    assert tree_to_text(a.tree) == tree_to_text(b.tree)
    assert a.q == b.q and a.p == b.p
    assert a.stats == b.stats


def test_verdict_invariance_under_permutation_and_scaling():
    rng = random.Random(99)
    for name, expect_protocol in (("bennett9", False), ("conditional_basis_2x2", True)):
        m = BUILTIN[name]()
        base = synthesize(m, SearchConfig(max_rounds=6))
        variants = [
            permute_outcomes(m, rng),
            random_rescale(m, rng),
        ]
        for variant in variants:
            out = synthesize(variant, SearchConfig(max_rounds=6))
            assert isinstance(out, LOCCProtocol) == expect_protocol
            if expect_protocol:
                assert out.stats.rounds_completed == base.stats.rounds_completed
            else:
                assert out.verdict == base.verdict
                assert out.stats.rounds_completed == base.stats.rounds_completed


def test_protocols_verify_exactly():
    for name in ("product_basis_2x2", "conditional_basis_2x2", "example4", "example5"):
        m = BUILTIN[name]()
        out = synthesize(m, SearchConfig(max_rounds=8))
        assert isinstance(out, LOCCProtocol)
        verify_protocol_exact(out)
        roots = (out.tree.root, out.tree.root.children[0])
        sides = {n.side for n in roots}
        assert sides == {"A", "B"}


@pytest.mark.parametrize(
    "fixture, lp_calls, round_lp_calls, memo_hits, round_memo_hits",
    [
        (BUILTIN["bennett9"], 15, [0, 15, 0, 0], 163, [13, 40, 55, 55]),
        (BUILTIN["product_basis_3x3"], 24, [0, 24], 228, [33, 195]),
        (BUILTIN["example4"], 41, [0, 26, 3, 12], 56, [7, 0, 13, 36]),
        (BUILTIN["example5"], 70, [0, 34, 11, 25], 92, [11, 0, 26, 55]),
    ],
    ids=["bennett9", "product_basis_3x3", "example4", "example5"],
)
def test_lp_calls_count_only_non_ray_queries(
    fixture, lp_calls, round_lp_calls, memo_hits, round_memo_hits
):
    # Round one's labels are all rays, so it solves no LP; later rounds
    # solve one only for queries holding a multi-outcome label that the
    # run has not asked before, up to generator scaling and order.
    out = synthesize(fixture(), SearchConfig(max_rounds=10, exhaustive=True))
    assert out.stats.lp_calls == lp_calls
    assert [r.lp_calls for r in out.stats.rounds] == round_lp_calls
    assert out.stats.memo_hits == memo_hits
    assert [r.memo_hits for r in out.stats.rounds] == round_memo_hits


def test_a_nested_search_counts_only_its_own_lps(monkeypatch):
    # example4's search runs inside example5's, from the callback that
    # verifies example5's protocol; each reports its solo counts.
    cfg = SearchConfig(max_rounds=10, exhaustive=True)
    outer_m = BUILTIN["example5"]()
    inner = []
    verify = synthesis_engine.verify_protocol_exact

    def verify_and_search(protocol):
        verify(protocol)
        if protocol.measurement is outer_m:
            inner.append(synthesize(BUILTIN["example4"](), cfg))

    monkeypatch.setattr(synthesis_engine, "verify_protocol_exact", verify_and_search)
    outer = synthesize(outer_m, cfg)
    assert outer.stats.lp_calls == 70
    assert [r.lp_calls for r in outer.stats.rounds] == [0, 34, 11, 25]
    assert len(inner) == 1
    assert inner[0].stats.lp_calls == 41
    assert [r.lp_calls for r in inner[0].stats.rounds] == [0, 26, 3, 12]


def test_searches_in_two_threads_count_only_their_own_lps():
    # A short switch interval interleaves the two threads' rounds.
    cfg = SearchConfig(max_rounds=10, exhaustive=True)
    solo = {"example4": 41, "example5": 70}

    def search(name):
        m = BUILTIN[name]()
        return [synthesize(m, cfg).stats.lp_calls for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = {name: pool.submit(search, name) for name in solo}
            counts = {name: run.result(timeout=120) for name, run in runs.items()}
    finally:
        sys.setswitchinterval(interval)
    assert counts == {name: [count] * 20 for name, count in solo.items()}


def _criterion_6_measurements():
    return [random_small_measurement(random.Random(20_000 + i)) for i in range(500)]


def _lp_counted_runs(runs, monkeypatch):
    """`synthesize(m, cfg)` for each (m, cfg) of `runs`, yielding its outcome,
    the number of `lp_feasible` calls it made through either module's
    binding, and the number of `LPProblem`s it built."""
    counts = Counter()
    feasible = cone_geometry.lp_feasible
    post_init = cone_geometry.LPProblem.__post_init__

    def counting_feasible(problem):
        counts["calls"] += 1
        return feasible(problem)

    def counting_post_init(problem):
        counts["builds"] += 1
        post_init(problem)

    monkeypatch.setattr(cone_geometry, "lp_feasible", counting_feasible)
    monkeypatch.setattr(synthesis_engine, "lp_feasible", counting_feasible)
    monkeypatch.setattr(cone_geometry.LPProblem, "__post_init__", counting_post_init)
    for m, cfg in runs:
        counts.clear()
        out = synthesize(m, cfg)
        yield out, counts["calls"], counts["builds"]


def test_every_lp_is_built_once(monkeypatch):
    # Each LP is one `LPProblem`, built by its caller and handed to
    # `lp_feasible` as it is: the strict LP's encoding and the kernel's
    # entry pass build none of their own.
    runs = [
        (BUILTIN[name](), SearchConfig(max_rounds=10, exhaustive=True)) for name in sorted(BUILTIN)
    ]
    runs += [(m, SearchConfig(max_rounds=4)) for m in _criterion_6_measurements()]
    total = 0
    for _, calls, builds in _lp_counted_runs(runs, monkeypatch):
        assert builds == calls
        total += calls
    assert total > 1000, total


@pytest.mark.parametrize("rounds", [2, 4, 10])
def test_every_counted_lp_goes_through_lp_feasible(rounds, monkeypatch):
    # `lp_calls` counts the LPs the search solved after validation; each
    # reaches the kernel through a module binding of `lp_feasible`, and the
    # one more call is the weight LP.  A tracer that wraps those bindings
    # (perfbench/spans.py) therefore sees every LP the counters count.
    cfg = SearchConfig(max_rounds=rounds, exhaustive=True)
    runs = [(BUILTIN[name](), cfg) for name in sorted(BUILTIN)]
    if rounds == 4:
        runs += [(m, cfg) for m in _criterion_6_measurements()]
    counted = 0
    for out, calls, _ in _lp_counted_runs(runs, monkeypatch):
        assert calls == out.stats.lp_calls + 1
        counted += out.stats.lp_calls
    assert counted >= 100, counted


def _kernel_inputs(runs, monkeypatch):
    """`_kernel_rows` of every LP the runs hand `lp_feasible`, in order."""
    seen = []
    feasible = cone_geometry.lp_feasible

    def spy(problem):
        seen.append(cone_geometry._kernel_rows(problem))
        return feasible(problem)

    with monkeypatch.context() as patch:
        patch.setattr(cone_geometry, "lp_feasible", spy)
        patch.setattr(synthesis_engine, "lp_feasible", spy)
        for m, cfg in runs:
            synthesize(m, cfg)
    return seen


def test_the_kernel_sees_the_row_by_row_encodings(monkeypatch):
    # The builders state each LP as columns; the reference writes its rows
    # one coordinate at a time.  The kernel gets the same rows in the same
    # order from both, which is all Bland's rule reads.
    runs = []
    for name in sorted(BUILTIN):
        rng = random.Random(f"columns-{name}")
        m = BUILTIN[name]()
        cfg = SearchConfig(max_rounds=10, exhaustive=True)
        runs += [(m, cfg), (random_rescale(permute_outcomes(m, rng), rng), cfg)]
    for i in range(500):
        rng = random.Random(20_000 + i)
        m = random_small_measurement(rng)
        for variant in (m, permute_outcomes(m, rng), random_rescale(m, rng)):
            runs.append((variant, SearchConfig(max_rounds=4)))
    built = _kernel_inputs(runs, monkeypatch)
    monkeypatch.setattr(synthesis_engine, "validate_measurement", validate_reference)
    monkeypatch.setattr(synthesis_engine, "_side_system", side_system_reference)
    monkeypatch.setattr(cone_geometry, "_intersection_problem", intersection_problem_reference)
    reference = _kernel_inputs(runs, monkeypatch)
    assert len(built) > 5000, len(built)
    assert built == reference


# Rational rotations of dimension 2 and 3.
ROTATIONS = {
    2: ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))),
    3: tuple(
        tuple(Fraction(v, 3) for v in row) for row in ((1, 2, 2), (2, 1, -2), (2, -2, 1))
    ),
}


def _rotated(op):
    """R op R^T for the rotation R of op's dimension."""
    r, d = ROTATIONS[op.dim], op.dim
    zero = HermitianOp.zero(1).entries[0][0]
    return HermitianOp.from_rows(
        [
            [
                sum(
                    (
                        op.entries[k][l].scaled(r[i][k] * r[j][l])
                        for k in range(d)
                        for l in range(d)
                    ),
                    zero,
                )
                for j in range(d)
            ]
            for i in range(d)
        ]
    )


def _verdict(out):
    return "protocol" if isinstance(out, LOCCProtocol) else out.verdict


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_rotating_and_swapping_the_parties_keeps_the_verdict(name):
    # Conjugating every operator of a side by one rotation is a linear
    # bijection of that side's Hermitian operators that keeps positivity,
    # so every cone query has the same answer on other LP matrices: the
    # verdict and every counter stay.  Swapping the parties keeps the
    # verdict, with or without the rotation.
    m = BUILTIN[name]()
    cfg = SearchConfig(max_rounds=10, exhaustive=True)
    rotated = SeparableMeasurement(
        m.dA, m.dB, tuple((_rotated(a), _rotated(b)) for a, b in m.outcomes)
    )
    # Only single_identity, whose operators are multiples of the identity,
    # is its own rotation.
    assert (rotated.outcomes == m.outcomes) == (name == "single_identity")
    base, turned = synthesize(m, cfg), synthesize(rotated, cfg)
    assert _verdict(turned) == _verdict(base)
    assert repr(turned.stats) == repr(base.stats)
    for variant in (m, rotated):
        swapped = SeparableMeasurement(
            variant.dB, variant.dA, tuple((b, a) for a, b in variant.outcomes)
        )
        assert _verdict(synthesize(swapped, cfg)) == _verdict(base)


class _NoMemo:
    """Stands in for IntersectionMemo: every query solves afresh, and each
    one that is not made only of rays counts one LP, as the memo counts its
    misses."""

    hits = 0

    def __init__(self):
        self.lp_calls = 0

    def __call__(self, cones, strict):
        if not cone_geometry._rays_only(cones):
            self.lp_calls += 1
        return cone_geometry.cones_intersect(cones, strict=strict) is not None


def _memo_free(stats):
    return replace(
        stats,
        lp_calls=0,
        memo_hits=0,
        rounds=tuple(replace(r, lp_calls=0, memo_hits=0) for r in stats.rounds),
    )


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_memo_changes_only_its_counters(name, monkeypatch):
    # The memo answers a query from an earlier one with the same key; the
    # rescaled and permuted copies make labels equal only up to scaling.
    rng = random.Random(f"memo-{name}")
    m = BUILTIN[name]()
    variants = [m] + [random_rescale(permute_outcomes(m, rng), rng) for _ in range(2)]
    cfg = SearchConfig(max_rounds=10, exhaustive=True)
    for variant in variants:
        memo = synthesize(variant, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(synthesis_engine, "IntersectionMemo", _NoMemo)
            bare = synthesize(variant, cfg)
        assert type(memo) is type(bare)
        assert _memo_free(memo.stats) == _memo_free(bare.stats)
        assert bare.stats.memo_hits == 0
        assert memo.stats.lp_calls <= bare.stats.lp_calls
        if isinstance(memo, LOCCProtocol):
            assert tree_to_text(memo.tree) == tree_to_text(bare.tree)
            assert memo.q == bare.q and memo.p == bare.p
        else:
            assert memo.verdict == bare.verdict


def _run(m, rounds):
    cfg = SearchConfig(max_rounds=rounds, exhaustive=True)
    return validate_measurement(m), synthesize(m, cfg)


def _assert_same_run(m, rounds, monkeypatch):
    weights, out = _run(m, rounds)
    with monkeypatch.context() as patch:
        for module in (cone_geometry, synthesis_engine):
            patch.setattr(module, "strict_positive_solution", strict_positive_reference)
        ref_weights, ref = _run(m, rounds)
    assert weights == ref_weights
    assert type(out) is type(ref)
    assert out.stats == ref.stats
    if isinstance(out, LOCCProtocol):
        assert tree_to_text(out.tree) == tree_to_text(ref.tree)
        assert (out.q, out.p, out.weights) == (ref.q, ref.p, ref.weights)
    else:
        assert out.verdict == ref.verdict
    return out


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_strict_lp_matches_the_max_min_slack_reference_on_fixtures(name, monkeypatch):
    # The homogeneous phase-1 strict LP and the max-min-slack LP it replaced
    # find the same weights, verdicts, trees, coefficients and counters on
    # every fixture, rescaled and permuted copies included.
    rng = random.Random(f"strict-{name}")
    m = BUILTIN[name]()
    for variant in [m] + [random_rescale(permute_outcomes(m, rng), rng) for _ in range(2)]:
        _assert_same_run(variant, 10, monkeypatch)


def test_strict_lp_matches_the_max_min_slack_reference_on_criterion_6(monkeypatch):
    # Criterion 6's instances and variants, on a seeded subset of its seeds.
    kinds = Counter()
    for i in random.Random(6).sample(range(500), 60):
        rng = random.Random(20_000 + i)
        m = random_small_measurement(rng)
        for variant in (m, permute_outcomes(m, rng), random_rescale(m, rng)):
            kinds[type(_assert_same_run(variant, 4, monkeypatch))] += 1
    assert kinds[LOCCProtocol] >= 100 and kinds[NoLoccCertificate] >= 20, kinds


def test_each_cone_is_built_once_per_run(monkeypatch):
    # One Cone per side and label (the set of outcome indices a round
    # groups its trees by), reused by every later round.  Equal operator
    # tuples on two sides or under two labels get a Cone each: bennett9
    # has such tuples, and no operator tuple is hashed to find them.  Each
    # comes from `Cone.of_checked` over the measurement's rays, and has the
    # generators, rays and key the checked constructor gives.
    built = []
    of_checked = Cone.of_checked

    def counting(generators, rays):
        built.append(of_checked(generators, rays))
        return built[-1]

    queried = []
    families = synthesis_engine.mutually_intersecting_families

    def recording(items, **kwargs):
        queried.append(list(items))
        return families(items, **kwargs)

    monkeypatch.setattr(Cone, "of_checked", counting)
    monkeypatch.setattr(synthesis_engine, "mutually_intersecting_families", recording)
    m = BUILTIN["bennett9"]()
    out = synthesize(m, SearchConfig(max_rounds=10))
    assert len(queried) == len(out.stats.rounds)
    cone_of = {}
    for stats, items in zip(out.stats.rounds, queried):
        for label, c in items:
            assert cone_of.setdefault((stats.side, label), c) is c
            assert c.generators == tuple(m.op(stats.side, j) for j in sorted(label))
    assert len(built) == len(cone_of)
    assert {id(c) for c in built} == {id(c) for c in cone_of.values()}
    assert len({c.generators for c in built}) < len(built)
    for c in built:
        checked = Cone(c.generators)
        assert c == checked and c.rays == checked.rays and c.key == checked.key


def test_no_cone_witness_is_read_during_synthesis(monkeypatch):
    # The run's memo reads only whether a witness exists; building its
    # common point (the only op_linear_combine call) must never happen.
    config = SearchConfig(max_rounds=10, exhaustive=True)
    runs = {name: make() for name, make in BUILTIN.items()}
    want = {name: synthesize(m, config) for name, m in runs.items()}

    def unreachable(*args, **kwargs):
        raise AssertionError("a cone witness was read")

    monkeypatch.setattr(cone_geometry, "op_linear_combine", unreachable)
    for name, m in runs.items():
        assert synthesize(m, config) == want[name], name


# --- the merge loop ------------------------------------------------------------


def _assert_frontier_invariant(trees):
    # I1-I3 of `_Search.round`: one child per root, pairwise distinct root
    # keys, no congruent siblings.
    keys = [canonical_key(t.root) for t in trees]
    assert all(len(t.root.children) == 1 for t in trees)
    assert len(set(keys)) == len(keys)
    assert not any(has_congruent_siblings(t) for t in trees)


@pytest.fixture
def checked_rounds(monkeypatch):
    """Make every `_Search.round` check the frontier it merged and the
    trees it created; returns the stats of the rounds checked so far."""
    checked = []
    round_ = synthesis_engine._Search.round

    def checking(run):
        out = round_(run)
        _assert_frontier_invariant(run.frontier)
        _assert_frontier_invariant(run.created)
        checked.append(run.rounds[-1])
        return out

    monkeypatch.setattr(synthesis_engine._Search, "round", checking)
    return checked


def _subsumption_instance():
    # A one-way 3x3 measurement: an orthonormal A basis a1, a2, a3, and on B
    # P = diag(1, 1, 0), e3 = diag(0, 0, 1) and a rotated basis b, b_perp
    # of P's range.
    a1, a2, a3 = proj((4, 0, -3)), proj((12, -15, 16)), proj((9, 20, 12))
    p, e3 = HermitianOp.diag(1, 1, 0), HermitianOp.diag(0, 0, 1)
    b, b_perp = proj((119, -120, 0)), proj((120, 119, 0))
    outcomes = ((a1, p), (a2, p), (a1, e3), (a2, e3), (a3, b), (a3, b_perp), (a3, e3))
    return SeparableMeasurement(3, 3, outcomes)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_frontier_invariant_on_fixtures(name, checked_rounds):
    rng = random.Random(f"invariant-{name}")
    m = BUILTIN[name]()
    cfg = SearchConfig(max_rounds=10, exhaustive=True)
    for variant in [m] + [random_rescale(permute_outcomes(m, rng), rng) for _ in range(2)]:
        synthesize(variant, cfg)
    assert checked_rounds or name == "single_identity"


def test_frontier_invariant_on_subsumption_and_criterion_6(checked_rounds):
    synthesize(_subsumption_instance(), SearchConfig(max_rounds=10))
    assert len(checked_rounds) == 3
    # Criterion 6's seeds (tests/test_acceptance.py).
    cfg = SearchConfig(max_rounds=6)
    for i in range(500):
        synthesize(random_small_measurement(random.Random(20_000 + i)), cfg)
    assert len(checked_rounds) > 500


def test_seen_family_subsumption_drops_merges():
    # Round 3 holds merges whose label sets lie inside a family that round 1
    # saw on the same side; dropping them leaves 18 new trees, not 22.
    m = _subsumption_instance()
    out = synthesize(m, SearchConfig(max_rounds=3))
    assert isinstance(out, LOCCProtocol)
    assert out.stats.trees_total == 37
    assert [r.trees_created for r in out.stats.rounds] == [5, 7, 18]
    assert out.stats.lp_calls == 52
    out = synthesize(m, SearchConfig(max_rounds=2))
    assert isinstance(out, NoLoccCertificate)
    assert out.verdict == NO_LOCC_WITHIN_L
    assert out.stats.trees_total == 19


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_rounds=0)
    for field in ("max_rounds", "family_size_cap", "max_trees"):
        for value in (2.5, 1.5, 3.0, True, "4"):
            kwargs = {"max_rounds": 1, field: value}
            with pytest.raises(ValueError, match=field):
                SearchConfig(**kwargs)
    for value in (1, 0, None, "yes"):
        with pytest.raises(ValueError, match="exhaustive"):
            SearchConfig(max_rounds=1, exhaustive=value)
