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
from oracle_lp import strict_positive_reference

from loccsynth import cone_geometry, synthesis_engine
from loccsynth.cone_geometry import Cone, ray_key
from loccsynth.exact_algebra import HermitianOp, vectorize
from loccsynth.fixtures import BUILTIN
from loccsynth.kraus_realization import realize, verify_instrument
from loccsynth.protocol_tree import (
    LeafRef,
    OpConstraint,
    merge_and_extend,
    seed_trees,
    tree_to_text,
)
from loccsynth.synthesis_engine import (
    INCONCLUSIVE_CAPPED,
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


def test_verify_rejects_a_negative_coefficient_only_reference():
    # example4's protocol keeps 1.1 and 2.1 as B coefficients, not leaves.
    out = synthesize(BUILTIN["example4"](), SearchConfig(max_rounds=8))
    assert LeafRef(1, 1) in out.p and LeafRef(1, 1) not in out.q
    bad = replace(out, p=_rescaled(out.p, LeafRef(1, 1), -1))
    with pytest.raises(ProtocolVerificationError, match="negative B coefficient"):
        verify_protocol_exact(bad)


# --- coordinate vectors and integer tables, built once per measurement --------


def _assert_table_matches_vectors(m):
    for side in "AB":
        table = m.table(side)
        vectors = [vectorize(m.op(side, j)) for j in range(1, m.n_outcomes + 1)]
        assert table.denominator == math.lcm(*(v.denominator for vec in vectors for v in vec))
        for j, vec in enumerate(vectors, start=1):
            ints = table.coords[j - 1]
            assert all(type(v) is int for v in ints)
            assert ints == tuple(v * table.denominator for v in vec)
            assert table.rays[j - 1] == ray_key(vec)


def _outer(u, v):
    return tuple(x * y for x in u for y in v)


def _assert_product_rays(m):
    # The outcome coincidence check compares rayA (x) rayB: the ray of the
    # product vector vec(A_j) (x) vec(B_j), the outer product of two
    # primitive integer vectors being primitive.
    ta, tb = m.table("A"), m.table("B")
    for j, (a, b) in enumerate(m.outcomes):
        product = _outer(vectorize(a), vectorize(b))
        assert _outer(ta.rays[j], tb.rays[j]) == ray_key(product)


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
