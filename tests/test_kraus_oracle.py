"""The stacked Kraus stage against the per-node reference in oracle_kraus.

Both realize the same protocols.  Node values are the same floats bit for
bit; local operators and completions agree to rounding; the support ranks
every rank decision reads agree exactly; and both instruments verify with
every residual below 1e-12.
"""

import random

import numpy as np
import pytest

from helpers import permute_outcomes, random_rescale, random_small_measurement
from oracle_kraus import realize_reference, support_projector, verify_instrument_reference

from loccsynth.fixtures import BUILTIN
from loccsynth.kraus_realization import psd_sqrt, realize, verify_instrument
from loccsynth.synthesis_engine import LOCCProtocol, SearchConfig, synthesize

CLOSE = 1e-12
RANK_TOL = 1e-10


def _rank(op) -> int:
    return int(round(np.trace(support_projector(op, RANK_TOL)).real))


def _projector_rank(op) -> int:
    # A completion is I - P for a support projector P, or 0: a projector.
    return int(round(np.trace(op).real))


def _nodes(node):
    yield node
    for c in node.children:
        yield from _nodes(c)


def _residuals(report):
    return (
        report.closure_residual,
        report.leaf_residual,
        report.completeness_residual,
        report.completion_residual,
    )


def _assert_same_stage(protocol):
    got, want = realize(protocol), realize_reference(protocol)
    pairs = list(zip(_nodes(got.root), _nodes(want.root)))
    assert len(pairs) == len(list(_nodes(want.root)))
    for g, w in pairs:
        assert (g.side, g.leaf, len(g.children)) == (w.side, w.leaf, len(w.children))
        assert g.value.tobytes() == w.value.tobytes()
        assert _rank(g.value) == _rank(w.value)
        for name, rank in (("local", _rank), ("completion", _projector_rank)):
            a, b = getattr(g, name), getattr(w, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert np.max(np.abs(a - b)) <= CLOSE, name
                assert rank(a) == rank(b), name
    m = protocol.measurement
    for report in (verify_instrument(got, m), verify_instrument_reference(want, m)):
        assert report.ok
        assert max(_residuals(report)) < CLOSE, report
    return len(pairs)


FIXTURES = [
    "conditional_basis_2x2",
    "example4",
    "example5",
    "product_basis_2x2",
    "product_basis_3x3",
    "single_identity",
]


def test_every_protocol_fixture_gets_the_reference_stage():
    # The other two bundled fixtures have no protocol.
    assert sorted(BUILTIN) == sorted(FIXTURES + ["bennett9", "five_rank_one"])
    for name in FIXTURES:
        out = synthesize(BUILTIN[name](), SearchConfig(max_rounds=10, exhaustive=True))
        assert isinstance(out, LOCCProtocol), name
        _assert_same_stage(out)


def test_criterion_6_protocols_get_the_reference_stage():
    protocols = nodes = 0
    for i in range(80):
        rng = random.Random(20_000 + i)
        m = random_small_measurement(rng)
        for variant in (m, permute_outcomes(m, rng), random_rescale(m, rng)):
            out = synthesize(variant, SearchConfig(max_rounds=4))
            if isinstance(out, LOCCProtocol):
                protocols += 1
                nodes += _assert_same_stage(out)
    assert protocols >= 120 and nodes >= 600, (protocols, nodes)


# --- stacked checks ----------------------------------------------------------


def _good_stack(rng, d, n):
    out = []
    for _ in range(n):
        b = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)])
        out.append(b.conj().T @ b)
    return out


def test_stacked_sqrt_rejects_one_non_hermitian_matrix():
    rng = random.Random(41)
    for at in range(4):
        stack = _good_stack(rng, 3, 4)
        stack[at] = stack[at].copy()
        stack[at][0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            psd_sqrt(np.stack(stack))
        with pytest.raises(ValueError, match="Hermitian"):
            support_projector(np.stack(stack))


def test_stacked_sqrt_rejects_one_negative_eigenvalue():
    rng = random.Random(42)
    for at in range(4):
        stack = _good_stack(rng, 2, 4)
        stack[at] = np.diag([1.0, -1e-6]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            psd_sqrt(np.stack(stack))


def test_stacked_sqrt_applies_each_matrix_its_own_scale():
    big = 1e6
    # Skew 1e-9 is noise next to a 1e6 matrix, not next to a unit one.
    skewed = np.eye(2, dtype=complex)
    skewed[0, 1] = 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        psd_sqrt(np.stack([np.eye(2, dtype=complex) * big, skewed]))
    big_skewed = np.eye(2, dtype=complex) * big
    big_skewed[0, 1] = 1e-9
    assert psd_sqrt(np.stack([big_skewed, np.eye(2, dtype=complex)])).shape == (2, 2, 2)
    # Eigenvalue -1e-6 is within -neg_tol * 1e6, not within -neg_tol * 1.
    with pytest.raises(ValueError, match="eigenvalue"):
        psd_sqrt(np.stack([np.diag([big, 0.0]), np.diag([1.0, -1e-6])]).astype(complex))
    assert np.all(np.isfinite(psd_sqrt(np.diag([big, -1e-6]).astype(complex))))
    # 1e-5 is floored to zero beside 1e6 only.
    roots = psd_sqrt(np.stack([np.diag([big, 1e-5]), np.diag([1.0, 1e-5])]).astype(complex))
    assert roots[0, 1, 1] == 0.0
    assert roots[1, 1, 1] == pytest.approx(np.sqrt(1e-5))
    # Each matrix's root equals its root taken alone.
    rng = random.Random(43)
    stack = [m * s for m, s in zip(_good_stack(rng, 3, 3), (1e-6, 1.0, 1e6))]
    for alone, stacked in zip(stack, psd_sqrt(np.stack(stack))):
        assert np.max(np.abs(psd_sqrt(alone) - stacked)) <= 1e-12 * max(1.0, np.abs(alone).max())
