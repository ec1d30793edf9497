"""Floating-point Kraus extraction and instrument verification."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from loccsynth.fixtures import (
    conditional_basis_2x2,
    example4,
    example5,
    product_basis,
    single_identity,
)
from loccsynth.kraus_realization import (
    psd_sqrt,
    realize,
    support_inverse,
    to_float,
    verify_instrument,
)
from loccsynth.synthesis_engine import LOCCProtocol, SearchConfig, synthesize


def rand_psd(rng, d):
    m = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)]
    )
    return m.conj().T @ m


# --- psd_sqrt ----------------------------------------------------------------


def test_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))


def test_sqrt_diagonal():
    got = psd_sqrt(np.diag([4.0, 0.0]).astype(complex))
    assert np.allclose(got, np.diag([2.0, 0.0]))


def test_sqrt_projector_is_fixed_point():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(psd_sqrt(plus), plus)


def test_sqrt_squares_back():
    rng = random.Random(3)
    for _ in range(50):
        d = rng.choice([2, 3, 4])
        x = rand_psd(rng, d)
        s = psd_sqrt(x)
        assert np.max(np.abs(s @ s - x)) < 1e-10 * max(1.0, np.abs(x).max())


def test_sqrt_rejects_clearly_negative():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))


# --- support_inverse ---------------------------------------------------------


def test_support_inverse_diagonal():
    got = support_inverse(np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(got, np.diag([0.5, 0.0]))


def test_support_inverse_identity():
    assert np.allclose(support_inverse(np.eye(2, dtype=complex)), np.eye(2))


def test_support_inverse_projector():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.allclose(support_inverse(plus), plus)


def test_support_inverse_pseudoinverse_identity():
    rng = random.Random(8)
    for _ in range(50):
        d = rng.choice([2, 3])
        rank = rng.randint(1, d)
        b = np.array(
            [
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
                for _ in range(rank)
            ]
        )
        x = b.conj().T @ b
        xi = support_inverse(x)
        assert np.max(np.abs(xi @ x @ xi - xi)) < 1e-9 * max(1.0, np.abs(xi).max() ** 2)


# --- realize -----------------------------------------------------------------


def _protocol(m):
    out = synthesize(m, SearchConfig(max_rounds=8))
    assert isinstance(out, LOCCProtocol)
    return out


def test_realize_product_basis_rounds_are_projective():
    m = product_basis(2, 2)
    kp = realize(_protocol(m))
    first = kp.root.children[0].children
    # First measurement: complete projective measurement on one side.
    locals_ = sorted(
        (np.round(c.local.real, 10).tolist() for c in first), key=str
    )
    assert locals_ == [
        [[0.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ]
    for c in first:
        for leaf in c.children:
            assert leaf.local is not None
            # Each continuation is again a basis projector.
            vals = np.linalg.eigvalsh(leaf.local)
            assert np.allclose(sorted(vals), [0.0, 1.0], atol=1e-12)


def test_realize_single_outcome_is_trivial():
    for m in (single_identity(), single_identity(3, 2)):
        kp = realize(_protocol(m))
        assert kp.root.children[0].leaf is not None
        report = verify_instrument(kp, m)
        assert report.ok
        assert (
            report.closure_residual,
            report.leaf_residual,
            report.completeness_residual,
            report.completion_residual,
        ) == (0.0, 0.0, 0.0, 0.0)


def test_instruments_verify_for_all_protocol_fixtures():
    for m in (
        product_basis(2, 2),
        product_basis(3, 3),
        conditional_basis_2x2(),
        example4(),
        example5(),
    ):
        protocol = _protocol(m)
        kp = realize(protocol)
        report = verify_instrument(kp, m, tol=1e-9)
        assert report.ok, report
        assert report.completion_residual < 1e-10


def test_leaf_paths_match_exact_operators():
    m = example5()
    protocol = _protocol(m)
    kp = realize(protocol)
    report = verify_instrument(kp, m, tol=1e-9)
    assert report.leaf_residual < 1e-9


def test_verifier_flags_wrong_weights():
    m = product_basis(2, 2)
    protocol = _protocol(m)
    wrong = dataclasses.replace(
        protocol,
        weights={r: v * 2 for r, v in protocol.weights.items()},
    )
    report = verify_instrument(realize(wrong), m, tol=1e-9)
    assert not report.ok
    assert report.leaf_residual > 1e-3
