"""Exact scalar/operator algebra: fixed examples and randomized properties."""

import random
from fractions import Fraction

import numpy as np
import pytest
from helpers import kron
from oracle_psd import char_poly, is_psd_by_char_poly

from loccsynth.exact_algebra import (
    ExactComplex,
    HermitianOp,
    is_psd,
    op_linear_combine,
    rank_one,
    vectorize,
)
from loccsynth.fixtures import BUILTIN


def rand_frac(rng, bits=8):
    return Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.randint(1, 50))


def rand_hermitian(rng, d, bits=8):
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = ExactComplex(rand_frac(rng, bits), Fraction(0))
        for j in range(i + 1, d):
            e = ExactComplex(rand_frac(rng, bits), rand_frac(rng, bits))
            rows[i][j] = e
            rows[j][i] = e.conj()
    return HermitianOp(d, tuple(tuple(r) for r in rows))


def to_numpy(op):
    return np.array(
        [[complex(e.re, e.im) for e in row] for row in op.entries], dtype=complex
    )


# --- ExactComplex -----------------------------------------------------------


def test_complex_field_ops_and_involution():
    rng = random.Random(7)
    for _ in range(200):
        a = ExactComplex(rand_frac(rng), rand_frac(rng))
        b = ExactComplex(rand_frac(rng), rand_frac(rng))
        assert (a + b) - b == a
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        if not b.is_zero():
            assert (a / b) * b == a


def test_exact_arithmetic_256_bit():
    rng = random.Random(11)
    for _ in range(50):
        a = Fraction(rng.getrandbits(256), rng.getrandbits(128) + 1)
        b = Fraction(rng.getrandbits(256), rng.getrandbits(128) + 1)
        assert (a + b) - b == a


# --- HermitianOp / vectorize ------------------------------------------------


def test_hermitian_constructor_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOp.from_rows([[0, 1], [1, (0, 1)]])
    with pytest.raises(ValueError):
        HermitianOp.from_rows([[(0, 1), 0], [0, 0]])


def test_vectorize_identity_d2():
    assert vectorize(HermitianOp.identity(2)) == (1, 1, 0, 0)


def test_vectorize_zero_d3():
    assert vectorize(HermitianOp.zero(3)) == tuple([Fraction(0)] * 9)


def test_vectorize_plus_projector():
    # (|0>+|1>)(<0|+<1|)/2 has every entry 1/2.
    plus = rank_one([1, 1], Fraction(1, 2))
    assert vectorize(plus) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(0),
    )


def test_vectorize_is_linear_and_injective():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.choice([2, 3])
        x = rand_hermitian(rng, d)
        y = rand_hermitian(rng, d)
        alpha = rand_frac(rng)
        lhs = vectorize(x.add(y.scale(alpha)))
        rhs = tuple(a + alpha * b for a, b in zip(vectorize(x), vectorize(y)))
        assert lhs == rhs
        if vectorize(x) == vectorize(y):
            assert x == y


# --- is_psd -----------------------------------------------------------------


def test_is_psd_identity():
    assert is_psd(HermitianOp.identity(3))


def test_is_psd_negative_diagonal():
    assert not is_psd(HermitianOp.diag(1, Fraction(-1, 4)))


def test_is_psd_rank_one_projector():
    plus = rank_one([1, 1], Fraction(1, 2))
    # char poly x^2 - x: eigenvalues {1, 0}.
    assert char_poly(plus) == (Fraction(1), Fraction(-1), Fraction(0))
    assert is_psd(plus)


def test_is_psd_matches_float_eigenvalues():
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        d = rng.choice([2, 3])
        base = rand_hermitian(rng, d, bits=6)
        shift = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        op = base.add(HermitianOp.identity(d).scale(shift))
        eigs = np.linalg.eigvalsh(to_numpy(op))
        if min(abs(e) for e in eigs) < 1e-6:
            continue
        assert is_psd(op) == bool(eigs.min() > -1e-9)
        checked += 1


# --- op_linear_combine ------------------------------------------------------


def test_combine_basis_projectors_gives_identity():
    zero = rank_one([1, 0])
    one = rank_one([0, 1])
    assert op_linear_combine([(1, zero), (1, one)]) == HermitianOp.identity(2)


def test_combine_empty_needs_dim():
    assert op_linear_combine([], dim=3) == HermitianOp.zero(3)
    with pytest.raises(ValueError):
        op_linear_combine([])


def test_combine_rejects_negative_coefficient():
    with pytest.raises(ValueError):
        op_linear_combine([(-1, HermitianOp.identity(2))])


def test_combine_cross_diagonal_pair():
    # [1+2] + [1-2] on a qutrit equals [1] + [2].
    a6 = rank_one([0, 1, 1], Fraction(1, 2))
    a7 = rank_one([0, 1, -1], Fraction(1, 2))
    expected = rank_one([0, 1, 0]).add(rank_one([0, 0, 1]))
    assert op_linear_combine([(1, a6), (1, a7)]) == expected


def test_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        op_linear_combine([(1, HermitianOp.identity(2)), (1, HermitianOp.identity(3))])


def test_kron_dimensions_and_values():
    x = HermitianOp.diag(1, 2)
    y = HermitianOp.diag(3, 5)
    assert kron(x, y) == HermitianOp.diag(3, 5, 6, 10)


# --- is_psd against the characteristic-polynomial oracle --------------------


def _small_entry(rng, complex_entries):
    def part():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    return ExactComplex(part(), part() if complex_entries else Fraction(0))


def _congruent(rng, inner, complex_entries):
    """L inner Lᴴ for a random unit lower-triangular L.

    Elimination without pivoting on the result meets the pivots of inner
    in order: once the leading k x k block of inner is diagonal and
    positive, the trailing block left after k steps is L22 T L22ᴴ for the
    trailing part T of inner, so its first pivot is T[0][0] and its first
    row is zero exactly when T's is.
    """
    d = len(inner)
    lower = [
        [_small_entry(rng, complex_entries) if j < i else ExactComplex.of(int(i == j))
         for j in range(d)]
        for i in range(d)
    ]
    zero = ExactComplex.of(0)

    def product(x, y):
        return [
            [sum((x[i][m] * y[m][j] for m in range(d)), zero) for j in range(d)]
            for i in range(d)
        ]

    lower_h = [[lower[j][i].conj() for j in range(d)] for i in range(d)]
    rows = product(product(lower, inner), lower_h)
    return HermitianOp(d, tuple(tuple(r) for r in rows))


def _inner(rng, d, diag, complex_entries, k=None, zero_row=True):
    """diag(diag) with, from index k on, a Hermitian block whose first
    pivot is zero and whose first row is zero or not."""
    inner = [[ExactComplex.of(diag[i] if i == j else 0) for j in range(d)] for i in range(d)]
    if k is not None:
        inner[k][k] = ExactComplex.of(0)
        for i in range(k, d):
            for j in range(i, d):
                if i == j == k or (i == k and zero_row):
                    continue
                e = _small_entry(rng, complex_entries)
                if i == j:
                    e = ExactComplex.of(e.re)
                inner[i][j], inner[j][i] = e, e.conj()
        if not zero_row:
            inner[k][d - 1] = ExactComplex.of(rng.choice([-1, 1]), rng.randint(0, 2))
            inner[d - 1][k] = inner[k][d - 1].conj()
    return inner


def _random_operator(rng, category, d):
    cx = {"real": False, "gaussian": True}.get(category, rng.random() < 0.5)
    if category in ("real", "gaussian"):
        if rng.random() < 0.5:
            # Diagonal of mixed signs, so about half of these are PSD.
            diag = [Fraction(rng.choice([0, 1, 2, 3, -1]), rng.randint(1, 4)) for _ in range(d)]
            return _congruent(rng, _inner(rng, d, diag, cx), cx)
        rows = [[None] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = ExactComplex.of(rng.randint(0, 9))
            for j in range(i + 1, d):
                e = _small_entry(rng, cx)
                rows[i][j], rows[j][i] = e, e.conj()
        return HermitianOp(d, tuple(tuple(r) for r in rows))
    if category == "rank_deficient":
        rank = rng.randint(1, d - 1)
        terms = [
            (Fraction(rng.randint(1, 5), rng.randint(1, 5)),
             rank_one([_small_entry(rng, cx) for _ in range(d)]))
            for _ in range(rank)
        ]
        return op_linear_combine(terms, dim=d)
    if category == "indefinite":
        diag = [Fraction(rng.choice([0, 1, 2, -1, -2]), rng.randint(1, 4)) for _ in range(d)]
        diag[rng.randrange(d)] = Fraction(-rng.randint(1, 4), rng.randint(1, 4))
        return _congruent(rng, _inner(rng, d, diag, cx), cx)
    # Zero pivot: first (k = 0) or after k positive pivots, with its
    # remaining row zero or not.
    where, row = category.split("_")[2:4]
    last = d - 1 if row == "zero" else d - 2
    k = 0 if where == "first" else rng.randint(1, last)
    diag = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(d)]
    return _congruent(rng, _inner(rng, d, diag, cx, k=k, zero_row=row == "zero"), cx)


ZERO_PIVOTS = [f"zero_pivot_{w}_{r}_row" for w in ("first", "mid") for r in ("zero", "nonzero")]
PSD_CATEGORIES = ["real", "gaussian", "rank_deficient", *ZERO_PIVOTS, "indefinite"]
# A rank-deficient operator needs d >= 2 to be nonzero, a nonzero row needs
# an entry beside the pivot, and a mid pivot needs one before it.
MIN_DIM = {
    "rank_deficient": 2,
    "zero_pivot_first_nonzero_row": 2,
    "zero_pivot_mid_zero_row": 2,
    "zero_pivot_mid_nonzero_row": 3,
}


def test_is_psd_matches_char_poly_oracle():
    rng = random.Random(20260)
    counts = {c: 0 for c in PSD_CATEGORIES}
    verdicts = {c: set() for c in PSD_CATEGORIES}
    dims = {c: set() for c in PSD_CATEGORIES}
    for n in range(1600):
        category = PSD_CATEGORIES[n % len(PSD_CATEGORIES)]
        # The oracle takes about 0.1 s at d = 9, so large d is drawn rarely.
        d = rng.choices([1, 2, 3, 4, 6, 9], weights=[4, 16, 16, 8, 2, 1])[0]
        d = max(d, MIN_DIM.get(category, 1))
        op = _random_operator(rng, category, d)
        want = is_psd_by_char_poly(op)
        assert is_psd(op) == want, (category, op)
        counts[category] += 1
        verdicts[category].add(want)
        dims[category].add(d)
    assert counts == {c: 200 for c in PSD_CATEGORIES}
    for category in PSD_CATEGORIES:
        assert dims[category] >= {4, 6, 9}, category
    assert verdicts["real"] == verdicts["gaussian"] == {True, False}
    assert verdicts["rank_deficient"] == {True}
    assert verdicts["indefinite"] == {False}
    for category in ZERO_PIVOTS:
        # A zero pivot beside a nonzero entry is never PSD.
        assert verdicts[category] == ({False} if "nonzero" in category else {True, False})


def test_is_psd_accepts_every_fixture_operator():
    for name, make in BUILTIN.items():
        for a, b in make().outcomes:
            for op in (a, b):
                assert is_psd(op) and is_psd_by_char_poly(op), name
