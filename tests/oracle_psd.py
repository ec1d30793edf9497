"""Reference PSD test: signs of the characteristic polynomial.

`exact_algebra.is_psd` certified positive semidefiniteness this way before
it moved to LDLᴴ elimination; the Faddeev-LeVerrier recurrence is kept here
as an oracle.  A Hermitian matrix has only real eigenvalues, and they are
all >= 0 exactly when the coefficients satisfy (-1)^k c_{d-k} >= 0 for
every k (they are signed elementary symmetric functions of the
eigenvalues).  Tests also read it as an exact rank check.
"""

from __future__ import annotations

from fractions import Fraction

from loccsynth.exact_algebra import ExactComplex, HermitianOp

C_ZERO = ExactComplex(Fraction(0), Fraction(0))
C_ONE = ExactComplex(Fraction(1), Fraction(0))


def _matmul(
    a: tuple[tuple[ExactComplex, ...], ...], b: tuple[tuple[ExactComplex, ...], ...]
) -> tuple[tuple[ExactComplex, ...], ...]:
    d = len(a)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = C_ZERO
            for k in range(d):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def char_poly(op: HermitianOp) -> tuple[Fraction, ...]:
    """Characteristic polynomial coefficients, leading term first.

    Returns (1, c_{d-1}, ..., c_0) for p(x) = x^d + c_{d-1} x^{d-1} + ... + c_0,
    computed with the Faddeev-LeVerrier recurrence over exact rationals.
    """
    d = op.dim
    ident = tuple(
        tuple(C_ONE if i == j else C_ZERO for j in range(d)) for i in range(d)
    )
    coeffs: list[Fraction] = [Fraction(1)]
    m = ident
    for k in range(1, d + 1):
        am = _matmul(op.entries, m)
        tr = sum((am[i][i].re for i in range(d)), Fraction(0))
        # Hermitian input keeps every trace in the recurrence real.
        ck = -tr / k
        coeffs.append(ck)
        m = tuple(
            tuple(am[i][j] + (ident[i][j].scaled(ck)) for j in range(d))
            for i in range(d)
        )
    return tuple(coeffs)


def is_psd_by_char_poly(op: HermitianOp) -> bool:
    """(-1)^k c_{d-k} >= 0 for every k."""
    coeffs = char_poly(op)
    return all(coeffs[k] * (-1) ** k >= 0 for k in range(1, len(coeffs)))
