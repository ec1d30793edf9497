"""Exact rational and Gaussian-rational operator algebra.

Everything that feeds a search decision stays exact: scalars are
arbitrary-precision rationals, matrix entries are Gaussian rationals, and
positive-semidefiniteness is certified by exact LDLᴴ elimination rather
than floating-point eigenvalues.  Floats enter the project only at the
Kraus-realization boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

# A vectorized Hermitian operator: length d**2 tuple of exact reals.
RealVector = tuple[Fraction, ...]


def _frac(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class ExactComplex:
    """Gaussian rational: re + im*i with exact rational parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "ExactComplex":
        return ExactComplex(_frac(re), _frac(im))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __truediv__(self, other: "ExactComplex") -> "ExactComplex":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def scaled(self, c: Fraction) -> "ExactComplex":
        return ExactComplex(self.re * c, self.im * c)

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


EntryLike = Union[ExactComplex, RationalLike, tuple]


def _entry(value: EntryLike) -> ExactComplex:
    if isinstance(value, ExactComplex):
        return value
    if isinstance(value, tuple):
        re, im = value
        return ExactComplex(_frac(re), _frac(im))
    return ExactComplex(_frac(value), Fraction(0))


@dataclass(frozen=True, slots=True)
class HermitianOp:
    """A d x d Hermitian matrix with Gaussian-rational entries."""

    dim: int
    entries: tuple[tuple[ExactComplex, ...], ...]

    def __post_init__(self) -> None:
        if self.dim <= 0 or len(self.entries) != self.dim:
            raise ValueError("entry grid does not match dim")
        for i, row in enumerate(self.entries):
            if len(row) != self.dim:
                raise ValueError("entry grid is not square")
            for j in range(i, self.dim):
                if self.entries[i][j] != self.entries[j][i].conj():
                    raise ValueError(
                        f"not Hermitian at ({i},{j}): "
                        f"{self.entries[i][j]} vs conj of {self.entries[j][i]}"
                    )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[EntryLike]]) -> "HermitianOp":
        grid = tuple(tuple(_entry(v) for v in row) for row in rows)
        return HermitianOp(len(grid), grid)

    @staticmethod
    def identity(dim: int) -> "HermitianOp":
        return HermitianOp.from_rows(
            [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        )

    @staticmethod
    def zero(dim: int) -> "HermitianOp":
        return HermitianOp.from_rows([[0] * dim for _ in range(dim)])

    @staticmethod
    def diag(*values: RationalLike) -> "HermitianOp":
        d = len(values)
        return HermitianOp.from_rows(
            [[values[i] if i == j else 0 for j in range(d)] for i in range(d)]
        )

    def add(self, other: "HermitianOp") -> "HermitianOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return HermitianOp(
            self.dim,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def sub(self, other: "HermitianOp") -> "HermitianOp":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, c: RationalLike) -> "HermitianOp":
        f = _frac(c)
        return HermitianOp(
            self.dim, tuple(tuple(v.scaled(f) for v in row) for row in self.entries)
        )

    def trace(self) -> Fraction:
        return sum((self.entries[i][i].re for i in range(self.dim)), Fraction(0))

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.entries for v in row)


def rank_one(amplitudes: Sequence[EntryLike], scale: RationalLike = 1) -> HermitianOp:
    """scale * |v><v| for an exact amplitude vector v."""
    v = [_entry(a) for a in amplitudes]
    f = _frac(scale)
    rows = [[(v[i] * v[j].conj()).scaled(f) for j in range(len(v))] for i in range(len(v))]
    return HermitianOp(len(v), tuple(tuple(r) for r in rows))


def vectorize(op: HermitianOp) -> RealVector:
    """Map a Hermitian operator to its real coordinate vector.

    Fixed basis order: the d diagonal entries (real), then for each pair
    i < j in row-major order the pair (Re entries[i][j], Im entries[i][j]).
    The map is linear and injective, so exact coordinate equality is exact
    operator equality.
    """
    coords: list[Fraction] = []
    for i in range(op.dim):
        coords.append(op.entries[i][i].re)
    for i in range(op.dim):
        for j in range(i + 1, op.dim):
            coords.append(op.entries[i][j].re)
            coords.append(op.entries[i][j].im)
    return tuple(coords)


def is_psd(op: HermitianOp) -> bool:
    """Exact positive-semidefiniteness test by LDLᴴ elimination.

    Symmetric Gaussian elimination over the exact entries, with no
    pivoting and no square roots.  With p = A[k][k] > 0, one step writes
    A = L (p ⊕ S) Lᴴ for a unit lower-triangular L and the Schur
    complement S = A' - A'[:, k] A'[k, :] / p of the trailing block A', so
    A is PSD exactly when S is.  A negative pivot is a negative diagonal
    entry of such a block, and a zero pivot beside a nonzero entry b gives
    the 2 x 2 principal minor -|b|^2 < 0: either proves A is not PSD.  A
    zero pivot with a zero row drops out.
    """
    d = op.dim
    # Only the upper triangle (j >= i) is read and updated; the trailing
    # block stays Hermitian, so its lower triangle is implied.
    re = [[e.re for e in row] for row in op.entries]
    im = [[e.im for e in row] for row in op.entries]
    for k in range(d):
        p = re[k][k]
        if p < 0:
            return False
        ur, ui = re[k], im[k]
        if p == 0:
            if any(ur[j] or ui[j] for j in range(k + 1, d)):
                return False
            continue
        for i in range(k + 1, d):
            if not (ur[i] or ui[i]):
                continue
            # x = conj(A[k][i]) / p; row i loses x * A[k][j] for j >= i.
            xr, xi = ur[i] / p, -ui[i] / p
            ri, ii = re[i], im[i]
            for j in range(i, d):
                ri[j] -= xr * ur[j] - xi * ui[j]
                ii[j] -= xr * ui[j] + xi * ur[j]
    return True


def op_linear_combine(
    terms: Iterable[tuple[RationalLike, HermitianOp]], dim: int | None = None
) -> HermitianOp:
    """Exact nonnegative combination sum(coeff * op); empty sum needs dim."""
    acc: HermitianOp | None = None
    for coeff, op in terms:
        c = _frac(coeff)
        if c < 0:
            raise ValueError("combination coefficients must be nonnegative")
        piece = op.scale(c)
        acc = piece if acc is None else acc.add(piece)
    if acc is None:
        if dim is None:
            raise ValueError("empty combination requires an explicit dim")
        return HermitianOp.zero(dim)
    return acc
