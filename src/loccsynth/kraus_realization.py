"""Turn a solved protocol tree into executable per-round Kraus operators.

Node operators are evaluated exactly from the solved coefficients and
converted to floating point once; eigendecompositions (square roots and
support inverses) are the only inexact stage.  Each branch's local Kraus
operator is the positive factor sqrt(Minv . value . Minv) relative to the
previous same-party accumulation, and every internal measurement is
completed with I - P on the support of what came before, a branch that
occurs with zero probability.

The stage works per party on stacks: one eigendecomposition of all of a
party's node values at once yields every square root together with the
support inverse and projector of that root, and one more yields the local
square roots.  Each matrix in a stack keeps its own Hermitian check,
negative-eigenvalue check and scale, so stacking changes nothing but
rounding.  The stage has one floor and no knobs: eigenvalues below NEG_TOL
times a matrix's scale are zeroed (`_psd_eigh`), and a support is spanned
by the eigenvalues that floor leaves nonzero.  `realize` is the only code
that decides a support: `verify_instrument` checks the operators it built,
completions included, against INSTRUMENT_TOL and makes no
eigendecomposition of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .protocol_tree import LeafRef
from .synthesis_engine import LOCCProtocol, _side_sum

FloatOp = np.ndarray

# Tolerances relative to each matrix's scale: see `_psd_eigh`, `_check_hermitian`.
NEG_TOL = 1e-10
HERMITIAN_TOL = 1e-12
# Every residual of a valid instrument is below this: see `InstrumentReport.ok`.
INSTRUMENT_TOL = 1e-9


def _coords_to_float(coords, dim: int, den: int = 1) -> FloatOp:
    """The float matrix whose exact `vectorize` coordinates are `coords`
    divided by `den`: entry for entry the float conversions of that
    operator's entries.  Integer coordinates over a positive integer `den`
    convert by int / int, which rounds correctly, as `float` of the exact
    Fraction does: the same floats, signs of zero included."""
    out = np.empty((dim, dim), dtype=complex)
    k = dim
    for i in range(dim):
        out[i, i] = float(coords[i] / den)
        for j in range(i + 1, dim):
            re = float(coords[k] / den)
            out[i, j] = complex(re, float(coords[k + 1] / den))
            out[j, i] = complex(re, float(-coords[k + 1] / den))
            k += 2
    return out


def _check_hermitian(ops: FloatOp) -> None:
    """Each matrix of `ops` (one matrix, or a stack of them along the first
    axis) must be Hermitian within HERMITIAN_TOL times its own scale."""
    scale = np.maximum(1.0, np.abs(ops).max(axis=(-2, -1)))
    skew = np.abs(ops - ops.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if np.any(skew >= HERMITIAN_TOL * scale):
        raise ValueError("operator is not Hermitian within tolerance")


def _psd_eigh(ops: FloatOp) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of PSD matrices, noise floored to zero.

    An eigenvalue below -NEG_TOL (relative to the matrix's own scale) raises
    ValueError.  The exact values upstream are PSD, but the float products
    formed from them are not exactly so: rounding in Minv . value . Minv
    alone can push an eigenvalue that far below zero when Minv inverts an
    eigenvalue near the floor.  Eigenvalues within the tolerance band around
    zero are set exactly to zero: a square root would otherwise amplify
    rounding noise eps to sqrt(eps), large enough to corrupt later support
    decisions.  Works on one matrix or a stack of them.
    """
    _check_hermitian(ops)
    vals, vecs = np.linalg.eigh(ops)
    scale = np.maximum(1.0, vals.max(axis=-1, initial=0.0))
    low = vals.min(axis=-1, initial=0.0)
    bad = np.flatnonzero(low < -NEG_TOL * scale)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"matrix has eigenvalue {low.flat[k]} < -{NEG_TOL * scale.flat[k]}"
        )
    return np.where(vals < NEG_TOL * scale[..., None], 0.0, vals), vecs


def _from_eigen(vals: np.ndarray, vecs: np.ndarray) -> FloatOp:
    """vecs . diag(vals) . vecs^H, matrix by matrix."""
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def psd_sqrt(op: FloatOp) -> FloatOp:
    """Unique positive square root; noise-level eigenvalues are floored
    (`_psd_eigh`).  A stack of matrices gets one root each."""
    vals, vecs = _psd_eigh(op)
    return _from_eigen(np.sqrt(vals), vecs)


@dataclass
class KrausNode:
    side: str
    value: FloatOp
    local: Optional[FloatOp]
    completion: Optional[FloatOp]
    children: list["KrausNode"]
    leaf: Optional[LeafRef]


@dataclass
class KrausProtocol:
    root: KrausNode
    protocol: LOCCProtocol


@dataclass
class InstrumentReport:
    closure_residual: float
    leaf_residual: float
    completeness_residual: float
    completion_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.closure_residual < INSTRUMENT_TOL
            and self.leaf_residual < INSTRUMENT_TOL
            and self.completeness_residual < INSTRUMENT_TOL
            and self.completion_residual < INSTRUMENT_TOL
        )


def _flatten(root) -> tuple[list, list[list[int]], list[dict[str, int]]]:
    """The tree in pre-order, each node's children as positions, and for
    each node the position of its nearest proper ancestor on each side
    that has one."""
    order: list = []
    kids: list[list[int]] = []
    above: list[dict[str, int]] = []

    def visit(node, anc: dict[str, int]) -> int:
        i = len(order)
        order.append(node)
        kids.append([])
        above.append(anc)
        inner = {**anc, node.side: i}
        kids[i] = [visit(c, inner) for c in node.children]
        return i

    visit(root, {})
    return order, kids, above


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[i], b[i]) for each i of two stacks."""
    n, da, db = len(a), a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, da * db, da * db)


def _gram(ops: np.ndarray) -> np.ndarray:
    """op^H . op for each matrix of a stack."""
    return ops.conj().swapaxes(-1, -2) @ ops


def realize(protocol: LOCCProtocol) -> KrausProtocol:
    """Per-branch local Kraus operators for a solved protocol tree.

    The accumulated positive operator at a node is sqrt(value); the local
    Kraus operator applied at that branch is the positive part of
    sqrt(value) . inverse(previous accumulation on its support).  A
    completion operator I - P(previous support) is attached to every
    measurement so each local POVM closes to the identity.

    Per party, one stacked eigendecomposition of all its node values gives
    each sqrt(value) as eigenvalues sqrt(lam) on the same eigenvectors, so
    the support inverse and projector of that square root need no
    decomposition of their own: the support is spanned by the eigenvalues
    the NEG_TOL floor leaves nonzero.  One more stacked decomposition per
    party gives the local square roots.
    """
    m = protocol.measurement
    coeffs = {"A": protocol.q, "B": protocol.p}
    order, kids, above = _flatten(protocol.tree.root)
    value: list[FloatOp] = [None] * len(order)
    local: list[Optional[FloatOp]] = [None] * len(order)
    # Per side, the support projector of each node's sqrt(value), by position.
    projector: dict[str, dict[int, FloatOp]] = {}
    for side in ("A", "B"):
        at = [i for i, node in enumerate(order) if node.side == side]
        dim = m.side_dim(side)
        for i in at:
            coords, den = _side_sum(m, side, order[i].terms, coeffs[side])
            value[i] = _coords_to_float(coords, dim, den)
        lam, vecs = _psd_eigh(np.stack([value[i] for i in at]))
        roots = np.sqrt(lam)
        # The support: the eigenvalues the floor left nonzero.
        keep = np.where(roots > 0, 1.0, 0.0)
        inverse = dict(zip(at, _from_eigen(keep / np.where(keep, roots, 1.0), vecs)))
        projector[side] = dict(zip(at, _from_eigen(keep, vecs)))
        below = [(i, above[i][side]) for i in at if side in above[i]]
        if below:
            pinv = np.stack([inverse[k] for _, k in below])
            squared = pinv @ np.stack([value[i] for i, _ in below]) @ pinv
            # Mathematically Hermitian; resymmetrize the rounding error away.
            squared = (squared + squared.conj().swapaxes(-1, -2)) / 2.0
            for (i, _), root in zip(below, psd_sqrt(squared)):
                local[i] = root

    built: list[KrausNode] = [None] * len(order)
    # Reversed pre-order builds every child before its parent.
    for i in reversed(range(len(order))):
        node = order[i]
        completion = None
        if node.children:
            child_side = node.children[0].side
            eye = np.eye(m.side_dim(child_side), dtype=complex)
            k = above[i].get(child_side)
            completion = eye - (eye if k is None else projector[child_side][k])
        built[i] = KrausNode(
            side=node.side,
            value=value[i],
            local=local[i],
            completion=completion,
            children=[built[c] for c in kids[i]],
            leaf=node.leaf,
        )
    # The two left-most nodes are "having done nothing": no local Kraus.
    return KrausProtocol(built[0], protocol)


def verify_instrument(kp: KrausProtocol, m) -> InstrumentReport:
    """Numeric instrument checks on the operators `realize` built.

    (a) at every measurement, the branch Kraus operators and the attached
        completion C form an instrument: sum K^H K = I - C;
    (b) every leaf's accumulated path product reproduces
        weight * A_j (x) B_j;
    (c) the leaf operators sum to the identity on the joint space.

    `InstrumentReport.ok` holds when every residual is below INSTRUMENT_TOL.
    No support is decided here: C already holds the one `realize` chose.
    Every leaf's joint operator and target come from one stacked Kronecker
    product each.
    """
    protocol = kp.protocol
    order, kids, _ = _flatten(kp.root)
    eye = {"A": np.eye(m.dA, dtype=complex), "B": np.eye(m.dB, dtype=complex)}

    def norm(x: FloatOp) -> float:
        return float(np.max(np.abs(x)))

    # Per node, the path product of the local operators on each side; in
    # pre-order every parent's is done before its children read it.
    prods: list[dict[str, FloatOp]] = [eye] * len(order)
    for i, node in enumerate(order):
        if node.local is not None:
            prods[i] = {**prods[i], node.side: node.local @ prods[i][node.side]}
        for c in kids[i]:
            prods[c] = prods[i]

    closure = 0.0
    completion_res = 0.0
    for i, node in enumerate(order):
        if node.leaf is not None or any(c.local is None for c in node.children):
            continue
        child_side = node.children[0].side
        acc = _gram(np.stack([c.local for c in node.children])).sum(axis=0)
        closure = max(closure, norm(acc - (eye[child_side] - node.completion)))
        completion_res = max(completion_res, norm(node.completion @ prods[i][child_side]))

    leaves = [i for i, node in enumerate(order) if node.leaf is not None]
    joint = _kron(
        _gram(np.stack([prods[i]["A"] for i in leaves])),
        _gram(np.stack([prods[i]["B"] for i in leaves])),
    )
    refs = [order[i].leaf for i in leaves]
    targets = {}
    for side in ("A", "B"):
        table, dim = m.table(side), m.side_dim(side)
        targets[side] = np.stack(
            [_coords_to_float(table.coords[r.j - 1], dim, table.denominator) for r in refs]
        )
    weights = np.array([float(protocol.weights[r]) for r in refs])
    expected = weights[:, None, None] * _kron(targets["A"], targets["B"])
    leaf_res = norm(joint - expected)
    completeness = norm(joint.sum(axis=0) - np.eye(m.dA * m.dB, dtype=complex))
    return InstrumentReport(closure, leaf_res, completeness, completion_res)
