"""Turn a solved protocol tree into executable per-round Kraus operators.

Node operators are evaluated exactly from the solved coefficients and
converted to floating point once; eigendecompositions (square roots and
support inverses) are the only inexact stage.  Each branch's local Kraus
operator is the positive factor sqrt(Minv . value . Minv) relative to the
previous same-party accumulation, and every internal measurement is
completed with I - P on the support of what came before, a branch that
occurs with zero probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exact_algebra import HermitianOp, RealVector
from .protocol_tree import LeafRef, TreeNode
from .synthesis_engine import LOCCProtocol, _side_coords

FloatOp = np.ndarray


def to_float(op: HermitianOp) -> FloatOp:
    out = np.empty((op.dim, op.dim), dtype=complex)
    for i in range(op.dim):
        for j in range(op.dim):
            e = op.entries[i][j]
            out[i, j] = complex(float(e.re), float(e.im))
    return out


def _coords_to_float(coords: RealVector, dim: int) -> FloatOp:
    """The float matrix whose exact `vectorize` coordinates are `coords`:
    entry for entry what `to_float` gives on that operator."""
    out = np.empty((dim, dim), dtype=complex)
    k = dim
    for i in range(dim):
        out[i, i] = float(coords[i])
        for j in range(i + 1, dim):
            re = float(coords[k])
            out[i, j] = complex(re, float(coords[k + 1]))
            out[j, i] = complex(re, float(-coords[k + 1]))
            k += 2
    return out


def _check_hermitian(op: FloatOp, tol: float = 1e-12) -> None:
    scale = max(1.0, float(np.max(np.abs(op))))
    if np.max(np.abs(op - op.conj().T)) >= tol * scale:
        raise ValueError("operator is not Hermitian within tolerance")


def psd_sqrt(op: FloatOp, neg_tol: float = 1e-10) -> FloatOp:
    """Unique positive square root; noise-level eigenvalues are floored.

    An eigenvalue below -neg_tol (relative) means the exact pipeline
    upstream handed us something that is not PSD, which is a bug, not a
    rounding artifact.  Eigenvalues within the tolerance band around zero
    are set exactly to zero: the square root would otherwise amplify
    rounding noise eps to sqrt(eps), large enough to corrupt later support
    decisions.
    """
    _check_hermitian(op)
    vals, vecs = np.linalg.eigh(op)
    scale = max(1.0, float(vals.max(initial=0.0)))
    if vals.min(initial=0.0) < -neg_tol * scale:
        raise ValueError(f"matrix has eigenvalue {vals.min()} < -{neg_tol * scale}")
    vals = np.where(vals < neg_tol * scale, 0.0, vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _on_support(op: FloatOp, rank_tol: float, invert: bool) -> FloatOp:
    """The support rule: eigenvalues above rank_tol * max span the support.
    Returns the projector onto it, or with `invert` the inverse on it."""
    _check_hermitian(op)
    vals, vecs = np.linalg.eigh(op)
    top = vals.max(initial=0.0)
    if top <= 0.0:
        return np.zeros_like(op)
    keep = vals > rank_tol * top
    factor = np.where(keep, 1.0, 0.0)
    if invert:
        factor = factor / np.where(keep, vals, 1.0)
    return (vecs * factor) @ vecs.conj().T


def support_inverse(op: FloatOp, rank_tol: float = 1e-10) -> FloatOp:
    """Inverse on the support: eigenvalues above rank_tol * max are
    inverted, the rest zeroed."""
    return _on_support(op, rank_tol, invert=True)


def support_projector(op: FloatOp, rank_tol: float = 1e-10) -> FloatOp:
    return _on_support(op, rank_tol, invert=False)


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
    rank_tol: float


@dataclass
class InstrumentReport:
    closure_residual: float
    leaf_residual: float
    completeness_residual: float
    completion_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return (
            self.closure_residual < self.tol
            and self.leaf_residual < self.tol
            and self.completeness_residual < self.tol
            and self.completion_residual < self.tol
        )


def realize(protocol: LOCCProtocol, rank_tol: float = 1e-10) -> KrausProtocol:
    """Per-branch local Kraus operators for a solved protocol tree.

    The accumulated positive operator at a node is sqrt(value); the local
    Kraus operator applied at that branch is the positive part of
    sqrt(value) . inverse(previous accumulation on its support).  A
    completion operator I - P(previous support) is attached to every
    measurement so each local POVM closes to the identity.
    """
    m = protocol.measurement
    coeffs = {"A": protocol.q, "B": protocol.p}

    def value_of(node: TreeNode) -> FloatOp:
        coords = _side_coords(m, node.side, node.terms, coeffs[node.side])
        return _coords_to_float(coords, m.side_dim(node.side))

    def build(node: TreeNode, acc_prev: dict[str, FloatOp]) -> KrausNode:
        value = value_of(node)
        local: Optional[FloatOp] = None
        prev = acc_prev.get(node.side)
        if prev is not None:
            pinv = support_inverse(prev, rank_tol)
            squared = pinv @ value @ pinv
            # Mathematically Hermitian; resymmetrize the rounding error away.
            local = psd_sqrt((squared + squared.conj().T) / 2.0)
        acc_here = psd_sqrt(value)
        completion = None
        if node.children:
            child_side = node.children[0].side
            prev_child = acc_prev.get(child_side)
            dim = m.side_dim(child_side)
            if prev_child is None:
                proj = np.eye(dim, dtype=complex)
            else:
                proj = support_projector(prev_child, rank_tol)
            completion = np.eye(dim, dtype=complex) - proj
        next_acc = dict(acc_prev)
        next_acc[node.side] = acc_here
        children = [build(c, next_acc) for c in node.children]
        return KrausNode(
            side=node.side,
            value=value,
            local=local,
            completion=completion,
            children=children,
            leaf=node.leaf,
        )

    root = protocol.tree.root
    # The two left-most nodes are "having done nothing": no local Kraus.
    kroot = build(root, {})
    return KrausProtocol(kroot, protocol, rank_tol)


def verify_instrument(
    kp: KrausProtocol, m, tol: float = 1e-9
) -> InstrumentReport:
    """Numeric instrument checks.

    (a) at every measurement, the branch Kraus operators close to the
        support projector of the previous accumulation (the completion
        operator pads that to the identity);
    (b) every leaf's accumulated path product reproduces
        weight * A_j (x) B_j;
    (c) the leaf operators sum to the identity on the joint space.
    """
    protocol = kp.protocol
    closure = 0.0
    leaf_res = 0.0
    completion_res = 0.0
    total = np.zeros((m.dA * m.dB, m.dA * m.dB), dtype=complex)

    def norm(x: FloatOp) -> float:
        return float(np.max(np.abs(x)))

    def walk(node: KrausNode, prods: dict[str, FloatOp], prev_support: dict[str, FloatOp]):
        nonlocal closure, leaf_res, completion_res, total
        prods = dict(prods)
        if node.local is not None:
            prods[node.side] = node.local @ prods[node.side]
        if node.leaf is not None:
            pos_a = prods["A"].conj().T @ prods["A"]
            pos_b = prods["B"].conj().T @ prods["B"]
            joint = np.kron(pos_a, pos_b)
            r = protocol.weights[node.leaf]
            expected = float(r) * np.kron(
                to_float(m.op("A", node.leaf.j)), to_float(m.op("B", node.leaf.j))
            )
            leaf_res = max(leaf_res, norm(joint - expected))
            total += joint
            return
        child_side = node.children[0].side
        if all(c.local is not None for c in node.children):
            acc = sum(
                (c.local.conj().T @ c.local for c in node.children),
                np.zeros((m.side_dim(child_side),) * 2, dtype=complex),
            )
            proj = prev_support[child_side]
            closure = max(closure, norm(acc - proj))
            if node.completion is not None:
                completion_res = max(
                    completion_res, norm(node.completion @ prods[child_side])
                )
        next_support = dict(prev_support)
        next_support[node.side] = support_projector(node.value, kp.rank_tol)
        for c in node.children:
            walk(c, prods, next_support)

    ident = {
        "A": np.eye(m.dA, dtype=complex),
        "B": np.eye(m.dB, dtype=complex),
    }
    walk(kp.root, dict(ident), dict(ident))
    completeness = norm(total - np.eye(m.dA * m.dB, dtype=complex))
    return InstrumentReport(closure, leaf_res, completeness, completion_res, tol)
