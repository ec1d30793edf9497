"""Reference Kraus stage: one node at a time.

`kraus_realization.realize` and `verify_instrument` worked this way before
they moved to stacked eigendecompositions, one per party over all of its
node values; the per-node walk is kept here as an oracle.  Each node's
value is decomposed on its own: `psd_sqrt` gives its accumulation, and its
children decompose that square root again for its support inverse and
projector.  `verify_instrument_reference` takes one support projector and
one Kronecker product per node.  `verify_instrument` checks closure
against the completions `realize` attached and decides no support itself;
the reference decides each one, so it checks the stacked supports
independently.

The reference keeps its own support rule, eigenvalues above rank_tol times
the largest (rank_tol = 1e-10 by default), so the supports the stage takes
from its NEG_TOL floor are checked against a rule it does not share.
`support_inverse`, `support_projector` and `to_float` decompose or convert
one operator alone; nothing in the package needs them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from loccsynth.exact_algebra import HermitianOp, op_linear_combine, vectorize
from loccsynth.kraus_realization import (
    FloatOp,
    InstrumentReport,
    KrausNode,
    KrausProtocol,
    _check_hermitian,
    _coords_to_float,
    _from_eigen,
    psd_sqrt,
)
from loccsynth.protocol_tree import TreeNode
from loccsynth.synthesis_engine import LOCCProtocol

RANK_TOL = 1e-10


def to_float(op: HermitianOp) -> FloatOp:
    return _coords_to_float(vectorize(op), op.dim)


def _on_support(op: FloatOp, rank_tol: float, invert: bool) -> FloatOp:
    """The reference support rule: eigenvalues above rank_tol * max span the
    support.  Returns the projector onto it, or with `invert` the inverse
    on it; zero when no eigenvalue is positive.  One matrix or a stack."""
    _check_hermitian(op)
    vals, vecs = np.linalg.eigh(op)
    keep = vals > rank_tol * vals.max(axis=-1, initial=0.0)[..., None]
    factor = np.where(keep, 1.0, 0.0)
    if invert:
        factor = factor / np.where(keep, vals, 1.0)
    return _from_eigen(factor, vecs)


def support_inverse(op: FloatOp, rank_tol: float = RANK_TOL) -> FloatOp:
    """Inverse on the support: eigenvalues above rank_tol * max are
    inverted, the rest zeroed."""
    return _on_support(op, rank_tol, invert=True)


def support_projector(op: FloatOp, rank_tol: float = RANK_TOL) -> FloatOp:
    """Projector onto the support under the same rule."""
    return _on_support(op, rank_tol, invert=False)


def realize_reference(protocol: LOCCProtocol, rank_tol: float = RANK_TOL) -> KrausProtocol:
    m = protocol.measurement
    coeffs = {"A": protocol.q, "B": protocol.p}

    def value_of(node: TreeNode) -> FloatOp:
        # The exact operator sum, entry by entry, not the engine's integer table.
        terms = [(coeffs[node.side][r], m.op(node.side, r.j)) for r in node.terms]
        return to_float(op_linear_combine(terms, dim=m.side_dim(node.side)))

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

    return KrausProtocol(build(protocol.tree.root, {}), protocol)


def verify_instrument_reference(
    kp: KrausProtocol, m, rank_tol: float = RANK_TOL
) -> InstrumentReport:
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
        next_support[node.side] = support_projector(node.value, rank_tol)
        for c in node.children:
            walk(c, prods, next_support)

    ident = {
        "A": np.eye(m.dA, dtype=complex),
        "B": np.eye(m.dB, dtype=complex),
    }
    walk(kp.root, dict(ident), dict(ident))
    completeness = norm(total - np.eye(m.dA * m.dB, dtype=complex))
    return InstrumentReport(closure, leaf_res, completeness, completion_res)
