"""Shared test utilities: exact rational projector pool, the exact
Kronecker product as a reference, random measurement and tree generators,
and an exact ledger-satisfiability check."""

from __future__ import annotations

import random
from fractions import Fraction

from loccsynth.exact_algebra import HermitianOp, rank_one, vectorize
from loccsynth.protocol_tree import Tree, merge_and_extend, seed_trees
from loccsynth.synthesis_engine import SeparableMeasurement

# Integer vectors giving rational projectors (entries v_i v_j / |v|^2).
VECTOR_POOL = [
    (1, 0),
    (0, 1),
    (1, 1),
    (1, -1),
    (3, 4),
    (4, -3),
    (1, 2),
    (2, -1),
    (1, 3),
    (3, -1),
]


def kron(a: HermitianOp, b: HermitianOp) -> HermitianOp:
    """Exact tensor product, entry by entry; result dimension a.dim * b.dim.

    A reference only: the library reads product operators in the
    tensor-product basis of the two sides' coordinate vectors."""
    d = a.dim * b.dim
    rows = []
    for i in range(d):
        ia, ib = divmod(i, b.dim)
        row = []
        for j in range(d):
            ja, jb = divmod(j, b.dim)
            row.append(a.entries[ia][ja] * b.entries[ib][jb])
        rows.append(tuple(row))
    return HermitianOp(d, tuple(rows))


def proj(v) -> HermitianOp:
    return rank_one(list(v), Fraction(1, sum(x * x for x in v)))


def perp(v):
    return (-v[1], v[0])


def random_rescale(m: SeparableMeasurement, rng: random.Random) -> SeparableMeasurement:
    outcomes = []
    for a, b in m.outcomes:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        mu = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        outcomes.append((a.scale(lam), b.scale(mu)))
    return SeparableMeasurement(m.dA, m.dB, tuple(outcomes))


def permute_outcomes(m: SeparableMeasurement, rng: random.Random) -> SeparableMeasurement:
    order = list(range(m.n_outcomes))
    rng.shuffle(order)
    return SeparableMeasurement(m.dA, m.dB, tuple(m.outcomes[i] for i in order))


def random_small_measurement(rng: random.Random) -> SeparableMeasurement:
    """A valid separable measurement with d = 2 and at most 4 outcomes.

    Kinds 0-4 admit protocols by construction; kind 5 has no proportional
    pair on either side, so nothing can ever merge and no protocol exists."""
    ident = HermitianOp.identity(2)
    kind = rng.randrange(6)
    u = rng.choice(VECTOR_POOL)
    b1 = rng.choice(VECTOR_POOL)
    b2 = rng.choice(VECTOR_POOL)
    if kind == 0:
        outcomes = [
            (proj(u), proj(b1)),
            (proj(u), proj(perp(b1))),
            (proj(perp(u)), proj(b2)),
            (proj(perp(u)), proj(perp(b2))),
        ]
    elif kind == 1:
        outcomes = [
            (proj(u), proj(b1)),
            (proj(perp(u)), proj(b1)),
            (ident, proj(perp(b1))),
        ]
    elif kind == 2:
        outcomes = [
            (proj(b1), proj(u)),
            (proj(b1), proj(perp(u))),
            (proj(perp(b1)), ident),
        ]
    elif kind == 3:
        outcomes = [
            (proj(u), ident),
            (proj(perp(u)), ident),
        ]
    elif kind == 4:
        outcomes = [(ident.scale(Fraction(3, 2)), ident)]
    else:
        # I = [u](x)(I - d1*t*[b]) + [u_perp](x)(I - d2*t*[b])
        #     + (d1[u] + d2[u_perp])(x)t[b], with d1 != d2: no two operators
        # on either side are proportional, so no merge can ever start.
        d1 = Fraction(rng.randint(1, 3), 4)
        d2 = d1
        while d2 == d1:
            d2 = Fraction(rng.randint(1, 4), 4)
        t = Fraction(1, rng.randint(1, 3))
        pu, pu_perp, pb = proj(u), proj(perp(u)), proj(b1)
        mixed = pu.scale(d1).add(pu_perp.scale(d2))
        outcomes = [
            (pu, ident.sub(pb.scale(d1 * t))),
            (pu_perp, ident.sub(pb.scale(d2 * t))),
            (mixed, pb.scale(t)),
        ]
    m = SeparableMeasurement(2, 2, tuple(outcomes))
    return random_rescale(m, rng)


def random_merged_tree(rng: random.Random, n_outcomes: int, rounds: int) -> Tree:
    """A structurally valid tree grown by random merges (no cone policy)."""
    trees = seed_trees(n_outcomes)
    for _ in range(rounds):
        rng.shuffle(trees)
        merged = []
        i = 0
        while i < len(trees):
            size = min(rng.randint(1, 3), len(trees) - i)
            merged.append(merge_and_extend(trees[i : i + size]))
            i += size
        trees = merged
    trees.sort(key=lambda t: len(list(_leaf_js(t))), reverse=True)
    return trees[0]


def _leaf_js(tree: Tree):
    from loccsynth.protocol_tree import leaf_refs

    return [r.j for r in leaf_refs(tree)]


def ledger_solution(tree: Tree, m: SeparableMeasurement):
    """Strictly positive per-side coefficients satisfying the ledger, or None."""
    from loccsynth.cone_geometry import strict_positive_solution

    solution = {"A": {}, "B": {}}
    for side in ("A", "B"):
        constraints = [c for c in tree.ledger if c.side == side]
        if not constraints:
            continue
        refs = sorted(set().union(*[c.refs() for c in constraints]))
        index = {r: i for i, r in enumerate(refs)}
        d = m.side_dim(side)
        rows = []
        rhs = []
        for c in constraints:
            for comp in range(d * d):
                row = [Fraction(0)] * len(refs)
                for r in c.lhs:
                    row[index[r]] += vectorize(m.op(side, r.j))[comp]
                for r in c.rhs:
                    row[index[r]] -= vectorize(m.op(side, r.j))[comp]
                rows.append(row)
                rhs.append(Fraction(0))
        point = strict_positive_solution(rows, rhs, len(refs))
        if point is None:
            return None
        solution[side] = dict(zip(refs, point))
    return solution


def sum_rule_values_hold(tree: Tree, m: SeparableMeasurement, solution) -> bool:
    """Value-level node-sum checks under a coefficient assignment.

    At every node whose children are internal, each branch union must
    evaluate to the node's own label value; ledger equalities are checked
    directly.  Unconstrained references default to coefficient one."""
    from loccsynth.exact_algebra import op_linear_combine

    def value(side, terms):
        return op_linear_combine(
            [(solution[side].get(r, Fraction(1)), m.op(side, r.j)) for r in sorted(terms)],
            dim=m.side_dim(side),
        )

    for c in tree.ledger:
        if value(c.side, c.lhs) != value(c.side, c.rhs):
            return False

    def walk(node) -> bool:
        if node.leaf is not None:
            return True
        if all(c.leaf is None for c in node.children):
            target = value(node.side, node.terms)
            for c in node.children:
                union = frozenset().union(*[z.terms for z in c.children])
                if value(node.side, union) != target:
                    return False
        return all(walk(c) for c in node.children)

    return walk(tree.root)


def ledger_strictly_satisfiable(tree: Tree, m: SeparableMeasurement) -> bool:
    """True when each side's ledger admits strictly positive coefficients."""
    return ledger_solution(tree, m) is not None
