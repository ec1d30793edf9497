"""The linear relations that make the bundled worked examples what they are,
checked exactly on the measurements `fixtures.BUILTIN` loads."""

from fractions import Fraction

from oracle_psd import _matmul

from loccsynth.cone_geometry import proportional
from loccsynth.exact_algebra import HermitianOp
from loccsynth.fixtures import BUILTIN


def sides(name):
    m = BUILTIN[name]()
    a = {j: m.op("A", j) for j in range(1, m.n_outcomes + 1)}
    b = {j: m.op("B", j) for j in range(1, m.n_outcomes + 1)}
    return m, a, b


def test_every_fixture_loads_fresh_from_its_file():
    assert sorted(BUILTIN) == [
        "bennett9",
        "conditional_basis_2x2",
        "example4",
        "example5",
        "five_rank_one",
        "product_basis_2x2",
        "product_basis_3x3",
        "single_identity",
    ]
    for make in BUILTIN.values():
        assert make() == make() and make() is not make()


def test_example4_relations():
    # Only the pairwise B merge, not the proportional triple B1 = B2 = B3,
    # leads to a protocol.
    m, a, b = sides("example4")
    assert (m.dA, m.dB, m.n_outcomes) == (2, 2, 5)
    eye = HermitianOp.identity(2)
    assert b[1] == b[2] == b[3]
    assert b[5] == b[1].add(b[4])
    assert eye == b[3].add(b[5])
    assert a[4] == a[1].add(a[2])
    assert eye == a[3] == a[4].add(a[5])


def test_example5_relations():
    # A protocol that reuses outcome 1 on two leaves.
    m, a, b = sides("example5")
    assert (m.dA, m.dB, m.n_outcomes) == (2, 3, 7)
    assert b[1] == b[2].scale(2) == b[3].scale(3)
    assert b[6] == b[1].add(b[4])
    assert b[7] == b[1].add(b[5].scale(2))
    assert HermitianOp.identity(3) == b[6].add(b[7])
    assert a[4].scale(2) == a[1].add(a[2])
    assert a[5].scale(3) == a[1].add(a[3])
    eye = HermitianOp.identity(2)
    assert eye == a[6].add(a[4].scale(2)) == a[7].add(a[5].scale(3))


def test_bennett9_is_an_orthogonal_product_basis():
    m, a, b = sides("bennett9")
    assert (m.dA, m.dB, m.n_outcomes) == (3, 3, 9)
    for op in (*a.values(), *b.values()):
        # A projector of trace one has rank one.
        assert _matmul(op.entries, op.entries) == op.entries
        assert op.trace() == Fraction(1)
    zero = HermitianOp.zero(3).entries
    for j in range(1, 10):
        for k in range(j + 1, 10):
            # (Aj (x) Bj)(Ak (x) Bk) = AjAk (x) BjBk vanishes iff one factor does.
            assert zero in (
                _matmul(a[j].entries, a[k].entries),
                _matmul(b[j].entries, b[k].entries),
            ), (j, k)


def test_five_rank_one_shares_no_node():
    # No two operators on either side are proportional, so no two outcomes
    # can ever share a node.
    m, a, b = sides("five_rank_one")
    assert (m.dA, m.dB, m.n_outcomes) == (2, 2, 7)
    for side in (a, b):
        for j in range(1, 8):
            for k in range(j + 1, 8):
                assert proportional(side[j], side[k]) is None, (j, k)
