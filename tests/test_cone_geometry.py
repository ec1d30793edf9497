"""Exact LP feasibility and cone-intersection queries."""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import oracle_lp
from helpers import proj
from oracle_cones import cones_intersect_oracle, intersection_reference

from loccsynth import cone_geometry, synthesis_engine
from loccsynth.cone_geometry import (
    Cone,
    IntersectionMemo,
    LPProblem,
    cones_intersect,
    lp_call_count,
    lp_feasible,
    lp_maximize,
    mutually_intersecting_families,
    proportional,
    strict_positive_solution,
)
from loccsynth.exact_algebra import ExactComplex, HermitianOp, op_linear_combine, rank_one
from loccsynth.fixtures import BUILTIN
from loccsynth.synthesis_engine import SearchConfig, solve_tree, synthesize, validate_measurement


def frac_rows(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


# --- lp_feasible ------------------------------------------------------------


def test_lp_feasible_simple():
    feasible, x = lp_feasible(LPProblem(frac_rows([[1, 1]]), (Fraction(1),), 2))
    assert feasible
    assert sum(x) == 1 and all(v >= 0 for v in x)


def test_lp_infeasible_negative_rhs():
    feasible, x = lp_feasible(LPProblem(frac_rows([[1]]), (Fraction(-1),), 1))
    assert not feasible and x is None


def test_lp_degenerate_cycling_prone_terminates():
    # Beale's classic cycling tableau, as an equality-form feasibility
    # problem with slack columns; Bland's rule must terminate.  The origin
    # (all structural variables zero, slacks equal to rhs) is feasible.
    rows = frac_rows(
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 1],
        ]
    )
    rhs = (Fraction(0), Fraction(0), Fraction(1))
    objective = (
        Fraction(3, 4),
        -150,
        Fraction(1, 50),
        -6,
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )
    feasible, x = lp_feasible(LPProblem(rows, rhs, 7))
    assert feasible
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b
    assert x == [Fraction(2, 125), 0, 1, Fraction(1, 250), 0, 0, 0]
    # Beale's optimum: x = (1/25, 0, 1, 0) with value 1/20.
    status, x, value = lp_maximize(LPProblem(rows, rhs, 7, objective))
    assert status == "optimal"
    assert x == [Fraction(1, 25), 0, 1, 0, Fraction(3, 100), 0, 0]
    assert value == Fraction(1, 20)


def test_lp_maximize_value():
    # max x1 s.t. x1 + x2 = 3, x1 - x3 = 1  ->  x1 = 3 at x2 = 0.
    rows = frac_rows([[1, 1, 0], [1, 0, -1]])
    status, x, value = lp_maximize(
        LPProblem(rows, (Fraction(3), Fraction(1)), 3, frac_rows([[1, 0, 0]])[0])
    )
    assert status == "optimal"
    assert value == 3 and x[0] == 3


def _random_lp(rng):
    """A small equality-form LP with an objective, and the traits it has."""
    m, n = rng.randint(1, 4), rng.randint(1, 5)

    def entry():
        kind = rng.random()
        if kind < 0.35:
            return Fraction(0)
        if kind < 0.7:
            return Fraction(rng.randint(-3, 3))
        return Fraction(rng.randint(-5, 5), rng.randint(2, 6))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [rng.choice([Fraction(0), entry(), Fraction(rng.randint(1, 4))]) for _ in range(m)]
    redundant = rng.random() < 0.3
    if redundant:
        # A combination of existing rows, rhs included: linearly dependent.
        c1, c2 = Fraction(rng.randint(-2, 2), rng.randint(1, 3)), Fraction(rng.randint(1, 3))
        i, k = rng.randrange(m), rng.randrange(m)
        rows.append([c1 * u + c2 * v for u, v in zip(rows[i], rows[k])])
        rhs.append(c1 * rhs[i] + c2 * rhs[k])
    objective = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(n))
    problem = LPProblem(tuple(map(tuple, rows)), tuple(rhs), n, objective)
    traits = {
        "redundant": redundant,
        "negative_rhs": any(b < 0 for b in rhs),
        "zero_rhs": any(b == 0 for b in rhs),
        "fractional_entry": any(v.denominator > 1 for row in rows for v in row),
        "fractional_objective": any(c.denominator > 1 for c in objective),
    }
    return problem, traits


def _lp_answers(p):
    plain = LPProblem(p.rows, p.rhs, p.n_vars)
    return (
        lp_feasible(plain),
        lp_maximize(p),
        strict_positive_solution(p.rows, p.rhs, p.n_vars),
    )


def _record_pivots(monkeypatch, tableau_class, log):
    pivot = tableau_class._pivot

    def recording(tableau, row, col):
        log.append((row, col))
        pivot(tableau, row, col)

    monkeypatch.setattr(tableau_class, "_pivot", recording)


def test_lp_kernel_matches_fraction_oracle(monkeypatch):
    # The integer kernel makes the Fraction tableau's Bland pivots, so every
    # status, point and value is the oracle's, exactly.  The pivots are
    # compared too: a change to a tie-break or to the scaling of the rows
    # leaves these small LPs' answers alone but not their pivots.
    rng = random.Random(2024)
    seen = Counter()
    pivots, oracle_pivots = [], []
    _record_pivots(monkeypatch, cone_geometry._Tableau, pivots)
    _record_pivots(monkeypatch, oracle_lp._Tableau, oracle_pivots)
    for _ in range(300):
        problem, traits = _random_lp(rng)
        got = _lp_answers(problem)
        with monkeypatch.context() as patch:
            patch.setattr(cone_geometry, "_solve", oracle_lp._solve)
            want = _lp_answers(problem)
        assert got == want, problem
        assert pivots == oracle_pivots, problem
        pivots.clear()
        oracle_pivots.clear()
        seen.update(name for name, present in traits.items() if present)
        seen[got[1][0]] += 1
        seen["strict_found"] += got[2] is not None
    for kind in (
        "redundant",
        "negative_rhs",
        "zero_rhs",
        "fractional_entry",
        "fractional_objective",
        "infeasible",
        "unbounded",
        "optimal",
        "strict_found",
    ):
        assert seen[kind] >= 10, (kind, seen)


def test_lp_cleanup_pivot_on_negative_entry(monkeypatch):
    # Phase 1 ends with the artificial of the second row (-3 x2 = 0) basic
    # at zero.  The cleanup pivots it out on its x2 entry, -6 over the
    # common denominator 2, and the integer tableau is then negated so that
    # its denominator stays positive.
    rows = frac_rows([[2, 0, 1], [0, -3, 0], [-4, 0, -2]])
    rhs = (Fraction(2), Fraction(0), Fraction(-4))
    problem = LPProblem(rows, rhs, 3, (Fraction(0), Fraction(0), Fraction(1, 2)))
    pivots = []
    pivot = cone_geometry._Tableau._pivot

    def spy(tableau, row, col):
        pivots.append(tableau.a[row][col])
        pivot(tableau, row, col)
        assert tableau.d > 0

    monkeypatch.setattr(cone_geometry._Tableau, "_pivot", spy)
    got = lp_maximize(problem)
    assert pivots == [2, -6, 3]
    assert got == ("optimal", [0, 0, 2], 1)
    assert got == oracle_lp._solve(problem)


def _with_empty_rows(problem, rng):
    """The LP with rows 0 = 0 inserted first, last and at random places."""
    rows, rhs = list(problem.rows), list(problem.rhs)
    empty = (Fraction(0),) * problem.n_vars
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(rows))
        rows.insert(at, empty)
        rhs.insert(at, Fraction(0))
    rows, rhs = [empty, *rows, empty], [Fraction(0), *rhs, Fraction(0)]
    return LPProblem(tuple(rows), tuple(rhs), problem.n_vars, problem.objective)


def _nonempty_rows(problem):
    return [i for i, row in enumerate(problem.rows) if problem.rhs[i] or any(row)]


def _logged(solve, runs):
    """`solve`, recording each LP it is given and the pivots made on it."""

    def logged(problem):
        runs.append((problem, []))
        return solve(problem)

    return logged


def _record_run_pivots(monkeypatch, tableau_class, runs):
    pivot = tableau_class._pivot

    def recording(tableau, row, col):
        runs[-1][1].append((row, col))
        pivot(tableau, row, col)

    monkeypatch.setattr(tableau_class, "_pivot", recording)


def _oracle_answers(p, runs, monkeypatch):
    """What `_lp_answers` gives when every LP, rows 0 = 0 included, goes to
    the Fraction oracle as it is."""
    oracle = _logged(oracle_lp._solve, runs)

    def feasible(problem):
        status, point, _ = oracle(problem)
        return (False, None) if status == "infeasible" else (True, point)

    plain = feasible(LPProblem(p.rows, p.rhs, p.n_vars))
    maximum = oracle(p)
    # The strict LP's own encoding, solved by the oracle as it is.
    with monkeypatch.context() as patch:
        patch.setattr(cone_geometry, "lp_feasible", feasible)
        strict = strict_positive_solution(p.rows, p.rhs, p.n_vars)
    return plain, maximum, strict


def test_lp_rows_reading_zero_equals_zero_change_no_pivot(monkeypatch):
    # Every LP entry point drops rows 0 = 0 before the kernel runs, and the
    # kernel then makes the oracle's pivots on the full LP: the same
    # entering columns, with each row and each artificial column mapped
    # back to the row it came from.  So every answer is the oracle's.
    rng = random.Random(808)
    runs, oracle_runs = [], []
    _record_run_pivots(monkeypatch, cone_geometry._Tableau, runs)
    _record_run_pivots(monkeypatch, oracle_lp._Tableau, oracle_runs)
    monkeypatch.setattr(cone_geometry, "_solve", _logged(cone_geometry._solve, runs))
    problems = [_with_empty_rows(_random_lp(rng)[0], rng) for _ in range(350)]
    # Only empty rows: the kernel runs on an LP with no rows at all.
    empty = LPProblem(frac_rows([[0, 0]] * 2), (Fraction(0),) * 2, 2, frac_rows([[1, -1]])[0])
    problems.append(empty)
    seen = Counter()
    for problem in problems:
        got = _lp_answers(problem)
        assert got == _oracle_answers(problem, oracle_runs, monkeypatch), problem
        assert len(runs) == len(oracle_runs) == 3
        for (small, pivots), (full, want) in zip(runs, oracle_runs):
            kept = _nonempty_rows(full)
            assert small.rows == tuple(full.rows[i] for i in kept)
            assert small.rhs == tuple(full.rhs[i] for i in kept)
            n = full.n_vars
            mapped = [(kept[r], c if c < n else n + kept[c - n]) for r, c in pivots]
            assert mapped == want, problem
            seen["dropped"] += len(full.rows) - len(kept)
            seen["pivots"] += len(want)
        # Swapping the kernel for the oracle, as the kernel test does, must
        # hand the oracle the same rows, so its pivots match unmapped.
        oracle_runs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cone_geometry, "_solve", _logged(oracle_lp._solve, oracle_runs))
            assert _lp_answers(problem) == got
        assert [pivots for _, pivots in oracle_runs] == [pivots for _, pivots in runs]
        runs.clear()
        oracle_runs.clear()
        seen[got[1][0]] += 1
        seen["strict_found"] += got[2] is not None
    for kind in ("infeasible", "unbounded", "optimal", "strict_found"):
        assert seen[kind] >= 10, (kind, seen)
    assert seen["pivots"] > 1000 and seen["dropped"] > 3 * len(problems), seen


@pytest.mark.parametrize("b", [Fraction(2), Fraction(-1, 3)])
def test_lp_keeps_a_zero_row_with_nonzero_rhs(b):
    # 0 = b with b != 0 has no solution; dropping it would report one.
    rows = frac_rows([[1, 1], [0, 0]])
    problem = LPProblem(rows, (Fraction(1), b), 2, frac_rows([[1, 0]])[0])
    assert lp_feasible(problem) == (False, None)
    assert lp_maximize(problem) == ("infeasible", None, None)
    assert strict_positive_solution(problem.rows, problem.rhs, 2) is None
    assert oracle_lp._solve(problem)[0] == "infeasible"


# --- strict_positive_solution ------------------------------------------------


def _random_system(rng):
    """rows . x = rhs with 1-4 rows and 1-5 columns: rhs = rows . x0 for a
    positive x0, rhs = 0, or a random rhs."""
    m, n = rng.randint(1, 4), rng.randint(1, 5)

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return Fraction(0)
        if kind < 0.7:
            return Fraction(rng.randint(-3, 3))
        return Fraction(rng.randint(-5, 5), rng.randint(2, 6))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    kind = rng.choice(("consistent", "homogeneous", "random"))
    if kind == "consistent":
        x0 = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    elif kind == "homogeneous":
        rhs = [Fraction(0)] * m
    else:
        rhs = [entry() for _ in range(m)]
    return rows, rhs, n, kind


def test_strict_lp_is_feasible_exactly_when_the_reference_is():
    # The homogeneous phase-1 LP finds a strictly positive solution exactly
    # when the max-min-slack LP does, and every point it returns solves the
    # rows exactly.  Its point is another vertex choice, so it may differ.
    rng = random.Random(1102)
    seen = Counter()
    for _ in range(600):
        rows, rhs, n, kind = _random_system(rng)
        got = strict_positive_solution(rows, rhs, n)
        want = oracle_lp.strict_positive_reference(rows, rhs, n)
        assert (got is None) == (want is None), (rows, rhs)
        seen[kind, got is not None] += 1
        if got is None:
            continue
        assert len(got) == n and all(v > 0 for v in got)
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, got)) == b
        seen["differs"] += got != want
    for kind in ("consistent", "homogeneous", "random"):
        assert seen[kind, True] >= 25, (kind, seen)
    assert seen["homogeneous", False] >= 25 and seen["random", False] >= 25, seen
    assert seen["differs"] >= 1, seen


def test_strict_lp_point_may_differ_from_the_reference():
    # -2 x1 - 2 x2 = -2 and -2 x1 + 2 x2 - x3 = -1: both points are
    # strictly positive solutions, the vertices two different LPs reach.
    rows = frac_rows([[-2, -2, 0], [-2, 2, -1]])
    rhs = (Fraction(-2), Fraction(-1))
    assert strict_positive_solution(rows, rhs, 3) == [
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(1, 3),
    ]
    assert oracle_lp.strict_positive_reference(rows, rhs, 3) == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1),
    ]


# --- cones_intersect --------------------------------------------------------

ZERO = proj((1, 0))
ONE = proj((0, 1))
PLUS = proj((1, 1))
MINUS = proj((1, -1))


def test_orthogonal_rays_do_not_intersect():
    assert cones_intersect([Cone((ZERO,)), Cone((ONE,))]) is None


def test_equal_rays_intersect():
    w = cones_intersect([Cone((ZERO,)), Cone((ZERO,))])
    assert w is not None
    assert w.common.trace() == 1
    assert proportional(w.common, ZERO) is not None


def test_interior_ray_meets_two_generator_cone():
    a1 = proj((1, 0))
    a2 = proj((0, 1))
    a4 = op_linear_combine([(Fraction(1, 2), a1), (Fraction(1, 2), a2)])
    w = cones_intersect([Cone((a1, a2)), Cone((a4,))])
    assert w is not None
    # Common point is a4 up to the trace normalization.
    assert proportional(w.common, a4) is not None


def test_witness_reconstructs_common_point():
    rng = random.Random(5)
    pool = [ZERO, ONE, PLUS, MINUS, proj((3, 4)), HermitianOp.identity(2)]
    hits = 0
    for _ in range(120):
        g1 = tuple(rng.sample(pool, rng.randint(1, 3)))
        g2 = tuple(rng.sample(pool, rng.randint(1, 3)))
        w = cones_intersect([Cone(g1), Cone(g2)])
        if w is None:
            continue
        hits += 1
        assert w.common.trace() == 1
        assert not w.common.is_zero()
        for gens, coeffs in zip((g1, g2), w.coefficients):
            rebuilt = op_linear_combine(list(zip(coeffs, gens)), dim=2)
            assert rebuilt == w.common
    assert hits > 20


def test_intersection_symmetric_and_scale_invariant():
    rng = random.Random(9)
    pool = [ZERO, ONE, PLUS, MINUS, proj((3, 4)), proj((1, 2))]
    for _ in range(60):
        g1 = tuple(rng.sample(pool, rng.randint(1, 2)))
        g2 = tuple(rng.sample(pool, rng.randint(1, 2)))
        base = cones_intersect([Cone(g1), Cone(g2)]) is not None
        assert (cones_intersect([Cone(g2), Cone(g1)]) is not None) == base
        scaled = tuple(g.scale(Fraction(rng.randint(1, 7), rng.randint(1, 7))) for g in g1)
        assert (cones_intersect([Cone(scaled), Cone(g2)]) is not None) == base
        # Monotonicity: enlarging a generator set preserves intersection.
        if base:
            bigger = g1 + (rng.choice(pool),)
            assert cones_intersect([Cone(bigger), Cone(g2)]) is not None


def test_strict_demands_every_generator():
    # cone{[0]} meets cone{[0],[1]} at the ray [0], but no common point uses
    # [1] with a strictly positive coefficient.
    assert cones_intersect([Cone((ZERO,)), Cone((ZERO, ONE))]) is not None
    assert cones_intersect([Cone((ZERO,)), Cone((ZERO, ONE))], strict=True) is None
    ident_combo = Cone((ZERO, ONE))
    w = cones_intersect([ident_combo, Cone((PLUS, MINUS))], strict=True)
    assert w is not None


# --- the integer cone LP -------------------------------------------------------


def _random_psd(rng, d):
    """A rank-one or rank-two PSD operator with small Gaussian-integer
    amplitudes and a rational scale."""
    op = None
    for _ in range(rng.randint(1, 2)):
        amps = [ExactComplex.of(rng.randint(-2, 2), rng.choice((0, 0, 1, -1))) for _ in range(d)]
        if all(a.is_zero() for a in amps):
            amps[0] = ExactComplex.of(1)
        term = rank_one(amps, Fraction(rng.randint(1, 4), rng.randint(1, 4)))
        op = term if op is None else op.add(term)
    return op


def _random_cone_query(rng):
    """2-4 cones over a small pool (three operators and sums of them) or
    through the previous cone's interior, with some generators rescaled or
    duplicated."""
    d = rng.choice((2, 3))
    base = [_random_psd(rng, d) for _ in range(3)]
    pool = base + [
        op_linear_combine([(1, a), (rng.randint(1, 3), b)])
        for a, b in itertools.combinations(base, 2)
    ]
    pool.append(op_linear_combine([(1, g) for g in base]))
    cones = []
    for _ in range(rng.choice((2, 2, 2, 3, 4))):
        gens = rng.sample(pool, rng.randint(1, 3))
        if cones and rng.random() < 0.25:
            # A ray through the relative interior of the previous cone.
            gens = [op_linear_combine([(1, g) for g in cones[-1].generators])]
        if rng.random() < 0.3:
            gens = [g.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5))) for g in gens]
        if rng.random() < 0.2:
            gens.append(rng.choice(gens).scale(rng.randint(1, 3)))
        cones.append(Cone(tuple(gens)))
    return cones


def test_integer_cone_lp_matches_the_reference_encoding():
    # The homogeneous integer LP (strict: x = 1 + y) gives the reference
    # encoding's answers.  Plain witnesses are the reference's exactly;
    # strict ones differ but use every generator and meet at trace 1.
    rng = random.Random(1907)
    seen = Counter()
    for _ in range(320):
        cones = _random_cone_query(rng)
        for strict in (False, True):
            got = cones_intersect(cones, strict=strict)
            want = intersection_reference(cones, strict=strict)
            assert (got is None) == (want is None), (cones, strict)
            seen[strict, got is not None] += 1
            if got is None:
                continue
            assert got.common.trace() == 1
            for cone, coefficients in zip(cones, got.coefficients):
                rebuilt = op_linear_combine(list(zip(coefficients, cone.generators)))
                assert rebuilt == got.common
            if strict:
                assert all(c > 0 for cs in got.coefficients for c in cs)
            else:
                assert got.coefficients == want
        seen["many", len(cones) > 2] += 1
    for kind in ((False, True), (False, False), (True, True), (True, False), ("many", True)):
        assert seen[kind] >= 20, (kind, seen)


def _spy_lp(monkeypatch):
    problems = []
    feasible = cone_geometry.lp_feasible

    def spy(problem):
        problems.append(problem)
        return feasible(problem)

    def no_maximize(problem):
        raise AssertionError("a strict or cone LP called lp_maximize")

    monkeypatch.setattr(cone_geometry, "lp_feasible", spy)
    monkeypatch.setattr(cone_geometry, "lp_maximize", no_maximize)
    return problems


def _strict_engine_lps(caller, monkeypatch):
    """The LPs that validation or a tree solve hands `lp_feasible`, and the
    number of unknowns of each system they solve."""
    m = BUILTIN["conditional_basis_2x2"]()
    if caller == "validate":
        n_cols = [m.n_outcomes]
        call = functools.partial(validate_measurement, m)
    else:
        tree = synthesize(m, SearchConfig(max_rounds=4)).tree
        n_cols = [len(synthesis_engine._side_system(tree, m, side)[2]) for side in "AB"]
        call = functools.partial(solve_tree, tree, m)
    problems = _spy_lp(monkeypatch)
    before = lp_call_count()
    assert call() is not None
    assert lp_call_count() == before + len(n_cols)
    return problems, n_cols


@pytest.mark.parametrize("query", ["plain", "strict", "validate", "solve_tree"])
def test_cone_query_solves_one_integer_phase_one_lp(query, monkeypatch):
    # Each cone query, weight LP and party of a tree solve is one phase-1
    # LP: no objective, no t or slack column, no `lp_maximize`.  A strict
    # LP A x = b over n unknowns reads [A | -b] y = -[A | -b].1: n columns
    # when b = 0, as in a strict cone query, and n + 1 otherwise.
    if query in ("validate", "solve_tree"):
        problems, n_cols = _strict_engine_lps(query, monkeypatch)
        assert [p.n_vars for p in problems] == [n + 1 for n in n_cols]
        for problem in problems:
            assert problem.objective is None
            assert problem.rhs == tuple(-sum(row) for row in problem.rows)
            assert any(row[-1] for row in problem.rows)  # the column -b
        return
    strict = query == "strict"
    problems = _spy_lp(monkeypatch)
    cones = [Cone((ZERO, ONE.scale(Fraction(2, 3)))), Cone((PLUS, MINUS, ZERO))]
    before = lp_call_count()
    w = cones_intersect(cones, strict=strict)
    assert w is not None
    assert lp_call_count() == before + 1
    [problem] = problems
    assert problem.objective is None
    assert problem.n_vars == 5
    entries = [v for row in problem.rows for v in row] + list(problem.rhs)
    assert all(type(v) is int for v in entries)
    assert all(any(row) for row in problem.rows)
    # Diagonal, then (Re, Im) of the one off-diagonal entry: Im is unused.
    assert len(problem.rows) == (3 if strict else 4)
    if strict:
        assert problem.rhs == tuple(-sum(row) for row in problem.rows)
    else:
        assert problem.rows[-1] == (1, 1, 0, 0, 0) and problem.rhs[-1] == 1


# --- ray queries ------------------------------------------------------------


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
def test_ray_queries_solve_no_lp(strict, monkeypatch):
    # A query made only of rays is decided by comparing the cached integer
    # rays, with the LP's unique trace-one witness, without running the
    # simplex and without `proportional`.
    b = proj((3, 4))
    pool = [ZERO, ONE, PLUS, MINUS, b, b.scale(7), PLUS.scale(Fraction(2, 3))]
    queries = [((g, h), cones_intersect_oracle([g], [h])) for g in pool for h in pool]
    queries += [
        ((b, b.scale(3), b.scale(Fraction(1, 5))), True),
        ((ZERO, ZERO.scale(2), ONE), False),
    ]
    before = lp_call_count()

    def no_proportional(x, y):
        raise AssertionError("a ray query called proportional")

    monkeypatch.setattr(cone_geometry, "proportional", no_proportional)
    for rays, hit in queries:
        w = cones_intersect([Cone((g,)) for g in rays], strict=strict)
        assert (w is not None) == hit
        if w is not None:
            assert w.coefficients == tuple((1 / g.trace(),) for g in rays)
            assert w.common == rays[0].scale(1 / rays[0].trace())
    assert lp_call_count() == before
    assert sum(hit for _, hit in queries) > len(pool)  # more than self-pairs


# --- proportional -----------------------------------------------------------


def test_proportional_examples():
    assert proportional(ZERO.scale(2), ZERO) == 2
    assert proportional(ZERO, ONE) is None
    b2 = proj((3, 4)).scale(Fraction(1, 2))
    assert proportional(proj((3, 4)), b2) == 2
    with pytest.raises(ValueError):
        proportional(HermitianOp.zero(2), ZERO)


# --- mutually_intersecting_families ----------------------------------------


def test_families_orthogonal_rays_empty():
    items = [(1, Cone((ZERO,))), (2, Cone((ONE,))), (3, Cone((proj((1, 1)),)))]
    # [0], [1], [+]: pairwise non-proportional rank-1 rays in d=2 can still
    # pairwise intersect only if proportional, so nothing comes back.
    fams, complete = mutually_intersecting_families(items)
    assert fams == [] and complete


def test_families_proportional_triple():
    b = proj((3, 4))
    items = [(1, Cone((b,))), (2, Cone((b.scale(2),))), (3, Cone((b.scale(3),)))]
    fams, complete = mutually_intersecting_families(items)
    assert fams == [frozenset({1, 2, 3})] and complete


def test_families_interior_point_and_isolated_item():
    # {a4} sits inside cone{a1, a2}; [+] is off-diagonal and meets neither.
    a1, a2 = ZERO, ONE
    a4 = op_linear_combine([(Fraction(1, 2), a1), (Fraction(1, 2), a2)])
    items = [
        ("single", Cone((a4,))),
        ("pair", Cone((a1, a2))),
        ("iso", Cone((PLUS,))),
    ]
    fams, complete = mutually_intersecting_families(items)
    assert complete
    assert fams == [frozenset({"pair", "single"})]


def test_families_three_way_requires_common_point():
    # Pairwise intersecting, but no point common to all three: the cones
    # meet pairwise at [+], [0], [1] respectively, and cone{[0],[1]} holds
    # only diagonal operators while the other two intersect it on disjoint
    # rays.  Only the three pair families may be reported.
    c1 = Cone((ZERO, PLUS))
    c2 = Cone((PLUS, ONE))
    c3 = Cone((ZERO, ONE))
    items = [(1, c1), (2, c2), (3, c3)]
    fams, _ = mutually_intersecting_families(items)
    assert sorted(fams, key=sorted) == [
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    ]
    for fam in fams:
        cones = [dict(items)[i] for i in fam]
        assert cones_intersect(cones) is not None


# --- oracle agreement (also exercised by the acceptance suite) --------------


ORACLE_POOL = [
    ZERO,
    ONE,
    PLUS,
    MINUS,
    proj((3, 4)),
    proj((4, -3)),
    HermitianOp.identity(2),
    op_linear_combine([(Fraction(1, 2), ZERO), (1, PLUS)]),
]


def test_two_cone_queries_match_oracle():
    rng = random.Random(23)
    queries = 0
    for _ in range(220):
        g1 = tuple(rng.sample(ORACLE_POOL, rng.randint(1, 3)))
        g2 = tuple(rng.sample(ORACLE_POOL, rng.randint(1, 3)))
        got = cones_intersect([Cone(g1), Cone(g2)]) is not None
        want = cones_intersect_oracle(list(g1), list(g2))
        assert got == want
        queries += 1
    assert queries >= 200


# --- the memo key -------------------------------------------------------------


def _same_key_query(query, rng):
    """The query with generators rescaled, reordered and duplicated, and
    cones reordered and repeated: the same cones as sets of operators."""
    cones = []
    for gens in query:
        gens = [g.scale(Fraction(rng.randint(1, 6), rng.randint(1, 6))) for g in gens]
        if rng.random() < 0.4:
            gens.append(rng.choice(gens).scale(rng.randint(2, 5)))
        rng.shuffle(gens)
        cones.append(tuple(gens))
    if rng.random() < 0.4:
        cones.append(rng.choice(cones))
    rng.shuffle(cones)
    return cones


def test_queries_sharing_a_memo_key_share_the_answer():
    rng = random.Random(41)
    memo = IntersectionMemo()
    seen = Counter()
    for _ in range(250):
        query = [
            tuple(rng.sample(ORACLE_POOL, rng.randint(1, 3)))
            for _ in range(rng.randint(2, 4))
        ]
        cones = [Cone(gens) for gens in query]
        twins = [Cone(gens) for gens in _same_key_query(query, rng)]
        assert {c.key for c in cones} == {c.key for c in twins}
        for strict in (False, True):
            got = cones_intersect(cones, strict=strict) is not None
            assert (cones_intersect(twins, strict=strict) is not None) == got
            assert memo(cones, strict) == got
            hits = memo.hits
            assert memo(twins, strict) == got
            assert memo.hits == hits + 1
            seen[strict, got] += 1
        if len(query) == 2:
            plain = cones_intersect(cones) is not None
            assert plain == cones_intersect_oracle(list(query[0]), list(query[1]))
            seen["oracle"] += 1
    for kind in ((False, True), (False, False), (True, True), (True, False), "oracle"):
        assert seen[kind] >= 10, (kind, seen)
