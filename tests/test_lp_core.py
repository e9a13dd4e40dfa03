import numpy as np
import pytest

from dsps.errors import DimensionMismatch
from dsps.lp_core import (
    LpProblem,
    LpRow,
    Relation,
    SolveStatus,
    _DualSimplex,
    solve_lp,
)

from oracles import highs_objective, lp_vertex_oracle

# free and one-sided columns put infinities into the ratio arithmetic, where
# an inf - inf or 0 * inf must fail a test rather than pass as a NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def lp(c, rows, lower, upper):
    return LpProblem(np.asarray(c, dtype=float), tuple(rows), lower, upper)


class TestBasics:
    def test_box_only_maximisation(self):
        sol = solve_lp(lp([-1.0], (), 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.z[0] == 1.0
        assert sol.objective_value == -1.0

    def test_single_le_row(self):
        # min -x - y  s.t.  x + y <= 1.5, box [0,1]^2
        sol = solve_lp(lp([-1.0, -1.0], [LpRow([1.0, 1.0], "<=", 1.5)], 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-1.5, abs=1e-9)
        assert sol.max_residual <= 1e-9

    def test_equality_row(self):
        # min x  s.t.  x + y = 1, box [0,1]^2  -> x=0, y=1
        sol = solve_lp(lp([1.0, 0.0], [LpRow([1.0, 1.0], "=", 1.0)], 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_ge_row(self):
        # min x + y  s.t.  x + 2y >= 1, box [0,1]^2 -> y=0.5
        sol = solve_lp(lp([1.0, 1.0], [LpRow([1.0, 2.0], ">=", 1.0)], 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_pair(self):
        rows = [LpRow([1.0], "<=", 0.25), LpRow([1.0], ">=", 0.75)]
        sol = solve_lp(lp([1.0], rows, 0.0, 1.0))
        assert sol.status is SolveStatus.INFEASIBLE
        # certificate: can't shrink the gap below 0.5
        assert sol.objective_value == pytest.approx(0.5, abs=1e-6)

    def test_infeasible_equality_out_of_box(self):
        sol = solve_lp(lp([0.0, 0.0], [LpRow([1.0, 1.0], "=", 5.0)], 0.0, 1.0))
        assert sol.status is SolveStatus.INFEASIBLE

    def test_crossed_bounds_infeasible(self):
        sol = solve_lp(lp([1.0], (), 2.0, 1.0))
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded_box_only(self):
        sol = solve_lp(lp([-1.0], (), 0.0, np.inf))
        assert sol.status is SolveStatus.UNBOUNDED

    def test_unbounded_with_row(self):
        # min -x  s.t.  y <= 1 says nothing about x, x unbounded above
        rows = [LpRow([0.0, 1.0], "<=", 1.0)]
        sol = solve_lp(lp([-1.0, 0.0], rows, 0.0, [np.inf, 2.0]))
        assert sol.status is SolveStatus.UNBOUNDED

    def test_unbounded_free_variable(self):
        rows = [LpRow([1.0, 1.0], "<=", 10.0)]
        sol = solve_lp(lp([1.0, 0.0], rows, [-np.inf, 0.0], [np.inf, 1.0]))
        assert sol.status is SolveStatus.UNBOUNDED

    def test_free_variable_optimum(self):
        # min x  s.t.  x >= -3 via row, x otherwise free
        rows = [LpRow([1.0], ">=", -3.0)]
        sol = solve_lp(lp([1.0], rows, -np.inf, np.inf))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)

    def test_iteration_limit(self):
        rows = [LpRow([1.0, 1.0, 1.0], "=", 1.5)]
        sol = solve_lp(
            lp([-1.0, -2.0, -3.0], rows, 0.0, 1.0),
            max_iterations=1,
        )
        assert sol.status is SolveStatus.ITERATION_LIMIT
        assert sol.z is None

    def test_negative_rhs_equality(self):
        sol = solve_lp(lp([0.0], [LpRow([2.0], "=", -1.0)], -2.0, 2.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.z[0] == pytest.approx(-0.5, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lp([1.0, 2.0], [LpRow([1.0], "<=", 1.0)], 0.0, 1.0)

    def test_unknown_relation(self):
        with pytest.raises(DimensionMismatch):
            LpRow([1.0], "!=", 1.0)


class TestDeterminism:
    def test_bitwise_repeatability(self):
        rng = np.random.default_rng(5150)
        c = rng.normal(size=40)
        rows = [
            LpRow(rng.normal(size=40), rel, rng.normal())
            for rel in ("<=", ">=", "<=", "=")
        ]
        problem = lp(c, rows, 0.0, 1.0)
        a = solve_lp(problem)
        b = solve_lp(problem)
        assert a.status is b.status
        assert a.objective_value == b.objective_value  # bitwise
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.z, b.z)


def random_instance(rng):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 5))
    c = rng.normal(size=n)
    rows = []
    anchor = rng.uniform(0.0, 1.0, size=n)  # in-box point for feasible cases
    make_feasible = rng.random() < 0.5
    for _ in range(m):
        a = rng.normal(size=n)
        rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        if make_feasible:
            slack = float(rng.uniform(0.0, 0.5))
            at = float(np.dot(a, anchor))
            b = at + slack if rel == "<=" else at - slack if rel == ">=" else at
        else:
            b = float(rng.normal())
        rows.append(LpRow(a, rel, b))
    return lp(c, rows, 0.0, 1.0), rows


class TestAgainstVertexEnumeration:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(214365)
        checked_feasible = checked_infeasible = 0
        for i in range(50):
            problem, rows = random_instance(rng)
            oracle_rows = [(r.coeffs, r.relation.value, r.rhs) for r in rows]
            status, best = lp_vertex_oracle(
                problem.objective, oracle_rows, problem.lower, problem.upper
            )
            sol = solve_lp(problem)
            if status == "infeasible":
                assert sol.status is SolveStatus.INFEASIBLE, f"instance {i}"
            else:
                assert sol.status is SolveStatus.OPTIMAL, f"instance {i}"
                assert sol.objective_value == pytest.approx(best, abs=1e-7), f"instance {i}"
                assert sol.max_residual <= 1e-7
                assert np.all(sol.z >= problem.lower - 1e-9)
                assert np.all(sol.z <= problem.upper + 1e-9)
            if status == "infeasible":
                checked_infeasible += 1
            else:
                checked_feasible += 1
        # the generator must exercise both outcomes
        assert checked_feasible >= 15
        assert checked_infeasible >= 5

    def test_degenerate_stacked_rows(self):
        programs = [
            # many tight rows through one vertex force degenerate pivots
            ([-1.0, -1.0, -1.0], [
                LpRow([1.0, 1.0, 1.0], "<=", 1.0),
                LpRow([1.0, 1.0, 0.0], "<=", 1.0),
                LpRow([1.0, 0.0, 1.0], "<=", 1.0),
                LpRow([0.0, 1.0, 1.0], "<=", 1.0),
            ]),
            # flipping every ratio-test candidate leaves the slope exactly
            # zero: the last candidate must enter, the row is not infeasible
            ([1.0, 1.0, 2.0, -2.0], [
                LpRow([2.0, -2.0, 2.0, 2.0], "<=", 0.0),
                LpRow([-2.0, -1.0, -2.0, 0.0], "=", -3.0),
                LpRow([0.0, -2.0, 2.0, 0.0], ">=", -2.0),
            ]),
        ]
        for c, rows in programs:
            problem = lp(c, rows, 0.0, 1.0)
            status, best = lp_vertex_oracle(
                problem.objective,
                [(r.coeffs, r.relation.value, r.rhs) for r in rows],
                problem.lower,
                problem.upper,
            )
            assert status == "optimal"
            for sol in (solve_lp(problem), _DualSimplex(problem).run()):
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective_value == pytest.approx(best, abs=1e-9)


def random_rows(rng, n, m):
    return [
        LpRow(rng.normal(size=n), ("<=", ">=", "=")[int(rng.integers(0, 3))], 2.0 * rng.normal())
        for _ in range(m)
    ]


def elastic_program(rows, n):
    """The least-total-violation program over the unit box, as oracle rows.

    Each direction a row can be violated in gets an elastic column of cost 1,
    capped by the largest violation the box allows.
    """
    cols = [(r, -1.0) for r, row in enumerate(rows) if row.relation is not Relation.GE]
    cols += [(r, 1.0) for r, row in enumerate(rows) if row.relation is not Relation.LE]
    oracle_rows = [
        (np.concatenate([row.coeffs, [s if q == r else 0.0 for q, s in cols]]),
         row.relation.value, row.rhs)
        for r, row in enumerate(rows)
    ]
    cap = [np.abs(rows[q].coeffs).sum() + abs(rows[q].rhs) for q, _ in cols]
    c = np.concatenate([np.zeros(n), np.ones(len(cols))])
    lower = np.zeros(n + len(cols))
    upper = np.concatenate([np.ones(n), cap])
    return c, oracle_rows, lower, upper


class TestInfeasibilityCertificate:
    def test_certificate_is_the_least_total_violation(self):
        rng = np.random.default_rng(3)
        checked = 0
        for i in range(60):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            rows = random_rows(rng, n, m)
            sol = solve_lp(lp(rng.normal(size=n), rows, 0.0, 1.0))
            if sol.status is not SolveStatus.INFEASIBLE:
                continue
            status, best = lp_vertex_oracle(*elastic_program(rows, n))
            assert status == "optimal"
            assert sol.objective_value == pytest.approx(best, rel=1e-7, abs=1e-9), f"program {i}"
            checked += 1
        assert checked >= 30

    def test_certificate_matches_highs_elastic_minimum(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(0)
        checked = 0
        for i in range(200):
            n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            rows = random_rows(rng, n, m)
            sol = solve_lp(lp(rng.normal(size=n), rows, 0.0, 1.0))
            if sol.status is not SolveStatus.INFEASIBLE:
                continue
            c, oracle_rows, lower, upper = elastic_program(rows, n)
            want = highs_objective(lp(c, [LpRow(*r) for r in oracle_rows], lower, upper), linprog)
            assert sol.objective_value == pytest.approx(want, rel=1e-7, abs=1e-9), f"program {i}"
            checked += 1
        assert checked >= 100


class TestInfiniteBoundsAgainstHighs:
    def test_seeded_programs_match_highs(self):
        # every program has a one-sided or free column, so a cost may point
        # at an infinite bound and send the dual through phase 1
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(11)
        seen = {status: 0 for status in SolveStatus}
        for i in range(300):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            kind = rng.integers(0, 4, size=n)  # boxed, lower only, upper only, free
            kind[int(rng.integers(n))] = int(rng.integers(1, 4))
            lower = np.where(kind <= 1, 0.0, -np.inf)
            upper = np.where(kind % 2 == 0, 1.0, np.inf)
            rows = random_rows(rng, n, m)
            problem = lp(rng.normal(size=n), rows, lower, upper)
            sol = solve_lp(problem)
            seen[sol.status] += 1
            # a zero objective makes HiGHS answer feasibility alone
            feasible = highs_objective(lp(np.zeros(n), rows, lower, upper), linprog) is not None
            assert feasible is (sol.status is not SolveStatus.INFEASIBLE), f"program {i}"
            if sol.status is SolveStatus.OPTIMAL:
                want = highs_objective(problem, linprog)
                assert sol.objective_value == pytest.approx(want, rel=1e-7, abs=1e-7), f"program {i}"
        assert min(seen[s] for s in (SolveStatus.OPTIMAL, SolveStatus.UNBOUNDED,
                                     SolveStatus.INFEASIBLE)) >= 50


class TestScaleAndSlack:
    def test_larger_slack_never_shrinks_pure_max(self):
        # pure maximisation of sum(p): growing the feasible set is monotone
        rng = np.random.default_rng(77)
        n = 12
        x = rng.normal(0.0, 1.0, n)
        row = x - float(np.mean(x))
        for lo, hi in [(0.05, 0.1), (0.1, 0.4), (0.4, 2.0)]:
            small = solve_lp(
                lp([-1.0] * n, [LpRow(row, "<=", lo), LpRow(row, ">=", -lo)], 0.0, 1.0)
            )
            big = solve_lp(
                lp([-1.0] * n, [LpRow(row, "<=", hi), LpRow(row, ">=", -hi)], 0.0, 1.0)
            )
            assert small.status is SolveStatus.OPTIMAL
            assert big.status is SolveStatus.OPTIMAL
            assert -big.objective_value >= -small.objective_value - 1e-9
