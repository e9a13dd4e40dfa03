import numpy as np
import pytest

from dsps import lp_core
from dsps.errors import DspsError, SolverFailure
from dsps.lp_core import LpProblem, SolveStatus, _DualSimplex, solve_lp

from oracles import box_only_oracle, from_rows, highs_objective, lp_vertex_oracle

# one-sided columns, the slack columns of inequality rows among them, put
# infinities into the ratio arithmetic, where an inf - inf or 0 * inf must
# fail a test rather than pass as a NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


lp = from_rows  # the equality-form program of (coeffs, relation, rhs) triples


class TestBasics:
    def test_box_only_maximisation(self):
        sol = solve_lp(lp([-1.0], (), 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.z[0] == 1.0
        assert sol.objective_value == -1.0

    def test_single_le_row(self):
        # min -x - y  s.t.  x + y <= 1.5, box [0,1]^2
        sol = solve_lp(lp([-1.0, -1.0], [([1.0, 1.0], "<=", 1.5)], 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-1.5, abs=1e-9)
        assert sol.max_residual <= 1e-9

    def test_equality_row(self):
        # min x  s.t.  x + y = 1, box [0,1]^2  -> x=0, y=1
        sol = solve_lp(lp([1.0, 0.0], [([1.0, 1.0], "=", 1.0)], 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_ge_row(self):
        # min x + y  s.t.  x + 2y >= 1, box [0,1]^2 -> y=0.5
        sol = solve_lp(lp([1.0, 1.0], [([1.0, 2.0], ">=", 1.0)], 0.0, 1.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_pair(self):
        rows = [([1.0], "<=", 0.25), ([1.0], ">=", 0.75)]
        sol = solve_lp(lp([1.0], rows, 0.0, 1.0))
        assert sol.status is SolveStatus.INFEASIBLE
        # certificate: can't shrink the gap below 0.5
        assert sol.objective_value == pytest.approx(0.5, abs=1e-6)

    def test_infeasible_equality_out_of_box(self):
        sol = solve_lp(lp([0.0, 0.0], [([1.0, 1.0], "=", 5.0)], 0.0, 1.0))
        assert sol.status is SolveStatus.INFEASIBLE

    # crossed bounds and an unbounded program are not programs the solver
    # takes: each is rejected on construction, before any solve

    def test_crossed_bounds_infeasible(self):
        with pytest.raises(DspsError, match="lower bound lies above its upper bound"):
            lp([1.0], (), 2.0, 1.0)

    def test_unbounded_box_only(self):
        with pytest.raises(DspsError, match="infinite upper bound"):
            lp([-1.0], (), 0.0, np.inf)

    def test_unbounded_with_row(self):
        # min -x  s.t.  y <= 1 says nothing about x, x unbounded above
        rows = [([0.0, 1.0], "<=", 1.0)]
        with pytest.raises(DspsError, match="infinite upper bound"):
            lp([-1.0, 0.0], rows, 0.0, [np.inf, 2.0])

    def test_unbounded_free_variable(self):
        rows = [([1.0, 1.0], "<=", 10.0)]
        with pytest.raises(DspsError, match="lower bounds must be finite"):
            lp([1.0, 0.0], rows, [-np.inf, 0.0], [np.inf, 1.0])

    def test_one_sided_column_optimum(self):
        # min x  s.t.  x >= -3 via row, x in [-10, inf)
        rows = [([1.0], ">=", -3.0)]
        sol = solve_lp(lp([1.0], rows, -10.0, np.inf))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)

    # a lower bound of -inf, and +inf above a negative cost, are among
    # TestProgramsWithoutRows' bound kinds
    @pytest.mark.parametrize("lower, upper", [(np.inf, np.inf), (np.nan, 1.0), (0.0, np.nan)],
                             ids=["lower +inf", "lower NaN", "upper NaN"])
    def test_bounds_outside_the_domain_rejected(self, lower, upper):
        with pytest.raises(DspsError, match="lower bounds must be finite, upper bounds not NaN"):
            lp([0.0, 1.0], (), [0.0, lower], [1.0, upper])

    @pytest.mark.parametrize("objective, message", [
        ([], "objective must have at least one entry"),
        ([1.0, np.inf], "objective entries must be finite"),
        ([np.nan, 1.0], "objective entries must be finite"),
    ], ids=["empty", "+inf", "NaN"])
    def test_objective_must_be_finite_and_nonempty(self, objective, message):
        with pytest.raises(DspsError, match=f"^{message}$"):
            LpProblem(objective, np.zeros((0, len(objective))), [], 0.0, 1.0)

    def test_iteration_limit(self, monkeypatch):
        # a budget of 0 per column leaves each run its first iteration
        problem = lp([-1.0, -2.0, -3.0], [([1.0, 1.0, 1.0], "=", 1.5)], 0.0, 1.0)
        assert solve_lp(problem).iterations == 2
        monkeypatch.setattr(lp_core, "_ITERATION_BUDGET", 0)
        with pytest.raises(SolverFailure, match="^no optimum within 1 simplex iterations$"):
            solve_lp(problem)

    def test_iteration_limit_counts_both_runs(self, monkeypatch):
        # the first run proves infeasibility in its one iteration, and the
        # elastic run takes its own one before the budget stops it
        problem = lp([0.0, 0.0], [([1.0, 1.0], "=", 5.0)], 0.0, 1.0)
        assert solve_lp(problem).iterations == 3
        monkeypatch.setattr(lp_core, "_ITERATION_BUDGET", 0)
        with pytest.raises(SolverFailure, match="^no optimum within 2 simplex iterations$"):
            solve_lp(problem)

    def test_singular_basis_is_a_solver_failure(self, monkeypatch):
        def singular(*_):
            raise np.linalg.LinAlgError("Singular matrix")

        problem = lp([-1.0, -2.0], [([1.0, 1.0], "=", 1.5)], 0.0, 1.0)
        monkeypatch.setattr(lp_core.np.linalg, "solve", singular)
        with pytest.raises(SolverFailure, match="^singular basis matrix$"):
            solve_lp(problem)

    def test_elastic_program_without_optimum_is_a_solver_failure(self, monkeypatch):
        # the elastic program is always feasible; handing back the
        # infeasible program itself stands in for a run that ends otherwise
        problem = lp([0.0, 0.0], [([1.0, 1.0], "=", 5.0)], 0.0, 1.0)
        monkeypatch.setattr(lp_core, "_elastic_program", lambda p: p)
        with pytest.raises(SolverFailure, match="^the elastic program has no optimum$"):
            solve_lp(problem)

    def test_negative_rhs_equality(self):
        sol = solve_lp(lp([0.0], [([2.0], "=", -1.0)], -2.0, 2.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.z[0] == pytest.approx(-0.5, abs=1e-9)

    def test_dimension_mismatch(self):
        # the row's slack column makes three variables, against a 1 x 2 matrix
        with pytest.raises(DspsError, match=r"a \(1, 2\) matrix with a \(1,\) rhs for 3 variables"):
            lp([1.0, 2.0], [([1.0], "<=", 1.0)], 0.0, 1.0)


# each case breaks one rule of the array form in an otherwise valid
# two-variable, one-row program
MALFORMED_ROWS = {
    "matrix too wide": ([[1.0, 1.0, 1.0]], [1.0], "matrix with"),
    "matrix rows without bounds": ([[1.0, 1.0], [1.0, 0.0]], [1.0], "matrix with"),
    "matrix not 2-D": ([1.0, 1.0], [1.0], "matrix with"),
    "infinite entry": ([[1.0, np.inf]], [1.0], "matrix and rhs entries"),
    "NaN entry": ([[np.nan, 1.0]], [1.0], "matrix and rhs entries"),
    # a row's one rhs is both of its bounds; a range row has no form
    "range row": ([[1.0, 1.0]], [0.5, 1.5], "matrix with"),
    "rhs not 1-D": ([[1.0, 1.0]], [[1.0]], "matrix with"),
    "NaN rhs": ([[1.0, 1.0]], [np.nan], "matrix and rhs entries"),
    "both bounds +inf": ([[1.0, 1.0]], [np.inf], "matrix and rhs entries"),
    "both bounds -inf": ([[1.0, 1.0]], [-np.inf], "matrix and rhs entries"),
}


class TestArrayForm:
    @pytest.mark.parametrize("case", list(MALFORMED_ROWS))
    def test_malformed_rows_rejected(self, case):
        matrix, rhs, message = MALFORMED_ROWS[case]
        with pytest.raises(DspsError, match=message):
            LpProblem([1.0, 1.0], matrix, rhs, 0.0, 1.0)

    def test_each_row_kind_accepted_and_viewed(self):
        # every row is an equality, and the rows view perfbench's HiGHS
        # yardstick reads says so; from_rows gives <= and >= rows slacks
        triples = [([1.0, 2.0], "<=", 3.0), ([1.0, -1.0], "=", 0.0), ([0.0, 1.0], ">=", -1.0)]
        problem = from_rows([1.0, 1.0], triples, 0.0, 1.0)
        assert (problem.n_rows, problem.n_vars) == (3, 4)
        assert [(r.coeffs.tolist(), r.relation.value, r.rhs) for r in problem.rows] == [
            ([1.0, 2.0, 1.0, 0.0], "=", 3.0),
            ([1.0, -1.0, 0.0, 0.0], "=", 0.0),
            ([0.0, 1.0, 0.0, -1.0], "=", -1.0),
        ]
        np.testing.assert_array_equal(problem.objective, [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(problem.lower, [0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(problem.upper, [1.0, 1.0, np.inf, np.inf])
        assert all(np.shares_memory(r.coeffs, problem.matrix) for r in problem.rows)
        assert from_rows([0.0, 1.0], (), 0.0, 1.0).rows == ()


BOUND_KINDS = {
    "boxed": (-2.0, 3.0),
    "lower only": (-2.0, np.inf),
    "upper only": (-np.inf, 3.0),
    "free": (-np.inf, np.inf),
}


class TestProgramsWithoutRows:
    """A program with no rows goes through the dual like any other.

    A column with an infinite lower bound, or with an infinite upper bound
    under a negative cost, is outside the programs the solver takes, and
    ``LpProblem`` rejects it.
    """

    def check(self, c, lower, upper):
        z = box_only_oracle(c, lower, upper)
        sol = solve_lp(lp(c, (), lower, upper))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.max_residual == 0.0
        np.testing.assert_array_equal(sol.z, z)
        assert sol.objective_value == float(np.dot(c, z))
        assert sol.iterations == 1  # the pricing pass that proves optimality

    @pytest.mark.parametrize("kind", list(BOUND_KINDS))
    @pytest.mark.parametrize("cost", [-1.5, 0.0, 1.5])
    def test_one_column_matches_the_box_rule(self, cost, kind):
        lo, hi = BOUND_KINDS[kind]
        if np.isinf(lo) or (np.isinf(hi) and cost < 0.0):
            with pytest.raises(DspsError, match="lower bounds must be finite|infinite upper bound needs a cost"):
                lp([cost], (), [lo], [hi])
        else:
            self.check([cost], [lo], [hi])

    def test_seeded_mixed_columns_match_the_box_rule(self):
        rng = np.random.default_rng(1202)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            c = rng.choice([-1.5, 0.0, 1.5], size=n) * rng.uniform(0.5, 2.0, size=n)
            lower = np.full(n, BOUND_KINDS["boxed"][0])
            upper = np.full(n, BOUND_KINDS["boxed"][1])
            # a column without an upper bound takes a cost >= 0
            one_sided = (rng.random(n) < 0.5) & (c >= 0.0)
            upper[one_sided] = BOUND_KINDS["lower only"][1]
            self.check(c, lower, upper)


class TestDeterminism:
    def test_bitwise_repeatability(self):
        rng = np.random.default_rng(5150)
        c = rng.normal(size=40)
        rows = [
            (rng.normal(size=40), rel, rng.normal())
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
        rows.append((a, rel, b))
    return c, rows


class TestAgainstVertexEnumeration:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(214365)
        checked_feasible = checked_infeasible = 0
        for i in range(50):
            c, rows = random_instance(rng)
            problem = lp(c, rows, 0.0, 1.0)
            status, best = lp_vertex_oracle(c, rows, np.zeros(c.size), np.ones(c.size))
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
                ([1.0, 1.0, 1.0], "<=", 1.0),
                ([1.0, 1.0, 0.0], "<=", 1.0),
                ([1.0, 0.0, 1.0], "<=", 1.0),
                ([0.0, 1.0, 1.0], "<=", 1.0),
            ]),
            # flipping every ratio-test candidate leaves the slope exactly
            # zero: the last candidate must enter, the row is not infeasible
            ([1.0, 1.0, 2.0, -2.0], [
                ([2.0, -2.0, 2.0, 2.0], "<=", 0.0),
                ([-2.0, -1.0, -2.0, 0.0], "=", -3.0),
                ([0.0, -2.0, 2.0, 0.0], ">=", -2.0),
            ]),
        ]
        for c, rows in programs:
            problem = lp(c, rows, 0.0, 1.0)
            status, best = lp_vertex_oracle(c, rows, np.zeros(len(c)), np.ones(len(c)))
            assert status == "optimal"
            for sol in (solve_lp(problem), _DualSimplex(problem).run()):
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective_value == pytest.approx(best, abs=1e-9)


class TestFixedColumns:
    def test_seeded_programs_match_the_vertex_oracle(self):
        # a column with lower == upper has no gap, so it is never a ratio-test
        # candidate and never enters: it must end exactly at its bound
        rng = np.random.default_rng(4321)
        seen = {status: 0 for status in SolveStatus}
        relations = set()
        for i in range(80):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            lower, upper = np.zeros(n), np.ones(n)
            fixed = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            lower[fixed] = upper[fixed] = rng.choice([0.0, 1.0, float(rng.uniform(0.1, 0.9))],
                                                     size=fixed.size)
            c = rng.normal(size=n)
            anchor = np.where(lower == upper, lower, rng.uniform(0.0, 1.0, size=n))
            feasible = rng.random() < 0.6
            rows = []
            for _ in range(m):
                a = rng.normal(size=n)
                rel = ("<=", "=", ">=")[int(rng.integers(0, 3))]
                gap = float(rng.uniform(0.0, 0.5)) if rel != "=" else 0.0
                at = float(np.dot(a, anchor))
                b = (at + gap if rel == "<=" else at - gap) if feasible else float(rng.normal())
                rows.append((a, rel, b))
                relations.add(rel)
            status, best = lp_vertex_oracle(c, rows, lower, upper)
            sol = solve_lp(lp(c, rows, lower, upper))
            seen[sol.status] += 1
            assert sol.status.value.lower() == status, f"program {i}"
            if sol.status is SolveStatus.OPTIMAL:
                assert sol.objective_value == pytest.approx(best, abs=1e-7), f"program {i}"
                np.testing.assert_array_equal(sol.z[fixed], lower[fixed], err_msg=f"program {i}")
        assert relations == {"<=", "=", ">="}
        assert min(seen.values()) >= 15


def random_rows(rng, n, m):
    return [
        (rng.normal(size=n), ("<=", ">=", "=")[int(rng.integers(0, 3))], 2.0 * rng.normal())
        for _ in range(m)
    ]


def elastic_program(rows, n):
    """The least-total-violation program over the unit box, as oracle rows.

    Each direction a row can be violated in gets an elastic column of cost 1,
    capped by the largest violation the box allows.
    """
    cols = [(r, -1.0) for r, (_, rel, _) in enumerate(rows) if rel != ">="]
    cols += [(r, 1.0) for r, (_, rel, _) in enumerate(rows) if rel != "<="]
    oracle_rows = [
        (np.concatenate([a, [s if q == r else 0.0 for q, s in cols]]), rel, b)
        for r, (a, rel, b) in enumerate(rows)
    ]
    cap = [np.abs(rows[q][0]).sum() + abs(rows[q][2]) for q, _ in cols]
    c = np.concatenate([np.zeros(n), np.ones(len(cols))])
    lower = np.zeros(n + len(cols))
    upper = np.concatenate([np.ones(n), cap])
    return c, oracle_rows, lower, upper


class TestInfeasibilityCertificate:
    def test_certificate_is_the_least_total_violation(self):
        rng = np.random.default_rng(3)
        checked = proven = 0
        for i in range(60):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            rows = random_rows(rng, n, m)
            sol = solve_lp(lp(rng.normal(size=n), rows, 0.0, 1.0))
            if sol.status is not SolveStatus.INFEASIBLE:
                assert sol.violation_bound is None
                continue
            status, best = lp_vertex_oracle(*elastic_program(rows, n))
            assert status == "optimal"
            assert sol.objective_value == pytest.approx(best, rel=1e-7, abs=1e-9), f"program {i}"
            # a safe bound never exceeds the least violation; an inequality
            # row's [0, inf) slack may leave it at -inf, unproven
            assert sol.violation_bound <= best + 1e-9 * max(1.0, best), f"program {i}"
            proven += sol.violation_bound > 0.0
            checked += 1
        assert checked >= 30 and proven >= 10

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
            want = highs_objective(lp(c, oracle_rows, lower, upper), linprog)
            assert sol.objective_value == pytest.approx(want, rel=1e-7, abs=1e-9), f"program {i}"
            checked += 1
        assert checked >= 100


class TestInfiniteBoundsAgainstHighs:
    def test_seeded_programs_match_highs(self):
        # every program has a [0, inf) column, whose cost is >= 0; its
        # infinite gap never flips in the ratio test
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(11)
        seen = {status: 0 for status in SolveStatus}
        for i in range(300):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            one_sided = rng.random(n) < 0.5
            one_sided[int(rng.integers(n))] = True
            lower = np.zeros(n)
            upper = np.where(one_sided, np.inf, 1.0)
            c = rng.normal(size=n)
            c[one_sided] = np.abs(c[one_sided])
            rows = random_rows(rng, n, m)
            problem = lp(c, rows, lower, upper)
            sol = solve_lp(problem)
            seen[sol.status] += 1
            # a zero objective makes HiGHS answer feasibility alone
            feasible = highs_objective(lp(np.zeros(n), rows, lower, upper), linprog) is not None
            assert feasible is (sol.status is not SolveStatus.INFEASIBLE), f"program {i}"
            if sol.status is SolveStatus.OPTIMAL:
                want = highs_objective(problem, linprog)
                assert sol.objective_value == pytest.approx(want, rel=1e-7, abs=1e-7), f"program {i}"
        assert min(seen[s] for s in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)) >= 50


class TestScaleAndSlack:
    def test_larger_slack_never_shrinks_pure_max(self):
        # pure maximisation of sum(p): growing the feasible set is monotone
        rng = np.random.default_rng(77)
        n = 12
        x = rng.normal(0.0, 1.0, n)
        row = x - float(np.mean(x))
        for lo, hi in [(0.05, 0.1), (0.1, 0.4), (0.4, 2.0)]:
            small = solve_lp(
                lp([-1.0] * n, [(row, "<=", lo), (row, ">=", -lo)], 0.0, 1.0)
            )
            big = solve_lp(
                lp([-1.0] * n, [(row, "<=", hi), (row, ">=", -hi)], 0.0, 1.0)
            )
            assert small.status is SolveStatus.OPTIMAL
            assert big.status is SolveStatus.OPTIMAL
            assert -big.objective_value >= -small.objective_value - 1e-9
