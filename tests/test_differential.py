"""Differential checks of the LP solver against HiGHS, against itself and against exact dual bounds.

Every program here is one the selection layer builds: the solve functions
run as usual while ``solve_lp`` is recorded, and each recorded program is
solved again by ``scipy.optimize.linprog(method="highs")``, and with one more
``[0, inf)`` column pinned to zero, the kind of column an elastic or slack
variable adds.  Above order 8, where HiGHS cannot serve, the solver's duals
are checked in exact rationals instead.
"""

import functools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dsps import lp_core, selection
from dsps.dataset import Population, feature_column
from dsps.errors import InfeasibleError, SolverFailure
from dsps.lp_core import LpProblem, SolveStatus, _DualSimplex, solve_lp
from dsps.moments import TargetCriterion, TargetSet
from dsps.selection import solve_fixed_size, solve_max_size
from dsps.synthgen import SynthSpec, generate_population, plant_subset

from oracles import dual_bound_oracle, highs_objective
from specs import lognormal, mixture, normal, synth_spec

MODES = ("max", "fixed", "strict")
REL_TOL = 1e-7

# one-sided columns, the slack columns of caps_as_rows among them, put
# infinities into the ratio arithmetic, where an inf - inf or 0 * inf must
# fail a test rather than pass as a NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_population(rng):
    feats = {}
    for j in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            dist = normal(float(rng.uniform(-20, 150)), float(rng.uniform(0.5, 25)))
        elif kind == 1:
            dist = lognormal(float(rng.uniform(0, 4)), float(rng.uniform(0.1, 0.5)))
        else:
            dist = mixture(
                (0.6, normal(float(rng.uniform(0, 50)), float(rng.uniform(1, 6)))),
                (0.4, normal(float(rng.uniform(50, 120)), float(rng.uniform(1, 6)))),
            )
        feats[f"f{j}"] = dist
    n_p = int(rng.integers(40, 400))
    return generate_population(synth_spec(n_p, int(rng.integers(0, 2**31)), feats))


def recorded_problems(rng, mode, monkeypatch):
    """Programs (with the solution handed back) from one random selection solve."""
    pop = random_population(rng)
    max_order = int(rng.integers(1, 6))
    if rng.random() < 0.5:
        order = np.argsort(pop.data[:, 0])
        lo = int(rng.integers(0, pop.n_members // 2))
        idx = order[lo:lo + max(5, pop.n_members // 4)]
    else:
        idx = rng.choice(pop.n_members, size=max(5, pop.n_members // 5), replace=False)
    targets = plant_subset(pop, idx, orders=tuple(range(1, max_order + 1)))
    trial_size = float(idx.size)

    seen = []

    def recording(problem):
        solution = solve_lp(problem)
        seen.append((problem, solution))
        return solution

    monkeypatch.setattr(selection, "solve_lp", recording)
    try:
        if mode == "max":
            solve_max_size(pop, targets, trial_size)
        elif mode == "fixed":
            solve_fixed_size(pop, targets, trial_size)
        else:
            solve_max_size(pop, targets, trial_size, relaxed=False)
    except InfeasibleError:
        pass
    finally:
        monkeypatch.undo()
    return seen


@pytest.mark.parametrize("mode", MODES)
def test_selection_programs_match_highs(mode, monkeypatch):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng({"max": 71, "fixed": 73, "strict": 74}[mode])
    solved = 0
    for trial in range(12):
        for problem, solution in recorded_problems(rng, mode, monkeypatch):
            want = highs_objective(problem, linprog)
            if want is None:
                assert solution.status is SolveStatus.INFEASIBLE, f"{mode} trial {trial}"
                continue
            assert solution.status is SolveStatus.OPTIMAL, f"{mode} trial {trial}"
            gap = abs(solution.objective_value - want) / max(1.0, abs(want))
            assert gap <= REL_TOL, f"{mode} trial {trial}: gap {gap:.2e}"
            solved += 1
    assert solved >= 6


def caps_as_rows(problem, limit=8):
    """The program with the box caps of its last ``limit`` columns of cost >= 0 as rows.

    Each such column keeps its lower bound, loses its finite upper bound
    ``u_j``, and gets the row ``z_j + s_j = u_j`` with a new slack column
    ``s_j`` in ``[0, inf)`` at cost 0: the same feasible set and the same
    optimum, but neither column's gap is finite, so neither flips in the
    ratio test.  The slack columns of a relaxed selection program are such
    columns.
    """
    n, m = problem.n_vars, problem.n_rows
    moved = [j for j in range(n)
             if problem.objective[j] >= 0.0 and np.isfinite(problem.upper[j])][-limit:]
    assert moved, "no column to uncap"
    k = len(moved)
    upper = problem.upper.copy()
    upper[moved] = np.inf
    return LpProblem(
        np.concatenate([problem.objective, np.zeros(k)]),
        np.block([[problem.matrix, np.zeros((m, k))], [np.eye(n)[moved], np.eye(k)]]),
        np.concatenate([problem.rhs, problem.upper[moved]]),
        np.concatenate([problem.lower, np.zeros(k)]),
        np.concatenate([upper, np.full(k, np.inf)]),
    )


# the strict program has no slack columns, and its members cost -1 each
@pytest.mark.parametrize("mode", ("max", "fixed"))
def test_box_caps_as_rows_keep_the_optimum(mode, monkeypatch):
    rng = np.random.default_rng({"max": 81, "fixed": 83}[mode])
    compared = 0
    for trial in range(6):
        for problem, _ in recorded_problems(rng, mode, monkeypatch):
            boxed = _DualSimplex(problem).run()
            uncapped = _DualSimplex(caps_as_rows(problem)).run()
            assert uncapped.status is boxed.status, f"{mode} trial {trial}"
            if boxed.status is SolveStatus.INFEASIBLE:
                continue
            assert boxed.status is SolveStatus.OPTIMAL, f"{mode} trial {trial}"
            scale = max(1.0, abs(boxed.objective_value))
            assert abs(uncapped.objective_value - boxed.objective_value) <= REL_TOL * scale
            compared += 1
    assert compared >= 3


def test_max_mode_on_a_tied_column_perturbs_and_matches_highs(monkeypatch):
    # a column of integers 0-4 ties many reduced costs, so the dual stalls
    # on degenerate pivots and spreads its costs with _perturb; seed 47 was
    # picked by a search over seeds 0-99 as the first to reach that path
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(47)
    n = 30
    data = np.column_stack([rng.integers(0, 5, n).astype(float), rng.normal(0.0, 1.0, n)])
    pop = Population(tuple(f"m{i}" for i in range(n)), ("tied", "smooth"), data)
    targets = plant_subset(pop, rng.choice(n, size=n // 2, replace=False), orders=(1, 2))
    perturbed, seen = [], []
    spread = _DualSimplex._perturb

    def spy(self):
        perturbed.append(self.iterations)
        spread(self)

    def recording(problem):
        seen.append((problem, solve_lp(problem)))
        return seen[-1][1]

    monkeypatch.setattr(_DualSimplex, "_perturb", spy)
    monkeypatch.setattr(selection, "solve_lp", recording)
    solve_max_size(pop, targets, n / 2)
    assert perturbed, "the solve never reached _perturb"
    (problem, solution), = seen
    assert solution.status is SolveStatus.OPTIMAL
    want = highs_objective(problem, linprog)
    assert abs(solution.objective_value - want) <= REL_TOL * max(1.0, abs(want))


@pytest.mark.parametrize("seed", [1, 3])
def test_bland_rule_reaches_the_highs_optimum(seed, monkeypatch):
    # with every step counted as degenerate, the dual perturbs its costs and
    # then stays on the smallest-index leaving row, so the Bland branch of
    # _leaving_row runs to the optimum; the population mixes the benchmark's
    # three marginal shapes, and 30 planted members set targets at orders 1-4
    linprog = pytest.importorskip("scipy.optimize").linprog
    features = {
        "normal": normal(150.0, 25.0),
        "lognormal": lognormal(4.2, 0.2),
        "mixture": mixture((0.7, lognormal(2.5, 0.4)), (0.3, normal(30.0, 5.0))),
    }
    pop = generate_population(synth_spec(300, seed, features))
    rng = np.random.default_rng(seed)
    targets = plant_subset(pop, rng.choice(300, size=30, replace=False), orders=(1, 2, 3, 4))
    bland_rows, seen = [], []
    leaving_row = _DualSimplex._leaving_row

    def spy(self, bland):
        if bland:
            bland_rows.append(self.iterations)
        return leaving_row(self, bland)

    def recording(problem):
        seen.append((problem, solve_lp(problem)))
        return seen[-1][1]

    monkeypatch.setattr(lp_core, "_DEGEN_TOL", np.inf)
    monkeypatch.setattr(_DualSimplex, "_leaving_row", spy)
    monkeypatch.setattr(selection, "solve_lp", recording)
    solve_max_size(pop, targets, 30.0)
    assert bland_rows, "the solve never took the Bland rule"
    (problem, solution), = seen
    assert solution.status is SolveStatus.OPTIMAL
    want = highs_objective(problem, linprog)
    assert abs(solution.objective_value - want) <= REL_TOL * max(1.0, abs(want))


@functools.cache
def high_order_sweep():
    """Every select of a seeded subset of high-order targets on the demo population.

    Each target set is one order-1 target (``glucose`` or ``weight`` at its
    mean or 0.1 SD above it, or ``glucose`` at 150.1) and one criterion of the
    same feature of order 5-40 whose target is 3, 1e3 or -50, solved in
    ``max`` and ``fixed`` at trial size 50.  A record is the mode, the order,
    the error raised (``None`` at exit 0), the main program and each
    ``(problem, y, bound)`` that ``lp_core._violation_bound`` was given and
    returned.
    """
    demo = Path(__file__).resolve().parent.parent / "demo"
    pop = generate_population(SynthSpec.from_json((demo / "spec.json").read_text()))
    rng = np.random.default_rng(41)
    firsts = [("glucose", 150.1)]
    for feature in ("glucose", "weight"):
        x = feature_column(pop, feature)
        firsts += [(feature, float(np.mean(x))),
                   (feature, float(np.mean(x) + 0.1 * np.std(x, ddof=1)))]
    records = []
    programs, bounds = [], []
    violation_bound = lp_core._violation_bound

    def recording(problem):
        programs.append(problem)
        return solve_lp(problem)

    def bounding(problem, y):
        bound = violation_bound(problem, y)
        bounds.append((problem, y, bound))
        return bound

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selection, "solve_lp", recording)
        mp.setattr(lp_core, "_violation_bound", bounding)
        for feature, mean in firsts:
            for order in rng.choice(np.arange(5, 41), size=2, replace=False):
                value = float(rng.choice([3.0, 1e3, -50.0]))
                targets = TargetSet((TargetCriterion(feature, 1, mean),
                                     TargetCriterion(feature, int(order), value)))
                for mode, solve in (("max", solve_max_size), ("fixed", solve_fixed_size)):
                    programs.clear()
                    bounds.clear()
                    try:
                        solve(pop, targets, 50.0)
                        error = None
                    except (InfeasibleError, SolverFailure) as exc:
                        error = exc
                    records.append((mode, int(order), error, programs[0], list(bounds)))
    return records


def test_every_exit_two_has_a_positive_safe_bound():
    # an infeasible main run ends in exit 2 exactly when the bound from the
    # elastic duals is positive, and that float bound never exceeds the same
    # bound in exact rationals, so a positive one proves the verdict
    classes = {"exit 2": 0, "exit 4": 0}
    for mode, order, error, _, bounds in high_order_sweep():
        if not bounds:
            continue
        [(problem, y, bound)] = bounds
        exact = dual_bound_oracle(np.zeros(problem.n_vars), problem.matrix, problem.rhs,
                                  problem.lower, problem.upper, np.clip(y, -1.0, 1.0))
        assert bound == -np.inf or Fraction(bound) <= exact, f"{mode} order {order}"
        if isinstance(error, InfeasibleError):
            assert bound > 0.0, f"{mode} order {order}"
            # the bound and the elastic certificate bracket the least violation
            assert bound <= error.violation * (1.0 + 1e-9), f"{mode} order {order}"
            classes["exit 2"] += 1
        else:
            assert isinstance(error, SolverFailure) and not bound > 0.0, f"{mode} order {order}"
            classes["exit 4"] += 1
    assert classes == {"exit 2": 3, "exit 4": 3}


# |objective - bound| / max(1, |objective|).  The main run may perturb its
# costs, each by at most half the optimality tolerance, and its duals follow:
# 500 members at 0.5e-9 each move the fixed-mode bound by up to 2.5e-7.  On
# all 579 exit-0 solves of the full sweep (orders 5-40, every order-1 target
# and value) the gap reached 2.0e-10 in max (366 solves) and 1.1e-7 in fixed
# (213 solves, 90 of them perturbed)
DUAL_GAP = {"max": 1e-9, "fixed": 3e-7}


def test_exit_zero_objectives_meet_their_exact_dual_bound_at_high_orders():
    # weak duality: any duals bound the optimum from below, so the main run's
    # own duals, evaluated in exact rationals, must come within DUAL_GAP of
    # its objective; HiGHS cannot serve as this oracle above order 8
    solves = {"max": 0, "fixed": 0}
    for mode, order, error, problem, _ in high_order_sweep():
        if error is not None:
            continue
        simplex = _DualSimplex(problem)
        objective = simplex.run().objective_value
        exact = dual_bound_oracle(problem.objective, problem.matrix, problem.rhs,
                                  problem.lower, problem.upper, simplex.y)
        gap = abs(Fraction(objective) - exact) / max(1, abs(Fraction(objective)))
        assert gap <= DUAL_GAP[mode], f"{mode} order {order}: gap {float(gap):.2e}"
        solves[mode] += 1
    assert solves == {"max": 7, "fixed": 6}
