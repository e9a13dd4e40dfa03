"""Differential checks of the LP solver against HiGHS and against itself.

Every program here is one the selection layer builds: the solve functions
run as usual while ``solve_lp`` is recorded, and each recorded program is
solved again by ``scipy.optimize.linprog(method="highs")``, and with one more
``[0, inf)`` column pinned to zero, the kind of column an elastic or slack
variable adds.
"""


import numpy as np
import pytest

from dsps import selection
from dsps.dataset import Population
from dsps.errors import InfeasibleError
from dsps.lp_core import LpProblem, LpRow, SolveStatus, _DualSimplex, solve_lp
from dsps.selection import solve_fixed_size, solve_max_size, solve_min_size
from dsps.synthgen import (
    FeatureSpec,
    LogNormal,
    Mixture,
    Normal,
    SynthSpec,
    generate_population,
    plant_subset,
)

from oracles import highs_objective

MODES = ("max", "min", "fixed", "strict")
REL_TOL = 1e-7

# one-sided columns and the logicals of inequality rows put infinities into
# the ratio arithmetic, where an inf - inf or 0 * inf must fail a test rather
# than pass as a NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def random_population(rng):
    feats = []
    for j in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            dist = Normal(float(rng.uniform(-20, 150)), float(rng.uniform(0.5, 25)))
        elif kind == 1:
            dist = LogNormal(float(rng.uniform(0, 4)), float(rng.uniform(0.1, 0.5)))
        else:
            dist = Mixture((
                (0.6, Normal(float(rng.uniform(0, 50)), float(rng.uniform(1, 6)))),
                (0.4, Normal(float(rng.uniform(50, 120)), float(rng.uniform(1, 6)))),
            ))
        feats.append(FeatureSpec(f"f{j}", dist))
    n_p = int(rng.integers(40, 400))
    return generate_population(SynthSpec(n_p, int(rng.integers(0, 2**31)), tuple(feats)))


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

    def recording(problem, max_iterations=None):
        solution = solve_lp(problem, max_iterations)
        seen.append((problem, solution))
        return solution

    monkeypatch.setattr(selection, "solve_lp", recording)
    try:
        if mode == "max":
            solve_max_size(pop, targets, trial_size)
        elif mode == "min":
            solve_min_size(pop, targets, trial_size)
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
    rng = np.random.default_rng({"max": 71, "min": 72, "fixed": 73, "strict": 74}[mode])
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
    ``u_j``, and gets the row ``z_j <= u_j``: the same feasible set and the
    same optimum, but the column's gap is infinite, so it never flips in
    the ratio test, and the new row's logical is one-sided.  The slack
    columns of a relaxed selection program are such columns.
    """
    moved = [j for j in range(problem.n_vars)
             if problem.objective[j] >= 0.0 and np.isfinite(problem.upper[j])][-limit:]
    assert moved, "no column to uncap"
    upper = problem.upper.copy()
    upper[moved] = np.inf
    eye = np.eye(problem.n_vars)
    rows = problem.rows + tuple(LpRow(eye[j], "<=", problem.upper[j]) for j in moved)
    return LpProblem(problem.objective, rows, problem.lower, upper)


# the strict program has no slack columns, and its members cost -1 each
@pytest.mark.parametrize("mode", ("max", "min", "fixed"))
def test_box_caps_as_rows_keep_the_optimum(mode, monkeypatch):
    rng = np.random.default_rng({"max": 81, "min": 82, "fixed": 83}[mode])
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

    def recording(problem, max_iterations=None):
        seen.append((problem, solve_lp(problem, max_iterations)))
        return seen[-1][1]

    monkeypatch.setattr(_DualSimplex, "_perturb", spy)
    monkeypatch.setattr(selection, "solve_lp", recording)
    solve_max_size(pop, targets, n / 2)
    assert perturbed, "the solve never reached _perturb"
    (problem, solution), = seen
    assert solution.status is SolveStatus.OPTIMAL
    want = highs_objective(problem, linprog)
    assert abs(solution.objective_value - want) <= REL_TOL * max(1.0, abs(want))
