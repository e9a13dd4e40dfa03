"""Differential checks of the LP solver against HiGHS and against itself.

Every program here is one the selection layer builds: the solve functions
run as usual while ``solve_lp`` is recorded, and each recorded program is
solved again by ``scipy.optimize.linprog(method="highs")``, and by the dual
from a start that needs phase 1.
"""

import warnings

import numpy as np
import pytest

from dsps import selection
from dsps.errors import InfeasibleError, SmallSampleWarning
from dsps.lp_core import LpProblem, LpRow, SolveStatus, _DualSimplex, solve_lp
from dsps.selection import auto_hyperparams, solve_fixed_size, solve_max_size, solve_min_size
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

# free and one-sided columns put infinities into the ratio arithmetic, where
# an inf - inf or 0 * inf must fail a test rather than pass as a NaN
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
    hyper = auto_hyperparams(targets, float(idx.size))

    seen = []

    def recording(problem, max_iterations=None):
        solution = solve_lp(problem, max_iterations)
        seen.append((problem, solution))
        return solution

    monkeypatch.setattr(selection, "solve_lp", recording)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            if mode == "max":
                solve_max_size(pop, targets, hyper)
            elif mode == "min":
                solve_min_size(pop, targets, hyper)
            elif mode == "fixed":
                solve_fixed_size(pop, targets, float(idx.size), hyper)
            else:
                solve_max_size(pop, targets, hyper, relaxed=False)
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


def pinned_free_column(problem):
    """The program plus a free column ``t`` of cost -1, pinned by ``t = 0``.

    The same optimum, but the free column's cost points at an infinite
    bound, so the dual must run phase 1 before phase 2.
    """
    rows = [LpRow(np.append(r.coeffs, 0.0), r.relation, r.rhs) for r in problem.rows]
    rows.append(LpRow(np.append(np.zeros(problem.n_vars), 1.0), "=", 0.0))
    return LpProblem(np.append(problem.objective, -1.0), tuple(rows),
                     np.append(problem.lower, -np.inf), np.append(problem.upper, np.inf))


@pytest.mark.parametrize("mode", MODES)
def test_dual_and_primal_paths_agree(mode, monkeypatch):
    # the phase-2 start and the phase-1 start of the dual reach one optimum
    rng = np.random.default_rng({"max": 81, "min": 82, "fixed": 83, "strict": 84}[mode])
    compared = 0
    for trial in range(6):
        for problem, _ in recorded_problems(rng, mode, monkeypatch):
            boxed = _DualSimplex(problem).run()
            pinned = _DualSimplex(pinned_free_column(problem)).run()
            assert pinned.status is boxed.status, f"{mode} trial {trial}"
            if boxed.status is SolveStatus.INFEASIBLE:
                continue
            assert boxed.status is SolveStatus.OPTIMAL, f"{mode} trial {trial}"
            scale = max(1.0, abs(boxed.objective_value))
            assert abs(pinned.objective_value - boxed.objective_value) <= REL_TOL * scale
            compared += 1
    assert compared >= 3
