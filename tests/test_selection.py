import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsps import lp_core, selection
from dsps.dataset import Population, feature_column
from dsps.errors import DspsError, InfeasibleError
from dsps.moments import TargetCriterion, TargetSet, expected_moment, moment_terms
from dsps.realize import draw_best
from dsps.selection import (
    ALPHA_FRACTION,
    build_lp_system,
    solve_fixed_size,
    solve_max_size,
)

from dsps.synthgen import generate_population, plant_subset

from oracles import best_subset_objective
from specs import lognormal, mixture, normal, synth_spec


def make_pop(columns: dict) -> Population:
    names = tuple(columns)
    data = np.column_stack([np.asarray(columns[k], dtype=float) for k in names])
    ids = tuple(f"m{i}" for i in range(data.shape[0]))
    return Population(ids, names, data)


def targets_of(*criteria) -> TargetSet:
    return TargetSet(tuple(TargetCriterion(f, k, v) for f, k, v in criteria))


def own_moment_targets(pop: Population, orders=(1, 2)) -> TargetSet:
    """Each feature's own sample moments, so p = ones is exactly feasible."""
    crit = []
    for j, name in enumerate(pop.feature_names):
        x = pop.data[:, j]
        mu = float(np.mean(x))
        var = float(np.sum((x - mu) ** 2) / (len(x) - 1))
        for k in orders:
            if k == 1:
                crit.append(TargetCriterion(name, 1, mu))
            elif k == 2:
                crit.append(TargetCriterion(name, 2, var))
            else:
                raise AssertionError("helper only covers orders 1 and 2")
    return TargetSet(tuple(crit))


def subset_targets(pop: Population, idx) -> TargetSet:
    """Mean and unbiased variance of the subset at ``idx``, per feature."""
    crit = []
    for j, name in enumerate(pop.feature_names):
        x = pop.data[idx, j]
        mu = float(np.mean(x))
        var = float(np.sum((x - mu) ** 2) / (len(x) - 1))
        crit.append(TargetCriterion(name, 1, mu))
        crit.append(TargetCriterion(name, 2, var))
    return TargetSet(tuple(crit))


def shifted_mean_targets(feature_scale: float, mean_factor: float):
    """100 members, two features times ``feature_scale``; a random 20 planted at
    orders 1-4, with each mean target times ``mean_factor``."""
    rng = np.random.default_rng(14)
    pop = make_pop({
        "a": rng.normal(100, 20, 100) * feature_scale,
        "b": rng.lognormal(3, 0.6, 100) * feature_scale,
    })
    planted = plant_subset(pop, rng.choice(100, 20, replace=False), orders=(1, 2, 3, 4))
    return pop, TargetSet(tuple(
        TargetCriterion(c.feature, 1, c.value * mean_factor) if c.order == 1 else c
        for c in planted
    ))


class TestBuildLpSystem:
    def test_mean_row_three_members(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        system = build_lp_system(pop, targets_of(("f", 1, 2.0)))
        # the row x - 2, scaled by 1/(|t| + epsilon)
        scale = 1.0 / (2.0 + 1e-6)
        assert system.matrix.tolist() == [[-scale, 0.0, scale]]
        assert system.rhs.tolist() == [0.0]
        assert system.row_labels == (("f", 1),)

    def test_variance_row_two_members(self):
        pop = make_pop({"f": [0.0, 2.0]})
        system = build_lp_system(pop, targets_of(("f", 1, 1.0), ("f", 2, 1.0)))
        # deviations from the target mean are +-1, so the variance row vanishes
        assert system.matrix[1].tolist() == [0.0, 0.0]
        assert system.rhs[1] == -1.0 / (1.0 + 1e-6)
        assert system.row_labels == (("f", 1), ("f", 2))

    def test_rows_match_entrywise_recomputation(self):
        rng = np.random.default_rng(5150)
        pop = make_pop({"a": rng.normal(3, 1, 7), "b": rng.normal(-2, 2, 7)})
        targets = targets_of(
            ("a", 1, 3.1), ("a", 2, 0.9), ("a", 3, 0.2), ("a", 4, -0.3),
            ("b", 1, -2.2), ("b", 2, 4.4), ("b", 5, 1.7),
        )
        system = build_lp_system(pop, targets)
        by_label = dict(zip(system.row_labels, range(system.n_rows)))
        values = {(c.feature, c.order): c.value for c in targets}
        for feature, col in (("a", 0), ("b", 1)):
            x = pop.data[:, col]
            for order in (1, 2, 3, 4, 5):
                if (feature, order) not in values:
                    continue
                t = values[(feature, order)]
                j = by_label[(feature, order)]
                for i, xi in enumerate(x):
                    if order == 1:
                        want, rhs = xi - t, 0.0
                    else:
                        d = xi - values[(feature, 1)]
                        if order == 2:
                            want, rhs = d * d - t, -t
                        elif order == 3:
                            m2 = values[(feature, 2)]
                            want, rhs = d**3 - m2**1.5 * t, 0.0
                        elif order == 4:
                            m2 = values[(feature, 2)]
                            want, rhs = d**4 - m2**2 * (t + 3.0), 0.0
                        else:
                            want, rhs = d**order - t, 0.0
                    scale = 1.0 / (abs(t) + 1e-6)
                    assert system.matrix[j, i] == pytest.approx(want * scale, rel=1e-12, abs=1e-12)
                    assert system.rhs[j] == pytest.approx(rhs * scale, rel=1e-12, abs=1e-12)

    def test_rows_agree_with_the_reported_expected_moment(self):
        # A_j p - C_j is the scaled row's residual; scaled back by the moment
        # terms and the row scale it must equal the gap between the p-weighted
        # moment and the target
        rng = np.random.default_rng(4242)
        for trial in range(5):
            pop = make_pop({"a": rng.normal(10, 3, 50), "b": rng.lognormal(1, 0.5, 50)})
            targets = targets_of(*(
                (f, k, float(rng.normal(0, 2)) if k != 2 else float(rng.uniform(0.5, 9)))
                for f in ("a", "b") for k in (1, 2, 3, 4, 5)
            ))
            p = rng.uniform(0.0, 1.0, 50)
            system = build_lp_system(pop, targets)
            values = {(c.feature, c.order): c.value for c in targets}
            for j, (feature, order) in enumerate(system.row_labels):
                x = feature_column(pop, feature)
                t1, t2 = values[(feature, 1)], values[(feature, 2)]
                dof, scale, _ = moment_terms(order, t2)
                moment = expected_moment(x, p, order, t1, t2)
                got = system.matrix[j] @ p - system.rhs[j]
                t = values[(feature, order)]
                want = (moment - t) * (p.sum() - dof) * scale / (abs(t) + 1e-6)
                assert got == pytest.approx(want, rel=1e-9), (trial, feature, order)

    def test_rows_sorted_by_order_then_position(self):
        pop = make_pop({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        targets = targets_of(
            ("b", 1, 3.5), ("b", 2, 0.5), ("a", 1, 1.5), ("a", 2, 0.5)
        )
        system = build_lp_system(pop, targets)
        assert system.row_labels == (("b", 1), ("a", 1), ("b", 2), ("a", 2))

    def test_rows_are_scaled_by_their_target(self):
        # the rows x - 2 and (x - 2)^2 - 2 with rhs 0 and -2, each times
        # 1/(|t| + epsilon), bit for bit
        pop = make_pop({"f": [1.0, 2.0, 4.0]})
        system = build_lp_system(pop, targets_of(("f", 1, 2.0), ("f", 2, 2.0)))
        scale = 1.0 / (2.0 + 1e-6)
        assert system.matrix.tolist() == [
            [-1.0 * scale, 0.0 * scale, 2.0 * scale],
            [-1.0 * scale, -2.0 * scale, 2.0 * scale],
        ]
        assert system.rhs.tolist() == [0.0 * scale, -2.0 * scale]

    def test_empty_target_set_builds_zero_rows(self):
        pop = make_pop({"f": [1.0, 2.0]})
        system = build_lp_system(pop, TargetSet(()))
        assert system.n_rows == 0
        assert system.matrix.shape == (0, 2)

    @pytest.mark.parametrize("criteria", [
        (("f", 1, 150.0), ("f", 200, 1.0)),
        (("f", 1, 150.0), ("f", 2, 1e200), ("f", 4, 1.0)),
    ], ids=["order 200", "squared variance"])
    def test_overflowing_row_is_an_invalid_criterion(self, criteria):
        # a deviation of 40 to the 200th power, or the squared variance that
        # standardises order 4, leaves float64: the criterion is named, and
        # no RuntimeWarning or OverflowError escapes first
        pop = make_pop({"f": [120.0, 150.0, 190.0]})
        feature, order, _ = criteria[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DspsError, match=re.escape(f"({feature!r}, {order}) overflows")):
                build_lp_system(pop, targets_of(*criteria))


class TestHyperParams:
    """The slack budget ``alpha``, 5 % of the trial size."""

    def test_auto_from_trial_size(self):
        # mean 8 and variance 2 are planted by the members 7 and 9
        pop = make_pop({"f": [7.0, 9.0, 20.0]})
        targets = targets_of(("f", 1, 8.0), ("f", 2, 2.0))
        sel = solve_max_size(pop, targets, 413.0)
        assert sel.alpha == pytest.approx(20.65)
        assert sel.alpha == ALPHA_FRACTION * 413.0
        # each row carries its own scale, so one cap serves every criterion
        system = build_lp_system(pop, targets)
        np.testing.assert_allclose(
            system.matrix[:, 2], [12.0 / (8.0 + 1e-6), 142.0 / (2.0 + 1e-6)]
        )
        assert len(sel.eta) == system.n_rows and np.all(sel.eta <= sel.alpha + 1e-7)

    def test_auto_rejects_nonpositive_trial_size(self):
        pop = make_pop({"f": [7.0, 9.0, 20.0]})
        with pytest.raises(DspsError, match="trial size must be finite and positive, got 0.0"):
            solve_max_size(pop, targets_of(("f", 1, 8.0)), 0.0)

    def test_auto_zero_target_falls_back_to_epsilon(self):
        # a zero target would blow up 1/|t|; epsilon keeps the row finite
        pop = make_pop({"f": [-1.0, 1.0, 3.0]})
        targets = targets_of(("f", 1, 0.0))
        assert build_lp_system(pop, targets).matrix[0].tolist() == pytest.approx([-1e6, 1e6, 3e6])
        sel = solve_max_size(pop, targets, 20.0)
        assert sel.alpha == 1.0 and sel.eta[0] <= sel.alpha + 1e-7

    def test_validation(self):
        pop = make_pop({"f": [7.0, 9.0, 20.0]})
        targets = targets_of(("f", 1, 8.0))
        with pytest.raises(DspsError, match="trial size must be finite and positive, got -3.0"):
            solve_max_size(pop, targets, -3.0)
        # checked even where the program has no slack to size
        with pytest.raises(DspsError, match="trial size must be finite and positive, got -3.0"):
            solve_max_size(pop, targets, -3.0, relaxed=False)

    @pytest.mark.parametrize("solve", [
        solve_max_size,
        solve_fixed_size,
    ], ids=["max", "fixed"])
    def test_relaxed_rows_without_a_trial_size_are_missing_a_hyperparam(self, solve):
        pop = make_pop({"f": [7.0, 9.0, 20.0]})
        with pytest.raises(DspsError, match="need a trial size"):
            solve(pop, targets_of(("f", 1, 8.0)))

    def test_a_missing_trial_size_is_reported_before_an_overflowing_row(self):
        # solve_max_size checks its arguments before any row is built
        pop = make_pop({"f": [98.0, 100.0, 103.0]})
        targets = targets_of(("f", 1, 1.0), ("f", 200, 1.0))
        with pytest.raises(DspsError, match="need a trial size"):
            solve_max_size(pop, targets)
        with pytest.raises(DspsError, match=r"the row of \('f', 200\) overflows float64"):
            solve_max_size(pop, targets, relaxed=False)

    @pytest.mark.parametrize("solve", [
        solve_max_size,
        partial(solve_max_size, relaxed=False),
        solve_fixed_size,
    ], ids=["max", "max-strict", "fixed"])
    def test_solver_reads_the_built_rows(self, solve, monkeypatch):
        # one representation: the program solved holds build_lp_system's rows
        # as they are, and every slack is capped by alpha alone, 0 in strict mode
        rng = np.random.default_rng(35)
        pop = make_pop({"a": rng.normal(150, 25, 60), "b": rng.lognormal(3, 0.5, 60)})
        targets = plant_subset(pop, rng.choice(60, 20, replace=False), orders=(1, 2, 3, 4))
        seen = []

        def recording(problem):
            seen.append(problem)
            return lp_core.solve_lp(problem)

        monkeypatch.setattr(selection, "solve_lp", recording)
        sel = solve(pop, targets, 20.0)
        (problem,) = seen
        system = build_lp_system(pop, targets)
        k, n = system.n_rows, pop.n_members
        assert problem.matrix[:k, :n].tobytes() == system.matrix.tobytes()
        assert problem.rhs[:k].tobytes() == system.rhs.tobytes()
        assert problem.n_vars == n + 2 * k
        assert np.all(problem.upper[n:] == sel.alpha)

    @pytest.mark.parametrize("trial_size", [np.inf, np.nan, 0.0], ids=["inf", "nan", "zero"])
    def test_given_trial_size_out_of_range_is_an_invalid_sample_size(self, trial_size):
        # the setting was given, so it is not a missing hyperparameter
        pop = make_pop({"f": [7.0, 9.0, 20.0]})
        with pytest.raises(DspsError, match="trial size must be finite and positive") as info:
            solve_max_size(pop, targets_of(("f", 1, 8.0)), trial_size)
        assert "need a trial size" not in str(info.value)


class TestSolveMaxSize:
    def test_population_matching_own_moments_selects_everyone(self):
        rng = np.random.default_rng(77)
        pop = make_pop({"a": rng.normal(5, 1, 25), "b": rng.normal(0, 2, 25)})
        targets = own_moment_targets(pop)
        sel = solve_max_size(pop, targets, 25.0)
        np.testing.assert_allclose(sel.p, np.ones(25), atol=1e-8)
        assert sel.expected_size == pytest.approx(25.0, abs=1e-7)
        assert np.all(sel.eta <= 1e-7 * (np.abs(sel.eta) + 1.0))

    def test_strict_solve_matches_on_exact_instance(self):
        rng = np.random.default_rng(78)
        pop = make_pop({"a": rng.normal(5, 1, 12)})
        targets = own_moment_targets(pop)
        sel = solve_max_size(pop, targets, relaxed=False)
        assert sel.alpha == 0.0 and sel.eta.tolist() == [0.0] * len(targets)
        np.testing.assert_allclose(sel.p, np.ones(12), atol=1e-8)

    def test_expected_size_dominates_best_subset(self):
        # every 0/1 selection within the slack caps is a feasible point of the
        # relaxed program, so the optimum's objective is never above its
        # objective -|S| + sum |r_j|
        rng = np.random.default_rng(31337)
        pop = make_pop({"a": rng.normal(4, 1.5, 12)})
        idx = np.array([0, 2, 3, 7, 8, 11])
        targets = subset_targets(pop, idx)
        system = build_lp_system(pop, targets)
        sel = solve_max_size(pop, targets, 0.05 / ALPHA_FRACTION)
        best = best_subset_objective(system.matrix, system.rhs, 0.05)
        # the planted subset meets every row exactly
        assert best is not None and best <= -idx.size + 1e-9
        assert sel.solver.objective_value <= best + 1e-7

    def test_residuals_within_reported_eta(self):
        rng = np.random.default_rng(88)
        pop = make_pop({"a": rng.normal(1, 1, 30), "b": rng.normal(6, 3, 30)})
        idx = np.arange(0, 30, 3)
        targets = subset_targets(pop, idx)
        sel = solve_max_size(pop, targets, 10.0)
        system = build_lp_system(pop, targets)
        resid = np.abs(system.matrix @ sel.p - system.rhs)
        assert np.all(resid <= sel.eta + 1e-7)
        assert np.all(sel.eta <= sel.alpha + 1e-7)

    def test_eta_is_in_scaled_row_units(self):
        # a row's residual is (sum(p) - dof) * scale * (m - t) / (|t| + epsilon)
        # for the weighted moment m: a relative miss times that factor
        pop, targets = shifted_mean_targets(1.0, 1.1)
        sel = solve_max_size(pop, targets, 100.0)
        assert np.count_nonzero(sel.eta) >= 3  # both means and a variance use slack
        total = float(np.sum(sel.p))
        values = {(c.feature, c.order): c.value for c in targets}
        for j, c in enumerate(sorted(targets, key=lambda c: c.order)):
            m1, m2 = values[(c.feature, 1)], values[(c.feature, 2)]
            dof, scale, _ = moment_terms(c.order, m2)
            m = expected_moment(feature_column(pop, c.feature), sel.p, c.order, m1, m2)
            assert sel.eta[j] == pytest.approx(
                (total - dof) * scale * abs(m - c.value) / (abs(c.value) + 1e-6),
                rel=1e-9, abs=1e-7,
            ), c

    def test_huge_trial_size_solves_without_overflow(self):
        # alpha = 5e306 caps each slack near the float64 limit, so a flip's
        # |a_j| * gap_j in the ratio test overflows: that turns the slope at
        # once, as an infinite gap does, and warns of nothing
        pop, targets = shifted_mean_targets(0.01, 1.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = solve_max_size(pop, targets, 1e308)
        assert huge.p.tobytes() == solve_max_size(pop, targets, 1e307).p.tobytes()

    def test_widening_eta_max_cannot_shrink_the_optimum(self):
        # a wider alpha widens every slack cap, so the optimum of the wider
        # program is at most that of the tighter one
        rng = np.random.default_rng(89)
        pop = make_pop({"a": rng.normal(0, 1, 15)})
        idx = np.array([1, 4, 6, 9, 13])
        targets = subset_targets(pop, idx)
        objectives = []
        for alpha in (0.05, 0.1):
            sel = solve_max_size(pop, targets, alpha / ALPHA_FRACTION)
            objectives.append(sel.solver.objective_value)
        assert objectives[1] <= objectives[0] + 1e-9

    def test_unreachable_target_with_tight_slack_is_infeasible(self):
        # every variance-row entry is large and positive while the rhs is -1,
        # so no p >= 0 can come within the slack budget
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        targets = targets_of(("f", 1, 50.0), ("f", 2, 1.0))
        with pytest.raises(InfeasibleError) as err:
            solve_max_size(pop, targets, 0.5 / ALPHA_FRACTION)
        assert err.value.violation > 0.0

    def test_strict_unreachable_target_is_infeasible(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        targets = targets_of(("f", 1, 50.0), ("f", 2, 1.0))
        with pytest.raises(InfeasibleError):
            solve_max_size(pop, targets, relaxed=False)

    def test_strict_mean_above_max_is_infeasible(self):
        # no convex combination of the values reaches 50; the only vector
        # satisfying the centred row is p = 0, which must not count
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        with pytest.raises(InfeasibleError) as err:
            solve_max_size(pop, targets_of(("f", 1, 50.0)), relaxed=False)
        assert err.value.violation == 0.0

    def test_relaxed_tiny_positive_mass_is_still_optimal(self):
        # a nonzero slack budget admits a sliver of probability mass, which
        # is a legitimate (if useless) optimum rather than an infeasibility:
        # each unit of p on the member at 3 costs 47/(50 + 1e-6) < 1 of slack
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        sel = solve_max_size(pop, targets_of(("f", 1, 50.0)), 0.01 / ALPHA_FRACTION)
        assert sel.expected_size == pytest.approx(0.01 * (50.0 + 1e-6) / 47.0)

    def test_empty_targets_select_everyone(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0, 4.0]})
        sel = solve_max_size(pop, TargetSet(()))
        np.testing.assert_array_equal(sel.p, np.ones(4))
        assert sel.eta.shape == (0,) and sel.alpha == 0.0
        assert sel.expected_size == 4.0

    def test_rescaling_a_feature_leaves_the_size_unchanged(self):
        # row conditioning divides by |target| + eps, so consistent unit
        # changes must not move the optimum
        rng = np.random.default_rng(90)
        pop = make_pop({"a": rng.normal(8, 1.2, 120), "b": rng.normal(120, 25, 120)})
        idx = np.argsort(pop.data[:, 0] + 0.02 * pop.data[:, 1])[20:60]
        targets = subset_targets(pop, idx)
        sel = solve_max_size(pop, targets, 40.0)

        lam = 1000.0
        scaled = pop.data.copy()
        scaled[:, 0] *= lam
        pop2 = Population(pop.member_ids, pop.feature_names, scaled)
        crit = []
        for c in targets:
            v = c.value
            if c.feature == "a":
                v *= lam if c.order == 1 else lam**2
            crit.append(TargetCriterion(c.feature, c.order, v))
        targets2 = TargetSet(tuple(crit))
        sel2 = solve_max_size(pop2, targets2, 40.0)
        assert sel2.expected_size == pytest.approx(sel.expected_size, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=3,
            max_size=9,
        )
    )
    def test_own_moments_always_recover_everyone(self, values):
        x = np.asarray(values, dtype=float)
        if np.ptp(x) < 1e-3:
            return
        pop = make_pop({"f": x})
        targets = own_moment_targets(pop)
        sel = solve_max_size(pop, targets, float(len(x)))
        assert sel.expected_size == pytest.approx(len(x), abs=1e-6)


    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    )
    # two equal members make equal columns, whose roundoff tableau entry of
    # about 1e-5 against 1e10 made the dual enter a copy of a basic column
    @example([0.11066836690063347, 5.945608352826286, 47.560085438613676,
              12.272186462481997, 47.560085438613676], 0.0)
    def test_near_zero_skewness_target_recovers_everyone(self, half, center):
        # a population symmetric about its centre has skewness ~0, so the
        # skewness row is scaled by about 1/epsilon = 1e6
        x = np.concatenate([center + np.asarray(half), center - np.asarray(half)])
        pop = make_pop({"f": x})
        targets = plant_subset(pop, np.arange(x.size), orders=(1, 2, 3))
        values = {(c.feature, c.order): c.value for c in targets}
        assert abs(values[("f", 3)]) < 1e-6
        sel = solve_max_size(pop, targets, float(x.size))
        assert sel.expected_size == pytest.approx(x.size, abs=1e-6)
        system = build_lp_system(pop, targets)
        # rounding in a row sum grows with the magnitude of its terms
        slack_tol = 1e-7 + 1e-12 * (np.abs(system.matrix) @ sel.p)
        assert np.all(np.abs(system.matrix @ sel.p - system.rhs) <= sel.eta + slack_tol)
        assert np.all(sel.eta <= sel.alpha + slack_tol)

    @pytest.fixture
    def dual_only(self, monkeypatch):
        """Fail any solve whose dual run ends infeasible and needs the elastic program."""

        def no_elastic(*args, **kwargs):
            raise AssertionError("the dual called a feasible boxed program infeasible")

        monkeypatch.setattr(lp_core, "_elastic_program", no_elastic)

    @staticmethod
    def solve_symmetric(half, center):
        """Max-size solve of a symmetric population planted at orders 1-3."""
        x = np.concatenate([center + np.asarray(half), center - np.asarray(half)])
        pop = make_pop({"f": x})
        targets = plant_subset(pop, np.arange(x.size), orders=(1, 2, 3))
        return solve_max_size(pop, targets, float(x.size))

    @pytest.mark.usefixtures("dual_only")
    def test_recorded_population_needs_no_primal(self):
        # the roundoff entry of this population's skewness row once entered
        # the dual's basis as a copy of a basic column
        half = [0.11066836690063347, 5.945608352826286, 47.560085438613676,
                12.272186462481997, 47.560085438613676]
        sel = self.solve_symmetric(half, 0.0)
        assert sel.expected_size == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.usefixtures("dual_only")
    @pytest.mark.parametrize("seed", [6, 49])
    def test_symmetric_populations_need_no_primal(self, seed):
        # each seed's sample holds one population on which an absolute pivot
        # threshold of 1e-10 made the dual's basis singular
        rng = np.random.default_rng(seed)
        for _ in range(30):
            k = int(rng.integers(1, 8))
            half = rng.uniform(0.01, 50.0, k)
            half = np.append(half, half[int(rng.integers(k))])
            center = 0.0 if rng.random() < 0.5 else float(rng.uniform(-100.0, 100.0))
            sel = self.solve_symmetric(half, center)
            assert sel.expected_size == pytest.approx(2 * half.size, abs=1e-6)

    def test_percentile_band_solves_in_few_iterations(self):
        # the bound-flipping ratio test moves many members per iteration; one
        # flip per iteration would need about one iteration per member
        spec = synth_spec(2000, 11, {
            "a": normal(150.0, 25.0),
            "b": lognormal(4.2, 0.2),
            "c": mixture((0.7, lognormal(2.5, 0.4)), (0.3, normal(30.0, 5.0))),
        })
        pop = generate_population(spec)
        lo, hi = np.percentile(pop.data[:, 0], (60.0, 90.0))
        idx = np.flatnonzero((pop.data[:, 0] >= lo) & (pop.data[:, 0] <= hi))
        targets = plant_subset(pop, idx, orders=(1, 2))
        sel = solve_max_size(pop, targets, float(idx.size))
        assert sel.expected_size >= idx.size - 1e-6
        assert sel.solver.iterations <= 100


class TestSolveFixedSize:
    def test_size_pinned_exactly(self):
        rng = np.random.default_rng(92)
        pop = make_pop({"a": rng.normal(0, 1, 10)})
        idx = np.array([0, 3, 5, 8])
        targets = subset_targets(pop, idx)
        sel = solve_fixed_size(pop, targets, 4.0)
        assert sel.alpha == 0.2
        # one label and one slack per criterion: the size row has no slack
        assert len(sel.row_labels) == len(sel.eta) == len(targets)
        assert abs(sel.expected_size - 4.0) <= 1e-9 * 4.0
        # criterion rows still honour the slack budget
        assert np.all(sel.eta <= sel.alpha + 1e-7)

    def test_size_pinned_where_the_max_size_is_larger(self):
        # a random 40 of 300 shares the population's moments, so the max-size
        # optimum takes far more than 40 + alpha members; the pinned size
        # must not drift towards it
        rng = np.random.default_rng(95)
        pop = make_pop({"a": rng.normal(150, 25, 300), "b": rng.lognormal(4.2, 0.2, 300)})
        targets = plant_subset(pop, rng.choice(300, 40, replace=False), orders=(1, 2))
        assert solve_max_size(pop, targets, 40.0).expected_size > 40.0 + 2.0
        sel = solve_fixed_size(pop, targets, 40.0)
        assert abs(sel.expected_size - 40.0) <= 1e-9 * 40.0

    def test_paper_scale_cohort_draws_close_to_its_targets(self):
        # the paper's pool size: a random 300 of 6 062 planted at orders 1-4
        # on three shapes, seeds 1-8 as they come; best of 10 draws, as
        # `dsps select --draws 10 --seed s` scores them
        rsse = {}
        for seed in range(1, 9):
            pop = generate_population(synth_spec(6062, seed, {
                "x00": normal(150.0, 25.0),
                "x01": lognormal(4.2, 0.2),
                "x02": mixture((0.7, lognormal(2.5, 0.4)), (0.3, normal(30.0, 5.0))),
            }))
            members = np.random.default_rng(seed).choice(6062, 300, replace=False)
            targets = plant_subset(pop, members, orders=(1, 2, 3, 4))
            sel = solve_fixed_size(pop, targets, 300.0)
            assert abs(sel.expected_size - 300.0) <= 1e-9 * 300.0
            rsse[seed] = draw_best(sel.p, pop, targets, 10, seed)[0].report.rsse
        assert max(rsse.values()) <= 0.02, rsse

    def test_full_population_size_selects_everyone(self):
        rng = np.random.default_rng(93)
        pop = make_pop({"a": rng.normal(10, 3, 8)})
        targets = own_moment_targets(pop)
        sel = solve_fixed_size(pop, targets, 8.0)
        np.testing.assert_allclose(sel.p, np.ones(8), atol=1e-9)

    def test_unit_size_puts_mass_on_the_matching_member(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        sel = solve_fixed_size(pop, targets_of(("f", 1, 2.0)), 1.0)
        assert sel.p[1] == pytest.approx(1.0, abs=1e-9)
        assert abs(sel.expected_size - 1.0) <= 0.05 + 1e-9

    def test_empty_targets_rejected(self):
        pop = make_pop({"f": [1.0, 2.0]})
        with pytest.raises(DspsError, match="fixed-size mode needs at least one target criterion"):
            solve_fixed_size(pop, TargetSet(()), 1.0)

    def test_size_out_of_range_rejected(self):
        pop = make_pop({"f": [1.0, 2.0]})
        for trial_size in (-1.0, 0.5, 7.0, np.nan, np.inf):
            with pytest.raises(DspsError, match=r"must lie in \[1, 2\] in fixed mode"):
                solve_fixed_size(pop, targets_of(("f", 1, 1.5)), trial_size)
