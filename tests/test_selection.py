import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsps import lp_core
from dsps.dataset import Population, feature_column
from dsps.errors import (
    EmptyTargetSet,
    InfeasibleError,
    InvalidSampleSize,
    LengthMismatch,
    MissingHyperParam,
    SmallSampleWarning,
)
from dsps.moments import TargetCriterion, TargetSet, expected_moment, moment_terms
from dsps.selection import (
    SIZE_ROW,
    HyperParams,
    auto_hyperparams,
    build_lp_system,
    ordered_criteria,
    resolve_slack,
    solve_fixed_size,
    solve_max_size,
    solve_min_size,
)

from dsps.synthgen import (
    FeatureSpec,
    LogNormal,
    Mixture,
    Normal,
    SynthSpec,
    generate_population,
    plant_subset,
)

from oracles import best_subset_size


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


class TestBuildLpSystem:
    def test_mean_row_three_members(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        system = build_lp_system(pop, targets_of(("f", 1, 2.0)))
        assert system.matrix.tolist() == [[-1.0, 0.0, 1.0]]
        assert system.rhs.tolist() == [0.0]
        assert system.row_labels == (("f", 1),)
        assert system.row_scales[0] == pytest.approx(1.0 / (2.0 + 1e-6))

    def test_variance_row_two_members(self):
        pop = make_pop({"f": [0.0, 2.0]})
        system = build_lp_system(pop, targets_of(("f", 1, 1.0), ("f", 2, 1.0)))
        # deviations from the target mean are +-1, so the variance row vanishes
        assert system.matrix[1].tolist() == [0.0, 0.0]
        assert system.rhs[1] == -1.0
        assert system.row_labels == (("f", 1), ("f", 2))

    def test_rows_match_entrywise_recomputation(self):
        rng = np.random.default_rng(5150)
        pop = make_pop({"a": rng.normal(3, 1, 7), "b": rng.normal(-2, 2, 7)})
        targets = targets_of(
            ("a", 1, 3.1), ("a", 2, 0.9), ("a", 3, 0.2), ("a", 4, -0.3),
            ("b", 1, -2.2), ("b", 2, 4.4), ("b", 5, 1.7),
        )
        system = build_lp_system(pop, targets, epsilon=1e-6)
        by_label = dict(zip(system.row_labels, range(system.n_rows)))
        for feature, col in (("a", 0), ("b", 1)):
            x = pop.data[:, col]
            for order in (1, 2, 3, 4, 5):
                if not targets.has(feature, order):
                    continue
                t = targets.value_of(feature, order)
                j = by_label[(feature, order)]
                for i, xi in enumerate(x):
                    if order == 1:
                        want, rhs = xi - t, 0.0
                    else:
                        d = xi - targets.value_of(feature, 1)
                        if order == 2:
                            want, rhs = d * d - t, -t
                        elif order == 3:
                            m2 = targets.value_of(feature, 2)
                            want, rhs = d**3 - m2**1.5 * t, 0.0
                        elif order == 4:
                            m2 = targets.value_of(feature, 2)
                            want, rhs = d**4 - m2**2 * (t + 3.0), 0.0
                        else:
                            want, rhs = d**order - t, 0.0
                    assert system.matrix[j, i] == pytest.approx(want, rel=1e-12, abs=1e-12)
                    assert system.rhs[j] == pytest.approx(rhs, rel=1e-12, abs=1e-12)
                assert system.row_scales[j] == pytest.approx(1.0 / (abs(t) + 1e-6))

    def test_rows_agree_with_the_reported_expected_moment(self):
        # A_j p - C_j is the row's residual; scaled back by the moment terms it
        # must equal the gap between the p-weighted moment and the target
        rng = np.random.default_rng(4242)
        for trial in range(5):
            pop = make_pop({"a": rng.normal(10, 3, 50), "b": rng.lognormal(1, 0.5, 50)})
            targets = targets_of(*(
                (f, k, float(rng.normal(0, 2)) if k != 2 else float(rng.uniform(0.5, 9)))
                for f in ("a", "b") for k in (1, 2, 3, 4, 5)
            ))
            p = rng.uniform(0.0, 1.0, 50)
            system = build_lp_system(pop, targets)
            for j, (feature, order) in enumerate(system.row_labels):
                x = feature_column(pop, feature)
                t1, t2 = targets.value_of(feature, 1), targets.value_of(feature, 2)
                dof, scale, _ = moment_terms(order, t2)
                moment = expected_moment(x, p, order, t1, t2)
                got = system.matrix[j] @ p - system.rhs[j]
                want = (moment - targets.value_of(feature, order)) * (p.sum() - dof) * scale
                assert got == pytest.approx(want, rel=1e-9), (trial, feature, order)

    def test_rows_sorted_by_order_then_position(self):
        pop = make_pop({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        targets = targets_of(
            ("b", 1, 3.5), ("b", 2, 0.5), ("a", 1, 1.5), ("a", 2, 0.5)
        )
        system = build_lp_system(pop, targets)
        assert system.row_labels == (("b", 1), ("a", 1), ("b", 2), ("a", 2))
        labels = tuple((c.feature, c.order) for c in ordered_criteria(targets))
        assert labels == system.row_labels

    def test_scaled_view_applies_row_scales(self):
        pop = make_pop({"f": [1.0, 2.0, 4.0]})
        system = build_lp_system(pop, targets_of(("f", 1, 2.0), ("f", 2, 2.0)))
        np.testing.assert_allclose(
            system.scaled_matrix(), system.matrix * system.row_scales[:, None]
        )
        np.testing.assert_allclose(
            system.scaled_rhs(), system.rhs * system.row_scales
        )

    def test_empty_target_set_builds_zero_rows(self):
        pop = make_pop({"f": [1.0, 2.0]})
        system = build_lp_system(pop, TargetSet(()))
        assert system.n_rows == 0
        assert system.matrix.shape == (0, 2)


class TestHyperParams:
    def test_auto_from_trial_size(self):
        targets = targets_of(("f", 1, 8.0), ("f", 2, 2.0))
        hyper = auto_hyperparams(targets, 413.0)
        assert hyper.alpha == pytest.approx(20.65)
        np.testing.assert_allclose(
            hyper.beta, [1.0 / (8.0 + 1e-6), 1.0 / (2.0 + 1e-6)]
        )
        np.testing.assert_allclose(
            hyper.eta_max, [20.65 * (8.0 + 1e-6), 20.65 * (2.0 + 1e-6)]
        )
        assert hyper.trial_size == 413.0

    def test_auto_rejects_nonpositive_trial_size(self):
        with pytest.raises(InvalidSampleSize):
            auto_hyperparams(targets_of(("f", 1, 1.0)), 0.0)

    def test_auto_zero_target_falls_back_to_epsilon(self):
        # a zero target would blow up 1/|t|; epsilon keeps both vectors finite
        hyper = auto_hyperparams(targets_of(("f", 1, 0.0)), 20.0)
        assert hyper.beta[0] == pytest.approx(1e6)
        assert hyper.eta_max[0] == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(MissingHyperParam):
            HyperParams(alpha=0.0)
        with pytest.raises(MissingHyperParam):
            HyperParams(epsilon=0.0)
        with pytest.raises(InvalidSampleSize):
            HyperParams(trial_size=-3.0)
        with pytest.raises(MissingHyperParam):
            HyperParams(beta=np.array([-1.0]))
        with pytest.raises(MissingHyperParam):
            HyperParams(eta_max=np.array([np.inf]))

    def test_resolved_alpha_prefers_explicit(self):
        assert HyperParams(alpha=7.0, trial_size=400.0).resolved_alpha() == 7.0
        assert HyperParams(trial_size=400.0).resolved_alpha() == pytest.approx(20.0)
        with pytest.raises(MissingHyperParam):
            HyperParams().resolved_alpha()

    def test_resolve_slack_empty_targets(self):
        beta, eta_max = resolve_slack(TargetSet(()), HyperParams())
        assert beta.size == 0 and eta_max.size == 0

    def test_resolve_slack_length_mismatch(self):
        targets = targets_of(("f", 1, 1.0), ("f", 2, 1.0))
        bad = HyperParams(beta=np.ones(3), eta_max=np.ones(3))
        with pytest.raises(LengthMismatch):
            resolve_slack(targets, bad)

    def test_resolve_slack_explicit_passthrough(self):
        targets = targets_of(("f", 1, 1.0), ("f", 2, 1.0))
        hyper = HyperParams(beta=np.array([0.0, 0.0]), eta_max=np.array([0.5, 0.25]))
        beta, eta_max = resolve_slack(targets, hyper)
        np.testing.assert_array_equal(beta, [0.0, 0.0])
        np.testing.assert_array_equal(eta_max, [0.5, 0.25])


class TestSolveMaxSize:
    def test_population_matching_own_moments_selects_everyone(self):
        rng = np.random.default_rng(77)
        pop = make_pop({"a": rng.normal(5, 1, 25), "b": rng.normal(0, 2, 25)})
        targets = own_moment_targets(pop)
        sel = solve_max_size(pop, targets, auto_hyperparams(targets, 25.0))
        np.testing.assert_allclose(sel.p, np.ones(25), atol=1e-8)
        assert sel.expected_size == pytest.approx(25.0, abs=1e-7)
        assert np.all(sel.eta <= 1e-7 * (np.abs(sel.eta) + 1.0))

    def test_strict_solve_matches_on_exact_instance(self):
        rng = np.random.default_rng(78)
        pop = make_pop({"a": rng.normal(5, 1, 12)})
        targets = own_moment_targets(pop)
        sel = solve_max_size(pop, targets, relaxed=False)
        assert sel.eta is None
        np.testing.assert_allclose(sel.p, np.ones(12), atol=1e-8)

    def test_expected_size_dominates_best_subset(self):
        # with zero slack weight the relaxed optimum can never fall below the
        # best 0/1 selection, which is feasible for the same program
        rng = np.random.default_rng(31337)
        pop = make_pop({"a": rng.normal(4, 1.5, 12)})
        idx = np.array([0, 2, 3, 7, 8, 11])
        targets = subset_targets(pop, idx)
        system = build_lp_system(pop, targets)
        tvals = np.array([c.value for c in ordered_criteria(targets)])
        eta_max = 0.05 * np.abs(tvals) + 0.01
        hyper = HyperParams(beta=np.zeros(2), eta_max=eta_max)
        sel = solve_max_size(pop, targets, hyper)
        best = best_subset_size(system.matrix, system.rhs, eta_max)
        assert best is not None and best >= idx.size
        assert sel.expected_size >= best - 1e-7

    def test_residuals_within_reported_eta(self):
        rng = np.random.default_rng(88)
        pop = make_pop({"a": rng.normal(1, 1, 30), "b": rng.normal(6, 3, 30)})
        idx = np.arange(0, 30, 3)
        targets = subset_targets(pop, idx)
        hyper = auto_hyperparams(targets, 10.0)
        sel = solve_max_size(pop, targets, hyper)
        system = build_lp_system(pop, targets)
        resid = np.abs(system.matrix @ sel.p - system.rhs)
        slack_tol = 1e-7 / system.row_scales
        assert np.all(resid <= sel.eta + slack_tol)
        assert np.all(sel.eta <= hyper.eta_max + slack_tol)

    def test_widening_eta_max_cannot_shrink_the_optimum(self):
        rng = np.random.default_rng(89)
        pop = make_pop({"a": rng.normal(0, 1, 15)})
        idx = np.array([1, 4, 6, 9, 13])
        targets = subset_targets(pop, idx)
        tight = np.array([0.05, 0.05])
        wide = 2.0 * tight
        sizes = []
        for eta_max in (tight, wide):
            hyper = HyperParams(beta=np.zeros(2), eta_max=eta_max)
            sizes.append(solve_max_size(pop, targets, hyper).expected_size)
        assert sizes[1] >= sizes[0] - 1e-9

    def test_unreachable_target_with_tight_slack_is_infeasible(self):
        # every variance-row entry is large and positive while the rhs is -1,
        # so no p >= 0 can come within the slack budget
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        targets = targets_of(("f", 1, 50.0), ("f", 2, 1.0))
        hyper = HyperParams(beta=np.ones(2), eta_max=np.array([0.5, 0.5]))
        with pytest.raises(InfeasibleError) as err:
            solve_max_size(pop, targets, hyper)
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
        with pytest.raises(InfeasibleError):
            solve_max_size(pop, targets_of(("f", 1, 50.0)), relaxed=False)

    def test_relaxed_zero_budget_empty_optimum_is_infeasible(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        hyper = HyperParams(beta=np.zeros(1), eta_max=np.array([0.0]))
        with pytest.raises(InfeasibleError) as err:
            solve_max_size(pop, targets_of(("f", 1, 50.0)), hyper)
        assert err.value.violation == 0.0

    def test_relaxed_tiny_positive_mass_is_still_optimal(self):
        # a nonzero slack budget admits a sliver of probability mass, which
        # is a legitimate (if useless) optimum rather than an infeasibility
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        hyper = HyperParams(beta=np.zeros(1), eta_max=np.array([0.01]))
        sel = solve_max_size(pop, targets_of(("f", 1, 50.0)), hyper)
        assert sel.expected_size == pytest.approx(0.01 / 47.0)

    def test_empty_targets_select_everyone(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0, 4.0]})
        sel = solve_max_size(pop, TargetSet(()))
        np.testing.assert_array_equal(sel.p, np.ones(4))
        assert sel.eta is None
        assert sel.expected_size == 4.0

    def test_rescaling_a_feature_leaves_the_size_unchanged(self):
        # row conditioning divides by |target| + eps, so consistent unit
        # changes must not move the optimum
        rng = np.random.default_rng(90)
        pop = make_pop({"a": rng.normal(8, 1.2, 120), "b": rng.normal(120, 25, 120)})
        idx = np.argsort(pop.data[:, 0] + 0.02 * pop.data[:, 1])[20:60]
        targets = subset_targets(pop, idx)
        sel = solve_max_size(pop, targets, auto_hyperparams(targets, 40.0))

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
        sel2 = solve_max_size(pop2, targets2, auto_hyperparams(targets2, 40.0))
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
        sel = solve_max_size(pop, targets, auto_hyperparams(targets, float(len(x))))
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
        assert abs(targets.value_of("f", 3)) < 1e-6
        hyper = auto_hyperparams(targets, float(x.size))
        sel = solve_max_size(pop, targets, hyper)
        assert sel.expected_size == pytest.approx(x.size, abs=1e-6)
        system = build_lp_system(pop, targets)
        # rounding in a row sum grows with the magnitude of its terms
        slack_tol = 1e-7 / system.row_scales + 1e-12 * (np.abs(system.matrix) @ sel.p)
        assert np.all(np.abs(system.matrix @ sel.p - system.rhs) <= sel.eta + slack_tol)
        assert np.all(sel.eta <= hyper.eta_max + slack_tol)

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
        return solve_max_size(pop, targets, auto_hyperparams(targets, float(x.size)))

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
        spec = SynthSpec(2000, 11, (
            FeatureSpec("a", Normal(150.0, 25.0)),
            FeatureSpec("b", LogNormal(4.2, 0.2)),
            FeatureSpec("c", Mixture(((0.7, LogNormal(2.5, 0.4)), (0.3, Normal(30.0, 5.0))))),
        ))
        pop = generate_population(spec)
        lo, hi = np.percentile(pop.data[:, 0], (60.0, 90.0))
        idx = np.flatnonzero((pop.data[:, 0] >= lo) & (pop.data[:, 0] <= hi))
        targets = plant_subset(pop, idx, orders=(1, 2))
        sel = solve_max_size(pop, targets, auto_hyperparams(targets, float(idx.size)))
        assert sel.expected_size >= idx.size - 1e-6
        assert sel.solver.iterations <= 100


class TestSolveMinSize:
    @staticmethod
    def two_point_pop(m: int, n_per_side: int, a: float = 3.0):
        """Symmetric +-a feature whose variance row forces sum(p) = m.

        With mean target 0 and variance target a^2 * m / (m - 1), every
        variance-row entry equals a^2 - M2 = -(M2 - a^2), so the row reads
        -(M2 - a^2) * sum(p) = -M2 and any feasible p has sum(p) = m.
        """
        values = np.concatenate([np.full(n_per_side, a), np.full(n_per_side, -a)])
        pop = make_pop({"f": values})
        m2 = a * a * m / (m - 1.0)
        return pop, targets_of(("f", 1, 0.0), ("f", 2, m2))

    @staticmethod
    def forced_minimum(m: int, alpha: float, a: float = 3.0) -> float:
        # minimising spends the full variance slack: sum(p) = (M2 - eta)/g
        m2 = a * a * m / (m - 1.0)
        g = m2 - a * a
        return (m2 - alpha * (m2 + 1e-6)) / g

    def test_forced_small_size_warns(self):
        pop, targets = self.two_point_pop(m=10, n_per_side=20)
        hyper = HyperParams(alpha=0.05)
        with pytest.warns(SmallSampleWarning):
            sel = solve_min_size(pop, targets, hyper)
        assert sel.small_sample_warning
        assert sel.expected_size == pytest.approx(self.forced_minimum(10, 0.05), abs=1e-3)

    def test_comfortable_size_stays_silent(self):
        pop, targets = self.two_point_pop(m=40, n_per_side=60)
        hyper = HyperParams(alpha=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SmallSampleWarning)
            sel = solve_min_size(pop, targets, hyper)
        assert not sel.small_sample_warning
        assert sel.expected_size == pytest.approx(self.forced_minimum(40, 0.05), abs=1e-3)

    def test_min_never_exceeds_max(self):
        rng = np.random.default_rng(91)
        pop = make_pop({"a": rng.normal(2, 1, 40)})
        idx = np.arange(10, 30)
        targets = subset_targets(pop, idx)
        hyper = auto_hyperparams(targets, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallSampleWarning)
            lo = solve_min_size(pop, targets, hyper).expected_size
        hi = solve_max_size(pop, targets, hyper).expected_size
        assert lo <= hi + 1e-9


class TestSolveFixedSize:
    def test_size_pinned_within_alpha(self):
        rng = np.random.default_rng(92)
        pop = make_pop({"a": rng.normal(0, 1, 10)})
        idx = np.array([0, 3, 5, 8])
        targets = subset_targets(pop, idx)
        hyper = HyperParams(alpha=0.2)
        sel = solve_fixed_size(pop, targets, 4.0, hyper)
        assert sel.row_labels[-1] == SIZE_ROW
        assert abs(sel.expected_size - 4.0) <= 0.2 + 1e-9
        # criterion rows still honour their own slack budget
        beta, eta_max = resolve_slack(targets, hyper)
        assert np.all(sel.eta[:-1] <= eta_max + 1e-7)
        assert sel.eta[-1] <= 0.2 + 1e-7

    def test_full_population_size_selects_everyone(self):
        rng = np.random.default_rng(93)
        pop = make_pop({"a": rng.normal(10, 3, 8)})
        targets = own_moment_targets(pop)
        sel = solve_fixed_size(pop, targets, 8.0, HyperParams(alpha=0.05))
        np.testing.assert_allclose(sel.p, np.ones(8), atol=1e-9)

    def test_unit_size_puts_mass_on_the_matching_member(self):
        pop = make_pop({"f": [1.0, 2.0, 3.0]})
        sel = solve_fixed_size(pop, targets_of(("f", 1, 2.0)), 1.0, HyperParams(alpha=0.05))
        assert sel.p[1] == pytest.approx(1.0, abs=1e-9)
        assert abs(sel.expected_size - 1.0) <= 0.05 + 1e-9

    def test_empty_targets_rejected(self):
        # min mode too: with no rows its optimum is p = 0, and every draw is empty
        pop = make_pop({"f": [1.0, 2.0]})
        with pytest.raises(EmptyTargetSet):
            solve_fixed_size(pop, TargetSet(()), 1.0)
        with pytest.raises(EmptyTargetSet):
            solve_min_size(pop, TargetSet(()))

    def test_size_out_of_range_rejected(self):
        pop = make_pop({"f": [1.0, 2.0]})
        for n_t in (-1.0, 0.5, 7.0):
            with pytest.raises(InvalidSampleSize):
                solve_fixed_size(pop, targets_of(("f", 1, 1.5)), n_t)
