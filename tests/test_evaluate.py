from types import SimpleNamespace

import numpy as np
import pytest

from dsps.dataset import Population
from dsps.errors import (
    EmptySelection,
    InvalidSetting,
    LengthMismatch,
    NonPositiveInput,
    OutOfRangeProbability,
    ZeroTarget,
)
from dsps.evaluate import (
    evaluate_selection,
    gmi,
    rsse,
)
from dsps.moments import TargetCriterion, TargetSet, expected_moment, sample_moment
from dsps.realize import SelectionMask

from oracles import moment_oracle, weighted_moment_oracle


def make_pop(values) -> Population:
    x = np.asarray(values, dtype=float)
    return Population(tuple(f"m{i}" for i in range(x.size)), ("f",), x[:, None])


class TestRsse:
    def test_hand_computed_value(self):
        # (0.1/1)^2 + (0.2/2)^2
        assert rsse([1.1, 2.2], [1.0, 2.0]) == pytest.approx(0.02, rel=1e-12)

    def test_perfect_match_is_zero(self):
        assert rsse([3.0, -4.0], [3.0, -4.0]) == 0.0

    def test_zero_target_is_a_hard_error(self):
        with pytest.raises(ZeroTarget):
            rsse([0.1], [0.0])

    def test_epsilon_opt_in_softens_zero_targets(self):
        # denominator becomes |0| + 0.5
        assert rsse([0.1], [0.0], epsilon=0.5) == pytest.approx((0.1 / 0.5) ** 2)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(InvalidSetting):
            rsse([1.0], [1.0], epsilon=-1e-9)

    def test_nan_epsilon_is_an_invalid_setting_not_a_zero_target(self):
        # no target is zero, so a caller softening zero targets must not catch it
        with pytest.raises(InvalidSetting, match="rsse epsilon must be finite") as info:
            rsse([1.0], [2.0], float("nan"))
        assert not isinstance(info.value, ZeroTarget)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rsse([1.0, 2.0], [1.0])


def percentage_error(achieved: float, target: float, epsilon: float = 0.0) -> float:
    """The report's percentage error of a one-member mask against one mean target."""
    targets = TargetSet((TargetCriterion("f", 1, target),))
    report = evaluate_selection(make_pop([achieved]), targets, np.ones(1, dtype=int), epsilon)
    return report.per_criterion[0].percentage_error


class TestPercentageError:
    def test_hand_computed_value(self):
        assert percentage_error(105.0, 100.0) == pytest.approx(5.0, rel=1e-12)

    def test_sign_independent(self):
        assert percentage_error(95.0, 100.0) == pytest.approx(5.0, rel=1e-12)
        assert percentage_error(-1.1, -1.0) == pytest.approx(10.0, rel=1e-12)

    def test_zero_achieved_is_a_full_miss(self):
        assert percentage_error(0.0, 2.0) == 100.0
        assert percentage_error(2.0, 2.0) == 0.0

    def test_zero_target_hard_error_and_epsilon(self):
        with pytest.raises(ZeroTarget):
            percentage_error(0.5, 0.0)
        assert percentage_error(0.5, 0.0, epsilon=1.0) == pytest.approx(50.0)


class TestGmi:
    def test_reference_values(self):
        assert gmi(100.0) == pytest.approx(5.702, abs=1e-12)
        assert gmi(154.0) == pytest.approx(6.99368, abs=1e-12)

    def test_linearity(self):
        assert gmi(200.0) - gmi(100.0) == pytest.approx(0.02392 * 100.0, abs=1e-12)

    def test_near_zero_approaches_the_intercept(self):
        assert gmi(1e-9) == pytest.approx(3.31, abs=1e-9)

    def test_nonpositive_rejected(self):
        for bad in (0.0, -10.0):
            with pytest.raises(NonPositiveInput):
                gmi(bad)


class TestEvaluateSelection:
    @staticmethod
    def instance():
        rng = np.random.default_rng(606)
        pop = make_pop(rng.normal(5, 2, 24))
        targets = TargetSet(
            (TargetCriterion("f", 1, 5.2), TargetCriterion("f", 2, 3.5))
        )
        return pop, targets

    def test_mask_path_uses_subset_sample_moments(self):
        pop, targets = self.instance()
        keep = np.zeros(24, dtype=np.int8)
        keep[2:14] = 1
        mask = SelectionMask(keep, seed=0, draw_index=0)
        report = evaluate_selection(pop, targets, mask)
        xs = pop.data[keep.astype(bool), 0].tolist()
        assert report.realized_size == 12
        for res in report.per_criterion:
            want = moment_oracle(xs, res.order)
            assert res.achieved == pytest.approx(want, rel=1e-12)
            assert res.percentage_error == pytest.approx(
                abs(res.achieved - res.target) / abs(res.target) * 100.0, rel=1e-12
            )

    def test_probability_path_uses_target_centred_weights(self):
        pop, targets = self.instance()
        rng = np.random.default_rng(607)
        p = rng.uniform(0.1, 1.0, 24)
        report = evaluate_selection(pop, targets, p)
        xs = pop.data[:, 0].tolist()
        assert report.realized_size is None
        by_order = {r.order: r for r in report.per_criterion}
        assert by_order[1].achieved == pytest.approx(
            weighted_moment_oracle(xs, p.tolist(), 1), rel=1e-12
        )
        assert by_order[2].achieved == pytest.approx(
            weighted_moment_oracle(xs, p.tolist(), 2, target_mean=5.2), rel=1e-12
        )

    def test_aggregates_match_per_criterion_errors(self):
        pop, targets = self.instance()
        report = evaluate_selection(pop, targets, np.full(24, 0.7))
        pes = np.array([r.percentage_error for r in report.per_criterion])
        assert report.pe_mean == pytest.approx(float(np.mean(pes)), rel=1e-12)
        assert report.pe_sd == pytest.approx(float(np.std(pes, ddof=1)), rel=1e-12)
        per = [((r.achieved - r.target) / abs(r.target)) ** 2 for r in report.per_criterion]
        assert report.rsse == pytest.approx(float(np.sum(per)), rel=1e-12)

    def test_integer_and_bool_arrays_count_as_masks(self):
        pop, targets = self.instance()
        keep = np.zeros(24, dtype=bool)
        keep[:10] = True
        a = evaluate_selection(pop, targets, keep)
        b = evaluate_selection(pop, targets, keep.astype(np.int64))
        assert a.realized_size == b.realized_size == 10
        assert a.rsse == pytest.approx(b.rsse, rel=1e-15)

    def test_float_vector_counts_as_probabilities(self):
        pop, targets = self.instance()
        keep = np.zeros(24)
        keep[:10] = 1.0
        report = evaluate_selection(pop, targets, keep)
        assert report.realized_size is None
        # the variance is centred on the target mean, as probabilities are
        x = pop.data[:, 0]
        assert [r.achieved for r in report.per_criterion] == [
            expected_moment(x, keep, 1),
            expected_moment(x, keep, 2, target_mean=5.2),
        ]

    def test_p_attribute_object_counts_as_probabilities(self):
        pop, targets = self.instance()
        report = evaluate_selection(pop, targets, SimpleNamespace(p=np.full(24, 0.5)))
        assert report.realized_size is None
        assert report == evaluate_selection(pop, targets, np.full(24, 0.5))

    @pytest.mark.parametrize("n_criteria", [0, 2])
    def test_probability_outside_unit_interval_is_refused(self, n_criteria):
        pop, targets = self.instance()
        targets = TargetSet(targets.criteria[:n_criteria])
        for bad in (1.5, np.nan):  # NaN fails both range comparisons
            p = np.full(24, 0.5)
            p[3] = bad
            with pytest.raises(OutOfRangeProbability, match=str(bad)):
                evaluate_selection(pop, targets, p)

    def test_all_zero_mask_is_empty_selection(self):
        pop, targets = self.instance()
        with pytest.raises(EmptySelection):
            evaluate_selection(pop, targets, np.zeros(24, dtype=np.int8))

    def test_probability_length_mismatch(self):
        pop, targets = self.instance()
        with pytest.raises(LengthMismatch):
            evaluate_selection(pop, targets, np.full(10, 0.5))

    def test_zero_target_propagates_and_epsilon_softens(self):
        pop = make_pop([1.0, -1.0, 2.0, -2.0])
        targets = TargetSet((TargetCriterion("f", 1, 0.0),))
        p = np.full(4, 1.0)
        with pytest.raises(ZeroTarget):
            evaluate_selection(pop, targets, p)
        report = evaluate_selection(pop, targets, p, rsse_epsilon=1e-3)
        assert np.isfinite(report.rsse)

    def test_empty_target_set_scores_zero(self):
        pop, _ = self.instance()
        report = evaluate_selection(pop, TargetSet(()), np.full(24, 0.5))
        assert report.per_criterion == ()
        assert report.rsse == 0.0 and report.pe_mean == 0.0 and report.pe_sd == 0.0


class TestMaskScoring:
    """A mask is scored from the masked feature columns of the population."""

    @staticmethod
    def instance():
        pop = Population(
            ("s1", "s2", "s3"),
            ("hba1c", "fpg"),
            np.array([[7.5, 160.0], [8.25, 172.5], [6.9, -150.0]]),
        )
        targets = TargetSet(tuple(
            TargetCriterion(f, order, value)
            for f, values in (("hba1c", (7.0, 0.5)), ("fpg", (60.0, 900.0)))
            for order, value in zip((1, 2), values)
        ))
        return pop, targets

    def test_mask_scores_the_selected_members(self):
        pop, targets = self.instance()
        report = evaluate_selection(pop, targets, np.array([1, 0, 1], dtype=np.int8))
        chosen = Population(("s1", "s3"), pop.feature_names, pop.data[[0, 2]])
        assert report == evaluate_selection(chosen, targets, np.ones(2, dtype=np.int8))
        assert report.realized_size == 2

    def test_all_ones_mask_scores_the_full_population(self):
        pop, targets = self.instance()
        report = evaluate_selection(pop, targets, np.ones(3, dtype=np.int8))
        assert report.realized_size == pop.n_members
        for res in report.per_criterion:
            j = pop.feature_index(res.feature)
            assert res.achieved == sample_moment(pop.data[:, j], res.order)

    def test_all_zero_mask_is_empty_selection(self):
        pop, targets = self.instance()
        with pytest.raises(EmptySelection):
            evaluate_selection(pop, targets, np.zeros(3, dtype=np.int8))

    def test_mask_length_mismatch(self):
        pop, targets = self.instance()
        with pytest.raises(LengthMismatch):
            evaluate_selection(pop, targets, np.ones(4, dtype=np.int8))

    @pytest.mark.parametrize("count", [2, 3, 17, 1000, 8191, 8192, 8193, 9000])
    def test_realized_moments_match_the_row_subset_bit_for_bit(self, count):
        # Scoring once took each column of the selected rows' matrix, a
        # strided view; numpy may sum strided and contiguous input in a
        # different order, so the values are compared exactly.
        rng = np.random.default_rng(count)
        n_p = 9001
        data = np.column_stack(
            [rng.normal(50, 7, n_p), rng.lognormal(1, 0.8, n_p), rng.uniform(-3, 9, n_p)]
        )
        pop = Population(tuple(f"m{i}" for i in range(n_p)), ("a", "b", "c"), data)
        targets = TargetSet(tuple(
            TargetCriterion(f, order, 1.0) for f in ("a", "b", "c") for order in range(1, 6)
        ))
        keep = np.zeros(n_p, dtype=bool)
        keep[rng.choice(n_p, count, replace=False)] = True
        report = evaluate_selection(pop, targets, keep.astype(np.int8))
        rows = pop.data[keep]
        assert report.realized_size == count
        for res in report.per_criterion:
            want = sample_moment(rows[:, pop.feature_index(res.feature)], res.order)
            assert res.achieved == want, (res.feature, res.order)
