import numpy as np
import pytest

from dsps.dataset import Population
from dsps.errors import DspsError, InsufficientData
from dsps.evaluate import evaluate_selection, gmi
from dsps.moments import TargetCriterion, TargetSet, expected_moment, sample_moment
from dsps.realize import draw
from dsps.selection import solve_max_size

from oracles import moment_oracle, weighted_moment_oracle


def make_pop(values) -> Population:
    x = np.asarray(values, dtype=float)
    return Population(tuple(f"m{i}" for i in range(x.size)), ("f",), x[:, None])


def percentage_error(achieved: float, target: float) -> float:
    """The report's percentage error of a one-member mask against one mean target."""
    targets = TargetSet((TargetCriterion("f", 1, target),))
    report = evaluate_selection(make_pop([achieved]), targets, np.ones(1, dtype=int))
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
        with pytest.raises(DspsError, match="criterion 0 has target 0"):
            percentage_error(0.5, 0.0)
        # the denominator is |t| alone: selection.EPSILON scales LP rows, not scores
        assert percentage_error(2e-6, 1e-6) == pytest.approx(100.0, rel=1e-12)


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
            with pytest.raises(DspsError, match="mean glucose must be positive"):
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
        report = evaluate_selection(pop, targets, keep)
        xs = pop.data[keep.astype(bool), 0].tolist()
        assert report.realized_size == 12
        for res in report.per_criterion:
            want = moment_oracle(xs, res.order)
            assert res.achieved == pytest.approx(want, rel=1e-12)
            assert res.percentage_error == pytest.approx(
                abs(res.achieved - res.target) / abs(res.target) * 100.0, rel=1e-12
            )

    def test_probability_path_uses_target_centred_weights(self):
        # probabilities are scored by expected moments about the targets'
        # references, the rule the LP rows read, not by evaluate_selection
        pop, targets = self.instance()
        p = np.random.default_rng(607).uniform(0.1, 1.0, 24)
        x = pop.data[:, 0]
        achieved = [expected_moment(x, p, c.order, *targets.references(c.feature, c.order))
                    for c in targets]
        assert achieved[0] == pytest.approx(weighted_moment_oracle(x.tolist(), p.tolist(), 1),
                                            rel=1e-12)
        assert achieved[1] == pytest.approx(
            weighted_moment_oracle(x.tolist(), p.tolist(), 2, target_mean=5.2), rel=1e-12
        )

    def test_aggregates_match_per_criterion_errors(self):
        pop, targets = self.instance()
        keep = np.zeros(24, dtype=np.int8)
        keep[::3] = 1
        report = evaluate_selection(pop, targets, keep)
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

    def test_float_vector_is_refused(self):
        # a 0/1 float vector is read neither as probabilities nor as a mask,
        # and nor is any other dtype that is not integer or bool
        pop, targets = self.instance()
        keep = np.zeros(24, dtype=np.int8)
        keep[:10] = 1
        for dtype in (float, np.float32, complex, object, str):
            vec = keep.astype(dtype)
            with pytest.raises(DspsError, match=f"not dtype {vec.dtype}$"):
                evaluate_selection(pop, targets, vec)

    def test_all_zero_mask_is_empty_selection(self):
        pop, targets = self.instance()
        with pytest.raises(InsufficientData, match="mask selects no members"):
            evaluate_selection(pop, targets, np.zeros(24, dtype=np.int8))

    def test_probability_length_mismatch(self):
        # the shape is checked before the dtype, so probabilities of the
        # wrong length get the message a mask of that length gets
        pop, targets = self.instance()
        for vec in (np.full(10, 0.5), np.ones(10, dtype=np.int8)):
            with pytest.raises(DspsError, match=r"selection of shape \(10,\) for 24 members"):
                evaluate_selection(pop, targets, vec)

    def test_zero_target_propagates_and_epsilon_softens(self):
        pop = make_pop([1.0, -1.0, 2.0, -2.0])
        targets = TargetSet((TargetCriterion("f", 1, 0.0),))
        with pytest.raises(DspsError, match="has target 0"):
            evaluate_selection(pop, targets, np.ones(4, dtype=np.int8))
        # selection.EPSILON softens the zero target's LP row, so it solves,
        # but nothing softens the score of its draw
        sel = solve_max_size(pop, targets, 4.0)
        np.testing.assert_allclose(sel.p, 1.0, atol=1e-9)
        with pytest.raises(DspsError, match="has target 0"):
            evaluate_selection(pop, targets, draw(sel.p, 0))

    def test_empty_target_set_scores_zero(self):
        pop, _ = self.instance()
        report = evaluate_selection(pop, TargetSet(()), np.ones(24, dtype=np.int8))
        assert report.per_criterion == ()
        assert report.rsse == 0.0 and report.pe_mean == 0.0 and report.pe_sd == 0.0
        assert report.realized_size == 24

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_realized_moment_names_its_criterion(self):
        # the kurtosis scale, the variance squared, is about 1e400: a Python
        # float raised OverflowError for it
        pop = make_pop([0.0, 1e100, 3e100, 7e100])
        targets = TargetSet((TargetCriterion("f", 1, 2.5e100), TargetCriterion("f", 2, 1e200),
                             TargetCriterion("f", 4, 1.0)))
        with pytest.raises(DspsError, match=r"^the moment of \('f', 4\) overflows float64$"):
            evaluate_selection(pop, targets, np.ones(4, dtype=np.int8))


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
        with pytest.raises(InsufficientData, match="mask selects no members"):
            evaluate_selection(pop, targets, np.zeros(3, dtype=np.int8))

    def test_mask_length_mismatch(self):
        pop, targets = self.instance()
        with pytest.raises(DspsError, match=r"selection of shape \(4,\) for 3 members"):
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
