from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsps.dataset import Population
from dsps.errors import (
    AllDrawsDegenerate,
    InsufficientData,
    InvalidDraws,
    OutOfRangeProbability,
    ZeroTarget,
)
from dsps.evaluate import evaluate_selection
from dsps.moments import TargetCriterion, TargetSet
from dsps import realize
from dsps.realize import DrawStats, SelectionMask, draw, draw_best, uniform_stream


def make_pop(values) -> Population:
    x = np.asarray(values, dtype=float)
    return Population(tuple(f"m{i}" for i in range(x.size)), ("f",), x[:, None])


class TestUniformStream:
    def test_repeatable_and_index_separated(self):
        a = uniform_stream(1234, 0, 64)
        b = uniform_stream(1234, 0, 64)
        c = uniform_stream(1234, 1, 64)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_matches_documented_generator_construction(self):
        # the docstring promises PCG64 over SeedSequence(seed, (draw_index,));
        # rebuild that pipeline here so silent generator changes fail loudly
        for seed, k, n in ((0, 0, 10), (99, 3, 7), (2**40, 12, 33)):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
            want = np.random.Generator(np.random.PCG64(ss)).random(n)
            np.testing.assert_array_equal(uniform_stream(seed, k, n), want)

    def test_prefix_stability(self):
        # asking for fewer variates yields a prefix of the longer stream
        long = uniform_stream(7, 2, 50)
        short = uniform_stream(7, 2, 20)
        np.testing.assert_array_equal(short, long[:20])


class TestDraw:
    def test_deterministic_and_recorded(self):
        p = np.linspace(0.0, 1.0, 11)
        m1 = draw(p, seed=42, draw_index=3)
        m2 = draw(p, seed=42, draw_index=3)
        np.testing.assert_array_equal(m1.b, m2.b)
        assert m1.seed == 42 and m1.draw_index == 3
        assert m1.b.dtype == np.int8

    def test_mask_is_read_only(self):
        m = draw(np.array([0.5, 0.5]), seed=1)
        with pytest.raises(ValueError):
            m.b[0] = 1

    def test_certain_and_impossible_members(self):
        p = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        for seed in (0, 1, 17, 991):
            np.testing.assert_array_equal(draw(p, seed).b, [1, 0, 1, 0, 1])

    def test_selection_is_strictly_greater_than(self):
        # p equal to its own uniform must not select: the rule is p > r
        r = uniform_stream(5, 0, 8)
        assert draw(r, seed=5, draw_index=0).size == 0

    def test_accepts_object_with_p_attribute(self):
        vec = np.array([1.0, 0.0, 1.0])
        wrapped = draw(SimpleNamespace(p=vec), seed=9)
        np.testing.assert_array_equal(wrapped.b, draw(vec, seed=9).b)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeProbability):
            draw(np.array([1.2]), seed=0)
        with pytest.raises(OutOfRangeProbability):
            draw(np.array([-0.1]), seed=0)

    def test_nan_rejected(self):
        # NaN fails both range comparisons, so a min/max test lets it through
        with pytest.raises(OutOfRangeProbability):
            draw(np.array([np.nan, 0.5]), seed=0)
        with pytest.raises(OutOfRangeProbability):
            draw_best(np.array([np.nan, 0.5]), make_pop([1.0, 2.0]), TargetSet(()), 2, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        st.data(),
    )
    def test_raising_one_probability_only_adds_that_member(self, probs, data):
        p = np.asarray(probs)
        i = data.draw(st.integers(min_value=0, max_value=p.size - 1))
        bump = data.draw(st.floats(min_value=0.0, max_value=1.0))
        q = p.copy()
        q[i] = min(1.0, q[i] + bump)
        a = draw(p, seed=123, draw_index=2).b
        b = draw(q, seed=123, draw_index=2).b
        mask = np.ones(p.size, dtype=bool)
        mask[i] = False
        np.testing.assert_array_equal(a[mask], b[mask])
        assert b[i] >= a[i]

    def test_mean_size_tracks_expected_size(self):
        p = np.full(100, 0.5)
        sizes = [draw(p, seed=2024, draw_index=k).size for k in range(400)]
        # sd of the mean is sqrt(sum p(1-p))/sqrt(400) = 0.25; allow 4 sigma
        assert abs(float(np.mean(sizes)) - 50.0) <= 1.0

    def test_mixed_probability_mean_size_bound(self):
        # sum(p) = 50; only the 0.5 entries contribute binomial variance
        p = np.concatenate([np.ones(20), np.zeros(20), np.full(60, 0.5)])
        sizes = [draw(p, seed=88, draw_index=k).size for k in range(2000)]
        spread = 3.0 * np.sqrt(float(np.sum(p * (1.0 - p))))
        assert abs(float(np.mean(sizes)) - 50.0) <= spread


class TestSelectionMask:
    def test_accepts_float_binary(self):
        m = SelectionMask(np.array([0.0, 1.0, 1.0]), seed=0, draw_index=0)
        assert m.b.dtype == np.int8 and m.size == 2

    def test_rejects_non_binary(self):
        with pytest.raises(OutOfRangeProbability):
            SelectionMask(np.array([0, 1, 2]), seed=0, draw_index=0)


class TestDrawBest:
    @staticmethod
    def instance():
        rng = np.random.default_rng(314)
        pop = make_pop(rng.normal(10, 2, 60))
        x = pop.data[:, 0]
        idx = np.argsort(x)[15:45]
        mu = float(np.mean(x[idx]))
        var = float(np.sum((x[idx] - mu) ** 2) / (idx.size - 1))
        targets = TargetSet((TargetCriterion("f", 1, mu), TargetCriterion("f", 2, var)))
        p = np.clip(rng.uniform(0.2, 0.9, 60), 0.0, 1.0)
        return pop, targets, p

    def test_matches_independent_rescoring(self):
        pop, targets, p = self.instance()
        best, stats = draw_best(p, pop, targets, n_draws=8, seed=77)
        keys = []
        for k in range(8):
            mask = draw(p, 77, k)
            report = evaluate_selection(pop, targets, mask)
            keys.append((report.rsse, -mask.size, k))
            s = stats[k]
            assert (s.draw_index, s.size) == (k, mask.size)
            assert s.rsse == pytest.approx(report.rsse, rel=1e-12)
        want = min(keys)
        assert best.report.rsse == pytest.approx(want[0], rel=1e-12)
        assert best.size == -want[1]
        assert best.mask.draw_index == want[2]
        np.testing.assert_array_equal(best.mask.b, draw(p, 77, want[2]).b)
        assert len(best.report.per_criterion) == len(targets)

    def test_empty_targets_tie_break_prefers_size_then_index(self):
        # rsse is identically zero without criteria, so the ordering is
        # pure (larger size, then earlier index)
        pop = make_pop(np.arange(30.0))
        p = np.full(30, 0.5)
        best, stats = draw_best(p, pop, TargetSet(()), n_draws=12, seed=5)
        sizes = [s.size for s in stats]
        assert best.size == max(sizes)
        assert best.mask.draw_index == sizes.index(max(sizes))
        assert best.report.rsse == 0.0

    def test_single_draw_equals_draw_plus_evaluate(self):
        pop, targets, p = self.instance()
        best, stats = draw_best(p, pop, targets, n_draws=1, seed=33)
        mask = draw(p, 33, 0)
        report = evaluate_selection(pop, targets, mask)
        np.testing.assert_array_equal(best.mask.b, mask.b)
        assert best.report.rsse == report.rsse
        assert len(stats) == 1 and stats[0].size == mask.size

    def test_indicator_probabilities_reproduce_the_planted_subset(self):
        pop, targets, _ = self.instance()
        idx = np.argsort(pop.data[:, 0])[15:45]
        p = np.zeros(60)
        p[idx] = 1.0
        best, stats = draw_best(p, pop, targets, n_draws=6, seed=2024)
        want = evaluate_selection(pop, targets, SelectionMask(p.astype(np.int8), 0, 0))
        np.testing.assert_array_equal(best.mask.b, p.astype(np.int8))
        assert best.report.rsse == want.rsse
        assert best.report.rsse <= 1e-10
        assert all(s.size == idx.size and s.rsse == want.rsse for s in stats)

    def test_all_empty_draws_raise(self):
        pop = make_pop(np.arange(5.0))
        targets = TargetSet((TargetCriterion("f", 1, 2.0),))
        with pytest.raises(AllDrawsDegenerate):
            draw_best(np.zeros(5), pop, targets, n_draws=3, seed=1)

    def test_single_member_draws_cannot_score_variance(self):
        pop = make_pop(np.arange(6.0))
        targets = TargetSet((TargetCriterion("f", 1, 2.0), TargetCriterion("f", 2, 1.0)))
        p = np.zeros(6)
        p[2] = 1.0
        with pytest.raises(AllDrawsDegenerate):
            draw_best(p, pop, targets, n_draws=4, seed=3)

    def test_partial_degeneracy_is_tolerated(self):
        # mix certain singletons out by adding enough probability mass that
        # some draws are scoreable; unscorable ones must show inf in stats
        pop = make_pop(np.arange(40.0))
        mu = 19.5
        var = float(np.sum((np.arange(40.0) - mu) ** 2) / 39.0)
        targets = TargetSet((TargetCriterion("f", 1, mu), TargetCriterion("f", 2, var)))
        p = np.full(40, 0.035)
        best, stats = draw_best(p, pop, targets, n_draws=40, seed=11)
        assert any(np.isinf(s.rsse) for s in stats)
        assert np.isfinite(best.report.rsse)

    def test_zero_target_is_raised_not_counted_as_unusable(self):
        # every draw fails the same way because of the targets, so the fault
        # is the target set's and must surface as such
        pop = make_pop(np.arange(-10.0, 11.0))
        targets = TargetSet((TargetCriterion("f", 1, 0.0),))
        with pytest.raises(ZeroTarget):
            draw_best(np.full(21, 0.5), pop, targets, n_draws=4, seed=9)
        best, _ = draw_best(np.full(21, 0.5), pop, targets, n_draws=4, seed=9, rsse_epsilon=1.0)
        assert np.isfinite(best.report.rsse)

    def test_invalid_draw_counts(self):
        pop = make_pop(np.arange(3.0))
        targets = TargetSet(())
        for bad in (0, -2, 1.5, True):
            with pytest.raises(InvalidDraws):
                draw_best(np.full(3, 0.5), pop, targets, bad, seed=0)

    def test_length_mismatch(self):
        pop = make_pop(np.arange(3.0))
        with pytest.raises(InvalidDraws):
            draw_best(np.full(4, 0.5), pop, TargetSet(()), 2, seed=0)


class TestDrawBestScoresEachMaskOnce:
    @staticmethod
    def repeating():
        # one certain member and three fractional ones: at most 8 masks in 60
        # draws.  The draw without a fractional member has one member and no
        # variance (unscorable), and the best masks, {10, 9} and {10, 11},
        # tie on RSSE and size, so the draw index decides.
        pop = make_pop([10.0, 9.0, 11.0, 15.0, 3.0, 40.0])
        targets = TargetSet((TargetCriterion("f", 1, 10.0), TargetCriterion("f", 2, 0.5)))
        p = np.array([1.0, 0.5, 0.5, 0.3, 0.0, 0.0])
        return pop, targets, p, 60

    @staticmethod
    def distinct():
        pop, targets, p = TestDrawBest.instance()
        return pop, targets, p, 20

    @staticmethod
    def rescore(pop, targets, p, n_draws, seed):
        stats, reports = [], {}
        for k in range(n_draws):
            mask = draw(p, seed, k)
            try:
                reports[k] = evaluate_selection(pop, targets, mask)
            except InsufficientData:
                stats.append(DrawStats(k, mask.size, float("inf")))
            else:
                stats.append(DrawStats(k, mask.size, reports[k].rsse))
        return stats, reports

    @pytest.mark.parametrize("case", ["repeating", "distinct"])
    def test_equals_per_draw_scoring(self, case, monkeypatch):
        pop, targets, p, n_draws = getattr(self, case)()
        calls = {"draw": 0, "evaluate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(realize, "draw", counted("draw", realize.draw))
        monkeypatch.setattr(
            realize, "evaluate_selection", counted("evaluate", realize.evaluate_selection)
        )
        best, stats = draw_best(p, pop, targets, n_draws=n_draws, seed=7)
        monkeypatch.undo()

        want, reports = self.rescore(pop, targets, p, n_draws, seed=7)
        assert stats == want
        masks = {draw(p, 7, k).b.tobytes() for k in range(n_draws)}
        assert calls == {"draw": n_draws, "evaluate": len(masks)}
        if case == "repeating":
            assert len(masks) <= 8
            assert any(np.isinf(s.rsse) for s in stats)
            by_mask = {draw(p, 7, s.draw_index).b.tobytes(): (s.rsse, s.size) for s in stats}
            assert sorted(by_mask.values())[:2] == [(0.05**2, 2)] * 2
        else:
            assert len(masks) == n_draws
        rsse, neg_size, k = min((s.rsse, -s.size, s.draw_index) for s in stats)
        assert (best.report.rsse, -best.size, best.mask.draw_index) == (rsse, neg_size, k)
        np.testing.assert_array_equal(best.mask.b, draw(p, 7, k).b)
        assert best.report == reports[k] == evaluate_selection(pop, targets, best.mask)
