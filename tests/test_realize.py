import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsps.dataset import Population
from dsps.errors import AllDrawsDegenerate, DspsError, InsufficientData
from dsps.evaluate import evaluate_selection
from dsps.moments import TargetCriterion, TargetSet, expected_moment, expected_size
from dsps import realize
from dsps.realize import DrawStats, draw, draw_best, uniform_stream


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

    @pytest.mark.parametrize(
        "seed, draw_index",
        [(-1, 0), (0, -2), (1.5, 0), (0, 1.0), (True, 0), (0, False), ("3", 0), (None, 0)],
    )
    def test_seed_and_draw_index_must_be_non_negative_integers(self, seed, draw_index):
        # a library error, never numpy's bare ValueError or a silent truncation
        with pytest.raises(DspsError, match="must be a non-negative integer"):
            uniform_stream(seed, draw_index, 2)
        with pytest.raises(DspsError, match="must be a non-negative integer"):
            draw(np.array([0.5, 0.5]), seed=seed, draw_index=draw_index)

    @pytest.mark.parametrize("n", [-1, 2.5, True, "3", None])
    def test_length_must_be_a_non_negative_integer(self, n):
        # a library error, never numpy's bare ValueError or TypeError
        with pytest.raises(DspsError, match=r"^n must be a non-negative integer, got "):
            uniform_stream(0, 0, n)

    def test_numpy_integers_are_integers(self):
        np.testing.assert_array_equal(
            uniform_stream(np.int64(3), np.uint8(1), 5), uniform_stream(3, 1, 5)
        )

    def test_draw_best_refuses_a_negative_seed(self):
        with pytest.raises(DspsError, match="seed must be a non-negative integer, got -1"):
            draw_best(np.full(3, 0.5), make_pop(np.arange(3.0)), TargetSet(()), 2, seed=-1)


class TestDraw:
    def test_deterministic_and_recorded(self):
        p = np.linspace(0.0, 1.0, 11)
        m1 = draw(p, seed=42, draw_index=3)
        m2 = draw(p, seed=42, draw_index=3)
        np.testing.assert_array_equal(m1, m2)
        assert m1.dtype == np.int8

    def test_mask_is_read_only(self):
        m = draw(np.array([0.5, 0.5]), seed=1)
        with pytest.raises(ValueError):
            m[0] = 1

    def test_certain_and_impossible_members(self):
        p = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        for seed in (0, 1, 17, 991):
            np.testing.assert_array_equal(draw(p, seed), [1, 0, 1, 0, 1])

    def test_selection_is_strictly_greater_than(self):
        # p equal to its own uniform must not select: the rule is p > r
        r = uniform_stream(5, 0, 8)
        assert int(np.count_nonzero(draw(r, seed=5, draw_index=0))) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(DspsError, match=r"probability 1\.2 outside \[0, 1\]"):
            draw(np.array([1.2]), seed=0)
        with pytest.raises(DspsError, match=r"probability -0\.1 outside \[0, 1\]"):
            draw(np.array([-0.1]), seed=0)

    def test_nan_rejected(self):
        # NaN fails both range comparisons, so a min/max test lets it through
        with pytest.raises(DspsError, match="probability nan outside"):
            draw(np.array([np.nan, 0.5]), seed=0)
        with pytest.raises(DspsError, match="probability nan outside"):
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
        a = draw(p, seed=123, draw_index=2)
        b = draw(q, seed=123, draw_index=2)
        mask = np.ones(p.size, dtype=bool)
        mask[i] = False
        np.testing.assert_array_equal(a[mask], b[mask])
        assert b[i] >= a[i]

    def test_mean_size_tracks_expected_size(self):
        p = np.full(100, 0.5)
        sizes = [int(np.count_nonzero(draw(p, seed=2024, draw_index=k))) for k in range(400)]
        # sd of the mean is sqrt(sum p(1-p))/sqrt(400) = 0.25; allow 4 sigma
        assert abs(float(np.mean(sizes)) - 50.0) <= 1.0

    def test_mixed_probability_mean_size_bound(self):
        # sum(p) = 50; only the 0.5 entries contribute binomial variance
        p = np.concatenate([np.ones(20), np.zeros(20), np.full(60, 0.5)])
        sizes = [int(np.count_nonzero(draw(p, seed=88, draw_index=k))) for k in range(2000)]
        spread = 3.0 * np.sqrt(float(np.sum(p * (1.0 - p))))
        assert abs(float(np.mean(sizes)) - 50.0) <= spread


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
            size = int(np.count_nonzero(mask))
            keys.append((report.rsse, -size, k))
            s = stats[k]
            assert (s.draw_index, s.size) == (k, size)
            assert s.rsse == pytest.approx(report.rsse, rel=1e-12)
        want = min(keys)
        assert best.report.rsse == pytest.approx(want[0], rel=1e-12)
        assert best.report.realized_size == -want[1]
        assert best.draw_index == want[2]
        np.testing.assert_array_equal(best.mask, draw(p, 77, want[2]))
        assert len(best.report.per_criterion) == len(targets)

    def test_empty_targets_tie_break_prefers_size_then_index(self):
        # rsse is identically zero without criteria, so the ordering is
        # pure (larger size, then earlier index)
        pop = make_pop(np.arange(30.0))
        p = np.full(30, 0.5)
        best, stats = draw_best(p, pop, TargetSet(()), n_draws=12, seed=5)
        sizes = [s.size for s in stats]
        assert best.report.realized_size == max(sizes)
        assert best.draw_index == sizes.index(max(sizes))
        assert best.report.rsse == 0.0

    def test_single_draw_equals_draw_plus_evaluate(self):
        pop, targets, p = self.instance()
        best, stats = draw_best(p, pop, targets, n_draws=1, seed=33)
        mask = draw(p, 33, 0)
        report = evaluate_selection(pop, targets, mask)
        np.testing.assert_array_equal(best.mask, mask)
        assert best.report.rsse == report.rsse
        assert len(stats) == 1 and stats[0].size == int(np.count_nonzero(mask))

    def test_indicator_probabilities_reproduce_the_planted_subset(self):
        pop, targets, _ = self.instance()
        idx = np.argsort(pop.data[:, 0])[15:45]
        p = np.zeros(60)
        p[idx] = 1.0
        best, stats = draw_best(p, pop, targets, n_draws=6, seed=2024)
        want = evaluate_selection(pop, targets, p.astype(np.int8))
        np.testing.assert_array_equal(best.mask, p.astype(np.int8))
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
        with pytest.raises(DspsError, match="criterion 0 has target 0"):
            draw_best(np.full(21, 0.5), pop, targets, n_draws=4, seed=9)

    def test_invalid_draw_counts(self):
        pop = make_pop(np.arange(3.0))
        targets = TargetSet(())
        for bad in (0, -2, 1.5, True):
            with pytest.raises(DspsError, match="n_draws must be a positive integer"):
                draw_best(np.full(3, 0.5), pop, targets, bad, seed=0)

    def test_length_mismatch(self):
        pop = make_pop(np.arange(3.0))
        with pytest.raises(DspsError, match="4 probabilities for population of 3"):
            draw_best(np.full(4, 0.5), pop, TargetSet(()), 2, seed=0)

    @staticmethod
    def first_scoring_raises(monkeypatch, error):
        # the first mask scored raises ``error``; the others score as usual
        calls = []

        def scored(pop, targets, mask):
            calls.append(mask)
            if len(calls) == 1:
                raise error("planted by the test")
            return evaluate_selection(pop, targets, mask)

        monkeypatch.setattr(realize, "evaluate_selection", scored)

    def test_insufficient_data_scores_as_inf(self, monkeypatch):
        pop = make_pop(np.arange(20.0))
        targets = TargetSet((TargetCriterion("f", 1, 9.5),))
        self.first_scoring_raises(monkeypatch, InsufficientData)
        best, stats = draw_best(np.full(20, 0.5), pop, targets, n_draws=3, seed=4)
        assert stats[0].rsse == float("inf")
        assert all(np.isfinite(s.rsse) for s in stats[1:])
        assert best.draw_index != 0

    def test_any_other_library_error_propagates(self, monkeypatch):
        pop = make_pop(np.arange(20.0))
        targets = TargetSet((TargetCriterion("f", 1, 9.5),))
        self.first_scoring_raises(monkeypatch, DspsError)
        with pytest.raises(DspsError, match="planted by the test") as info:
            draw_best(np.full(20, 0.5), pop, targets, n_draws=3, seed=4)
        assert type(info.value) is DspsError


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
                stats.append(DrawStats(k, int(np.count_nonzero(mask)), float("inf")))
            else:
                stats.append(DrawStats(k, int(np.count_nonzero(mask)), reports[k].rsse))
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
        masks = {draw(p, 7, k).tobytes() for k in range(n_draws)}
        assert calls == {"draw": n_draws, "evaluate": len(masks)}
        if case == "repeating":
            assert len(masks) <= 8
            assert any(np.isinf(s.rsse) for s in stats)
            by_mask = {draw(p, 7, s.draw_index).tobytes(): (s.rsse, s.size) for s in stats}
            assert sorted(by_mask.values())[:2] == [(0.05**2, 2)] * 2
        else:
            assert len(masks) == n_draws
        rsse, neg_size, k = min((s.rsse, -s.size, s.draw_index) for s in stats)
        assert (best.report.rsse, -best.report.realized_size, best.draw_index) == (rsse, neg_size, k)
        np.testing.assert_array_equal(best.mask, draw(p, 7, k))
        assert best.report == reports[k] == evaluate_selection(pop, targets, best.mask)


# the one vector rule: probabilities and masks are 1-D, so a 24-member
# population never reads a (4, 6) or (24, 1) array as its 24 members in C order
NOT_A_VECTOR = {
    "draw": lambda pop, targets, v: draw(v, 1),
    "draw_best": lambda pop, targets, v: draw_best(v, pop, targets, 3, seed=1),
    "evaluate mask":
        lambda pop, targets, v: evaluate_selection(pop, targets, (v > 0).astype(np.int8)),
    "expected_size": lambda pop, targets, v: expected_size(v),
    "expected_moment": lambda pop, targets, v: expected_moment(pop.data[:, 0], v, 1),
}


@pytest.mark.parametrize("shape", [(4, 6), (24, 1)])
@pytest.mark.parametrize("call", list(NOT_A_VECTOR))
def test_a_probability_vector_or_mask_that_is_not_1d_is_refused(call, shape):
    pop = make_pop(np.arange(24.0))
    targets = TargetSet((TargetCriterion("f", 1, 11.5),))
    NOT_A_VECTOR[call](pop, targets, np.full(24, 0.5))  # the same entries as a vector
    with pytest.raises(DspsError, match="must be a 1-D vector|selection of shape"):
        NOT_A_VECTOR[call](pop, targets, np.full(shape, 0.5))
