import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsps.errors import DspsError, InsufficientData
from dsps.moments import (
    TargetCriterion,
    TargetSet,
    expected_moment,
    expected_size,
    sample_moment,
)

from oracles import moment_oracle, weighted_moment_oracle


class TestSampleMoment:
    def test_mean(self):
        assert sample_moment([1.0, 2.0, 3.0], 1) == 2.0

    def test_variance_about_given_center(self):
        # a moment about given reference values is the unit-weight expected moment
        assert expected_moment([1.0, 2.0, 3.0], np.ones(3), 2, target_mean=2.0) == 1.0

    def test_variance_default_is_unbiased(self):
        assert sample_moment([0.0, 2.0], 2) == 2.0  # divisor n - 1

    def test_skewness_frozen_value(self):
        # asymmetric five-point set; value computed by the direct-sum oracle
        vals = [1.0, 2.0, 3.0, 4.0, 10.0]
        got = sample_moment(vals, 3)
        assert got == pytest.approx(0.8145870119269027, rel=1e-13)
        assert got == pytest.approx(moment_oracle(vals, 3), rel=1e-13)

    def test_two_point_excess_kurtosis(self):
        # equal-count +-a with its population scale has excess kurtosis -2
        a = 1.7
        vals = [-a] * 6 + [a] * 6
        got = expected_moment(vals, np.ones(12), 4, target_mean=0.0, target_var=a * a)
        assert got == pytest.approx(-2.0, abs=1e-9)

    def test_higher_orders_are_raw_central(self):
        vals = [1.0, 2.0, 4.0]
        for k in (5, 6, 7):
            assert sample_moment(vals, k) == pytest.approx(
                moment_oracle(vals, k), rel=1e-12
            )

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(90125)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n)
            for k in range(1, 7):
                lib = sample_moment(x, k)
                ref = moment_oracle(x, k)
                assert lib == pytest.approx(ref, rel=1e-12), (n, k)

    def test_empty_input(self):
        with pytest.raises(InsufficientData, match="no values"):
            sample_moment([], 1)

    def test_single_value_variance(self):
        with pytest.raises(InsufficientData, match="order-2 moment needs at least 2 values"):
            sample_moment([3.0], 2)

    def test_zero_spread_skewness(self):
        with pytest.raises(InsufficientData, match="variance scale 0.0 is not positive"):
            sample_moment([2.0, 2.0, 2.0], 3)

    def test_explicit_zero_scale(self):
        with pytest.raises(InsufficientData, match="variance scale 0.0 is not positive"):
            expected_moment([1.0, 2.0], [1.0, 1.0], 4, target_mean=1.5, target_var=0.0)

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=30),
        st.floats(-50, 50),
    )
    @settings(max_examples=60)
    def test_translation_covariance(self, xs, shift):
        shifted = [x + shift for x in xs]
        assert sample_moment(shifted, 1) == pytest.approx(
            sample_moment(xs, 1) + shift, abs=1e-7
        )
        assert sample_moment(shifted, 2) == pytest.approx(
            sample_moment(xs, 2), abs=1e-6
        )
        assert sample_moment(shifted, 5) == pytest.approx(
            sample_moment(xs, 5), abs=1e-4
        )

    def test_symmetric_skewness_is_zero(self):
        vals = [-3.0, -1.0, 1.0, 3.0]
        assert sample_moment(vals, 3) == pytest.approx(0.0, abs=1e-12)


class TestExpectedSize:
    def test_sum(self):
        assert expected_size([0.2] * 5) == pytest.approx(1.0)

    def test_empty(self):
        assert expected_size([]) == 0.0

    def test_out_of_range(self):
        with pytest.raises(DspsError, match=r"probability 1\.2 outside \[0, 1\]"):
            expected_size([0.5, 1.2])
        with pytest.raises(DspsError, match=r"probability -0\.01 outside \[0, 1\]"):
            expected_size([-0.01])

    def test_nan_rejected(self):
        # NaN fails both range comparisons, so a min/max test lets it through
        with pytest.raises(DspsError, match="nan"):
            expected_size([np.nan, 0.5])


class TestExpectedMoment:
    def test_ones_recovers_sample_moment(self):
        rng = np.random.default_rng(41)
        x = rng.normal(3.0, 2.0, 25)
        ones = np.ones(25)
        # the sample's own mean and variance, so sample_moment centres and scales by them too
        mu = sample_moment(x, 1)
        var = sample_moment(x, 2)
        for k in range(1, 7):
            assert expected_moment(x, ones, k, mu, var) == pytest.approx(
                sample_moment(x, k), rel=1e-12
            )

    def test_weighted_variance_against_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 8)
        p = rng.uniform(0.1, 1.0, 8)
        got = expected_moment(x, p, 2, target_mean=0.25)
        ref = weighted_moment_oracle(x, p, 2, target_mean=0.25)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_weighted_orders_against_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(1.0, 2.0, 12)
        p = rng.uniform(0.05, 1.0, 12)
        for k in (1, 3, 4, 5, 6):
            got = expected_moment(x, p, k, target_mean=1.1, target_var=3.9)
            ref = weighted_moment_oracle(x, p, k, target_mean=1.1, target_var=3.9)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DspsError, match="2 values but 1 probabilities"):
            expected_moment([1.0, 2.0], [0.5], 1)

    def test_no_mass(self):
        with pytest.raises(InsufficientData, match="expected size is zero"):
            expected_moment([1.0, 2.0], [0.0, 0.0], 1)

    def test_variance_needs_mass_above_one(self):
        with pytest.raises(InsufficientData, match="weighted variance needs expected size above 1"):
            expected_moment([1.0, 2.0], [0.5, 0.5], 2, target_mean=1.5)

    def test_requires_reference_statistics(self):
        # a missing reference is bad input, not too little mass: draw_best would
        # score InsufficientData as RSSE +inf
        with pytest.raises(DspsError, match="requires target_mean") as exc:
            expected_moment([1.0, 2.0], [1.0, 1.0], 2)
        assert exc.type is DspsError
        with pytest.raises(DspsError, match="requires target_var") as exc:
            expected_moment([1.0, 2.0], [1.0, 1.0], 3, target_mean=1.5)
        assert exc.type is DspsError


@pytest.mark.parametrize("order", [0, -1, 2.5, 2.0, True, "2", None])
def test_moments_refuse_an_order_that_is_not_a_positive_integer(order):
    # order 0 was once a moment of 1.0, and order 2.5 NaN with a RuntimeWarning
    message = re.escape(f"order must be a positive integer, got {order!r}")
    with pytest.raises(DspsError, match=message):
        sample_moment([1.0, 2.0, 4.0], order)
    with pytest.raises(DspsError, match=message):
        expected_moment([1.0, 2.0, 4.0], [1.0, 1.0, 1.0], order, target_mean=2.0, target_var=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("values, order", [
    ([1.0, 2.0, 4.0], 10**30),
    ([1.0, 2.0, 4.0], 10**30 + 1),
    ([0.0, 1e100, 3e100, 7e100], 4),
], ids=["even order", "odd order", "kurtosis scale"])
def test_an_overflowing_sample_moment_names_its_order(values, order):
    # each returned inf or NaN, the first with "overflow encountered in power"
    with pytest.raises(DspsError, match=rf"^the order-{order} moment overflows float64$"):
        sample_moment(values, order)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("values, order, refs", [
    ([1.0, 2.0, 4.0], 10**30, (2.0,)),
    ([1.0, 2.0, 4.0], 10**30 + 1, (2.0,)),
    ([0.0, 1e100, 3e100, 7e100], 4, (2.75e100, 1e200)),
    ([1e308, -1e308], 2, (0.0,)),
], ids=["even order", "odd order", "kurtosis scale", "deviation"])
def test_an_overflowing_expected_moment_names_its_order(values, order, refs):
    # each returned inf or NaN, the first with "overflow encountered in power"
    with pytest.raises(DspsError, match=rf"^the order-{order} moment overflows float64$"):
        expected_moment(values, [1.0] * len(values), order, *refs)


def test_moments_take_a_numpy_order():
    x = [1.0, 2.0, 4.0]
    assert sample_moment(x, np.int64(3)) == sample_moment(x, 3)
    assert expected_moment(x, [0.5, 1.0, 1.0], np.uint8(2), target_mean=2.0) == \
        expected_moment(x, [0.5, 1.0, 1.0], 2, target_mean=2.0)


class TestTargetSet:
    def test_lookup(self):
        criteria = (TargetCriterion("a", 1, 5.0), TargetCriterion("a", 2, 2.0))
        ts = TargetSet(criteria)
        assert ts.criteria == criteria
        assert {(c.feature, c.order): c.value for c in ts} == {("a", 1): 5.0, ("a", 2): 2.0}
        assert ts.references("a", 2) == (5.0, None)
        # the criteria are the only field: a second argument is refused, not dropped
        with pytest.raises(TypeError):
            TargetSet(criteria, {})

    @pytest.mark.parametrize("order, want", [
        (1, (None, None)), (2, (5.0, None)), (3, (5.0, 2.0)), (4, (5.0, 2.0)), (5, (5.0, None)),
    ])
    def test_references_are_the_targets_an_order_is_taken_about(self, order, want):
        ts = TargetSet((
            TargetCriterion("a", 1, 5.0),
            TargetCriterion("a", 2, 2.0),
            TargetCriterion("b", 1, 9.0),
        ))
        assert ts.references("a", order) == want
        # the same rule is the prerequisite check: "b" has no order-2 target
        if order in (3, 4):
            with pytest.raises(DspsError, match=rf"\('b', {order}\) needs an order-2 target"):
                ts.references("b", order)
        else:
            assert ts.references("b", order) == (None if order == 1 else 9.0, None)

    def test_duplicate_criterion(self):
        with pytest.raises(DspsError, match=r"duplicate target for \('a', 1\)"):
            TargetSet((
                TargetCriterion("a", 1, 5.0),
                TargetCriterion("a", 1, 6.0),
            ))

    def test_variance_requires_mean(self):
        with pytest.raises(DspsError, match=r"\('a', 2\) needs an order-1 target"):
            TargetSet((TargetCriterion("a", 2, 2.0),))

    def test_skewness_requires_variance(self):
        with pytest.raises(DspsError, match=r"\('a', 3\) needs an order-2 target"):
            TargetSet((
                TargetCriterion("a", 1, 5.0),
                TargetCriterion("a", 3, 0.4),
            ))

    def test_negative_variance_target(self):
        with pytest.raises(DspsError, match="variance target for 'a' is negative"):
            TargetCriterion("a", 2, -1.0)

    def test_bad_order(self):
        with pytest.raises(DspsError, match="order must be a positive integer, got 0"):
            TargetCriterion("a", 0, 1.0)

    def test_numpy_order_is_stored_as_an_int(self):
        # a numpy integer is an order, as it is a seed or a draw count
        c = TargetCriterion("a", np.int64(2), 1.0)
        assert type(c.order) is int and c == TargetCriterion("a", 2, 1.0)
        ts = TargetSet((TargetCriterion("a", np.uint8(1), 5.0), c))
        assert TargetSet.from_json(ts.to_json()) == ts

    def test_json_round_trip(self):
        ts = TargetSet((
            TargetCriterion("hba1c", 1, 8.1),
            TargetCriterion("hba1c", 2, 1.44),
            TargetCriterion("fpg", 1, 172.5),
        ))
        again = TargetSet.from_json(ts.to_json())
        assert again == ts

    def test_from_json_rejects_a_boolean_order(self):
        # JSON true is a Python bool, an int subclass that would pass as order 1
        with pytest.raises(DspsError, match="order"):
            TargetSet.from_json('[{"feature": "a", "order": true, "value": 1.0}]')

    # each was coerced once: 7 into the name "7", true into 1.0, "3" into 3.0,
    # and "abc" escaped as a bare ValueError
    @pytest.mark.parametrize("item, field", [
        ('"feature": 7, "order": 1, "value": 1.0', "feature"),
        ('"feature": "a", "order": 1, "value": true', "value"),
        ('"feature": "a", "order": 1, "value": "3"', "value"),
        ('"feature": "a", "order": 1, "value": "abc"', "value"),
        ('"feature": "a", "order": 1, "value": 1' + "0" * 400, "value"),
    ], ids=["int feature", "bool value", "string value", "text value", "huge int value"])
    def test_from_json_refuses_what_it_used_to_coerce(self, item, field):
        with pytest.raises(DspsError, match=field):
            TargetSet.from_json(f"[{{{item}}}]")

    @pytest.mark.parametrize("text, message", [
        ('[{"feature": "x", "order": 1, "value": Infinity}]', r"^target for \('x', 1\) is not finite$"),
        ('[{"feature": "x", "order": 1, "value": NaN}]', r"^target for \('x', 1\) is not finite$"),
        ('[{"feature": "x", "order": 1}]', "needs feature/order/value$"),
        ('[["x", 1, 2.0]]', "needs feature/order/value$"),
    ], ids=["infinite value", "NaN value", "no value", "not an object"])
    def test_from_json_refuses_a_criterion_it_cannot_hold(self, text, message):
        with pytest.raises(DspsError, match=message):
            TargetSet.from_json(text)

    def test_from_json_refuses_nesting_too_deep_to_parse(self):
        with pytest.raises(DspsError, match="does not parse"):
            TargetSet.from_json("[" * 100_000)

    def test_from_json_takes_an_integral_float_order_only_up_to_two_to_the_53(self):
        # 1e300 once became a 301-digit int, refused only by the row's overflow
        # check, whose message printed every digit
        with pytest.raises(DspsError, match=r"^order must be a positive integer, got 1e\+300$"):
            TargetSet.from_json('[{"feature": "a", "order": 1e300, "value": 1.0}]')
        message = "order must be a positive integer, got 9007199254740994.0"  # 2**53 + 2
        with pytest.raises(DspsError, match=f"^{re.escape(message)}$"):
            TargetSet.from_json('[{"feature": "a", "order": 9007199254740994.0, "value": 1.0}]')
        ts = TargetSet.from_json('[{"feature": "a", "order": 1, "value": 1.0}, '
                                 '{"feature": "a", "order": 9007199254740992.0, "value": 1.0}]')
        assert ts.criteria[1].order == 2**53 and type(ts.criteria[1].order) is int

    def test_from_json_keeps_an_integer_value(self):
        ts = TargetSet.from_json('[{"feature": "a", "order": 1.0, "value": 3}]')
        assert ts.criteria == (TargetCriterion("a", 1, 3.0),)
        assert type(ts.criteria[0].value) is float

    def test_from_json_rejects_non_array(self):
        with pytest.raises(DspsError, match="targets JSON must be an array"):
            TargetSet.from_json('{"feature": "a"}')

    def test_empty_allowed(self):
        assert len(TargetSet(())) == 0
