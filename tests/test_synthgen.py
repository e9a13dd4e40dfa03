import json

import numpy as np
import pytest

from dsps.errors import (
    EmptyIndices,
    InsufficientForOrder,
    InvalidSpec,
    UnknownFeature,
)
from dsps.evaluate import evaluate_selection
from dsps.synthgen import (
    FeatureSpec,
    LogNormal,
    Mixture,
    Normal,
    SynthSpec,
    generate_population,
    plant_subset,
)

from oracles import moment_oracle


def spec_two_features(n_p=50, seed=11) -> SynthSpec:
    return SynthSpec(
        n_p=n_p,
        seed=seed,
        features=(
            FeatureSpec("glucose", Normal(150.0, 30.0)),
            FeatureSpec("weight", LogNormal(4.0, 0.3)),
        ),
    )


class TestGenerate:
    def test_repeatable(self):
        a = generate_population(spec_two_features())
        b = generate_population(spec_two_features())
        np.testing.assert_array_equal(a.data, b.data)
        assert a.member_ids == b.member_ids
        assert a.feature_names == ("glucose", "weight")

    def test_member_ids_one_based_zero_padded(self):
        pop = generate_population(spec_two_features(n_p=3))
        assert pop.member_ids == ("m0001", "m0002", "m0003")
        wide = generate_population(
            SynthSpec(12000, 1, (FeatureSpec("f", Normal(0, 1)),))
        )
        assert wide.member_ids[0] == "m00001"
        assert wide.member_ids[-1] == "m12000"

    def test_appending_a_feature_keeps_existing_columns(self):
        base = generate_population(spec_two_features())
        extended = generate_population(
            SynthSpec(
                50,
                11,
                (
                    FeatureSpec("glucose", Normal(150.0, 30.0)),
                    FeatureSpec("weight", LogNormal(4.0, 0.3)),
                    FeatureSpec("extra", Normal(0.0, 1.0)),
                ),
            )
        )
        np.testing.assert_array_equal(base.data, extended.data[:, :2])

    def test_column_stream_depends_on_position_not_name(self):
        a = generate_population(
            SynthSpec(40, 5, (FeatureSpec("x", Normal(1.0, 2.0)),))
        )
        b = generate_population(
            SynthSpec(40, 5, (FeatureSpec("renamed", Normal(1.0, 2.0)),))
        )
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_diverge(self):
        a = generate_population(spec_two_features(seed=1))
        b = generate_population(spec_two_features(seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_mixture_weights_are_normalised(self):
        raw = Mixture(((2.0, Normal(0.0, 1.0)), (6.0, Normal(10.0, 1.0))))
        scaled = Mixture(((0.25, Normal(0.0, 1.0)), (0.75, Normal(10.0, 1.0))))
        a = generate_population(SynthSpec(200, 3, (FeatureSpec("f", raw),)))
        b = generate_population(SynthSpec(200, 3, (FeatureSpec("f", scaled),)))
        np.testing.assert_array_equal(a.data, b.data)

    def test_mixture_actually_mixes(self):
        mix = Mixture(((0.5, Normal(0.0, 0.1)), (0.5, Normal(100.0, 0.1))))
        pop = generate_population(SynthSpec(300, 9, (FeatureSpec("f", mix),)))
        x = pop.data[:, 0]
        assert np.sum(x < 50.0) > 50 and np.sum(x > 50.0) > 50


class TestSpecValidation:
    def test_bad_parameters(self):
        with pytest.raises(InvalidSpec):
            Normal(0.0, -0.5)
        with pytest.raises(InvalidSpec):
            LogNormal(0.0, -1.0)
        with pytest.raises(InvalidSpec):
            Mixture(())
        with pytest.raises(InvalidSpec):
            Mixture(((-1.0, Normal(0.0, 1.0)),))
        with pytest.raises(InvalidSpec):
            Mixture(((0.0, Normal(0.0, 1.0)), (0.0, Normal(1.0, 1.0))))
        with pytest.raises(InvalidSpec):
            SynthSpec(0, 1, (FeatureSpec("f", Normal(0, 1)),))
        with pytest.raises(InvalidSpec):
            SynthSpec(10, 1, ())

    def test_zero_sigma_gives_constant_column(self):
        spec = SynthSpec(50, 11, (FeatureSpec("flat", Normal(3.5, 0.0)),))
        x = generate_population(spec).data[:, 0]
        np.testing.assert_array_equal(x, np.full(50, 3.5))
        assert np.var(x, ddof=1) == 0.0

    def test_zero_sigma_lognormal_is_constant_exp_mu(self):
        spec = SynthSpec(20, 11, (FeatureSpec("flat", LogNormal(1.0, 0.0)),))
        x = generate_population(spec).data[:, 0]
        np.testing.assert_allclose(x, np.full(20, np.e), rtol=1e-15)

    def test_large_sample_mean_is_close(self):
        spec = SynthSpec(10_000, 99, (FeatureSpec("g", Normal(0.0, 1.0)),))
        x = generate_population(spec).data[:, 0]
        assert abs(float(np.mean(x))) < 0.05


class TestSpecJson:
    def test_round_trip_with_nested_mixture(self):
        text = json.dumps(
            {
                "n_p": 25,
                "seed": 7,
                "features": [
                    {"name": "a", "dist": {"type": "normal", "mu": 1.0, "sigma": 2.0}},
                    {
                        "name": "b",
                        "dist": {
                            "type": "mixture",
                            "components": [
                                {
                                    "weight": 0.3,
                                    "dist": {"type": "lognormal", "mu": 0.0, "sigma": 0.5},
                                },
                                {
                                    "weight": 0.7,
                                    "dist": {"type": "normal", "mu": 5.0, "sigma": 1.0},
                                },
                            ],
                        },
                    },
                ],
            }
        )
        spec = SynthSpec.from_json(text)
        assert spec.n_p == 25 and spec.seed == 7
        assert spec.features[0].dist == Normal(1.0, 2.0)
        assert isinstance(spec.features[1].dist, Mixture)
        pop = generate_population(spec)
        assert pop.data.shape == (25, 2)

    def test_unparseable_json(self):
        with pytest.raises(InvalidSpec):
            SynthSpec.from_json("{not json")

    def test_missing_fields(self):
        with pytest.raises(InvalidSpec):
            SynthSpec.from_json(json.dumps({"n_p": 5, "seed": 0}))
        with pytest.raises(InvalidSpec):
            SynthSpec.from_json(
                json.dumps({"n_p": 5, "seed": 0, "features": [{"name": "f"}]})
            )

    # each was coerced once (12.7 truncated to 12 members, true to seed 1,
    # 5 to the name "5", "3" to 3.0), or escaped as a bare ValueError
    @pytest.mark.parametrize("path, bad, field", [
        (("n_p",), 12.7, "n_p"),
        (("seed",), True, "seed"),
        (("seed",), -1, "seed"),
        (("features", 0, "name"), 5, "name"),
        (("features", 0, "dist", "mu"), "3", "mu"),
        (("features", 0, "dist", "mu"), "abc", "mu"),
        (("features", 1, "dist", "components", 0, "weight"), float("inf"), "weight"),
    ], ids=["fractional n_p", "bool seed", "negative seed", "int name", "string mu",
            "text mu", "infinite weight"])
    def test_from_json_refuses_what_it_used_to_coerce(self, path, bad, field):
        raw = {
            "n_p": 12,
            "seed": 3,
            "features": [
                {"name": "a", "dist": {"type": "normal", "mu": 1.0, "sigma": 2.0}},
                {"name": "b", "dist": {"type": "mixture", "components": [
                    {"weight": 1.0, "dist": {"type": "lognormal", "mu": 0.0, "sigma": 0.5}},
                ]}},
            ],
        }
        assert SynthSpec.from_json(json.dumps(raw)).n_p == 12
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(InvalidSpec, match=field):
            SynthSpec.from_json(json.dumps(raw))

    def test_from_json_refuses_nesting_too_deep_to_parse(self):
        with pytest.raises(InvalidSpec, match="does not parse"):
            SynthSpec.from_json("[" * 100_000)

    def test_from_json_keeps_an_integral_float(self):
        text = json.dumps({"n_p": 12.0, "seed": 3.0, "features": [
            {"name": "a", "dist": {"type": "normal", "mu": 1, "sigma": 2}}]})
        spec = SynthSpec.from_json(text)
        assert (spec.n_p, spec.seed) == (12, 3) and type(spec.n_p) is int
        assert spec.features[0].dist == Normal(1.0, 2.0)

    def test_unknown_distribution_type(self):
        with pytest.raises(InvalidSpec):
            SynthSpec.from_json(
                json.dumps(
                    {
                        "n_p": 5,
                        "seed": 0,
                        "features": [
                            {"name": "f", "dist": {"type": "cauchy", "loc": 0.0}}
                        ],
                    }
                )
            )


class TestPlantSubset:
    def test_planted_subset_achieves_its_targets_exactly(self):
        pop = generate_population(spec_two_features(n_p=80))
        idx = np.arange(10, 40)
        targets = plant_subset(pop, idx)
        mask = np.zeros(80, dtype=np.int8)
        mask[idx] = 1
        report = evaluate_selection(pop, targets, mask)
        assert report.rsse == 0.0
        assert report.pe_mean == 0.0

    def test_values_match_oracle_up_to_order_four(self):
        pop = generate_population(spec_two_features(n_p=60))
        idx = np.arange(0, 60, 2)
        targets = plant_subset(pop, idx, features=("glucose",), orders=(1, 2, 3, 4))
        xs = pop.data[idx, 0].tolist()
        assert len(targets) == 4
        for c in targets:
            assert c.feature == "glucose"
            assert c.value == pytest.approx(moment_oracle(xs, c.order), rel=1e-12)

    def test_feature_subset_only(self):
        pop = generate_population(spec_two_features())
        targets = plant_subset(pop, [0, 1, 2], features=("weight",))
        assert {c.feature for c in targets} == {"weight"}

    def test_empty_indices_rejected(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(EmptyIndices):
            plant_subset(pop, [])

    def test_out_of_range_indices_rejected(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(EmptyIndices):
            plant_subset(pop, [0, 50])

    def test_order_zero_rejected(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(InsufficientForOrder):
            plant_subset(pop, [0, 1], orders=(0, 1))

    def test_singleton_cannot_plant_variance(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(InsufficientForOrder):
            plant_subset(pop, [3], orders=(1, 2))

    def test_unknown_feature_rejected(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(UnknownFeature):
            plant_subset(pop, [0, 1], features=("nope",))
