import json
import re
from pathlib import Path

import numpy as np
import pytest

from dsps import synthgen
from dsps.errors import DspsError
from dsps.evaluate import evaluate_selection
from dsps.synthgen import SynthSpec, generate_population, plant_subset

from oracles import moment_oracle
from specs import lognormal, mixture, normal, synth_spec


def spec_two_features(n_p=50, seed=11) -> SynthSpec:
    return synth_spec(n_p, seed, {"glucose": normal(150.0, 30.0), "weight": lognormal(4.0, 0.3)})


def column_rng(seed, j):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))


def reference_sample(rng, node, n):
    """The documented draws of a distribution node, written out without the library."""
    if node["type"] == "normal":
        return rng.normal(node["mu"], node["sigma"], n)
    if node["type"] == "lognormal":
        return rng.lognormal(node["mu"], node["sigma"], n)
    weights = np.array([c["weight"] for c in node["components"]], dtype=float)
    which = rng.choice(weights.size, size=n, p=weights / weights.sum())
    out = np.full(n, np.nan)
    for k, component in enumerate(node["components"]):
        members = np.flatnonzero(which == k)
        if members.size:
            out[members] = reference_sample(rng, component["dist"], members.size)
    return out


def test_exports_only_the_spec_and_its_two_uses():
    assert synthgen.__all__ == ["SynthSpec", "generate_population", "plant_subset"]


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
        wide = generate_population(synth_spec(12000, 1, {"f": normal(0, 1)}))
        assert wide.member_ids[0] == "m00001"
        assert wide.member_ids[-1] == "m12000"

    def test_appending_a_feature_keeps_existing_columns(self):
        base = generate_population(spec_two_features())
        extended = generate_population(synth_spec(50, 11, {
            "glucose": normal(150.0, 30.0),
            "weight": lognormal(4.0, 0.3),
            "extra": normal(0.0, 1.0),
        }))
        np.testing.assert_array_equal(base.data, extended.data[:, :2])

    def test_column_stream_depends_on_position_not_name(self):
        a = generate_population(synth_spec(40, 5, {"x": normal(1.0, 2.0)}))
        b = generate_population(synth_spec(40, 5, {"renamed": normal(1.0, 2.0)}))
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_diverge(self):
        a = generate_population(spec_two_features(seed=1))
        b = generate_population(spec_two_features(seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_mixture_weights_are_normalised(self):
        raw = mixture((2.0, normal(0.0, 1.0)), (6.0, normal(10.0, 1.0)))
        scaled = mixture((0.25, normal(0.0, 1.0)), (0.75, normal(10.0, 1.0)))
        a = generate_population(synth_spec(200, 3, {"f": raw}))
        b = generate_population(synth_spec(200, 3, {"f": scaled}))
        np.testing.assert_array_equal(a.data, b.data)

    def test_mixture_actually_mixes(self):
        mix = mixture((0.5, normal(0.0, 0.1)), (0.5, normal(100.0, 0.1)))
        pop = generate_population(synth_spec(300, 9, {"f": mix}))
        x = pop.data[:, 0]
        assert np.sum(x < 50.0) > 50 and np.sum(x > 50.0) > 50

    def test_mixture_inside_a_mixture_draws_in_the_documented_order(self):
        # component choice first, then each component in turn, recursing into
        # the inner mixture; the zero-weight component is never drawn from
        inner = mixture((1.0, normal(0.0, 1.0)), (3.0, lognormal(1.0, 0.5)))
        outer = mixture((2.0, inner), (0.0, normal(9.0, 2.0)), (1.0, normal(50.0, 2.0)))
        nodes = {"flat": lognormal(0.0, 0.0), "nested": outer}
        pop = generate_population(synth_spec(2000, 3, nodes))
        for j, node in enumerate(nodes.values()):
            want = reference_sample(column_rng(3, j), node, 2000)
            np.testing.assert_array_equal(pop.data[:, j], want)
        x = pop.data[:, 1]
        assert np.sum(x > 40.0) > 500 and np.sum(x < 40.0) > 1000


class TestSpecValidation:
    def test_bad_parameters(self):
        for dist, message in [
            (normal(0.0, -0.5), "normal sigma must be nonnegative, got -0.5"),
            (lognormal(0.0, -1.0), "lognormal sigma must be nonnegative, got -1.0"),
            (mixture(), "mixture needs at least one component"),
            (mixture((-1.0, normal(0.0, 1.0))), "mixture weights must be finite and nonnegative"),
            (mixture((0.0, normal(0.0, 1.0)), (0.0, normal(1.0, 1.0))),
             "mixture weights must have positive total"),
            # each weight is finite, and their float64 sum is not
            (mixture((1e308, normal(0.0, 1.0)), (1e308, normal(1.0, 1.0))),
             "mixture weights must have positive total within float64, got inf"),
            (mixture((1.0, mixture((1.0, normal(0.0, -2.0))))), "normal sigma must be nonnegative"),
        ]:
            with pytest.raises(DspsError, match=f"^{re.escape(message)}"):
                synth_spec(10, 1, {"f": dist})
        features = synth_spec(10, 1, {"f": normal(0, 1)}).features
        with pytest.raises(DspsError, match="n_p must be a positive integer, got 0"):
            SynthSpec(0, 1, features)
        with pytest.raises(DspsError, match="n_p must be a positive integer, got 0"):
            synth_spec(0, 1, {"f": normal(0, 1)})
        with pytest.raises(DspsError, match="spec needs at least one feature"):
            SynthSpec(10, 1, ())
        with pytest.raises(DspsError, match="spec needs at least one feature"):
            synth_spec(10, 1, {})

    def test_weights_whose_total_float64_holds_draw_as_documented(self):
        node = mixture((8e307, normal(0.0, 1.0)), (8e307, normal(9.0, 1.0)))
        np.testing.assert_array_equal(generate_population(synth_spec(50, 2, {"f": node})).data[:, 0],
                                      reference_sample(column_rng(2, 0), node, 50))

    def test_a_spec_built_directly_checks_its_names(self):
        (_, sample), = synth_spec(10, 1, {"f": normal(0, 1)}).features
        with pytest.raises(DspsError, match="^feature name must be a string, got 5$"):
            SynthSpec(10, 1, ((5, sample),))

    def test_numpy_integers_are_stored_as_ints(self):
        spec = SynthSpec(np.int64(5), np.uint8(1), synth_spec(5, 1, {"f": normal(0, 1)}).features)
        assert type(spec.n_p) is int and type(spec.seed) is int
        assert (spec.n_p, spec.seed) == (5, 1)
        np.testing.assert_array_equal(
            generate_population(spec).data,
            generate_population(SynthSpec(5, 1, spec.features)).data)

    @pytest.mark.parametrize("n_p, seed, message", [
        (5.0, 1, "n_p must be a positive integer, got 5.0"),
        (True, 1, "n_p must be a positive integer, got True"),
        (5, -1, "seed must be a non-negative integer, got -1"),
        (5, "1", "seed must be a non-negative integer, got '1'"),
    ])
    def test_counts_are_integers(self, n_p, seed, message):
        features = synth_spec(5, 1, {"f": normal(0, 1)}).features
        with pytest.raises(DspsError, match=re.escape(message)):
            SynthSpec(n_p, seed, features)

    def test_zero_sigma_gives_constant_column(self):
        spec = synth_spec(50, 11, {"flat": normal(3.5, 0.0)})
        x = generate_population(spec).data[:, 0]
        np.testing.assert_array_equal(x, np.full(50, 3.5))
        assert np.var(x, ddof=1) == 0.0

    def test_zero_sigma_lognormal_is_constant_exp_mu(self):
        spec = synth_spec(20, 11, {"flat": lognormal(1.0, 0.0)})
        x = generate_population(spec).data[:, 0]
        np.testing.assert_allclose(x, np.full(20, np.e), rtol=1e-15)

    def test_large_sample_mean_is_close(self):
        spec = synth_spec(10_000, 99, {"g": normal(0.0, 1.0)})
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
        pop = generate_population(spec)
        assert pop.data.shape == (25, 2) and pop.feature_names == ("a", "b")
        np.testing.assert_array_equal(pop.data[:, 0], column_rng(7, 0).normal(1.0, 2.0, 25))
        b = json.loads(text)["features"][1]["dist"]
        np.testing.assert_array_equal(pop.data[:, 1], reference_sample(column_rng(7, 1), b, 25))

    def test_readme_spec_generates(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### generate\n", 1)[1].split("\n### ", 1)[0]
        text = section.split("```json\n", 1)[1].split("```", 1)[0]
        pop = generate_population(SynthSpec.from_json(text))
        assert pop.data.shape == (2000, 2) and pop.feature_names == ("glucose", "weight")
        assert np.all(np.isfinite(pop.data))

    def test_unparseable_json(self):
        with pytest.raises(DspsError, match="spec JSON does not parse"):
            SynthSpec.from_json("{not json")

    def test_missing_fields(self):
        with pytest.raises(DspsError, match="spec JSON is missing fields: 'features'"):
            SynthSpec.from_json(json.dumps({"n_p": 5, "seed": 0}))
        with pytest.raises(DspsError, match="spec JSON is missing fields: 'dist'"):
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
        with pytest.raises(DspsError, match=field):
            SynthSpec.from_json(json.dumps(raw))

    def test_from_json_refuses_a_huge_integral_float_count(self):
        # n_p = 1e300 once parsed to a 301-digit member count
        spec = {"n_p": 1e300, "seed": 0,
                "features": [{"name": "a", "dist": {"type": "normal", "mu": 0.0, "sigma": 1.0}}]}
        with pytest.raises(DspsError, match=r"^n_p must be a positive integer, got 1e\+300$"):
            SynthSpec.from_json(json.dumps(spec))

    def test_from_json_refuses_nesting_too_deep_to_parse(self):
        with pytest.raises(DspsError, match="does not parse"):
            SynthSpec.from_json("[" * 100_000)

    def test_from_json_keeps_an_integral_float(self):
        text = json.dumps({"n_p": 12.0, "seed": 3.0, "features": [
            {"name": "a", "dist": {"type": "normal", "mu": 1, "sigma": 2}}]})
        spec = SynthSpec.from_json(text)
        assert (spec.n_p, spec.seed) == (12, 3) and type(spec.n_p) is int
        np.testing.assert_array_equal(generate_population(spec).data[:, 0],
                                      column_rng(3, 0).normal(1.0, 2.0, 12))

    @pytest.mark.parametrize("dist", [{"mu": 0.0, "sigma": 1.0}, ["normal", 0.0, 1.0]],
                             ids=["no type", "not an object"])
    def test_distribution_node_needs_a_type(self, dist):
        text = json.dumps({"n_p": 5, "seed": 0, "features": [{"name": "f", "dist": dist}]})
        with pytest.raises(DspsError, match=f"^distribution node {re.escape(repr(dist))} needs a type$"):
            SynthSpec.from_json(text)

    def test_unknown_distribution_type(self):
        with pytest.raises(DspsError, match="unknown distribution type 'cauchy'"):
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
        with pytest.raises(DspsError, match="planted subset needs at least one member"):
            plant_subset(pop, [])

    def test_out_of_range_indices_rejected(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(DspsError, match="indices out of range for population of 50"):
            plant_subset(pop, [0, 50])

    @pytest.mark.parametrize("indices", [
        (np.arange(50) // 10 == 1).astype(np.int8),  # a 0/1 mask of members 10-19
        [0.7, 1.9, 2.2],
        [True, False, True],
        [0, 0, 1],
    ], ids=["int8 mask", "floats", "bools", "repeated index"])
    def test_only_distinct_integer_indices_are_planted(self, indices):
        # each was once read as member indices, planting targets no subset achieves
        pop = generate_population(spec_two_features())
        with pytest.raises(DspsError, match="indices must be distinct integers, not a mask"):
            plant_subset(pop, indices)

    def test_order_zero_rejected(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(DspsError, match="order must be a positive integer, got 0"):
            plant_subset(pop, [0, 1], orders=(0, 1))

    @pytest.mark.parametrize("order", [2.7, True, "2", 2.0])
    def test_only_integer_orders_are_planted(self, order):
        # each was once read through int(): 2.7 and "2" planted order 2, True order 1
        pop = generate_population(spec_two_features())
        message = f"order must be a positive integer, got {order!r}"
        with pytest.raises(DspsError, match=re.escape(message)):
            plant_subset(pop, [0, 1, 2], orders=(1, order))

    def test_numpy_orders_are_planted_as_ints(self):
        pop = generate_population(spec_two_features())
        targets = plant_subset(pop, [0, 1, 2], orders=np.array([1, 2]))
        assert targets == plant_subset(pop, [0, 1, 2], orders=(1, 2))
        assert all(type(c.order) is int for c in targets)

    def test_no_orders_plant_no_targets(self):
        pop = generate_population(spec_two_features())
        assert len(plant_subset(pop, [0], orders=())) == 0

    def test_singleton_cannot_plant_variance(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(DspsError, match="need at least 2 planted members above order 1"):
            plant_subset(pop, [3], orders=(1, 2))

    def test_unknown_feature_rejected(self):
        pop = generate_population(spec_two_features())
        with pytest.raises(DspsError, match="no feature named 'nope'"):
            plant_subset(pop, [0, 1], features=("nope",))
