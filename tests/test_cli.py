import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from dsps.cli import main
from dsps.dataset import Population, load_population, save_population
from dsps.evaluate import evaluate_selection
from dsps.moments import TargetCriterion, TargetSet
from dsps.selection import HyperParams, solve_fixed_size, solve_max_size
from dsps.synthgen import plant_subset

SPEC_JSON = json.dumps(
    {
        "n_p": 60,
        "seed": 21,
        "features": [
            {"name": "glucose", "dist": {"type": "normal", "mu": 150.0, "sigma": 25.0}},
            {"name": "weight", "dist": {"type": "lognormal", "mu": 4.2, "sigma": 0.2}},
        ],
    }
)


def make_pop(values) -> Population:
    x = np.asarray(values, dtype=float)
    return Population(tuple(f"m{i}" for i in range(x.size)), ("f",), x[:, None])


@pytest.fixture
def workspace(tmp_path):
    """Population CSV plus targets planted from a 20-member subset."""
    rng = np.random.default_rng(2001)
    pop = make_pop(rng.normal(100.0, 15.0, 60))
    idx = np.argsort(pop.data[:, 0])[20:40]
    targets = plant_subset(pop, idx)
    pop_path = tmp_path / "population.csv"
    targets_path = tmp_path / "targets.json"
    save_population(pop, pop_path)
    targets_path.write_text(targets.to_json() + "\n", encoding="utf-8")
    return tmp_path, pop, targets, str(pop_path), str(targets_path)


def read_probabilities(out_dir):
    lines = (out_dir / "probabilities.csv").read_text().splitlines()
    assert lines[0] == "member_id,p"
    return {mid: float(v) for mid, v in (l.split(",") for l in lines[1:])}


def read_mask(out_dir):
    lines = (out_dir / "mask.csv").read_text().splitlines()
    assert lines[0] == "member_id,selected"
    return {mid: int(v) for mid, v in (l.split(",") for l in lines[1:])}


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(SPEC_JSON, encoding="utf-8")
        out1, out2 = tmp_path / "pop1.csv", tmp_path / "pop2.csv"
        assert main(["generate", "--spec", str(spec), "--out", str(out1)]) == 0
        assert main(["generate", "--spec", str(spec), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        pop = load_population(out1)
        assert pop.n_members == 60 and pop.feature_names == ("glucose", "weight")

    def test_bad_spec_is_input_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{broken", encoding="utf-8")
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 1


class TestSelect:
    def test_max_mode_end_to_end(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        out = tmp / "run"
        code = main([
            "select", "--population", pop_path, "--targets", targets_path,
            "--trial-size", "20", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("mode=max ")

        probs = read_probabilities(out)
        assert set(probs) == set(pop.member_ids)
        values = np.array([probs[m] for m in pop.member_ids])
        assert values.min() >= 0.0 and values.max() <= 1.0

        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "dsps/1"
        assert report["solver"]["status"] == "Optimal"
        assert report["expected_size"] == pytest.approx(float(values.sum()), rel=1e-12)
        assert report["realized_size"] == sum(read_mask(out).values())
        assert len(report["criteria"]) == len(targets)
        for row in report["criteria"]:
            assert {"feature", "order", "target", "expected", "realized",
                    "percentage_error"} <= set(row)
        assert len(report["draws"]) == 10
        assert report["seeds"] == {
            "seed": 7, "n_draws": 10,
            "best_draw_index": report["seeds"]["best_draw_index"],
        }

        run = json.loads((out / "run.json").read_text())
        assert run["mode"] == "max" and run["seed"] == 7
        assert run["alpha"] == pytest.approx(1.0)  # 5% of trial size 20
        assert len(run["beta"]) == len(targets) == len(run["eta_max"])
        assert run["expected_size"] == pytest.approx(report["expected_size"])
        assert run["row_labels"] == [[c.feature, c.order] for c in
                                     sorted(targets, key=lambda c: c.order)]

    def test_bundled_demo_meets_documented_threshold(self, tmp_path):
        # demo/ targets are planted from a 200-member band of the demo
        # population; the README promises rsse below 0.01 on this run
        demo = Path(__file__).resolve().parent.parent / "demo"
        pop_path = tmp_path / "population.csv"
        assert main(["generate", "--spec", str(demo / "spec.json"),
                     "--out", str(pop_path)]) == 0
        out = tmp_path / "run"
        assert main(["select", "--population", str(pop_path),
                     "--targets", str(demo / "targets.json"),
                     "--trial-size", "200", "--seed", "0",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rsse"] <= 0.01
        assert report["realized_size"] >= 150

    def test_all_modes_run(self, workspace, tmp_path):
        tmp, pop, targets, pop_path, targets_path = workspace
        common = ["--population", pop_path, "--targets", targets_path, "--seed", "3"]
        assert main(["select", *common, "--mode", "max", "--trial-size", "20",
                     "--out", str(tmp / "m1")]) == 0
        assert main(["select", *common, "--mode", "max-strict",
                     "--out", str(tmp / "m2")]) == 0
        assert main(["select", *common, "--mode", "fixed", "--n-target", "20",
                     "--alpha", "1.0", "--out", str(tmp / "m3")]) == 0

        fixed_run = json.loads((tmp / "m3" / "run.json").read_text())
        assert fixed_run["row_labels"][-1] == "size"
        assert abs(fixed_run["expected_size"] - 20.0) <= 1.0 + 1e-9
        strict_run = json.loads((tmp / "m2" / "run.json").read_text())
        assert strict_run["alpha"] is None and strict_run["beta"] is None

        # minimisation needs an instance that forces probability mass: on a
        # two-point feature every variance-row entry is equal, so no cheap
        # dust on extreme members can satisfy the row
        values = np.concatenate([np.full(60, 103.0), np.full(60, 97.0)])
        pop2 = make_pop(values)
        targets2 = TargetSet((
            TargetCriterion("f", 1, 100.0),
            TargetCriterion("f", 2, 9.0 * 40 / 39.0),
        ))
        pop2_path = tmp_path / "pop2.csv"
        targets2_path = tmp_path / "targets2.json"
        save_population(pop2, pop2_path)
        targets2_path.write_text(targets2.to_json(), encoding="utf-8")
        assert main(["select", "--population", str(pop2_path), "--targets",
                     str(targets2_path), "--mode", "min", "--alpha", "0.05",
                     "--seed", "3", "--out", str(tmp / "m4")]) == 0
        min_run = json.loads((tmp / "m4" / "run.json").read_text())
        assert min_run["expected_size"] == pytest.approx(38.0, abs=0.1)

    def test_reruns_are_byte_identical(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        args = ["select", "--population", pop_path, "--targets", targets_path,
                "--trial-size", "20", "--seed", "11", "--draws", "6"]
        assert main([*args, "--out", str(tmp / "a")]) == 0
        names = ("probabilities.csv", "mask.csv", "report.json", "run.json")
        first = {name: (tmp / "a" / name).read_bytes() for name in names}
        assert main([*args, "--out", str(tmp / "a")]) == 0
        for name in names:
            assert (tmp / "a" / name).read_bytes() == first[name], (
                f"{name} differs between identical runs"
            )
        # a different output directory changes only run.json's recorded path
        assert main([*args, "--out", str(tmp / "b")]) == 0
        for name in names[:-1]:
            assert (tmp / "b" / name).read_bytes() == first[name]

    def test_mask_reevaluates_to_reported_score(self, workspace):
        # the evaluate subcommand on mask.csv must agree with report.json
        tmp, pop, targets, pop_path, targets_path = workspace
        out = tmp / "sel"
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--seed", "5", "--out", str(out)]) == 0
        ev = tmp / "ev"
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(out / "mask.csv"), "--out", str(ev)]) == 0
        select_report = json.loads((out / "report.json").read_text())
        eval_report = json.loads((ev / "report.json").read_text())
        assert eval_report["rsse"] == pytest.approx(select_report["rsse"], rel=1e-12)
        assert eval_report["pe_mean"] == pytest.approx(select_report["pe_mean"], rel=1e-12)
        assert eval_report["realized_size"] == select_report["realized_size"]

    def test_seed_resolution_order(self, workspace, monkeypatch):
        tmp, pop, targets, pop_path, targets_path = workspace
        base = ["select", "--population", pop_path, "--targets", targets_path,
                "--trial-size", "20"]

        monkeypatch.setenv("DSPS_SEED", "5")
        assert main([*base, "--seed", "7", "--out", str(tmp / "s1")]) == 0
        assert json.loads((tmp / "s1" / "run.json").read_text())["seed"] == 7

        assert main([*base, "--out", str(tmp / "s2")]) == 0
        assert json.loads((tmp / "s2" / "run.json").read_text())["seed"] == 5

        monkeypatch.delenv("DSPS_SEED")
        assert main([*base, "--out", str(tmp / "s3")]) == 0
        assert json.loads((tmp / "s3" / "run.json").read_text())["seed"] == 0

        # an explicit seed equal to the env seed gives identical artifacts
        assert main([*base, "--seed", "5", "--out", str(tmp / "s4")]) == 0
        assert (tmp / "s2" / "mask.csv").read_bytes() == (tmp / "s4" / "mask.csv").read_bytes()

    def test_unparseable_env_seed(self, workspace, monkeypatch):
        tmp, pop, targets, pop_path, targets_path = workspace
        monkeypatch.setenv("DSPS_SEED", "not-a-number")
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--out", str(tmp / "x")]) == 1

    def test_small_sample_run_warns_on_stderr(self, tmp_path, capsys):
        # symmetric two-point feature whose variance row forces sum(p) = 10
        values = np.concatenate([np.full(20, 3.0), np.full(20, -3.0)])
        pop = make_pop(values)
        targets = TargetSet((
            TargetCriterion("f", 1, 0.0),
            TargetCriterion("f", 2, 9.0 * 10 / 9.0),
        ))
        pop_path = tmp_path / "pop.csv"
        targets_path = tmp_path / "targets.json"
        save_population(pop, pop_path)
        targets_path.write_text(targets.to_json(), encoding="utf-8")
        code = main(["select", "--population", str(pop_path), "--targets",
                     str(targets_path), "--mode", "min", "--alpha", "0.05",
                     "--seed", "1", "--out", str(tmp_path / "out"),
                     "--rsse-epsilon", "1e-9"])
        assert code == 0
        assert "below 30" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["small_sample_warning"] is True


class TestSlackSettings:
    @pytest.mark.parametrize("mode", ["max", "fixed"])
    def test_alpha_overrides_trial_size(self, workspace, mode):
        tmp, pop, targets, pop_path, targets_path = workspace
        common = ["select", "--population", pop_path, "--targets", targets_path,
                  "--mode", mode, "--n-target", "20", "--alpha", "1"]
        assert main([*common, "--out", str(tmp / "alpha")]) == 0
        assert main([*common, "--trial-size", "400", "--out", str(tmp / "both")]) == 0
        assert ((tmp / "both" / "probabilities.csv").read_bytes()
                == (tmp / "alpha" / "probabilities.csv").read_bytes())
        alone = json.loads((tmp / "alpha" / "run.json").read_text())
        both = json.loads((tmp / "both" / "run.json").read_text())
        assert both["alpha"] == alone["alpha"] == 1.0
        assert both["eta_max"] == alone["eta_max"]

    def test_fixed_run_records_the_size_row(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--mode", "fixed", "--n-target", "20", "--alpha", "0.5",
                     "--epsilon", "1e-6", "--out", str(tmp / "f")]) == 0
        run = json.loads((tmp / "f" / "run.json").read_text())
        assert len(run["beta"]) == len(run["eta_max"]) == len(targets) + 1
        assert run["beta"][-1] == 1.0 / (20.0 + 1e-6)
        assert run["eta_max"][-1] == run["alpha"] == 0.5

    def test_n_target_is_recorded_only_in_fixed_mode(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        for mode, want in (("max", None), ("fixed", 20.0)):
            assert main(["select", "--population", pop_path, "--targets", targets_path,
                         "--mode", mode, "--n-target", "20", "--alpha", "1",
                         "--out", str(tmp / mode)]) == 0
            run = json.loads((tmp / mode / "run.json").read_text())
            assert run["n_target"] == want

    def test_run_without_slack_rows_records_none(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        empty = tmp / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(empty),
                     "--mode", "max", "--alpha", "1", "--out", str(tmp / "e")]) == 0
        run = json.loads((tmp / "e" / "run.json").read_text())
        assert run["alpha"] is None and run["beta"] is None and run["eta_max"] is None


class TestJsonEncoding:
    @pytest.mark.parametrize("mode", ["max", "fixed"])
    def test_run_json_settings_match_the_solve_bit_for_bit(self, workspace, mode):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--mode", mode, "--n-target", "20", "--trial-size", "20",
                     "--out", str(tmp / mode)]) == 0
        run = json.loads((tmp / mode / "run.json").read_text())
        pop = load_population(pop_path)
        hyper = HyperParams(trial_size=20.0)
        if mode == "max":
            sel = solve_max_size(pop, targets, hyper)
        else:
            sel = solve_fixed_size(pop, targets, 20.0, hyper)
        for name in ("beta", "eta_max"):
            got = np.array(run[name], dtype=float)
            assert got.tobytes() == getattr(sel, name).tobytes()
        assert run["alpha"] == sel.alpha and run["expected_size"] == sel.expected_size

    def test_evaluate_stdout_is_the_report_file(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--out", str(tmp / "sel")]) == 0
        common = ["evaluate", "--population", pop_path, "--targets", targets_path,
                  "--mask", str(tmp / "sel" / "mask.csv")]
        capsys.readouterr()
        assert main(common) == 0
        stdout = capsys.readouterr().out
        assert main([*common, "--out", str(tmp / "ev")]) == 0
        assert stdout == (tmp / "ev" / "report.json").read_text(encoding="utf-8")


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["select", "--population", "x.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_mode_is_one(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--mode", "banana", "--out", str(tmp / "x")]) == 1

    def test_missing_population_file_is_one(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", str(tmp / "absent.csv"),
                     "--targets", targets_path, "--trial-size", "20",
                     "--out", str(tmp / "x")]) == 1

    def test_malformed_targets_is_one(self, workspace, tmp_path):
        tmp, pop, targets, pop_path, targets_path = workspace
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "an array"}', encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(bad),
                     "--trial-size", "20", "--out", str(tmp / "x")]) == 1

    def test_fixed_mode_without_n_target_is_one(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--mode", "fixed", "--alpha", "1.0",
                     "--out", str(tmp / "x")]) == 1

    def test_zero_draws_is_one(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--draws", "0",
                     "--out", str(tmp / "x")]) == 1

    def test_missing_slack_budget_is_one(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--out", str(tmp / "x")]) == 1
        assert "alpha or trial_size" in capsys.readouterr().err

    def test_min_mode_without_targets_is_one(self, workspace, capsys):
        # with no rows the min-size optimum is p = 0, and every draw is empty
        tmp, pop, targets, pop_path, targets_path = workspace
        empty = tmp / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(empty),
                     "--mode", "min", "--alpha", "1", "--out", str(tmp / "e")]) == 1
        assert "at least one target criterion" in capsys.readouterr().err

    def test_infeasible_targets_are_two(self, tmp_path):
        pop = make_pop([1.0, 2.0, 3.0])
        targets = TargetSet((
            TargetCriterion("f", 1, 50.0),
            TargetCriterion("f", 2, 1.0),
        ))
        pop_path = tmp_path / "pop.csv"
        targets_path = tmp_path / "targets.json"
        save_population(pop, pop_path)
        targets_path.write_text(targets.to_json(), encoding="utf-8")
        code = main(["select", "--population", str(pop_path), "--targets",
                     str(targets_path), "--alpha", "0.05",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_strict_mode_unreachable_mean_is_two(self, tmp_path):
        # a mean target above every feature value leaves only the empty
        # selection, which the strict solve reports as infeasible
        pop = make_pop([1.0, 2.0, 3.0])
        targets = TargetSet((TargetCriterion("f", 1, 50.0),))
        pop_path = tmp_path / "pop.csv"
        targets_path = tmp_path / "targets.json"
        save_population(pop, pop_path)
        targets_path.write_text(targets.to_json(), encoding="utf-8")
        code = main(["select", "--population", str(pop_path), "--targets",
                     str(targets_path), "--mode", "max-strict",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_target_feature_is_one(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        bad = tmp / "bad_targets.json"
        bad.write_text(
            json.dumps([{"feature": "cholesterol", "order": 1, "value": 1.0}]),
            encoding="utf-8",
        )
        code = main(["select", "--population", pop_path, "--targets", str(bad),
                     "--alpha", "0.05", "--out", str(tmp / "x")])
        assert code == 1
        assert "cholesterol" in capsys.readouterr().err

    def test_degenerate_draws_are_three(self, tmp_path):
        # only the first member can carry probability, so every draw is a
        # singleton and the variance criterion can never be scored
        pop = make_pop([5.0, 100.0, 200.0, 300.0])
        targets = TargetSet((
            TargetCriterion("f", 1, 5.0),
            TargetCriterion("f", 2, 1.0),
        ))
        pop_path = tmp_path / "pop.csv"
        targets_path = tmp_path / "targets.json"
        save_population(pop, pop_path)
        targets_path.write_text(targets.to_json(), encoding="utf-8")
        code = main(["select", "--population", str(pop_path), "--targets",
                     str(targets_path), "--alpha", "0.01", "--seed", "0",
                     "--out", str(tmp_path / "x")])
        assert code == 3

    def test_zero_target_is_one(self, tmp_path, capsys):
        # mean and skewness targets are exactly 0, so a relative error against
        # them is undefined whatever the draw: one input error, not exit 3
        half = np.array([0.1107, 5.9456, 47.5601, 12.2722, 47.5601])
        pop = make_pop(np.concatenate([half, -half]))
        targets = plant_subset(pop, np.arange(pop.n_members), orders=(1, 2, 3))
        assert [c.value for c in targets if c.order != 2] == [0.0, 0.0]
        pop_path = tmp_path / "pop.csv"
        targets_path = tmp_path / "targets.json"
        save_population(pop, pop_path)
        targets_path.write_text(targets.to_json(), encoding="utf-8")
        common = ["select", "--population", str(pop_path), "--targets", str(targets_path),
                  "--mode", "max", "--trial-size", "10", "--draws", "5"]
        assert main([*common, "--out", str(tmp_path / "x")]) == 1
        assert "has target 0; relative error is undefined" in capsys.readouterr().err
        assert main([*common, "--rsse-epsilon", "1e-3", "--out", str(tmp_path / "y")]) == 0

    def test_solver_failure_is_four(self, workspace, monkeypatch, capsys):
        from dsps import selection
        from dsps.errors import NumericalBreakdown

        def breaks_down(problem, max_iterations=None):
            raise NumericalBreakdown("singular basis matrix")

        monkeypatch.setattr(selection, "solve_lp", breaks_down)
        tmp, _, _, pop_path, targets_path = workspace
        code = main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--out", str(tmp / "x")])
        assert code == 4
        assert "solver failure: singular basis matrix" in capsys.readouterr().err


class TestEvaluate:
    def test_stdout_report(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        mask_path = tmp / "hand_mask.csv"
        rows = ["member_id,selected"]
        rows += [f"{mid},{1 if i % 2 == 0 else 0}" for i, mid in enumerate(pop.member_ids)]
        mask_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(mask_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "dsps/1"
        assert payload["realized_size"] == 30
        assert payload["solver"] is None

    def test_planted_mask_scores_near_zero(self, workspace, capsys):
        # the targets came from members ranked 20..39, so that exact mask
        # must reproduce them to rounding error
        tmp, pop, targets, pop_path, targets_path = workspace
        idx = set(np.argsort(pop.data[:, 0])[20:40].tolist())
        mask_path = tmp / "planted_mask.csv"
        rows = ["member_id,selected"]
        rows += [f"{mid},{1 if i in idx else 0}" for i, mid in enumerate(pop.member_ids)]
        mask_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(mask_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rsse"] <= 1e-10

    def test_all_ones_mask_matches_full_population_targets(self, workspace, capsys):
        tmp, pop, _, pop_path, _ = workspace
        full = plant_subset(pop, np.arange(pop.n_members))
        targets_path = tmp / "full_targets.json"
        targets_path.write_text(full.to_json(), encoding="utf-8")
        mask_path = tmp / "ones_mask.csv"
        rows = ["member_id,selected"] + [f"{mid},1" for mid in pop.member_ids]
        mask_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets",
                     str(targets_path), "--mask", str(mask_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rsse"] <= 1e-12
        assert payload["realized_size"] == pop.n_members

    def test_report_matches_library_evaluation_exactly(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        rng = np.random.default_rng(5150)
        b = rng.integers(0, 2, pop.n_members)
        while b.sum() < 2:
            b = rng.integers(0, 2, pop.n_members)
        mask_path = tmp / "random_mask.csv"
        rows = ["member_id,selected"]
        rows += [f"{mid},{int(v)}" for mid, v in zip(pop.member_ids, b)]
        mask_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(mask_path)]) == 0
        payload = json.loads(capsys.readouterr().out)

        report = evaluate_selection(pop, targets, b.astype(np.int8))
        assert payload["rsse"] == report.rsse
        assert payload["pe_mean"] == report.pe_mean
        assert payload["pe_sd"] == report.pe_sd
        by_key = {(c.feature, c.order): c for c in report.per_criterion}
        for row in payload["criteria"]:
            want = by_key[(row["feature"], row["order"])]
            assert row["realized"] == want.achieved
            assert row["percentage_error"] == want.percentage_error

    def test_mask_id_mismatch_is_one(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        mask_path = tmp / "bad_mask.csv"
        mask_path.write_text("member_id,selected\nstranger,1\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(mask_path)]) == 1
        # a repeated id would otherwise let its last row override the first
        rows = ["member_id,selected"] + [f"{mid},1" for mid in pop.member_ids]
        rows.append(f"{pop.member_ids[0]},0")
        mask_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(mask_path)]) == 1
        assert "listed twice" in capsys.readouterr().err

    def test_bad_mask_value_is_one(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        mask_path = tmp / "bad_mask.csv"
        rows = ["member_id,selected"] + [f"{mid},2" for mid in pop.member_ids]
        mask_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(mask_path)]) == 1


class TestPackaging:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.skipif(shutil.which("dsps") is None, reason="console script not on PATH")
    def test_console_script_runs(self):
        proc = subprocess.run(["dsps", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("dsps ")
