import argparse
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from dsps.cli import MODES, _build_parser, main
from dsps.dataset import Population, load_population, save_population
from dsps.errors import (
    InvalidDraws,
    InvalidSetting,
    IterationLimitExceeded,
    NumericalBreakdown,
    SolverFailure,
    ZeroVariance,
)
from dsps.evaluate import evaluate_selection
from dsps.moments import TargetCriterion, TargetSet
from dsps.selection import solve_fixed_size, solve_max_size
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

    def test_huge_n_p_is_refused_at_once(self, tmp_path):
        # 2**62 rows of float64 exceed numpy's size limit, so the allocation
        # fails whatever the kernel's overcommit setting.  The run sits in a
        # child whose address space is capped at 1 GiB, so code that grows per
        # member before allocating fails there instead of exhausting the
        # machine; one BLAS thread keeps numpy's own reservation under the cap.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_p": 2**62, "seed": 1,
            "features": [{"name": "x", "dist": {"type": "normal", "mu": 0.0, "sigma": 1.0}}],
        }), encoding="utf-8")
        out = tmp_path / "x.csv"
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from dsps.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-c", child, "generate", "--spec", str(spec), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: n_p = {2**62} is too large to allocate")
        assert not out.exists()


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

    def test_in_process_run_writes_only_through_sys_stdout(self, workspace, capfd):
        # a caller that runs main() in its own process (as the traced
        # benchmark does) reads the result from sys.stdout: nothing may reach
        # file descriptor 1 directly, and no thread or child may outlive it
        tmp, pop, targets, pop_path, targets_path = workspace
        threads = threading.active_count()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([
                "select", "--population", pop_path, "--targets", targets_path,
                "--trial-size", "20", "--seed", "7", "--out", str(tmp / "run"),
            ])
        assert code == 0
        assert buf.getvalue().startswith("mode=max ")
        assert capfd.readouterr().out == ""
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []

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
        assert main(["select", *common, "--mode", "fixed",
                     "--trial-size", "20", "--out", str(tmp / "m3")]) == 0

        fixed_run = json.loads((tmp / "m3" / "run.json").read_text())
        assert fixed_run["row_labels"][-1] == "size"
        assert abs(fixed_run["expected_size"] - 20.0) <= 1.0 + 1e-9
        strict_run = json.loads((tmp / "m2" / "run.json").read_text())
        assert strict_run["alpha"] is None and strict_run["beta"] is None
        assert strict_run["trial_size"] is None

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
                     str(targets2_path), "--mode", "min", "--trial-size", "1",
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

    def test_mask_with_carriage_return_ids_reevaluates(self, workspace):
        # mask.csv must quote an id holding a bare CR, or evaluate splits its row
        tmp, pop, _, _, _ = workspace
        ids = ("a\rb", "\r", *pop.member_ids[2:])
        # the loader strips every cell, so "\r" reloads as "": the Population takes that id
        cr_pop = Population(tuple(mid.strip() for mid in ids), ("x\ry",), pop.data)
        targets = plant_subset(cr_pop, np.arange(20, 40))
        rows = ['id,"x\ry"'] + [
            f'"{mid}",{v!r}' if "\r" in mid else f"{mid},{v!r}"
            for mid, v in zip(ids, pop.data[:, 0].tolist())
        ]
        pop_path, targets_path = tmp / "cr_population.csv", tmp / "cr_targets.json"
        pop_path.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
        targets_path.write_text(targets.to_json() + "\n", encoding="utf-8")
        files = ["--population", str(pop_path), "--targets", str(targets_path)]
        out = tmp / "sel"
        assert main(["select", *files, "--trial-size", "20", "--seed", "5", "--out", str(out)]) == 0
        ev = tmp / "ev"
        assert main(["evaluate", *files, "--mask", str(out / "mask.csv"), "--out", str(ev)]) == 0
        select_report = json.loads((out / "report.json").read_text())
        eval_report = json.loads((ev / "report.json").read_text())
        assert eval_report["realized_size"] == select_report["realized_size"]
        assert eval_report["rsse"] == pytest.approx(select_report["rsse"], rel=1e-12)

    def test_seed_comes_from_the_flag_alone(self, workspace, monkeypatch):
        # the seed defaults to 0, and no environment variable stands in for it
        tmp, pop, targets, pop_path, targets_path = workspace
        base = ["select", "--population", pop_path, "--targets", targets_path,
                "--trial-size", "20"]
        monkeypatch.delenv("DSPS_SEED", raising=False)
        assert main([*base, "--out", str(tmp / "plain")]) == 0
        monkeypatch.setenv("DSPS_SEED", "5")
        assert main([*base, "--out", str(tmp / "env")]) == 0
        assert json.loads((tmp / "env" / "run.json").read_text())["seed"] == 0
        for name in _ARTIFACTS[:-1]:
            assert (tmp / "env" / name).read_bytes() == (tmp / "plain" / name).read_bytes(), name
        assert main([*base, "--seed", "5", "--out", str(tmp / "flag")]) == 0
        assert json.loads((tmp / "flag" / "run.json").read_text())["seed"] == 5

    @pytest.mark.parametrize("mode", MODES)
    def test_run_json_replays_the_run(self, tmp_path, mode):
        # the select argv rebuilt from run.json alone writes the same bytes.
        # On a two-point feature the variance row forces sum(p) near 40, so
        # the min-size optimum is not a sliver whose draws are all empty;
        # fixed mode pins the size to the trial size, so it asks for those 40.
        tmp = tmp_path
        pop_path, targets_path = tmp / "pop.csv", tmp / "targets.json"
        save_population(make_pop(np.concatenate([np.full(60, 103.0), np.full(60, 97.0)])),
                        pop_path)
        targets_path.write_text(TargetSet((
            TargetCriterion("f", 1, 100.0),
            TargetCriterion("f", 2, 9.0 * 40 / 39.0),
        )).to_json(), encoding="utf-8")
        trial_size = "40" if mode == "fixed" else "1"
        assert main(["select", "--population", str(pop_path), "--targets", str(targets_path),
                     "--mode", mode, "--trial-size", trial_size, "--seed", "9",
                     "--draws", "4", "--rsse-epsilon", "1e-9",
                     "--out", str(tmp / "first")]) == 0
        run = json.loads((tmp / "first" / "run.json").read_text())
        argv = ["select", "--population", run["population"], "--targets", run["targets"],
                "--mode", run["mode"], "--seed", str(run["seed"]), "--draws", str(run["draws"]),
                "--rsse-epsilon", repr(run["rsse_epsilon"]), "--out", str(tmp / "replay")]
        if run["trial_size"] is not None:
            argv += ["--trial-size", repr(run["trial_size"])]
        assert main(argv) == 0
        for name in _ARTIFACTS[:-1]:
            assert (tmp / "replay" / name).read_bytes() == (tmp / "first" / name).read_bytes(), name

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
                     str(targets_path), "--mode", "min", "--trial-size", "1",
                     "--seed", "1", "--out", str(tmp_path / "out"),
                     "--rsse-epsilon", "1e-9"])
        assert code == 0
        assert "below 30" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["small_sample_warning"] is True


class TestSlackSettings:
    def test_fixed_run_records_the_size_row(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--mode", "fixed", "--trial-size", "20",
                     "--out", str(tmp / "f")]) == 0
        run = json.loads((tmp / "f" / "run.json").read_text())
        assert len(run["beta"]) == len(run["eta_max"]) == len(targets) + 1
        assert run["beta"][-1] == 1.0 / (20.0 + 1e-6)
        assert run["eta_max"][-1] == run["alpha"] == 1.0

    def test_trial_size_is_the_only_size_setting(self, workspace, capsys):
        # fixed mode pins the size to the trial size; no mode takes a second size
        tmp, pop, targets, pop_path, targets_path = workspace
        common = ["select", "--population", pop_path, "--targets", targets_path,
                  "--trial-size", "20"]
        assert main([*common, "--mode", "fixed", "--out", str(tmp / "fixed")]) == 0
        run = json.loads((tmp / "fixed" / "run.json").read_text())
        assert run["trial_size"] == 20.0 and "n_target" not in run
        capsys.readouterr()
        for mode in MODES:
            assert main([*common, "--mode", mode, "--n-target", "20",
                         "--out", str(tmp / f"{mode}-n")]) == 1
            assert "unrecognized arguments: --n-target 20" in capsys.readouterr().err
            assert not (tmp / f"{mode}-n").exists()

    def test_run_without_slack_rows_records_none(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        empty = tmp / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(empty),
                     "--mode", "max", "--trial-size", "20", "--out", str(tmp / "e")]) == 0
        run = json.loads((tmp / "e" / "run.json").read_text())
        assert run["alpha"] is None and run["beta"] is None and run["eta_max"] is None

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_trial_size_that_overflows_a_cap_is_one(self, tmp_path, capsys, mode):
        # alpha = 5e306 times the demo's glucose mean leaves float64: the run
        # is refused before the solve, without numpy's overflow warning and
        # without an Infinity in run.json, which is not JSON
        demo = Path(__file__).resolve().parent.parent / "demo"
        pop_path = tmp_path / "population.csv"
        assert main(["generate", "--spec", str(demo / "spec.json"), "--out", str(pop_path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["select", "--population", str(pop_path),
                         "--targets", str(demo / "targets.json"), "--mode", mode,
                         "--trial-size", "1e308", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: trial size 1e+308 overflows a target's slack cap\n")
        assert not any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert not (tmp_path / "run").exists()

    def test_run_without_rows_reports_one_pricing_pass(self, workspace):
        # no rows: the dual prices once and every member gets p = 1
        tmp, pop, targets, pop_path, targets_path = workspace
        empty = tmp / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(empty),
                     "--mode", "max", "--trial-size", "20", "--out", str(tmp / "e")]) == 0
        report = json.loads((tmp / "e" / "report.json").read_text())
        assert report["solver"] == {"status": "Optimal", "iterations": 1, "max_residual": 0.0}
        assert set(read_probabilities(tmp / "e").values()) == {1.0}


class TestJsonEncoding:
    @pytest.mark.parametrize("mode", ["max", "fixed"])
    def test_run_json_settings_match_the_solve_bit_for_bit(self, workspace, mode):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--mode", mode, "--trial-size", "20",
                     "--out", str(tmp / mode)]) == 0
        run = json.loads((tmp / mode / "run.json").read_text())
        pop = load_population(pop_path)
        if mode == "max":
            sel = solve_max_size(pop, targets, 20.0)
        else:
            sel = solve_fixed_size(pop, targets, 20.0)
        for name in ("beta", "eta_max"):
            got = np.array(run[name], dtype=float)
            assert got.tobytes() == getattr(sel, name).tobytes()
        assert run["alpha"] == sel.alpha and run["expected_size"] == sel.expected_size
        assert run["trial_size"] == 20.0

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

    def test_fixed_mode_without_trial_size_is_one(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--mode", "fixed", "--out", str(tmp / "x")]) == 1
        assert capsys.readouterr().err == "error: need a trial size to pin the expected size to\n"
        assert not (tmp / "x").exists()

    def test_zero_draws_is_one(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--draws", "0",
                     "--out", str(tmp / "x")]) == 1

    def test_epsilon_is_not_a_flag(self, workspace, capsys):
        # the target-scale guard is the constant selection.EPSILON
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--epsilon", "1e-6", "--out", str(tmp / "x")]) == 1
        assert "unrecognized arguments: --epsilon 1e-6" in capsys.readouterr().err
        assert not (tmp / "x").exists()

    def test_targets_file_not_utf8_is_one(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        latin1 = tmp / "latin1.json"
        latin1.write_bytes(b'[{"feature": "caf\xe9", "order": 1, "value": 1.0}]')
        assert main(["select", "--population", pop_path, "--targets", str(latin1),
                     "--trial-size", "20", "--out", str(tmp / "x")]) == 1
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")
        assert not (tmp / "x").exists()

    # each given setting that is out of range raises the class of its check
    @pytest.mark.parametrize("setting, error", [
        (("--rsse-epsilon", "nan"), InvalidSetting),
        (("--seed", "-1"), InvalidSetting),
        (("--draws", "0"), InvalidDraws),
    ], ids=["rsse nan", "seed -1", "draws 0"])
    def test_bad_setting_raises_its_own_class(self, workspace, setting, error):
        tmp, pop, targets, pop_path, targets_path = workspace
        args = _build_parser().parse_args([
            "select", "--population", pop_path, "--targets", targets_path,
            "--trial-size", "20", "--out", str(tmp / "x"), *setting])
        with pytest.raises(error):
            args.func(args)
        assert not (tmp / "x").exists()

    def test_solver_failures_share_the_exit_four_class(self):
        assert issubclass(NumericalBreakdown, SolverFailure)
        assert issubclass(IterationLimitExceeded, SolverFailure)

    def test_missing_slack_budget_is_one(self, workspace, capsys):
        tmp, pop, targets, pop_path, targets_path = workspace
        assert main(["select", "--population", pop_path, "--targets", targets_path,
                     "--out", str(tmp / "x")]) == 1
        assert "need a trial size" in capsys.readouterr().err

    def test_min_mode_without_targets_is_one(self, workspace, capsys):
        # with no rows the min-size optimum is p = 0, and every draw is empty
        tmp, pop, targets, pop_path, targets_path = workspace
        empty = tmp / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(empty),
                     "--mode", "min", "--trial-size", "20", "--out", str(tmp / "e")]) == 1
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
                     str(targets_path), "--trial-size", "1",
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
                     "--trial-size", "1", "--out", str(tmp / "x")])
        assert code == 1
        assert "cholesterol" in capsys.readouterr().err

    def test_overflowing_target_row_is_one(self, workspace, capfd):
        # values near 100 to the 200th power leave float64: one line naming
        # the criterion, and no RuntimeWarning before it
        tmp, pop, _, pop_path, _ = workspace
        high = tmp / "order_200.json"
        high.write_text(json.dumps([{"feature": "f", "order": 1, "value": 100.0},
                                    {"feature": "f", "order": 200, "value": 1.0}]),
                        encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(high),
                     "--trial-size", "20", "--out", str(tmp / "x")]) == 1
        assert capfd.readouterr().err.splitlines() == [
            "error: the row of ('f', 200) overflows float64"
        ]
        assert not (tmp / "x").exists()

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
                     str(targets_path), "--trial-size", "0.2", "--seed", "0",
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

    def test_zero_target_is_rejected_before_the_solve(self, workspace, monkeypatch, capsys):
        # no LP, no draws and, in min mode, no small-sample warning first
        from dsps import cli

        def never(*args, **kwargs):
            raise AssertionError("solve_min_size was called")

        monkeypatch.setattr(cli, "solve_min_size", never)
        tmp, _, targets, pop_path, _ = workspace
        zero = tmp / "zero_skewness.json"
        zero.write_text(json.dumps([*json.loads(targets.to_json()),
                                    {"feature": "f", "order": 3, "value": 0.0}]), encoding="utf-8")
        assert main(["select", "--population", pop_path, "--targets", str(zero),
                     "--mode", "min", "--trial-size", "20", "--out", str(tmp / "x")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: criterion 2 has target 0; relative error is undefined "
            "(pass an epsilon or drop the criterion)"
        ]
        assert not (tmp / "x").exists()

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

    def test_iteration_limit_is_four(self, workspace, monkeypatch, capsys):
        from dsps import selection

        monkeypatch.setattr(selection, "solve_lp", partial(selection.solve_lp, max_iterations=1))
        tmp, _, _, pop_path, targets_path = workspace
        code = main(["select", "--population", pop_path, "--targets", targets_path,
                     "--trial-size", "20", "--out", str(tmp / "x")])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "solver failure: no optimum within 1 simplex iterations"
        ]
        assert not (tmp / "x").exists()

    # unchecked, these settings reach run.json as NaN or Infinity, which is
    # not JSON, or fail in the solver or in numpy with a message that does
    # not name the setting
    @pytest.mark.parametrize("command, setting, named", [
        ("select", ("--rsse-epsilon", "nan"), "rsse epsilon"),
        ("select", ("--rsse-epsilon", "inf"), "rsse epsilon"),
        ("evaluate", ("--rsse-epsilon", "nan"), "rsse epsilon"),
        ("select", ("--trial-size", "inf"), "trial size"),
        # the strict program sizes no slack, but a given trial size is checked
        ("select", ("--mode", "max-strict", "--trial-size", "nan"), "trial size"),
        ("select", ("--seed", "-1"), "--seed"),
    ], ids=["select rsse nan", "select rsse inf", "evaluate rsse nan",
            "trial size inf", "strict trial size nan", "seed -1"])
    def test_bad_numeric_setting_is_one(self, workspace, capsys, command, setting, named):
        tmp, pop, _, pop_path, targets_path = workspace
        args = [command, "--population", pop_path, "--targets", targets_path,
                "--out", str(tmp / "x"), *setting]
        if command == "select":
            args += ["--trial-size", "20"] if "--trial-size" not in setting else []
        else:
            mask = tmp / "mask.csv"
            mask.write_text("member_id,selected\n"
                            + "".join(f"{mid},1\n" for mid in pop.member_ids), encoding="utf-8")
            args += ["--mask", str(mask)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
        assert not (tmp / "x").exists()


# column shapes for generated populations; the last one has ties
_SHAPES = (
    lambda rng, n: rng.normal(150.0, 25.0, n),
    lambda rng, n: rng.lognormal(4.2, 0.2, n),
    lambda rng, n: rng.uniform(-5.0, 5.0, n),
    lambda rng, n: rng.integers(1, 6, n).astype(float),
)
_ARTIFACTS = ("probabilities.csv", "mask.csv", "report.json", "run.json")


def _generated_case(tmp, seed, n_members, n_features, order, kind, mode):
    """Population and targets files from ``seed``; returns select's arguments for ``mode``."""
    rng = np.random.default_rng(seed)
    shapes = rng.integers(0, len(_SHAPES), n_features)
    pop = Population(
        tuple(f"m{i}" for i in range(n_members)),
        tuple(f"f{j}" for j in range(n_features)),
        np.column_stack([_SHAPES[k](rng, n_members) for k in shapes]),
    )
    planted = rng.choice(n_members, size=int(rng.integers(2, n_members + 1)), replace=False)
    try:
        criteria = list(plant_subset(pop, planted, orders=range(1, order + 1)))
    except ZeroVariance:
        reject()  # tied members: no standardized moment to plant
    if kind == "perturbed":
        factors = 1.0 + rng.uniform(-0.1, 0.1, len(criteria))
        criteria = [TargetCriterion(c.feature, c.order, c.value * f) for c, f in zip(criteria, factors)]
    elif kind == "unattainable":
        # a mean beyond the maximum, or a variance above (max - min)^2
        k = int(rng.integers(1, min(order, 2) + 1))
        x = pop.data[:, 0]
        span = x.max() - x.min()
        value = x.max() + span + 1.0 if k == 1 else 2.0 * span**2 + 1.0
        criteria = [TargetCriterion("f0", k, value) if (c.feature, c.order) == ("f0", k) else c
                    for c in criteria]
    pop_path, targets_path = tmp / "population.csv", tmp / "targets.json"
    save_population(pop, pop_path)
    targets_path.write_text(TargetSet(tuple(criteria)).to_json() + "\n", encoding="utf-8")
    return ["--population", str(pop_path), "--targets", str(targets_path),
            "--mode", mode, "--trial-size", str(planted.size)]


def _select(args, out):
    """Exit code, stdout, stderr and artifacts (run.json without its ``out``) of one select."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["select", *args, "--out", str(out)])
    files = {name: (out / name).read_bytes() for name in _ARTIFACTS if (out / name).exists()}
    if "run.json" in files:
        run = json.loads(files["run.json"])
        del run["out"]
        files["run.json"] = run
    return code, stdout.getvalue(), stderr.getvalue(), files


@given(
    seed=st.integers(0, 2**32 - 1),
    n_members=st.integers(8, 60),
    n_features=st.integers(1, 3),
    order=st.integers(1, 4),
    mode=st.sampled_from(MODES),
    kind=st.sampled_from(["planted", "perturbed", "unattainable"]),
)
@settings(max_examples=50, deadline=None, derandomize=True)
# the first shrunk failure: two planted members tied on the integer column
@example(seed=25, n_members=8, n_features=3, order=3, mode="max", kind="planted")
# a planted fixed-mode case that solves: the generated ones rarely draw fixed mode
@example(seed=0, n_members=20, n_features=2, order=2, mode="fixed", kind="planted")
def _check_generated_input(exits, seed, n_members, n_features, order, mode, kind):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        args = [*_generated_case(tmp, seed, n_members, n_features, order, kind, mode),
                "--seed", "7", "--draws", "3"]
        first = _select(args, tmp / "a")
        assert first[0] in (0, 1, 2, 3), first[2]
        assert _select(args, tmp / "b") == first
        exits[mode].add(first[0])


def test_generated_inputs_exit_in_class_and_replay():
    # every input either solves or fails with an input (1), infeasible (2) or
    # degenerate-draw (3) exit, never a solver failure (4) or a traceback,
    # and a rerun writes the same bytes.  Every mode also solves at least
    # once, so arguments that a mode refuses cannot hide behind exit 1.
    exits = {mode: set() for mode in MODES}
    _check_generated_input(exits)
    assert all(0 in codes for codes in exits.values()), exits


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
        assert f"{mask_path}: duplicate member id {pop.member_ids[0]!r}" in capsys.readouterr().err

    def test_bad_mask_value_is_one(self, workspace):
        tmp, pop, targets, pop_path, targets_path = workspace
        mask_path = tmp / "bad_mask.csv"
        rows = ["member_id,selected"] + [f"{mid},2" for mid in pop.member_ids]
        mask_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--population", pop_path, "--targets", targets_path,
                     "--mask", str(mask_path)]) == 1


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in ',"\r\n') else cell


def _mask_rows(ids, bits, value=str) -> list[str]:
    return ["member_id,selected"] + [f"{_quote(mid)},{value(b)}" for mid, b in zip(ids, bits)]


# name: (exit code, the mask text for a population's ids and 0/1 values)
MASK_CASES = {
    "crlf-and-trailing-blank-line": (0, lambda ids, b: "\r\n".join(_mask_rows(ids, b)) + "\r\n\r\n"),
    "quoted-ids": (0, lambda ids, b: "\n".join(_mask_rows(ids, b)) + "\n"),
    "padded-cells": (0, lambda ids, b: " member_id , selected \n" + "".join(
        f"  {mid} ,\t{v} \n" for mid, v in zip(ids, b))),
    "float-values": (0, lambda ids, b: "\n".join(_mask_rows(ids, b, lambda v: repr(float(v)))) + "\n"),
    "third-column": (1, lambda ids, b: ",0\n".join(_mask_rows(ids, b)) + ",0\n"),
    "value-two": (1, lambda ids, b: "\n".join(_mask_rows(ids, [2, *b[1:]])) + "\n"),
    "missing-id": (1, lambda ids, b: "\n".join(_mask_rows(ids, b)[:-1]) + "\n"),
    "repeated-id": (1, lambda ids, b: "\n".join(_mask_rows(ids, b) + _mask_rows(ids, b)[1:2]) + "\n"),
}


@pytest.mark.parametrize("case", MASK_CASES)
def test_evaluate_reads_a_mask_as_it_reads_a_population(workspace, capsys, case):
    tmp, pop, targets, _, targets_path = workspace
    ids = pop.member_ids
    if case == "quoted-ids":
        ids = ("a,b", 'say "hi"', "c\rd", "e\nf", *ids[4:])
    pop_path = tmp / "case_population.csv"
    save_population(Population(ids, pop.feature_names, pop.data), pop_path)
    bits = [i % 2 for i in range(pop.n_members)]
    code, text = MASK_CASES[case]
    mask_path = tmp / "case_mask.csv"
    mask_path.write_bytes(text(ids, bits).encode("utf-8"))
    assert main(["evaluate", "--population", str(pop_path), "--targets", targets_path,
                 "--mask", str(mask_path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        report = evaluate_selection(pop, targets, np.array(bits, dtype=np.int8))
        assert json.loads(out)["rsse"] == report.rsse
        assert json.loads(out)["realized_size"] == sum(bits)
    else:
        assert err.startswith(f"error: {mask_path}: ")


def test_readme_flag_table_matches_the_select_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### select\n", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(--[a-z-]+)` \|", section, flags=re.M)
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices["select"]._actions for o in a.option_strings}
    options -= {"-h", "--help"}
    assert rows and len(rows) == len(set(rows))
    assert set(rows) <= options, "README rows that are not select options"
    # the usage block above the table shows the two required files
    assert options - set(rows) <= {"--population", "--targets"}, "select options without a row"


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
