"""What the benchmark reads from ``dsps``: the spans of one traced select, and its LPs.

``perfbench/tracing.py`` wraps the public functions of ``dsps`` from outside
and derives its per-layer metrics from the spans they leave.  A rename, or a
call that bypasses a module global (a draw inlined into ``draw_best``), drops
a span and leaves a metric empty; output past the CLI's own line hides the
result line the benchmark ends on.  The run is a child process, so output at
exit counts too.  ``perfbench/layers.highs_yardstick`` re-solves each
captured ``LpProblem`` through its ``rows`` view.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dsps import selection
from dsps.cli import main
from dsps.dataset import Population
from dsps.lp_core import SolveStatus, solve_lp
from dsps.synthgen import plant_subset

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, installed
import dsps.cli
tracer = Tracer()
with installed(tracer):
    code = dsps.cli.main(sys.argv[3:])
tracer.dump(sys.argv[2])
sys.exit(code)
"""


def test_traced_demo_select_leaves_every_span_the_benchmark_reads(tmp_path):
    demo = ROOT / "demo"
    population = tmp_path / "population.csv"
    assert main(["generate", "--spec", str(demo / "spec.json"), "--out", str(population)]) == 0
    spans_path = tmp_path / "spans.jsonl"
    n_draws = 7
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(spans_path),
         "select", "--population", str(population), "--targets", str(demo / "targets.json"),
         "--trial-size", "200", "--draws", str(n_draws), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("mode=max ") and proc.stdout.endswith("\n")

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    counts = Counter(s["name"] for s in spans)
    for name in ("cli.main", "dataset.load_population", "selection.solve_max_size",
                 "realize.draw_best"):
        assert counts[name] == 1, name
    for name in ("selection.build_lp_system", "lp_core.solve_lp"):
        assert counts[name] >= 1, name
    assert counts["realize.draw"] == counts["realize.uniform_stream"] == n_draws
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] == "realize.draw":
            assert by_id[s["parent"]]["name"] == "realize.draw_best"
        if s["name"] == "realize.uniform_stream":
            assert by_id[s["parent"]]["name"] == "realize.draw"
    assert not any(s["error"] for s in spans)


@pytest.mark.parametrize("solve", [selection.solve_max_size, selection.solve_fixed_size],
                         ids=["max", "fixed"])
def test_highs_yardstick_agrees_on_the_programs_selection_builds(solve, monkeypatch):
    pytest.importorskip("scipy.optimize")
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    rng = np.random.default_rng(26)
    data = rng.normal(50.0, 10.0, (200, 2))
    pop = Population(tuple(f"m{i}" for i in range(200)), ("a", "b"), data)
    targets = plant_subset(pop, np.argsort(data[:, 0])[120:180], orders=(1, 2))
    seen = []

    def recording(problem):
        seen.append((problem, solve_lp(problem)))
        return seen[-1][1]

    monkeypatch.setattr(selection, "solve_lp", recording)
    solve(pop, targets, 60.0)
    (problem, solution), = seen
    assert solution.status is SolveStatus.OPTIMAL
    _, want = layers.highs_yardstick(problem)
    assert want is not None, "HiGHS found the captured program infeasible"
    assert abs(solution.objective_value - want) / max(1.0, abs(want)) <= layers.OBJ_REL_TOL
