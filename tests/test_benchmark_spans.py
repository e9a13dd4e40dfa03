"""The spans the benchmark's tracer needs from one traced ``dsps select``.

``perfbench/tracing.py`` wraps the public functions of ``dsps`` from outside
and derives its per-layer metrics from the spans they leave.  A rename, or a
call that bypasses a module global (a draw inlined into ``draw_best``), drops
a span and leaves a metric empty; output past the CLI's own line hides the
result line the benchmark ends on.  The run is a child process, so output at
exit counts too.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from dsps.cli import main

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
