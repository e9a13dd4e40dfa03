#!/usr/bin/env python3
"""Time ``dsps select`` end to end on one workload, or trace it per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cohort-band --seed 1 --seconds 50 --trace 0

Both modes first generate the run's instances from ``--seed`` (a spec JSON
for ``dsps generate`` and targets planted with ``dsps.synthgen.plant_subset``)
and then run the ``dsps`` code under ``src/`` of the same checkout.

``--trace 0`` times ``dsps select`` as a subprocess, cycling over the
instances until ``--seconds`` have passed, after one untimed warm-up select.
Every select's artifacts are checked (see ``checks.py``) and reruns of an
instance must be byte-identical.  A failed or check-failing select counts as
infinite time.  Metrics: ``select_s.p50`` (median over all timed selects),
``peak_rss_mb`` (from ``os.wait4``) and ``setup_s``, the median wall time of
the run's ``dsps generate`` calls.  ``select_s.max`` (the slowest instance,
each at the median of its selects) and ``fail_rate`` are printed only.

``--trace 1`` selects each instance four times, until ``--seconds`` have
passed: as a subprocess, then with ``dsps.cli.main`` in process untraced,
traced (every public ``dsps`` function wrapped in a timing span, see
``tracing.py``) and untraced again.  The traced run's artifacts must be
byte-identical to the subprocess's, and its LP must agree with HiGHS.  The
per-layer metrics (``layers.py``) are medians over the instances (the lower
middle value for an even count, so a count stays a count).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere: the solver's dense work is tiny, and a shared
# machine gives steadier timings without BLAS thread pools competing.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import check_artifacts, digest
from layers import generate_metrics, select_metrics
from tracing import Tracer, installed
from workloads import WORKLOADS, Instance, Workload, plant, write_spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A run must end within 180 s; a child still running at this mark is killed.
STARTED = time.monotonic()
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"select_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "dataset.load_s": "s", "dataset.load_cells_per_s": "1/s", "dataset.subset_s": "s",
    "dataset.subset_calls": "count", "dataset.self_s": "s", "dataset.save_s": "s",
    "selection.build_s": "s", "selection.rows": "count", "selection.solve_self_s": "s",
    "lp_core.solve_s": "s", "lp_core.iterations": "count", "lp_core.ms_per_iter": "ms",
    "lp_core.n_rows": "count", "lp_core.n_vars": "count", "lp_core.fractional_p": "count",
    "lp_core.failures": "count", "lp_core.highs_s": "s", "lp_core.vs_highs": "ratio",
    "lp_core.obj_rel_gap": "ratio",
    "realize.draw_best_s": "s", "realize.draws": "count", "realize.ms_per_draw": "ms",
    "realize.scored_ratio": "ratio", "realize.uniform_s": "s", "realize.self_s": "s",
    "evaluate.busy_s": "s", "evaluate.calls": "count",
    "moments.busy_s": "s", "moments.calls": "count",
    "cli.self_s": "s", "cli.artifact_bytes": "bytes", "cli.import_s": "s",
    "synthgen.generate_s": "s", "trace.overhead_s": "s",
}


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _dsps(*args: str) -> list[str]:
    return [sys.executable, "-m", "dsps.cli", *args]


def run_process(argv: list[str], log: Path) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, STARTED + RUN_LIMIT_S - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def set_up(w: Workload, seed: int, work: Path, count: int) -> tuple[list[Instance], list[float]]:
    """Generate ``count`` instances with ``dsps generate``; return them and its wall times."""
    instances, times = [], []
    for k in range(count):
        spec, rng = write_spec(w, seed, k, work / f"inst-{k}")
        population = spec.parent / "population.csv"
        log = spec.parent / "generate.log"
        code, wall, _ = run_process(_dsps("generate", "--spec", str(spec), "--out", str(population)), log)
        if code != 0:
            raise RuntimeError(f"dsps generate failed: {_log_tail(log)}")
        times.append(wall)
        instances.append(plant(w, spec, rng, population))
    return instances, times


def select_argv(inst: Instance, out: Path) -> list[str]:
    return ["select", "--population", str(inst.population), "--targets", str(inst.targets),
            "--out", str(out), *inst.select_args]


def select_problems(inst: Instance, w: Workload, out: Path, code: int, reference: dict) -> list[str]:
    """What is wrong with one finished select: its exit code, artifacts, or determinism."""
    if code != 0:
        return [f"exit {code}: {_log_tail(out.with_suffix('.log'))}"]
    problems = check_artifacts(out, inst.n_p, w.rsse_bound)
    h = digest(out)
    if reference.setdefault(inst.name, h) != h:
        problems.append("artifacts differ from an earlier run of the same instance")
    return problems


def checked_select(inst: Instance, w: Workload, out: Path, ledger: Ledger, reference: dict):
    """Run one select subprocess and check it; return (ok, wall seconds, peak RSS MB)."""
    code, wall, rss = run_process(_dsps(*select_argv(inst, out)), out.with_suffix(".log"))
    ok = ledger.record(f"{inst.name} select", select_problems(inst, w, out, code, reference))
    if ok:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        inst.iterations.add(report["solver"]["iterations"])
    shutil.rmtree(out, ignore_errors=True)
    return ok, wall, rss


def timed_run(w: Workload, seed: int, seconds: float, work: Path, ledger: Ledger) -> dict:
    instances, setup_times = set_up(w, seed, work, w.instances)
    reference: dict = {}
    checked_select(instances[0], w, work / "warmup", ledger, reference)  # untimed warm-up
    times, rss, by_instance = [], [], {}
    start = time.perf_counter()
    while len(times) < len(instances) or time.perf_counter() - start < seconds:
        inst = instances[len(times) % len(instances)]
        ok, wall, peak = checked_select(inst, w, work / f"out-{len(times)}", ledger, reference)
        times.append(wall if ok else math.inf)
        by_instance.setdefault(inst.name, []).append(times[-1])
        rss.append(peak)
    print(f"{len(times)} timed selects over {len(instances)} instances (s): "
          + " ".join(f"{t:.3f}" for t in times))
    print(f"{len(setup_times)} generate calls (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    for inst in instances:
        print(f"{inst.name}: median {statistics.median(by_instance[inst.name]):.4f} s, "
              f"simplex iterations {sorted(inst.iterations)}")
        shutil.rmtree(inst.population.parent, ignore_errors=True)
    # Printed, not bounded: the slowest of a dozen instances moved 20 % (IQR
    # over median) between seeds, where the median moved 7 %.
    print(f"select_s.max = {max(statistics.median(v) for v in by_instance.values())} s "
          f"(slowest instance at the median of its selects; slowest single select {max(times):.4f} s)")
    return {
        "select_s.p50": statistics.median(times),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup_times),
    }


def _in_process(argv: list[str]) -> tuple[int, float]:
    import dsps.cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = dsps.cli.main(argv)
        return code, time.perf_counter() - start


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of ``import dsps.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import dsps.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)


def traced_run(w: Workload, seed: int, seconds: float, work: Path, ledger: Ledger) -> dict:
    import dsps.cli

    tracer = Tracer()
    per_instance = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        directory = work / f"inst-{k}"
        spec, rng = write_spec(w, seed, k, directory)
        population = directory / "population.csv"
        tracer.instance = f"{k}:generate"
        with installed(tracer), contextlib.redirect_stdout(io.StringIO()):
            dsps.cli.main(["generate", "--spec", str(spec), "--out", str(population)])
        inst = plant(w, spec, rng, population)

        reference: dict = {}
        sub_ok, _, _ = checked_select(inst, w, directory / "subprocess", Ledger(), reference)
        # untraced, traced, untraced again: the first in-process select of an
        # instance runs slower, so the overhead is taken against the second
        _in_process(select_argv(inst, directory / "plain"))
        tracer.instance = f"{k}:select"
        with installed(tracer):
            traced_code, traced_s = _in_process(select_argv(inst, directory / "traced"))
        plain_code, plain_s = _in_process(select_argv(inst, directory / "plain"))

        metrics, problems = select_metrics(tracer, tracer.instance)
        metrics.update(generate_metrics(tracer, f"{k}:generate"))
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["cli.artifact_bytes"] = sum(f.stat().st_size for f in (directory / "traced").glob("*"))
        if not sub_ok:
            problems.append("the subprocess select failed its checks")
        if plain_code or traced_code:
            problems.append(f"in-process select exited {plain_code} untraced, {traced_code} traced")
        elif sub_ok and not (digest(directory / "plain") == digest(directory / "traced")
                             == reference[inst.name]):
            problems.append("traced, untraced and subprocess artifacts are not byte-identical")
        ledger.record(f"{inst.name} traced", problems)
        per_instance.append(metrics)
        shutil.rmtree(directory, ignore_errors=True)
        k += 1
    tracer.dump(work / "spans.jsonl")
    print(f"{k} traced instances; spans in {(work / 'spans.jsonl').relative_to(ROOT)}")

    merged = {}
    for name in PER_LAYER_UNITS:
        values = [m[name] for m in per_instance if m.get(name) is not None]
        merged[name] = statistics.median_low(values) if values else None
    merged["cli.import_s"] = import_seconds()
    if merged["lp_core.highs_s"] is None:
        print("HiGHS yardstick skipped: scipy does not import")
    return merged


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def _number(value):
    return value if value is None or math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the population (self-test only)")
    args = parser.parse_args(argv)

    if not (SRC / "dsps" / "cli.py").is_file():
        print(f"error: no dsps sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dsps

    if Path(dsps.__file__).resolve().parent != SRC / "dsps":
        print(f"error: imported dsps from {dsps.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    if args.scale != 1.0:
        w = w.scaled(args.scale)
    work = WORK / f"{w.name}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"workload {w.name} seed {args.seed}: n_p={w.n_p} features={w.n_features} "
          f"orders={list(w.orders)} mode={w.mode} draws={w.draws}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    ledger = Ledger()
    if args.trace:
        values, units = traced_run(w, args.seed, args.seconds, work, ledger), PER_LAYER_UNITS
    else:
        values, units = timed_run(w, args.seed, args.seconds, work, ledger), END_TO_END_UNITS
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    if ledger.failures and w.known_failure:
        print(f"known defect: {w.known_failure}")
    fail_rate = len(ledger.failures) / ledger.attempted
    print(f"fail_rate = {fail_rate:.4g} ({len(ledger.failures)}/{ledger.attempted})")
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": _number(v), "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
