#!/usr/bin/env python3
"""Self-test of the benchmark, on populations shrunk to a few hundred members.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It asserts that

* a scaled-down run of every workload, untraced and traced, ends with the
  result line and emits every metric ``BENCHMARK.json`` names, with its unit;
* a corrupted artifact (one flipped byte of ``mask.csv``) and a failed select
  are both counted as failed operations, next to a select that passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

SCALE = 0.05


def check_metric_report(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            assert units == want, f"{workload} trace {trace}: {units} != {want}"
            print(f"ok   {workload} --trace {trace}: {len(units)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def check_failures_counted() -> None:
    w = WORKLOADS["cohort-band"].scaled(SCALE)
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    inst = run.set_up(w, 0, work, 1)[0][0]
    ledger, reference = run.Ledger(), {}
    assert run.checked_select(inst, w, work / "good", ledger, reference)[0], ledger.failures

    out = work / "corrupt"
    code, _, _ = run.run_process(run._dsps(*run.select_argv(inst, out)), out.with_suffix(".log"))
    mask = out / "mask.csv"
    data = bytearray(mask.read_bytes())
    pos = data.index(b"\n", data.index(b"\n") + 1) - 1  # the first member's selected digit
    data[pos] ^= ord("0") ^ ord("1")
    mask.write_bytes(bytes(data))
    ledger.record(f"{inst.name} corrupted", run.select_problems(inst, w, out, code, reference))

    broken = dataclasses.replace(inst, select_args=inst.select_args + ("--draws", "0"))
    run.checked_select(broken, w, work / "broken", ledger, reference)
    assert ledger.attempted == 3 and len(ledger.failures) == 2, ledger.failures
    print("ok   a flipped mask byte and a failed select count as failed: "
          + " | ".join(ledger.failures))
    shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_failures_counted()
    check_metric_report(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
