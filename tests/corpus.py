"""Artifact corpus: a fixed set of ``dsps`` runs whose outputs are pinned.

    python3 tests/corpus.py check            # every entry, machine-independent fields
    python3 tests/corpus.py check --exact    # every entry, full bytes
    python3 tests/corpus.py update           # rewrite tests/corpus.json

Each entry is one ``dsps`` command, run in process in a scratch directory
with relative paths.  The manifest ``tests/corpus.json`` keeps, per entry,
the command, the exit code, the sha256 of stdout, of stderr and of every
artifact the command wrote (``run.json`` without its ``out`` field), the
sorted key list of ``run.json``, the ``p`` column of ``probabilities.csv``
and the ``score`` of ``report.json``: its ``rsse``, ``pe_mean``, ``pe_sd``,
``realized_size`` and each criterion's ``realized`` value.  The inputs are not committed: they are regenerated from
seeds each run (``demo/spec.json``, the perfbench workload specs, and targets
planted with ``plant_subset``).

``check`` compares the exit code, stderr, ``mask.csv``, ``run.json``'s keys,
``p`` (within ``P_TOL``) and the score (within a relative ``SCORE_TOL``),
which another BLAS should not move; ``check --exact`` compares every hash as well, which
only holds on one machine.  A change that moves an
entry lists it, with the reason, in CHANGES.md and then runs ``update``.

The 118 entries:

* ``generate`` of ``demo/spec.json``, of the spec of instances 0-2 of
  each perfbench workload (seed 1) and of the paper-scale spec;
* ``select`` on the demo population for three bands (glucose 60-90th
  percentile, weight 10-40th, a seeded random 200) x orders 1, 1-2, 1-3,
  1-4 x the three modes, and for the demo targets, infeasible targets and
  empty targets in the three modes;
* ``select`` of each perfbench workload instance, with its own arguments;
* ``select`` at the paper's scale in ``fixed`` mode: a random 300 of a
  6 062-member pool on the workloads' three shapes (seed 1), planted at
  orders 1-4, trial size 300;
* a zero skewness target in ``max``;
* an order-6 target (``glucose`` order 1 = 150.1, order 6 = 3.0, trial size
  50) in the three modes, whose rows span about 1e11 in scaled units;
* an order-10 target (``glucose`` order 1 = 150.1, order 10 = 1000, trial
  size 50) in the three modes: ``p = 0`` meets both rows, so the max-size
  solves' infeasible verdict has a safe bound of 0, not positive, and is a
  solver failure;
* a ``fixed`` select at trial size 50 of ``weight`` order 1 at the
  column's mean and order 19 = 3, whose main run ends infeasible with an
  elastic certificate of 0 and a safe bound below 0: a solver failure;
* ``evaluate`` of the mask of every demo-band select, of a mask that lists
  a member twice and of a mask whose values are written ``1.0``/``0.0``.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import traceback
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "corpus.json"
P_TOL = 1e-12
SCORE_TOL = 1e-9
SCORE_FIELDS = ("rsse", "pe_mean", "pe_sd", "realized_size")
WORKLOAD_SEED = 1
INSTANCES = 3
MODES = ("max", "max-strict", "fixed")
DEMO_BANDS = ("glucose-60-90", "weight-10-40", "random-200")
DEMO_ORDERS = ((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))
DEMO_SEED = 11
DEMO_SIZE = 200  # trial size of the demo runs that plant no band
PAPER_POOL, PAPER_SIZE, PAPER_SEED = 6062, 300, 1


@dataclass(frozen=True)
class Entry:
    name: str
    argv: tuple[str, ...]
    setup: Callable[[], None] | None = None  # writes an input made from earlier outputs


def _orders_tag(orders) -> str:
    return "o" + "".join(map(str, orders))


def _mode_args(mode: str, size: int) -> tuple[str, ...]:
    return ("--mode", mode, "--trial-size", str(size))


def _select(name: str, population: str, targets: str, *args: str) -> Entry:
    return Entry(f"select/{name}", (
        "select", "--population", population, "--targets", targets, *args,
        "--out", f"out/{name}",
    ))


def _write_json(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _demo_members(pop, band: str) -> np.ndarray:
    if band == "random-200":
        rng = np.random.default_rng(DEMO_SEED)
        return np.sort(rng.choice(pop.n_members, size=200, replace=False))
    feature, lo, hi = band.split("-")
    x = pop.data[:, pop.feature_index(feature)]
    low, high = np.percentile(x, (float(lo), float(hi)))
    return np.flatnonzero((x >= low) & (x <= high))


def prepare(work: Path) -> list[Entry]:
    """Write every input into ``work`` and return the entries in run order."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from dsps.synthgen import SynthSpec, generate_population, plant_subset
    from workloads import _SHAPES, WORKLOADS, plant, write_spec

    old = os.getcwd()
    os.chdir(work)
    try:
        entries = [Entry("generate/demo", (
            "generate", "--spec", "demo/spec.json", "--out", "demo/population.csv"))]
        Path("demo").mkdir()
        shutil.copy(ROOT / "demo" / "spec.json", "demo/spec.json")
        shutil.copy(ROOT / "demo" / "targets.json", "demo/targets.json")
        pop = generate_population(SynthSpec.from_json(Path("demo/spec.json").read_text("utf-8")))
        demo = "demo/population.csv"

        evaluations = []
        for band in DEMO_BANDS:
            members = _demo_members(pop, band)
            for orders in DEMO_ORDERS:
                targets = f"demo/{band}-{_orders_tag(orders)}.json"
                Path(targets).write_text(
                    plant_subset(pop, members, orders=orders).to_json() + "\n", encoding="utf-8")
                for mode in MODES:
                    name = f"demo/{band}/{_orders_tag(orders)}/{mode}"
                    entries.append(_select(name, demo, targets,
                                           *_mode_args(mode, members.size), "--seed", str(DEMO_SEED)))
                    evaluations.append(Entry(f"evaluate/{name}", (
                        "evaluate", "--population", demo, "--targets", targets,
                        "--mask", f"out/{name}/mask.csv", "--out", f"eval/{name}")))

        others = {
            "targets": "demo/targets.json",
            "infeasible": _write_json(Path("demo/infeasible.json"), [
                {"feature": "glucose", "order": 1, "value": float(pop.data[:, 0].max()) + 50.0}]),
            "empty": _write_json(Path("demo/empty.json"), []),
        }
        for kind, targets in others.items():
            for mode in MODES:
                entries.append(_select(f"demo/{kind}/{mode}", demo, targets,
                                       *_mode_args(mode, DEMO_SIZE), "--seed", str(DEMO_SEED)))

        band = plant_subset(pop, _demo_members(pop, "glucose-60-90"), ("glucose",), (1, 2))
        zero = _write_json(Path("demo/zero-skewness.json"), [
            *json.loads(band.to_json()), {"feature": "glucose", "order": 3, "value": 0.0}])
        entries.append(_select("demo/zero-target/max", demo, zero,
                               *_mode_args("max", DEMO_SIZE), "--seed", str(DEMO_SEED)))
        order6 = _write_json(Path("demo/order-6.json"), [
            {"feature": "glucose", "order": 1, "value": 150.1},
            {"feature": "glucose", "order": 6, "value": 3.0}])
        order10 = _write_json(Path("demo/order-10.json"), [
            {"feature": "glucose", "order": 1, "value": 150.1},
            {"feature": "glucose", "order": 10, "value": 1000.0}])
        for name, targets in (("order-6", order6), ("order-10", order10)):
            for mode in MODES:
                entries.append(_select(f"demo/{name}/{mode}", demo, targets,
                                       *_mode_args(mode, 50), "--seed", str(DEMO_SEED)))
        weight = float(np.mean(pop.data[:, pop.feature_index("weight")]))
        zero_certificate = _write_json(Path("demo/zero-certificate.json"), [
            {"feature": "weight", "order": 1, "value": weight},
            {"feature": "weight", "order": 19, "value": 3.0}])
        entries.append(_select("demo/zero-certificate/fixed", demo, zero_certificate,
                               *_mode_args("fixed", 50), "--seed", str(DEMO_SEED)))
        entries.extend(evaluations)
        entries.extend(_odd_masks(demo, "out/demo/glucose-60-90/o12/max/mask.csv",
                                  "demo/glucose-60-90-o12.json"))

        for w in WORKLOADS.values():
            for k in range(INSTANCES):
                spec, rng = write_spec(w, WORKLOAD_SEED, k, Path(f"{w.name}-{k}"))
                population = f"{w.name}-{k}/population.csv"
                entries.append(Entry(f"generate/{w.name}-{k}", (
                    "generate", "--spec", str(spec), "--out", population)))
                inst = plant(w, spec, rng, Path(population))
                entries.append(_select(f"{w.name}-{k}", population, str(inst.targets),
                                       *inst.select_args))

        spec = _write_json(Path("paper/spec.json"), {
            "n_p": PAPER_POOL, "seed": PAPER_SEED,
            "features": [{"name": f"x{j:02d}", "dist": d} for j, d in enumerate(_SHAPES)]})
        entries.append(Entry("generate/paper", (
            "generate", "--spec", spec, "--out", "paper/population.csv")))
        pop = generate_population(SynthSpec.from_json(Path(spec).read_text("utf-8")))
        members = np.random.default_rng(PAPER_SEED).choice(PAPER_POOL, PAPER_SIZE, replace=False)
        targets = Path("paper/targets.json")
        targets.write_text(plant_subset(pop, members, orders=(1, 2, 3, 4)).to_json() + "\n",
                           encoding="utf-8")
        entries.append(_select("paper/fixed", "paper/population.csv", str(targets),
                               *_mode_args("fixed", PAPER_SIZE), "--seed", str(PAPER_SEED)))
        return entries
    finally:
        os.chdir(old)


def _odd_masks(population: str, source: str, targets: str) -> list[Entry]:
    """Evaluate entries for two masks rewritten from the mask file ``source``:
    one lists its first member again at the end, one writes each value as a float."""
    return [
        Entry(f"evaluate/mask-{kind}", (
            "evaluate", "--population", population, "--targets", targets,
            "--mask", f"masks/{kind}.csv", "--out", f"eval/mask-{kind}"),
            partial(_rewrite_mask, Path(source), Path(f"masks/{kind}.csv"), rewrite))
        for kind, rewrite in (
            ("repeated-id", lambda lines: lines + lines[1:2]),
            ("float-values", lambda lines: [
                line.replace(",1\n", ",1.0\n").replace(",0\n", ",0.0\n") for line in lines]),
        )
    ]


def _rewrite_mask(source: Path, target: Path, rewrite) -> None:
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True) if source.exists() else []
    target.parent.mkdir(exist_ok=True)
    target.write_text("".join(rewrite(lines)), encoding="utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pack_p(p: np.ndarray) -> dict:
    """``p`` exactly, in little space: a bitmap of the ones, the rest by value."""
    fractional = np.flatnonzero((p != 0.0) & (p != 1.0))
    return {
        "n": int(p.size),
        "ones": base64.b64encode(zlib.compress(np.packbits(p == 1.0).tobytes(), 9)).decode(),
        "fractional": [[int(i), float(p[i])] for i in fractional],
    }


def _unpack_p(packed: dict) -> np.ndarray:
    bits = np.frombuffer(zlib.decompress(base64.b64decode(packed["ones"])), dtype=np.uint8)
    p = np.unpackbits(bits)[:packed["n"]].astype(float)
    for i, value in packed["fractional"]:
        p[i] = value
    return p


def _read_p(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(line.rpartition(",")[2]) for line in lines])


def _artifacts(out: Path) -> dict:
    files = {}
    for path in sorted(out.rglob("*")) if out.is_dir() else []:
        data = path.read_bytes()
        if path.name == "run.json":
            run = json.loads(data)
            run.pop("out", None)
            data = json.dumps(run, sort_keys=True).encode()
        files[path.relative_to(out).as_posix()] = _sha(data)
    return files


def run_entry(entry: Entry) -> dict:
    """Run one entry in the current directory and record its outcome."""
    from dsps.cli import main

    if entry.setup is not None:
        entry.setup()
    stdout, stderr = io.StringIO(), io.StringIO()
    shown = ""  # the traceback, printed on a mismatch but not hashed: it holds paths
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(list(entry.argv))
        except Exception as exc:  # a traceback is an outcome to pin; the other entries still run
            code = f"raised {type(exc).__name__}"
            shown = traceback.format_exc()
    record = {
        "name": entry.name,
        "argv": list(entry.argv),
        "exit": code,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
    }
    out = Path(entry.argv[entry.argv.index("--out") + 1])
    if entry.argv[0] == "generate":
        record["files"] = {out.name: _sha(out.read_bytes())} if out.exists() else {}
    else:
        record["files"] = _artifacts(out)
    if (out / "run.json").exists():
        record["run_keys"] = sorted(json.loads((out / "run.json").read_text(encoding="utf-8")))
    if (out / "probabilities.csv").exists():
        record["p"] = _pack_p(_read_p(out / "probabilities.csv"))
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        record["score"] = {**{k: report[k] for k in SCORE_FIELDS},
                           "realized": [c["realized"] for c in report["criteria"]]}
    record["stderr_text"] = stderr.getvalue() + shown
    return record


def run_all(work: Path) -> list[dict]:
    """Prepare ``work`` and run every entry in it."""
    entries = prepare(work)
    old = os.getcwd()
    os.chdir(work)
    try:
        return [run_entry(e) for e in entries]
    finally:
        os.chdir(old)


def differences(got: dict, want: dict, exact: bool) -> list[str]:
    """Fields of ``got`` that do not match the manifest record ``want``."""
    diffs = [field for field in ("argv", "exit", "stderr") if got[field] != want[field]]
    mask = "mask.csv"
    if got["files"].get(mask) != want["files"].get(mask):
        diffs.append(mask)
    if got.get("run_keys") != want.get("run_keys"):
        diffs.append("run_keys")
    if ("p" in got) != ("p" in want):
        diffs.append("p")
    elif "p" in got:
        now, then = _unpack_p(got["p"]), _unpack_p(want["p"])
        if now.shape != then.shape or np.max(np.abs(now - then), initial=0.0) > P_TOL:
            diffs.append("p")
    if not _scores_match(got.get("score"), want.get("score")):
        diffs.append("score")
    if exact:
        if got["stdout"] != want["stdout"]:
            diffs.append("stdout")
        names = sorted(set(got["files"]) | set(want["files"]))
        diffs += [n for n in names if n != mask and got["files"].get(n) != want["files"].get(n)]
    return diffs


def _scores_match(got: dict | None, want: dict | None) -> bool:
    """Both absent, or the same fields within a relative ``SCORE_TOL``."""
    if got is None or want is None:
        return got is want
    now, then = ([*(s[k] for k in SCORE_FIELDS), *s["realized"]] for s in (got, want))
    return len(now) == len(then) and bool(np.all(np.isclose(
        np.array(now, dtype=float), np.array(then, dtype=float), rtol=SCORE_TOL, atol=0.0,
        equal_nan=True)))


def load_manifest() -> dict:
    return {r["name"]: r for r in json.loads(MANIFEST.read_text(encoding="utf-8"))}


def _stored(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "stderr_text"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("check", "update"))
    parser.add_argument("--exact", action="store_true", help="compare every hash")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="dsps-corpus-") as tmp:
        records = run_all(Path(tmp))
    if args.command == "update":
        # one line per entry, so that a diff of the manifest lists the moved entries
        lines = ",\n".join(json.dumps(_stored(r)) for r in records)
        MANIFEST.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        print(f"wrote {len(records)} entries to {MANIFEST.relative_to(ROOT)}")
        return 0
    manifest = load_manifest()
    moved = 0
    for record in records:
        want = manifest.pop(record["name"], None)
        diffs = ["new entry"] if want is None else differences(record, want, args.exact)
        if diffs:
            moved += 1
            print(f"MOVED {record['name']}: {', '.join(diffs)} (exit {record['exit']})")
            for line in record["stderr_text"].splitlines():
                print(f"    {line}")
    for name in manifest:
        print(f"MOVED {name}: no longer run")
    print(f"{len(records) - moved} of {len(records)} entries match"
          f"{' exactly' if args.exact else ''}; {moved} moved, {len(manifest)} no longer run")
    return 1 if moved or manifest else 0


if __name__ == "__main__":
    sys.exit(main())
