"""Checks on the artifacts one ``dsps select`` wrote.

A select passes when it exited 0 and its artifacts are self-consistent:
``report.json``, ``probabilities.csv`` and ``mask.csv`` parse; every ``p``
lies in ``[0, 1]`` and the ``p`` sum to the reported expected size; the
mask covers the same members, selects a member with ``p = 1`` and never one
with ``p = 0`` (the draw rule is ``p_i > r_i`` with ``r_i`` in ``[0, 1)``),
and holds as many ones as the reported realized size; and the reported RSSE
stays under the workload's planted-target bound.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ARTIFACTS = ("report.json", "probabilities.csv", "mask.csv")

# sum(p) is written with repr() precision but summed in another order
_SUM_RTOL = 1e-9


def _read_pairs(path: Path, header: tuple[str, str]) -> tuple[list[str], list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != header:
            raise ValueError(f"{path.name}: header is not {','.join(header)}")
        ids, values = [], []
        for row in reader:
            if len(row) != 2:
                raise ValueError(f"{path.name}: bad row {row!r}")
            ids.append(row[0])
            values.append(row[1])
    return ids, values


def check_artifacts(out: Path, n_members: int, rsse_bound: float) -> list[str]:
    """Problems found in one select's artifacts; empty when all checks pass."""
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        ids, p_text = _read_pairs(out / "probabilities.csv", ("member_id", "p"))
        mask_ids, b_text = _read_pairs(out / "mask.csv", ("member_id", "selected"))
        p = np.array([float(v) for v in p_text])
        if not set(b_text) <= {"0", "1"}:
            raise ValueError("mask.csv: entries other than 0 and 1")
        b = np.array([v == "1" for v in b_text])
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        return [f"artifacts do not parse: {exc}"]
    problems = []
    if len(ids) != n_members or mask_ids != ids:
        problems.append("probabilities.csv and mask.csv do not list the population's members")
        return problems
    if not np.all((p >= 0.0) & (p <= 1.0)):
        problems.append("a probability lies outside [0, 1]")
    expected = report.get("expected_size")
    total = math.fsum(p.tolist())
    if not isinstance(expected, (int, float)) or abs(total - expected) > _SUM_RTOL * max(1.0, total):
        problems.append(f"sum of p {total!r} does not match expected_size {expected!r}")
    if np.any(b & (p == 0.0)) or np.any(~b & (p == 1.0)):
        problems.append("mask contradicts a probability of 0 or 1")
    if int(b.sum()) != report.get("realized_size"):
        problems.append(f"mask selects {int(b.sum())} members, report says {report.get('realized_size')}")
    rsse = report.get("rsse")
    if not isinstance(rsse, (int, float)) or not rsse <= rsse_bound:
        problems.append(f"rsse {rsse!r} is not under the bound {rsse_bound:g}")
    return problems


def digest(out: Path) -> str:
    """SHA-256 over the three artifacts the determinism contract covers."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        path = out / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()
