"""Command-line pipeline: generate, select, evaluate.

``select`` runs the full chain (load, build, solve, realize, score) and
writes four artifacts into the output directory:

* ``probabilities.csv`` -- member_id, p
* ``mask.csv``          -- member_id, selected (best draw)
* ``report.json``       -- per-criterion targets vs expected and realized
* ``run.json``          -- every setting of the run, the trial size among
  them, and the slack settings derived from it; a run is replayable from it

Each setting has one flag: ``--trial-size`` is the intended cohort size, the
slack budget ``alpha`` is 5 % of it, and ``--mode fixed`` pins the expected
size to it; the draw seed is ``--seed`` (default 0), and no environment
variable is read.  No timestamps or machine state go into the artifacts, so a
repeated run with the same inputs is byte-identical.

Whether a run reproduces a known cohort or predicts one for different target
values is purely a property of the targets file handed in; the pipeline is
identical.

Exit codes: 0 success, 1 bad input, 2 infeasible targets, 3 every draw
degenerate, 4 solver failure (a numerical breakdown in the LP solve, or no
optimum within its iteration limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import load_population, save_population, write_id_csv
from .errors import (
    AllDrawsDegenerate,
    DspsError,
    InfeasibleError,
    InvalidDraws,
    InvalidSetting,
    SolverFailure,
)
from .evaluate import _denominators, evaluate_selection
from .moments import TargetSet
from .realize import draw_best
from .selection import (
    EPSILON,
    SMALL_SAMPLE_THRESHOLD,
    solve_fixed_size,
    solve_max_size,
    solve_min_size,
)
from .synthgen import SynthSpec, generate_population

SCHEMA = "dsps/1"
MODES = ("max", "max-strict", "fixed", "min")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # input errors are exit code 1, never argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dsps", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic population CSV from a spec")
    gen.add_argument("--spec", required=True, help="synthetic spec JSON")
    gen.add_argument("--out", required=True, help="population CSV to write")
    gen.set_defaults(func=cmd_generate)

    sel = sub.add_parser("select", help="solve probabilities, realize draws, score")
    sel.add_argument("--population", required=True, help="population CSV")
    sel.add_argument("--targets", required=True, help="targets JSON array")
    sel.add_argument("--mode", choices=MODES, default="max")
    sel.add_argument("--trial-size", type=float, default=None,
                     help="intended cohort size; the slack budget alpha is 5%% of it, "
                          "and --mode fixed pins the expected size to it")
    sel.add_argument("--seed", type=int, default=0, help="draw seed")
    sel.add_argument("--draws", type=int, default=10,
                     help="independent realizations; best by realized RSSE is kept")
    sel.add_argument("--out", required=True, help="output directory")
    sel.add_argument("--rsse-epsilon", type=float, default=0.0,
                     help="opt-in denominator softening for zero-valued targets")
    sel.set_defaults(func=cmd_select)

    ev = sub.add_parser("evaluate", help="score an existing mask against targets")
    ev.add_argument("--population", required=True)
    ev.add_argument("--targets", required=True)
    ev.add_argument("--mask", required=True, help="mask CSV (member_id,selected)")
    ev.add_argument("--out", default=None, help="directory for report.json; default stdout")
    ev.add_argument("--rsse-epsilon", type=float, default=0.0)
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except AllDrawsDegenerate as exc:
        print(f"degenerate draws: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except (DspsError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---- helpers -------------------------------------------------------------


def _json_text(payload: dict) -> str:
    # arrays are the only values json cannot write; np.float64 is a float
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.tolist()) + "\n"


def _load_mask_csv(path, pop) -> np.ndarray:
    try:
        mask = load_population(path)
    except DspsError as exc:
        raise DspsError(f"{path}: {exc}") from None
    if mask.n_features != 1:
        raise DspsError(f"{path}: mask CSV needs member_id,selected columns")
    selected = dict(zip(mask.member_ids, mask.data[:, 0].tolist()))
    bad = [mid for mid, value in selected.items() if value not in (0.0, 1.0)]
    if bad:
        raise DspsError(f"{path}: member {bad[0]!r} has selected {selected[bad[0]]!r}, not 0 or 1")
    if set(selected) != set(pop.member_ids):
        raise DspsError(f"{path}: mask ids do not match the population")
    return np.array([selected[mid] for mid in pop.member_ids], dtype=np.int8)


def _report(realized, expected=None, **fields) -> dict:
    """report.json from a realized report, the optional expected one, and ``fields``.

    Both reports list the criteria in target order.
    """
    criteria = [
        {"feature": r.feature, "order": r.order, "target": r.target,
         "realized": r.achieved, "percentage_error": r.percentage_error}
        for r in realized.per_criterion
    ]
    if expected is not None:
        for row, e in zip(criteria, expected.per_criterion):
            row["expected"] = e.achieved
    return {
        "schema": SCHEMA,
        "criteria": criteria,
        "rsse": realized.rsse,
        "pe_mean": realized.pe_mean,
        "pe_sd": realized.pe_sd,
        "realized_size": realized.realized_size,
        **fields,
    }


# ---- commands ------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = SynthSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    pop = generate_population(spec)
    save_population(pop, args.out)
    print(f"wrote {pop.n_members} members x {pop.n_features} features to {args.out}")
    return 0


def cmd_select(args) -> int:
    pop = load_population(args.population)
    targets = TargetSet.from_json(Path(args.targets).read_text(encoding="utf-8"))
    # scoring needs a relative error for every target: fail before the solve
    _denominators(np.array([c.value for c in targets]), args.rsse_epsilon)
    if args.seed < 0:
        raise InvalidSetting(f"--seed must be a non-negative integer, got {args.seed}")
    if args.draws < 1:
        raise InvalidDraws(f"--draws must be >= 1, got {args.draws}")

    if args.mode == "max":
        sel = solve_max_size(pop, targets, args.trial_size, relaxed=True)
    elif args.mode == "max-strict":
        sel = solve_max_size(pop, targets, args.trial_size, relaxed=False)
    elif args.mode == "min":
        sel = solve_min_size(pop, targets, args.trial_size)
    else:
        sel = solve_fixed_size(pop, targets, args.trial_size)
    if sel.small_sample_warning:
        print(
            f"warning: expected size {sel.expected_size:.2f} is below "
            f"{SMALL_SAMPLE_THRESHOLD:g}; realized moments will be noisy",
            file=sys.stderr,
        )

    best, stats = draw_best(sel.p, pop, targets, args.draws, args.seed, args.rsse_epsilon)
    try:
        expected_report = evaluate_selection(pop, targets, sel.p, args.rsse_epsilon)
    except DspsError:
        expected_report = None  # too little probability mass for weighted moments

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_id_csv(out / "probabilities.csv", ("member_id", "p"), pop.member_ids, sel.p)
    write_id_csv(out / "mask.csv", ("member_id", "selected"), pop.member_ids, best.mask.b)

    report = _report(
        best.report,
        expected_report,
        expected_size=sel.expected_size,
        solver={
            "status": sel.solver.status.value,
            "iterations": sel.solver.iterations,
            "max_residual": sel.solver.max_residual,
        },
        seeds={
            "seed": args.seed,
            "n_draws": args.draws,
            "best_draw_index": best.mask.draw_index,
        },
        small_sample_warning=sel.small_sample_warning,
        draws=[
            {
                "draw_index": s.draw_index,
                "size": s.size,
                "rsse": s.rsse if np.isfinite(s.rsse) else None,
            }
            for s in stats
        ],
    )
    (out / "report.json").write_text(_json_text(report), encoding="utf-8")

    run = {
        "schema": SCHEMA,
        "command": "select",
        "population": str(args.population),
        "targets": str(args.targets),
        "mode": args.mode,
        "trial_size": args.trial_size,
        "alpha": sel.alpha,
        "beta": sel.beta,
        "eta_max": sel.eta_max,
        "epsilon": EPSILON,
        "seed": args.seed,
        "draws": args.draws,
        "rsse_epsilon": args.rsse_epsilon,
        "out": str(args.out),
        "row_labels": sel.row_labels,
        "expected_size": sel.expected_size,
    }
    (out / "run.json").write_text(_json_text(run), encoding="utf-8")

    print(
        f"mode={args.mode} expected_size={sel.expected_size:.3f} "
        f"realized_size={best.size} rsse={best.report.rsse:.6g} "
        f"best_draw={best.mask.draw_index}"
    )
    return 0


def cmd_evaluate(args) -> int:
    pop = load_population(args.population)
    targets = TargetSet.from_json(Path(args.targets).read_text(encoding="utf-8"))
    mask = _load_mask_csv(args.mask, pop)
    report = evaluate_selection(pop, targets, mask, args.rsse_epsilon)
    payload = _report(report, expected_size=None, solver=None, seeds=None)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(_json_text(payload), encoding="utf-8")
        print(f"wrote report for {report.realized_size} selected members to {out}")
    else:
        print(_json_text(payload), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
