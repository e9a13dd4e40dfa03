"""Command-line pipeline: generate, select, evaluate.

``select`` runs the full chain (load, build, solve, realize, score) and
writes four artifacts into the output directory:

* ``probabilities.csv`` -- member_id, p
* ``mask.csv``          -- member_id, selected (best draw)
* ``report.json``       -- per-criterion targets vs expected and realized
* ``run.json``          -- every resolved setting; a run is replayable from it

No timestamps or machine state go into the artifacts, so a repeated run with
the same inputs is byte-identical.

Whether a run reproduces a known cohort or predicts one for different target
values is purely a property of the targets file handed in; the pipeline is
identical.

Exit codes: 0 success, 1 bad input, 2 infeasible targets, 3 every draw
degenerate, 4 solver failure (a numerical breakdown in the LP solve).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import load_population, save_population
from .errors import (
    AllDrawsDegenerate,
    DspsError,
    InfeasibleError,
    NumericalBreakdown,
    SmallSampleWarning,
)
from .evaluate import evaluate_selection
from .moments import TargetSet
from .realize import SelectionMask, draw_best
from .selection import (
    DEFAULT_EPSILON,
    SMALL_SAMPLE_THRESHOLD,
    HyperParams,
    solve_fixed_size,
    solve_max_size,
    solve_min_size,
)
from .synthgen import SynthSpec, generate_population

SCHEMA = "dsps/1"
MODES = ("max", "max-strict", "fixed", "min")
SEED_ENV = "DSPS_SEED"


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
    sel.add_argument("--n-target", type=float, default=None,
                     help="expected size for --mode fixed")
    sel.add_argument("--alpha", type=float, default=None,
                     help="slack budget; overrides --trial-size")
    sel.add_argument("--trial-size", type=float, default=None,
                     help="intended cohort size; alpha defaults to 5%% of it")
    sel.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                     help="denominator guard in scales and weights")
    sel.add_argument("--seed", type=int, default=None,
                     help=f"draw seed; falls back to ${SEED_ENV}, then 0")
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
    except NumericalBreakdown as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except (DspsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---- helpers -------------------------------------------------------------


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DspsError(f"${SEED_ENV}={env!r} is not an integer") from None
    return 0


def _json_text(payload: dict) -> str:
    # arrays are the only values json cannot write; np.float64 is a float
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.tolist()) + "\n"


def _write_vector_csv(path: Path, header: tuple[str, str], ids, values, fmt) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([mid, fmt(val)] for mid, val in zip(ids, values))


def _load_mask_csv(path, pop) -> SelectionMask:
    selected = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise DspsError(f"{path}: mask CSV needs member_id,selected columns")
        for row in reader:
            if not row:
                continue
            if len(row) != 2 or row[1].strip() not in ("0", "1"):
                raise DspsError(f"{path}: bad mask row {row!r}")
            if row[0].strip() in selected:
                raise DspsError(f"{path}: member {row[0].strip()!r} is listed twice")
            selected[row[0].strip()] = int(row[1])
    if set(selected) != set(pop.member_ids) or len(selected) != pop.n_members:
        raise DspsError(f"{path}: mask ids do not match the population")
    b = np.array([selected[mid] for mid in pop.member_ids], dtype=np.int8)
    return SelectionMask(b, seed=0, draw_index=0)


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
    seed = _resolve_seed(args.seed)
    if args.draws < 1:
        raise DspsError(f"--draws must be >= 1, got {args.draws}")
    hyper = HyperParams(
        alpha=args.alpha,
        epsilon=args.epsilon,
        trial_size=args.trial_size,
    )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallSampleWarning)
        if args.mode == "max":
            sel = solve_max_size(pop, targets, hyper, relaxed=True)
        elif args.mode == "max-strict":
            sel = solve_max_size(pop, targets, hyper, relaxed=False)
        elif args.mode == "min":
            sel = solve_min_size(pop, targets, hyper)
        else:
            if args.n_target is None:
                raise DspsError("--mode fixed requires --n-target")
            sel = solve_fixed_size(pop, targets, args.n_target, hyper)
    if sel.small_sample_warning:
        print(
            f"warning: expected size {sel.expected_size:.2f} is below "
            f"{SMALL_SAMPLE_THRESHOLD:g}; realized moments will be noisy",
            file=sys.stderr,
        )

    best, stats = draw_best(sel.p, pop, targets, args.draws, seed, args.rsse_epsilon)
    try:
        expected_report = evaluate_selection(pop, targets, sel.p, args.rsse_epsilon)
    except DspsError:
        expected_report = None  # too little probability mass for weighted moments

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_vector_csv(out / "probabilities.csv", ("member_id", "p"),
                      pop.member_ids, sel.p, lambda v: repr(float(v)))
    _write_vector_csv(out / "mask.csv", ("member_id", "selected"),
                      pop.member_ids, best.mask.b, lambda v: str(int(v)))

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
            "seed": seed,
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
        "n_target": args.n_target if args.mode == "fixed" else None,
        "alpha": sel.alpha,
        "beta": sel.beta,
        "eta_max": sel.eta_max,
        "epsilon": args.epsilon,
        "seed": seed,
        "draws": args.draws,
        "rsse_epsilon": args.rsse_epsilon,
        "out": str(args.out),
        "row_labels": sel.row_labels,
        "expected_size": sel.expected_size,
    }
    (out / "run.json").write_text(_json_text(run), encoding="utf-8")

    print(
        f"mode={args.mode} expected_size={sel.expected_size:.3f} "
        f"realized_size={best.size} rsse={best.rsse:.6g} "
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
