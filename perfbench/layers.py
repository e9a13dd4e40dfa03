"""Per-layer metrics of one traced instance, and the HiGHS yardstick.

Layer names are the ``dsps`` module names.  Times are sums of span
durations (``*_s``) or of self times (``self_s``, ``busy_s``: a span's
duration minus what its child spans cover).  Counts come from the spans and
from the arguments and results the tracer kept.
"""

from __future__ import annotations

import time

import numpy as np

# Largest |objective(dsps) - objective(HiGHS)| / max(1, |objective(HiGHS)|)
# accepted as agreement; both solvers work to 1e-9 feasibility.
OBJ_REL_TOL = 1e-6


def _ratio(num, den, scale=1.0):
    return num * scale / den if num is not None and den else None


def highs_yardstick(problem):
    """``(seconds, objective)`` of HiGHS on the captured problem, or None without scipy."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    n = problem.n_vars
    A = np.array([r.coeffs for r in problem.rows]).reshape(-1, n)
    b = np.array([r.rhs for r in problem.rows], dtype=float)
    rel = np.array([r.relation.value for r in problem.rows], dtype=object)
    le, ge, eq = rel == "<=", rel == ">=", rel == "="
    kwargs = {}
    if le.any() or ge.any():
        kwargs["A_ub"] = np.vstack([A[le], -A[ge]])
        kwargs["b_ub"] = np.concatenate([b[le], -b[ge]])
    if eq.any():
        kwargs["A_eq"], kwargs["b_eq"] = A[eq], b[eq]
    bounds = np.column_stack([problem.lower, problem.upper])
    start = time.perf_counter()
    res = linprog(problem.objective, bounds=bounds, method="highs", **kwargs)
    seconds = time.perf_counter() - start
    return seconds, (float(res.fun) if res.status == 0 else None)


def select_metrics(tracer, instance: str) -> tuple[dict, list[str]]:
    """Layer metrics of the traced select of ``instance``, and problems found.

    A problem is a solve that failed or disagrees with HiGHS beyond
    :data:`OBJ_REL_TOL`.
    """
    own = tracer.self_times()
    ids = [i for i, s in enumerate(tracer.spans) if s.instance == instance]
    spans = tracer.spans

    def named(name):
        return [i for i in ids if spans[i].name == name]

    def total(name):
        return sum(spans[i].end - spans[i].start for i in named(name))

    def module(prefix):
        return [i for i in ids if spans[i].name.startswith(prefix + ".")]

    def kept(name):
        return [tracer.kept[i] for i in named(name) if i in tracer.kept]

    m: dict = {}
    problems: list[str] = []

    load_s = total("dataset.load_population")
    pops = [result for _, result in kept("dataset.load_population") if result is not None]
    cells = sum(p.n_members * (p.n_features + 1) for p in pops)
    m["dataset.load_s"] = load_s
    m["dataset.load_cells_per_s"] = _ratio(cells, load_s)
    m["dataset.subset_s"] = total("dataset.subset")
    m["dataset.subset_calls"] = len(named("dataset.subset"))
    m["dataset.self_s"] = sum(own[i] for i in module("dataset"))

    systems = [result for _, result in kept("selection.build_lp_system") if result is not None]
    m["selection.build_s"] = total("selection.build_lp_system")
    m["selection.rows"] = sum(s.n_rows for s in systems) if systems else None
    solves = [i for i in module("selection") if spans[i].name.startswith("selection.solve_")]
    children = {"selection.build_lp_system", "lp_core.solve_lp"}
    m["selection.solve_self_s"] = sum(
        (spans[i].end - spans[i].start)
        - sum(c.end - c.start for c in spans if c.parent == i and c.name in children)
        for i in solves
    )

    lp_calls = kept("lp_core.solve_lp")
    lp_errors = [spans[i].error for i in named("lp_core.solve_lp") if spans[i].error]
    results = [r for _, r in lp_calls if r is not None]
    failures = len(lp_errors) + sum(r.status.value != "Optimal" for r in results)
    solve_s = total("lp_core.solve_lp")
    iterations = sum(r.iterations for r in results) if results else None
    m["lp_core.solve_s"] = solve_s
    m["lp_core.iterations"] = iterations
    m["lp_core.ms_per_iter"] = _ratio(solve_s, iterations, 1e3)
    m["lp_core.n_rows"] = lp_calls[-1][0][0].n_rows if lp_calls else None
    m["lp_core.n_vars"] = lp_calls[-1][0][0].n_vars if lp_calls else None
    solved = [r for name in ("max", "min", "fixed") for _, r in kept(f"selection.solve_{name}_size")]
    solved = [r for r in solved if r is not None]
    m["lp_core.fractional_p"] = (
        int(sum(np.count_nonzero((r.p > 0.0) & (r.p < 1.0)) for r in solved)) if solved else None
    )
    m["lp_core.failures"] = failures
    if lp_errors:
        problems.append(f"solve_lp raised {', '.join(lp_errors)}")
    elif failures:
        problems.append("solve_lp did not reach an optimum")

    highs_s = gaps = None
    yard = [highs_yardstick(args[0]) for args, _ in lp_calls]
    if lp_calls and all(y is not None for y in yard):
        highs_s = sum(y[0] for y in yard)
        gaps = []
        for (args, result), (_, h_obj) in zip(lp_calls, yard):
            if result is None or result.status.value != "Optimal":
                continue
            if h_obj is None:
                problems.append("HiGHS found no optimum where dsps did")
                continue
            gap = abs(result.objective_value - h_obj) / max(1.0, abs(h_obj))
            gaps.append(gap)
            if gap > OBJ_REL_TOL:
                problems.append(f"objective differs from HiGHS by {gap:.3g} (tolerance {OBJ_REL_TOL:g})")
    m["lp_core.highs_s"] = highs_s
    m["lp_core.vs_highs"] = _ratio(solve_s, highs_s)
    m["lp_core.obj_rel_gap"] = max(gaps) if gaps else None

    draw_best_s = total("realize.draw_best")
    draws = len(named("realize.draw"))
    stats = [s for _, result in kept("realize.draw_best") if result is not None for s in result[1]]
    m["realize.draw_best_s"] = draw_best_s
    m["realize.draws"] = draws
    m["realize.ms_per_draw"] = _ratio(draw_best_s, draws, 1e3)
    m["realize.scored_ratio"] = _ratio(sum(np.isfinite(s.rsse) for s in stats), len(stats))
    m["realize.uniform_s"] = total("realize.uniform_stream")
    m["realize.self_s"] = sum(own[i] for i in module("realize"))

    for layer in ("evaluate", "moments"):
        m[f"{layer}.busy_s"] = sum(own[i] for i in module(layer))
        m[f"{layer}.calls"] = len(module(layer))
    m["cli.self_s"] = sum(own[i] for i in module("cli"))
    return m, problems


def generate_metrics(tracer, instance: str) -> dict:
    """Layer metrics of the traced ``dsps generate`` of ``instance``."""
    spans = [s for s in tracer.spans if s.instance == instance]

    def total(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    return {
        "synthgen.generate_s": total("synthgen.generate_population"),
        "dataset.save_s": total("dataset.save_population"),
    }
