"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[ACCEPT-nn] PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so a red run still shows the full verdict
list in the captured output.
"""

import json
import time

import numpy as np
import pytest

from dsps.cli import main
from dsps.dataset import Population
from dsps.errors import DimensionMismatch
from dsps.evaluate import gmi
from dsps.lp_core import (
    LpProblem,
    LpRow,
    Relation,
    SolveStatus,
    solve_lp,
)
from dsps.moments import (
    TargetCriterion,
    TargetSet,
    expected_moment,
    sample_moment,
)
from dsps.realize import draw
from dsps.selection import (
    ALPHA_FRACTION,
    build_lp_system,
    solve_max_size,
    solve_min_size,
)
from dsps.synthgen import (
    FeatureSpec,
    LogNormal,
    Mixture,
    Normal,
    SynthSpec,
    generate_population,
    plant_subset,
)

from oracles import (
    best_subset_objective,
    lp_vertex_oracle,
    moment_oracle,
    weighted_moment_oracle,
)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def test_accept_01_large_cohort_recovery_through_cli(tmp_path):
    """6062-member mixture population, planted 400-member cohort, full CLI run."""
    features = []
    rng = np.random.default_rng(8)
    for j in range(10):
        mu = float(rng.uniform(60.0, 200.0))
        spread = float(rng.uniform(5.0, 25.0))
        shift = float(rng.uniform(10.0, 40.0))
        dist = Mixture((
            (0.6, Normal(mu, spread)),
            (0.4, Normal(mu + shift, spread * 1.5)),
        ))
        features.append(FeatureSpec(f"f{j}", dist))
    spec = SynthSpec(n_p=6062, seed=20240817, features=tuple(features))
    pop = generate_population(spec)

    # biased cohort: a 400-member band of a two-feature severity score
    score = pop.data[:, 0] + 0.5 * pop.data[:, 3]
    idx = np.argsort(score)[1500:1900]
    targets = plant_subset(pop, idx)

    pop_path = tmp_path / "population.csv"
    targets_path = tmp_path / "targets.json"
    from dsps.dataset import save_population

    save_population(pop, pop_path)
    targets_path.write_text(targets.to_json() + "\n", encoding="utf-8")

    out = tmp_path / "run"
    started = time.perf_counter()
    code = main([
        "select",
        "--population", str(pop_path),
        "--targets", str(targets_path),
        "--mode", "max",
        "--trial-size", "400",
        "--seed", "20240817",
        "--draws", "10",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - started
    result = json.loads((out / "report.json").read_text())
    ok = (
        code == 0
        and result["pe_mean"] <= 2.0
        and result["rsse"] <= 0.5
        and result["realized_size"] >= 300
        and elapsed <= 60.0
    )
    report(
        "ACCEPT-01",
        ok,
        f"pe_mean={result['pe_mean']:.3f}% rsse={result['rsse']:.4f} "
        f"size={result['realized_size']} elapsed={elapsed:.1f}s",
    )


def test_accept_02_full_population_targets_select_everyone():
    """Targets equal to the whole population's moments must keep every member."""
    rng = np.random.default_rng(222)
    worst_gap = 0.0
    worst_eta = 0.0
    for trial in range(20):
        n_p = int(rng.integers(100, 5001))
        n_feat = int(rng.integers(1, 4))
        feats = []
        for j in range(n_feat):
            kind = rng.integers(0, 3)
            if kind == 0:
                feats.append(FeatureSpec(f"f{j}", Normal(float(rng.uniform(-5, 200)),
                                                         float(rng.uniform(0.5, 30)))))
            elif kind == 1:
                feats.append(FeatureSpec(f"f{j}", LogNormal(float(rng.uniform(0, 4)),
                                                            float(rng.uniform(0.1, 0.6)))))
            else:
                feats.append(FeatureSpec(f"f{j}", Mixture((
                    (0.5, Normal(float(rng.uniform(0, 100)), float(rng.uniform(1, 10)))),
                    (0.5, Normal(float(rng.uniform(100, 200)), float(rng.uniform(1, 10)))),
                ))))
        pop = generate_population(SynthSpec(n_p, int(rng.integers(0, 2**31)), tuple(feats)))
        targets = plant_subset(pop, np.arange(n_p))
        sel = solve_max_size(pop, targets, float(n_p))
        system = build_lp_system(pop, targets)
        scaled_eta = np.abs(sel.eta) * system.row_scales
        worst_gap = max(worst_gap, n_p - sel.expected_size)
        worst_eta = max(worst_eta, float(scaled_eta.max()))
    ok = worst_gap <= 1e-6 and worst_eta <= 1e-6
    report(
        "ACCEPT-02",
        ok,
        f"20 populations, worst size gap {worst_gap:.2e}, worst scaled slack {worst_eta:.2e}",
    )


def test_accept_03_relaxed_solution_dominates_every_integer_subset():
    """The continuous optimum's objective bounds that of every 0/1 selection."""
    rng = np.random.default_rng(333)
    checked = 0
    worst_margin = np.inf
    for trial in range(50):
        n_p = int(rng.integers(6, 19))
        data = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3.0), (n_p, 1))
        pop = Population(tuple(f"m{i}" for i in range(n_p)), ("f",), data)
        k = int(rng.integers(2, max(3, n_p - 1)))
        idx = rng.choice(n_p, size=k, replace=False)
        targets = plant_subset(pop, idx)
        system = build_lp_system(pop, targets)
        alpha = float(rng.uniform(0.02, 0.3))
        sel = solve_max_size(pop, targets, alpha / ALPHA_FRACTION)
        best = best_subset_objective(system.scaled_matrix(), system.scaled_rhs(), sel.alpha)
        assert best is not None  # the planted subset is always admissible
        worst_margin = min(worst_margin, best - sel.solver.objective_value)
        checked += 1
    ok = checked == 50 and worst_margin >= -1e-6
    report(
        "ACCEPT-03",
        ok,
        f"{checked} instances, worst (integer - relaxed objective) margin {worst_margin:.2e}",
    )


def test_accept_04_draw_sizes_track_expected_size():
    p = np.full(100, 0.5)
    total = float(p.sum())
    spread = float(np.sum(p * (1.0 - p)))
    n_draws = 2000
    sizes = [draw(p, seed=4242, draw_index=k).size for k in range(n_draws)]
    bound = 4.0 * np.sqrt(spread / n_draws)
    gap = abs(float(np.mean(sizes)) - total)
    ok = gap <= bound
    report("ACCEPT-04", ok, f"|mean size - {total:.0f}| = {gap:.3f} <= {bound:.3f}")


def test_accept_05_moments_match_direct_summation():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 60))
        x = rng.normal(rng.uniform(-10, 10), rng.uniform(0.5, 5.0), n)
        xs = x.tolist()
        mu = moment_oracle(xs, 1)
        var = moment_oracle(xs, 2)
        p = rng.uniform(0.05, 1.0, n)
        ones = np.ones(n)
        for k in range(1, 7):
            got = sample_moment(x, k)
            want = moment_oracle(xs, k)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))

            wgot = expected_moment(x, p, k, target_mean=mu, target_var=var)
            wwant = weighted_moment_oracle(xs, p.tolist(), k, target_mean=mu,
                                           target_var=var)
            worst = max(worst, abs(wgot - wwant) / max(1.0, abs(wwant)))

            egot = expected_moment(x, ones, k, target_mean=mu, target_var=var)
            worst = max(worst, abs(egot - got) / max(1.0, abs(got)))
    ok = worst <= 1e-12
    report("ACCEPT-05", ok, f"100 vectors x orders 1-6, worst relative gap {worst:.2e}")


def test_accept_06_lp_solver_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(666)
    n_feasible = n_infeasible = 0
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        c = rng.normal(0, 1, n)
        lower = np.zeros(n)
        upper = rng.uniform(0.5, 2.0, n)
        A = rng.normal(0, 1, (m, n))
        rels = rng.choice([Relation.LE, Relation.GE, Relation.EQ], m)
        if rng.random() < 0.5:
            anchor = rng.uniform(lower, upper)
            b = A @ anchor + np.where(
                rels == Relation.LE, np.abs(rng.normal(0, 0.5, m)),
                np.where(rels == Relation.GE, -np.abs(rng.normal(0, 0.5, m)), 0.0),
            )
        else:
            b = rng.normal(0, 2, m)
        rows = tuple(LpRow(A[j], rels[j], b[j]) for j in range(m))
        oracle_rows = [(A[j], rels[j].value, b[j]) for j in range(m)]
        sol = solve_lp(LpProblem(c, rows, lower, upper))
        status, value = lp_vertex_oracle(c, oracle_rows, lower, upper)
        if status == "infeasible":
            n_infeasible += 1
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            n_feasible += 1
            assert sol.status is SolveStatus.OPTIMAL
            worst = max(worst, abs(sol.objective_value - value))

    # an unbounded program is outside the solver's domain: it is rejected on
    # construction, never solved or mislabelled
    unbounded = (
        (np.array([-1.0]), (), np.array([0.0]), np.array([np.inf])),
        (np.array([1.0, -2.0]),
         (LpRow(np.array([1.0, 0.0]), Relation.LE, 4.0),),
         np.array([0.0, 0.0]), np.array([1.0, np.inf])),
        (np.array([0.0, -1.0]),
         (LpRow(np.array([1.0, -1.0]), Relation.GE, -1.0),),
         np.array([0.0, -np.inf]), np.array([np.inf, np.inf])),
    )
    n_rejected = 0
    for args in unbounded:
        try:
            LpProblem(*args)
        except DimensionMismatch:
            n_rejected += 1
    ok = worst <= 1e-7 and n_feasible >= 10 and n_infeasible >= 5 and n_rejected == 3
    report(
        "ACCEPT-06",
        ok,
        f"{n_feasible} optimal (worst gap {worst:.2e}), {n_infeasible} infeasible, "
        f"{n_rejected} of 3 unbounded programs rejected",
    )


def test_accept_07_glucose_index_reference_points():
    gaps = (abs(gmi(100.0) - 5.702), abs(gmi(154.0) - 6.99368))
    ok = max(gaps) <= 1e-12
    report("ACCEPT-07", ok, f"gmi(100)->5.702, gmi(154)->6.99368, worst gap {max(gaps):.1e}")


def test_accept_08_identical_runs_write_identical_artifacts(tmp_path):
    rng = np.random.default_rng(888)
    data = rng.normal(90.0, 12.0, (120, 2))
    pop = Population(tuple(f"m{i}" for i in range(120)), ("a", "b"), data)
    idx = np.argsort(data[:, 0])[30:70]
    targets = plant_subset(pop, idx)
    from dsps.dataset import save_population

    pop_path = tmp_path / "population.csv"
    targets_path = tmp_path / "targets.json"
    save_population(pop, pop_path)
    targets_path.write_text(targets.to_json(), encoding="utf-8")

    args = ["select", "--population", str(pop_path), "--targets", str(targets_path),
            "--trial-size", "40", "--seed", "606", "--draws", "8",
            "--out", str(tmp_path / "run")]
    assert main(args) == 0
    names = ("probabilities.csv", "mask.csv", "report.json")
    first = {n: (tmp_path / "run" / n).read_bytes() for n in names}
    assert main(args) == 0
    same = {n: (tmp_path / "run" / n).read_bytes() == first[n] for n in names}
    ok = all(same.values())
    report("ACCEPT-08", ok, "byte-identical " + ", ".join(names))


def test_accept_09_small_minimum_warns_and_large_minimum_does_not():
    def two_point(m, n_per_side, center=100.0, a=3.0):
        values = np.concatenate([
            np.full(n_per_side, center + a), np.full(n_per_side, center - a)
        ])
        pop = Population(tuple(f"m{i}" for i in range(values.size)), ("f",),
                         values[:, None])
        targets = TargetSet((
            TargetCriterion("f", 1, center),
            TargetCriterion("f", 2, a * a * m / (m - 1.0)),
        ))
        return pop, targets

    trial_size = 0.05 / ALPHA_FRACTION
    pop_small, targets_small = two_point(m=10, n_per_side=20)
    small = solve_min_size(pop_small, targets_small, trial_size)
    pop_big, targets_big = two_point(m=40, n_per_side=60)
    big = solve_min_size(pop_big, targets_big, trial_size)

    ok = (
        small.small_sample_warning
        and small.expected_size < 30.0
        and not big.small_sample_warning
        and big.expected_size >= 30.0
    )
    report(
        "ACCEPT-09",
        ok,
        f"forced sizes {small.expected_size:.2f} (warned) and "
        f"{big.expected_size:.2f} (silent)",
    )


def test_accept_10_feature_rescaling_leaves_the_solution_unchanged():
    rng = np.random.default_rng(1010)
    data = np.column_stack([
        rng.normal(8.0, 1.2, 500),
        rng.normal(120.0, 25.0, 500),
        rng.lognormal(1.0, 0.4, 500),
    ])
    pop = Population(tuple(f"m{i}" for i in range(500)), ("a", "b", "c"), data)
    idx = np.argsort(data[:, 0] + 0.02 * data[:, 1])[100:220]
    targets = plant_subset(pop, idx)
    sel = solve_max_size(pop, targets, 120.0)

    lam = 1000.0
    scaled = data.copy()
    scaled[:, 0] *= lam
    pop2 = Population(pop.member_ids, pop.feature_names, scaled)
    crit = []
    for c in targets:
        v = c.value
        if c.feature == "a":
            v *= lam if c.order == 1 else lam**2
        crit.append(TargetCriterion(c.feature, c.order, v))
    targets2 = TargetSet(tuple(crit))
    sel2 = solve_max_size(pop2, targets2, 120.0)

    gap = abs(sel.expected_size - sel2.expected_size)
    ok = gap <= 1e-6
    report(
        "ACCEPT-10",
        ok,
        f"lambda=1000 on feature 'a': |{sel.expected_size:.6f} - "
        f"{sel2.expected_size:.6f}| = {gap:.2e}",
    )


def test_accept_11_order_one_to_four_targets_solve_in_every_mode(tmp_path):
    """Orders up to 4 planted in the demo population solve in all four modes."""
    from pathlib import Path

    from dsps.dataset import save_population
    from dsps.selection import solve_fixed_size

    demo = Path(__file__).resolve().parent.parent / "demo"
    pop = generate_population(SynthSpec.from_json((demo / "spec.json").read_text()))
    idx = np.argsort(pop.data[:, 0])[200:400]
    pop_path = tmp_path / "population.csv"
    save_population(pop, pop_path)

    problems = []
    for top in (3, 4):
        targets = plant_subset(pop, idx, orders=tuple(range(1, top + 1)))
        trial_size = float(idx.size)
        system = build_lp_system(pop, targets)
        slack_tol = 1e-7 / system.row_scales
        relaxed = solve_max_size(pop, targets, trial_size)
        strict = solve_max_size(pop, targets, trial_size, relaxed=False)
        fixed = solve_fixed_size(pop, targets, trial_size)
        smallest = solve_min_size(pop, targets, trial_size)
        for mode, sel in (("max", relaxed), ("fixed", fixed), ("min", smallest)):
            eta, eta_max = sel.eta[:system.n_rows], sel.eta_max[:system.n_rows]
            resid = np.abs(system.matrix @ sel.p - system.rhs)
            if np.any(resid > eta + slack_tol) or np.any(eta > eta_max + slack_tol):
                problems.append(f"orders 1-{top} {mode}: residual outside eta_max")
        if np.max(np.abs(system.scaled_matrix() @ strict.p - system.scaled_rhs())) > 1e-6:
            problems.append(f"orders 1-{top} max-strict: rows not met")
        # the planted members satisfy every row exactly
        if min(relaxed.expected_size, strict.expected_size) < idx.size - 1e-6:
            problems.append(f"orders 1-{top}: max size below the planted {idx.size}")
        if smallest.expected_size > relaxed.expected_size + 1e-9:
            problems.append(f"orders 1-{top}: min above max")
        if abs(fixed.expected_size - idx.size) > fixed.alpha + 1e-9:
            problems.append(f"orders 1-{top}: fixed size off by more than alpha")

        targets_path = tmp_path / f"targets-{top}.json"
        targets_path.write_text(targets.to_json() + "\n", encoding="utf-8")
        common = ["select", "--population", str(pop_path), "--targets", str(targets_path),
                  "--trial-size", str(idx.size), "--seed", "5"]
        for mode in ("max", "max-strict", "fixed", "min"):
            code = main([*common, "--mode", mode, "--out", str(tmp_path / f"run-{top}-{mode}")])
            if code != 0:
                problems.append(f"orders 1-{top} CLI --mode {mode}: exit {code}")
    report(
        "ACCEPT-11",
        not problems,
        "orders 1-3 and 1-4, library and CLI, modes max/max-strict/fixed/min"
        + (": " + "; ".join(problems) if problems else ""),
    )
