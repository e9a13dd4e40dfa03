"""Constraint systems and inclusion-probability solves.

The selection problem: find per-member probabilities ``p`` in ``[0,1]`` whose
probability-weighted moments hit a set of targets, while maximising (or
minimising, or pinning) the expected sub-population size ``sum(p)``.

For each (feature, order) criterion one constraint row is built over the
member axis, using deviations from the *target* mean so the system stays
linear in ``p``:

* order 1:   entries ``x_i - M1``,                          rhs ``0``
* order 2:   entries ``(x_i - M1)^2 - M2``,                 rhs ``-M2``
* order 3:   entries ``(x_i - M1)^3 - M2^1.5 * M3``,        rhs ``0``
* order 4:   entries ``(x_i - M1)^4 - M2^2 * (M4 + 3)``,    rhs ``0``
* order k>=5: entries ``(x_i - M1)^k - Mk``,                rhs ``0``

where ``M1, M2`` are the order-1/2 targets for the row's feature and the rhs
for order 2 makes an exact match correspond to the unbiased ``n - 1``
variance convention.  Each row is conditioned by the scale ``1/(|t| + eps)``
of its target, so that with automatic hyperparameters every slack has unit
objective weight and a uniform bound ``alpha`` in scaled space.

In the relaxed form each row gains a pair of slacks ``s+_j, s-_j`` in
``[0, eta_max_j]`` with ``row_j . p - s+_j + s-_j = rhs_j``, and the
objective trades expected size against weighted slack:
``-sum(p) + sum(beta_j (s+_j + s-_j))``.  The reported slack
``eta_j = |s+_j - s-_j|`` is the row's residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Population, feature_column
from .errors import (
    EmptyTargetSet,
    InfeasibleError,
    InvalidSampleSize,
    IterationLimitExceeded,
    LengthMismatch,
    MissingHyperParam,
    NumericalBreakdown,
    SmallSampleWarning,
    UnboundedError,
)
from .lp_core import (
    LpProblem,
    LpRow,
    LpSolution,
    Relation,
    SolveStatus,
    SolverOptions,
    solve_lp,
)
from .moments import TargetSet

__all__ = [
    "SIZE_ROW",
    "HyperParams",
    "auto_hyperparams",
    "resolve_slack",
    "ConstraintSystem",
    "build_lp_system",
    "build_sle_system",
    "SelectionProbabilities",
    "solve_max_size",
    "solve_min_size",
    "solve_fixed_size",
]

SIZE_ROW = "size"

SMALL_SAMPLE_THRESHOLD = 30.0
DEFAULT_EPSILON = 1e-6
ALPHA_FRACTION = 0.05  # alpha = 5% of the intended trial size

# below this expected size a max-size optimum counts as the empty selection
_EMPTY_SELECTION_TOL = 1e-9


@dataclass(frozen=True)
class HyperParams:
    """Relaxation hyperparameters; ``None`` fields resolve automatically.

    ``beta`` and ``eta_max`` are per-row vectors aligned with the constraint
    rows (criteria sorted by order, then input position).  When left unset
    they follow the target-scaled pattern ``beta_j = 1/(|t_j| + epsilon)``
    and ``eta_max_j = alpha * (|t_j| + epsilon)``, with
    ``alpha = 0.05 * trial_size`` when only a trial size is given.
    """

    alpha: float | None = None
    beta: np.ndarray | None = None
    eta_max: np.ndarray | None = None
    epsilon: float = DEFAULT_EPSILON
    trial_size: float | None = None

    def __post_init__(self):
        if self.alpha is not None and not self.alpha > 0.0:
            raise MissingHyperParam(f"alpha must be positive, got {self.alpha}")
        if self.epsilon <= 0.0:
            raise MissingHyperParam(f"epsilon must be positive, got {self.epsilon}")
        if self.trial_size is not None and not self.trial_size > 0.0:
            raise InvalidSampleSize(f"trial size must be positive, got {self.trial_size}")
        for name in ("beta", "eta_max"):
            vec = getattr(self, name)
            if vec is not None:
                arr = np.asarray(vec, dtype=float).ravel()
                if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
                    raise MissingHyperParam(f"{name} entries must be finite and >= 0")
                object.__setattr__(self, name, arr)

    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return float(self.alpha)
        if self.trial_size is not None:
            return ALPHA_FRACTION * float(self.trial_size)
        raise MissingHyperParam("need alpha or trial_size to size the slack budget")


def ordered_criteria(targets: TargetSet):
    """Constraint-row order: by moment order, then by position in the target set."""
    return tuple(
        targets.criteria[i]
        for i in sorted(range(len(targets.criteria)), key=lambda i: (targets.criteria[i].order, i))
    )


def auto_hyperparams(
    targets: TargetSet, trial_size: float, epsilon: float = DEFAULT_EPSILON
) -> HyperParams:
    """Fully resolved hyperparameters from a trial size alone."""
    if not trial_size > 0.0:
        raise InvalidSampleSize(f"trial size must be positive, got {trial_size}")
    alpha = ALPHA_FRACTION * float(trial_size)
    scale = np.array([abs(c.value) + epsilon for c in ordered_criteria(targets)])
    return HyperParams(
        alpha=alpha,
        beta=1.0 / scale,
        eta_max=alpha * scale,
        epsilon=epsilon,
        trial_size=float(trial_size),
    )


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows over the member axis plus the conditioning applied to them.

    ``matrix`` and ``rhs`` are unscaled.  ``row_scales[j]`` is the multiplier
    ``1/(|t_j| + eps)`` whose application yields the conditioned system the
    solver sees; :meth:`scaled_matrix` / :meth:`scaled_rhs` apply it.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple
    row_scales: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        r = np.asarray(self.rhs, dtype=float).ravel()
        s = np.asarray(self.row_scales, dtype=float).ravel()
        if m.ndim != 2 or m.shape[0] != r.size or r.size != len(self.row_labels) or r.size != s.size:
            raise LengthMismatch("matrix, rhs, labels, and scales disagree on row count")
        if np.any(s <= 0.0):
            raise LengthMismatch("row scales must be positive")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", r)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "row_scales", s)

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    def scaled_matrix(self) -> np.ndarray:
        return self.matrix * self.row_scales[:, None]

    def scaled_rhs(self) -> np.ndarray:
        return self.rhs * self.row_scales


def _row_entries(x: np.ndarray, order: int, targets: TargetSet, feature: str):
    """(entries, rhs) of one criterion row, unscaled."""
    t = targets.value_of(feature, order)
    if order == 1:
        return x - t, 0.0
    m1 = targets.value_of(feature, 1)
    d = x - m1
    if order == 2:
        return d * d - t, -t
    m2 = targets.value_of(feature, 2)
    if order == 3:
        return d**3 - m2**1.5 * t, 0.0
    if order == 4:
        return d**4 - m2**2 * (t + 3.0), 0.0
    return d**order - t, 0.0


def build_lp_system(
    pop: Population, targets: TargetSet, epsilon: float = DEFAULT_EPSILON
) -> ConstraintSystem:
    """One row per criterion, rhs such that ``row . p = rhs`` matches the target."""
    rows, rhs, labels, scales = [], [], [], []
    for c in ordered_criteria(targets):
        x = feature_column(pop, c.feature)
        entries, b = _row_entries(x, c.order, targets, c.feature)
        rows.append(entries)
        rhs.append(b)
        labels.append((c.feature, c.order))
        scales.append(1.0 / (abs(c.value) + epsilon))
    n = len(rows)
    matrix = np.array(rows) if n else np.empty((0, pop.n_members))
    return ConstraintSystem(matrix, np.array(rhs), tuple(labels), np.array(scales))


def build_sle_system(
    pop: Population, targets: TargetSet, n_t: float, epsilon: float = DEFAULT_EPSILON
) -> ConstraintSystem:
    """Fixed-size system of equations: a size row plus uncentred criterion rows.

    Written for a prescribed expected size ``n_t``: the size row sums ``p`` to
    ``n_t``; a mean row sums raw values to ``n_t * M1``; a variance row sums
    squared deviations from ``M1`` to ``(n_t - 1) * M2``; higher orders sum
    the corresponding power to ``n_t`` times the target central quantity.
    """
    if not 1.0 <= float(n_t) <= pop.n_members:
        raise InvalidSampleSize(
            f"n_t must lie in [1, {pop.n_members}], got {n_t}"
        )
    n_t = float(n_t)
    rows = [np.ones(pop.n_members)]
    rhs = [n_t]
    labels: list = [SIZE_ROW]
    scales = [1.0 / (n_t + epsilon)]
    for c in ordered_criteria(targets):
        x = feature_column(pop, c.feature)
        t = c.value
        if c.order == 1:
            entries, b = x, n_t * t
        else:
            m1 = targets.value_of(c.feature, 1)
            d = x - m1
            if c.order == 2:
                entries, b = d * d, (n_t - 1.0) * t
            elif c.order == 3:
                m2 = targets.value_of(c.feature, 2)
                entries, b = d**3, n_t * m2**1.5 * t
            elif c.order == 4:
                m2 = targets.value_of(c.feature, 2)
                entries, b = d**4, n_t * m2**2 * (t + 3.0)
            else:
                entries, b = d**c.order, n_t * t
        rows.append(entries)
        rhs.append(b)
        labels.append((c.feature, c.order))
        scales.append(1.0 / (abs(t) + epsilon))
    return ConstraintSystem(np.array(rows), np.array(rhs), tuple(labels), np.array(scales))


@dataclass(frozen=True)
class SelectionProbabilities:
    """Solved inclusion probabilities plus the slack actually used.

    ``eta`` is in unscaled (target) units, one entry per constraint row, or
    ``None`` for the strict-equality solve.  ``expected_size`` is ``sum(p)``.
    """

    p: np.ndarray
    eta: np.ndarray | None
    expected_size: float
    row_labels: tuple
    solver: LpSolution
    small_sample_warning: bool = False


def resolve_slack(targets: TargetSet, hyper: HyperParams):
    """Per-row (beta, eta_max) for the criterion rows, in unscaled target units."""
    m = len(ordered_criteria(targets))
    if m == 0:
        return np.empty(0), np.empty(0)
    if hyper.beta is not None and hyper.eta_max is not None:
        beta, eta_max = hyper.beta, hyper.eta_max
        if beta.size != m or eta_max.size != m:
            raise LengthMismatch(
                f"beta/eta_max need {m} entries, got {beta.size}/{eta_max.size}"
            )
        return beta, eta_max
    auto = auto_hyperparams(targets, hyper.trial_size or _alpha_as_trial(hyper), hyper.epsilon)
    beta = hyper.beta if hyper.beta is not None else auto.beta
    eta_max = hyper.eta_max if hyper.eta_max is not None else auto.eta_max
    if beta.size != m or eta_max.size != m:
        raise LengthMismatch(f"beta/eta_max need {m} entries")
    return beta, eta_max


def _alpha_as_trial(hyper: HyperParams) -> float:
    # invert alpha = ALPHA_FRACTION * trial_size so auto vectors can be built
    return hyper.resolved_alpha() / ALPHA_FRACTION


def _relaxed_problem(
    system: ConstraintSystem,
    beta: np.ndarray,
    eta_max: np.ndarray,
    size_sign: float,
) -> LpProblem:
    """Assemble the slack-relaxed program in scaled row space.

    Variables are ``[p, s_plus, s_minus]``; row ``j`` reads
    ``A_j p - s_plus_j + s_minus_j = C_j`` with both slacks in
    ``[0, eta_max_j]`` and costing ``beta_j`` each, all in scaled units.
    """
    n = system.matrix.shape[1]
    m = system.n_rows
    scales = system.row_scales
    A = np.hstack([system.scaled_matrix(), -np.eye(m), np.eye(m)])
    C = system.scaled_rhs()
    weight = beta / scales
    cap = eta_max * scales
    c = np.concatenate([np.full(n, size_sign), weight, weight])
    rows = tuple(LpRow(A[j], Relation.EQ, C[j]) for j in range(m))
    lower = np.zeros(n + 2 * m)
    upper = np.concatenate([np.ones(n), cap, cap])
    return LpProblem(c, rows, lower, upper)


def _finish_solve(
    solution: LpSolution, system: ConstraintSystem, n: int
) -> SelectionProbabilities:
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            "no probability vector satisfies the targets "
            f"(best total violation {solution.objective_value:.3e})",
            violation=solution.objective_value,
        )
    if solution.status is SolveStatus.UNBOUNDED:
        raise UnboundedError("selection program is unbounded; bounds were lost")
    if solution.status is SolveStatus.ITERATION_LIMIT:
        raise IterationLimitExceeded(
            f"no optimum within {solution.iterations} simplex iterations"
        )
    if solution.z is None:
        raise NumericalBreakdown("optimal status without a solution vector")
    p = np.clip(solution.z[:n], 0.0, 1.0)
    m = system.n_rows
    if solution.z.size > n:
        # the row residual |s_plus - s_minus|, which stays within eta_max even
        # when a zero weight leaves both slacks loose
        eta = np.abs(solution.z[n:n + m] - solution.z[n + m:]) / system.row_scales
    else:
        eta = None
    return SelectionProbabilities(
        p=p,
        eta=eta,
        expected_size=float(np.sum(p)),
        row_labels=system.row_labels,
        solver=solution,
    )


def solve_max_size(
    pop: Population,
    targets: TargetSet,
    hyper: HyperParams | None = None,
    relaxed: bool = True,
    options: SolverOptions | None = None,
) -> SelectionProbabilities:
    """Largest expected sub-population matching the targets.

    ``relaxed=False`` demands exact (to solver tolerance) moment equality and
    ignores the slack hyperparameters.  An optimum with zero expected size is
    reported as infeasible: the empty selection satisfies any centred moment
    row vacuously, but it is never a usable cohort.
    """
    hyper = hyper or HyperParams()
    system = build_lp_system(pop, targets, hyper.epsilon)
    n = pop.n_members
    if not relaxed:
        A, C = system.scaled_matrix(), system.scaled_rhs()
        rows = tuple(LpRow(A[j], Relation.EQ, C[j]) for j in range(system.n_rows))
        problem = LpProblem(np.full(n, -1.0), rows, np.zeros(n), np.ones(n))
        result = _finish_solve(solve_lp(problem, options), system, n)
    else:
        beta, eta_max = resolve_slack(targets, hyper)
        problem = _relaxed_problem(system, beta, eta_max, size_sign=-1.0)
        result = _finish_solve(solve_lp(problem, options), system, n)
    if len(targets) > 0 and result.expected_size <= _EMPTY_SELECTION_TOL:
        raise InfeasibleError(
            "targets admit only the empty selection (max expected size 0)",
            violation=0.0,
        )
    return result


def solve_min_size(
    pop: Population,
    targets: TargetSet,
    hyper: HyperParams | None = None,
    options: SolverOptions | None = None,
) -> SelectionProbabilities:
    """Smallest expected sub-population matching the targets.

    Flags (and warns) when the minimised expected size drops below 30, the
    usual large-sample rule of thumb: moment matching with so little mass
    says little about realized draws.
    """
    hyper = hyper or HyperParams()
    system = build_lp_system(pop, targets, hyper.epsilon)
    beta, eta_max = resolve_slack(targets, hyper)
    problem = _relaxed_problem(system, beta, eta_max, size_sign=1.0)
    result = _finish_solve(solve_lp(problem, options), system, pop.n_members)
    if result.expected_size < SMALL_SAMPLE_THRESHOLD:
        warnings.warn(
            f"minimised expected size {result.expected_size:.2f} is below "
            f"{SMALL_SAMPLE_THRESHOLD:g}",
            SmallSampleWarning,
            stacklevel=2,
        )
        return SelectionProbabilities(
            p=result.p,
            eta=result.eta,
            expected_size=result.expected_size,
            row_labels=result.row_labels,
            solver=result.solver,
            small_sample_warning=True,
        )
    return result


def solve_fixed_size(
    pop: Population,
    targets: TargetSet,
    n_t: float,
    hyper: HyperParams | None = None,
    options: SolverOptions | None = None,
) -> SelectionProbabilities:
    """Expected size pinned to ``n_t`` within ``alpha``, targets relaxed as usual.

    The size row carries its own slack bounded by ``alpha`` with objective
    weight ``1/(n_t + eps)``, mirroring the criterion rows' target scaling.
    """
    if len(targets) == 0:
        raise EmptyTargetSet("fixed-size mode needs at least one target criterion")
    if not 1.0 <= float(n_t) <= pop.n_members:
        raise InvalidSampleSize(
            f"n_t must lie in [1, {pop.n_members}], got {n_t}"
        )
    hyper = hyper or HyperParams()
    n_t = float(n_t)
    base = build_lp_system(pop, targets, hyper.epsilon)
    beta, eta_max = resolve_slack(targets, hyper)
    alpha = hyper.resolved_alpha()

    n = pop.n_members
    system = ConstraintSystem(
        np.vstack([base.matrix, np.ones((1, n))]),
        np.append(base.rhs, n_t),
        base.row_labels + (SIZE_ROW,),
        np.append(base.row_scales, 1.0 / (n_t + hyper.epsilon)),
    )
    beta = np.append(beta, 1.0 / (n_t + hyper.epsilon))
    eta_max = np.append(eta_max, alpha)
    problem = _relaxed_problem(system, beta, eta_max, size_sign=-1.0)
    return _finish_solve(solve_lp(problem, options), system, n)
