"""Constraint systems and inclusion-probability solves.

The selection problem: find per-member probabilities ``p`` in ``[0,1]`` whose
probability-weighted moments hit a set of targets, while maximising (or
minimising, or pinning) the expected sub-population size ``sum(p)``.

For each (feature, order) criterion one constraint row is built over the
member axis, using deviations ``d_i`` from the *target* mean ``M1`` (from 0
for order 1) so the system stays linear in ``p``.  With the order's
``(dof, scale, shift)`` from :func:`dsps.moments.moment_terms` -- the same
terms that define the reported moment -- and ``level = scale * (t + shift)``,
the row is ``d_i^k - level`` with rhs ``-dof * level``, so ``row . p = rhs``
exactly when the probability-weighted moment equals the target ``t``.  For
example order 2 reads ``(x_i - M1)^2 - M2`` with rhs ``-M2`` (the ``n - 1``
convention) and order 4 ``(x_i - M1)^4 - M2^2 * (M4 + 3)`` with rhs ``0``.
Each row is conditioned by the scale ``1/(|t| + eps)``
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
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Population, feature_column
from .errors import (
    EmptyTargetSet,
    InfeasibleError,
    InvalidSampleSize,
    IterationLimitExceeded,
    LengthMismatch,
    MissingHyperParam,
    SmallSampleWarning,
    UnboundedError,
)
from .lp_core import (
    LpProblem,
    LpRow,
    LpSolution,
    Relation,
    SolveStatus,
    solve_lp,
)
from .moments import TargetSet, moment_terms

__all__ = [
    "SIZE_ROW",
    "HyperParams",
    "auto_hyperparams",
    "resolve_slack",
    "ConstraintSystem",
    "build_lp_system",
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
    ``alpha`` set to ``0.05 * trial_size`` on construction when only a trial
    size is given; an explicit ``alpha`` wins.
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
        alpha = self.alpha
        if alpha is None and self.trial_size is not None:
            alpha = ALPHA_FRACTION * float(self.trial_size)
        object.__setattr__(self, "alpha", None if alpha is None else float(alpha))

    def resolved_alpha(self) -> float:
        if self.alpha is None:
            raise MissingHyperParam("need alpha or trial_size to size the slack budget")
        return self.alpha


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
    hyper = HyperParams(epsilon=epsilon, trial_size=float(trial_size))
    beta, eta_max = resolve_slack(targets, hyper)
    return replace(hyper, beta=beta, eta_max=eta_max)


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
    d = x if order == 1 else x - targets.value_of(feature, 1)
    var = targets.value_of(feature, 2) if order in (3, 4) else None
    dof, scale, shift = moment_terms(order, var)
    level = scale * (t + shift)
    return d**order - level, 0.0 - dof * level  # 0.0 - keeps a zero rhs +0.0


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


@dataclass(frozen=True)
class SelectionProbabilities:
    """Solved inclusion probabilities plus the slack actually used.

    ``eta`` is in unscaled (target) units, one entry per constraint row, or
    ``None`` for the strict-equality solve.  ``expected_size`` is ``sum(p)``.
    ``alpha``, ``beta`` and ``eta_max`` are the slack settings the solve used,
    aligned with ``row_labels`` (the fixed-size row included), or ``None``
    when the program has no slack rows.
    """

    p: np.ndarray
    eta: np.ndarray | None
    expected_size: float
    row_labels: tuple
    solver: LpSolution
    small_sample_warning: bool = False
    alpha: float | None = None
    beta: np.ndarray | None = None
    eta_max: np.ndarray | None = None


def resolve_slack(targets: TargetSet, hyper: HyperParams):
    """Per-row (beta, eta_max) for the criterion rows, in unscaled target units.

    Unset vectors follow the target scale ``|t| + epsilon``: ``beta`` is its
    inverse and ``eta_max`` is ``alpha`` times it.
    """
    scale = np.array([abs(c.value) + hyper.epsilon for c in ordered_criteria(targets)])
    if scale.size == 0:
        return np.empty(0), np.empty(0)
    beta = 1.0 / scale if hyper.beta is None else hyper.beta
    eta_max = hyper.resolved_alpha() * scale if hyper.eta_max is None else hyper.eta_max
    if beta.size != scale.size or eta_max.size != scale.size:
        raise LengthMismatch(
            f"beta/eta_max need {scale.size} entries, got {beta.size}/{eta_max.size}"
        )
    return beta, eta_max


def _solve(
    system: ConstraintSystem, size_sign: float, slack: tuple | None
) -> SelectionProbabilities:
    """Solve the selection program in scaled row space.

    Variables are ``[p, s_plus, s_minus]``; row ``j`` reads
    ``A_j p - s_plus_j + s_minus_j = C_j`` with both slacks in
    ``[0, eta_max_j]`` and costing ``beta_j`` each, all in scaled units.
    ``slack`` is ``(alpha, beta, eta_max)``, or ``None`` for the strict
    program, which has no slack columns.  The result carries ``eta`` and the
    slack settings when there are slack rows.
    """
    n = system.matrix.shape[1]
    m = system.n_rows
    k = 0 if slack is None else m  # slack pairs
    alpha, beta, eta_max = slack if k else (None, None, None)
    scales = system.row_scales
    A = np.hstack([system.scaled_matrix(), -np.eye(m, k), np.eye(m, k)])
    C = system.scaled_rhs()
    weight = beta / scales if k else np.empty(0)
    cap = eta_max * scales if k else np.empty(0)
    c = np.concatenate([np.full(n, size_sign), weight, weight])
    rows = tuple(LpRow(A[j], Relation.EQ, C[j]) for j in range(m))
    lower = np.zeros(n + 2 * k)
    upper = np.concatenate([np.ones(n), cap, cap])
    solution = solve_lp(LpProblem(c, rows, lower, upper))
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
    p = np.clip(solution.z[:n], 0.0, 1.0)
    # the row residual |s_plus - s_minus|, which stays within eta_max even
    # when a zero weight leaves both slacks loose
    eta = np.abs(solution.z[n:n + k] - solution.z[n + k:]) / scales if k else None
    return SelectionProbabilities(
        p=p,
        eta=eta,
        expected_size=float(np.sum(p)),
        row_labels=system.row_labels,
        solver=solution,
        alpha=alpha,
        beta=beta,
        eta_max=eta_max,
    )


def solve_max_size(
    pop: Population,
    targets: TargetSet,
    hyper: HyperParams | None = None,
    relaxed: bool = True,
) -> SelectionProbabilities:
    """Largest expected sub-population matching the targets.

    ``relaxed=False`` demands exact (to solver tolerance) moment equality and
    ignores the slack hyperparameters.  An optimum with zero expected size is
    reported as infeasible: the empty selection satisfies any centred moment
    row vacuously, but it is never a usable cohort.
    """
    hyper = hyper or HyperParams()
    system = build_lp_system(pop, targets, hyper.epsilon)
    slack = (hyper.alpha, *resolve_slack(targets, hyper)) if relaxed else None
    result = _solve(system, -1.0, slack)
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
) -> SelectionProbabilities:
    """Smallest expected sub-population matching the targets.

    Flags (and warns) when the minimised expected size drops below 30, the
    usual large-sample rule of thumb: moment matching with so little mass
    says little about realized draws.
    """
    if len(targets) == 0:
        raise EmptyTargetSet("min-size mode needs at least one target criterion")
    hyper = hyper or HyperParams()
    system = build_lp_system(pop, targets, hyper.epsilon)
    result = _solve(system, 1.0, (hyper.alpha, *resolve_slack(targets, hyper)))
    if result.expected_size < SMALL_SAMPLE_THRESHOLD:
        warnings.warn(
            f"minimised expected size {result.expected_size:.2f} is below "
            f"{SMALL_SAMPLE_THRESHOLD:g}",
            SmallSampleWarning,
            stacklevel=2,
        )
        return replace(result, small_sample_warning=True)
    return result


def solve_fixed_size(
    pop: Population,
    targets: TargetSet,
    n_t: float,
    hyper: HyperParams | None = None,
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
    return _solve(system, -1.0, (alpha, beta, eta_max))
