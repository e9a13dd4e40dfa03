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
Each row is conditioned by the scale ``1/(|t| + EPSILON)`` of its target
(the constant ``EPSILON = 1e-6`` guards a zero target), and the relaxed
program is stated in those scaled rows: each row gains a pair of slacks
``s+_j, s-_j`` in ``[0, alpha]``, where ``alpha = ALPHA_FRACTION * trial_size``
is 5 % of the intended trial size, with ``row_j . p - s+_j + s-_j = rhs_j``,
and the objective trades expected size against slack, each unit costing 1:
``-sum(p) + sum(s+_j + s-_j)``.  In target units that is the weight
``beta_j = 1/(|t_j| + EPSILON)`` and the cap
``eta_max_j = alpha * (|t_j| + EPSILON)``, which ``run.json`` records.  The
reported slack ``eta_j = |s+_j - s-_j|`` is the row's residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import Population, feature_column
from .errors import (
    EmptyTargetSet,
    InfeasibleError,
    InvalidCriterion,
    InvalidSampleSize,
    IterationLimitExceeded,
    MissingHyperParam,
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
    "ConstraintSystem",
    "build_lp_system",
    "SelectionProbabilities",
    "solve_max_size",
    "solve_min_size",
    "solve_fixed_size",
]

SIZE_ROW = "size"

SMALL_SAMPLE_THRESHOLD = 30.0
EPSILON = 1e-6
ALPHA_FRACTION = 0.05  # alpha = 5% of the intended trial size

# below this expected size a max-size optimum counts as the empty selection
_EMPTY_SELECTION_TOL = 1e-9


def _slack_budget(trial_size: float | None) -> float | None:
    """``alpha = ALPHA_FRACTION * trial_size``, or ``None`` without a trial size.

    A trial size that is not finite and positive raises
    :class:`InvalidSampleSize`, whether or not the program has slack rows.
    """
    if trial_size is None:
        return None
    # NaN fails both comparisons
    if not 0.0 < trial_size < np.inf:
        raise InvalidSampleSize(f"trial size must be finite and positive, got {trial_size}")
    return ALPHA_FRACTION * float(trial_size)


def ordered_criteria(targets: TargetSet):
    """Constraint-row order: by moment order, then by position in the target set."""
    return tuple(
        targets.criteria[i]
        for i in sorted(range(len(targets.criteria)), key=lambda i: (targets.criteria[i].order, i))
    )


def _tolerance_scales(targets: TargetSet) -> np.ndarray:
    """Each criterion row's scale ``|t| + EPSILON``, in constraint-row order."""
    return np.array([abs(c.value) + EPSILON for c in ordered_criteria(targets)])


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows over the member axis plus the conditioning applied to them.

    ``matrix`` and ``rhs`` are unscaled.  ``row_scales[j]`` is the multiplier
    ``1/(|t_j| + EPSILON)`` whose application yields the conditioned system
    the solver sees; :meth:`scaled_matrix` / :meth:`scaled_rhs` apply it.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple
    row_scales: np.ndarray

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
    # a float64 variance overflows to inf where a Python float raises
    var = np.float64(targets.value_of(feature, 2)) if order in (3, 4) else None
    dof, scale, shift = moment_terms(order, var)
    level = scale * (t + shift)
    return d**order - level, 0.0 - dof * level  # 0.0 - keeps a zero rhs +0.0


def build_lp_system(pop: Population, targets: TargetSet) -> ConstraintSystem:
    """One row per criterion, rhs such that ``row . p = rhs`` matches the target.

    A criterion whose scaled row is not finite in float64 (a high order of a
    wide feature overflows) raises :class:`InvalidCriterion`.
    """
    rows, rhs, labels = [], [], []
    scales = 1.0 / _tolerance_scales(targets)
    for c, row_scale in zip(ordered_criteria(targets), scales):
        x = feature_column(pop, c.feature)
        with np.errstate(over="ignore", invalid="ignore"):
            entries, b = _row_entries(x, c.order, targets, c.feature)
            finite = np.isfinite(b * row_scale) and np.all(np.isfinite(entries * row_scale))
        if not finite:
            raise InvalidCriterion(f"the row of ({c.feature!r}, {c.order}) overflows float64")
        rows.append(entries)
        rhs.append(b)
        labels.append((c.feature, c.order))
    matrix = np.array(rows).reshape(len(rows), pop.n_members)
    return ConstraintSystem(matrix, np.array(rhs), tuple(labels), scales)


@dataclass(frozen=True)
class SelectionProbabilities:
    """Solved inclusion probabilities plus the slack actually used.

    ``eta`` is in unscaled (target) units, one entry per constraint row, or
    ``None`` for the strict-equality solve.  ``expected_size`` is ``sum(p)``.
    ``alpha`` (``ALPHA_FRACTION`` times the trial size), ``beta`` and
    ``eta_max`` are the slack settings of the solve in target units (see the
    module docstring; fixed mode's size row has
    ``beta = 1/(trial_size + EPSILON)`` and ``eta_max = alpha``), aligned with
    ``row_labels``, or ``None`` when the program has no slack rows.
    ``small_sample_warning`` is set by min mode when ``expected_size`` falls
    below ``SMALL_SAMPLE_THRESHOLD``.
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


def _select(
    pop: Population,
    targets: TargetSet,
    trial_size: float | None,
    size_sign: float,
    relaxed: bool = True,
    pin_size: bool = False,
) -> SelectionProbabilities:
    """Build and solve the selection program in scaled row space.

    Variables are ``[p, s_plus, s_minus]``; row ``j`` reads
    ``A_j p - s_plus_j + s_minus_j = C_j``, every slack costs 1 and is
    capped at ``alpha = ALPHA_FRACTION * trial_size``, and the objective adds
    ``size_sign * sum(p)``.  ``relaxed=False`` gives the strict program, which
    has no slack columns and needs no trial size.  ``pin_size`` appends the
    size row ``sum(p) = trial_size``, scaled by ``1/(trial_size + EPSILON)``,
    whose slack is capped at ``alpha/(trial_size + EPSILON)``: ``alpha``
    members.  The result carries ``eta`` and the slack settings in target
    units when there are slack rows; a trial size whose caps overflow in
    target units raises :class:`InvalidSampleSize`.
    """
    alpha = _slack_budget(trial_size)
    system = build_lp_system(pop, targets)
    A, C = system.scaled_matrix(), system.scaled_rhs()
    scales, labels = system.row_scales, system.row_labels
    if pin_size:
        size_scale = 1.0 / (trial_size + EPSILON)
        A = np.vstack([A, np.full((1, pop.n_members), size_scale)])
        C = np.append(C, trial_size * size_scale)
        scales = np.append(scales, size_scale)
        labels += (SIZE_ROW,)
    m, n = A.shape
    k = m if relaxed else 0  # slack pairs
    upper = np.ones(n)
    slack = {}
    if k:
        if alpha is None:
            raise MissingHyperParam("need a trial size to size the slack budget")
        cap = np.full(k, alpha)
        with np.errstate(over="ignore"):
            eta_max = alpha * _tolerance_scales(targets)
        if not np.all(np.isfinite(eta_max)):
            raise InvalidSampleSize(f"trial size {trial_size} overflows a target's slack cap")
        if pin_size:
            cap[-1] *= size_scale
            eta_max = np.append(eta_max, alpha)
        upper = np.concatenate([upper, cap, cap])
        slack = {"alpha": alpha, "beta": scales, "eta_max": eta_max}
    A = np.hstack([A, -np.eye(m, k), np.eye(m, k)])
    c = np.concatenate([np.full(n, size_sign), np.ones(2 * k)])
    rows = tuple(LpRow(A[j], Relation.EQ, C[j]) for j in range(m))
    solution = solve_lp(LpProblem(c, rows, np.zeros(n + 2 * k), upper))
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            "no probability vector satisfies the targets "
            f"(best total violation {solution.objective_value:.3e})",
            violation=solution.objective_value,
        )
    if solution.status is SolveStatus.ITERATION_LIMIT:
        raise IterationLimitExceeded(
            f"no optimum within {solution.iterations} simplex iterations"
        )
    p = np.clip(solution.z[:n], 0.0, 1.0)
    # the row residual |s_plus - s_minus|, in target units
    eta = np.abs(solution.z[n:n + k] - solution.z[n + k:]) / scales if k else None
    return SelectionProbabilities(
        p=p,
        eta=eta,
        expected_size=float(np.sum(p)),
        row_labels=labels,
        solver=solution,
        **slack,
    )


def solve_max_size(
    pop: Population,
    targets: TargetSet,
    trial_size: float | None = None,
    relaxed: bool = True,
) -> SelectionProbabilities:
    """Largest expected sub-population matching the targets.

    ``trial_size`` sizes the slack budget ``alpha``; a relaxed program with
    target rows needs it.  ``relaxed=False`` demands exact (to solver
    tolerance) moment equality and uses no slack.  An optimum with zero expected size is
    reported as infeasible: the empty selection satisfies any centred moment
    row vacuously, but it is never a usable cohort.
    """
    result = _select(pop, targets, trial_size, -1.0, relaxed)
    if len(targets) > 0 and result.expected_size <= _EMPTY_SELECTION_TOL:
        raise InfeasibleError(
            "targets admit only the empty selection (max expected size 0)",
            violation=0.0,
        )
    return result


def solve_min_size(
    pop: Population,
    targets: TargetSet,
    trial_size: float | None = None,
) -> SelectionProbabilities:
    """Smallest expected sub-population matching the targets, slack sized by ``trial_size``.

    Sets ``small_sample_warning`` when the minimised expected size drops below
    ``SMALL_SAMPLE_THRESHOLD`` (30), the usual large-sample rule of thumb:
    moment matching with so little mass says little about realized draws.
    """
    if len(targets) == 0:
        raise EmptyTargetSet("min-size mode needs at least one target criterion")
    result = _select(pop, targets, trial_size, 1.0)
    return replace(result, small_sample_warning=result.expected_size < SMALL_SAMPLE_THRESHOLD)


def solve_fixed_size(
    pop: Population,
    targets: TargetSet,
    trial_size: float | None = None,
) -> SelectionProbabilities:
    """Expected size pinned to ``trial_size`` within ``alpha``, targets relaxed as usual.

    The trial size is both the size to pin and the base of
    ``alpha = ALPHA_FRACTION * trial_size``, so this mode needs one, in
    ``[1, n_members]``.  The size row carries its own slack bounded by
    ``alpha`` with objective weight ``1/(trial_size + EPSILON)``, mirroring
    the criterion rows' target scaling.
    """
    if len(targets) == 0:
        raise EmptyTargetSet("fixed-size mode needs at least one target criterion")
    if trial_size is None:
        raise MissingHyperParam("need a trial size to pin the expected size to")
    if not 1.0 <= trial_size <= pop.n_members:
        raise InvalidSampleSize(
            f"trial size must lie in [1, {pop.n_members}] in fixed mode, got {trial_size}"
        )
    return _select(pop, targets, float(trial_size), -1.0, pin_size=True)
