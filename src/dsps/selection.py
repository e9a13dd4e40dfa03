"""Constraint systems and inclusion-probability solves.

The selection problem: find per-member probabilities ``p`` in ``[0,1]`` whose
probability-weighted moments hit a set of targets, while maximising (or
pinning) the expected sub-population size ``sum(p)``.

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
(the constant ``EPSILON = 1e-6`` guards a zero target), and the program is
stated in those scaled rows alone: each row gains a pair of slacks
``s+_j, s-_j`` in ``[0, alpha]``, ``alpha = ALPHA_FRACTION * trial_size`` (5 % of
the intended trial size; 0 in strict mode), with ``row_j . p - s+_j + s-_j = rhs_j``,
and the objective trades expected size against slack, each unit costing 1:
``-sum(p) + sum(s+_j + s-_j)``.  The reported slack
``eta_j = |s+_j - s-_j| <= alpha`` is the scaled row's residual
``(sum(p) - dof) * scale * |m_j - t_j| / (|t_j| + EPSILON)`` for the weighted
moment ``m_j``: not the relative miss, but that times the factor.
Fixed mode adds the size row ``sum(p) = trial_size`` as an equality with no
slack, and its members cost their leverage instead of -1 (see :func:`_select`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Population, feature_column
from .errors import DspsError, InfeasibleError, SolverFailure
from .lp_core import LpProblem, LpSolution, SolveStatus, solve_lp
from .moments import TargetCriterion, TargetSet, moment_terms

__all__ = [
    "ConstraintSystem",
    "build_lp_system",
    "SelectionProbabilities",
    "solve_max_size",
    "solve_fixed_size",
]

EPSILON = 1e-6
ALPHA_FRACTION = 0.05  # alpha = 5% of the intended trial size

# below this expected size a max-size optimum counts as the empty selection
_EMPTY_SELECTION_TOL = 1e-9
# fixed mode's largest member cost: far above HiGHS's dual tolerance of 1e-7,
# far below a unit of slack
_LEVERAGE_COST = 1e-3


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows over the member axis, each scaled by ``1/(|t_j| + EPSILON)``."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple

    @property
    def n_rows(self) -> int:
        return self.rhs.size


def _row_entries(x: np.ndarray, c: TargetCriterion, targets: TargetSet):
    """(entries, rhs) of ``c``'s row over ``x``, unscaled, about ``targets``' references."""
    mean, var = targets.references(c.feature, c.order)
    d = x if mean is None else x - mean
    dof, scale, shift = moment_terms(c.order, var)
    level = scale * (c.value + shift)
    return d**c.order - level, 0.0 - dof * level  # 0.0 - keeps a zero rhs +0.0


def build_lp_system(pop: Population, targets: TargetSet) -> ConstraintSystem:
    """One scaled row per criterion, rhs such that ``row . p = rhs`` matches the target.

    A criterion whose scaled row is not finite in float64 (a high order of a
    wide feature overflows) raises :class:`DspsError`.
    """
    rows, rhs, labels = [], [], []
    for c in sorted(targets, key=lambda c: c.order):  # stable: ties keep target-set order
        row_scale = 1.0 / (abs(c.value) + EPSILON)
        x = feature_column(pop, c.feature)
        with np.errstate(over="ignore", invalid="ignore"):
            entries, b = _row_entries(x, c, targets)
            row, b = entries * row_scale, b * row_scale
        if not (np.isfinite(b) and np.all(np.isfinite(row))):
            raise DspsError(f"the row of ({c.feature!r}, {c.order}) overflows float64")
        rows.append(row)
        rhs.append(b)
        labels.append((c.feature, c.order))
    matrix = np.array(rows).reshape(len(rows), pop.n_members)
    return ConstraintSystem(matrix, np.array(rhs), tuple(labels))


@dataclass(frozen=True)
class SelectionProbabilities:
    """Solved inclusion probabilities plus the slack actually used.

    ``eta`` holds each criterion row's residual in scaled row units (see
    the module docstring), aligned with ``row_labels`` and at most ``alpha``,
    the cap of every slack: ``ALPHA_FRACTION`` times the trial size, or 0 in
    strict mode or without a trial size.  ``expected_size`` is ``sum(p)``.
    """

    p: np.ndarray
    eta: np.ndarray
    expected_size: float
    row_labels: tuple
    solver: LpSolution
    alpha: float


def _select(pop: Population, targets: TargetSet, alpha: float, size=None) -> SelectionProbabilities:
    """Build and solve the selection program in scaled row space.

    Variables are ``[p, s_plus, s_minus]``; criterion row ``j`` reads
    ``A_j p - s_plus_j + s_minus_j = C_j``, every slack costs 1 and is
    capped at ``alpha`` (0 holds every row: the solver never moves a column
    whose bounds meet), and each member costs -1.  A ``size`` appends the
    slack-free size row ``sum(p) = size``, scaled by ``1/(size + EPSILON)``.
    That makes the members' -1 a constant, so member ``i`` costs
    ``_LEVERAGE_COST * lev_i / max lev`` instead, ``lev_i`` the sum of squares
    of its scaled criterion entries, which steers the vertex towards members
    that move the rows least.  At high orders most of these costs fall far
    below the solver's optimality tolerance, and the perturbation of a stalled
    solve outweighs them.  The callers check ``alpha`` and ``size``.  An
    infeasible program raises :class:`InfeasibleError` if its safe bound is
    positive, else :class:`SolverFailure`.
    """
    system = build_lp_system(pop, targets)
    A, C = system.matrix, system.rhs
    k, n = system.n_rows, pop.n_members  # k slack pairs
    cost = np.full(n, -1.0)
    if size is not None:
        # over max|A| the squares stay finite at any order; all-zero rows cost nothing
        lev = np.sum((A / (np.max(np.abs(A)) or 1.0)) ** 2, axis=0)
        cost = _LEVERAGE_COST * lev / np.max(lev, initial=1.0)
        size_scale = 1.0 / (size + EPSILON)
        A = np.vstack([A, np.full((1, n), size_scale)])
        C = np.append(C, size * size_scale)
    A = np.hstack([A, -np.eye(len(A), k), np.eye(len(A), k)])
    c = np.concatenate([cost, np.ones(2 * k)])
    upper = np.concatenate([np.ones(n), np.full(2 * k, alpha)])
    solution = solve_lp(LpProblem(c, A, C, np.zeros(n + 2 * k), upper))
    if solution.status is SolveStatus.INFEASIBLE:
        if not solution.violation_bound > 0.0:
            raise SolverFailure("the solve found the targets infeasible, but could not prove it")
        raise InfeasibleError(
            "no probability vector satisfies the targets "
            f"(best total violation {solution.objective_value:.3e})",
            violation=solution.objective_value,
        )
    p = np.clip(solution.z[:n], 0.0, 1.0)
    return SelectionProbabilities(
        p=p,
        eta=np.abs(solution.z[n:n + k] - solution.z[n + k:]),  # the scaled row residual
        expected_size=float(np.sum(p)),
        row_labels=system.row_labels,
        solver=solution,
        alpha=alpha,
    )


def solve_max_size(
    pop: Population,
    targets: TargetSet,
    trial_size: float | None = None,
    relaxed: bool = True,
) -> SelectionProbabilities:
    """Largest expected sub-population matching the targets.

    ``trial_size`` sizes the slack cap ``alpha = ALPHA_FRACTION * trial_size``;
    a relaxed program with targets needs it.  ``relaxed=False`` caps every
    slack at 0, so each row holds to solver tolerance, and needs no trial size.
    A given trial size that is not finite and positive raises
    :class:`DspsError` in both modes.  An optimum with zero expected size is
    reported as infeasible: the empty selection satisfies any centred moment
    row vacuously, but it is never a usable cohort.
    """
    # NaN fails both comparisons
    if trial_size is not None and not 0.0 < trial_size < np.inf:
        raise DspsError(f"trial size must be finite and positive, got {trial_size}")
    if relaxed and len(targets) > 0 and trial_size is None:
        raise DspsError("need a trial size to size the slack budget")
    alpha = ALPHA_FRACTION * float(trial_size) if relaxed and trial_size is not None else 0.0
    result = _select(pop, targets, alpha)
    if len(targets) > 0 and result.expected_size <= _EMPTY_SELECTION_TOL:
        raise InfeasibleError(
            "targets admit only the empty selection (max expected size 0)",
            violation=0.0,
        )
    return result


def solve_fixed_size(
    pop: Population,
    targets: TargetSet,
    trial_size: float | None = None,
) -> SelectionProbabilities:
    """Expected size pinned to ``trial_size`` exactly, targets relaxed as usual.

    The trial size is both the size to pin and the base of
    ``alpha = ALPHA_FRACTION * trial_size``, so this mode needs one, in
    ``[1, n_members]``, and above 1 for a variance target, whose row and score
    divide by ``sum(p) - 1``.  The size row ``sum(p) = trial_size`` has no
    slack, so targets that no such ``p`` meets within their slack caps raise
    :class:`InfeasibleError`.
    """
    if len(targets) == 0:
        raise DspsError("fixed-size mode needs at least one target criterion")
    if trial_size is None:
        raise DspsError("need a trial size to pin the expected size to")
    if not 1.0 <= trial_size <= pop.n_members:
        raise DspsError(
            f"trial size must lie in [1, {pop.n_members}] in fixed mode, got {trial_size}"
        )
    if trial_size <= 1.0 and any(c.order == 2 for c in targets):
        raise DspsError("a variance target needs a trial size above 1 in fixed mode, "
                        f"got {trial_size}")
    return _select(pop, targets, ALPHA_FRACTION * float(trial_size), float(trial_size))
