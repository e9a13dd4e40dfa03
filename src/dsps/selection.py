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
(the constant ``EPSILON = 1e-6`` guards a zero target), and the relaxed
program is stated in those scaled rows: each row gains a pair of slacks
``s+_j, s-_j`` in ``[0, alpha]``, where ``alpha = ALPHA_FRACTION * trial_size``
is 5 % of the intended trial size, with ``row_j . p - s+_j + s-_j = rhs_j``,
and the objective trades expected size against slack, each unit costing 1:
``-sum(p) + sum(s+_j + s-_j)``.  In unscaled row units that is the weight
``beta_j = 1/(|t_j| + EPSILON)`` and the cap
``eta_max_j = alpha * (|t_j| + EPSILON)``, which ``run.json`` records.  The
reported slack ``eta_j = |s+_j - s-_j| * (|t_j| + EPSILON)`` is the unscaled
row's residual ``(sum(p) - dof) * scale * |m_j - t_j|`` for the weighted
moment ``m_j``: not the miss in target units, but that times the factor.
Fixed mode adds the size row ``sum(p) = trial_size`` as an equality with no
slack, and its members cost their leverage instead of -1 (see :func:`_select`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Population, feature_column
from .errors import DspsError, InfeasibleError
from .lp_core import LpProblem, LpSolution, SolveStatus, solve_lp
from .moments import TargetSet, moment_terms

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
    """Rows over the member axis plus the conditioning applied to them.

    ``matrix`` and ``rhs`` are unscaled.  ``tolerances[j]`` is the row's
    ``|t_j| + EPSILON``, and ``row_scales`` its reciprocal, the multiplier
    whose application yields the conditioned system the solver sees;
    :meth:`scaled_matrix` / :meth:`scaled_rhs` apply it.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple
    tolerances: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    @property
    def row_scales(self) -> np.ndarray:
        return 1.0 / self.tolerances

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


def build_lp_system(pop: Population, targets: TargetSet) -> ConstraintSystem:
    """One row per criterion, rhs such that ``row . p = rhs`` matches the target.

    A criterion whose scaled row is not finite in float64 (a high order of a
    wide feature overflows) raises :class:`DspsError`.
    """
    rows, rhs, labels = [], [], []
    criteria = sorted(targets, key=lambda c: c.order)  # stable: ties keep target-set order
    tolerances = np.array([abs(c.value) + EPSILON for c in criteria])
    for c, row_scale in zip(criteria, 1.0 / tolerances):
        x = feature_column(pop, c.feature)
        with np.errstate(over="ignore", invalid="ignore"):
            entries, b = _row_entries(x, c.order, targets, c.feature)
            finite = np.isfinite(b * row_scale) and np.all(np.isfinite(entries * row_scale))
        if not finite:
            raise DspsError(f"the row of ({c.feature!r}, {c.order}) overflows float64")
        rows.append(entries)
        rhs.append(b)
        labels.append((c.feature, c.order))
    matrix = np.array(rows).reshape(len(rows), pop.n_members)
    return ConstraintSystem(matrix, np.array(rhs), tuple(labels), tolerances)


@dataclass(frozen=True)
class SelectionProbabilities:
    """Solved inclusion probabilities plus the slack actually used.

    ``eta`` holds each criterion row's residual in unscaled row units (see
    the module docstring), or ``None`` for the strict-equality solve.
    ``expected_size`` is ``sum(p)``.  ``alpha`` (``ALPHA_FRACTION`` times the
    trial size), ``beta`` and ``eta_max`` are the slack settings of the solve
    in the same units, one per criterion and aligned with ``row_labels`` in
    every mode, or ``None`` when the program has no slack rows.
    """

    p: np.ndarray
    eta: np.ndarray | None
    expected_size: float
    row_labels: tuple
    solver: LpSolution
    alpha: float | None = None
    beta: np.ndarray | None = None
    eta_max: np.ndarray | None = None


def _select(
    pop: Population,
    targets: TargetSet,
    trial_size: float | None,
    relaxed: bool = True,
    pin_size: bool = False,
) -> SelectionProbabilities:
    """Build and solve the selection program in scaled row space.

    Variables are ``[p, s_plus, s_minus]``; criterion row ``j`` reads
    ``A_j p - s_plus_j + s_minus_j = C_j``, every slack costs 1 and is
    capped at ``alpha = ALPHA_FRACTION * trial_size``, and each member costs
    -1.  ``relaxed=False`` drops the slack columns and needs no trial size.
    ``pin_size`` appends the slack-free size row ``sum(p) = trial_size``,
    scaled by ``1/(trial_size + EPSILON)``.  That makes the members' -1 a
    constant, so member ``i`` costs ``_LEVERAGE_COST * lev_i / max lev``
    instead, ``lev_i`` the sum of squares of its scaled criterion entries,
    which steers the vertex towards members that move the rows least.
    ``eta`` and the slack settings are in unscaled row units; a trial size
    whose caps overflow there raises :class:`DspsError`, as does a given
    trial size that is not finite and positive, with or without slack rows;
    an infeasible program raises :class:`InfeasibleError`.
    """
    # NaN fails both comparisons
    if trial_size is not None and not 0.0 < trial_size < np.inf:
        raise DspsError(f"trial size must be finite and positive, got {trial_size}")
    system = build_lp_system(pop, targets)
    A, C = system.scaled_matrix(), system.scaled_rhs()
    k, n = system.n_rows if relaxed else 0, pop.n_members  # k slack pairs
    cost = np.full(n, -1.0)
    if pin_size:
        # over max|A| the squares stay finite at any order; all-zero rows cost nothing
        lev = np.sum((A / (np.max(np.abs(A)) or 1.0)) ** 2, axis=0)
        cost = _LEVERAGE_COST * lev / np.max(lev, initial=1.0)
        size_scale = 1.0 / (trial_size + EPSILON)
        A = np.vstack([A, np.full((1, n), size_scale)])
        C = np.append(C, trial_size * size_scale)
    upper = np.ones(n)
    slack = {}
    if k:
        if trial_size is None:
            raise DspsError("need a trial size to size the slack budget")
        alpha = ALPHA_FRACTION * float(trial_size)
        with np.errstate(over="ignore"):
            eta_max = alpha * system.tolerances
        if not np.all(np.isfinite(eta_max)):
            raise DspsError(f"trial size {trial_size} overflows a target's slack cap")
        upper = np.concatenate([upper, np.full(2 * k, alpha)])
        slack = {"alpha": alpha, "beta": system.row_scales, "eta_max": eta_max}
    A = np.hstack([A, -np.eye(len(A), k), np.eye(len(A), k)])
    c = np.concatenate([cost, np.ones(2 * k)])
    solution = solve_lp(LpProblem(c, A, C, np.zeros(n + 2 * k), upper))
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(
            "no probability vector satisfies the targets "
            f"(best total violation {solution.objective_value:.3e})",
            violation=solution.objective_value,
        )
    p = np.clip(solution.z[:n], 0.0, 1.0)
    # the row residual |s_plus - s_minus|, in unscaled row units
    eta = np.abs(solution.z[n:n + k] - solution.z[n + k:]) / system.row_scales if k else None
    return SelectionProbabilities(
        p=p,
        eta=eta,
        expected_size=float(np.sum(p)),
        row_labels=system.row_labels,
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
    result = _select(pop, targets, trial_size, relaxed)
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
    return _select(pop, targets, float(trial_size), pin_size=True)
