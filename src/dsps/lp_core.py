"""Simplex solvers for box-constrained linear programs.

Solves  minimize c.z  subject to  a_r.z (<=|=|>=) b_r  and  l <= z <= u,
with infinite bounds allowed.  Nonbasic variables sit at either their lower
or their upper bound (free variables sit at zero), which keeps vertices of
the box polytope representable without splitting variables.

Both paths work in one column form: the ``n`` structurals, then one logical
per row, ``r = a_r.z``, bounded by the row's relation as ``[row_lo,
row_hi]``, so the constraint matrix is ``[A, -I]`` with right-hand side
zero.  A nonbasic column's state is two flags, ``is_basic`` and
``at_upper``; a free column is one whose bounds are both infinite.  Each
nonbasic column starts at the bound its cost sign picks (a one-sided column
at its finite bound, a free column at zero).  :func:`solve_lp` picks the
path from the problem alone:

* **Dual simplex** (every ``l`` and ``u`` finite, which covers every program
  the selection layer builds).  The all-logical basis starts the
  iteration.  With every structural column boxed, the start point is dual
  feasible, so no phase 1 is needed.  Each iteration prices the most
  infeasible basic variable and runs a bound-flipping ratio test (Fourer
  1994; Koberstein 2005): breakpoints ``|d_j| / |alpha_j|`` are passed in
  order, flipping each boxed column to its opposite bound while the
  primal-infeasibility slope stays positive, and the column that would turn
  the slope enters.  One iteration can thus move thousands of members, so
  the selection LP takes tens of iterations where a primal simplex takes
  thousands.
* **Primal two-phase simplex** (some bound infinite).  Two artificial
  columns ``+e_r`` and ``-e_r`` per row are appended to the column form; the
  one whose sign lets it start nonnegative gives the phase-1 starting basis.
  Phase 1 minimises the total artificial mass, so a row may be violated in
  either direction, and a positive optimum is the least total violation: the
  infeasibility certificate reported via ``objective_value``.  When the dual
  path finds a problem infeasible, the primal solves it again to produce
  that certificate, and its result is the one returned.

Shared rules:

* No basis inverse is kept: at these shapes (tens of rows, thousands of
  columns) the passes over the constraint matrix dominate, so reduced costs
  come from a fresh LAPACK solve every iteration.  The dual recomputes its
  basic values the same way; the primal updates them along each step and
  recomputes them every 100 iterations and at the end of each phase.
* One pricing pass is one iteration, including the pass that proves
  optimality or infeasibility, so ``max_iterations`` means the same on both.
* The dual's ratio test accepts an entry ``a_j`` as a pivot only when
  ``|a_j|`` exceeds ``_PIVOT_TOL * max(1, max |a_k|)``, the largest taken
  over the row's movable columns: in a row scaled near ``1e10`` an entry
  of ``1e-5`` is roundoff, and entering it would make the basis singular.
* After ``2 * n_rows`` consecutive degenerate steps the primal switches to
  smallest-index (Bland) pricing until a nondegenerate step is made.  The
  dual first perturbs the structural costs once, each by at most half the
  optimality tolerance in the direction that keeps its reduced cost
  feasible, which breaks the ties of a fully dual-degenerate vertex (a
  fixed-size row makes every member's reduced cost zero); a later stall
  switches it to the smallest-index leaving row until a step is made.

Bound handling follows Maros 2003, *Computational Techniques of the Simplex
Method*.

Everything is deterministic for a fixed problem: ties are broken
by first index (in the dual ratio test, columns at their upper bound come
before columns at their lower bound).  Alternate optima may return
different vertices; the objective value is the reproducible quantity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown

__all__ = [
    "Relation",
    "LpRow",
    "LpProblem",
    "SolveStatus",
    "LpSolution",
    "solve_lp",
]


class Relation(enum.Enum):
    LE = "<="
    EQ = "="
    GE = ">="


def _as_relation(rel) -> Relation:
    if isinstance(rel, Relation):
        return rel
    try:
        return Relation(rel)
    except ValueError:
        raise DimensionMismatch(f"unknown row relation {rel!r}") from None


@dataclass(frozen=True)
class LpRow:
    coeffs: np.ndarray
    relation: Relation
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float).ravel())
        object.__setattr__(self, "relation", _as_relation(self.relation))
        object.__setattr__(self, "rhs", float(self.rhs))


@dataclass(frozen=True)
class LpProblem:
    """minimize ``objective . z`` over rows and the box ``lower <= z <= upper``."""

    objective: np.ndarray
    rows: tuple[LpRow, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).ravel()
        if c.size < 1:
            raise DimensionMismatch("objective must have at least one entry")
        if not np.all(np.isfinite(c)):
            raise DimensionMismatch("objective entries must be finite")
        rows = tuple(
            r if isinstance(r, LpRow) else LpRow(*r) for r in self.rows
        )
        for i, r in enumerate(rows):
            if r.coeffs.size != c.size:
                raise DimensionMismatch(
                    f"row {i} has {r.coeffs.size} coefficients for {c.size} variables"
                )
            if not np.all(np.isfinite(r.coeffs)) or not np.isfinite(r.rhs):
                raise DimensionMismatch(f"row {i} has non-finite entries")
        lower = np.broadcast_to(np.asarray(self.lower, dtype=float), c.shape).copy()
        upper = np.broadcast_to(np.asarray(self.upper, dtype=float), c.shape).copy()
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise DimensionMismatch("bounds may be infinite but not NaN")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return len(self.rows)


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome.

    ``z`` is populated only for Optimal.  For Infeasible, ``objective_value``
    holds the phase-1 certificate: the smallest achievable total constraint
    violation.  ``max_residual`` is the worst row violation at the final
    iterate.
    """

    status: SolveStatus
    z: np.ndarray | None
    objective_value: float
    iterations: int
    max_residual: float


_FEAS_TOL = 1e-9
_OPT_TOL = 1e-9
_PIVOT_TOL = 1e-10
_DEGEN_TOL = 1e-11
_RATIO_TIE = 1e-9


def solve_lp(problem: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Solve the program, classifying the outcome rather than raising for it.

    ``max_iterations`` defaults to ``50 * (n_vars + n_rows)``.  Raises
    :class:`NumericalBreakdown` only when either path breaks down (a singular
    basis), which is distinct from genuine infeasibility.
    """
    if np.any(problem.lower > problem.upper):
        return LpSolution(SolveStatus.INFEASIBLE, None, float("inf"), 0, float("inf"))
    if problem.n_rows == 0:
        return _solve_box_only(problem)
    if np.all(np.isfinite(problem.lower)) and np.all(np.isfinite(problem.upper)):
        solution = _DualSimplex(problem, max_iterations).run()
        if solution.status is not SolveStatus.INFEASIBLE:
            return solution
    return _Simplex(problem, max_iterations).run()


def _solve_box_only(problem: LpProblem) -> LpSolution:
    c, l, u = problem.objective, problem.lower, problem.upper
    z = np.empty_like(c)
    for j in range(c.size):
        if c[j] > 0.0:
            if not np.isfinite(l[j]):
                return LpSolution(SolveStatus.UNBOUNDED, None, float("-inf"), 0, 0.0)
            z[j] = l[j]
        elif c[j] < 0.0:
            if not np.isfinite(u[j]):
                return LpSolution(SolveStatus.UNBOUNDED, None, float("-inf"), 0, 0.0)
            z[j] = u[j]
        else:
            z[j] = l[j] if np.isfinite(l[j]) else (u[j] if np.isfinite(u[j]) else 0.0)
    return LpSolution(SolveStatus.OPTIMAL, z, float(np.dot(c, z)), 0, 0.0)


class _ColumnForm:
    """The column form and the linear algebra both simplex paths share.

    Columns are the ``n`` structurals, one logical per row, ``r = a_r.z``
    bounded by ``[row_lo, row_hi]``, and ``n_art`` (0 or ``2m``) phase-1
    artificials; the matrix is ``[A, -I, diag(signs)...]``, right-hand side 0.
    Non-structural column ``n + j`` is ``sign[j] * e_(j mod m)``.  The last
    ``m`` columns form the starting basis.
    """

    def __init__(self, problem: LpProblem, max_iterations: int | None, n_art: int):
        self.problem = problem
        n, m = problem.n_vars, problem.n_rows
        self.n, self.m = n, m
        self.A = np.array([row.coeffs for row in problem.rows])
        b = np.array([row.rhs for row in problem.rows], dtype=float)
        le = np.array([row.relation is Relation.LE for row in problem.rows], dtype=bool)
        ge = np.array([row.relation is Relation.GE for row in problem.rows], dtype=bool)
        self.lower = np.concatenate([problem.lower, np.where(le, -np.inf, b), np.zeros(n_art)])
        self.upper = np.concatenate([problem.upper, np.where(ge, np.inf, b), np.full(n_art, np.inf)])
        self.gap = self.upper - self.lower
        self.cost = np.concatenate([problem.objective, np.zeros(m + n_art)])
        self.sign = np.concatenate([np.full(m, -1.0), np.ones(n_art)])

        # a boxed column starts at the bound its cost sign picks, a one-sided
        # column at its finite bound, a free column at zero
        lo_finite, hi_finite = np.isfinite(self.lower), np.isfinite(self.upper)
        self.at_upper = hi_finite & ~(lo_finite & (self.cost >= 0.0))
        self.x = np.where(self.at_upper, self.upper, np.where(lo_finite, self.lower, 0.0))
        self.basis = np.arange(n + n_art, n + m + n_art)
        self.is_basic = np.zeros(self.cost.size, dtype=bool)
        self.is_basic[self.basis] = True
        self.bound_scale = np.maximum(np.abs(np.where(lo_finite, self.lower, 0.0)),
                                      np.abs(np.where(hi_finite, self.upper, 0.0)))

        self.max_iterations = max_iterations if max_iterations is not None else 50 * (n + m)
        self.iterations = 0

    def _solve_basis(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        B = np.zeros((self.m, self.m))
        struct = self.basis < self.n
        B[:, struct] = self.A[:, self.basis[struct]]
        j = self.basis[~struct] - self.n
        B[j % self.m, np.flatnonzero(~struct)] = self.sign[j]
        try:
            return np.linalg.solve(B.T if transpose else B, rhs)
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("singular basis matrix") from None

    def _column(self, j: int) -> np.ndarray:
        if j < self.n:
            return self.A[:, j]
        col = np.zeros(self.m)
        col[(j - self.n) % self.m] = self.sign[j - self.n]
        return col

    def _row(self, v: np.ndarray) -> np.ndarray:
        """``v^T [A, -I, diag(signs)]``: duals to reduced costs, or a tableau row.

        The unit columns scale copies of ``v``; a product with a dense
        ``[A, -I]`` would round ``A^T v`` differently.
        """
        return np.concatenate([self.A.T @ v, self.sign * np.tile(v, self.sign.size // self.m)])

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - self._row(self._solve_basis(c[self.basis], transpose=True))

    def _refresh_basics(self) -> None:
        """Recompute basic values from the nonbasic point to shed drift."""
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        # a nonbasic artificial always sits at zero
        rhs = x_nb[self.n:self.n + self.m] - self.A @ x_nb[:self.n]
        self.x[self.basis] = self._solve_basis(rhs)

    def _finish(self, status: SolveStatus, objective: float | None = None) -> LpSolution:
        z = self.x[:self.n].copy()
        lhs = self.A @ z
        rows = slice(self.n, self.n + self.m)
        residual = float(np.max(np.maximum(self.lower[rows] - lhs, lhs - self.upper[rows]),
                                initial=0.0))
        if objective is None:
            objective = (float("-inf") if status is SolveStatus.UNBOUNDED
                         else float(np.dot(self.problem.objective, z)))
        z = z if status is SolveStatus.OPTIMAL else None
        return LpSolution(status, z, objective, self.iterations, residual)


class _Simplex(_ColumnForm):
    """Two-phase primal simplex: two opposite artificial columns per row.

    The last ``m`` columns, signed so that each starts ``>= 0``, form the
    phase-1 basis; the ``m`` before them carry the opposite signs and start
    nonbasic at zero, so phase 1 can move a row's violation to either side.
    """

    def __init__(self, problem: LpProblem, max_iterations: int | None = None):
        super().__init__(problem, max_iterations, n_art=2 * problem.n_rows)
        self.art0 = self.n + self.m
        resid = self.x[self.n:self.art0] - self.A @ self.x[:self.n]
        # sign the basic artificials so that every one starts >= 0
        start_sign = np.where(resid < 0.0, -1.0, 1.0)
        self.sign[self.m:] = np.concatenate([-start_sign, start_sign])
        self.x[self.basis] = np.abs(resid)
        # a logical's finite bound is its row's right-hand side
        self.feas_scale = 1.0 + float(np.max(self.bound_scale[self.n:self.art0]))

    def _iterate(self, c: np.ndarray, phase_one: bool) -> SolveStatus:
        tau = _OPT_TOL * np.maximum(1.0, np.abs(c))
        stall = 0
        bland = False
        since_refresh = 0
        while True:
            if self.iterations >= self.max_iterations:
                return SolveStatus.ITERATION_LIMIT
            self.iterations += 1
            since_refresh += 1
            if since_refresh >= 100:
                self._refresh_basics()
                since_refresh = 0

            d = self._reduced_costs(c)
            movable = ~self.is_basic & (self.gap > 0.0)
            # a column may increase unless at its upper bound, and decrease when
            # at its upper bound or free; no column sits at an infinite bound,
            # so one not at its upper bound with l = -inf is free
            down = movable & ~self.at_upper & (d < -tau)
            up = movable & (self.at_upper | np.isneginf(self.lower)) & (d > tau)
            eligible = down | up
            if not eligible.any():
                return SolveStatus.OPTIMAL

            if bland:
                e = int(np.flatnonzero(eligible)[0])
            else:
                score = np.where(eligible, np.abs(d), -1.0)
                e = int(np.argmax(score))
            sigma = 1.0 if down[e] else -1.0

            w = self._solve_basis(self._column(e))
            aw = sigma * w
            xB = self.x[self.basis]
            lB = self.lower[self.basis]
            uB = self.upper[self.basis]

            with np.errstate(divide="ignore", invalid="ignore"):
                t_low = np.where(aw > _PIVOT_TOL, (xB - lB) / aw, np.inf)
                t_high = np.where(aw < -_PIVOT_TOL, (uB - xB) / (-aw), np.inf)
            t_low = np.maximum(t_low, 0.0)
            t_high = np.maximum(t_high, 0.0)
            t_rows = np.minimum(t_low, t_high)

            t_own = self.gap[e] if np.isfinite(self.gap[e]) else np.inf
            t_block = float(np.min(t_rows))

            if not np.isfinite(min(t_block, t_own)):
                if phase_one:
                    raise NumericalBreakdown("phase-1 objective claims to be unbounded")
                return SolveStatus.UNBOUNDED

            if t_own <= t_block:
                # entering variable runs to its opposite bound; basis unchanged
                t = t_own
                self.x[self.basis] = xB - t * aw
                self.at_upper[e] = not self.at_upper[e]
                self.x[e] = self.upper[e] if self.at_upper[e] else self.lower[e]
            else:
                cut = t_block + _RATIO_TIE * (1.0 + t_block)
                candidates = np.flatnonzero(t_rows <= cut)
                if candidates.size == 0:
                    raise NumericalBreakdown("ratio test found no pivot row")
                if bland:
                    r = int(candidates[np.argmin(self.basis[candidates])])
                else:
                    r = int(candidates[np.argmax(np.abs(aw[candidates]))])
                t = float(t_rows[r])
                leave = int(self.basis[r])
                to_lower = t_low[r] <= t_high[r]

                self.x[self.basis] = xB - t * aw
                self.x[leave] = lB[r] if to_lower else uB[r]
                self.at_upper[leave] = not to_lower
                self.is_basic[leave] = False
                self.x[e] = self.x[e] + sigma * t
                self.is_basic[e] = True
                self.basis[r] = e

            if t > _DEGEN_TOL:
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > 2 * self.m:
                    bland = True

    def run(self) -> LpSolution:
        c_phase1 = np.zeros(self.cost.size)
        c_phase1[self.art0:] = 1.0
        tol = _FEAS_TOL * self.feas_scale

        art_mass = float(np.sum(self.x[self.art0:]))
        if art_mass > tol:
            status = self._iterate(c_phase1, phase_one=True)
            if status is SolveStatus.ITERATION_LIMIT:
                return self._finish(status)
            art_mass = float(np.sum(np.abs(self.x[self.art0:])))
            if art_mass > tol:
                return self._finish(SolveStatus.INFEASIBLE, art_mass)

        self.upper[self.art0:] = 0.0
        self.gap[self.art0:] = 0.0
        self.x[self.art0:][~self.is_basic[self.art0:]] = 0.0
        # a basic artificial, now fixed at [0, 0], leaves through phase 2's
        # ratio test at a degenerate step, or stays at zero in a redundant row
        self._refresh_basics()

        status = self._iterate(self.cost, phase_one=False)
        if status is SolveStatus.OPTIMAL:
            self._refresh_basics()
        return self._finish(status)


class _DualSimplex(_ColumnForm):
    """Bound-flipping dual simplex for problems whose every bound is finite."""

    def __init__(self, problem: LpProblem, max_iterations: int | None = None):
        super().__init__(problem, max_iterations, n_art=0)
        # feasibility is judged against each variable's own bounds, not its
        # row's entries: a slack can only move a row by eta_max, however
        # large the row's entries are
        self.feas_tol = _FEAS_TOL * np.maximum(1.0, self.bound_scale)
        self.dual_tol = _OPT_TOL * np.maximum(1.0, np.abs(self.cost))
        self.perturbed = False

    def _refresh(self) -> np.ndarray:
        """Reduced costs and basic values from scratch; returns ``d``."""
        d = self._reduced_costs(self.cost)
        d[self.is_basic] = 0.0
        # a boxed column whose reduced cost drifted to the wrong sign moves to
        # the bound that sign picks, which keeps the basis dual feasible
        wrong = ~self.is_basic & (self.gap > 0.0) & np.isfinite(self.gap) & np.where(
            self.at_upper, d > self.dual_tol, d < -self.dual_tol
        )
        self.at_upper[wrong] = ~self.at_upper[wrong]
        self.x[wrong] = np.where(self.at_upper[wrong], self.upper[wrong], self.lower[wrong])
        self._refresh_basics()
        return d

    def _leaving_row(self, bland: bool):
        """Row of the most infeasible basic variable and its signed violation."""
        xB = self.x[self.basis]
        lB, uB = self.lower[self.basis], self.upper[self.basis]
        tol = self.feas_tol[self.basis]
        delta = np.where(xB < lB - tol, xB - lB, np.where(xB > uB + tol, xB - uB, 0.0))
        infeasible = np.flatnonzero(delta)
        if infeasible.size == 0:
            return None, 0.0
        if bland:
            r = int(infeasible[np.argmin(self.basis[infeasible])])
        else:
            r = int(np.argmax(np.abs(delta)))
        return r, float(delta[r])

    def run(self) -> LpSolution:
        stall = 0
        bland = False
        while True:
            if self.iterations >= self.max_iterations:
                return self._finish(SolveStatus.ITERATION_LIMIT)
            self.iterations += 1
            d = self._refresh()
            r, delta = self._leaving_row(bland)
            if r is None:
                return self._finish(SolveStatus.OPTIMAL)

            unit = np.zeros(self.m)
            unit[r] = 1.0
            alpha = self._row(self._solve_basis(unit, transpose=True))
            # moving the leaving variable to its violated bound changes each
            # nonbasic d_j by t * a_j, t >= 0 the dual step
            a = alpha if delta < 0.0 else -alpha
            movable = ~self.is_basic & (self.gap > 0.0)
            # relative to the row: roundoff in a row near 1e10 passes any absolute threshold
            pivot_tol = _PIVOT_TOL * max(1.0, float(np.max(np.abs(a[movable]), initial=0.0)))
            cand = np.flatnonzero(
                movable & np.where(self.at_upper, a > pivot_tol, a < -pivot_tol)
            )
            if cand.size == 0:
                return self._finish(SolveStatus.INFEASIBLE)
            slack = np.where(self.at_upper[cand], -d[cand], d[cand])
            ratio = np.maximum(slack, 0.0) / np.abs(a[cand])
            order = np.lexsort((cand, ~self.at_upper[cand], ratio))
            # passing breakpoint j flips column j, which lowers the slope of
            # the dual objective by |a_j| * (u_j - l_j)
            slope = abs(delta) - np.cumsum(np.abs(a[cand[order]]) * self.gap[cand[order]])
            turn = np.flatnonzero(slope <= 0.0)
            if turn.size == 0:
                return self._finish(SolveStatus.INFEASIBLE)
            k = int(turn[0])
            flips = cand[order[:k]]
            enter = int(cand[order[k]])
            step = float(ratio[order[k]])

            self.at_upper[flips] = ~self.at_upper[flips]
            self.x[flips] = np.where(self.at_upper[flips], self.upper[flips], self.lower[flips])
            leave = int(self.basis[r])
            self.at_upper[leave] = delta > 0.0
            self.x[leave] = self.upper[leave] if delta > 0.0 else self.lower[leave]
            self.is_basic[leave] = False
            self.is_basic[enter] = True
            self.basis[r] = enter

            if step > _DEGEN_TOL:
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > 2 * self.m:
                    if self.perturbed:
                        bland = True
                    else:
                        self._perturb()
                        stall = 0

    def _perturb(self) -> None:
        """Spread the structural costs so that no two reduced costs tie."""
        n = self.n
        spread = ((np.arange(n) + 1) * 0.6180339887498949) % 1.0
        xi = 0.5 * self.dual_tol[:n] * (0.5 + 0.5 * spread)
        self.cost[:n] += np.where(self.at_upper[:n], -xi, xi)
        self.perturbed = True
