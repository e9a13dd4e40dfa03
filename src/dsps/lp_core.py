"""Bound-flipping dual simplex for the box-constrained programs dsps builds.

Solves  minimize c.z  subject to  a_r.z (<=|=|>=) b_r  and  l <= z <= u,
where every lower bound is finite and an upper bound may be infinite only
under a cost >= 0; :class:`LpProblem` rejects any other program.  The
selection LPs box every column, and the elastic program adds ``[0, inf)``
columns of cost 1.  Nonbasic variables sit at either their lower or their
upper bound, which keeps vertices of the box polytope representable without
splitting variables.

One column form: the ``n`` structurals, then one logical per row,
``r = a_r.z``, bounded by the row's relation as ``[row_lo, row_hi]``, so the
constraint matrix is ``[A, -I]`` with right-hand side zero.  Each structural
starts at the bound its cost sign picks, and the all-logical basis starts.
Under the rule above that start is dual feasible and the objective is
bounded below on the box, so no phase 1 is needed and no program is
unbounded.  A program with no rows takes the same path: its basis is empty,
so one pricing pass puts every column at the bound its cost picks.

* **Iteration.**  Each iteration prices the most infeasible basic variable
  and runs a bound-flipping ratio test (Fourer 1994; Koberstein 2005):
  breakpoints ``|d_j| / |alpha_j|`` are passed in order, flipping each boxed
  column to its opposite bound while the primal-infeasibility slope stays
  positive, and the column that would turn the slope enters.  One iteration
  can thus move thousands of members: the selection LP takes tens of
  iterations.  A column with an infinite bound never flips.
* **Infeasibility.**  When no column can enter, :func:`solve_lp` solves the
  elastic program, with one ``+e_r`` and one ``-e_r`` column of cost 1 per
  row.  Its optimum, the least total violation, is the certificate reported
  via ``objective_value``.

Rules:

* No basis inverse is kept: at these shapes (tens of rows, thousands of
  columns) the passes over the matrix dominate, so reduced costs and basic
  values come from a fresh LAPACK solve every iteration.  One pricing pass
  is one iteration, including the one that proves optimality.
* An entry ``a_j`` is a pivot only when ``|a_j|`` exceeds ``_PIVOT_TOL *
  max(1, max |a_k|)`` over the row's movable columns: in a row scaled near
  ``1e10`` an entry of ``1e-5`` is roundoff that would make the basis
  singular.  When flipping every candidate leaves the slope within the
  leaving variable's feasibility tolerance of zero, the last one enters.
* After ``2 * n_rows`` consecutive degenerate steps the structural costs
  are perturbed once, each by at most half the optimality tolerance in the
  direction that keeps its reduced cost feasible, which breaks the ties of
  a fully dual-degenerate vertex (a fixed-size row makes every member's
  reduced cost zero); a later stall switches to the smallest-index leaving
  row until a step is made.

Bound handling follows Maros 2003, *Computational Techniques of the Simplex
Method*.  Everything is deterministic for a fixed problem: ties are broken
by first index (in the ratio test, columns at their upper bound come first).
Alternate optima may return different vertices; the objective value is the
reproducible quantity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

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
    """minimize ``objective . z`` over rows and the box ``lower <= z <= upper``.

    Every lower bound is finite, and an upper bound is infinite only under a
    cost >= 0, so the objective is bounded below on the box.
    """

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
        if not np.all(np.isfinite(lower)) or np.any(np.isnan(upper)):
            raise DimensionMismatch("lower bounds must be finite, upper bounds not NaN")
        if np.any(np.isinf(upper) & (c < 0.0)):
            raise DimensionMismatch("a column with an infinite upper bound needs a cost >= 0")
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
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome.

    ``z`` is populated only for Optimal.  For Infeasible, ``objective_value``
    holds the certificate: the smallest achievable total constraint
    violation.  ``max_residual`` is the worst row violation at the final
    iterate; for Infeasible, at the least-violation point.
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


def solve_lp(problem: LpProblem, max_iterations: int | None = None) -> LpSolution:
    """Solve the program, classifying the outcome rather than raising for it.

    ``max_iterations`` (default ``50 * (n_vars + n_rows)``) bounds the run.
    The elastic run gets a budget of its own, by the same rule, and the
    reported ``iterations`` count both runs.  Raises
    :class:`NumericalBreakdown` only when a run breaks down (a singular
    basis, or an elastic program without an optimum), which is distinct
    from genuine infeasibility.
    """
    if np.any(problem.lower > problem.upper):
        return LpSolution(SolveStatus.INFEASIBLE, None, float("inf"), 0, float("inf"))
    solution = _DualSimplex(problem, max_iterations).run()
    if solution.status is not SolveStatus.INFEASIBLE:
        return solution
    elastic = _DualSimplex(_elastic_program(problem), max_iterations).run()
    iterations = solution.iterations + elastic.iterations
    if elastic.status is SolveStatus.ITERATION_LIMIT:
        return replace(elastic, iterations=iterations)
    if elastic.status is not SolveStatus.OPTIMAL:
        raise NumericalBreakdown("the elastic program has no optimum")
    n, m = problem.n_vars, problem.n_rows
    # each row's violation is its elastic pair's sum
    residual = float(np.max(elastic.z[n:n + m] + elastic.z[n + m:], initial=0.0))
    return LpSolution(SolveStatus.INFEASIBLE, None, elastic.objective_value, iterations, residual)


def _elastic_program(problem: LpProblem) -> LpProblem:
    """Least total violation: each row gets ``+e_r`` and ``-e_r`` of cost 1.

    The structurals cost 0 and the new ``[0, inf)`` columns cost 1, so the
    program keeps to :class:`LpProblem`'s rule, and it is always feasible.
    """
    n, m = problem.n_vars, problem.n_rows
    eye = np.eye(m)
    rows = tuple(
        LpRow(np.concatenate([row.coeffs, eye[r], -eye[r]]), row.relation, row.rhs)
        for r, row in enumerate(problem.rows)
    )
    return LpProblem(
        np.concatenate([np.zeros(n), np.ones(2 * m)]),
        rows,
        np.concatenate([problem.lower, np.zeros(2 * m)]),
        np.concatenate([problem.upper, np.full(2 * m, np.inf)]),
    )


class _DualSimplex:
    """The column form ``[A, -I]`` and the dual simplex that solves it."""

    def __init__(self, problem: LpProblem, max_iterations: int | None = None):
        self.problem = problem
        n, m = problem.n_vars, problem.n_rows
        self.n, self.m = n, m
        self.A = np.array([row.coeffs for row in problem.rows]).reshape(m, n)
        b = np.array([row.rhs for row in problem.rows], dtype=float)
        le = np.array([row.relation is Relation.LE for row in problem.rows], dtype=bool)
        ge = np.array([row.relation is Relation.GE for row in problem.rows], dtype=bool)
        self.cost = np.concatenate([problem.objective, np.zeros(m)])
        self.dual_tol = _OPT_TOL * np.maximum(1.0, np.abs(self.cost))
        self.perturbed = False
        self.basis = np.arange(n, n + m)
        self.is_basic = np.zeros(n + m, dtype=bool)
        self.is_basic[self.basis] = True
        lower = np.concatenate([problem.lower, np.where(le, -np.inf, b)])
        upper = np.concatenate([problem.upper, np.where(ge, np.inf, b)])
        self.lower, self.upper = lower, upper
        self.gap = upper - lower
        # each structural starts at the bound its cost sign picks (the
        # logicals start basic)
        lo_finite, hi_finite = np.isfinite(lower), np.isfinite(upper)
        self.at_upper = hi_finite & ~(lo_finite & (self.cost >= 0.0))
        self.x = np.where(self.at_upper, upper, lower)
        bound_scale = np.maximum(np.abs(np.where(lo_finite, lower, 0.0)),
                                 np.abs(np.where(hi_finite, upper, 0.0)))
        # feasibility is judged against each variable's own bounds, not its
        # row's entries: a slack can only move a row by eta_max, however
        # large the row's entries are
        self.feas_tol = _FEAS_TOL * np.maximum(1.0, bound_scale)

        self.max_iterations = max_iterations if max_iterations is not None else 50 * (n + m)
        self.iterations = 0

    def _solve_basis(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        B = np.zeros((self.m, self.m))
        struct = self.basis < self.n
        B[:, struct] = self.A[:, self.basis[struct]]
        B[self.basis[~struct] - self.n, np.flatnonzero(~struct)] = -1.0
        try:
            return np.linalg.solve(B.T if transpose else B, rhs)
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("singular basis matrix") from None

    def _row(self, v: np.ndarray) -> np.ndarray:
        """``v^T [A, -I]``: duals to reduced costs, or a tableau row.

        The logicals' entries are ``-v`` itself; a product with a dense
        ``[A, -I]`` would round ``A^T v`` differently.
        """
        return np.concatenate([self.A.T @ v, -v])

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - self._row(self._solve_basis(c[self.basis], transpose=True))

    def _refresh_basics(self) -> None:
        """Recompute basic values from the nonbasic point to shed drift."""
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        rhs = x_nb[self.n:] - self.A @ x_nb[:self.n]
        self.x[self.basis] = self._solve_basis(rhs)

    def _finish(self, status: SolveStatus) -> LpSolution:
        z = self.x[:self.n].copy()
        lhs = self.A @ z
        residual = float(np.max(np.maximum(self.lower[self.n:] - lhs, lhs - self.upper[self.n:]),
                                initial=0.0))
        objective = float(np.dot(self.problem.objective, z))
        z = z if status is SolveStatus.OPTIMAL else None
        return LpSolution(status, z, objective, self.iterations, residual)

    def run(self) -> LpSolution:
        return self._finish(self._iterate())

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

    def _iterate(self) -> SolveStatus:
        stall = 0
        bland = False
        while True:
            if self.iterations >= self.max_iterations:
                return SolveStatus.ITERATION_LIMIT
            self.iterations += 1
            d = self._refresh()
            r, delta = self._leaving_row(bland)
            if r is None:
                return SolveStatus.OPTIMAL

            unit = np.zeros(self.m)
            unit[r] = 1.0
            alpha = self._row(self._solve_basis(unit, transpose=True))
            # moving the leaving variable to its violated bound changes each
            # nonbasic d_j by t * a_j, t >= 0 the dual step
            a = alpha if delta < 0.0 else -alpha
            movable = ~self.is_basic & (self.gap > 0.0)
            # relative to the row: roundoff in a row near 1e10 passes any absolute threshold
            pivot_tol = _PIVOT_TOL * max(1.0, float(np.max(np.abs(a[movable]), initial=0.0)))
            cand = np.flatnonzero(movable & np.where(self.at_upper, a > pivot_tol, a < -pivot_tol))
            if cand.size == 0:
                return SolveStatus.INFEASIBLE
            slack = np.where(self.at_upper[cand], -d[cand], d[cand])
            ratio = np.maximum(slack, 0.0) / np.abs(a[cand])
            order = np.lexsort((cand, ~self.at_upper[cand], ratio))
            # passing breakpoint j flips column j, which lowers the slope of
            # the dual objective by |a_j| * (u_j - l_j); an infinite gap
            # turns the slope at once
            slope = abs(delta) - np.cumsum(np.abs(a[cand[order]]) * self.gap[cand[order]])
            turn = np.flatnonzero(slope <= 0.0)
            if turn.size:
                k = int(turn[0])
            elif slope[-1] <= self.feas_tol[self.basis[r]]:
                # flipping every candidate leaves the row feasible within
                # tolerance: an exact tie, not an infeasible row
                k = cand.size - 1
            else:
                return SolveStatus.INFEASIBLE
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
