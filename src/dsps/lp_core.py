"""Bound-flipping dual simplex for the box-constrained programs dsps builds.

Solves  minimize c.z  subject to  A z = b  and  l <= z <= u  (standard
form), where every lower bound is finite and an upper bound may be infinite
only under a cost >= 0; :class:`LpProblem` rejects any other program.  The
selection LPs box every column, and the elastic program adds ``[0, inf)``
columns of cost 1.  Nonbasic variables sit at their lower or their upper
bound, so no variable is split.

One column form: the ``n`` structurals, then one logical per row,
``r = a_r.z``, fixed at ``b_r``, so the constraint matrix is ``[A, -I]``
with right-hand side zero.  Each structural starts at the bound its cost
sign picks, and the all-logical basis starts.  Under the rule above that
start is dual feasible and the objective is bounded below on the box, so no
phase 1 is needed and no program is unbounded.  A program with no rows takes
the same path: its basis is empty, so one pricing pass puts every column at
the bound its cost picks.

* **Iteration.**  Each iteration prices the most infeasible basic variable
  and runs a bound-flipping ratio test (Fourer 1994; Koberstein 2005):
  breakpoints ``|d_j| / |alpha_j|`` are passed in order, flipping each boxed
  column to its opposite bound while the primal-infeasibility slope stays
  positive, and the column that would turn the slope enters.  One iteration
  can thus move thousands of members: the selection LP takes tens of
  iterations.  A column with an infinite bound never flips.
* **Infeasibility.**  When no column can enter, :func:`solve_lp` solves the
  elastic program, with one ``+e_r`` and one ``-e_r`` column of cost 1 per
  row: its optimum, the least total violation, is the certificate in
  ``objective_value``, and its duals bound that violation below, safely.

Rules:

* The solver stores the basis, ``at_upper`` (the bound of each nonbasic
  structural) and the basic values, and no basis inverse: at these shapes
  (tens of rows, thousands of columns) the passes over the matrix
  dominate, so reduced costs and basic values come from a fresh LAPACK
  solve every iteration.  One pricing pass is one iteration, including the
  one that proves optimality.  A logical is fixed at its row's ``b``, so it
  leaves the basis once, is never priced and never enters again.
* An entry ``alpha_j`` of the tableau row is a pivot only when it exceeds
  its own roundoff bound (``_pivot_tol``): cancellation would make the basis
  singular, while an exact small entry beside large ones in the same row (a
  member near the centre of an order-6 row) must still pivot.  When
  flipping every candidate leaves the slope within the leaving variable's
  feasibility tolerance of zero, the last one enters.
* After ``2 * n_rows`` consecutive degenerate steps the structural costs
  are perturbed once, each by at most half the optimality tolerance in the
  direction that keeps its reduced cost feasible, which breaks the ties of
  a dual-degenerate vertex (members with tied feature values tie their
  reduced costs); a later stall switches to the smallest-index leaving row
  until a step is made.

Bound handling follows Maros 2003, *Computational Techniques of the Simplex
Method*.  Everything is deterministic for a fixed problem: ties are broken
by first index (in the ratio test, columns at their upper bound come first).
Alternate optima may return different vertices; the objective value is the
reproducible quantity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DspsError, SolverFailure

__all__ = ["LpProblem", "SolveStatus", "LpSolution", "solve_lp"]


@dataclass(frozen=True)
class LpProblem:
    """minimize ``objective . z`` over ``matrix @ z = rhs`` and ``lower <= z <= upper``.

    Every row is an equality; an inequality takes a slack column of its own.
    ``rhs`` and ``matrix`` are finite, every lower bound is finite and at
    most its upper bound, and an upper bound is infinite only under a cost
    >= 0, so the objective is bounded below on the box.
    """

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).ravel()
        if c.size < 1:
            raise DspsError("objective must have at least one entry")
        if not np.all(np.isfinite(c)):
            raise DspsError("objective entries must be finite")
        matrix = np.asarray(self.matrix, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if matrix.shape != (rhs.size, c.size) or rhs.shape != (rhs.size,):
            raise DspsError(f"a {matrix.shape} matrix with a {rhs.shape} rhs "
                            f"for {c.size} variables")
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
            raise DspsError("matrix and rhs entries must be finite")
        lower = np.broadcast_to(np.asarray(self.lower, dtype=float), c.shape).copy()
        upper = np.broadcast_to(np.asarray(self.upper, dtype=float), c.shape).copy()
        if not np.all(np.isfinite(lower)) or np.any(np.isnan(upper)):
            raise DspsError("lower bounds must be finite, upper bounds not NaN")
        if np.any(lower > upper):
            raise DspsError("a lower bound lies above its upper bound")
        if np.any(np.isinf(upper) & (c < 0.0)):
            raise DspsError("a column with an infinite upper bound needs a cost >= 0")
        for name, value in (("objective", c), ("matrix", matrix), ("rhs", rhs),
                            ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    @property
    def rows(self) -> tuple:
        """Each row as ``coeffs`` (a view of ``matrix``), ``relation.value`` ``"="`` and ``rhs``.

        Its only reader is ``perfbench/layers.highs_yardstick``, which predates the arrays.
        """
        eq = SimpleNamespace(value="=")
        return tuple(SimpleNamespace(coeffs=a, relation=eq, rhs=b)
                     for a, b in zip(self.matrix, self.rhs.tolist()))


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome.

    ``z`` is populated only for Optimal, ``violation_bound`` only for Infeasible,
    where it and the elastic certificate ``objective_value`` bracket the least
    total violation.  ``max_residual`` is the worst row violation at the final
    iterate; for Infeasible, at the least-violation point.
    """

    status: SolveStatus
    z: np.ndarray | None
    objective_value: float
    iterations: int
    max_residual: float
    violation_bound: float | None = None


_FEAS_TOL = 1e-9
_OPT_TOL = 1e-9
_PIVOT_TOL = 1e-10
_RHO_TOL = 1e-13
_DEGEN_TOL = 1e-11
_ITERATION_BUDGET = 50  # iterations per column and per run


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the program: Optimal, or Infeasible with the elastic certificate and its bound.

    ``iterations`` counts both runs.  A breakdown, distinct from genuine
    infeasibility, raises :class:`SolverFailure`: a singular basis, a run past
    its budget of ``_ITERATION_BUDGET * (n + m)`` iterations ("no optimum
    within N simplex iterations", ``N`` counting both runs), or an elastic
    program without an optimum.
    """
    solution = _DualSimplex(problem).run()
    if solution.status is SolveStatus.OPTIMAL:
        return solution
    simplex = _DualSimplex(_elastic_program(problem), spent=solution.iterations)
    elastic = simplex.run()
    if elastic.status is not SolveStatus.OPTIMAL:
        raise SolverFailure("the elastic program has no optimum")
    n, m = problem.n_vars, problem.n_rows
    # each row's violation is its elastic pair's sum
    residual = float(np.max(elastic.z[n:n + m] + elastic.z[n + m:], initial=0.0))
    return LpSolution(SolveStatus.INFEASIBLE, None, elastic.objective_value,
                      elastic.iterations, residual, _violation_bound(problem, simplex.y))


def _violation_bound(problem: LpProblem, y: np.ndarray) -> float:
    """A safe lower bound on the least total violation (Neumaier and Shcherbina 2004).

    ``y.b - sum_j max(l_j g_j, u_j g_j)``, ``g = A^T y``, ``y`` clipped to ``[-1, 1]``, every
    rounding bounded; overflow, or ``u_j = inf`` over a ``g_j`` that may be > 0, gives ``-inf``.
    """
    m, A, y = problem.n_rows, problem.matrix, np.clip(y, -1.0, 1.0)
    with np.errstate(all="ignore"):
        # g_j's roundoff is at most gamma_m (|A|^T |y|)_j plus m underflows: err is over twice it
        g, err = A.T @ y, (m + 2) * (2.0**-51 * (np.abs(A).T @ np.abs(y)) + 5e-324)
        # max(l g, u g) is convex in g, so it peaks at an end of g's interval
        ends = (np.nextafter(g - err, -np.inf), np.nextafter(g + err, np.inf))
        most = np.maximum(*(np.where(e > 0.0, problem.upper * e, problem.lower * e) for e in ends))
        terms = np.append(np.nextafter(y * problem.rhs, -np.inf), -np.nextafter(most, np.inf))
        if not np.sum(np.abs(terms)) < 2.0**1023:  # NaN, or a sum math.fsum might overflow
            return -np.inf
    return float(np.nextafter(math.fsum(terms.tolist()), -np.inf))


def _elastic_program(problem: LpProblem) -> LpProblem:
    """Least total violation: each row gets ``+e_r`` and ``-e_r`` of cost 1.

    The structurals cost 0 and the new ``[0, inf)`` columns cost 1, so the
    program keeps to :class:`LpProblem`'s rule, and it is always feasible.
    """
    n, m = problem.n_vars, problem.n_rows
    eye = np.eye(m)
    return LpProblem(
        np.concatenate([np.zeros(n), np.ones(2 * m)]),
        np.hstack([problem.matrix, eye, -eye]),
        problem.rhs,
        np.concatenate([problem.lower, np.zeros(2 * m)]),
        np.concatenate([problem.upper, np.full(2 * m, np.inf)]),
    )


class _DualSimplex:
    """The column form ``[A, -I]`` and the dual simplex that solves it.

    Its whole state is ``basis``, ``at_upper`` over the ``n`` structurals and
    the basic values ``xB``, which ``_refresh`` recomputes from the other
    two, building the basis matrix ``B`` that the iteration's solves share.
    A logical leaves the basis once and is never priced.
    """

    def __init__(self, problem: LpProblem, spent: int = 0):
        self.problem = problem
        self.n, self.m = n, m = problem.n_vars, problem.n_rows
        self.A = problem.matrix
        self.abs_A = np.abs(problem.matrix)
        self.cost = np.concatenate([problem.objective, np.zeros(m)])
        self.dual_tol = _OPT_TOL * np.maximum(1.0, np.abs(problem.objective))
        self.perturbed = False
        self.gap = problem.upper - problem.lower
        self.lower = lower = np.concatenate([problem.lower, problem.rhs])
        self.upper = upper = np.concatenate([problem.upper, problem.rhs])
        bound_scale = np.maximum(np.abs(lower), np.abs(np.where(np.isfinite(upper), upper, 0.0)))
        # feasibility is judged against each variable's own bounds, not its
        # row's entries: a slack can only move a row by alpha, however
        # large the row's entries are
        self.feas_tol = _FEAS_TOL * np.maximum(1.0, bound_scale)
        # the all-logical basis, each structural at the bound its cost picks;
        # every iteration starts by computing xB from these two
        self.basis = np.arange(n, n + m)
        self.at_upper = np.isfinite(problem.upper) & (problem.objective < 0.0)
        self.iterations = spent
        self.budget = spent + _ITERATION_BUDGET * (n + m)

    def _solve_basis(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        try:
            return np.linalg.solve(self.B.T if transpose else self.B, rhs)
        except np.linalg.LinAlgError:
            raise SolverFailure("singular basis matrix") from None

    def _point(self, basic) -> np.ndarray:
        """Every column's value: nonbasic ones at their bounds, basic ones at ``basic``."""
        x = np.concatenate([np.where(self.at_upper, self.problem.upper, self.problem.lower),
                            self.problem.rhs])
        x[self.basis] = basic
        return x

    def run(self) -> LpSolution:
        status = self._iterate()
        z = self._point(self.xB)[:self.n]
        residual = float(np.max(np.abs(self.A @ z - self.problem.rhs), initial=0.0))
        objective = float(np.dot(self.problem.objective, z))
        z = z if status is SolveStatus.OPTIMAL else None
        return LpSolution(status, z, objective, self.iterations, residual)

    def _refresh(self) -> tuple[np.ndarray, np.ndarray]:
        """Rebuild ``B``, the duals ``y`` and ``xB``; return the reduced costs and which move."""
        struct = self.basis < self.n
        self.B = np.zeros((self.m, self.m))
        self.B[:, struct] = self.A[:, self.basis[struct]]
        self.B[self.basis[~struct] - self.n, np.flatnonzero(~struct)] = -1.0
        movable = self.gap > 0.0
        movable[self.basis[struct]] = False
        self.y = self._solve_basis(self.cost[self.basis], transpose=True)
        d = self.cost[:self.n] - self.A.T @ self.y
        # a boxed column whose reduced cost drifted to the wrong sign moves to
        # the bound that sign picks, which keeps the basis dual feasible
        wrong = movable & np.isfinite(self.gap) & np.where(
            self.at_upper, d > self.dual_tol, d < -self.dual_tol
        )
        self.at_upper[wrong] = ~self.at_upper[wrong]
        x_nb = self._point(0.0)
        self.xB = self._solve_basis(x_nb[self.n:] - self.A @ x_nb[:self.n])
        return d, movable

    def _leaving_row(self, bland: bool):
        """Row of the most infeasible basic variable and its signed violation."""
        xB, lB, uB = self.xB, self.lower[self.basis], self.upper[self.basis]
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
            self.iterations += 1
            d, movable = self._refresh()
            r, delta = self._leaving_row(bland)
            if r is None:
                return SolveStatus.OPTIMAL

            unit = np.zeros(self.m)
            unit[r] = 1.0
            rho = self._solve_basis(unit, transpose=True)
            alpha = self.A.T @ rho
            # moving the leaving variable to its violated bound changes each
            # nonbasic d_j by t * a_j, t >= 0 the dual step
            a = alpha if delta < 0.0 else -alpha
            pivot_tol = self._pivot_tol(rho)
            cand = np.flatnonzero(movable & np.where(self.at_upper, a > pivot_tol, a < -pivot_tol))
            if cand.size == 0:
                return SolveStatus.INFEASIBLE
            slack = np.where(self.at_upper[cand], -d[cand], d[cand])
            ratio = np.maximum(slack, 0.0) / np.abs(a[cand])
            order = np.lexsort((cand, ~self.at_upper[cand], ratio))
            # passing breakpoint j flips column j, which lowers the slope of
            # the dual objective by |a_j| * (u_j - l_j); an infinite gap
            # turns the slope at once, as does a flip whose product overflows
            with np.errstate(over="ignore"):
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
            leave = int(self.basis[r])
            if leave < self.n:
                self.at_upper[leave] = delta > 0.0
            self.basis[r] = enter
            if self.iterations >= self.budget:
                raise SolverFailure(f"no optimum within {self.iterations} simplex iterations")

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

    def _pivot_tol(self, rho: np.ndarray) -> np.ndarray:
        """Each structural's bound on the roundoff in ``alpha_j = rho . a_j``, ``rho = B^-T e_r``.

        ``_PIVOT_TOL * |rho|`` covers the product's own terms.  The solve's
        error in ``rho_i`` scales like ``1 / s_i``, ``s_i`` the largest entry
        of row ``i`` of ``B``, so each ``rho_i`` is also taken as uncertain by
        ``_RHO_TOL * max_k |rho_k| s_k / s_i``: a roundoff ``rho_i`` of a true
        zero cannot pivot, while a tiny ``rho_i`` of a row near ``1e20`` can.
        """
        scale = np.max(np.abs(self.B), axis=1)  # B is nonsingular, so every scale is > 0
        w = np.abs(rho)
        w = _PIVOT_TOL * w + _RHO_TOL * float(np.max(w * scale)) / scale
        return w @ self.abs_A

    def _perturb(self) -> None:
        """Spread the structural costs so that no two reduced costs tie."""
        spread = ((np.arange(self.n) + 1) * 0.6180339887498949) % 1.0
        xi = 0.5 * self.dual_tol * (0.5 + 0.5 * spread)
        self.cost[:self.n] += np.where(self.at_upper, -xi, xi)
        self.perturbed = True
