"""Independent reference implementations used only by the tests.

Deliberately written in a different style from the library (plain loops,
``math.fsum``, exhaustive enumeration) so agreement is meaningful.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from dsps.lp_core import LpProblem


# ---- direct-summation moments -------------------------------------------

def mean_oracle(xs):
    xs = list(map(float, xs))
    return math.fsum(xs) / len(xs)


def variance_oracle(xs, center=None):
    xs = list(map(float, xs))
    c = mean_oracle(xs) if center is None else float(center)
    return math.fsum((x - c) ** 2 for x in xs) / (len(xs) - 1)


def central_oracle(xs, k, center=None):
    xs = list(map(float, xs))
    c = mean_oracle(xs) if center is None else float(center)
    return math.fsum((x - c) ** k for x in xs) / len(xs)


def skew_oracle(xs, center=None, scale_var=None):
    sv = variance_oracle(xs) if scale_var is None else float(scale_var)
    return central_oracle(xs, 3, center) / sv**1.5


def kurt_oracle(xs, center=None, scale_var=None):
    sv = variance_oracle(xs) if scale_var is None else float(scale_var)
    return central_oracle(xs, 4, center) / sv**2 - 3.0


def moment_oracle(xs, k, center=None, scale_var=None):
    if k == 1:
        return mean_oracle(xs)
    if k == 2:
        return variance_oracle(xs, center)
    if k == 3:
        return skew_oracle(xs, center, scale_var)
    if k == 4:
        return kurt_oracle(xs, center, scale_var)
    return central_oracle(xs, k, center)


def weighted_mean_oracle(xs, ps):
    num = math.fsum(float(p) * float(x) for p, x in zip(ps, xs))
    return num / math.fsum(map(float, ps))


def weighted_central_sum_oracle(xs, ps, k, center):
    return math.fsum(float(p) * (float(x) - center) ** k for p, x in zip(ps, xs))


def weighted_moment_oracle(xs, ps, k, target_mean=None, target_var=None):
    total = math.fsum(map(float, ps))
    if k == 1:
        return weighted_mean_oracle(xs, ps)
    s = weighted_central_sum_oracle(xs, ps, k, float(target_mean))
    if k == 2:
        return s / (total - 1.0)
    if k == 3:
        return s / total / float(target_var) ** 1.5
    if k == 4:
        return s / total / float(target_var) ** 2 - 3.0
    return s / total


# ---- brute-force linear programming -------------------------------------

def dual_bound_oracle(c, A, b, lower, upper, y):
    """Exact ``y.b + sum_j min(l_j d_j, u_j d_j)``, ``d = c - A^T y``, as a ``Fraction``.

    By weak duality, for any ``y`` this bounds ``min c.z`` over ``A z = b``,
    ``l <= z <= u`` from below.  With ``c = 0`` and every ``|y_i| <= 1`` it
    bounds the least total violation ``sum_i |a_i.z - b_i|`` over the box,
    since each elastic column then prices at ``1 -/+ y_i >= 0``.  Every float
    converts exactly; an infinite upper bound under a negative ``d_j`` gives
    ``-inf``.
    """
    y = [Fraction(float(v)) for v in y]
    total = sum((Fraction(float(b_i)) * y_i for b_i, y_i in zip(b, y)), Fraction(0))
    for j in range(len(c)):
        d = Fraction(float(c[j])) - sum(
            (Fraction(float(A[i][j])) * y[i] for i in range(len(y))), Fraction(0))
        at_lower = Fraction(float(lower[j])) * d
        if math.isinf(upper[j]):
            if d < 0:
                return -math.inf
            total += at_lower
        else:
            total += min(at_lower, Fraction(float(upper[j])) * d)
    return total


def lp_vertex_oracle(c, rows, lower, upper, tol=1e-8):
    """Minimise c.x over finite-box rows by enumerating candidate vertices.

    Returns ("optimal", value) or ("infeasible", None).  Every vertex of a
    nonempty polytope inside a finite box activates n constraints drawn from
    rows-as-equalities and variable bounds, so enumerating those
    intersections visits an optimal point whenever one exists.
    """
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = c.size
    A = np.array([np.asarray(r[0], dtype=float) for r in rows]) if rows else np.empty((0, n))
    rels = [r[1] for r in rows]
    b = np.array([float(r[2]) for r in rows])

    def feasible(x):
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            return False
        for a_r, rel, b_r in zip(A, rels, b):
            lhs = float(np.dot(a_r, x))
            if rel == "<=" and lhs > b_r + tol:
                return False
            if rel == ">=" and lhs < b_r - tol:
                return False
            if rel == "=" and abs(lhs - b_r) > tol:
                return False
        return True

    best = None
    for k in range(0, min(n, len(rows)) + 1):
        for active_rows in combinations(range(len(rows)), k):
            for free_vars in combinations(range(n), k):
                fixed_vars = [j for j in range(n) if j not in free_vars]
                for choice in product((0, 1), repeat=len(fixed_vars)):
                    x = np.empty(n)
                    for j, hi in zip(fixed_vars, choice):
                        x[j] = upper[j] if hi else lower[j]
                    if k:
                        sub = A[np.ix_(list(active_rows), list(free_vars))]
                        rhs = b[list(active_rows)] - A[np.ix_(list(active_rows), fixed_vars)] @ x[fixed_vars]
                        try:
                            sol = np.linalg.solve(sub, rhs)
                        except np.linalg.LinAlgError:
                            continue
                        if not np.all(np.isfinite(sol)):
                            continue
                        x[list(free_vars)] = sol
                    if feasible(x):
                        val = float(np.dot(c, x))
                        if best is None or val < best:
                            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def box_only_oracle(c, lower, upper):
    """Minimise c.x over the box alone, one variable at a time.

    A negative cost takes the upper bound, any other cost the lower.  Every
    lower bound is finite, and an infinite upper bound comes with a cost
    >= 0, so the minimum exists.
    """
    return np.array([hi if cj < 0.0 else lo
                     for cj, lo, hi in zip(map(float, c), map(float, lower), map(float, upper))])


def from_rows(c, rows, lower, upper):
    """The equality-form ``LpProblem`` of ``(coeffs, "<="|"="|">=", rhs)`` row triples.

    Each ``<=`` or ``>=`` row gets a slack column of its own, in ``[0, inf)``
    at cost 0, after the given columns: ``a.z + s = b`` or ``a.z - s = b``.
    """
    sign = np.array([{"<=": 1.0, "=": 0.0, ">=": -1.0}[rel] for _, rel, _ in rows])
    slack = np.diag(sign)[:, sign != 0.0]
    n, k = np.size(c), slack.shape[1]
    A = np.array([a for a, _, _ in rows], dtype=float) if rows else np.zeros((0, n))

    def extend(given, value):  # the given columns' entries, then the slacks'
        given = np.broadcast_to(np.asarray(given, dtype=float), (n,))
        return np.concatenate([given, np.full(k, value)])

    return LpProblem(extend(c, 0.0), np.hstack([A, slack]), [b for _, _, b in rows],
                     extend(lower, 0.0), extend(upper, np.inf))


def highs_objective(problem, linprog):
    """Optimal objective of an ``LpProblem`` from HiGHS, or None if infeasible."""
    has_rows = problem.n_rows > 0
    res = linprog(
        problem.objective,
        A_eq=problem.matrix if has_rows else None,
        b_eq=problem.rhs if has_rows else None,
        bounds=np.column_stack([problem.lower, problem.upper]),
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(res.fun)


def best_subset_objective(A, C, alpha, tol=1e-9):
    """Best max-size objective ``-|S| + sum_j |r_j|`` over 0/1 selections ``S``.

    ``A`` and ``C`` are the scaled rows, so ``r = A 1_S - C`` holds the scaled
    residuals, and ``S`` qualifies when every ``|r_j|`` is within ``alpha``.
    Exhausts all 2^n subsets; practical to n around 18.  Returns None when no
    subset qualifies.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float).ravel()
    n = A.shape[1]
    codes = np.arange(2**n, dtype=np.uint32)
    masks = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
    resid = np.abs(masks @ A.T - C)
    ok = np.all(resid <= alpha + tol, axis=1)
    if not ok.any():
        return None
    return float(np.min(resid[ok].sum(axis=1) - masks[ok].sum(axis=1)))
