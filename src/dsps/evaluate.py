"""Scoring a selection against its targets.

Relative measures treat the target as the truth: RSSE is the sum of squared
relative errors over criteria, percentage error the per-criterion absolute
relative error times 100 (a field of each :class:`CriterionResult`).  A zero
target makes both undefined and is a hard error; callers wanting a softened
denominator must opt in to an epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Population, feature_column
from .errors import EmptySelection, InvalidSetting, LengthMismatch, NonPositiveInput, ZeroTarget
from .moments import TargetSet, expected_moment, expected_size, sample_moment

__all__ = [
    "CriterionResult",
    "EvaluationReport",
    "rsse",
    "gmi",
    "evaluate_selection",
]

GMI_INTERCEPT = 3.31
GMI_SLOPE = 0.02392


@dataclass(frozen=True)
class CriterionResult:
    feature: str
    order: int
    target: float
    achieved: float
    percentage_error: float


@dataclass(frozen=True)
class EvaluationReport:
    """Per-criterion achieved moments and the aggregate error measures."""

    per_criterion: tuple[CriterionResult, ...]
    rsse: float
    pe_mean: float
    pe_sd: float
    realized_size: int | None


def _denominators(targets: np.ndarray, epsilon: float) -> np.ndarray:
    if not 0.0 <= epsilon < np.inf:
        raise InvalidSetting(f"rsse epsilon must be finite and >= 0, got {epsilon}")
    if epsilon == 0.0 and np.any(targets == 0.0):
        idx = int(np.flatnonzero(targets == 0.0)[0])
        raise ZeroTarget(
            f"criterion {idx} has target 0; relative error is undefined "
            "(pass an epsilon or drop the criterion)"
        )
    return np.abs(targets) + epsilon


def rsse(achieved, targets, epsilon: float = 0.0) -> float:
    """Sum of squared relative errors of ``achieved`` against ``targets``."""
    a = np.asarray(achieved, dtype=float).ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if a.size != t.size:
        raise LengthMismatch(f"{a.size} achieved values for {t.size} targets")
    den = _denominators(t, epsilon)
    return float(np.sum(((a - t) / den) ** 2))


def gmi(mean_glucose: float) -> float:
    """Glucose management indicator for a mean glucose in mg/dL.

    Linear: ``3.31 + 0.02392 * mean_glucose``.  Only positive inputs are
    physical; the intercept is the (unreachable) zero-glucose limit.
    """
    g = float(mean_glucose)
    if not g > 0.0:
        raise NonPositiveInput(f"mean glucose must be positive, got {g}")
    return GMI_INTERCEPT + GMI_SLOPE * g


def evaluate_selection(
    pop: Population,
    targets: TargetSet,
    selection,
    rsse_epsilon: float = 0.0,
) -> EvaluationReport:
    """Score a mask (realized moments) or probabilities (expected moments).

    A mask is anything carrying a binary ``b`` vector or an integer/bool
    array; a float array or an object carrying ``p`` is treated as inclusion
    probabilities.  Realized moments are the selected members' own sample
    statistics: each is :func:`sample_moment` of the feature column indexed
    by the mask (nonzero entries select), without building a sub-population.
    A mask whose length is not the population's raises
    :class:`LengthMismatch` and one that selects nobody
    :class:`EmptySelection`.  Expected moments are probability-weighted and
    centred on the targets, so the two coincide only in expectation.
    """
    kind, vec = _classify(selection)
    if kind == "mask":
        if vec.shape != (pop.n_members,):
            raise LengthMismatch(f"mask length {vec.shape} for {pop.n_members} members")
        keep = vec.astype(bool)
        realized_size = int(np.count_nonzero(keep))
        if realized_size == 0:
            raise EmptySelection("mask selects no members")
        achieved = [
            sample_moment(feature_column(pop, c.feature)[keep], c.order)
            for c in targets
        ]
    else:
        if vec.size != pop.n_members:
            raise LengthMismatch(f"{vec.size} probabilities for {pop.n_members} members")
        realized_size = None
        expected_size(vec)  # refuses a p outside [0, 1]
        achieved = []
        for c in targets:
            x = feature_column(pop, c.feature)
            m1 = targets.value_of(c.feature, 1) if targets.has(c.feature, 1) else None
            m2 = targets.value_of(c.feature, 2) if targets.has(c.feature, 2) else None
            achieved.append(expected_moment(x, vec, c.order, m1, m2))

    t = np.array([c.value for c in targets], dtype=float)
    a = np.array(achieved, dtype=float)
    pes = np.abs(a - t) / _denominators(t, rsse_epsilon) * 100.0
    per_criterion = tuple(
        CriterionResult(c.feature, c.order, float(c.value), float(av), float(pe))
        for c, av, pe in zip(targets, a, pes)
    )
    pe_mean = float(np.mean(pes)) if pes.size else 0.0
    pe_sd = float(np.std(pes, ddof=1)) if pes.size > 1 else 0.0
    return EvaluationReport(
        per_criterion, rsse(a, t, rsse_epsilon), pe_mean, pe_sd, realized_size
    )


def _classify(selection):
    b = getattr(selection, "b", None)
    if b is not None:
        return "mask", np.asarray(b)
    p = getattr(selection, "p", selection)
    arr = np.asarray(p)
    if arr.dtype.kind in "biu":
        return "mask", arr
    return "probabilities", np.asarray(arr, dtype=float).ravel()
