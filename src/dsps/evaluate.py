"""Scoring a mask, the selected cohort, against its targets.

Relative measures treat the target as the truth: RSSE is the sum of squared
relative errors over criteria, percentage error the per-criterion absolute
relative error times 100 (a field of each :class:`CriterionResult`).  A zero
target makes both undefined and is a hard error, as is a relative error whose
square leaves float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Population, feature_column
from .errors import DspsError, InsufficientData
from .moments import TargetSet, sample_moment

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
    realized_size: int


def _denominators(targets: np.ndarray) -> np.ndarray:
    if np.any(targets == 0.0):
        idx = int(np.flatnonzero(targets == 0.0)[0])
        raise DspsError(
            f"criterion {idx} has target 0; relative error is undefined (drop the criterion)"
        )
    return np.abs(targets)


def rsse(achieved, targets) -> float:
    """Sum of squared relative errors of ``achieved`` against ``targets``."""
    a = np.asarray(achieved, dtype=float).ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if a.size != t.size:
        raise DspsError(f"{a.size} achieved values for {t.size} targets")
    den = _denominators(t)
    return float(np.sum(((a - t) / den) ** 2))


def gmi(mean_glucose: float) -> float:
    """Glucose management indicator for a mean glucose in mg/dL.

    Linear: ``3.31 + 0.02392 * mean_glucose``.  Only positive inputs are
    physical; the intercept is the (unreachable) zero-glucose limit.
    """
    g = float(mean_glucose)
    if not g > 0.0:
        raise DspsError(f"mean glucose must be positive, got {g}")
    return GMI_INTERCEPT + GMI_SLOPE * g


def evaluate_selection(
    pop: Population,
    targets: TargetSet,
    selection,
) -> EvaluationReport:
    """Score a mask by the realized moments of the members it selects.

    ``selection`` is an integer or bool vector of the population's length
    whose nonzero entries select (:func:`dsps.realize.draw` returns one).
    Each moment is :func:`sample_moment` of the feature column indexed by the
    mask, without building a sub-population.  Any other shape or dtype (a
    float vector too: probabilities are not a selection) raises
    :class:`DspsError`, as does a moment or an error measure beyond float64;
    a mask that selects nobody raises :class:`InsufficientData`.
    """
    vec = np.asarray(selection)
    if vec.shape != (pop.n_members,):
        raise DspsError(f"selection of shape {vec.shape} for {pop.n_members} members")
    if vec.dtype.kind not in "biu":
        raise DspsError(f"a selection is an integer or bool mask, not dtype {vec.dtype}")
    keep = vec.astype(bool)
    realized_size = int(np.count_nonzero(keep))
    if realized_size == 0:
        raise InsufficientData("mask selects no members")
    achieved = []
    for c in targets:
        try:
            achieved.append(sample_moment(feature_column(pop, c.feature)[keep], c.order))
        except InsufficientData:
            raise
        except DspsError:  # a checked order's moment fails only by overflowing
            raise DspsError(f"the moment of ({c.feature!r}, {c.order}) overflows float64") from None

    t = np.array([c.value for c in targets], dtype=float)
    a = np.array(achieved, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        pes = np.abs(a - t) / _denominators(t) * 100.0
        pe_mean = float(np.mean(pes)) if pes.size else 0.0
        pe_sd = float(np.std(pes, ddof=1)) if pes.size > 1 else 0.0
        total = rsse(a, t)
    if not np.all(np.isfinite([total, pe_mean, pe_sd])):
        # the largest relative error, or the first infinite one, overflows its square
        c = targets.criteria[int(np.argmax(pes))]
        raise DspsError(f"the relative error of ({c.feature!r}, {c.order}) overflows float64")
    per_criterion = tuple(
        CriterionResult(c.feature, c.order, float(c.value), float(av), float(pe))
        for c, av, pe in zip(targets, a, pes)
    )
    return EvaluationReport(per_criterion, total, pe_mean, pe_sd, realized_size)

