"""Exception taxonomy shared across the package.

Every error raised by the library derives from :class:`DspsError` so callers
can catch one base class at the boundary (the CLI maps subclasses to exit
codes).
"""

__all__ = [
    "DspsError",
    "MalformedCsv",
    "NonNumericCell",
    "DuplicateMemberId",
    "DuplicateFeatureName",
    "UnknownFeature",
    "LengthMismatch",
    "EmptySelection",
    "InsufficientData",
    "ZeroVariance",
    "OutOfRangeProbability",
    "DegenerateWeight",
    "DuplicateCriterion",
    "MissingPrerequisiteTarget",
    "InvalidCriterion",
    "DimensionMismatch",
    "SolverFailure",
    "NumericalBreakdown",
    "InfeasibleError",
    "IterationLimitExceeded",
    "EmptyTargetSet",
    "InvalidSampleSize",
    "InvalidDraws",
    "AllDrawsDegenerate",
    "ZeroTarget",
    "NonPositiveInput",
    "InvalidSpec",
    "EmptyIndices",
    "InsufficientForOrder",
    "MissingHyperParam",
    "InvalidSetting",
]


class DspsError(Exception):
    """Base class for all library errors."""


class InvalidSetting(DspsError):
    """A given setting is out of range (seed, draw index)."""


# ---- dataset ----

class MalformedCsv(DspsError):
    """CSV structure is unusable: empty, ragged rows, or missing columns."""


class NonNumericCell(DspsError):
    """A feature cell failed to parse as a finite real number."""


class DuplicateMemberId(DspsError):
    """Two rows share the same member id."""


class DuplicateFeatureName(DspsError):
    """Two columns share the same feature name."""


class UnknownFeature(DspsError):
    """A feature name does not exist in the population."""


class LengthMismatch(DspsError):
    """Paired vectors differ in length, or a vector is not 1-D."""


class EmptySelection(DspsError):
    """A selection contains no members where at least one is required."""


# ---- moments ----

class InsufficientData(DspsError):
    """Too few values to compute the requested statistic."""


class ZeroVariance(DspsError):
    """Standardised moment requested but the variance scale is zero."""


class OutOfRangeProbability(DspsError):
    """A probability lies outside [0, 1]."""


class DegenerateWeight(DspsError):
    """Probability weights sum to too little for the requested statistic."""


class DuplicateCriterion(DspsError):
    """Two target criteria address the same (feature, order) pair."""


class MissingPrerequisiteTarget(DspsError):
    """A higher-order target lacks the lower-order targets it depends on."""


class InvalidCriterion(DspsError):
    """A target criterion is malformed (bad order or value)."""


# ---- lp_core ----

class DimensionMismatch(DspsError):
    """Linear program components are inconsistent or outside the solver's domain."""


class SolverFailure(DspsError):
    """The LP solve ended without an optimum or an infeasibility certificate."""


class NumericalBreakdown(SolverFailure):
    """The solver hit a singular basis it could not repair."""


# ---- selection ----

class InfeasibleError(DspsError):
    """No probability vector satisfies the constraint system.

    ``violation`` carries the smallest total constraint violation found,
    which is the solver's infeasibility certificate.
    """

    def __init__(self, message: str, violation: float | None = None):
        super().__init__(message)
        self.violation = violation


class IterationLimitExceeded(SolverFailure):
    """The solver stopped at its iteration cap before reaching an optimum."""


class EmptyTargetSet(DspsError):
    """Mode requires at least one target criterion."""


class InvalidSampleSize(DspsError):
    """The trial size is not finite and positive, outside fixed mode's range, or overflows a cap."""


class MissingHyperParam(DspsError):
    """A relaxed program with target rows has no trial size to size its slack budget."""


# ---- realize ----

class InvalidDraws(DspsError):
    """Number of draws must be a positive integer."""


class AllDrawsDegenerate(DspsError):
    """Every realized draw was unusable (empty or too small to score)."""


# ---- evaluate ----

class ZeroTarget(DspsError):
    """A relative error was requested against a zero-valued target."""


class NonPositiveInput(DspsError):
    """Input must be strictly positive."""


# ---- synthgen ----

class InvalidSpec(DspsError):
    """Synthetic population spec is malformed."""


class EmptyIndices(DspsError):
    """No member indices supplied where at least one is required."""


class InsufficientForOrder(DspsError):
    """Too few planted members for the requested moment order."""
