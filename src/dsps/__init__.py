"""Distribution-based sub-population selection.

Given a population of candidate members with numeric features and a set of
target statistical moments, solve a linear program for per-member inclusion
probabilities whose probability-weighted moments match the targets, then
realize concrete sub-populations by independent Bernoulli draws and score
them against the targets.
"""

from .dataset import Population, feature_column, load_population, save_population
from .errors import DspsError
from .evaluate import (
    EvaluationReport,
    evaluate_selection,
    gmi,
    rsse,
)
from .lp_core import (
    LpProblem,
    LpRow,
    LpSolution,
    Relation,
    SolveStatus,
    solve_lp,
)
from .moments import (
    TargetCriterion,
    TargetSet,
    expected_moment,
    expected_size,
    sample_moment,
)
from .realize import RealizationResult, SelectionMask, draw, draw_best
from .selection import (
    ConstraintSystem,
    SelectionProbabilities,
    build_lp_system,
    solve_fixed_size,
    solve_max_size,
    solve_min_size,
)
from .synthgen import (
    LogNormal,
    Mixture,
    Normal,
    SynthSpec,
    generate_population,
    plant_subset,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Population",
    "load_population",
    "save_population",
    "feature_column",
    "TargetCriterion",
    "TargetSet",
    "sample_moment",
    "expected_size",
    "expected_moment",
    "LpProblem",
    "LpRow",
    "Relation",
    "SolveStatus",
    "LpSolution",
    "solve_lp",
    "ConstraintSystem",
    "build_lp_system",
    "SelectionProbabilities",
    "solve_max_size",
    "solve_min_size",
    "solve_fixed_size",
    "SelectionMask",
    "RealizationResult",
    "draw",
    "draw_best",
    "EvaluationReport",
    "evaluate_selection",
    "rsse",
    "gmi",
    "DspsError",
]
