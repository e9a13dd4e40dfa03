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
    LpSolution,
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
from .realize import RealizationResult, draw, draw_best
from .selection import (
    ConstraintSystem,
    SelectionProbabilities,
    build_lp_system,
    solve_fixed_size,
    solve_max_size,
)
from .synthgen import SynthSpec, generate_population, plant_subset

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
    "SolveStatus",
    "LpSolution",
    "solve_lp",
    "ConstraintSystem",
    "build_lp_system",
    "SelectionProbabilities",
    "solve_max_size",
    "solve_fixed_size",
    "RealizationResult",
    "draw",
    "draw_best",
    "EvaluationReport",
    "evaluate_selection",
    "rsse",
    "gmi",
    "DspsError",
    "SynthSpec",
    "generate_population",
    "plant_subset",
]
