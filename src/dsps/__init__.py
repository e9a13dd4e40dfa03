"""Distribution-based sub-population selection.

Given a population of candidate members with numeric features and a set of
target statistical moments, solve a linear program for per-member inclusion
probabilities whose probability-weighted moments match the targets, then
realize concrete sub-populations by independent Bernoulli draws and score
them against the targets.

The package exports each module's ``__all__``, the one list of its public names.
"""

from . import dataset, errors, evaluate, lp_core, moments, realize, selection, synthgen
from .dataset import *
from .errors import *
from .evaluate import *
from .lp_core import *
from .moments import *
from .realize import *
from .selection import *
from .synthgen import *

__version__ = "0.1.0"

__all__ = ["__version__", *dataset.__all__, *errors.__all__, *evaluate.__all__, *lp_core.__all__,
           *moments.__all__, *realize.__all__, *selection.__all__, *synthgen.__all__]
