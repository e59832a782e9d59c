"""Growth of interacting plant populations and their mean-field surrogate.

The package simulates finite populations of plants whose sizes follow
saturating growth damped by pairwise shading competition, fits a
stagewise polynomial surrogate for the population-level competition
load, and measures how fast finite populations approach the surrogate
flow as the population grows.

Every name in a module's ``__all__`` is re-exported here, and
``__all__`` is their concatenation.
"""

from . import config, initial, meanfield, metrics, model, population, solver
from .config import *  # noqa: F401,F403
from .initial import *  # noqa: F401,F403
from .meanfield import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .population import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (config, initial, meanfield, metrics, model, population, solver)
    for name in module.__all__
]
