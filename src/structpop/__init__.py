"""structpop: age- and trait-structured selection-mutation population lab.

Computes the Malthusian parameter and principal eigen-elements of the
renewal operator, simulates the deterministic density dynamics and the
individual-based stochastic process, and classifies regular vs singular
trait equilibria.
"""

from .model import (AgeGrid, ConfigError, RateModel, ScenarioConfig, TraitGrid,
                    build_grids, build_model, constant_scenario, parse_config,
                    singular_scenario)
from .kernel import CollapsedKernel, collapse, choose_age_truncation
from .spectral import PerronPair, perron
from .malthus import EigenTriple, MalthusProblem, SubcriticalError, solve_eigentriple

__all__ = [
    "AgeGrid", "CollapsedKernel", "ConfigError", "EigenTriple", "MalthusProblem",
    "PerronPair", "RateModel", "ScenarioConfig", "SubcriticalError", "TraitGrid",
    "build_grids", "build_model", "choose_age_truncation", "collapse",
    "constant_scenario", "parse_config", "perron", "singular_scenario",
    "solve_eigentriple",
]

__version__ = "0.1.0"
