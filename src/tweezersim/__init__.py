"""Monte Carlo simulator and planning library for reservoir-based
deterministic loading of single-atom tweezer arrays.

A large reservoir trap feeds a small set of buffer traps by stochastic
single-atom extraction; a shortest-move planner relocates buffered atoms
into a target structure each cycle. The package reproduces the measured
per-cycle observables (defect-free success rate, buffer fill fraction,
reservoir depletion) and exposes every model parameter for sweeps.

Everything else is imported from its module (``tweezersim.config``,
``tweezersim.harness``, ...).
"""

__version__ = "0.1.0"

from .config import ExperimentConfig
from .harness import run_experiment

__all__ = ["__version__", "ExperimentConfig", "run_experiment"]
