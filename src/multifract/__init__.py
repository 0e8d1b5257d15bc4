"""Multifractal spectra of multiple Birkhoff averages and related dimensions.

Submodules:
  symbolic       words, index chains, semigroups, prefix automata
  thermo         nonlinear transfer operators, pressure, Legendre spectra
  telescopic     telescopic product measures, dimension, sampling
  multiplicative Hausdorff/box dimensions of multiplicatively invariant sets
  walks          oriented walks, transfer matrices, walk spectra
  riesz          Walsh-character Riesz products and exploratory averages
  cli            command-line front end
"""

from . import multiplicative, riesz, symbolic, telescopic, thermo, walks
from .errors import ConvergenceError, ValidationError

__all__ = [
    "cli",
    "multiplicative",
    "riesz",
    "symbolic",
    "telescopic",
    "thermo",
    "walks",
    "ConvergenceError",
    "ValidationError",
]

__version__ = "0.1.0"
