"""dresq: circuit-QED simulator for a two-qubit double-resonator coupler.

Modules:
    fock          Fock space occupation table, operators as plain arrays
    device        device parameters, cached Hamiltonian model, analytic coupling
    spectroscopy  eigenvalue sweeps, dressed-state labels, gap extraction
    dynamics      Lindblad evolution, pulse schedules, vacuum-Rabi chevrons
    fitting       decay / damped-cosine / chevron-coupling least squares
    svgplot       deterministic SVG line plots and heatmaps
    cli           command-line front end
"""

from .errors import (
    DresqError,
    ConfigError,
    PhysicsError,
    NumericsError,
    IntegrationError,
    FitError,
)
from .fock import HilbertSpace
from .device import DeviceParams, OperatingPoint

__all__ = [
    "DresqError",
    "ConfigError",
    "PhysicsError",
    "NumericsError",
    "IntegrationError",
    "FitError",
    "HilbertSpace",
    "DeviceParams",
    "OperatingPoint",
]

__version__ = "0.1.0"
