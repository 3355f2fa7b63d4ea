"""Reference quantities the tests check the library against.

None of these is on a program path: each is a closed form or a textbook
definition, kept beside the tests that use it.
"""

import math

import numpy as np

from dresq.fock import HilbertSpace


def total_number_operator(space: HilbertSpace) -> np.ndarray:
    """Total excitation number Σ a†a over every mode (diagonal)."""
    return np.diag(space.quanta.sum(axis=0).astype(float))


def purity(rho: np.ndarray) -> float:
    """Tr ρ², 1 for a pure state."""
    return float(np.real(np.trace(rho @ rho)))


def two_level_transfer(g_eff_mhz: float, delta12_mhz: float, t_ns) -> np.ndarray | float:
    """Excitation-transfer probability of the resonant exchange model.

    P(t) = [4g² / (Δ² + 4g²)] · sin²(π √(4g² + Δ²) t) with g and Δ in
    linear frequency and t in matching time units. Peak value
    4g²/(Δ²+4g²); on resonance the first full transfer is at
    t = 1/(4g).
    """
    g = g_eff_mhz * 1e-3  # GHz, pairs with t in ns
    d = delta12_mhz * 1e-3
    denom = d * d + 4.0 * g * g
    if denom == 0.0:
        return np.zeros_like(np.asarray(t_ns, dtype=float)) if np.ndim(t_ns) else 0.0
    amp = 4.0 * g * g / denom
    f = math.sqrt(denom)
    t = np.asarray(t_ns, dtype=float)
    p = amp * np.sin(math.pi * f * t) ** 2
    return p if np.ndim(t_ns) else float(p)
