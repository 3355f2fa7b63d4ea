"""Truncated multi-mode Fock space and its operators as plain arrays.

The composite basis is the product of the per-mode truncations in a fixed
mode order. For the two-qubit / two-resonator device the order is
(resonator a, resonator b, qubit 1, qubit 2); mode 0 varies slowest in the
composite basis index. :class:`HilbertSpace` holds the one occupation table
that every caller reads: the quanta of each mode in each basis state, and
the mode strides, so that one more quantum in mode m moves a basis index by
``strides[m]``. Every operator is a dense float64 ``np.ndarray`` gathered
from that table: the default device truncation (3, 3, 3, 3) is only
81-dimensional, so sparse machinery would be pure overhead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import prod
from typing import Iterable

import numpy as np

from .errors import ConfigError, require_count

DEFAULT_DIMENSION_CAP = 4096


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered list of per-mode truncation dimensions.

    Immutable; each dimension is an integral count of at least 2, and the
    composite dimension is their product and may not exceed
    DEFAULT_DIMENSION_CAP.
    """

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        dims = tuple(require_count(d, "mode dimension", 2) for d in dims)
        if len(dims) < 1:
            raise ConfigError("a Hilbert space needs at least one mode")
        if prod(dims) > DEFAULT_DIMENSION_CAP:
            raise ConfigError(
                f"total dimension {prod(dims)} exceeds cap {DEFAULT_DIMENSION_CAP}"
            )
        object.__setattr__(self, "dims", dims)

    @property
    def size(self) -> int:
        return prod(self.dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    @functools.cached_property
    def quanta(self) -> np.ndarray:
        """Read-only (n_modes, size) table: ``quanta[m, i]`` is the
        occupation of mode m in basis state i."""
        table = np.indices(self.dims).reshape(self.n_modes, -1)
        table.flags.writeable = False
        return table

    @property
    def strides(self) -> tuple[int, ...]:
        """Basis-index step of one quantum in each mode."""
        return tuple(prod(self.dims[m + 1 :]) for m in range(self.n_modes))

    def single_excitation_indices(self) -> tuple[int, ...]:
        """Basis indices of the states with exactly one quantum in one mode."""
        return self.strides


def _check_mode(space: HilbertSpace, mode_index: int) -> None:
    if not 0 <= mode_index < space.n_modes:
        raise ConfigError(
            f"mode index {mode_index} out of range for {space.n_modes} modes"
        )


def lowering_operator(space: HilbertSpace, mode_index: int) -> np.ndarray:
    """Annihilation operator of one mode: √n on the pairs (n − 1, n) of its quanta."""
    _check_mode(space, mode_index)
    n = space.quanta[mode_index]
    occupied = np.flatnonzero(n)
    a = np.zeros((space.size, space.size))
    a[occupied - space.strides[mode_index], occupied] = np.sqrt(n[occupied])
    return a


def number_operator(space: HilbertSpace, mode_index: int) -> np.ndarray:
    """Photon-number operator a†a of one mode (diagonal, integer spectrum)."""
    _check_mode(space, mode_index)
    return np.diag(space.quanta[mode_index].astype(float))
