"""Tensor-product Fock space, ladder operators and a Hermitian eigensolver.

Operators live on a truncated multi-mode Fock space built as a Kronecker
product in a fixed mode order. For the two-qubit / two-resonator device the
order is (resonator a, resonator b, qubit 1, qubit 2); mode 0 varies slowest
in the composite basis index. Matrices are dense, float64 for real
operators (ladder and number operators, the device Hamiltonian) and complex
otherwise: the default device truncation (3, 3, 3, 3) is only
81-dimensional, so sparse machinery would be pure overhead. An operator may
also be restricted to a subset of the composite basis, such as one
excitation-parity block, and is then diagonalized on that subset alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError

DEFAULT_DIMENSION_CAP = 4096

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered list of per-mode truncation dimensions.

    Immutable; the composite dimension is the product of the per-mode
    dimensions and may not exceed DEFAULT_DIMENSION_CAP.
    """

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1:
            raise ConfigError("a Hilbert space needs at least one mode")
        if any(d < 2 for d in dims):
            raise ConfigError(f"every mode needs dimension >= 2, got {dims}")
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

    def basis_index(self, occupations: Sequence[int]) -> int:
        """Composite basis index of a product state |n_0, n_1, ...>."""
        if len(occupations) != self.n_modes:
            raise ConfigError("occupation list length must match mode count")
        idx = 0
        for d, n in zip(self.dims, occupations):
            if not 0 <= n < d:
                raise ConfigError(f"occupation {n} outside truncation {d}")
            idx = idx * d + n
        return idx

    def occupations(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`basis_index`."""
        occ = []
        for d in reversed(self.dims):
            occ.append(index % d)
            index //= d
        return tuple(reversed(occ))

    def single_excitation_indices(self) -> tuple[int, ...]:
        """Basis indices of the states with exactly one quantum in one mode."""
        out = []
        for mode in range(self.n_modes):
            occ = [0] * self.n_modes
            occ[mode] = 1
            out.append(self.basis_index(occ))
        return tuple(out)


@dataclass
class OperatorMatrix:
    """Dense operator tied to a HilbertSpace.

    ``elements`` are float64 when given real and complex otherwise.
    ``basis`` lists the composite basis indices the matrix acts on, in
    order; None means the whole space.
    """

    space: HilbertSpace
    elements: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.elements)
        m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"operator must be square, got shape {m.shape}")
        size = self.space.size if self.basis is None else len(self.basis)
        if m.shape[0] != size:
            raise ConfigError(
                f"operator dimension {m.shape[0]} does not match the size {size} "
                "of its basis"
            )
        self.elements = m

    def _like(self, elements: np.ndarray) -> "OperatorMatrix":
        return OperatorMatrix(self.space, elements, self.basis)

    def dagger(self) -> "OperatorMatrix":
        return self._like(self.elements.conj().T)

    def hermiticity_defect(self) -> float:
        """Largest element-wise magnitude of M - M†."""
        return float(np.abs(self.elements - self.elements.conj().T).max())

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._like(self.elements @ other.elements)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._like(self.elements + other.elements)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._like(self.elements - other.elements)

    def __rmul__(self, scalar: complex) -> "OperatorMatrix":
        return self._like(scalar * self.elements)


def _check_mode(space: HilbertSpace, mode_index: int) -> None:
    if not 0 <= mode_index < space.n_modes:
        raise ConfigError(
            f"mode index {mode_index} out of range for {space.n_modes} modes"
        )


def _single_mode_lowering(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return m


def embed_operator(space: HilbertSpace, mode_index: int, local: np.ndarray) -> OperatorMatrix:
    """Embed a single-mode operator into the full space.

    Kronecker order follows the mode order: identity factors on every mode
    except ``mode_index``.
    """
    _check_mode(space, mode_index)
    local = np.asarray(local)
    if local.shape != (space.dims[mode_index], space.dims[mode_index]):
        raise ConfigError("local operator shape must match the mode dimension")
    out = np.ones((1, 1))
    for i, d in enumerate(space.dims):
        out = np.kron(out, local if i == mode_index else np.eye(d))
    return OperatorMatrix(space, out)


def lowering_operator(space: HilbertSpace, mode_index: int) -> OperatorMatrix:
    """Annihilation operator of one mode, embedded into the full space."""
    _check_mode(space, mode_index)
    return embed_operator(space, mode_index, _single_mode_lowering(space.dims[mode_index]))


def raising_operator(space: HilbertSpace, mode_index: int) -> OperatorMatrix:
    return lowering_operator(space, mode_index).dagger()


def number_operator(space: HilbertSpace, mode_index: int) -> OperatorMatrix:
    """Photon-number operator a†a of one mode (diagonal, integer spectrum)."""
    a = lowering_operator(space, mode_index)
    n = a.dagger().elements @ a.elements
    # exact integers on the diagonal, kill rounding dust
    return OperatorMatrix(space, np.diag(np.round(np.diag(n))))


def total_number_operator(space: HilbertSpace) -> OperatorMatrix:
    total = np.zeros((space.size, space.size))
    for mode in range(space.n_modes):
        total += number_operator(space, mode).elements
    return OperatorMatrix(space, total)


def eigendecompose_hermitian(
    op: OperatorMatrix, tol: float = HERMITICITY_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    A real symmetric operator gets a real eigensolver and real
    eigenvectors. Rejects non-Hermitian input, reporting the measured
    asymmetry. The result satisfies max|M v - e v| < 1e-9 * max|e| and
    V†V = I to 1e-10; both bounds are enforced by the test suite rather
    than re-checked here on every call.
    """
    defect = op.hermiticity_defect()
    if defect >= tol:
        raise ConfigError(
            f"matrix is not Hermitian: max |M - M†| element is {defect:.3e} (tol {tol:.1e})"
        )
    evals, evecs = np.linalg.eigh(op.elements)
    return evals, evecs
