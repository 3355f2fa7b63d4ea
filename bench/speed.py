"""Reference kernels that track the speed the machine gives this process.

On a shared host the speed of the cores can change by tens of percent for
seconds to minutes at a time, with CPU time equal to wall time, so neither
longer runs nor CPU time remove it. The harness therefore times a fixed
reference kernel before and after every call and reports each timing in
*reference seconds*: wall seconds scaled by the kernel's reference time over
its measured time, i.e. what the call would have taken had the machine run
the kernel at its reference speed. The kernels and their reference times
are part of the benchmark and never change with the program, so a change
that makes the program faster lowers the scaled times exactly as it lowers
wall time on a steady machine.

The host's slow phases do not slow all code alike: interpreter-bound code
loses more than dense linear algebra. So the kernel is a numpy-only
miniature of every kind of work the program does, each component timed on
its own: interpreter-bound text formatting, numpy calls on tiny arrays,
Kronecker assembly and eigendecomposition of four-mode Hamiltonians at both
sizes the workloads use (81 and 256), and 81-dim complex matrix products.
It takes about 0.14 s at the reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_REPEATS = 3


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / (2.0 * np.sqrt(n))


_RNG = np.random.default_rng(20240601)
_H81 = _hermitian(81, _RNG)
_H256 = _hermitian(256, _RNG)
_SMALL = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))


def _interpreter() -> int:
    """CSV/SVG-like text: formatting floats into rows of dicts."""
    rows = []
    for i in range(1500):
        x = 4.4 + i * 1e-3
        rows.append({"freq_ghz": f"{x:.9f}", "level": str(i % 7), "p1": f"{x * x:.9g}"})
    return sum(len(r["freq_ghz"]) + len(r["p1"]) for r in rows)


def _small_arrays() -> complex:
    """Many numpy calls on tiny arrays, where per-call overhead dominates."""
    acc = np.zeros((27, 27), dtype=complex)
    eye3 = np.eye(3, dtype=complex)
    for _ in range(45):
        acc += np.kron(np.kron(_SMALL, eye3), eye3)
    return complex(np.trace(acc))


def _assemble(dim: int) -> np.ndarray:
    """A four-mode Hamiltonian assembled from Kronecker-embedded operators."""
    eye = np.eye(dim, dtype=complex)
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    size = dim**4
    h = np.zeros((size, size), dtype=complex)
    for mode in range(4):
        op = np.ones((1, 1), dtype=complex)
        for i in range(4):
            op = np.kron(op, lower if i == mode else eye)
        h += (4.6 + 0.01 * mode) * (op.conj().T @ op) + 0.01 * (op + op.conj().T)
    return h


def _products81() -> complex:
    m = _H81
    for _ in range(24):
        m = (m @ _H81) * 0.5
    return complex(m[0, 0])


def _eigh81() -> float:
    return float(sum(np.linalg.eigh(_H81)[0][0] for _ in range(3)))


def _eigh256() -> float:
    return float(np.linalg.eigh(_H256)[0][0])


def _assemble81() -> float:
    return float(sum(_assemble(3)[0, 0].real for _ in range(3)))


def _assemble256() -> float:
    return float(_assemble(4)[0, 0].real)


# name -> (function, reference seconds: its median time on the 2-core
# baseline machine in its fast phase; only fixes the scale)
COMPONENTS = {
    "interpreter": (_interpreter, 0.0016),
    "small_arrays": (_small_arrays, 0.0017),
    "products81": (_products81, 0.0018),
    "eigh81": (_eigh81, 0.0031),
    "eigh256": (_eigh256, 0.0172),
    "assemble81": (_assemble81, 0.0028),
    "assemble256": (_assemble256, 0.0174),
}


def kernel_times() -> dict[str, float]:
    """Median wall time of each component over a few back-to-back rounds."""
    samples = {name: [] for name in COMPONENTS}
    for _ in range(_REPEATS):
        for name in COMPONENTS:
            start = time.perf_counter()
            COMPONENTS[name][0]()
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(s) for name, s in samples.items()}


def slowness(times: dict[str, float]) -> float:
    """Kernel time over its reference time: 1 at the reference speed."""
    return sum(times.values()) / sum(reference for _, reference in COMPONENTS.values())


def to_reference(wall_s: float, before: dict[str, float], after: dict[str, float]) -> float:
    """Wall seconds of an interval scaled to the kernel's reference speed,
    with the kernel timed just before and just after the interval."""
    return wall_s / (0.5 * (slowness(before) + slowness(after)))
