"""Time-domain simulation: Lindblad evolution, staged flux pulses, chevrons.

Each pulse stage holds H constant, so the master equation
dρ/dt = -i[H, ρ] + Σ_k D[L_k]ρ has a constant generator L on it and the
map across the stage is exactly exp(t·L) acting on vec(ρ). That
exponential is computed by scaling and squaring with the degree-13 Padé
approximant (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005); there is
no step size.

L acts on the d² entries of ρ, or on the fewer of them that the evolution
can reach (below), so its exponential costs at most d⁶ time and d⁴
memory. Without collapse operators the same exponential of the d×d
generator -iHt gives U, applied as ρ → UρU†, which costs d³ time and d²
memory. Every stage map, lossy or not, comes from that one exponential.

Evolution runs on the smallest block of basis states the dynamics can
reach. The qubit and frame terms are diagonal, collapse operators lower or
count quanta and a π-prep raises the total excitation number N by at most
one, so unless a static coupling leads out of the states with
N ≤ N₀ + (number of π-preps), as counter-rotating terms do, they hold the
whole evolution exactly and every operator is built on them alone;
otherwise the full space is used, and a stage map that would not fit in
memory is refused before it is built.

Within the block, a lossy evolution keeps only the entries of vec(ρ) that
its maps can carry the support of ρ₀ to (:func:`_reachable`); no map feeds
the others, so they stay exactly 0 and every map is restricted to the kept
ones. In the rotating-wave model the maps conserve N(ket) − N(bra), so from
a population of the N ≤ 1 block 17 of its 25 entries are kept.

:func:`evolve` and :func:`vacuum_rabi_chevron` share one block set-up,
readout-row builder and sample loop, which applies each sample's stage
and π-prep maps to a batch of block states and reads rows · vec(ρ), row 0
being the trace. ``evolve`` is a batch of one; an observable O is the row
vec(Oᵀ). The chevron is a batch of detuning columns on the kept entries
of the 5-state N ≤ 1 block that share one τ grid; a fixed readout delay
carries the readout rows backwards through the padding rather than every
state forwards.

Units at the interface: linear GHz for frequencies, MHz for detunings
and couplings where noted, ns for times, µs for coherence times.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, IntegrationError, require_count, require_memory, require_number, require_numbers,
)
from .fock import HilbertSpace, lowering_operator, number_operator
from .device import (
    TWO_PI,
    DeviceParams,
    OperatingPoint,
    _require_resonator_clearance,
    device_model,
)

TRACE_TOL = 1e-8

POSITIVITY_TOL = 1e-8

# largest spread of the steps of a time grid that still counts as uniform
GRID_TOL_NS = 1e-9

# ---------------------------------------------------------------------------
# schedule and state types


@dataclass(frozen=True)
class Stage:
    """One piecewise-constant segment of a pulse schedule.

    ``prep`` of "pi_q1" or "pi_q2" applies an instantaneous ideal
    population flip of that qubit's lowest two levels at the start of
    the stage (drive parameters are not modeled).
    """

    duration_ns: float
    point: OperatingPoint
    prep: str | None = None

    def __post_init__(self):
        if require_number(self.duration_ns, "stage duration") < 0:
            raise ConfigError(f"stage duration must be >= 0 ns, got {self.duration_ns}")
        if self.prep not in (None, "pi_q1", "pi_q2"):
            raise ConfigError(f"unknown prep tag {self.prep!r}")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered, non-empty stages. A delay before readout is one more stage
    at the point where the state waits."""

    stages: tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ConfigError("a schedule needs at least one stage")


@dataclass
class DensityState:
    """Density matrix on a HilbertSpace.

    A ρ of the wrong shape, or holding a NaN or an infinity, is refused with
    ConfigError, both on construction and by :meth:`validate`.
    """

    space: HilbertSpace
    rho: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.rho, dtype=complex)
        if m.shape != (self.space.size, self.space.size):
            raise ConfigError("density matrix shape must match the space")
        if not np.isfinite(m).all():
            raise ConfigError("density matrix must be finite, got a NaN or infinite element")
        self.rho = m

    @classmethod
    def ground(cls, space: HilbertSpace) -> "DensityState":
        rho = np.zeros((space.size, space.size), dtype=complex)
        rho[0, 0] = 1.0
        return cls(space, rho)

    @classmethod
    def single_excitation(cls, space: HilbertSpace, mode_index: int) -> "DensityState":
        idx = space.single_excitation_indices()[mode_index]
        rho = np.zeros((space.size, space.size), dtype=complex)
        rho[idx, idx] = 1.0
        return cls(space, rho)

    def validate(self) -> None:
        # rows and columns off the support are zero: they hold no NaN or
        # infinity, add nothing to the trace or the Hermiticity defect and
        # only zero eigenvalues, so every check runs on the support alone
        nonzero = self.rho != 0
        s = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        rho = self.rho[np.ix_(s, s)]
        if not np.isfinite(rho).all():
            raise ConfigError("density matrix must be finite, got a NaN or infinite element")
        tr = rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise IntegrationError(f"density-matrix trace drifted to {tr:.12f}")
        herm = np.abs(rho - rho.conj().T).max()
        if herm > 1e-10:
            raise IntegrationError(f"density matrix not Hermitian (defect {herm:.2e})")
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -POSITIVITY_TOL:
            raise IntegrationError(
                f"density matrix lost positivity (min eigenvalue {evals.min():.2e})"
            )

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))


@dataclass
class TraceSeries:
    """Observable expectation values on a uniform time grid."""

    times_ns: np.ndarray
    expectations: dict[str, np.ndarray]
    final_state: DensityState


# ---------------------------------------------------------------------------
# collapse operators


def collapse_operators(params: DeviceParams, space: HilbertSpace) -> list[np.ndarray]:
    """Standard open-system operators from the device coherence times.

    Per qubit: a relaxation operator √(1/T1)·a and a pure-dephasing
    operator √(2/T_φ)·a†a with 1/T_φ = 1/T2 − 1/(2T1). Rates are per ns.
    Infinite lifetimes contribute nothing; with everything infinite the
    list is empty and evolution is unitary. The resonators have no
    measured loss rate and get no collapse operator. ``DeviceParams``
    has already refused non-positive times and T2 > 2·T1.
    """
    ops: list[np.ndarray] = []
    for qubit, mode in ((1, 2), (2, 3)):
        t1_us = getattr(params, f"t1_qubit{qubit}")
        t2_us = getattr(params, f"t2_qubit{qubit}")
        gamma1 = 0.0 if math.isinf(t1_us) else 1.0 / (t1_us * 1e3)
        inv_t2 = 0.0 if math.isinf(t2_us) else 1.0 / (t2_us * 1e3)
        gamma_phi = inv_t2 - 0.5 * gamma1
        if gamma_phi < -1e-15:
            raise ConfigError(f"negative dephasing rate for qubit {qubit}")
        if gamma1 > 0:
            ops.append(math.sqrt(gamma1) * lowering_operator(space, mode))
        if gamma_phi > 1e-15:
            ops.append(math.sqrt(2.0 * gamma_phi) * number_operator(space, mode))
    return ops


# ---------------------------------------------------------------------------
# exact stage propagation


def _dissipator(collapse: list[np.ndarray], n: int) -> np.ndarray:
    """Σ_k D[L_k] on row-major vec(ρ) of an n-state block.

    Row-major vectorization gives vec(AρB) = (A⊗Bᵀ)vec(ρ), and each A⊗B is
    the broadcast outer product A[i, j]·B[k, l] at ((i, k), (j, l)). The
    dissipator does not depend on H, so every stage of a schedule shares one.
    """
    eye = np.eye(n, dtype=complex)
    d = np.zeros((n, n, n, n), dtype=complex)
    for l in collapse:
        ldl = l.conj().T @ l
        d += l[:, None, :, None] * l.conj()[None, :, None, :]
        d -= 0.5 * (ldl[:, None, :, None] * eye[None, :, None, :]
                    + eye[:, None, :, None] * ldl.T[None, :, None, :])
    return d.reshape(n * n, n * n)


def _superoperator(h: np.ndarray, dissipator: np.ndarray) -> np.ndarray:
    """Lindblad generators -i[H, ·] plus a :func:`_dissipator` on vec(ρ), for a
    (…, n, n) stack of Hamiltonians (H⊗1 − 1⊗Hᵀ of each stack member)."""
    n = h.shape[-1]
    eye = np.eye(n)
    ht = np.swapaxes(h, -1, -2)
    commutator = (h[..., :, None, :, None] * eye[None, :, None, :]
                  - eye[:, None, :, None] * ht[..., None, :, None, :])
    return dissipator - 1j * commutator.reshape(*h.shape[:-2], n * n, n * n)


def _reachable(vec0: np.ndarray, maps) -> np.ndarray:
    """Mask of the entries of vec(ρ) that ``maps`` can carry the support of ``vec0`` to.

    ``maps`` are (…, m, m) arrays acting on an m-entry ``vec0``; the mask is
    its support closed under the nonzero pattern of every one of them. No
    map leads from an entry inside the mask to one outside it, so the entries
    outside stay exactly 0 and each map can be restricted to the mask, for
    any device, model or initial state.
    """
    m = vec0.size
    links = np.zeros((m, m), dtype=bool)
    for a in maps:
        links |= np.any(a.reshape(-1, m, m) != 0, axis=0)
    reach = vec0 != 0
    while True:
        grown = reach | links[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


# numerator coefficients of the degree-13 Padé approximant to exp and the
# 1-norm up to which it is accurate to double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (…, n, n) stack by scaling and squaring with
    the degree-13 Padé approximant; a single matrix is a stack of one.

    Each member is scaled by its own power of two and squared back only
    as often as its own 1-norm asks.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.fmax(norms, _THETA13) / _THETA13)).astype(int)
    a = a / 2.0 ** squarings[..., None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max()):
        more = squarings > k
        rk = r[more]
        r[more] = rk @ rk
    return r


def _expm_bytes(n: int) -> int:
    """Peak bytes of exponentiating one complex n×n matrix.

    :func:`_expm` peaks at eleven matrices of that size, its input
    included (the powers, the Padé sums and the solve); one more holds
    the map it returns. A d-state block has n = d for a lossless
    generator -iH and n = d² for a Lindblad generator on vec(ρ). A stack
    of m matrices takes m times as much.
    """
    return 12 * 16 * n**2


def _pi_flip_matrix(space: HilbertSpace, mode_index: int, idx: np.ndarray) -> np.ndarray:
    """Unitary swapping levels 0 and 1 of one mode (identity elsewhere), on the
    ascending basis indices ``idx``.

    It permutes the basis: a state with 0 quanta in the mode maps to the one
    with 1, a stride up, and back; every other state stays. A state whose
    image is not in ``idx`` gets a zero row, as slicing the full-space flip
    to ``idx`` would give.
    """
    n = space.quanta[mode_index, idx]
    target = idx + np.select([n == 0, n == 1], [1, -1]) * space.strides[mode_index]
    at = np.minimum(np.searchsorted(idx, target), idx.size - 1)
    hit = idx[at] == target
    flip = np.zeros((idx.size, idx.size))
    flip[hit, at[hit]] = 1.0
    return flip


def _block_model(params, space, points, rho0, n_preps, counter_rotating, frame_ghz):
    """Block indices, block Hamiltonians (a stack, one per point) and block collapse operators.

    The block is the states with N ≤ (largest N on the support of ``rho0``) +
    ``n_preps``, or the full space if a static coupling of the cached device
    model leads out of them. It is refused with ConfigError when exponentiating
    one of its generators, d×d without collapse operators and d²×d² with them,
    would take more than ``errors.MEMORY_LIMIT``; only then are the model's
    Hamiltonians built on it, in the frame rotating at ``frame_ghz`` times N.
    The collapse operators are those of :func:`collapse_operators` on the
    block, none when every lifetime is infinite. Each lowers or counts the
    quanta of one mode, so they are built after the guard on the product
    space truncated above the block's largest N in every mode, not on
    ``space``.
    """
    model = device_model(params, space, counter_rotating)
    n_exc = space.quanta.sum(axis=0)
    inside = n_exc <= n_exc[np.any(rho0 != 0, axis=1)].max() + n_preps
    if np.any(model.h_static[np.ix_(~inside, inside)]):
        inside[:] = True
    idx = np.flatnonzero(inside)
    # whether there are collapse operators does not depend on the space, so
    # the two-level one answers it before the guard
    lossy = bool(collapse_operators(params, HilbertSpace([2] * space.n_modes)))
    require_memory(_expm_bytes(idx.size**2 if lossy else idx.size),
                   f"a stage map of a {idx.size}-state evolution block")
    # a mode keeps at least two levels; the product order of the truncated
    # space lists the block's states in the order of ``space``
    top = max(n_exc[idx].max(), 1)
    sub = HilbertSpace([min(d, top + 1) for d in space.dims])
    at = np.ravel_multi_index(space.quanta[:, idx], sub.dims)
    ls = [l[np.ix_(at, at)] for l in collapse_operators(params, sub)]
    hs = model.hamiltonians([p.qubit_freq_1 for p in points], [p.qubit_freq_2 for p in points], idx)
    if frame_ghz:
        hs.reshape(len(hs), -1)[:, :: idx.size + 1] -= TWO_PI * frame_ghz * n_exc[idx]
    return idx, hs, ls


def _readout_rows(idx: np.ndarray, observables) -> np.ndarray:
    """Rows reading tr ρ, then each observable O as vec(Oᵀ), from row-major vec(ρ) on ``idx``."""
    rows = np.stack([np.eye(idx.size)] + [o[np.ix_(idx, idx)].T for o in observables])
    return rows.reshape(len(rows), -1)


def _sample(rho, steps, rows, act, where) -> tuple[np.ndarray, np.ndarray]:
    """Readings (batch, row, sample) of a batch of block states, and the final states.

    Sample j applies each map of ``steps[j]`` by ``act(map, rho)``, then
    reads ``rows[j] · vec(ρ)``; row 0 is the trace row. Trace drift beyond
    TRACE_TOL (or a NaN) raises IntegrationError, located by ``where(b, j)``
    at the first failing batch member b and sample j.
    """
    readings = np.empty((len(rho), len(rows[0]), len(steps)))
    for j, (maps, r) in enumerate(zip(steps, rows)):
        for m in maps:
            rho = act(m, rho)
        readings[:, :, j] = (r @ rho.reshape(len(rho), -1, 1))[:, :, 0].real
    tr = readings[:, 0]
    bad = ~(np.abs(tr - 1.0) <= TRACE_TOL)  # a NaN trace counts as drift
    if bad.any():
        b, j = np.argwhere(bad)[0]
        raise IntegrationError(f"trace drifted to {tr[b, j]:.12f} {where(b, j)}")
    return readings, rho


def _observable(op, space: HilbertSpace, name: str) -> np.ndarray:
    """``op`` as an array; ConfigError unless it is a finite (d, d) numeric array on ``space``."""
    try:
        m = np.asarray(op)
    except ValueError:  # a ragged nesting of sequences
        m = np.empty(0, dtype=object)
    if m.shape != (space.size,) * 2 or m.dtype.kind not in "iufc" or not np.isfinite(m).all():
        raise ConfigError(
            f"observable {name!r} must be a finite {space.size}x{space.size} numeric array, "
            f"got shape {m.shape} and dtype {m.dtype}"
        )
    return m


def evolve(
    params: DeviceParams,
    schedule: PulseSchedule,
    initial: DensityState,
    space: HilbertSpace,
    observables: dict[str, np.ndarray],
    n_samples: int = 201,
    include_counter_rotating: bool = True,
    frame_ghz: float = 0.0,
) -> TraceSeries:
    """Propagate the master equation exactly through a staged schedule.

    Observable expectations are sampled on a uniform grid of
    ``n_samples`` points (an integral count of at least 2) over the total
    schedule duration; each observable must be a finite (d, d) numeric
    array on ``space``, or ConfigError is raised. Dissipation comes from
    the device coherence times (:func:`collapse_operators`). ``frame_ghz``
    subtracts that finite frequency times the total excitation number from
    every stage Hamiltonian; this is an exact frame change for the
    excitation-conserving model (counter-rotating off) and invalid with
    counter-rotating terms on.

    Evolution runs on the excitation block of :func:`_block_model`, where
    every stage Hamiltonian is built, so a block whose stage maps would not
    fit in memory raises ConfigError before anything of its size is built. Each stage map is one
    :func:`_expm`: with dissipation, of the Lindblad generator on the
    entries of vec(ρ) that the stage and π-prep maps can reach from ρ₀
    (:func:`_reachable`; the others stay exactly 0); without, of -iH·t on
    the block, giving U for ρ → UρU†, which keeps a lossless counter-rotating
    run on the full space affordable. Trace drift beyond 1e-8 (or a NaN) at
    any sample aborts with diagnostics.
    """
    if initial.space.size != space.size:
        raise ConfigError("initial state lives on a different space")
    n_samples = require_count(n_samples, "number of sample points", 2)
    frame_ghz = require_number(frame_ghz, "frame frequency")
    if frame_ghz != 0.0 and include_counter_rotating:
        raise ConfigError(
            "a rotating frame is only exact for the excitation-conserving model; "
            "disable counter-rotating terms or use frame_ghz=0"
        )
    initial.validate()
    observables = {n: _observable(op, space, n) for n, op in observables.items()}
    stages = schedule.stages
    total = sum(s.duration_ns for s in stages)

    n_preps = sum(st.prep is not None for st in stages)
    idx, hs, ls = _block_model(
        params, space, [st.point for st in stages], initial.rho, n_preps,
        include_counter_rotating, frame_ghz,
    )
    sel = np.ix_(idx, idx)
    flips = {
        tag: _pi_flip_matrix(space, 2 if tag == "pi_q1" else 3, idx)
        for tag in {st.prep for st in stages} - {None}
    }
    if ls:
        # maps act on the entries of vec(ρ) they can reach; a prep P becomes P ⊗ P̄
        generators = _superoperator(hs, _dissipator(ls, idx.size))
        flips = {tag: np.kron(p, p.conj()) for tag, p in flips.items()}
        vec0 = initial.rho[sel].reshape(-1)
        keep = _reachable(vec0, [generators, *flips.values()])
        generators = generators[:, keep][:, :, keep]
        flips = {tag: f[np.ix_(keep, keep)] for tag, f in flips.items()}
        rho = vec0[keep].reshape(1, -1, 1)
        act = np.matmul
    else:
        keep = slice(None)
        generators = -1j * hs
        rho = initial.rho[sel][None]

        def act(u, rho):
            return u @ rho @ u.conj().T

    maps = {}

    def hold(k: int, duration: float) -> list[np.ndarray]:
        if duration <= 0:
            return []
        key = (k, round(duration, 12))  # uniform samples share one map
        if key not in maps:
            maps[key] = _expm(duration * generators[k])
        return [maps[key]]

    def prep(k: int) -> list[np.ndarray]:
        return [flips[stages[k].prep]] if stages[k].prep else []

    # each sample's maps: stage boundaries crossed since the last sample,
    # with the preps they bring, then the hold up to the sample time
    times = np.linspace(0.0, total, n_samples)
    steps, stage_at = [], []
    pending = prep(0)
    k, t_now, stage_end = 0, 0.0, stages[0].duration_ns
    for ts in times:
        while ts > stage_end + 1e-9 and k + 1 < len(stages):
            pending += hold(k, stage_end - t_now)
            t_now = stage_end
            k += 1
            stage_end += stages[k].duration_ns
            pending += prep(k)
        steps.append(pending + hold(k, ts - t_now))
        stage_at.append(k)
        pending, t_now = [], ts

    names = list(observables)
    rows = _readout_rows(idx, [observables[n] for n in names])[:, keep]
    readings, rho = _sample(
        rho, steps, [rows] * n_samples, act,
        lambda b, j: f"at t = {times[j]:.3f} ns (stage {stage_at[j]}, {idx.size}-state block)",
    )
    block = np.zeros(idx.size**2, dtype=complex)
    block[keep] = rho.reshape(-1)
    final = np.zeros((space.size, space.size), dtype=complex)
    final[sel] = block.reshape(idx.size, idx.size)
    records = {n: readings[0, i + 1] for i, n in enumerate(names)}
    return TraceSeries(times, records, DensityState(space, final))


# ---------------------------------------------------------------------------
# closed-form two-level reference


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


# ---------------------------------------------------------------------------
# chevron


@dataclass
class ChevronMap:
    """Qubit-1 population versus interaction time and qubit detuning."""

    detunings_mhz: np.ndarray
    taus_ns: np.ndarray
    p1: np.ndarray  # shape (len(detunings), len(taus))

    def __post_init__(self):
        if self.p1.shape != (len(self.detunings_mhz), len(self.taus_ns)):
            raise ConfigError("chevron population matrix has the wrong shape")
        if self.p1.min() < -1e-6 or self.p1.max() > 1.0 + 1e-6:
            raise IntegrationError(
                f"population outside [0, 1]: range [{self.p1.min():.2e}, {self.p1.max():.2e}]"
            )

    def to_csv(self) -> str:
        """One line per cell, detuning-major, built one detuning at a time."""
        buf = io.StringIO()
        buf.write("detuning_mhz,tau_ns,p1\n")
        taus = [f",{t:.9g}," for t in self.taus_ns]
        for d, row in zip(self.detunings_mhz, self.p1.tolist()):
            lead = f"{d:.9g}"
            buf.write("".join([f"{lead}{t}{p:.9f}\n" for t, p in zip(taus, row)]))
        return buf.getvalue()


def vacuum_rabi_chevron(
    params: DeviceParams,
    bias: OperatingPoint,
    q2_target: float,
    q1_offsets_mhz,
    taus_ns,
    prep_to_readout_ns: float | None = None,
) -> ChevronMap:
    """Vacuum-Rabi population map under the staged flux protocol.

    For each qubit-1 offset: qubit 2 starts excited at the bias point
    (ideal instantaneous π preparation), both qubits are stepped to the
    interaction point (qubit 2 at ``q2_target``, qubit 1 offset by the
    column's detuning), held for τ, and the qubit-1 excited population
    is recorded. With ``prep_to_readout_ns`` set, the state is further
    evolved at the bias point until that fixed total delay before
    readout. Runs in the excitation-conserving model on the exact N ≤ 1
    block, through the block set-up and sample loop of :func:`evolve`, and
    is lossless on a device whose coherence times are all infinite. The
    maps act on the entries of vec(ρ) they can reach from qubit 2's excited
    population (:func:`_reachable`): its 16 one-excitation entries, and the
    ground population too with dissipation. A
    trace drift beyond 1e-8 (or a NaN) in any cell raises
    IntegrationError naming the first such column.

    ``q2_target``, the offsets, the τ values and a readout delay must be
    finite numbers, the offsets strictly ascending (a single offset is
    one), and the τ values a uniform ascending grid from 0. All
    columns' step maps are exponentiated as one stack, so a grid whose
    stack (with its readings) would exceed ``errors.MEMORY_LIMIT`` is
    refused before any column is built.
    """
    q2_target = require_number(q2_target, "interaction point", positive=True)
    _require_resonator_clearance(params, q2_target, "interaction point")
    taus = require_numbers(taus_ns, "interaction times")
    if taus.size < 2:
        raise ConfigError("chevron needs at least 2 interaction times")
    dt = np.diff(taus)
    if abs(taus[0]) > 1e-12 or dt.min() <= 0 or (dt.max() - dt.min()) > GRID_TOL_NS:
        raise ConfigError("interaction times must be a finite uniform ascending grid from 0")
    dtau = float(dt[0])
    offsets = require_numbers(q1_offsets_mhz, "detuning offsets")
    if offsets.size < 1:
        raise ConfigError("need at least one detuning offset")
    if (np.diff(offsets) <= 0).any():
        raise ConfigError("detuning offsets must be strictly ascending")
    if prep_to_readout_ns is not None:
        prep_to_readout_ns = require_number(prep_to_readout_ns, "prep-to-readout interval")
        if prep_to_readout_ns < taus[-1] - 1e-9:
            raise ConfigError(
                f"prep-to-readout interval {prep_to_readout_ns} ns shorter than the "
                f"longest interaction time {taus[-1]} ns"
            )

    # the N <= 1 block has 5 states (ground, one excitation in each mode); each
    # column costs at most one 25 x 25 member of the step-map stack (fewer
    # entries of vec(ρ) are reachable) plus 3 floats per τ
    require_memory(offsets.size * (_expm_bytes(25) + 24 * taus.size),
                   f"a chevron of {offsets.size} columns")
    # two levels per mode hold the N <= 1 block, where the anharmonic term vanishes
    space = HilbertSpace((2, 2, 2, 2))
    rho0 = DensityState.single_excitation(space, 3).rho
    holds = [OperatingPoint(q2_target + off * 1e-3, q2_target) for off in offsets]
    padded = prep_to_readout_ns is not None
    # the readout rows are carried through generators on vec(ρ) even on a
    # lossless device; the stack guard above covers their size
    idx, hs, ls = _block_model(params, space, holds + [bias] * padded, rho0, 0, False, q2_target)
    generators = _superoperator(hs, _dissipator(ls, idx.size))
    vec0 = rho0[np.ix_(idx, idx)].reshape(-1)
    keep = _reachable(vec0, [generators])
    generators = generators[:, keep][:, :, keep]

    readout = _readout_rows(idx, [number_operator(space, 2)])[:, keep]
    # rows[j] reads the state at the end of τ_j; with a fixed readout delay
    # it is carried backwards through the padding, one step map per τ step
    rows = [readout] * taus.size
    if padded:
        step_pad = _expm(dtau * generators[-1])
        rows[-1] = readout @ _expm(max(prep_to_readout_ns - taus[-1], 0.0) * generators[-1])
        for j in range(taus.size - 2, -1, -1):
            rows[j] = rows[j + 1] @ step_pad

    # every column advances in lockstep, one batched product per τ step
    step = _expm(dtau * generators[: offsets.size])
    vecs = np.repeat(vec0[keep].reshape(1, -1, 1), offsets.size, axis=0)
    readings, _ = _sample(
        vecs, [[]] + [[step]] * (taus.size - 1), rows, np.matmul,
        lambda i, j: f"in chevron column {i}",
    )
    return ChevronMap(offsets, taus, np.clip(readings[:, 1], 0.0, 1.0))
