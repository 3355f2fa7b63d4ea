"""Time-domain simulation: Lindblad evolution, staged flux pulses, chevrons.

Each pulse stage holds H constant, so the master equation
dρ/dt = -i[H, ρ] + Σ_k D[L_k]ρ has a constant generator L on it and the
map across the stage is exactly exp(t·L) acting on vec(ρ). That
exponential is computed by scaling and squaring with the degree-13 Padé
approximant (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005); there is
no step size.

L acts on the d² entries of ρ, so its exponential costs d⁶ time and d⁴
memory. Without collapse operators the same exponential of the d×d
generator -iHt gives U, applied as ρ → UρU†, which costs d³ time and d²
memory. Every stage map, lossy or not, comes from that one exponential.

Evolution runs on the smallest block of basis states the dynamics can
reach. In the excitation-conserving (rotating-wave) model relaxation and
dephasing never raise the total excitation number N and each π-prep
raises it by at most one, so the states with
N ≤ N₀ + (number of π-preps) hold the whole evolution and the
projection is exact, not an approximation. Where counter-rotating terms
connect the blocks the full space is used, and a stage map that would not
fit in memory is refused before it is built.

:func:`evolve` and :func:`vacuum_rabi_chevron` share one block set-up
and one sample loop, which applies each sample's stage and π-prep maps
to a batch of block states and reads rows · vec(ρ), row 0 being the
trace. ``evolve`` is a batch of one; an observable O is the row vec(Oᵀ).
The chevron is a batch of detuning columns on the 5-state N ≤ 1 block
that share one τ grid; a fixed readout delay carries the readout rows
backwards through the padding rather than every state forwards.

Units at the interface: linear GHz for frequencies, MHz for detunings
and couplings where noted, ns for times, µs for coherence times.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError
from .fock import (
    HilbertSpace,
    OperatorMatrix,
    embed_operator,
    lowering_operator,
    number_operator,
    total_number_operator,
)
from .device import (
    TWO_PI,
    DeviceParams,
    OperatingPoint,
    _require_resonator_clearance,
    build_hamiltonian,
)

TRACE_TOL = 1e-8

POSITIVITY_TOL = 1e-8

# largest spread of the steps of a time grid that still counts as uniform
GRID_TOL_NS = 1e-9

# largest workspace the stage maps may take; a bigger block is refused
# with a ConfigError before anything of its size is built
EXPM_BYTES_LIMIT = 512 * 2**20


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
        if not (math.isfinite(self.duration_ns) and self.duration_ns >= 0):
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
    """Density matrix on a HilbertSpace."""

    space: HilbertSpace
    rho: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.rho, dtype=complex)
        if m.shape != (self.space.size, self.space.size):
            raise ConfigError("density matrix shape must match the space")
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
        tr = self.rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise IntegrationError(f"density-matrix trace drifted to {tr:.12f}")
        herm = np.abs(self.rho - self.rho.conj().T).max()
        if herm > 1e-10:
            raise IntegrationError(f"density matrix not Hermitian (defect {herm:.2e})")
        evals = np.linalg.eigvalsh(self.rho)
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


def collapse_operators(params: DeviceParams, space: HilbertSpace) -> list[OperatorMatrix]:
    """Standard open-system operators from the device coherence times.

    Per qubit: a relaxation operator √(1/T1)·a and a pure-dephasing
    operator √(2/T_φ)·a†a with 1/T_φ = 1/T2 − 1/(2T1). Rates are per ns.
    Infinite lifetimes contribute nothing; with everything infinite the
    list is empty and evolution is unitary. The resonators have no
    measured loss rate and get no collapse operator. ``DeviceParams``
    has already refused non-positive times and T2 > 2·T1.
    """
    ops: list[OperatorMatrix] = []
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

    Row-major vectorization gives vec(AρB) = (A⊗Bᵀ)vec(ρ). The dissipator
    does not depend on H, so every stage of a schedule shares one.
    """
    eye = np.eye(n, dtype=complex)
    d = np.zeros((n * n, n * n), dtype=complex)
    for l in collapse:
        ldl = l.conj().T @ l
        d += np.kron(l, l.conj())
        d -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return d


def _superoperator(h: np.ndarray, dissipator: np.ndarray) -> np.ndarray:
    """Lindblad generators -i[H, ·] plus a :func:`_dissipator` on vec(ρ), for a
    (…, n, n) stack of Hamiltonians (``np.kron`` pairs the stack members)."""
    eye = np.eye(h.shape[-1])
    return dissipator - 1j * (np.kron(h, eye) - np.kron(eye, np.swapaxes(h, -1, -2)))


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


def _closed_block(
    space: HilbertSpace,
    rho: np.ndarray,
    n_preps: int,
    operators: list[np.ndarray],
) -> np.ndarray:
    """Basis indices of the smallest excitation block evolution can reach.

    Takes the states with total excitation number N ≤ (largest N on the
    support of ρ) + ``n_preps``, since a π-prep raises N by at most one.
    That block is used only if every operator (stage Hamiltonians and
    collapse operators L, and L†L for the anticommutator) maps it into
    itself, which holds in the excitation-conserving model; otherwise
    the full space is returned.
    """
    n_exc = np.indices(space.dims).reshape(space.n_modes, -1).sum(axis=0)
    support = np.any(rho != 0, axis=1)
    inside = n_exc <= n_exc[support].max() + n_preps
    leak = np.ix_(~inside, inside)
    idx = np.arange(space.size)
    if not any(np.any(op[leak]) or np.any((op.conj().T @ op)[leak]) for op in operators):
        return idx[inside]
    return idx


def _pi_flip_matrix(space: HilbertSpace, mode_index: int) -> np.ndarray:
    """Unitary swapping levels 0 and 1 of one mode (identity elsewhere)."""
    d = space.dims[mode_index]
    return embed_operator(space, mode_index, np.eye(d)[[1, 0, *range(2, d)]]).elements


def _block_model(params, space, points, rho0, n_preps, counter_rotating, frame_ghz,
                 dissipation=True):
    """Block indices, block Hamiltonians (one per point) and block collapse operators.

    Hamiltonians are in the frame rotating at ``frame_ghz`` times the total
    excitation number; collapse operators are built only with ``dissipation``.
    The block is :func:`_closed_block`'s. It is refused with ConfigError
    when exponentiating one of its generators, d×d without collapse operators
    and d²×d² with them, would take more than EXPM_BYTES_LIMIT.
    """
    ls = [c.elements for c in collapse_operators(params, space)] if dissipation else []
    hs = [
        build_hamiltonian(params, p, space, include_counter_rotating=counter_rotating).elements
        for p in points
    ]
    if frame_ghz:
        frame_shift = TWO_PI * frame_ghz * total_number_operator(space).elements
        hs = [h - frame_shift for h in hs]
    idx = _closed_block(space, rho0, n_preps, hs + ls)
    need = _expm_bytes(idx.size**2 if ls else idx.size)
    if need > EXPM_BYTES_LIMIT:
        raise ConfigError(
            f"evolution needs a {idx.size}-state block, whose stage maps take "
            f"{need / 2**20:.0f} MiB (limit {EXPM_BYTES_LIMIT / 2**20:.0f} MiB); use a "
            "smaller truncation or the excitation-conserving model"
        )
    sel = np.ix_(idx, idx)
    return idx, [h[sel] for h in hs], [l[sel] for l in ls]


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


def evolve(
    params: DeviceParams,
    schedule: PulseSchedule,
    initial: DensityState,
    space: HilbertSpace,
    observables: dict[str, OperatorMatrix],
    n_samples: int = 201,
    include_counter_rotating: bool = True,
    frame_ghz: float = 0.0,
) -> TraceSeries:
    """Propagate the master equation exactly through a staged schedule.

    Observable expectations are sampled on a uniform grid of
    ``n_samples`` points over the total schedule duration. Dissipation
    comes from the device coherence times
    (:func:`collapse_operators`). ``frame_ghz`` subtracts that frequency
    times the total excitation number from every stage Hamiltonian; this
    is an exact frame change for the excitation-conserving model
    (counter-rotating off) and invalid with counter-rotating terms on.

    Evolution runs on the excitation block of :func:`_closed_block`, so a
    block whose stage maps would not fit in memory raises ConfigError
    before anything of its size is built. Each stage map is one
    :func:`_expm`: with dissipation, of the Lindblad generator on vec(ρ);
    without, of -iH·t on the block, giving U for ρ → UρU†, which keeps a
    lossless counter-rotating run on the full space affordable. Trace
    drift beyond 1e-8 (or a NaN) at any sample aborts with diagnostics.
    """
    if initial.space.size != space.size:
        raise ConfigError("initial state lives on a different space")
    if frame_ghz != 0.0 and include_counter_rotating:
        raise ConfigError(
            "a rotating frame is only exact for the excitation-conserving model; "
            "disable counter-rotating terms or use frame_ghz=0"
        )
    initial.validate()
    stages = schedule.stages
    total = sum(s.duration_ns for s in stages)
    if n_samples < 2:
        raise ConfigError("need at least 2 sample points")

    n_preps = sum(st.prep is not None for st in stages)
    idx, hs, ls = _block_model(
        params, space, [st.point for st in stages], initial.rho, n_preps,
        include_counter_rotating, frame_ghz,
    )
    sel = np.ix_(idx, idx)
    flips = {
        tag: _pi_flip_matrix(space, 2 if tag == "pi_q1" else 3)[sel]
        for tag in {st.prep for st in stages} - {None}
    }
    if ls:
        # maps act on vec(ρ); a prep P becomes P ⊗ P̄
        generators = _superoperator(np.stack(hs), _dissipator(ls, idx.size))
        flips = {tag: np.kron(p, p.conj()) for tag, p in flips.items()}
        rho = initial.rho[sel].reshape(1, -1, 1)
        act = np.matmul
    else:
        generators = -1j * np.stack(hs)
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
    rows = np.stack([np.eye(idx.size)] + [observables[n].elements[sel].T for n in names])
    readings, rho = _sample(
        rho, steps, [rows.reshape(len(rows), -1)] * n_samples, act,
        lambda b, j: f"at t = {times[j]:.3f} ns (stage {stage_at[j]}, {idx.size}-state block)",
    )
    final = np.zeros((space.size, space.size), dtype=complex)
    final[sel] = rho.reshape(idx.size, idx.size)
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
    dissipation: bool = True,
) -> ChevronMap:
    """Vacuum-Rabi population map under the staged flux protocol.

    For each qubit-1 offset: qubit 2 starts excited at the bias point
    (ideal instantaneous π preparation), both qubits are stepped to the
    interaction point (qubit 2 at ``q2_target``, qubit 1 offset by the
    column's detuning), held for τ, and the qubit-1 excited population
    is recorded. With ``prep_to_readout_ns`` set, the state is further
    evolved at the bias point until that fixed total delay before
    readout. Runs in the excitation-conserving model on the exact N ≤ 1
    block, through the block set-up and sample loop of :func:`evolve`. A
    trace drift beyond 1e-8 (or a NaN) in any cell raises
    IntegrationError naming the first such column.

    τ values must form a finite uniform ascending grid from 0, and a readout
    delay must be finite. All columns' step maps are exponentiated as one
    stack, so a grid whose stack (with its readings) would exceed
    EXPM_BYTES_LIMIT is refused before any column is built.
    """
    _require_resonator_clearance(params, q2_target, "interaction point")
    taus = np.asarray(taus_ns, dtype=float)
    if taus.ndim != 1 or taus.size < 2:
        raise ConfigError("chevron needs at least 2 interaction times")
    dt = np.diff(taus)
    if (not np.isfinite(taus).all() or abs(taus[0]) > 1e-12 or dt.min() <= 0
            or (dt.max() - dt.min()) > GRID_TOL_NS):
        raise ConfigError("interaction times must be a finite uniform ascending grid from 0")
    dtau = float(dt[0])
    offsets = np.asarray(q1_offsets_mhz, dtype=float)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ConfigError("need at least one detuning offset")
    if prep_to_readout_ns is not None and not np.isfinite(prep_to_readout_ns):
        raise ConfigError(f"prep-to-readout interval must be finite, got {prep_to_readout_ns}")
    if prep_to_readout_ns is not None and prep_to_readout_ns < taus[-1] - 1e-9:
        raise ConfigError(
            f"prep-to-readout interval {prep_to_readout_ns} ns shorter than the "
            f"longest interaction time {taus[-1]} ns"
        )

    # the N <= 1 block has 5 states (ground, one excitation in each mode); each
    # column costs one 25 x 25 member of the step-map stack plus 3 floats per τ
    need = offsets.size * (_expm_bytes(25) + 24 * taus.size)
    if need > EXPM_BYTES_LIMIT:
        raise ConfigError(
            f"a chevron of {offsets.size} columns needs {need / 2**20:.0f} MiB for its step "
            f"maps and readings (limit {EXPM_BYTES_LIMIT / 2**20:.0f} MiB)"
        )
    # two levels per mode hold the N <= 1 block, where the anharmonic term vanishes
    space = HilbertSpace((2, 2, 2, 2))
    rho0 = DensityState.single_excitation(space, 3).rho
    holds = [OperatingPoint(q2_target + off * 1e-3, q2_target) for off in offsets]
    padded = prep_to_readout_ns is not None
    # the readout rows are carried through generators on vec(ρ) even without
    # dissipation; the stack guard above covers their size
    idx, hs, ls = _block_model(
        params, space, holds + [bias] * padded, rho0, 0, False, q2_target,
        dissipation=dissipation,
    )
    d = idx.size
    generators = _superoperator(np.stack(hs), _dissipator(ls, d))

    # row 0 reads tr ρ, row 1 <q1|ρ|q1>
    readout = np.zeros((2, d * d))
    readout[0, :: d + 1] = 1.0
    readout[1, np.searchsorted(idx, space.single_excitation_indices()[2]) * (d + 1)] = 1.0
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
    vecs = np.repeat(rho0[np.ix_(idx, idx)].reshape(1, -1, 1), offsets.size, axis=0)
    readings, _ = _sample(
        vecs, [[]] + [[step]] * (taus.size - 1), rows, np.matmul,
        lambda i, j: f"in chevron column {i}",
    )
    return ChevronMap(offsets, taus, np.clip(readings[:, 1], 0.0, 1.0))
