"""Time-domain simulation: Lindblad evolution, staged flux pulses, chevrons.

Each pulse stage holds H constant, so the master equation
dρ/dt = -i[H, ρ] + Σ_k D[L_k]ρ has a constant generator L on it,
−i(H̃⊗1 − 1⊗H̃*) + Σ_k L_k⊗L̄_k on vec(ρ) with H̃ = H − (i/2)Σ_k L_k†L_k, and
the map across the stage is exactly exp(t·L), computed by scaling and
squaring with the degree-13 Padé approximant (Higham, SIAM J. Matrix Anal.
Appl. 26:1179, 2005); there is no step size.

L acts on the d² entries of ρ, or on the fewer of them that the evolution
can reach (below), so its exponential costs at most d⁶ time and d⁴
memory. Without collapse operators the same exponential of the d×d
generator -iHt gives U, applied as ρ → UρU†, which costs d³ time and d²
memory. Every stage map, lossy or not, comes from that one exponential.

Evolution runs on the smallest block of basis states the dynamics can
reach. The qubit and frame terms are diagonal and collapse operators lower
or count quanta, so unless a static coupling leads out of the states with
N ≤ N₀ (the largest N on the support of ρ₀, after its π-preps: a prep acts
at 0 ns only, as a permutation of the basis), as counter-rotating terms do,
they hold the whole evolution exactly and every operator is built on them
alone; otherwise the full space is used. A run whose stage map, block
Hamiltonians, states, readings or readout rows would not fit in memory is
refused by one guard, before anything of the block's size is built.

Within the block, an evolution on vec(ρ) keeps only the entries of vec(ρ)
that its maps can carry the support of ρ₀ to (:func:`_reachable`); no map
feeds the others, so they stay exactly 0 and every map is restricted to the
kept ones. In the rotating-wave model the maps conserve N(ket) − N(bra), so
from a population of the N ≤ 1 block 17 of its 25 entries are kept.

ρ is Hermitian and every map keeps it so, so the kept entries come in
transposed pairs and the evolution runs in real coordinates on them
(:func:`_hermitian_basis`): ρ_ii, and √2·Re ρ_ij, √2·Im ρ_ij for each pair
i < j. That change of basis T is unitary, so each map T A T† is a real
matrix acting on a real vector: generators, stage maps and readout rows are
float64, half the bytes of the complex maps, and their exponentials run in
real arithmetic. The final ρ is rebuilt from the real coordinates, its
transposed entries conjugates bit for bit. Operating points change only H's
diagonal, and a diagonal change only rotates the two coordinates of each
pair, so one generator is built per run and every point's is that one plus
the rotations (:func:`_rotated`).

:func:`evolve` and :func:`vacuum_rabi_chevron` run on one propagation core,
:func:`_propagate`, for stage durations and a table of qubit frequencies,
one row of it per member of a batch. It walks the stages one by one: a
stage's generators are built when it is entered, its maps as its samples
need them, and both are dropped when it is left, so memory does not grow
with the number of stages. A stage's samples lie one grid step apart, so
they are found by repeated squaring of the one step map (:func:`_walk`: r
samples in ⌈log₂ r⌉ batched products), in slices of at most
STACK_SLICE_BYTES of states. Each sample is read as rows · vec(ρ), row 0
being the trace, checked for drift as it is read, and an observable O the
row vec(Oᵀ). ``evolve`` is a batch of one, on U when it is lossless; the
chevron is one single-stage member per detuning column on the N ≤ 1 block,
on real vec(ρ) coordinates whenever it has more than one column, read after
a fixed readout delay by rows carried backwards through the padding (one
more stage, walked the same way) rather than every state forwards.

Units at the interface: linear GHz for frequencies, MHz for detunings
and couplings where noted, ns for times, µs for coherence times, which
``DeviceParams`` alone judges: every device it admits runs here.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GRID_TOL_NS, ConfigError, IntegrationError, require_count, require_memory, require_number,
    require_numbers, uneven_steps,
)
from .fock import HilbertSpace, _check_mode, lowering_operator, number_operator
from .device import (
    TWO_PI,
    DeviceParams,
    OperatingPoint,
    _require_resonator_clearance,
    device_model,
)

TRACE_TOL = 1e-8

POSITIVITY_TOL = 1e-8

# most bytes of states one propagation holds at a time: the states of a run of
# equal steps are found and read in slices of at most this size
STACK_SLICE_BYTES = 2**21

# peak bytes a cell of ChevronMap.to_csv, beyond about 7 kB a call: the cells'
# 12-byte digits and their scratch, lines of at most 46 characters in the buffer,
# and about 100 bytes a τ for all rows, its float and text (tracemalloc: 45 at the
# bench's 41 × 201 grid, 53 at the widest lines, 41 × 2001; 137-150 for one row
# of 200-20,001 τ)
CSV_CELL_BYTES = 160

# ASCII digits of 0-9999, four bytes a row (built in uint16, so that no temporary
# is large enough for the allocator to map and unmap it at import)
_DIGITS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
           % 10 + ord("0")).astype(np.uint8)


def _words(*columns) -> np.ndarray:
    """Texts of four ASCII bytes, given column by column, as one uint32 each."""
    return np.column_stack(columns).astype(np.uint8).view(np.uint32)[:, 0]


# the 12 bytes "d.ddddddddd\n" of a cell n = rint(1e9·p), 0 <= n <= 1e9, are three
# words: "d.dd" of n // 10**7, "dddd" of n // 1000 % 10**4 and "ddd\n" of n % 1000
_LEAD_WORDS = _words(_DIGITS[:101, 1], np.full(101, ord(".")), _DIGITS[:101, 2], _DIGITS[:101, 3])
_MID_WORDS = _DIGITS.view(np.uint32)[:, 0]
_LAST_WORDS = _words(_DIGITS[:1000, 1], _DIGITS[:1000, 2], _DIGITS[:1000, 3],
                     np.full(1000, ord("\n")))

_CSV_HEADER = b"detuning_mhz,tau_ns,p1\n"

# ---------------------------------------------------------------------------
# schedule and state types


@dataclass(frozen=True)
class Stage:
    """One piecewise-constant segment of a pulse schedule.

    ``prep`` of "pi_q1" or "pi_q2" swaps that qubit's lowest two levels,
    an instantaneous ideal flip (drive parameters are not modeled). It acts
    on ρ₀, so only a stage that starts at 0 ns may have one.
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
    An infinite lifetime (rate 1/∞ = 0) contributes nothing; with everything
    infinite the list is empty and evolution is unitary. The resonators have
    no measured loss rate and get no collapse operator. ``DeviceParams`` is
    the one judge of the times (positive, T2 ≤ 2·T1 + 1e-12 µs); a dephasing
    rate of at most 1e-15 /ns, negative within that margin, adds no operator.
    """
    return [amplitude * operator(space, mode)
            for amplitude, operator, mode in _collapse_terms(params)]


def _collapse_terms(params: DeviceParams) -> list:
    """(amplitude, operator function, mode) of each :func:`collapse_operators`
    member, so whether there are any is known without building one."""
    terms = []
    for qubit, mode in ((1, 2), (2, 3)):
        gamma1 = 1.0 / (getattr(params, f"t1_qubit{qubit}") * 1e3)
        gamma_phi = 1.0 / (getattr(params, f"t2_qubit{qubit}") * 1e3) - 0.5 * gamma1
        if gamma1 > 0:
            terms.append((math.sqrt(gamma1), lowering_operator, mode))
        if gamma_phi > 1e-15:
            terms.append((math.sqrt(2.0 * gamma_phi), number_operator, mode))
    return terms


# ---------------------------------------------------------------------------
# exact stage propagation


def _superoperator(h: np.ndarray, collapse) -> np.ndarray:
    """Lindblad generators on row-major vec(ρ) for a (…, n, n) stack of
    Hamiltonians and the n×n collapse operators ``collapse``.

    With H̃ = H − (i/2)Σ_k L_k†L_k the generator is
    −i(H̃⊗1 − 1⊗H̃*) + Σ_k L_k⊗L̄_k: row-major vectorization gives
    vec(AρB) = (A⊗Bᵀ)vec(ρ), and each A⊗B is the broadcast outer product
    A[i, j]·B[k, l] at ((i, k), (j, l)).
    """
    n = h.shape[-1]
    ls = np.reshape(collapse, (-1, n, n))
    eye = np.eye(n)
    heff = h - 0.5j * np.einsum("kji,kjl->il", ls.conj(), ls)
    jumps = np.einsum("kij,kab->iajb", ls, ls.conj())
    return (jumps - 1j * (heff[..., :, None, :, None] * eye[None, :, None, :]
                          - eye[:, None, :, None] * heff.conj()[..., None, :, None, :])
            ).reshape(*h.shape[:-2], n * n, n * n)


_SQRT_HALF = math.sqrt(0.5)
# the weights of a row of T on a diagonal entry, an (i, j) and a (j, i) entry,
# from the entry itself and its transpose (columns 0, 1 and -1)
_PAIR_WEIGHTS = np.array([[1.0, _SQRT_HALF, -1j * _SQRT_HALF], [0.0, _SQRT_HALF, 1j * _SQRT_HALF]])


def _hermitian_basis(keep: np.ndarray, n: int):
    """The map T from an n-state block's vec(ρ) to real coordinates on its
    kept entries ``keep`` (ascending flat indices, closed under transposition).

    Each kept diagonal entry ρ_ii stays; each kept pair (i, j), (j, i) with
    i < j becomes √2·Re ρ_ij in the place of (i, j) and √2·Im ρ_ij in that of
    (j, i). On the kept entries T is unitary. Returns ``up`` and ``lo``, the
    places of the pairs' (i, j) and (j, i) entries, and ``p``, ``w``: entry r
    of T·vec(ρ) is w[0, r]·vec(ρ)[p[0, r]] + w[1, r]·vec(ρ)[p[1, r]], so T is
    applied by gathers and never built as a matrix.
    """
    place = np.arange(keep.size)
    partner = np.full(n * n, -1)
    partner[keep] = place
    i, j = np.divmod(keep, n)
    partner = partner[j * n + i]  # the place of each entry's transpose
    assert (partner >= 0).all(), "kept entries are not closed under transposition"
    # (i, j) with i < j comes first in row-major order: side is 0 on the
    # diagonal, 1 for (i, j) and -1 for (j, i)
    side = np.sign(partner - place)
    up = np.flatnonzero(side > 0)
    p = np.empty((2, keep.size), dtype=int)
    np.minimum(place, partner, out=p[0])
    np.maximum(place, partner, out=p[1])
    return up, partner[up], keep[p], _PAIR_WEIGHTS[:, side]


def _real_map(a: np.ndarray, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """T a T† as float64 for a (…, M, M) stack of maps on vec(ρ) that preserve
    Hermiticity and keep the kept entries among themselves, whose imaginary
    part is then rounding alone (``p``, ``w`` from :func:`_hermitian_basis`)."""
    ta = w[0, :, None] * a.take(p[0], -2)
    ta += w[1, :, None] * a.take(p[1], -2)
    w = w.conj()
    tat = ta.take(p[0], -1) * w[0]
    tat += ta.take(p[1], -1) * w[1]
    return tat.real.copy()


def _reachable(vec0: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Mask of the entries of vec(ρ) that ``maps`` can carry the support of ``vec0`` to.

    ``maps`` is an (…, m, m) stack acting on an m-entry ``vec0``; the mask is
    its support closed under the nonzero pattern of every member. No map
    leads from an entry inside the mask to one outside it, so the entries
    outside stay exactly 0 and each map can be restricted to the mask, for
    any device, model or initial state.
    """
    links = np.any(maps.reshape(-1, vec0.size, vec0.size) != 0, axis=0)
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


def _expm_bytes(n: int, itemsize: int = 16) -> int:
    """Peak bytes of exponentiating one n×n matrix of ``itemsize``-byte
    entries, 16 for complex and 8 for real.

    :func:`_expm` peaks at eleven matrices of that size, its input
    included (the powers, the Padé sums and the solve); one more holds
    the map it returns. A d-state block has n = d for a lossless
    generator -iH, complex, and n ≤ d² for a Lindblad generator on the
    reachable entries of vec(ρ), real in Hermitian coordinates. A stack
    of m matrices takes m times as much.
    """
    return 12 * itemsize * n**2


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


def _rotated(g0: np.ndarray, shift: np.ndarray, up, lo, i, j) -> np.ndarray:
    """Real Lindblad generators for a (…, n) stack of shifts of H's diagonal,
    from the generator ``g0`` of the unshifted H (coordinates of
    :func:`_hermitian_basis`).

    A diagonal shift δ changes -i[H, ρ]_ij by -i(δ_i − δ_j)ρ_ij and nothing
    else, which on the coordinates up = √2·Re ρ_ij and lo = √2·Im ρ_ij of a
    kept pair (i, j) is the rotation G[up, lo] += ω, G[lo, up] −= ω at
    ω = δ_i − δ_j; every other entry stays that of ``g0``.
    """
    omega = shift[..., i] - shift[..., j]
    g = np.empty(omega.shape[:-1] + g0.shape)
    g[...] = g0
    g[..., up, lo] += omega
    g[..., lo, up] -= omega
    return g


def _walk(out: np.ndarray, powers: list, act) -> np.ndarray:
    """``out`` from its first state x on: u·x, u²·x, … by repeated squaring.

    ``powers`` starts as [u] and gains the u², u⁴, … the rounds need; without
    a map, [], every state is x. act(a, states, into) writes the images of a
    stack of states under the map a and broadcasts over the stack's leading
    axis. Round k applies u^(2^k) to the 2^k states found so far, so r states
    take ⌈log₂ r⌉ products and ⌈log₂ r⌉ − 1 squarings.
    """
    if not powers:
        out[1:] = out[:1]
        return out
    found = 1
    while found < len(out):
        k = found.bit_length() - 1
        if k == len(powers):
            powers.append(powers[-1] @ powers[-1])
        n = min(found, len(out) - found)
        act(powers[k], out[:n], out[found:found + n])
        found += n
    return out


def _propagate(params, space, durations, freqs, rho0, order, observables, n_samples,
               counter_rotating, frame_ghz, readout=None, member=None):
    """Sample times, readings (member, row, sample) and final states of a batch
    of evolutions through stages of ``durations``, member b holding the qubit
    frequencies ``freqs[k, b]`` on stage k ((stages, members, 2) GHz).

    Each member starts from ``rho0`` read in the basis order ``order``,
    rho0[order][:, order]. Row 0 reads the trace and row i + 1
    observable i, as vec(Oᵢᵀ) · vec(ρ). With a fixed ``readout`` ((f₁, f₂),
    t_ns), each sample is read after waiting at those frequencies until t_ns,
    by rows carried backwards from the readout through powers of the
    grid-step map.

    The evolution block is the states with N ≤ (largest N on the support of
    the state), or the full space if a static coupling of the cached device
    model leads out of them. With collapse operators, a readout or more than
    one member, maps act on the real Hermitian coordinates of the reachable
    entries of vec(ρ) (the state enters by its Hermitian part): the first
    point's generator G₀ is the real matrix T L₀ T† of its
    :func:`_superoperator`, every other point's is G₀ plus the rotations
    :func:`_rotated` gives for its diagonal, each stage map is real, the
    readout rows Re(rows · T†) and the state real, and the final ρ is T† x. A
    lone lossless member propagates ρ → UρU† with a complex U.

    The stages are walked one by one; the readout padding is one more stage,
    walked first for the rows. A stage's generators (one per member where its
    frequencies vary, one for all otherwise) are built when it is entered and
    its maps, each one :func:`_expm` stack, as its samples need them; both are
    dropped when it is left, and stages after the last sample are not entered.
    :func:`_walk` finds a stage's samples in slices of at most
    STACK_SLICE_BYTES, each opened by one map from the carried state: the hold
    to the stage's first sample, or one grid step. A slice is read with one
    product into the readings returned and its trace checked: a drift beyond
    TRACE_TOL (or a NaN) raises IntegrationError at the first failing member,
    then sample, of that slice, the member named as ``member`` and its index.

    One guard refuses, before anything of the block's size is built, a run
    that would take more than ``errors.MEMORY_LIMIT``: per member a stage map
    being exponentiated (8-byte entries on vec(ρ), 16 for U) with the
    generator, the stage's other maps and the step map's powers held beside
    it, a slice of states, its readings and final state; the complex
    generator; per point its block Hamiltonian, built in the frame rotating at
    ``frame_ghz`` times N; per sample its time and readout rows.
    """
    (n_stages, batch), n_rows = np.shape(freqs)[:2], 1 + len(observables)
    model = device_model(params, space, counter_rotating)
    n_exc = space.quanta.sum(axis=0)
    inside = n_exc <= n_exc[np.any(rho0 != 0, axis=1)[order]].max()
    if np.any(model.h_static[np.ix_(~inside, inside)]):
        inside[:] = True
    idx = np.flatnonzero(inside)
    # more than one member, a readout or collapse operators (known before the
    # guard without building any) put the evolution on vec(ρ)
    vec = bool(_collapse_terms(params)) or readout is not None or batch > 1
    m = idx.size**2 if vec else idx.size
    # stage k's points are points[k * batch:(k + 1) * batch], the readout's last
    points = np.reshape(freqs, (-1, 2))
    if readout is not None:
        points = np.vstack([points, readout[0]])
    # a state has at most idx.size² entries, real ones of 8 bytes on vec(ρ) and
    # complex ones of 16 for ρ; a slice holds as many states of the batch as
    # fit in STACK_SLICE_BYTES, one at least and no more than a run can use
    item = 8 if vec else 16
    per_slice = max(1, min(n_samples, STACK_SLICE_BYTES // (batch * item * idx.size**2)))
    # besides a map being exponentiated, a member holds its stage generator,
    # the scaled duration · g, the stage's other two maps and the step map's
    # ⌈log₂ per_slice⌉ powers, each of the map's size, and a slice of states
    # with one more being formed (U ρ of ρ → UρU†); all members share the
    # complex generator, and building a real generator from it peaks lower. A
    # sample's time is a float64 and a Python float in a list (40 bytes), and a
    # caller may hold two float64 grids of the samples (the chevron's checked τ
    # values and their steps); its readings take 8 bytes a row and member, and
    # its readout rows come with the readout step map's powers
    n_powers = (per_slice - 1).bit_length()
    require_memory(batch * (_expm_bytes(m, item) + (5 + n_powers) * item * m**2
                            + 2 * per_slice * item * idx.size**2 + 8 * n_rows * n_samples
                            + 16 * space.size**2)
                   + 16 * m**2 * vec + 8 * idx.size**2 * len(points)
                   + n_samples * 56 + (readout is not None) * item * m
                   * (n_samples * n_rows + (n_samples - 1).bit_length() * m),
                   f"{n_samples} samples of {batch} evolution(s) on a "
                   f"{idx.size}-state evolution block")
    hs = model.block(idx).stack(points[:, 0], points[:, 1])
    if frame_ghz:
        hs.reshape(len(hs), -1)[:, :: idx.size + 1] -= TWO_PI * frame_ghz * n_exc[idx]
    sel = np.ix_(idx, idx)
    block0 = rho0[np.ix_(order[idx], order[idx])]
    rows = np.stack([np.eye(idx.size)] + [o[sel].T for o in observables]).reshape(n_rows, -1)
    at = (idx[:, None] * space.size + idx).reshape(-1)  # flat indices in the full ρ
    if vec:
        # collapse operators lower or count the quanta of one mode, so they are
        # built on the product space truncated above the block's largest N in
        # every mode; it keeps two levels a mode at least and lists the block's
        # states in the order of ``space``
        sub = HilbertSpace([min(d, max(n_exc[idx].max(), 1) + 1) for d in space.dims])
        on = np.ravel_multi_index(space.quanta[:, idx], sub.dims)
        g0 = _superoperator(hs[0], [l[np.ix_(on, on)] for l in collapse_operators(params, sub)])
        # maps act on the entries of vec(ρ) they can reach; a point changes only
        # H's diagonal, so the first point's generator links the same entries as
        # every other's. Every map keeps ρ Hermitian, so from the support of ρ₀
        # closed under transposition the kept entries come in transposed pairs
        vec0, support = block0.reshape(-1), block0 != 0
        keep = np.flatnonzero(_reachable((support | support.T).reshape(-1), g0))
        # real Hermitian coordinates x = T vec(ρ) on the kept entries, in which
        # every map T A T† is real; a state is a row x, mapped by A as x Aᵀ
        up, lo, pick, weight = _hermitian_basis(keep, idx.size)
        pair = np.divmod(keep[up], idx.size)
        g0 = _real_map(g0, pick, weight)
        diagonal = hs.diagonal(0, 1, 2)
        x0 = (weight[0] * vec0[pick[0]] + weight[1] * vec0[pick[1]]).real
        rho = np.repeat(x0[None, None], batch, axis=1)
        # a reading keeps only the real part, so Re(rows · T†) reads x exactly
        rows = np.ascontiguousarray((rows.take(pick[0], -1) * weight[0].conj()
                                     + rows.take(pick[1], -1) * weight[1].conj()).real)
        at = at[keep]

        def act(u, x, out):
            np.matmul(x.swapaxes(0, 1), np.swapaxes(u, -1, -2), out=out.swapaxes(0, 1))
            return out

        def generator(k):
            return _rotated(g0, diagonal[k] - diagonal[0], up, lo, *pair)
    else:
        rho = np.repeat(block0[None, None], batch, axis=1)

        def act(u, x, out):
            return np.matmul(u @ x, np.swapaxes(u, -1, -2).conj(), out=out)

        def generator(k):
            return -1j * hs[k]

    def stage(k):
        """Stage k's hold (k = n_stages: the readout's), which returns the maps
        of a hold for ``duration``, none or one. The stage's generators (a stack
        of one per member where its frequencies vary, one for all otherwise)
        are built here and each map when first asked for, keyed by its duration
        to 1e-12 ns: uniform samples share one map, whatever their float noise."""
        at_k = slice(k * batch, (k + 1) * batch)
        g = generator(at_k if (points[at_k] != points[k * batch]).any() else k * batch)
        maps = {}

        def hold(duration: float) -> list[np.ndarray]:
            if duration <= 0:
                return []
            key = round(duration, 12)
            if key not in maps:
                maps[key] = [_expm(duration * g)]
            return maps[key]

        return hold

    times = np.linspace(0.0, sum(durations), n_samples)
    t = times.tolist()
    sample_rows = rows
    if readout is not None:
        # sample j waits at the readout point until the readout: its rows are
        # those of the readout carried back through the padding, then n - 1 - j
        # grid steps, all found by one walk
        hold = stage(n_stages)
        back = np.empty((n_samples, *rows.shape))
        pad = hold(readout[1] - t[-1])
        back[0] = rows @ pad[0] if pad else rows
        sample_rows = _walk(back, list(hold(t[1] - t[0])),
                            lambda u, q, into: np.matmul(q, u, out=into))[::-1]

    readings = np.empty((batch, n_rows, n_samples))

    def read(k, j, stack):
        """Read samples j, j + 1, … of stage k from a stack of their states."""
        at_j = slice(j, j + len(stack))
        rows_j = sample_rows if readout is None else sample_rows[at_j]
        readings[..., at_j] = (stack.reshape(len(stack), batch, -1)
                               @ np.swapaxes(rows_j, -1, -2)).real.transpose(1, 2, 0)
        bad = ~(np.abs(readings[:, 0, at_j] - 1.0) <= TRACE_TOL)  # a NaN trace counts as drift
        if bad.any():
            b, i = np.argwhere(bad)[0]
            where = f" in {member} {b}" if member else ""
            raise IntegrationError(f"trace drifted to {readings[b, 0, j + i]:.12f} at t = "
                                   f"{t[j + i]:.3f} ns (stage {k}, {idx.size}-state block){where}")

    # each stage walks its samples slice by slice, then holds on to its end; a
    # sample on a boundary is read in the stage it ends
    buffer = np.empty((per_slice, *rho.shape[1:]), dtype=rho.dtype)
    j, t_now, stage_end = 0, 0.0, 0.0
    for k, duration in enumerate(durations):
        if j == n_samples:
            break
        hold = stage(k)
        stage_end += duration
        end = n_samples if k + 1 == n_stages else bisect.bisect_right(
            t, stage_end + GRID_TOL_NS, j)
        if end > j:
            opening = hold(t[j] - t_now)
            step = list(hold(t[j + 1] - t[j])) if end > j + 1 else []
            for s in range(j, end, per_slice):
                run = buffer[:min(per_slice, end - s)]
                if opening:
                    act(opening[0], rho, run[:1])
                else:
                    run[:1] = rho
                read(k, s, _walk(run, step, act))
                rho, opening = run[-1:].copy(), step
            j, t_now = end, t[end - 1]
        for u in hold(stage_end - t_now):
            rho = act(u, rho, np.empty_like(rho))
        t_now = stage_end
    rho = rho.reshape(batch, -1)
    if vec:
        # vec(ρ) = T† x, whose transposed entries are conjugates bit for bit
        x, rho = rho, rho.astype(complex)
        rho[:, up] = (x[:, up] + 1j * x[:, lo]) * _SQRT_HALF
        rho[:, lo] = rho[:, up].conj()
    final = np.zeros((batch, space.size, space.size), dtype=complex)
    final.reshape(batch, -1)[:, at] = rho
    return times, readings, final


def _prep_order(space: HilbertSpace, stages) -> np.ndarray:
    """The basis order of ρ₀ after the π-preps of ``stages``: the prepared
    state is ρ₀[order][:, order]. Each prep swaps levels 0 and 1 of a qubit, a
    permutation that is its own inverse and commutes with the others; a prep
    on a stage that starts after 0 ns is a ConfigError."""
    order, start = np.arange(space.size), 0.0
    for st in stages:
        if st.prep:
            if start > 0:
                raise ConfigError(f"a prep acts at 0 ns only, got {st.prep!r} at {start} ns")
            mode = 2 if st.prep == "pi_q1" else 3
            _check_mode(space, mode)
            n = space.quanta[mode, order]
            order = order + np.select([n == 0, n == 1], [1, -1]) * space.strides[mode]
        start += st.duration_ns
    return order


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

    ``initial`` must live on ``space`` itself. The preps of the stages that
    start at 0 ns act on it as one basis permutation (:func:`_prep_order`);
    a prep on a later stage raises ConfigError before anything is built. The
    run is a batch of one of :func:`_propagate`, with the exact stage maps
    the module docstring describes, built one stage at a time and dropped
    after it, so memory does not grow with the number of stages. A stage
    map, stage Hamiltonians or readings that would not fit in memory raise
    ConfigError from one guard, before anything of the block's size is
    built, and a trace drift beyond 1e-8 (or a NaN), checked as each sample
    is read, aborts there with diagnostics.
    """
    if initial.space != space:
        raise ConfigError(f"initial state lives on {initial.space}, not on {space}")
    order = _prep_order(space, schedule.stages)
    n_samples = require_count(n_samples, "number of sample points", 2)
    frame_ghz = require_number(frame_ghz, "frame frequency")
    if frame_ghz != 0.0 and include_counter_rotating:
        raise ConfigError(
            "a rotating frame is only exact for the excitation-conserving model; "
            "disable counter-rotating terms or use frame_ghz=0"
        )
    initial.validate()
    observables = {n: _observable(op, space, n) for n, op in observables.items()}
    times, readings, final = _propagate(
        params, space, [st.duration_ns for st in schedule.stages],
        [[(st.point.qubit_freq_1, st.point.qubit_freq_2)] for st in schedule.stages],
        initial.rho, order, list(observables.values()), n_samples, include_counter_rotating,
        frame_ghz,
    )
    records = {n: readings[0, i + 1] for i, n in enumerate(observables)}
    return TraceSeries(times, records, DensityState(space, final[0]))


# ---------------------------------------------------------------------------
# chevron


@dataclass(frozen=True)
class ChevronMap:
    """Qubit-1 population versus interaction time and qubit detuning.

    A ``p1`` cell that is not finite raises ConfigError, and one outside
    [0, 1] by more than 1e-6 IntegrationError. ``p1`` is stored as float64
    clipped to [0, 1], −0.0 as +0.0, C-contiguous and read-only."""

    detunings_mhz: np.ndarray
    taus_ns: np.ndarray
    p1: np.ndarray  # shape (len(detunings), len(taus))

    def __post_init__(self):
        if self.p1.shape != (len(self.detunings_mhz), len(self.taus_ns)):
            raise ConfigError("chevron population matrix has the wrong shape")
        if not np.isfinite(self.p1).all():
            raise ConfigError("chevron population must be finite, got a NaN or infinite cell")
        if self.p1.min() < -1e-6 or self.p1.max() > 1.0 + 1e-6:
            raise IntegrationError(
                f"population outside [0, 1]: range [{self.p1.min():.2e}, {self.p1.max():.2e}]"
            )
        p1 = np.ascontiguousarray(np.clip(self.p1, 0.0, 1.0), dtype=float)
        p1 += 0.0  # np.clip keeps −0.0, and −0.0 + 0.0 is +0.0
        p1.flags.writeable = False
        object.__setattr__(self, "p1", p1)

    def to_csv(self) -> bytearray:
        """The CSV as ASCII bytes, one line per cell, detuning-major (see
        :func:`_csv_bytes`).

        ConfigError first if CSV_CELL_BYTES a cell would exceed
        ``errors.MEMORY_LIMIT``.
        """
        require_csv_memory(self.p1.shape)
        return _csv_bytes(self.detunings_mhz, self.taus_ns, self.p1)


def _csv_bytes(detunings: np.ndarray, taus: np.ndarray, p: np.ndarray) -> bytearray:
    """The CSV of a chevron map, written into one byte buffer.

    Each detuning and each τ is formatted once (``.9g``), and the layout of
    the lines follows from the lengths of those texts. Every cell is 12
    bytes, ``f"{p:.9f}"`` and a newline, as ``ChevronMap`` holds p in [0, 1]
    without −0.0. Where 1e9·p lies more than 1e-6 from a half-integer it is
    written as the digits of n = rint(1e9·p): the product is off by less than
    1.2e-7 there, so no rounding tie lies between it and the exact value, and
    the digits are those of ``f"{p:.9f}"``. A near-tie is written as that text.
    """
    heads = [f"{d:.9g}".encode() for d in detunings.tolist()]
    width = np.array([len(h) for h in heads])
    texts = [f"{t:.9g}" for t in taus.tolist()]
    tau_len = np.fromiter(map(len, texts), np.intp, len(texts))
    tau_text = "\n".join(texts).encode()
    del texts

    scaled = p * 1e9
    n = np.rint(scaled)
    # |1e9·p − n| >= 0.5 − 1e-6: 1e9·p is within 1e-6 of a half-integer
    ties = np.nonzero(np.abs(scaled - n) >= 0.5 - 1e-6)
    del scaled
    n = n.astype(np.intp)
    words = np.empty(p.shape + (3,), np.uint32)  # "d.dd", "dddd", "ddd\n"
    q = n // 1000
    words[..., 2] = _LAST_WORDS[n - 1000 * q]
    n = q // 10_000
    words[..., 1] = _MID_WORDS[q - 10_000 * n]
    words[..., 0] = _LEAD_WORDS[n]
    del n, q
    cells = words.view("V12")[..., 0]
    cells[ties] = np.frombuffer("".join(f"{v:.9f}\n" for v in p[ties].tolist()).encode(), "V12")

    row_len = p.shape[1] * (width + 14) + tau_len.sum()
    row_end = (np.cumsum(row_len) + len(_CSV_HEADER)).tolist()
    buf = bytearray(row_end[-1])
    buf[:len(_CSV_HEADER)] = _CSV_HEADER
    # each run of rows whose detuning texts are equally wide: a row's template,
    # then the detuning texts and the cells at their places in its lines
    starts = np.flatnonzero(np.diff(width, prepend=0)).tolist()
    for a, b in zip(starts, starts[1:] + [len(heads)]):
        w, size = int(width[a]), int(row_len[a])
        sep = b"," + bytes(12 + w) + b","
        template = b"".join([bytes(w) + b",", tau_text.replace(b"\n", sep), b"," + bytes(12)])
        line = w + tau_len + 14  # detuning, τ, two commas and a 12-byte cell
        head_at = np.cumsum(line) - line
        start = row_end[a] - size
        np.ndarray((b - a, size), np.uint8, buf, start)[:] = np.frombuffer(template, np.uint8)
        _windows(buf, start, b - a, size, w)[:, head_at] = np.frombuffer(
            b"".join(heads[a:b]), f"V{w}")[:, None]
        _windows(buf, start, b - a, size, 12)[:, head_at + w + tau_len + 2] = cells[a:b]
    return buf


def _windows(buf: bytearray, start: int, rows: int, size: int, item: int) -> np.ndarray:
    """The ``item``-byte windows of ``rows`` rows of ``size`` bytes at ``start`` of
    ``buf``, one at every byte of a row: a (rows, size − item + 1) void array."""
    return np.ndarray((rows, size - item + 1), f"V{item}", buf, start, (size, 1))


def require_csv_memory(shape: tuple[int, int]) -> None:
    """ConfigError unless the CSV of a chevron of ``shape`` (detunings, taus),
    CSV_CELL_BYTES a cell, fits in ``errors.MEMORY_LIMIT``."""
    require_memory(CSV_CELL_BYTES * shape[0] * shape[1], f"the CSV of a {shape} chevron")


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
    readout. The columns are one batch of :func:`_propagate`, the core of
    :func:`evolve`: one stage of τ_max whose frequency table holds each
    column's interaction point, in the excitation-conserving model on the
    exact N ≤ 1 block, in real Hermitian coordinates on the reachable entries
    of vec(ρ): 17 with dissipation, 16 without (a lone lossless column
    without a readout delay runs as U on the block, as ``evolve`` does). The
    columns differ only on H's diagonal, so each column's generator is the
    first one's plus a rotation of each pair of coordinates; the τ grid is
    reached by repeated squaring of each column's one step map, and the
    readout rows by powers of the padding's. A trace drift beyond 1e-8 (or a
    NaN), checked as each slice of τ values is read, raises IntegrationError
    naming the first such column of that slice. The map is a
    ``ChevronMap``, which raises IntegrationError on a population outside
    [0, 1] beyond rounding and clips the rounding. Every device
    ``DeviceParams`` admits runs.

    ``q2_target``, the offsets, the τ values and a readout delay must be
    finite numbers, the offsets strictly ascending (a single offset is
    one) and every qubit-1 hold positive, and the τ values a uniform
    ascending grid from 0. The core's one memory guard refuses a grid whose
    stack of step maps, states and readings would exceed
    ``errors.MEMORY_LIMIT`` before any column's map is built.
    """
    q2_target = require_number(q2_target, "interaction point", positive=True)
    _require_resonator_clearance(params, q2_target, "interaction point")
    taus = require_numbers(taus_ns, "interaction times")
    if taus.size < 2:
        raise ConfigError("chevron needs at least 2 interaction times")
    dt = np.diff(taus)
    if abs(taus[0]) > 1e-12 or dt.min() <= 0 or uneven_steps(dt):
        raise ConfigError("interaction times must be a finite uniform ascending grid from 0")
    offsets = require_numbers(q1_offsets_mhz, "detuning offsets")
    if offsets.size < 1:
        raise ConfigError("need at least one detuning offset")
    if (np.diff(offsets) <= 0).any():
        raise ConfigError("detuning offsets must be strictly ascending")
    if prep_to_readout_ns is not None:
        prep_to_readout_ns = require_number(prep_to_readout_ns, "prep-to-readout interval")
        if prep_to_readout_ns < taus[-1] - GRID_TOL_NS:
            raise ConfigError(
                f"prep-to-readout interval {prep_to_readout_ns} ns shorter than the "
                f"longest interaction time {taus[-1]} ns"
            )

    # two levels per mode hold the N <= 1 block, where the anharmonic term vanishes
    space = HilbertSpace((2, 2, 2, 2))
    holds = np.stack([q2_target + offsets * 1e-3, np.full(offsets.size, q2_target)], axis=-1)
    require_numbers(holds[:, 0], "qubit-1 interaction frequency", positive=True)
    readout = None if prep_to_readout_ns is None else (
        (bias.qubit_freq_1, bias.qubit_freq_2), prep_to_readout_ns)
    _, readings, _ = _propagate(
        params, space, [float(taus[-1])], holds[None],
        DensityState.single_excitation(space, 3).rho, np.arange(space.size),
        [number_operator(space, 2)], taus.size, False, q2_target, readout, "chevron column",
    )
    return ChevronMap(offsets, taus, readings[:, 1])
