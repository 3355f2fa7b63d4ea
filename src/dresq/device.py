"""Device parameters, Hamiltonian model, analytic effective coupling.

The model is a two-qubit device coupled through two bus resonators plus a
small direct capacitive term. Externally everything is expressed in linear
frequency (GHz) and microseconds; the Hamiltonian model converts to
angular frequency in rad/ns at its boundary and nothing else ever does.

Mode order on the Hilbert space is fixed: (resonator a, resonator b,
qubit 1, qubit 2).

Along any sweep only the two qubit frequencies change, so the Hamiltonian
is split once per (device, truncation, model) into a static real symmetric
part and the two qubit number diagonals (:class:`DeviceModel`, cached by
:func:`device_model`). The exchange part of every coupling keeps the total
excitation number and its counter-rotating part changes it by two, so
excitation parity is conserved and the even and odd blocks can be
diagonalized separately.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, asdict, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError, PhysicsError, require_count, require_memory, require_number, require_numbers,
)
from .fock import HilbertSpace

TWO_PI = 2.0 * math.pi

MODE_NAMES = ("a", "b", "q1", "q2")

# index pairs into MODE_NAMES for every coupling line of the Hamiltonian
_RESONATOR_QUBIT_PAIRS = {
    "g_a1": (0, 2),
    "g_a2": (0, 3),
    "g_b1": (1, 2),
    "g_b2": (1, 3),
}

_MODE_FREQ_FIELDS = ("resonator_freq_a", "resonator_freq_b", "qubit_max_freq_1", "qubit_max_freq_2")
_COUPLING_FIELDS = ("g_a1", "g_a2", "g_b1", "g_b2", "g_ab", "g_12")

DEGENERACY_TOL_GHZ = 1e-6

# peak bytes a point of effective_coupling on an array: the frequencies checked
# and stacked twice (24), Δ and Σ of the four paths (64) and at most three more
# arrays of them (96); 148 measured
ANALYTIC_POINT_BYTES = 184


@dataclass(frozen=True)
class DeviceParams:
    """Full static parameter set of the device.

    Frequencies and couplings in linear GHz, coherence times in µs, flux
    controls in whatever control unit the hardware uses (mA for DC bias,
    mV for pulse amplitude); one flux period spans one flux quantum.

    Defaults describe the measured device: resonators near 4.47 and
    4.80 GHz, qubit sweet spots at 4.641 and 4.91 GHz, qubit-resonator
    couplings of 27 and 30 MHz, and a 0.88 MHz direct qubit-qubit term.
    The resonator-resonator coupling and the anharmonicities were not
    measured; g_ab defaults to zero and the anharmonicity α to -0.250.
    The Hamiltonian adds α·n(n−1) = α a†a†aa per qubit, so the 1→2
    transition lies 2α (−500 MHz at the default) below the 0→1 one.

    The model describes a device whose mode frequencies (resonators and
    qubit sweet spots) are above 0 GHz and whose |α| and |g| are below half
    the lowest of them; any other raises ConfigError naming the field. A
    coupling of a tenth of that frequency or more warns.
    """

    resonator_freq_a: float = 4.47
    resonator_freq_b: float = 4.80
    qubit_max_freq_1: float = 4.641
    qubit_max_freq_2: float = 4.91
    anharmonicity_1: float = -0.250
    anharmonicity_2: float = -0.250
    g_a1: float = 0.027
    g_a2: float = 0.027
    g_b1: float = 0.030
    g_b2: float = 0.030
    g_ab: float = 0.0
    g_12: float = 0.00088
    flux_period_1: float = 1.0
    flux_period_2: float = 1.0
    flux_offset_1: float = 0.0
    flux_offset_2: float = 0.0
    t1_qubit1: float = 10.0
    t1_qubit2: float = 10.0
    t2_qubit1: float = 1.5
    t2_qubit2: float = 1.5

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            # infinite coherence times mean "no dissipation"; everything else
            # must be finite. An int or float is kept as given, so to_json
            # keeps its bytes; another number type becomes a float.
            if not (f.name.startswith(("t1_", "t2_")) and isinstance(v, float) and math.isinf(v)):
                number = require_number(v, f"parameter {f.name}")
                if not isinstance(v, (int, float)):
                    object.__setattr__(self, f.name, number)
        for name in _MODE_FREQ_FIELDS:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be above 0 GHz, got {getattr(self, name)}")
        min_freq = min(getattr(self, name) for name in _MODE_FREQ_FIELDS)
        for name in ("anharmonicity_1", "anharmonicity_2", *_COUPLING_FIELDS):
            if not abs(getattr(self, name)) < min_freq / 2:
                raise ConfigError(
                    f"|{name}| = {abs(getattr(self, name))} GHz is not below half the lowest "
                    f"mode frequency, {min_freq} GHz"
                )
        if not self.resonator_freq_a < self.resonator_freq_b:
            raise ConfigError(
                "resonator_freq_a must be below resonator_freq_b "
                f"(got {self.resonator_freq_a} >= {self.resonator_freq_b})"
            )
        for q in (1, 2):
            t1 = getattr(self, f"t1_qubit{q}")
            t2 = getattr(self, f"t2_qubit{q}")
            if t1 <= 0 or t2 <= 0:
                raise ConfigError(f"coherence times of qubit {q} must be positive")
            if t2 > 2.0 * t1 + 1e-12:
                raise ConfigError(
                    f"t2_qubit{q} = {t2} exceeds 2*t1_qubit{q} = {2 * t1}"
                )
        if self.flux_period_1 == 0 or self.flux_period_2 == 0:
            raise ConfigError("flux periods must be nonzero")
        max_g = max(abs(getattr(self, name)) for name in _COUPLING_FIELDS)
        if max_g >= min_freq / 10.0:
            warnings.warn(
                f"largest coupling {max_g} GHz is not small against the lowest "
                f"mode frequency {min_freq} GHz; dispersive formulas may be poor",
                stacklevel=2,
            )

    @property
    def max_qubit_resonator_coupling(self) -> float:
        return max(abs(self.g_a1), abs(self.g_a2), abs(self.g_b1), abs(self.g_b2))

    def replace(self, **changes) -> "DeviceParams":
        d = asdict(self)
        d.update(changes)
        return DeviceParams(**d)

    def to_dict(self) -> dict:
        """Every field by name, an infinite lifetime as None, as :meth:`to_json` writes it."""
        return {k: None if math.isinf(v) else v for k, v in vars(self).items()}

    def to_json(self) -> str:
        """Flat JSON that :meth:`from_json` reads back; an infinite lifetime is null."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DeviceParams":
        """Parse a flat JSON device file; unknown and repeated keys are rejected.

        Missing keys fall back to the defaults. Infinite coherence times
        may be written as null.
        """
        try:
            raw = json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to parse
            raise ConfigError(f"device file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("device file must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown device keys: {', '.join(unknown)}")
        cleaned = {}
        for key, value in raw.items():
            if value is None and key.startswith(("t1_", "t2_")):
                value = math.inf
            cleaned[key] = value
        return cls(**cleaned)


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; ConfigError names a repeated key."""
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ConfigError(f"device file repeats key {key!r}")
        raw[key] = value
    return raw


@dataclass(frozen=True)
class OperatingPoint:
    """Instantaneous qubit transition frequencies, linear GHz, kept as checked floats."""

    qubit_freq_1: float
    qubit_freq_2: float

    def __post_init__(self):
        for name in ("qubit_freq_1", "qubit_freq_2"):
            object.__setattr__(self, name, require_number(getattr(self, name), name, positive=True))


def _require_resonator_clearance(params: DeviceParams, freq_ghz: float, what: str) -> None:
    """PhysicsError if ``freq_ghz`` is within 3·max g_qr of a resonator.

    A qubit there hybridizes with the resonator, so neither level tracking
    nor the two-qubit exchange picture holds. A distance short of the
    clearance by no more than 1e-12 GHz, the rounding of a difference of
    decimal frequencies (4.80 − 4.71 is 0.08999999999999986), is admitted.
    """
    clearance = 3.0 * params.max_qubit_resonator_coupling
    for tag, f_res in (("a", params.resonator_freq_a), ("b", params.resonator_freq_b)):
        if abs(freq_ghz - f_res) < clearance - 1e-12:
            raise PhysicsError(
                f"{what} {freq_ghz} GHz is {abs(freq_ghz - f_res) * 1e3:.1f} MHz from "
                f"resonator {tag} (needs {clearance * 1e3:.1f} MHz clearance)"
            )


def model_bytes(dims) -> int:
    """Peak bytes of building a DeviceModel on ``dims`` and diagonalizing it.

    Building holds the float64 d×d H_static, and its symmetry check two
    temporaries of the same size (M − Mᵀ and its magnitude); every coupling
    line is scattered onto its index pairs in O(d). A real ``eigh`` of the
    largest excitation-parity block, ⌈d/2⌉ states, takes six of its own
    size: the block, LAPACK's copy and 2n² workspace, the eigenvectors and
    their squared weights. The blocks a model keeps (both parity blocks
    and the co-tuned sectors, under ¾d² entries) fit beside H_static within
    the 3d² once the check's temporaries are freed.
    """
    d = math.prod(dims)
    n = (d + 1) // 2
    return 8 * (3 * d * d + 6 * n * n)


class Block(NamedTuple):
    """H compressed onto an orthonormal set of basis vectors: ``template`` is
    h_static on it, and ``n_q1`` and ``n_q2`` are the qubit number operators on
    it, diagonal there."""

    template: np.ndarray
    n_q1: np.ndarray
    n_q2: np.ndarray

    def diagonals(self, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
        """The (k, n) qubit terms 2π(f₁[k] n_q1 + f₂[k] n_q2) of each point's diagonal."""
        return (TWO_PI * f1)[:, None] * self.n_q1 + (TWO_PI * f2)[:, None] * self.n_q2

    def stack(self, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
        """The (k, n, n) stack ``template`` + :meth:`diagonals` at the points (f1[k], f2[k]).

        It trusts its callers: ``f1`` and ``f2`` are equal-length 1-d float64
        arrays of qubit frequencies (GHz) already checked positive and finite.
        A call copies the template and adds the diagonals, so every member is
        bit-identical to the stack of one built at its point alone.
        """
        n = self.template.shape[0]
        h = np.empty((f1.size, n, n))
        h[:] = self.template
        h.reshape(f1.size, n * n)[:, :: n + 1] += self.diagonals(f1, f2)
        return h


class DeviceModel:
    """H/ħ in rad/ns on the 4-mode space (a, b, q1, q2), split by dependence.

    ``h_static`` holds the resonator energies, the qubit anharmonicities
    α a†a†aa and every coupling line. Each line has the exchange form
    g(c†a + ca†); with ``include_counter_rotating`` it also carries the
    -(c†a† + ca) pair-creation part. Setting the flag False gives the
    excitation-conserving rotating-wave model. All elements are real, so
    H is stored as float64, and it is checked symmetric once, here.
    ``n_q1`` and ``n_q2`` are the qubit number diagonals that
    :meth:`Block.stack` scales by the qubit frequencies; ``even`` and
    ``odd`` are the basis indices of the two excitation-parity blocks,
    which no term of H couples. The model keeps three blocks, each built
    on first use: :attr:`even_block`, :attr:`odd_block` and the co-tuned
    sectors of the odd block (:attr:`cotuned_sectors`); any other block is
    restricted again on every call (:meth:`block`). Arrays are read-only:
    one model is shared by every caller of :func:`device_model`, as are the
    blocks it keeps.

    Raises ConfigError when :func:`model_bytes` exceeds
    ``errors.MEMORY_LIMIT``, before anything of the space's size is allocated.
    """

    def __init__(
        self, params: DeviceParams, space: HilbertSpace, include_counter_rotating: bool
    ):
        if space.n_modes != 4:
            raise ConfigError(f"device Hamiltonian needs 4 modes, space has {space.n_modes}")
        require_memory(model_bytes(space.dims), f"a {space.size}-state device model")
        self.space = space
        parity = space.quanta.sum(axis=0) % 2
        self.even = np.flatnonzero(parity == 0)
        self.odd = np.flatnonzero(parity == 1)
        self.n_q1 = space.quanta[2].astype(float)
        self.n_q2 = space.quanta[3].astype(float)
        self.h_static = _static_hamiltonian(params, space, include_counter_rotating)
        asym = float(np.abs(self.h_static - self.h_static.T).max())
        if asym != 0.0:
            raise ConfigError(f"assembled Hamiltonian not symmetric (defect {asym:.2e})")
        for a in (self.even, self.odd, self.n_q1, self.n_q2, self.h_static):
            a.flags.writeable = False

    def block(self, idx: np.ndarray) -> Block:
        """``h_static``, ``n_q1`` and ``n_q2`` on the basis states ``idx``, an index
        array (``np.arange(d)`` for the whole space), restricted anew on every call."""
        return Block(self.h_static[np.ix_(idx, idx)], self.n_q1[idx], self.n_q2[idx])

    @functools.cached_property
    def even_block(self) -> Block:
        """The kept :meth:`block` of the even states."""
        return _read_only(self.block(self.even))

    @functools.cached_property
    def odd_block(self) -> Block:
        """The kept :meth:`block` of the odd states, every single excitation among them."""
        return _read_only(self.block(self.odd))

    @functools.cached_property
    def cotuned_sectors(self) -> tuple[Block, ...]:
        """The odd block at co-tuned points f₁ = f₂, as one or two kept blocks.

        The qubit exchange P maps each basis state to the one with the qubits'
        quanta exchanged, and keeps the excitation number. H(f, f) commutes
        with it when the qubits have equal dimensions, n_q1 permuted by P is
        n_q2 and the odd block of h_static is invariant under P, all checked
        exactly. Then its odd block is the direct sum of the symmetric sector,
        each state with Ps = s and (|s⟩ + |Ps⟩)/√2 of each pair, and the
        antisymmetric one, (|s⟩ − |Ps⟩)/√2, s the pair's lower index: 26 and
        14 of 40 states at 3⁴, 80 and 48 of 128 at 4⁴. A sector entry is
        (H[s, t] ± H[s, Pt]) times ½ between two states with Ps = s, √½
        between one and a pair and 1 between pairs, gathered from the odd
        block. Its number diagonals are n_q1 and n_q2 compressed onto the
        sector, (n_q1 + n_q2)/2 each, so its stack is its block of H at
        co-tuned points only. Any other device has one sector,
        :attr:`odd_block` itself.
        """
        space, odd = self.space, self.odd_block
        if space.dims[2] != space.dims[3]:
            return (odd,)
        swap = np.ravel_multi_index(space.quanta[[0, 1, 3, 2]], space.dims)
        at = np.searchsorted(self.odd, swap[self.odd])
        h = odd.template
        if not (np.array_equal(self.n_q1[swap], self.n_q2)
                and np.array_equal(h, h[np.ix_(at, at)])):
            return (odd,)
        position = np.arange(at.size)
        sectors = []
        for sign, states in ((1.0, np.flatnonzero(position <= at)),
                             (-1.0, np.flatnonzero(position < at))):
            weight = np.where(at[states] == states, 0.5, 1.0)
            template = np.sqrt(np.multiply.outer(weight, weight)) * (
                h[np.ix_(states, states)] + sign * h[np.ix_(states, at[states])])
            number = 0.5 * (odd.n_q1[states] + odd.n_q2[states])
            sectors.append(_read_only(Block(template, number, number)))
        return tuple(sectors)


def _read_only(block: Block) -> Block:
    """``block`` with its arrays made read-only, as a model keeps it."""
    for a in block:
        a.flags.writeable = False
    return block


def _static_hamiltonian(
    params: DeviceParams, space: HilbertSpace, include_counter_rotating: bool
) -> np.ndarray:
    """The point-independent part of H, scattered from the occupation table.

    A coupling line touches only the basis states whose occupations differ
    by one quantum in each of its two modes, so it is written onto those
    index pairs in O(d), with the products a matrix product of the ladder
    operators forms: √(n_i+1)·√n_j for c_i†c_j and √n_i·√n_j for c_i c_j,
    taken at the column state.
    """
    n = space.quanta
    n_a, n_b, n_1, n_2 = n
    strides = space.strides
    h = np.diag(TWO_PI * (
        params.resonator_freq_a * n_a
        + params.resonator_freq_b * n_b
        + params.anharmonicity_1 * n_1 * (n_1 - 1)
        + params.anharmonicity_2 * n_2 * (n_2 - 1)
    ))
    lines = [(getattr(params, name), i, j) for name, (i, j) in _RESONATOR_QUBIT_PAIRS.items()]
    lines += [(params.g_ab, 0, 1), (params.g_12, 2, 3)]
    for g_ghz, i, j in lines:
        if g_ghz == 0.0:
            continue
        scale = TWO_PI * g_ghz
        # c_i† c_j moves a quantum from mode j to mode i
        col = np.flatnonzero((n[i] < space.dims[i] - 1) & (n[j] > 0))
        pairs = [(col + strides[i] - strides[j], col,
                  scale * (np.sqrt(n[i][col] + 1) * np.sqrt(n[j][col])))]
        if include_counter_rotating:
            # -c_i c_j removes one quantum from each
            col = np.flatnonzero((n[i] > 0) & (n[j] > 0))
            pairs.append((col - strides[i] - strides[j], col,
                          scale * -(np.sqrt(n[i][col]) * np.sqrt(n[j][col]))))
        # each line with its Hermitian conjugate
        for row, col, value in pairs:
            h[row, col] = value
            h[col, row] = value
    return h


@functools.lru_cache(maxsize=4)
def device_model(
    params: DeviceParams, space: HilbertSpace, include_counter_rotating: bool
) -> DeviceModel:
    """The DeviceModel of one (device, truncation, model), built on first use."""
    return DeviceModel(params, space, include_counter_rotating)


def effective_coupling(params: DeviceParams, point) -> float | np.ndarray:
    """Analytic net qubit-qubit exchange strength, signed, in GHz.

    Sums the virtual-photon paths through both resonators plus the direct
    term:

        g_eff = 1/2 * Σ_λβ [ g_λ1 g_λ2 / Δ_λβ  -  g_λ1 g_λ2 / Σ_λβ ] + g_12

    with Δ_λβ = ω_β − ω_λ and Σ_λβ = ω_β + ω_λ. The expression is
    homogeneous of degree zero in the overall frequency scale, so linear
    GHz inputs give the answer directly in GHz. ``point`` is an OperatingPoint,
    giving a float, or a 1-d array of co-tuned qubit frequencies in GHz,
    giving an array bit-identical to the floats; an array whose
    ANALYTIC_POINT_BYTES a point would exceed ``errors.MEMORY_LIMIT`` is
    refused with ConfigError.

    This is the second-order dispersive result (Yan et al., Phys. Rev.
    Applied 10, 054062 (2018)), valid to leading order in g/|Δ|: its
    residual against half the exact co-tuned splitting is of fourth order
    in the couplings (acceptance criterion 1). At the default couplings it
    overestimates |g_eff| against exact diagonalization, by 13 % at
    4.58 GHz and 76 % at 4.76 GHz, where g/|Δ| reaches 0.75.

    The formula has no term for the resonator-resonator path through
    ``g_ab``, which :class:`DeviceModel` includes, so a device with
    ``g_ab`` != 0 raises ConfigError rather than getting a wrong answer.
    """
    if params.g_ab != 0.0:
        raise ConfigError(
            f"g_ab = {params.g_ab} GHz: the analytic effective coupling omits the "
            "resonator-resonator path through g_ab; use exact diagonalization "
            "(cotuned_half_gap, qubit_qubit_gap) for such a device"
        )
    scalar = isinstance(point, OperatingPoint)
    if scalar:
        f_q = np.array([[point.qubit_freq_1], [point.qubit_freq_2]])
    else:
        f_q = require_numbers(point, "co-tuned frequencies", positive=True)
        require_memory(ANALYTIC_POINT_BYTES * f_q.size,
                       f"the analytic coupling at {f_q.size} points")
        f_q = np.array([f_q] * 2)
    # [λ, β - 1, k] is resonator λ (a, b) and qubit β at point k, summed path by path
    f_res = np.array([params.resonator_freq_a, params.resonator_freq_b])[:, None, None]
    product = np.array([params.g_a1 * params.g_a2, params.g_b1 * params.g_b2])[:, None, None]
    delta, sigma = f_q - f_res, f_q + f_res
    degenerate = np.abs(delta) <= DEGENERACY_TOL_GHZ
    if degenerate.any():
        lam, beta = np.argwhere(degenerate.any(axis=2))[0]
        raise PhysicsError(
            f"qubit {beta + 1} is degenerate with resonator {'ab'[lam]} "
            f"(|Δ| = {np.abs(delta[lam, beta]).min():.2e} GHz); the dispersive formula diverges"
        )
    paths = 0.5 * (product / delta - product / sigma)
    total = functools.reduce(np.add, paths.reshape(4, -1), 0.0) + params.g_12
    return float(total[0]) if scalar else total


def find_switch_off(params: DeviceParams, search_interval: tuple[float, float]) -> float:
    """Co-tuned qubit frequency where the effective coupling vanishes.

    Both qubits are swept together (ω_1 = ω_2 = ω) over ``search_interval``,
    (start, stop) in GHz, strictly inside (resonator_freq_a, resonator_freq_b).
    There g = g_12 + Σ_λ 2 g_λ1 g_λ2 ω_λ / (ω² − ω_λ²), times the nonzero
    (ω² − ω_a²)(ω² − ω_b²), is a quadratic in ω², so where g changes sign on
    the interval exactly one root lies in it: returned in closed form, the
    same float for every interval that holds it. Through
    :func:`effective_coupling` it raises ConfigError if ``g_ab`` != 0.
    """
    lo = require_number(search_interval[0], "search interval start")
    hi = require_number(search_interval[1], "search interval stop")
    if not lo < hi:
        raise ConfigError(f"search interval must be increasing, got ({lo}, {hi})")
    if lo <= params.resonator_freq_a or hi >= params.resonator_freq_b:
        raise PhysicsError(
            f"no sign change attainable: interval ({lo}, {hi}) must lie strictly "
            f"inside the resonator band ({params.resonator_freq_a}, "
            f"{params.resonator_freq_b}) for the coupling to change sign"
        )

    g_lo, g_hi = effective_coupling(params, [lo, hi]).tolist()
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0:
        raise PhysicsError(
            "no sign change of the effective coupling on the interval: "
            f"g({lo}) = {g_lo * 1e3:.4f} MHz, g({hi}) = {g_hi * 1e3:.4f} MHz"
        )
    # g (ω² − ω_a²)(ω² − ω_b²) = c2 x² + c1 x + c0 in x = ω², solved without cancellation
    a2, b2 = params.resonator_freq_a**2, params.resonator_freq_b**2
    pa = 2.0 * params.g_a1 * params.g_a2 * params.resonator_freq_a
    pb = 2.0 * params.g_b1 * params.g_b2 * params.resonator_freq_b
    c2, c1 = params.g_12, pa + pb - params.g_12 * (a2 + b2)
    c0 = c2 * a2 * b2 - pa * b2 - pb * a2
    q = -0.5 * (c1 + math.copysign(math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0)), c1))
    x = min([c0 / q] + ([q / c2] if c2 else []), key=lambda r: max(lo * lo - r, r - hi * hi))
    return min(max(math.sqrt(x), lo), hi)


def flux_to_frequency(params: DeviceParams, qubit_index: int, control_value: float) -> float:
    """Symmetric-junction tuning law ω(x) = ω_max √|cos(π(x−x0)/period)|.

    A phase π(x−x0)/period that overflows float64 raises ConfigError.
    """
    control_value = require_number(control_value, "control value")
    qubit_index = require_count(qubit_index, "qubit index", 1)
    if qubit_index > 2:
        raise ConfigError(f"qubit index must be 1 or 2, got {qubit_index}")
    f_max, period, offset = (getattr(params, f"{name}_{qubit_index}")
                             for name in ("qubit_max_freq", "flux_period", "flux_offset"))
    phase = math.pi * (control_value - offset) / period
    if not math.isfinite(phase):
        raise ConfigError(
            f"flux phase of qubit {qubit_index} overflows: control value {control_value}, "
            f"offset {offset}, period {period}"
        )
    return f_max * math.sqrt(abs(math.cos(phase)))
