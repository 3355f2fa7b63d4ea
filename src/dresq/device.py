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
import sys
import warnings
from dataclasses import dataclass, asdict, fields

import numpy as np

from .errors import ConfigError, PhysicsError
from .fock import HilbertSpace, OperatorMatrix, lowering_operator

TWO_PI = 2.0 * math.pi

MODE_NAMES = ("a", "b", "q1", "q2")

# index pairs into MODE_NAMES for every coupling line of the Hamiltonian
_RESONATOR_QUBIT_PAIRS = {
    "g_a1": (0, 2),
    "g_a2": (0, 3),
    "g_b1": (1, 2),
    "g_b2": (1, 3),
}

SWITCH_OFF_TOL_GHZ = 1e-7

DEGENERACY_TOL_GHZ = 1e-6


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
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
                raise ConfigError(f"parameter {f.name} must be a number, got {v!r}")
            if isinstance(v, int) and abs(v) > sys.float_info.max:
                raise ConfigError(f"parameter {f.name} is an integer beyond the float range")
            # infinite coherence times mean "no dissipation"; everything else
            # must be finite
            if math.isinf(v) and not f.name.startswith(("t1_", "t2_")):
                raise ConfigError(f"parameter {f.name} must be finite, got {v!r}")
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
        min_freq = min(
            self.resonator_freq_a,
            self.resonator_freq_b,
            self.qubit_max_freq_1,
            self.qubit_max_freq_2,
        )
        max_g = max(
            abs(self.g_a1), abs(self.g_a2), abs(self.g_b1), abs(self.g_b2),
            abs(self.g_ab), abs(self.g_12),
        )
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

    def to_json(self) -> str:
        """Flat JSON that :meth:`from_json` reads back; an infinite lifetime is null."""
        raw = {k: None if math.isinf(v) else v for k, v in asdict(self).items()}
        return json.dumps(raw, indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DeviceParams":
        """Parse a flat JSON device file; unknown keys are rejected.

        Missing keys fall back to the defaults. Infinite coherence times
        may be written as null.
        """
        try:
            raw = json.loads(text)
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


@dataclass(frozen=True)
class OperatingPoint:
    """Instantaneous qubit transition frequencies, linear GHz."""

    qubit_freq_1: float
    qubit_freq_2: float

    def __post_init__(self):
        for name in ("qubit_freq_1", "qubit_freq_2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (
                isinstance(v, (int, float)) and math.isfinite(v) and v > 0
            ):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")


def _require_resonator_clearance(params: DeviceParams, freq_ghz: float, what: str) -> None:
    """PhysicsError if ``freq_ghz`` is within 3·max g_qr of a resonator.

    A qubit there hybridizes with the resonator, so neither level tracking
    nor the two-qubit exchange picture holds.
    """
    clearance = 3.0 * params.max_qubit_resonator_coupling
    for tag, f_res in (("a", params.resonator_freq_a), ("b", params.resonator_freq_b)):
        if abs(freq_ghz - f_res) < clearance:
            raise PhysicsError(
                f"{what} {freq_ghz} GHz is {abs(freq_ghz - f_res) * 1e3:.1f} MHz from "
                f"resonator {tag} (needs {clearance * 1e3:.1f} MHz clearance)"
            )


# largest footprint a DeviceModel may need (see model_bytes); a bigger
# space is refused with a ConfigError before anything of its size is built
MODEL_BYTES_LIMIT = 512 * 2**20


def model_bytes(dims) -> int:
    """Peak bytes of building a DeviceModel on ``dims`` and diagonalizing it.

    Building peaks at eight float64 d×d matrices: H_static, the four
    embedded lowering operators and the temporaries of one coupling term.
    A real ``eigh`` of the largest excitation-parity block, ⌈d/2⌉ states,
    takes six of its own size: the block, LAPACK's copy and 2n² workspace,
    the eigenvectors and their squared weights.
    """
    d = math.prod(dims)
    n = (d + 1) // 2
    return 8 * (8 * d * d + 6 * n * n)


class DeviceModel:
    """H/ħ in rad/ns on the 4-mode space (a, b, q1, q2), split by dependence.

    ``h_static`` holds the resonator energies, the qubit anharmonicities
    α a†a†aa and every coupling line. Each line has the exchange form
    g(c†a + ca†); with ``include_counter_rotating`` it also carries the
    -(c†a† + ca) pair-creation part. Setting the flag False gives the
    excitation-conserving rotating-wave model. All elements are real, so
    H is stored as float64, and it is checked symmetric once, here.
    ``n_q1`` and ``n_q2`` are the qubit number diagonals that
    :meth:`hamiltonian` scales by the operating point; ``even`` and
    ``odd`` are the basis indices of the two excitation-parity blocks,
    which no term of H couples. Arrays are read-only: one model is shared
    by every caller of :func:`device_model`.

    Raises ConfigError when :func:`model_bytes` exceeds
    MODEL_BYTES_LIMIT, before anything of the space's size is allocated.
    """

    def __init__(
        self, params: DeviceParams, space: HilbertSpace, include_counter_rotating: bool
    ):
        if space.n_modes != 4:
            raise ConfigError(f"device Hamiltonian needs 4 modes, space has {space.n_modes}")
        need = model_bytes(space.dims)
        if need > MODEL_BYTES_LIMIT:
            raise ConfigError(
                f"a {space.size}-state device model takes {need / 2**20:.0f} MiB "
                f"(limit {MODEL_BYTES_LIMIT / 2**20:.0f} MiB); use a smaller truncation"
            )
        self.space = space
        occupations = np.indices(space.dims).reshape(4, -1)
        parity = occupations.sum(axis=0) % 2
        self.even = np.flatnonzero(parity == 0)
        self.odd = np.flatnonzero(parity == 1)
        self.n_q1 = occupations[2].astype(float)
        self.n_q2 = occupations[3].astype(float)
        self.h_static = _static_hamiltonian(
            params, space, occupations, include_counter_rotating
        )
        asym = float(np.abs(self.h_static - self.h_static.T).max())
        if asym != 0.0:
            raise ConfigError(f"assembled Hamiltonian not symmetric (defect {asym:.2e})")
        for a in (self.even, self.odd, self.n_q1, self.n_q2, self.h_static):
            a.flags.writeable = False

    def hamiltonian(self, point: OperatingPoint, idx: np.ndarray | None = None) -> OperatorMatrix:
        """H_static + 2π(f₁ N̂_q1 + f₂ N̂_q2), on the basis states ``idx`` if given."""
        w1 = TWO_PI * point.qubit_freq_1
        w2 = TWO_PI * point.qubit_freq_2
        if idx is None:
            h = self.h_static.copy()
            h.flat[:: h.shape[0] + 1] += w1 * self.n_q1 + w2 * self.n_q2
        else:
            h = self.h_static[np.ix_(idx, idx)]
            h.flat[:: h.shape[0] + 1] += w1 * self.n_q1[idx] + w2 * self.n_q2[idx]
        return OperatorMatrix(self.space, h, idx)


def _static_hamiltonian(
    params: DeviceParams,
    space: HilbertSpace,
    occupations: np.ndarray,
    include_counter_rotating: bool,
) -> np.ndarray:
    """The point-independent part of H, assembled from the ladder operators.

    ``occupations[m]`` is the number of quanta in mode m of each basis state.
    """
    lowers = [lowering_operator(space, m).elements for m in range(4)]
    n_a, n_b, n_1, n_2 = occupations
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
        # c_i† c_j, minus c_i c_j when pair creation is kept; adding the
        # transpose gives the Hermitian line
        term = lowers[i].T @ lowers[j]
        if include_counter_rotating:
            term -= lowers[i] @ lowers[j]
        h += TWO_PI * g_ghz * (term + term.T)
    return h


@functools.lru_cache(maxsize=4)
def device_model(
    params: DeviceParams, space: HilbertSpace, include_counter_rotating: bool
) -> DeviceModel:
    """The DeviceModel of one (device, truncation, model), built on first use."""
    return DeviceModel(params, space, include_counter_rotating)


def build_hamiltonian(
    params: DeviceParams,
    point: OperatingPoint,
    space: HilbertSpace,
    include_counter_rotating: bool = True,
    idx: np.ndarray | None = None,
) -> OperatorMatrix:
    """H/ħ in rad/ns at ``point``, from the cached :class:`DeviceModel`.

    On the whole space, or on the basis states ``idx`` (such as the
    model's ``even`` or ``odd`` parity block) if given.
    """
    return device_model(params, space, include_counter_rotating).hamiltonian(point, idx)


def effective_coupling(params: DeviceParams, point: OperatingPoint) -> float:
    """Analytic net qubit-qubit exchange strength, signed, in GHz.

    Sums the virtual-photon paths through both resonators plus the direct
    term:

        g_eff = 1/2 * Σ_λβ [ g_λ1 g_λ2 / Δ_λβ  -  g_λ1 g_λ2 / Σ_λβ ] + g_12

    with Δ_λβ = ω_β − ω_λ and Σ_λβ = ω_β + ω_λ. The expression is
    homogeneous of degree zero in the overall frequency scale, so linear
    GHz inputs give the answer directly in GHz.

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
    q_freqs = (point.qubit_freq_1, point.qubit_freq_2)
    res = (("a", params.resonator_freq_a, params.g_a1, params.g_a2),
           ("b", params.resonator_freq_b, params.g_b1, params.g_b2))
    total = 0.0
    for name, f_res, g1, g2 in res:
        product = g1 * g2
        for beta, f_q in enumerate(q_freqs, start=1):
            delta = f_q - f_res
            if abs(delta) <= DEGENERACY_TOL_GHZ:
                raise PhysicsError(
                    f"qubit {beta} is degenerate with resonator {name} "
                    f"(|Δ| = {abs(delta):.2e} GHz); the dispersive formula diverges"
                )
            sigma = f_q + f_res
            total += 0.5 * (product / delta - product / sigma)
    return total + params.g_12


def find_switch_off(
    params: DeviceParams,
    search_interval: tuple[float, float] = (4.50, 4.77),
    tol_ghz: float = SWITCH_OFF_TOL_GHZ,
) -> float:
    """Co-tuned qubit frequency where the effective coupling vanishes.

    Both qubits are swept together (ω_1 = ω_2 = ω). Each resonator term
    of the coupling formula is monotone in ω between the resonator poles,
    so plain bisection is reliable; the interval must sit strictly inside
    (resonator_freq_a, resonator_freq_b). Through
    :func:`effective_coupling` it raises ConfigError for a device with
    ``g_ab`` != 0.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not lo < hi:
        raise ConfigError(f"search interval must be increasing, got ({lo}, {hi})")
    if lo <= params.resonator_freq_a or hi >= params.resonator_freq_b:
        raise PhysicsError(
            f"no sign change attainable: interval ({lo}, {hi}) must lie strictly "
            f"inside the resonator band ({params.resonator_freq_a}, "
            f"{params.resonator_freq_b}) for the coupling to change sign"
        )

    def g(freq: float) -> float:
        return effective_coupling(params, OperatingPoint(freq, freq))

    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0:
        raise PhysicsError(
            "no sign change of the effective coupling on the interval: "
            f"g({lo}) = {g_lo * 1e3:.4f} MHz, g({hi}) = {g_hi * 1e3:.4f} MHz"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) < tol_ghz:
            return mid
        if g_lo * g_mid < 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    raise PhysicsError("bisection failed to converge to the switch-off tolerance")


def _flux_params(params: DeviceParams, qubit_index: int) -> tuple[float, float, float]:
    if qubit_index not in (1, 2):
        raise ConfigError(f"qubit index must be 1 or 2, got {qubit_index}")
    return (
        getattr(params, f"qubit_max_freq_{qubit_index}"),
        getattr(params, f"flux_period_{qubit_index}"),
        getattr(params, f"flux_offset_{qubit_index}"),
    )


def flux_to_frequency(params: DeviceParams, qubit_index: int, control_value: float) -> float:
    """Symmetric-junction tuning law ω(x) = ω_max √|cos(π(x−x0)/period)|."""
    if not math.isfinite(control_value):
        raise ConfigError("control value must be finite")
    f_max, period, offset = _flux_params(params, qubit_index)
    phase = math.pi * (control_value - offset) / period
    return f_max * math.sqrt(abs(math.cos(phase)))


def frequency_to_flux(
    params: DeviceParams, qubit_index: int, target: float, branch: int = +1
) -> float:
    """Control value producing a given qubit frequency.

    ``branch`` picks the side of the sweet spot (+1 above the offset, -1
    below); only the principal branch |x - offset| <= period/2 is used.
    """
    f_max, period, offset = _flux_params(params, qubit_index)
    if not 0.0 < target <= f_max:
        raise ConfigError(
            f"target {target} GHz outside the reachable band (0, {f_max}] of qubit {qubit_index}"
        )
    if branch not in (+1, -1):
        raise ConfigError("branch must be +1 or -1")
    u = math.acos((target / f_max) ** 2) / math.pi
    return offset + branch * period * u
