"""Frequency-domain emulation: spectrum sweeps, labels, anti-crossing gaps.

Every sweep point is an exact diagonalization of the device Hamiltonian,
one real symmetric excitation-parity block at a time (no term couples the
blocks); levels are reported relative to the ground state in GHz and
tagged with the bare product state they overlap most, or "mixed" when no
bare state dominates. The model keeps the even and the odd block and the
odd block's co-tuned sectors, each built once on first use. Every
diagonalization goes through one helper: it builds the stack of a block's
Hamiltonians of a batch of points, and each slice of at most
STACK_SLICE_BYTES of it is one call of ``eigh`` (a spectrum, whose labels
read eigenvectors) or ``eigvalsh``. A gap of any two modes needs only the
odd block, which holds every single excitation, and its eigenvalues: the
bare energies fix the level pair. One helper, ``_pair_separations``, gives
the separation and level pair of two modes at a batch of points for the gap
scans and the co-tuned half gap alike. One locator locates every gap of a
call: a qubit is swept over a window, the qubit-2 setpoint ± 20 MHz or a
resonator ± 50 MHz, bracketed by a 5-point grid, and the minimum located
by a few parabolic vertex steps on the squared separation. The scans of
all windows of a call advance in lockstep rounds: the coarse grids are one
such stack, and each round the vertices of every scan still running are
one more, so two setpoints at 3⁴ take 4-6 helper calls, where one scan
after the other took 8-10, and each scan's result is bit for bit its own.
The co-tuned half gap takes an array of points, where the odd block of a
device whose qubits have equal dimensions and enter it alike (the default
device) splits into the two sectors of the qubit exchange, symmetric and
antisymmetric, 26 and 14 of its 40 states at 3⁴, 80 and 48 of 128 at 4⁴
and 186 and 126 of 312 at 5⁴. Each sector is one stack and the helper
merges the sectors' levels; any other device's odd block is one sector.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, PhysicsError, require_count, require_memory, require_number, require_numbers,
)
from .fock import HilbertSpace
from .device import (
    TWO_PI,
    MODE_NAMES,
    DeviceModel,
    DeviceParams,
    OperatingPoint,
    _require_resonator_clearance,
    device_model,
    flux_to_frequency,
)

SWEEP_AXES = ("flux_1", "flux_2", "freq_1", "freq_2")

MIXED_LABEL = "mixed"

# coarse grid points of a gap scan, its half width (GHz) about the qubit-2
# setpoint, the most parabolic vertex steps that follow it (2-7 at 3^4), and
# the distance (GHz) from a held point within which a vertex counts as
# found: below the ~1e-8 GHz to which eigenvalue rounding fixes the minimum
# of a 0.03-6 MHz gap
GAP_GRID = 5
GAP_HALF_SPAN = 0.020
GAP_VERTEX_STEPS = 8
GAP_LOCATION_RESOLUTION = 1e-9

# half width (GHz) of a qubit-resonator gap scan about the resonator: 3 vertex
# steps for the default 54-60 MHz gaps at 3^4, where ± 90 MHz took 5-8
RESONATOR_GAP_HALF_SPAN = 0.050

# peak bytes a setpoint adds to gap_vs_setpoint beyond one eigvalsh slice: its
# window, its coarse grid points, separations and pairs in the lockstep's
# stack, its three held points and its result hold 1,315-1,330 bytes at
# 10,000-40,000 admitted 3^4 setpoints, a setpoint refused near a resonator
# 177 (tracemalloc)
GAP_SETPOINT_BYTES = 1536

# most bytes of one slice at two n x n arrays a member, what an eigh call
# holds (block and eigenvectors); an eigvalsh slice holds half of it. A
# 5-point 3^4 gap scan (0.13 MB) is one slice, 4^4 parity blocks go 4 points
# at a time; larger slices save no time and raise a sweep's peak RSS
STACK_SLICE_BYTES = 2**20


@dataclass
class SpectrumSweep:
    """Eigenfrequency ladder along one control axis.

    levels[i, k] is the k-th excitation frequency above the ground state
    at sweep point i, in GHz; labels/overlaps give the dominant bare
    product state of each dressed level.
    """

    axis: str
    sweep_values: np.ndarray
    levels: np.ndarray
    labels: list[list[str]]
    overlaps: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sweep_value,freq_ghz,label,overlap\n")
        for i, sv in enumerate(self.sweep_values):
            for k in range(self.levels.shape[1]):
                buf.write(
                    f"{sv:.9g},{self.levels[i, k]:.9f},"
                    f"{self.labels[i][k]},{self.overlaps[i, k]:.6f}\n"
                )
        return buf.getvalue()


@dataclass
class GapResult:
    """Minimum separation of two tracked dressed levels along a sweep.

    ``level_pair`` indexes the ascending levels of the odd-parity block the
    separation was taken from.
    """

    gap_mhz: float
    location_ghz: float
    level_pair: tuple[int, int]


@functools.lru_cache(maxsize=4)
def _label_table(space: HilbertSpace) -> np.ndarray:
    """Read-only object array of the human tag of every basis state ('0', 'q1',
    'a+q2', 'q1x2', ...), then MIXED_LABEL at index ``space.size``."""
    tags = []
    for occ in space.quanta.T.tolist():
        parts = [MODE_NAMES[m] if n == 1 else f"{MODE_NAMES[m]}x{n}" for m, n in enumerate(occ) if n]
        tags.append("+".join(parts) or "0")
    table = np.array(tags + [MIXED_LABEL], dtype=object)
    table.flags.writeable = False
    return table


def _spectrum_bytes(n_points: int, size: int, n_levels: int) -> int:
    """Peak bytes of a spectrum's per-point results: 8-byte words, four an
    eigenpair (eigenvalue, dominant state, weight, sort rank) and five a
    reported level (frequency, weight, state, two label references), and a
    64-byte header of each point's label list."""
    return 8 * n_points * (4 * size + 5 * n_levels + 8)


def sweep_spectrum(
    params: DeviceParams,
    axis: str,
    values,
    fixed_other: OperatingPoint,
    space: HilbertSpace,
    n_levels: int | None = None,
) -> SpectrumSweep:
    """Diagonalize the device along one swept control.

    ``axis`` is one of flux_1, flux_2, freq_1, freq_2; flux axes are
    mapped through the tuning curve first. Levels are ground-referenced
    and converted to linear GHz. All points of the even, then the odd
    parity block are diagonalized in slices of STACK_SLICE_BYTES, and each
    point's levels of both blocks are merged with a stable sort; labels and
    overlaps refer to the full product basis. ``values`` must be a
    non-empty, strictly monotone 1-d array of finite numbers, none a bool,
    that puts the swept qubit above 0 GHz; ConfigError refuses any other, an
    ``n_levels`` not an integer ≥ 1, or a sweep whose per-point results
    exceed ``errors.MEMORY_LIMIT``, before any model is built.
    """
    values = require_numbers(values, "sweep values")
    if values.size < 1:
        raise ConfigError("sweep values must be a non-empty 1-d array")
    if n_levels is None:
        n_levels = space.size - 1
    n_levels = min(require_count(n_levels, "number of levels above the ground state", 1),
                   space.size - 1)
    require_memory(_spectrum_bytes(values.size, space.size, n_levels),
                   f"a spectrum of {values.size} points")
    diffs = np.diff(values)
    if values.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("sweep values must be strictly monotone")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
    qubit = int(axis[-1])
    swept = values
    if axis.startswith("flux"):
        swept = [flux_to_frequency(params, qubit, v) for v in values]
    swept = require_numbers(swept, f"qubit_freq_{qubit}", positive=True)
    held = np.full(values.size, getattr(fixed_other, f"qubit_freq_{3 - qubit}"))
    f1s, f2s = (swept, held) if qubit == 1 else (held, swept)

    model = device_model(params, space, True)
    # even, then odd eigenpairs; only each block's lowest n_levels + 1 can be reported
    evals = np.empty((values.size, space.size))
    dominant = np.empty((values.size, space.size), dtype=int)
    weight = np.empty((values.size, space.size))
    for start, idx, block in ((0, model.even, model.even_block),
                              (model.even.size, model.odd, model.odd_block)):

        def store(part, solved):
            # w[k, j, i] = |<i|j>|² laid out per eigenvector, so that argmax
            # reduces a contiguous axis rather than copying the stack
            [(e, v)] = solved
            w = np.square(v[:, :, : n_levels + 1].swapaxes(1, 2), order="C")
            low = slice(start, start + w.shape[1])
            evals[part, start : start + idx.size] = e
            dominant[part, low] = idx[w.argmax(axis=2)]
            weight[part, low] = w.max(axis=2)

        _block_slices([block], f1s, f2s, np.linalg.eigh, store)
    order = np.argsort(evals, axis=1, kind="stable")[:, : n_levels + 1]
    ground, upper = order[:, :1], order[:, 1:]
    levels = (np.take_along_axis(evals, upper, 1) - np.take_along_axis(evals, ground, 1)) / TWO_PI
    weight = np.take_along_axis(weight, upper, 1)
    # each label is a reference into one table, not a string of its own
    state = np.take_along_axis(dominant, upper, 1)
    state[weight <= 0.5] = space.size
    return SpectrumSweep(axis, values, levels, _label_table(space)[state].tolist(), np.sqrt(weight))


def _block_slices(blocks, f1s: np.ndarray, f2s: np.ndarray, solve, store) -> None:
    """Diagonalize each of ``blocks`` (:class:`~dresq.device.Block`) at every point
    (f1s[k], f2s[k]), a slice of points at a time.

    A slice is as many points as fit in STACK_SLICE_BYTES at the largest
    block. Each block in turn gives one stack of the slice and one ``solve``
    call on it (``np.linalg.eigh`` or ``eigvalsh``), and ``store(part,
    solved)`` keeps what it needs of the points ``part`` (a slice object),
    ``solved`` holding one result a block, as each slice is freed before the
    next is built.
    """
    per_slice = max(1, STACK_SLICE_BYTES // (2 * 8 * max(len(b.template) for b in blocks)**2))
    for start in range(0, len(f1s), per_slice):
        part = slice(start, start + per_slice)
        store(part, [solve(b.stack(f1s[part], f2s[part])) for b in blocks])


def _pair_separations(model: DeviceModel, blocks, modes, f1s: np.ndarray,
                      f2s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separations (GHz) of the dressed levels of two modes at each point
    (f1s[k], f2s[k]), and their (k, 2) level pairs in the odd block.

    ``blocks`` is ``[model.odd_block]`` or ``model.cotuned_sectors``, and
    ``modes`` two indices into MODE_NAMES. Every single excitation is odd,
    so only eigenvalues are found, each block's by :func:`_block_slices`,
    and one sort merges a point's levels of two or more blocks into the odd
    block's (one block's are ascending already).
    The bare energies are the odd block's diagonal, ``np.diagonal(template)
    + diagonals``, bit for bit its stack's. Anti-crossings keep the level
    order, so row k of the pairs is the sorted ranks of the two modes'
    states among the bare energies, a tracked state below any other state
    of its energy: for the qubits in the band, the ranks of f₁ and f₂ among
    (ω_a, ω_b, f₁, f₂), but three-excitation states fall below a qubit under
    3|α| (0.75 GHz) at 4⁴. Co-tuned within about 5 MHz inside a resonator's
    band, the two levels of largest qubit weight are instead a dark qubit
    state and a resonator hybrid, and the pair keeps to the ranks. With
    6·g_max under 20 MHz a resonator can lie inside a gap scan's window,
    3·g_max clear of its setpoint and its ends, and the ranks follow qubit 1
    past it.
    """
    odd = model.odd_block
    static = np.diagonal(odd.template)
    tracked = np.searchsorted(model.odd, np.take(model.space.single_excitation_indices(), modes))
    seps = np.empty(len(f1s))
    pairs = np.empty((len(f1s), 2), dtype=int)

    def store(part, solved):
        bare = static + odd.diagonals(f1s[part], f2s[part])
        states = np.sort(bare[:, tracked], axis=1)
        pair = np.count_nonzero(bare[:, None, :] < states[:, :, None], axis=2)
        pair[:, 1] += states[:, 0] == states[:, 1]
        evals = solved[0] if len(solved) == 1 else np.sort(np.concatenate(solved, axis=1), axis=1)
        levels = evals[np.arange(len(evals))[:, None], pair]
        seps[part], pairs[part] = np.abs(levels[:, 1] - levels[:, 0]) / TWO_PI, pair

    _block_slices(blocks, f1s, f2s, np.linalg.eigvalsh, store)
    return seps, pairs


def _min_separations(params: DeviceParams, space: HilbertSpace, modes, swept_qubit: int,
                     windows) -> list[GapResult | str]:
    """Minimum separation of the levels of ``modes`` in each of ``windows``,
    as qubit ``swept_qubit`` sweeps the window (parked, lo, hi) and the other
    qubit is parked at ``parked``.

    All scans advance in lockstep, each round one call of
    :func:`_pair_separations` on the odd block. The coarse grids, GAP_GRID
    points a window, are one stack of odd-block Hamiltonians, diagonalized
    in slices of at most STACK_SLICE_BYTES; a grid minimum on
    its window's edge ends that scan with an error. Near an anti-crossing
    sep² is very nearly a parabola in the swept frequency, so each scan
    holds three points, its grid minimum and the two neighbours, and takes
    at most GAP_VERTEX_STEPS parabolic steps (Brent 1973). In each round
    every scan still running takes the vertex of the parabola through its
    held points on sep², and all those vertices are one more stack; a
    vertex's point replaces its scan's worst held point when it beats it, so
    the best three of four are kept. A scan stops when its held points do
    not open upwards or their vertex leaves the window, when the vertex lies
    within GAP_LOCATION_RESOLUTION of a held point, or when a step beats
    none of them. Each scan takes the points and stops it would take alone,
    so its result is bit for bit the one-window scan's, and any number of
    windows takes at most 1 + GAP_VERTEX_STEPS helper calls. Returns, in the
    order of ``windows``, the best point held as a GapResult, its location
    the swept qubit's frequency, or the message of the scan's PhysicsError.
    """
    if not windows:
        return []
    model = device_model(params, space, True)

    def separations(swept, parked):
        f1s, f2s = (swept, parked) if swept_qubit == 1 else (parked, swept)
        return _pair_separations(model, [model.odd_block], modes, f1s, f2s)

    grids = np.concatenate([np.linspace(lo, hi, GAP_GRID) for _, lo, hi in windows])
    seps, pairs = separations(grids, np.repeat([parked for parked, _, _ in windows], GAP_GRID))
    outcomes: list[GapResult | str] = (
        ["minimum separation sits at a sweep endpoint: bracket too narrow"] * len(windows))
    # (location, separation, pair) of each bracketed scan's three held
    # points, best first; in an admitted window no two share a location, so
    # the parabola through them is defined
    held = {}
    for k in range(len(windows)):
        i_min = int(np.argmin(seps[k * GAP_GRID : (k + 1) * GAP_GRID]))
        if 0 < i_min < GAP_GRID - 1:
            near = slice(k * GAP_GRID + i_min - 1, k * GAP_GRID + i_min + 2)
            held[k] = sorted(zip(grids[near].tolist(), seps[near].tolist(),
                                 pairs[near].tolist()), key=lambda p: p[1])
    running = list(held)
    for _ in range(GAP_VERTEX_STEPS):
        steps = []
        for k in running:
            loc = _parabola_vertex(*((x, s * s) for x, s, _ in held[k]))
            found = min(abs(loc - x) for x, _, _ in held[k]) <= GAP_LOCATION_RESOLUTION
            _, lo, hi = windows[k]
            if not found and lo < loc < hi:
                steps.append((k, loc))
        if not steps:
            break
        sep, pair = separations(np.array([loc for _, loc in steps]),
                                np.array([windows[k][0] for k, _ in steps]))
        running = []
        for (k, loc), sep_k, pair_k in zip(steps, sep.tolist(), pair.tolist()):
            if sep_k < held[k][2][1]:
                held[k] = sorted(held[k][:2] + [(loc, sep_k, pair_k)], key=lambda p: p[1])
                running.append(k)
    for k, points in held.items():
        loc, sep_min, pair = points[0]
        outcomes[k] = GapResult(sep_min * 1e3, loc, tuple(pair))
    return outcomes


def _gap_or_raise(outcome: GapResult | str) -> GapResult:
    """A one-window scan's GapResult, or its error raised as PhysicsError."""
    if isinstance(outcome, str):
        raise PhysicsError(outcome)
    return outcome


def _require_gap_setpoint(qubit2_freq) -> float:
    """The qubit-2 setpoint as a float; ConfigError unless it is a usable number
    whose scan window, the setpoint ± GAP_HALF_SPAN, lies above 0 GHz and
    where float64 resolves GAP_LOCATION_RESOLUTION (below 2²³ GHz)."""
    qubit2_freq = require_number(qubit2_freq, "qubit-2 setpoint")
    if not qubit2_freq - GAP_HALF_SPAN > 0:
        raise ConfigError(
            f"qubit-2 setpoint {qubit2_freq} GHz is too low: the gap scan sweeps qubit 1 "
            f"over the setpoint ± {GAP_HALF_SPAN * 1e3:g} MHz, which must lie above 0 GHz"
        )
    if np.spacing(qubit2_freq + GAP_HALF_SPAN) > GAP_LOCATION_RESOLUTION:
        raise ConfigError(
            f"qubit-2 setpoint {qubit2_freq} GHz is too high: float64 spaces the scan "
            f"window's frequencies more than {GAP_LOCATION_RESOLUTION:g} GHz apart there"
        )
    return qubit2_freq


def _qubit_qubit_window(params: DeviceParams, qubit2_freq: float) -> tuple[float, float, float]:
    """The scan window (qubit2_freq, lo, hi) of an admitted setpoint: qubit 1
    sweeps the setpoint ± GAP_HALF_SPAN. PhysicsError when the setpoint or
    either end of the window lies within 3·g_max of a resonator."""
    _require_resonator_clearance(params, qubit2_freq, "qubit-2 setpoint")
    lo, hi = qubit2_freq - GAP_HALF_SPAN, qubit2_freq + GAP_HALF_SPAN
    for f1 in (lo, hi):
        _require_resonator_clearance(params, f1, "sweep endpoint")
    return qubit2_freq, lo, hi


def qubit_qubit_gap(params: DeviceParams, qubit2_freq: float, space: HilbertSpace) -> GapResult:
    """Anti-crossing gap between the two qubit-like dressed levels.

    Qubit 2 is parked at ``qubit2_freq`` and qubit 1 swept over the setpoint
    ± GAP_HALF_SPAN; the minimum separation of the qubit pair of odd-block
    levels (ranked by the bare energies, see :func:`_pair_separations`) is
    located by :func:`_min_separations`, a scan of one window. The gap is
    the full 2|g_eff| splitting: half of it estimates the effective
    qubit-qubit coupling magnitude. On the default device at 3⁴ and
    setpoints 4.58-4.68 GHz the gap lies 0.16-0.24 % below twice
    :func:`cotuned_half_gap` at the setpoint, and never above it.

    A setpoint that is text, a bool or not finite, whose window reaches
    0 GHz, or too large for float64 to resolve GAP_LOCATION_RESOLUTION in
    its window, is refused with ConfigError; one within 3·g_max of a
    resonator, or whose window ends there, and a minimum on the window's
    edge with PhysicsError.
    """
    window = _qubit_qubit_window(params, _require_gap_setpoint(qubit2_freq))
    return _gap_or_raise(*_min_separations(params, space, (2, 3), 1, [window]))


def qubit_resonator_gap(params: DeviceParams, qubit: int, resonator: str,
                        space: HilbertSpace) -> GapResult:
    """Anti-crossing gap, about twice their coupling, of qubit 1 or 2 and resonator 'a' or 'b'.

    The qubit is swept over the resonator ± RESONATOR_GAP_HALF_SPAN, the other
    parked at its sweet spot ``qubit_max_freq_*``, and :func:`_min_separations`
    locates the gap of the two modes' levels in a scan of one window.
    Another qubit or resonator, and a window reaching 0 GHz, are refused
    with ConfigError before anything is built (``DeviceParams`` admits no
    sweet spot at or below 0 GHz); a parked qubit within 3·g_max of a
    resonator, and a minimum on the window's edge, with PhysicsError.
    """
    qubit = require_count(qubit, "qubit", 1)
    if qubit > 2:
        raise ConfigError(f"qubit must be 1 or 2, got {qubit}")
    if not isinstance(resonator, str) or resonator not in ("a", "b"):
        raise ConfigError(f"resonator must be 'a' or 'b', got {resonator!r}")
    parked = getattr(params, f"qubit_max_freq_{3 - qubit}")
    _require_resonator_clearance(params, parked, f"parked qubit {3 - qubit}")
    f_res = getattr(params, f"resonator_freq_{resonator}")
    lo = require_number(f_res - RESONATOR_GAP_HALF_SPAN,
                        f"the lower end of the scan about resonator {resonator}", positive=True)
    modes = (MODE_NAMES.index(resonator), MODE_NAMES.index(f"q{qubit}"))
    window = (parked, lo, f_res + RESONATOR_GAP_HALF_SPAN)
    return _gap_or_raise(*_min_separations(params, space, modes, qubit, [window]))


def _parabola_vertex(a, b, c) -> float:
    """Abscissa of the vertex of the parabola through three (x, y) points.

    NaN unless the parabola opens upwards, so a caller comparing the result
    with an interval sees it outside.
    """
    (xa, ya), (xb, yb), (xc, yc) = a, b, c
    slope_ab = (yb - ya) / (xb - xa)
    curvature = ((yc - yb) / (xc - xb) - slope_ab) / (xc - xa)
    if not curvature > 0:
        return math.nan
    return 0.5 * (xa + xb) - 0.5 * slope_ab / curvature


def gap_vs_setpoint(
    params: DeviceParams, setpoints, space: HilbertSpace
) -> tuple[list[GapResult | None], list[str | None]]:
    """qubit_qubit_gap at each of a list of qubit-2 setpoints, all scans in lockstep.

    The scans of the admitted setpoints advance in rounds
    (:func:`_min_separations`): one stack holds every coarse grid, and each
    round one more stack holds the parabolic vertex of every scan still
    running, so any number of setpoints takes at most 1 + GAP_VERTEX_STEPS
    calls of :func:`_pair_separations`, two setpoints at 3⁴ 4-6 where one
    scan after the other took 8-10. Each setpoint's result and error are
    bit for bit those of qubit_qubit_gap at it alone.

    A setpoint's PhysicsError (a resonator too close, a bracket too
    narrow) is collected, not fatal: the first return list holds a
    GapResult or None per setpoint, the second the error message or None.
    Setpoints that are not a list of numbers (a single number or a string),
    and a setpoint that qubit_qubit_gap refuses as malformed (text, a bool,
    NaN, infinite, a scan window reaching 0 GHz, or above 2²³ GHz), raise
    ConfigError before any setpoint is scanned, and so do more setpoints
    than GAP_SETPOINT_BYTES each fit in ``errors.MEMORY_LIMIT``. Every
    setpoint is checked by then, so a ConfigError while scanning (a model
    too large for memory) is the configuration's fault and is raised, not
    collected.
    """
    try:
        if isinstance(setpoints, (str, bytes, bytearray)):
            raise TypeError
        setpoints = list(setpoints)
    except TypeError:
        raise ConfigError(
            f"qubit-2 setpoints must be a list of numbers, got {setpoints!r}"
        ) from None
    setpoints = [_require_gap_setpoint(f2) for f2 in setpoints]
    require_memory(GAP_SETPOINT_BYTES * len(setpoints), f"gap scans at {len(setpoints)} setpoints")
    outcomes: list[GapResult | str | None] = []
    windows = {}
    for k, f2 in enumerate(setpoints):
        try:
            windows[k] = _qubit_qubit_window(params, f2)
            outcomes.append(None)
        except PhysicsError as exc:
            outcomes.append(str(exc))
    for k, outcome in zip(windows, _min_separations(params, space, (2, 3), 1,
                                                    list(windows.values()))):
        outcomes[k] = outcome
    return ([None if isinstance(o, str) else o for o in outcomes],
            [o if isinstance(o, str) else None for o in outcomes])


def cotuned_half_gap(params: DeviceParams, freqs, space: HilbertSpace) -> np.ndarray:
    """Half the dressed splitting with both qubits tuned to each of ``freqs``, MHz.

    This is the exact-diagonalization counterpart of the analytic
    effective-coupling magnitude. ``freqs`` is a 1-d array or list of
    positive finite numbers, none a bool, and an array of the same length
    is returned. The odd block is solved in the model's co-tuned sectors
    (:attr:`~dresq.device.DeviceModel.cotuned_sectors`): the symmetric and
    antisymmetric combinations of qubit-exchanged states, 26 and 14 of its
    40 states at 3⁴, when the qubits have equal dimensions and enter the
    device alike (the default device), else the whole block. The qubit pair
    comes from :func:`_pair_separations`, as a gap scan's does: each sector
    is one stack of the points (eigenvalues only, in slices of at most
    STACK_SLICE_BYTES), and each point's eigenvalues of the sectors are
    merged by a sort into the odd block's levels. Each half gap is that of
    the levels (r, r + 1), r the block's bare states below the point: the
    whole odd block's half gap to within rounding on a device that splits,
    and bit for bit on one that does not. ConfigError is raised, before
    any result is allocated, when the per-point results would exceed
    ``errors.MEMORY_LIMIT``.
    """
    points = require_numbers(freqs, "co-tuned frequencies", positive=True)
    # the points, separations and level pairs: four 8-byte words a point (tracemalloc)
    require_memory(4 * 8 * points.size, f"co-tuned half gaps at {points.size} points")
    model = device_model(params, space, True)
    seps = _pair_separations(model, model.cotuned_sectors, (2, 3), points, points)[0]
    return 0.5 * seps * 1e3
