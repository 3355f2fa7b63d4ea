import math
import tracemalloc

import numpy as np
import pytest

from dresq import errors, spectroscopy
from dresq.errors import ConfigError, PhysicsError
from dresq.fock import HilbertSpace
from dresq.device import (
    TWO_PI,
    DeviceModel,
    DeviceParams,
    OperatingPoint,
    device_model,
    find_switch_off,
)
from dresq.spectroscopy import (
    GapResult,
    _pair_separations,
    cotuned_half_gap,
    gap_vs_setpoint,
    qubit_qubit_gap,
    qubit_resonator_gap,
    sweep_spectrum,
)

from oracles import separations_alone
from test_model import weyl_bound

SPACE = HilbertSpace((3, 3, 3, 3))


def half_gap_bound(params, space, freqs) -> np.ndarray:
    """:func:`test_model.weyl_bound` of the odd block at each co-tuned point,
    in MHz of a half gap: what the sector solve may move a half gap by against
    the whole block's."""
    model = device_model(params, space, True)
    return weyl_bound(model.block(model.odd).stack(freqs, freqs)) / TWO_PI * 1e3


def reference_separation(params, point, space, modes=(2, 3)):
    """Level separation (GHz) and pair of two modes at one point, one eigh alone.

    The pair is the two odd-block levels of largest combined weight on the
    bare single-excitation states of ``modes``, q1 and q2 by default: an
    oracle for the pair that gap tracking takes from the mode order.
    """
    model = device_model(params, space, True)
    states = np.take(space.single_excitation_indices(), modes)
    s_1, s_2 = np.searchsorted(model.odd, states)
    h = model.block(model.odd).stack(
        np.array([point.qubit_freq_1]), np.array([point.qubit_freq_2]))[0]
    evals, evecs = np.linalg.eigh(h)
    weight = np.abs(evecs[s_1, :]) ** 2 + np.abs(evecs[s_2, :]) ** 2
    order = np.argsort(weight)[::-1]
    k1, k2 = sorted(int(k) for k in order[:2])
    return abs(evals[k2] - evals[k1]) / TWO_PI, (k1, k2)


def odd_separations(params, space, f1s, f2s, modes=(2, 3)):
    """Separations (GHz) and pairs of ``modes`` by the helper on the whole odd block."""
    model = device_model(params, space, True)
    return _pair_separations(model, [model.odd_block], modes, f1s, f2s)


def rank_pair(params, f1, f2, space):
    """Sorted ranks of the bare q1 and q2 states among the bare odd-block
    energies at (f1, f2), a qubit below any other state of its energy and q1
    below q2; in the band, the ranks of f1 and f2 among (ω_a, ω_b, f1, f2)."""
    model = device_model(params, space, True)
    bare = np.diag(model.block(model.odd).stack(np.array([f1]), np.array([f2]))[0])
    s_q1, s_q2 = np.searchsorted(model.odd, space.single_excitation_indices()[2:])
    order = sorted(range(bare.size),
                   key=lambda j: (bare[j], j not in (s_q1, s_q2), j != s_q1))
    return tuple(sorted((order.index(s_q1), order.index(s_q2))))


def decoupled():
    return DeviceParams(g_a1=0, g_a2=0, g_b1=0, g_b2=0, g_ab=0, g_12=0)


def test_decoupled_sweep_levels_track_controls():
    values = np.linspace(4.3, 4.7, 21)
    sweep = sweep_spectrum(
        decoupled(), "freq_1", values, OperatingPoint(4.6, 4.91), SPACE, n_levels=4
    )
    for i, v in enumerate(values):
        by_label = dict(zip(sweep.labels[i], sweep.levels[i]))
        assert by_label["q1"] == pytest.approx(v, abs=1e-9)
        assert by_label["a"] == pytest.approx(4.47, abs=1e-9)
        assert by_label["b"] == pytest.approx(4.80, abs=1e-9)
        assert by_label["q2"] == pytest.approx(4.91, abs=1e-9)


def test_sweep_monotonicity_required():
    with pytest.raises(ConfigError):
        sweep_spectrum(
            DeviceParams(), "freq_1", np.array([4.5, 4.4, 4.6]),
            OperatingPoint(4.6, 4.91), SPACE,
        )


@pytest.mark.parametrize("axis", ["flux_1", "flux_2", "freq_1", "freq_2"])
@pytest.mark.parametrize("values", [
    True, [True], [True, 2.0], [0.1, np.True_], np.array([True]), np.array([False, True]),
])
def test_sweep_bool_values_refused(axis, values):
    with pytest.raises(ConfigError, match="sweep values"):
        sweep_spectrum(DeviceParams(), axis, values, OperatingPoint(4.6, 4.91), SPACE)


def test_sweep_unknown_axis():
    with pytest.raises(ConfigError):
        sweep_spectrum(
            DeviceParams(), "freq_3", np.linspace(4.4, 4.6, 5),
            OperatingPoint(4.6, 4.91), SPACE,
        )


def test_sweep_needs_a_level():
    for n_levels in (-1, 2.5, True, float("nan"), "3"):
        with pytest.raises(ConfigError, match="level"):
            sweep_spectrum(
                DeviceParams(), "freq_1", np.linspace(4.4, 4.6, 5),
                OperatingPoint(4.6, 4.91), SPACE, n_levels=n_levels,
            )


def test_levels_ascending_and_overlap_range():
    values = np.linspace(4.55, 4.61, 9)
    sweep = sweep_spectrum(
        DeviceParams(), "freq_1", values, OperatingPoint(4.6, 4.91), SPACE, n_levels=6
    )
    for i in range(len(values)):
        assert np.all(np.diff(sweep.levels[i]) >= -1e-12)
        assert np.all(sweep.overlaps[i] > 0)
        assert np.all(sweep.overlaps[i] <= 1 + 1e-12)


@pytest.mark.parametrize("qubit, resonator, expected", [
    (1, "a", 54.0), (2, "a", 54.0), (2, "b", 60.0),
])
def test_qubit_resonator_gap_agrees_with_a_dense_reference(qubit, resonator, expected):
    # a qubit swept through a resonator splits by about twice their coupling
    # (27, 27 and 30 MHz); the 20,001-point reference spaces its points
    # 5e-6 GHz apart over the same ± 50 MHz window, the other qubit parked
    # at its sweet spot
    p = DeviceParams()
    gap = qubit_resonator_gap(p, qubit, resonator, SPACE)
    assert gap.gap_mhz == pytest.approx(expected, rel=0.02)
    f_res = getattr(p, f"resonator_freq_{resonator}")
    grid = np.linspace(f_res - 0.050, f_res + 0.050, 20001)
    parked = np.full(grid.size, getattr(p, f"qubit_max_freq_{3 - qubit}"))
    f1, f2 = (grid, parked) if qubit == 1 else (parked, grid)
    modes = ("ab".index(resonator), 1 + qubit)
    seps, _ = odd_separations(p, SPACE, f1, f2, modes)
    i = int(np.argmin(seps))
    assert abs(gap.gap_mhz - seps[i] * 1e3) <= 1e-4
    assert abs(gap.location_ghz - grid[i]) <= 1e-5
    # at the minimum the rank pair is the pair of largest weight on the two
    # bare states, both levels near half qubit and half resonator
    point = OperatingPoint(*((gap.location_ghz, parked[0]) if qubit == 1
                             else (parked[0], gap.location_ghz)))
    sep, pair = reference_separation(p, point, SPACE, modes)
    assert gap.level_pair == pair
    assert abs(gap.gap_mhz - sep * 1e3) <= 1e-9
    gap4 = qubit_resonator_gap(p, qubit, resonator, HilbertSpace((4, 4, 4, 4)))
    assert abs(gap4.gap_mhz - gap.gap_mhz) <= 1e-5


@pytest.mark.parametrize("qubit, resonator", [
    (0, "a"), (3, "b"), (1.5, "a"), (True, "a"), pytest.param("1", "a", id="text-a"),
    (float("nan"), "a"),
    (1, "c"), (2, "q1"), (1, 0), (2, None), (1, "A"),
])
def test_qubit_resonator_gap_refuses_an_unknown_qubit_or_resonator(monkeypatch, qubit, resonator):
    scanned = []
    monkeypatch.setattr(spectroscopy, "_pair_separations", lambda *a: scanned.append(a))
    with pytest.raises(ConfigError, match="qubit|resonator"):
        qubit_resonator_gap(DeviceParams(), qubit, resonator, SPACE)
    assert scanned == []


@pytest.mark.parametrize("qubit, resonator, park", [
    (2, "a", {"qubit_max_freq_1": 4.50}), (2, "b", {"qubit_max_freq_1": 4.75}),
    (1, "a", {"qubit_max_freq_2": 4.85}),
])
def test_qubit_resonator_gap_refuses_a_parked_qubit_near_a_resonator(qubit, resonator, park):
    # the parked qubit sits 30, 50 and 50 MHz from a resonator, inside the
    # 90 MHz clearance of 3·g_max
    p = DeviceParams(**park)
    with pytest.raises(PhysicsError, match=rf"parked qubit {3 - qubit} .* resonator"):
        qubit_resonator_gap(p, qubit, resonator, SPACE)


# a 40 MHz resonator a, with every coupling and anharmonicity at most 15 MHz,
# under the half of the lowest mode frequency that DeviceParams admits
LOW_RESONATOR_A = {"resonator_freq_a": 0.04, "anharmonicity_1": -0.015, "anharmonicity_2": -0.015,
                   "g_a1": 0.015, "g_a2": 0.015, "g_b1": 0.015, "g_b2": 0.015}


@pytest.mark.parametrize("qubit, resonator, device, message", [
    pytest.param(1, "a", LOW_RESONATOR_A, "scan about resonator a must be positive",
                 id="q1-a-window"),
    pytest.param(2, "a", LOW_RESONATOR_A, "scan about resonator a must be positive",
                 id="q2-a-window"),
    pytest.param(1, "b", {"qubit_max_freq_2": -4.91}, "qubit_max_freq_2 must be above 0 GHz",
                 id="q1-b-parked"),
])
def test_qubit_resonator_gap_below_0_ghz_refused_before_solving(monkeypatch, qubit, resonator,
                                                               device, message):
    # a window of resonator a ± 50 MHz reaches -0.01 GHz at 0.04 GHz, and
    # 15 MHz couplings are far from dispersive there, so DeviceParams warns;
    # a parked qubit below 0 GHz is refused where the device is built
    solved = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: solved.append(a))
    if device is LOW_RESONATOR_A:
        with pytest.warns(UserWarning, match="not small"):
            p = DeviceParams(**device)
        with pytest.raises(ConfigError, match=message):
            qubit_resonator_gap(p, qubit, resonator, SPACE)
    else:
        with pytest.raises(ConfigError, match=message):
            DeviceParams(**device)
    assert solved == []


def test_csv_format():
    values = np.linspace(4.55, 4.57, 3)
    sweep = sweep_spectrum(
        DeviceParams(), "freq_1", values, OperatingPoint(4.6, 4.91), SPACE, n_levels=2
    )
    lines = sweep.to_csv().splitlines()
    assert lines[0] == "sweep_value,freq_ghz,label,overlap"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert len(first) == 4
    float(first[0]), float(first[1]), float(first[3])


# ---------------------------------------------------------------------------
# qubit-qubit gaps


def test_two_level_oracle_direct_coupling_only():
    # with only the direct qubit-qubit term the anti-crossing is an exact
    # two-level problem: gap = 2 g to floating-point accuracy
    g = 0.003
    p = decoupled().replace(g_12=g)
    space = HilbertSpace((2, 2, 2, 2))
    gap = qubit_qubit_gap(p, 4.60, space)
    assert gap.gap_mhz == pytest.approx(2 * g * 1e3, abs=1e-6)
    assert gap.location_ghz == pytest.approx(4.60, abs=1e-6)


def test_gap_at_458_setpoint():
    # the exact-diagonalization gap at the 4.58 GHz setpoint; the analytic
    # dispersive estimate (2 * 3.24 MHz) overshoots this because the
    # qubit-resonator detuning is not deeply dispersive here
    gap = qubit_qubit_gap(DeviceParams(), 4.58, space=SPACE)
    assert gap.gap_mhz == pytest.approx(5.72, abs=0.3)
    assert type(gap.gap_mhz) is float and type(gap.location_ghz) is float
    assert len(gap.level_pair) == 2 and all(type(k) is int for k in gap.level_pair)


def test_gap_below_2mhz_near_462():
    gap = qubit_qubit_gap(DeviceParams(), 4.625, space=SPACE)
    assert gap.gap_mhz < 2.0


def test_gap_at_switch_off_nearly_closed():
    p = DeviceParams()
    root = find_switch_off(p, (4.50, 4.77))
    gap = qubit_qubit_gap(p, root, space=SPACE)
    assert gap.gap_mhz < 0.5


def test_level_repulsion_no_zero_gap():
    p = DeviceParams()
    for setpoint in (4.58, 4.60, 4.64):
        gap = qubit_qubit_gap(p, setpoint, space=SPACE)
        assert gap.gap_mhz > 0


def test_gap_symmetry_near_minimum():
    p = decoupled().replace(g_12=0.003)
    space = HilbertSpace((2, 2, 2, 2))
    gap = qubit_qubit_gap(p, 4.60, space)
    loc = gap.location_ghz
    for d in (0.002, 0.005):
        up, _ = reference_separation(p, OperatingPoint(loc + d, 4.60), space)
        down, _ = reference_separation(p, OperatingPoint(loc - d, 4.60), space)
        assert up == pytest.approx(down, rel=1e-6)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (4, 3, 4, 3)])
def test_sliced_separations_equal_each_point_alone(monkeypatch, dims):
    # a budget of three members per slice splits the 11 points into 4 slices
    space = HilbertSpace(dims)
    p = DeviceParams()
    n = device_model(p, space, True).odd.size
    monkeypatch.setattr(spectroscopy, "STACK_SLICE_BYTES", 3 * 16 * n * n)
    f1 = np.concatenate([np.linspace(4.57, 4.63, 8), [4.60, 4.62, 4.66]])
    f2 = np.concatenate([np.full(8, 4.60), [4.60, 4.62, 4.66]])
    seps, pairs = odd_separations(p, space, f1, f2)
    model = device_model(p, space, True)
    for k in range(f1.size):
        evals = np.linalg.eigvalsh(model.block(model.odd).stack(f1[k:k + 1], f2[k:k + 1])[0])
        pair = rank_pair(p, f1[k], f2[k], space)
        assert seps[k] == abs(evals[pair[1]] - evals[pair[0]]) / TWO_PI
        assert tuple(pairs[k]) == pair


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (4, 4, 4, 4), (4, 3, 4, 3)])
@pytest.mark.parametrize("device", [
    DeviceParams(), DeviceParams(g_ab=0.01), DeviceParams(g_ab=-0.02),
    DeviceParams(anharmonicity_1=-0.2),
], ids=["default", "g_ab+0.01", "g_ab-0.02", "alpha_1-0.2"])
def test_rank_pair_is_the_pair_of_largest_qubit_weight(dims, device):
    # co-tuned points across the band and below 1 GHz, where at 4^4 states
    # of three and five excitations fall under the qubits (q1x3 at 3f + 6α,
    # below 3|α|), the 5-point windows of two gap scans, and random points
    # clear of both resonators, below, between and above them, so that the
    # qubits often sit on opposite sides of a resonator
    space = HilbertSpace(dims)
    rng = np.random.default_rng(sum(dims))
    cotuned = np.concatenate([[0.35, 0.65, 0.9], np.linspace(4.50, 4.78, 6)])
    windows = np.concatenate([np.linspace(f - 0.020, f + 0.020, 5) for f in (4.58, 4.68)])
    clear = [(4.20, 4.38), (4.56, 4.71), (4.89, 5.05)]
    random_1, random_2 = (np.array([rng.uniform(*clear[i]) for i in rng.integers(0, 3, 8)])
                          for _ in range(2))
    f1 = np.concatenate([cotuned, windows, random_1])
    f2 = np.concatenate([cotuned, np.repeat([4.58, 4.68], 5), random_2])
    seps, pairs = odd_separations(device, space, f1, f2)
    for k in range(f1.size):
        sep, pair = reference_separation(device, OperatingPoint(f1[k], f2[k]), space)
        assert tuple(pairs[k]) == pair == rank_pair(device, f1[k], f2[k], space)
        assert abs(seps[k] - sep) <= 1e-13


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (4, 3, 4, 3)])
@pytest.mark.parametrize("axis, values", [
    ("freq_2", np.linspace(4.40, 4.86, 11)),
    ("flux_1", np.linspace(0.0, 0.3, 11)),
])
def test_sliced_spectrum_equals_one_slice(monkeypatch, dims, axis, values):
    # a budget of three members of the larger parity block splits the 11
    # points into 4 slices
    space = HilbertSpace(dims)
    p = DeviceParams()
    model = device_model(p, space, True)
    whole = sweep_spectrum(p, axis, values, OperatingPoint(4.641, 4.91), space)
    n = max(model.even.size, model.odd.size)
    monkeypatch.setattr(spectroscopy, "STACK_SLICE_BYTES", 3 * 16 * n * n)
    sliced = sweep_spectrum(p, axis, values, OperatingPoint(4.641, 4.91), space)
    assert np.array_equal(sliced.levels, whole.levels)
    assert np.array_equal(sliced.overlaps, whole.overlaps)
    assert sliced.labels == whole.labels


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (4, 3, 4, 3)])
@pytest.mark.parametrize("values, fixed", [
    (np.linspace(4.40, 4.86, 24), OperatingPoint(4.637, 4.691)),
    (np.linspace(0.2, 0.45, 11), OperatingPoint(0.3, 4.691)),
], ids=["band", "below-2alpha"])
def test_fewer_levels_are_the_first_columns_of_all_levels(dims, values, fixed):
    # all levels weigh every eigenvector of both blocks; fewer weigh only each
    # block's lowest n_levels + 1, and report the same bits: across both bus
    # anti-crossings, where the two blocks' levels interleave, and with the
    # qubits under 2|α|, where q1x2 and q2x2 lie below every single excitation
    # and the lowest levels all come from the even block
    space = HilbertSpace(dims)
    p = DeviceParams()
    full = sweep_spectrum(p, "freq_2", values, fixed, space)
    for n_levels in (1, 2, 6, 20, space.size // 2, space.size - 2):
        sweep = sweep_spectrum(p, "freq_2", values, fixed, space, n_levels=n_levels)
        assert np.array_equal(sweep.levels, full.levels[:, :n_levels])
        assert np.array_equal(sweep.overlaps, full.overlaps[:, :n_levels])
        assert sweep.labels == [row[:n_levels] for row in full.labels]


def test_slice_budget_bounds_the_gap_scan_memory(monkeypatch):
    # unsliced, the 5 odd-block matrices of a 4^4 coarse scan take 655 kB
    # (only their eigenvalues are found); a budget of two members, 512 kiB,
    # diagonalizes two points at a time, and the two 128-state parity blocks
    # of a spectrum, with their eigenvectors, the same
    p = DeviceParams()
    space = HilbertSpace((4, 4, 4, 4))
    model = device_model(p, space, True)
    values = np.linspace(4.40, 4.86, 13)
    fixed = OperatingPoint(4.641, 4.91)
    with monkeypatch.context() as unsliced_budget:
        unsliced_budget.setattr(spectroscopy, "STACK_SLICE_BYTES", 2**40)
        unsliced = qubit_qubit_gap(p, 4.58, space)
        unsliced_sweep = sweep_spectrum(p, "freq_2", values, fixed, space)
    budget = 2 * (2 * 8 * model.odd.size**2)
    monkeypatch.setattr(spectroscopy, "STACK_SLICE_BYTES", budget)
    model_nbytes = sum(a.nbytes for a in (model.h_static, model.n_q1, model.n_q2,
                                          model.even, model.odd))
    tracemalloc.start()
    try:
        sliced = qubit_qubit_gap(p, 4.58, space)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sweep = sweep_spectrum(p, "freq_2", values, fixed, space)
        _, sweep_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget + model_nbytes
    assert sliced == unsliced
    output_nbytes = sweep.levels.nbytes + sweep.overlaps.nbytes
    assert sweep_peak < budget + model_nbytes + output_nbytes
    assert np.array_equal(sweep.levels, unsliced_sweep.levels)


def test_spectrum_labels_share_one_tag_table_and_fit_the_memory_count():
    # 2,000 points and 80 levels at 3^4: each label is a reference into one
    # table of tags, so the peak stays within the bytes the guard counts
    # plus one slice and the model's arrays
    p = DeviceParams()
    model = device_model(p, SPACE, True)
    values = np.linspace(4.40, 4.86, 2000)
    fixed = OperatingPoint(4.641, 4.91)
    sweep_spectrum(p, "freq_2", values[:3], fixed, SPACE)
    model_nbytes = sum(a.nbytes for a in (model.h_static, model.n_q1, model.n_q2,
                                          model.even, model.odd))
    tracemalloc.start()
    try:
        sweep = sweep_spectrum(p, "freq_2", values, fixed, SPACE, n_levels=80)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    counted = spectroscopy._spectrum_bytes(values.size, SPACE.size, 80)
    assert peak < counted + spectroscopy.STACK_SLICE_BYTES + model_nbytes
    tags = {}
    for row in sweep.labels:
        for label in row:
            assert tags.setdefault(label, label) is label
    assert len(tags) <= SPACE.size + 1 and "mixed" in tags


# text is refused like a bool: float() would parse it; so is a setpoint
# whose scan window, the setpoint ± 20 MHz, reaches 0 GHz, or lies above
# 2^23 GHz, where float64 spaces its frequencies wider than 1e-9 GHz
@pytest.mark.parametrize("flag", [
    True, np.True_, pytest.param("4.60", id="str"), pytest.param(b"4.60", id="bytes"),
    pytest.param(np.str_("4.6"), id="numpy-str"), pytest.param(-4.6, id="negative"),
    pytest.param(0.0, id="zero"), pytest.param(0.01, id="window-below-zero"),
    pytest.param(0.02, id="window-ends-at-zero"),
    pytest.param(1e7, id="above-float64-resolution"), pytest.param(1e12, id="far-above"),
])
def test_bool_setpoints_refused_before_any_scan(monkeypatch, flag):
    scanned = []
    monkeypatch.setattr(spectroscopy, "_pair_separations", lambda *a: scanned.append(a))
    with pytest.raises(ConfigError, match="setpoint"):
        gap_vs_setpoint(DeviceParams(), [4.58, flag], SPACE)
    with pytest.raises(ConfigError, match="setpoint"):
        qubit_qubit_gap(DeviceParams(), flag, space=SPACE)
    assert scanned == []


@pytest.mark.parametrize("setpoints", [4.6, "4.6", b"4.6", np.float64(4.6)],
                         ids=["float", "str", "bytes", "numpy-float"])
def test_setpoints_that_are_not_a_list_refused(setpoints):
    with pytest.raises(ConfigError, match="setpoints must be a list of numbers"):
        gap_vs_setpoint(DeviceParams(), setpoints, SPACE)


def test_gap_truncation_convergence():
    gap3 = qubit_qubit_gap(DeviceParams(), 4.58, space=SPACE)
    gap4 = qubit_qubit_gap(DeviceParams(), 4.58, space=HilbertSpace((4, 4, 4, 4)))
    assert abs(gap4.gap_mhz - gap3.gap_mhz) < 1e-3  # under 1 kHz


def test_gap_converges_at_five_levels_per_mode():
    gaps = [qubit_qubit_gap(DeviceParams(), 4.58, space=HilbertSpace((d,) * 4)).gap_mhz
            for d in (3, 4, 5)]
    # each added level shrinks the truncation error: 1.9e-6 then 4e-10 MHz
    assert abs(gaps[2] - gaps[1]) < abs(gaps[1] - gaps[0]) / 100


def dense_reference_gap(params, setpoint, space):
    """Gap (MHz) and location (GHz) from a 4001-point grid over the default
    sweep, then a golden-section search of the bracket around its minimum
    down to 1e-10 GHz, each search point one eigh alone."""
    grid = np.linspace(setpoint - 0.020, setpoint + 0.020, 4001)
    seps, _ = odd_separations(params, space, grid, np.full(grid.size, setpoint))
    i = int(np.argmin(seps))
    a, b = grid[i - 1], grid[i + 1]

    def sep(f1):
        return reference_separation(params, OperatingPoint(f1, setpoint), space)[0]

    shrink = (math.sqrt(5) - 1) / 2
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    sep_c, sep_d = sep(c), sep(d)
    while b - a > 1e-10:
        if sep_c < sep_d:
            b, d, sep_d = d, c, sep_c
            c = b - shrink * (b - a)
            sep_c = sep(c)
        else:
            a, c, sep_c = c, d, sep_d
            d = a + shrink * (b - a)
            sep_d = sep(d)
    best_sep, best_loc = min((sep_c, c), (sep_d, d))
    return best_sep * 1e3, best_loc


@pytest.mark.parametrize("setpoint, g_ab", [
    (4.58, 0.0), (4.60, 0.0), (4.63, 0.0), (4.68, 0.0), (4.62, 0.01), (4.65, -0.02),
], ids=["4.58", "4.6", "4.63", "4.68", "g_ab+0.01-4.62", "g_ab-0.02-4.65"])
def test_gap_agrees_with_a_dense_reference(setpoint, g_ab):
    # 4.63 GHz is next to the switch-off, where the gap is about 0.036 MHz;
    # with g_ab = +0.01 at 4.62 GHz and -0.02 at 4.65 GHz it is as narrow,
    # and the 5-point grid alone misses the minimum there by about 5e-5 MHz
    p = DeviceParams(g_ab=g_ab)
    gap = qubit_qubit_gap(p, setpoint, space=SPACE)
    ref_gap, ref_loc = dense_reference_gap(p, setpoint, SPACE)
    assert abs(gap.gap_mhz - ref_gap) <= 1e-9
    assert abs(gap.location_ghz - ref_loc) <= 5e-8


def test_gap_under_three_excitation_states_agrees_with_a_dense_reference():
    # at 4^4 and 0.6 GHz, under 3|α|, the bare q1x3 and q2x3 states lie near
    # 0.3 GHz, below both qubits, so the qubit pair is (2, 3); ranking the
    # qubits among the resonators alone took (0, 1), a gap of 5.4e-6 MHz
    p = DeviceParams()
    space = HilbertSpace((4, 4, 4, 4))
    gap = qubit_qubit_gap(p, 0.6, space=space)
    ref_gap, ref_loc = dense_reference_gap(p, 0.6, space)
    _, ref_pair = reference_separation(p, OperatingPoint(gap.location_ghz, 0.6), space)
    assert gap.level_pair == ref_pair == (2, 3)
    assert gap.gap_mhz == pytest.approx(0.334466, abs=1e-6)
    assert abs(gap.gap_mhz - ref_gap) <= 1e-9
    assert abs(gap.location_ghz - ref_loc) <= 5e-8


def test_cotuned_half_gap_inside_a_resonator_band_keeps_the_rank_pair():
    # co-tuned 1 MHz above resonator a (4.47 GHz) the two levels of largest
    # qubit weight are a dark qubit state and a resonator hybrid, (0, 1), with
    # a half gap of 20.050224 MHz; the rank pair stays (1, 2)
    p = DeviceParams()
    model = device_model(p, SPACE, True)
    point = np.array([4.471])
    _, pairs = odd_separations(p, SPACE, point, point)
    evals = np.linalg.eigvalsh(model.block(model.odd).stack(point, point)[0])
    half_gap = cotuned_half_gap(p, [4.471], SPACE)[0]
    assert tuple(pairs[0]) == (1, 2)
    assert reference_separation(p, OperatingPoint(4.471, 4.471), SPACE)[1] == (0, 1)
    # solved in the qubit-exchange sectors, equal to the whole block's to rounding
    assert (abs(half_gap - 0.5 * (evals[2] - evals[1]) / TWO_PI * 1e3)
            <= half_gap_bound(p, SPACE, point)[0])
    assert half_gap == pytest.approx(17.891066, abs=1e-6)


def test_gaps_and_cotuned_half_gaps_need_no_eigenvectors(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise RuntimeError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    p = DeviceParams()
    assert qubit_qubit_gap(p, 4.58, space=SPACE).gap_mhz > 0
    results, errors = gap_vs_setpoint(p, [4.58, 4.63], SPACE)
    assert errors == [None, None] and all(r.gap_mhz > 0 for r in results)
    assert np.all(cotuned_half_gap(p, np.linspace(4.52, 4.76, 7), SPACE) > 0)
    with pytest.raises(RuntimeError, match="eigh called"):
        sweep_spectrum(p, "freq_1", np.linspace(4.55, 4.61, 3), OperatingPoint(4.6, 4.91), SPACE)


def test_gap_work_is_the_coarse_grid_and_the_step_cap(monkeypatch):
    members = []
    separations = spectroscopy._pair_separations

    def counting(model, blocks, modes, f1s, f2s):
        members.append(len(f1s))
        return separations(model, blocks, modes, f1s, f2s)

    monkeypatch.setattr(spectroscopy, "_pair_separations", counting)
    cap = spectroscopy.GAP_GRID + spectroscopy.GAP_VERTEX_STEPS
    qubit_qubit_gap(DeviceParams(), 4.60, space=SPACE)
    assert members[0] == spectroscopy.GAP_GRID
    assert sum(members) <= cap
    # the scans of a call advance in lockstep: one stack of every coarse grid,
    # then one stack a round of the vertices of the scans still running
    rounds = 1 + spectroscopy.GAP_VERTEX_STEPS
    members.clear()
    gap_vs_setpoint(DeviceParams(), [4.58, 4.63], SPACE)
    assert members[0] == 2 * spectroscopy.GAP_GRID
    assert len(members) <= rounds and max(members[1:]) <= 2
    assert sum(members) <= 2 * cap
    members.clear()
    _, errors = gap_vs_setpoint(DeviceParams(), np.linspace(4.58, 4.68, 12), SPACE)
    assert errors == [None] * 12
    assert members[0] == 12 * spectroscopy.GAP_GRID and len(members) <= rounds


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (4, 4, 4, 4)])
def test_gap_scans_equal_each_point_diagonalized_alone(monkeypatch, dims):
    # every scan, its grid and its vertex steps, gives the same bits when each
    # point is built and diagonalized alone; the co-tuned half gaps, solved in
    # the qubit-exchange sectors, equal the whole odd block's to rounding
    space = HilbertSpace(dims)
    p = DeviceParams()
    freqs = np.linspace(4.52, 4.76, 13)

    def scans(half_gaps):
        return (qubit_qubit_gap(p, 4.60, space), qubit_resonator_gap(p, 2, "b", space),
                qubit_resonator_gap(p, 1, "a", space),
                gap_vs_setpoint(p, [4.58, 4.63, 4.49, 4.68], space),
                half_gaps(p, freqs, space))

    def fields(gap):
        return None if gap is None else (gap.gap_mhz, gap.location_ghz, gap.level_pair)

    prepared = scans(cotuned_half_gap)
    blocks = []

    def stand_in(model, solved, modes, f1s, f2s):
        blocks.append(solved)
        return separations_alone(model, f1s, f2s, modes)

    monkeypatch.setattr(spectroscopy, "_pair_separations", stand_in)
    alone = scans(lambda p, f, space: 0.5 * separations_alone(
        device_model(p, space, True), f, f)[0] * 1e3)
    # every round of the three one-window scans and of the lockstep of the
    # four setpoints took its pairs from the helper, on the whole odd block
    odd = device_model(p, space, True).odd_block
    assert len(blocks) >= 4 and all([id(b) for b in solved] == [id(odd)] for solved in blocks)
    for mine, ref in zip(prepared[:3], alone[:3]):
        assert fields(mine) == fields(ref)
    assert [fields(g) for g in prepared[3][0]] == [fields(g) for g in alone[3][0]]
    assert prepared[3][1] == alone[3][1] and prepared[3][1][2] is not None
    assert np.all(np.abs(prepared[4] - alone[4]) <= half_gap_bound(p, space, freqs))


BRACKET_TOO_NARROW = DeviceParams(g_a1=0, g_a2=0.1, g_b1=0, g_b2=0, g_12=0.003,
                                  resonator_freq_b=6.0)


# 4.58 and 4.675 take 5 and 6 vertex steps at 3^4, 6 and 5 at 4^4, 4.60 and 4.63
# take 3 and 2, and 4.47 is refused for resonator clearance; a budget of
# three members splits the coarse stack and the rounds of four vertices
# across slices; on the device of test_gap_bracket_too_narrow 4.80 fails
# on its bracket and 5.2 is located
@pytest.mark.parametrize("params, dims, setpoints, slice_members", [
    (DeviceParams(), (3, 3, 3, 3), [4.58, 4.60, 4.47, 4.63, 4.675], None),
    (DeviceParams(), (4, 4, 4, 4), [4.58, 4.60, 4.47, 4.63, 4.675], None),
    (DeviceParams(), (3, 3, 3, 3), [4.58, 4.60, 4.47, 4.63, 4.675], 3),
    (BRACKET_TOO_NARROW, (2, 2, 2, 2), [4.80, 5.2], None),
], ids=["3^4", "4^4", "3^4-sliced", "bracket-too-narrow"])
def test_lockstep_gaps_equal_each_setpoint_alone(monkeypatch, params, dims, setpoints,
                                                 slice_members):
    space = HilbertSpace(dims)
    alone = []
    for setpoint in setpoints:
        try:
            alone.append((qubit_qubit_gap(params, setpoint, space), None))
        except PhysicsError as exc:
            alone.append((None, str(exc)))
    if slice_members:
        odd = device_model(params, space, True).odd.size
        monkeypatch.setattr(spectroscopy, "STACK_SLICE_BYTES", slice_members * 2 * 8 * odd**2)
    results, errors = gap_vs_setpoint(params, setpoints, space)
    assert list(zip(results, errors)) == alone
    assert any(e is None for e in errors) and any(e is not None for e in errors)


def test_gap_scan_measures_the_full_2j_splitting():
    # the qubit-qubit gap is the whole splitting 2|g_eff| of the qubit pair,
    # not |g_eff|: at each setpoint it lies within 0.5 % below twice the
    # co-tuned half gap at the same frequency (0.16-0.24 % at 3^4)
    p = DeviceParams()
    setpoints = [4.58, 4.60, 4.62, 4.64, 4.66, 4.68]
    results, errors = gap_vs_setpoint(p, setpoints, SPACE)
    assert errors == [None] * len(setpoints)
    for result, half_gap in zip(results, cotuned_half_gap(p, setpoints, SPACE)):
        assert 0.995 * 2 * half_gap <= result.gap_mhz <= 2 * half_gap + 1e-9


def _spy_on_restrictions(monkeypatch) -> list[int]:
    """The size of each block the models restrict from here on, in order."""
    restricted = []
    block = DeviceModel.block

    def spy(self, idx):
        restricted.append(len(idx))
        return block(self, idx)

    monkeypatch.setattr(DeviceModel, "block", spy)
    return restricted


def test_a_gap_scan_restricts_the_odd_block_once_per_model(monkeypatch):
    restricted = _spy_on_restrictions(monkeypatch)
    device_model.cache_clear()
    p = DeviceParams()
    for space in (SPACE, HilbertSpace((4, 4, 4, 4))):
        restricted.clear()
        results, errors = gap_vs_setpoint(p, [4.58, 4.60, 4.63, 4.68], space)
        assert errors == [None] * 4
        assert restricted == [device_model(p, space, True).odd.size]
        # the model keeps the block for the next scan and the half gaps
        qubit_resonator_gap(p, 1, "a", space)
        cotuned_half_gap(p, [4.55, 4.65], space)
        assert len(restricted) == 1


def test_a_spectrum_a_gap_scan_and_geff_restrict_each_block_once(monkeypatch, tmp_path):
    # the even and the odd block are restricted once and kept; the co-tuned
    # sectors are gathered from the kept odd block, once
    from dresq.cli import main

    restricted = _spy_on_restrictions(monkeypatch)
    device_model.cache_clear()
    p = DeviceParams()
    model = device_model(p, SPACE, True)
    sweep_spectrum(p, "freq_2", np.linspace(4.4, 4.86, 5), OperatingPoint(4.6, 4.91), SPACE)
    assert restricted == [model.even.size, model.odd.size]
    gap_vs_setpoint(p, [4.58, 4.63], SPACE)
    sectors = model.cotuned_sectors
    assert main(["geff", "--points", "5", "--out", str(tmp_path)]) == 0
    assert model.cotuned_sectors is sectors and len(sectors) == 2
    assert restricted == [model.even.size, model.odd.size]


def test_gap_bracket_too_narrow():
    # qubit 2 alone couples to resonator a, 100 MHz strong, whose push moves
    # the anti-crossing above the 4.78-4.82 GHz window, so the minimum
    # separation lands on the last grid point
    with pytest.raises(PhysicsError, match="bracket too narrow"):
        qubit_qubit_gap(BRACKET_TOO_NARROW, 4.80, HilbertSpace((2, 2, 2, 2)))


def test_gap_setpoint_too_close_to_resonator():
    with pytest.raises(PhysicsError, match="resonator"):
        qubit_qubit_gap(DeviceParams(), 4.49, space=SPACE)


def test_gap_sweep_endpoint_too_close_to_resonator():
    # the setpoint clears resonator a by 95 MHz, but the default sweep's
    # lower endpoint 4.545 GHz is 75 MHz from it, inside the 90 MHz clearance
    with pytest.raises(PhysicsError, match=r"sweep endpoint .* resonator a .*90\.0 MHz"):
        qubit_qubit_gap(DeviceParams(), 4.565, SPACE)


def test_a_sweep_endpoint_exactly_at_the_clearance_is_admitted():
    # the window of 4.69 ends at 4.71 GHz, 90 MHz from resonator b in decimal
    # but 0.08999999999999986 GHz in float64; 4.6901 ends 89.9 MHz from it
    result = qubit_qubit_gap(DeviceParams(), 4.69, SPACE)
    assert (f"{result.gap_mhz:.6f}", f"{result.location_ghz:.9f}") == ("6.970650", "4.689436441")
    with pytest.raises(PhysicsError, match=r"^sweep endpoint 4\.7101 GHz is 89\.9 MHz from "
                                           r"resonator b \(needs 90\.0 MHz clearance\)$"):
        qubit_qubit_gap(DeviceParams(), 4.6901, SPACE)


def test_a_vertex_step_replaces_the_worst_held_point(monkeypatch):
    # on a separation with a cusp, |Δ − 3.1 MHz|^0.6 + 0.1 MHz in qubit 1's
    # detuning Δ from the parked qubit 2, no parabola fits: a step that beats
    # the worst held point but not the middle one must still be taken
    # (4.6031006 GHz); taking only steps that beat the middle one stops at
    # 4.6031035 GHz

    def cusp(model, blocks, modes, f1s, f2s):
        seps = np.abs(f1s - f2s - 0.0031) ** 0.6 + 1e-4
        return seps, np.tile([1, 2], (len(f1s), 1))

    monkeypatch.setattr(spectroscopy, "_pair_separations", cusp)
    [result] = spectroscopy._min_separations(DeviceParams(), SPACE, (2, 3), 1,
                                             [(4.60, 4.58, 4.62)])
    assert abs(result.location_ghz - 4.6031) <= 1e-6


def test_gap_vs_setpoint_decreasing():
    results, errors = gap_vs_setpoint(DeviceParams(), [4.58, 4.60, 4.62], SPACE)
    assert errors == [None, None, None]
    gaps = [r.gap_mhz for r in results]
    assert gaps[0] > gaps[1] > gaps[2]


def test_gap_fifty_mhz_below_switch_off():
    # the dispersive formula predicts ~3.2 MHz coupling 50 MHz below the
    # switch-off, i.e. a 6.5 MHz gap; exact diagonalization gives less
    # because the expansion degrades at this detuning from resonator a.
    # The exact value is pinned here so the discrepancy stays visible. The
    # setpoint is 49 MHz below: 50 MHz below, the scan window's lower end
    # (4.5594 GHz) is 89.4 MHz from resonator a, inside its 90 MHz clearance.
    p = DeviceParams()
    root = find_switch_off(p, (4.50, 4.77))
    setpoint = root - 0.049
    result = qubit_qubit_gap(p, setpoint, SPACE)
    assert result.gap_mhz == pytest.approx(5.7, abs=0.4)


def test_gap_vs_setpoint_collects_errors():
    results, errors = gap_vs_setpoint(DeviceParams(), [4.58, 4.47], SPACE)
    assert results[0] is not None and errors[0] is None
    assert results[1] is None and "resonator" in errors[1]


def test_gap_vs_setpoint_empty():
    results, errors = gap_vs_setpoint(DeviceParams(), [], SPACE)
    assert results == [] and errors == []


def test_cotuned_half_gap_tracks_analytic_coupling_at_sweet_region():
    from dresq.device import effective_coupling

    p = DeviceParams()
    for f in (4.60, 4.62):
        hg = cotuned_half_gap(p, [f], SPACE)[0]
        ga = abs(effective_coupling(p, OperatingPoint(f, f))) * 1e3
        assert hg == pytest.approx(ga, rel=0.12)


def test_cotuned_half_gap_of_an_array_is_each_one_point_call():
    p = DeviceParams()
    freqs = np.linspace(4.52, 4.76, 7)
    half_gaps = cotuned_half_gap(p, freqs, SPACE)
    assert isinstance(half_gaps, np.ndarray) and half_gaps.shape == (7,)
    singles = [cotuned_half_gap(p, [f], SPACE) for f in freqs]
    assert all(hg.shape == (1,) for hg in singles)
    assert half_gaps.tolist() == [hg[0] for hg in singles]
    assert cotuned_half_gap(p, np.array([]), SPACE).shape == (0,)


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (4, 4, 4, 4), (5, 5, 5, 5)])
@pytest.mark.parametrize("g_ab", [0.0, 0.01, -0.01])
def test_cotuned_half_gaps_equal_the_odd_blocks_within_rounding(dims, g_ab):
    p = DeviceParams(g_ab=g_ab)
    space = HilbertSpace(dims)
    freqs = np.array([4.471, 4.52, 4.58, 4.6392, 4.70, 4.76])
    half_gaps = cotuned_half_gap(p, freqs, space)
    whole = 0.5 * separations_alone(device_model(p, space, True), freqs, freqs)[0] * 1e3
    assert np.all(np.abs(half_gaps - whole) <= half_gap_bound(p, space, freqs))


@pytest.mark.parametrize("params, dims", [
    (DeviceParams(g_a1=0.026), (3, 3, 3, 3)),
    (DeviceParams(anharmonicity_1=-0.24), (3, 3, 3, 3)),
    (DeviceParams(), (3, 3, 3, 4)),
    (DeviceParams(g_b2=0.031, g_ab=0.01), (4, 4, 4, 4)),
])
def test_cotuned_half_gaps_of_a_device_without_the_qubit_exchange_are_the_odd_blocks(
        params, dims):
    space = HilbertSpace(dims)
    freqs = np.array([4.471, 4.52, 4.58, 4.6392, 4.70, 4.76])
    half_gaps = cotuned_half_gap(params, freqs, space)
    whole = 0.5 * separations_alone(device_model(params, space, True), freqs, freqs)[0] * 1e3
    assert half_gaps.tobytes() == whole.tobytes()


def test_a_symmetric_cotuned_call_solves_only_the_sectors(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: solved.append(h.shape) or eigvalsh(h))
    cotuned_half_gap(DeviceParams(), np.linspace(4.52, 4.76, 50), SPACE)
    assert solved == [(50, 26, 26), (50, 14, 14)]
    solved.clear()
    cotuned_half_gap(DeviceParams(g_a2=0.028), np.linspace(4.52, 4.76, 50), SPACE)
    assert solved == [(40, 40, 40), (10, 40, 40)]


@pytest.mark.parametrize("params, dims", [(DeviceParams(), (3, 3, 3, 3)),
                                          (DeviceParams(g_ab=0.01), (4, 4, 4, 4)),
                                          (DeviceParams(g_a1=0.026), (3, 3, 3, 3))])
def test_cotuned_half_gaps_do_not_depend_on_slicing(monkeypatch, params, dims):
    space = HilbertSpace(dims)
    freqs = np.linspace(4.52, 4.76, 11)
    whole = cotuned_half_gap(params, freqs, space)
    largest = len(device_model(params, space, True).cotuned_sectors[0].template)
    # three points a slice
    monkeypatch.setattr(spectroscopy, "STACK_SLICE_BYTES", 3 * 2 * 8 * largest**2)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: solved.append(len(h)) or eigvalsh(h))
    sliced = cotuned_half_gap(params, freqs, space)
    sectors = len(device_model(params, space, True).cotuned_sectors)
    assert solved == [3] * 3 * sectors + [2] * sectors
    singles = [cotuned_half_gap(params, [f], space)[0] for f in freqs]
    assert whole.tobytes() == sliced.tobytes() == np.array(singles).tobytes()


def test_a_cotuned_call_at_5_4_peaks_within_one_slice_and_the_kept_blocks():
    # the sectors (186 and 126 states) are built from the kept odd block (312)
    # and kept beside it; the call's stacks, solves and bare energies stay
    # within one slice of STACK_SLICE_BYTES beyond them and the results
    space = HilbertSpace((5, 5, 5, 5))
    p = DeviceParams()
    device_model.cache_clear()
    model = device_model(p, space, True)
    freqs = np.linspace(4.52, 4.76, 200)
    tracemalloc.start()
    try:
        half_gaps = cotuned_half_gap(p, freqs, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum({id(a): a.nbytes for b in (model.odd_block, *model.cotuned_sectors)
                for a in b}.values())
    assert [len(b.template) for b in model.cotuned_sectors] == [186, 126]
    assert kept >= 8 * (312**2 + 186**2 + 126**2)
    assert peak <= spectroscopy.STACK_SLICE_BYTES + kept + 4 * 8 * half_gaps.size


@pytest.mark.parametrize("freq", [True, np.True_, np.nan, -4.6, [[4.6]], [4.6, True],
                                  [[4.6], [4.6, 4.7]], [4.6, np.inf]])
def test_cotuned_half_gap_refuses_bad_frequencies(freq):
    with pytest.raises(ConfigError):
        cotuned_half_gap(DeviceParams(), freq, SPACE)


def test_cotuned_half_gaps_beyond_the_memory_limit_refused_before_allocating(monkeypatch):
    # 40,000 points need 1.2 MiB of points, separations and level pairs
    freqs = np.linspace(4.52, 4.76, 40_000)
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="co-tuned half gaps at 40000 points"):
            cotuned_half_gap(DeviceParams(), freqs, SPACE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("values", [[], np.array([])])
def test_sweep_of_no_points_is_refused(values):
    with pytest.raises(ConfigError, match="sweep values must be a non-empty 1-d array"):
        sweep_spectrum(DeviceParams(), "freq_1", values, OperatingPoint(4.637, 4.691), SPACE)


def test_a_vertex_step_that_beats_no_held_point_ends_the_steps(monkeypatch):
    # the first step is sent beyond the grid's outer neighbour of the minimum,
    # which beats none of the three held points: the steps end there, and the
    # gap is the grid minimum
    lo, hi = 4.60 - spectroscopy.GAP_HALF_SPAN, 4.60 + spectroscopy.GAP_HALF_SPAN
    grid = np.linspace(lo, hi, spectroscopy.GAP_GRID)
    seps, _ = odd_separations(DeviceParams(), SPACE, grid, np.full(grid.size, 4.60))
    i_min = int(np.argmin(seps))
    assert 1 <= i_min <= grid.size - 2
    far = (grid[0] + 0.1 * (grid[1] - grid[0]) if i_min >= 2
           else grid[-1] - 0.1 * (grid[-1] - grid[-2]))
    steps = []
    monkeypatch.setattr(spectroscopy, "_parabola_vertex", lambda *held: steps.append(held) or far)
    gap = qubit_qubit_gap(DeviceParams(), 4.60, SPACE)
    assert len(steps) == 1
    assert gap.location_ghz == grid[i_min] and gap.gap_mhz == seps[i_min] * 1e3
