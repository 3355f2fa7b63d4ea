import dataclasses
import fractions
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dresq import errors
from dresq.errors import ConfigError, PhysicsError
from dresq.fock import HilbertSpace
from dresq.device import (
    ANALYTIC_POINT_BYTES,
    TWO_PI,
    DeviceParams,
    OperatingPoint,
    device_model,
    effective_coupling,
    find_switch_off,
    flux_to_frequency,
)
from oracles import dispersive_coupling, total_number_operator


def decoupled(**kw):
    return DeviceParams(g_a1=0, g_a2=0, g_b1=0, g_b2=0, g_ab=0, g_12=0, **kw)


def hamiltonian(params, point, space, counter_rotating=True):
    """H/ħ at one operating point: a stack of one from the cached model."""
    model = device_model(params, space, counter_rotating)
    return model.block(np.arange(space.size)).stack(
        np.array([point.qubit_freq_1]), np.array([point.qubit_freq_2]))[0]


def state_index(space, occupations):
    """Basis index of the product state with these per-mode occupations."""
    return int(np.dot(occupations, space.strides))


# ---------------------------------------------------------------------------
# parameter validation


def test_default_values():
    p = DeviceParams()
    assert p.resonator_freq_a == 4.47
    assert p.resonator_freq_b == 4.80
    assert p.qubit_max_freq_1 == 4.641
    assert p.qubit_max_freq_2 == 4.91
    assert p.g_a1 == p.g_a2 == 0.027
    assert p.g_b1 == p.g_b2 == 0.030
    assert p.g_12 == 0.00088
    assert p.g_ab == 0.0
    assert p.anharmonicity_1 == -0.250


def test_resonator_ordering_enforced():
    with pytest.raises(ConfigError):
        DeviceParams(resonator_freq_a=4.9, resonator_freq_b=4.5)


def test_t2_bound_enforced():
    with pytest.raises(ConfigError):
        DeviceParams(t1_qubit1=1.0, t2_qubit1=2.5)
    DeviceParams(t1_qubit1=1.0, t2_qubit1=2.0)  # exactly lifetime-limited is fine


def test_large_coupling_warns_not_fails():
    with pytest.warns(UserWarning):
        DeviceParams(g_b1=0.6)


def test_json_round_trip():
    p = DeviceParams(g_12=0.002, t1_qubit2=25.0)
    q = DeviceParams.from_json(p.to_json())
    assert p == q


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_infinite_lifetimes_written_as_null():
    inf = math.inf
    p = DeviceParams(t1_qubit1=inf, t1_qubit2=inf, t2_qubit1=inf, t2_qubit2=inf)
    text = p.to_json()
    raw = json.loads(text, parse_constant=_refuse_constant)
    assert all(raw[k] is None for k in ("t1_qubit1", "t1_qubit2", "t2_qubit1", "t2_qubit2"))
    assert DeviceParams.from_json(text) == p


def test_json_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        DeviceParams.from_json('{"resonator_freq_c": 5.0}')


def test_json_partial_and_null_lifetimes():
    p = DeviceParams.from_json('{"g_12": 0.001, "t1_qubit1": null, "t2_qubit1": null}')
    assert p.g_12 == 0.001
    assert math.isinf(p.t1_qubit1)
    assert p.resonator_freq_b == 4.80  # defaults fill in


@pytest.mark.parametrize("text", [
    pytest.param('{"g_12": 1' + "0" * 400 + "}", id="g_12-401-digits"),
    pytest.param('{"t1_qubit1": 1' + "0" * 400 + "}", id="t1-401-digits"),
    # past the interpreter's limit on parsing integers
    pytest.param('{"g_12": ' + "1" * 5000 + "}", id="g_12-5000-digits"),
])
def test_json_oversized_integer_rejected(text):
    with pytest.raises(ConfigError):
        DeviceParams.from_json(text)


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**400, 10**400),
    st.floats(), st.text(max_size=4), st.lists(st.floats(), max_size=2),
)


@pytest.mark.filterwarnings("ignore:largest coupling")
@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(DeviceParams)]),
                       json_values))
def test_json_fuzz_round_trips_or_raises_config_error(raw):
    try:
        p = DeviceParams.from_json(json.dumps(raw))
    except ConfigError:
        return
    assert DeviceParams.from_json(p.to_json()) == p


def test_operating_point_validation():
    with pytest.raises(ConfigError):
        OperatingPoint(-1.0, 4.6)
    with pytest.raises(ConfigError):
        OperatingPoint(4.6, float("nan"))


@pytest.mark.parametrize("key", ["t1_qubit1", "g_12", "flux_period_2"])
def test_bools_are_not_numbers(key):
    with pytest.raises(ConfigError, match=key):
        DeviceParams(**{key: True})
    with pytest.raises(ConfigError, match=key):
        DeviceParams.from_json(json.dumps({key: False}))
    with pytest.raises(ConfigError, match="qubit_freq_1"):
        OperatingPoint(True, 4.6)


def test_operating_point_keeps_its_frequencies_as_checked_floats():
    point = OperatingPoint(fractions.Fraction(23, 5), np.int64(5))
    assert (point.qubit_freq_1, point.qubit_freq_2) == (4.6, 5.0)
    assert type(point.qubit_freq_1) is float and type(point.qubit_freq_2) is float


# ---------------------------------------------------------------------------
# Hamiltonian builder


def test_decoupled_hamiltonian_is_diagonal():
    space = HilbertSpace((2, 2, 2, 2))
    h = hamiltonian(decoupled(), OperatingPoint(4.60, 4.70), space)
    assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
    evals = np.sort(np.diag(h))
    singles = sorted(h[i, i] for i in space.single_excitation_indices())
    assert np.allclose(singles, [TWO_PI * f for f in (4.47, 4.60, 4.70, 4.80)])
    assert evals[0] == 0.0


def test_coupling_matrix_element_placement():
    space = HilbertSpace((3, 3, 3, 3))
    h = hamiltonian(DeviceParams(), OperatingPoint(4.58, 4.58), space)
    i_a = state_index(space, (1, 0, 0, 0))
    i_q1 = state_index(space, (0, 0, 1, 0))
    assert h[i_a, i_q1] == pytest.approx(TWO_PI * 0.027)
    i_b = state_index(space, (0, 1, 0, 0))
    i_q2 = state_index(space, (0, 0, 0, 1))
    assert h[i_b, i_q2] == pytest.approx(TWO_PI * 0.030)
    # counter-rotating part carries the opposite sign
    i_vac = 0
    i_aq1 = state_index(space, (1, 0, 1, 0))
    assert h[i_vac, i_aq1] == pytest.approx(-TWO_PI * 0.027)


def test_anharmonic_shift():
    space = HilbertSpace((3, 3, 3, 3))
    p = decoupled()
    h = hamiltonian(p, OperatingPoint(4.60, 4.70), space)
    i_two = state_index(space, (0, 0, 2, 0))
    # two quanta in qubit 1: 2 omega_1 + 2 alpha (the a+a+aa term gives n(n-1))
    assert h[i_two, i_two].real == pytest.approx(TWO_PI * (2 * 4.60 + 2 * (-0.250)))


def test_hamiltonian_hermitian_at_random_points():
    space = HilbertSpace((3, 3, 3, 3))
    rng = np.random.default_rng(7)
    p = DeviceParams()
    for _ in range(100):
        f1, f2 = rng.uniform(4.0, 5.2, size=2)
        h = hamiltonian(p, OperatingPoint(f1, f2), space)
        assert np.array_equal(h, h.T)


def test_wrong_mode_count_rejected():
    with pytest.raises(ConfigError):
        hamiltonian(DeviceParams(), OperatingPoint(4.6, 4.6), HilbertSpace((3, 3)))


def test_rotating_wave_variant_conserves_excitation():
    space = HilbertSpace((3, 3, 3, 3))
    h = hamiltonian(DeviceParams(), OperatingPoint(4.60, 4.60), space, counter_rotating=False)
    n = total_number_operator(space)
    assert np.abs(h @ n - n @ h).max() < 1e-12


# ---------------------------------------------------------------------------
# effective coupling


def test_effective_coupling_zero_device():
    assert effective_coupling(decoupled(), OperatingPoint(4.6, 4.6)) == 0.0


def test_effective_coupling_cotuned_values():
    p = DeviceParams()
    # frozen oracle: summing the four detuning and four sum terms by hand
    # gives +4.208 MHz (resonator a), -5.720 MHz (resonator b), +0.88 direct
    g64 = effective_coupling(p, OperatingPoint(4.64, 4.64)) * 1e3
    assert g64 == pytest.approx(-0.6321, abs=0.002)
    g58 = effective_coupling(p, OperatingPoint(4.58, 4.58)) * 1e3
    assert g58 == pytest.approx(3.2399, abs=0.002)


def test_effective_coupling_degeneracy_identified():
    with pytest.raises(PhysicsError, match="resonator a"):
        effective_coupling(DeviceParams(), OperatingPoint(4.47, 4.60))
    with pytest.raises(PhysicsError, match="qubit 2"):
        effective_coupling(DeviceParams(), OperatingPoint(4.60, 4.80))


@pytest.mark.parametrize("params", [
    DeviceParams(), decoupled(), DeviceParams(g_a2=-0.02, g_12=-0.002),
    DeviceParams(resonator_freq_a=4, g_b1=0.03125, g_12=0),
], ids=["default", "decoupled", "signs", "int-fields"])
def test_effective_coupling_on_an_array_equals_the_path_sum_at_each_point(params):
    # bit for bit, zero signs included, co-tuned across and beyond the band,
    # and at uncorrelated points for the float form
    rng = np.random.default_rng(11)
    freqs = np.concatenate([np.linspace(4.3, 5.0, 41), rng.uniform(0.5, 9.0, 40)])
    ref = np.array([dispersive_coupling(params, f, f) for f in freqs])
    assert effective_coupling(params, freqs).tobytes() == ref.tobytes()
    assert effective_coupling(params, list(freqs)).tobytes() == ref.tobytes()
    scalars = np.array([effective_coupling(params, OperatingPoint(f, f)) for f in freqs])
    assert scalars.tobytes() == ref.tobytes()
    for f1, f2 in rng.uniform(0.5, 9.0, (40, 2)):
        g = effective_coupling(params, OperatingPoint(f1, f2))
        assert type(g) is float
        assert np.float64(g).tobytes() == np.float64(dispersive_coupling(params, f1, f2)).tobytes()


def test_effective_coupling_on_an_array_keeps_both_refusals():
    g_ab = DeviceParams(g_ab=0.01)
    omits = ("g_ab = 0.01 GHz: the analytic effective coupling omits the resonator-resonator "
             "path through g_ab; use exact diagonalization (cotuned_half_gap, qubit_qubit_gap) "
             "for such a device")
    for point in (OperatingPoint(4.6, 4.6), np.linspace(4.5, 4.7, 5)):
        with pytest.raises(ConfigError) as refused:
            effective_coupling(g_ab, point)
        assert str(refused.value) == omits

    def degenerate(qubit, resonator, delta):
        return (f"qubit {qubit} is degenerate with resonator {resonator} (|Δ| = {delta} GHz); "
                "the dispersive formula diverges")

    for f, message in ((4.47, degenerate(1, "a", "0.00e+00")),
                       (4.8 + 5e-7, degenerate(1, "b", "5.00e-07"))):
        for point in (OperatingPoint(f, f), [4.6, f, 4.7]):
            with pytest.raises(PhysicsError) as refused:
                effective_coupling(DeviceParams(), point)
            assert str(refused.value) == message
    with pytest.raises(PhysicsError) as refused:
        effective_coupling(DeviceParams(), OperatingPoint(4.60, 4.80))
    assert str(refused.value) == degenerate(2, "b", "0.00e+00")


@pytest.mark.parametrize("freqs", [[4.6, True], [4.6, float("nan")], [-4.6], [0.0], "4.6",
                                   [[4.6, 4.7]], [4.6, float("inf")]])
def test_effective_coupling_refuses_unusable_cotuned_frequencies(freqs):
    with pytest.raises(ConfigError, match="co-tuned frequencies"):
        effective_coupling(DeviceParams(), freqs)


def test_effective_coupling_peaks_within_its_count_and_is_refused_before_allocating(monkeypatch):
    freqs = np.linspace(4.52, 4.76, 100_000)
    tracemalloc.start()
    try:
        effective_coupling(DeviceParams(), freqs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ANALYTIC_POINT_BYTES * freqs.size
    monkeypatch.setattr(errors, "MEMORY_LIMIT", ANALYTIC_POINT_BYTES * freqs.size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="analytic coupling at 100000 points needs"):
            effective_coupling(DeviceParams(), freqs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only the input was checked: a float64 copy and three boolean masks
    assert peak <= 11 * freqs.size + 2**12


def test_effective_coupling_monotone_decreasing():
    p = DeviceParams()
    freqs = np.linspace(4.53, 4.74, 60)
    vals = [effective_coupling(p, OperatingPoint(f, f)) for f in freqs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_sign_structure_between_resonators():
    # resonator a below the qubits contributes positively, b above negatively
    base = decoupled()
    only_a = base.replace(g_a1=0.027, g_a2=0.027)
    only_b = base.replace(g_b1=0.030, g_b2=0.030)
    point = OperatingPoint(4.60, 4.60)
    assert effective_coupling(only_a, point) > 0
    assert effective_coupling(only_b, point) < 0


def test_scale_invariance():
    p = DeviceParams()
    scale = 3.7
    scaled = DeviceParams(
        resonator_freq_a=p.resonator_freq_a * scale,
        resonator_freq_b=p.resonator_freq_b * scale,
        qubit_max_freq_1=p.qubit_max_freq_1 * scale,
        qubit_max_freq_2=p.qubit_max_freq_2 * scale,
        g_a1=p.g_a1 * scale, g_a2=p.g_a2 * scale,
        g_b1=p.g_b1 * scale, g_b2=p.g_b2 * scale,
        g_12=p.g_12 * scale,
    )
    point = OperatingPoint(4.60, 4.60)
    scaled_point = OperatingPoint(4.60 * scale, 4.60 * scale)
    g1 = effective_coupling(p, point)
    g2 = effective_coupling(scaled, scaled_point)
    assert g2 / scale == pytest.approx(g1, rel=1e-12)


# ---------------------------------------------------------------------------
# switch-off finder


def test_switch_off_location():
    p = DeviceParams()
    root = find_switch_off(p, (4.50, 4.77))
    assert 4.60 < root < 4.66
    assert abs(effective_coupling(p, OperatingPoint(root, root))) < 1e-15
    assert find_switch_off(p, (4.52, 4.76)) == root


def bisected_switch_off(params, lo, hi):
    """Bisection of the co-tuned coupling on (lo, hi) until |g| < 1e-15 GHz."""
    def g(f):
        return effective_coupling(params, OperatingPoint(f, f))

    g_lo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if abs(g_mid) < 1e-15 or mid in (lo, hi):
            break
        if g_lo * g_mid < 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return mid


@settings(max_examples=200, deadline=None)
@given(st.floats(4.0, 5.0), st.floats(0.2, 1.0),
       st.lists(st.floats(0.01, 0.06), min_size=4, max_size=4), st.sampled_from([1.0, -1.0]),
       st.floats(-0.003, 0.003), st.lists(st.floats(0.0, 0.99), min_size=4, max_size=4))
def test_switch_off_is_the_root_in_every_band_that_holds_it(f_a, spread, g, sign, g_12, cuts):
    # with the qubit-1 and qubit-2 couplings of either relative sign the
    # coupling runs from one infinity to the other between the resonators
    # and crosses zero once; any band that brackets the crossing gives the
    # same float
    p = DeviceParams(resonator_freq_a=f_a, resonator_freq_b=f_a + spread,
                     g_a1=g[0], g_b1=g[1], g_a2=sign * g[2], g_b2=sign * g[3], g_12=g_12)
    lo, hi = f_a + 1e-3, f_a + spread - 1e-3
    root = find_switch_off(p, (lo, hi))
    assert lo <= root <= hi
    assert abs(effective_coupling(p, OperatingPoint(root, root))) <= 1e-12
    assert abs(root - bisected_switch_off(p, lo, hi)) <= 1e-9
    for a, b in (cuts[:2], cuts[2:]):
        band = (lo + a * (root - lo), hi - b * (hi - root))
        assert find_switch_off(p, band) == root


def test_switch_off_without_direct_coupling():
    p = DeviceParams(g_12=0.0)
    root = find_switch_off(p, (4.50, 4.77))
    assert 4.47 < root < 4.80


def test_switch_off_moves_down_with_stronger_b():
    p = DeviceParams()
    doubled = DeviceParams(g_b1=0.060, g_b2=0.060)
    assert find_switch_off(doubled, (4.50, 4.77)) < find_switch_off(p, (4.50, 4.77))


def test_switch_off_no_sign_change_reports_endpoints():
    with pytest.raises(PhysicsError, match="MHz"):
        find_switch_off(DeviceParams(), (4.70, 4.77))


def test_analytic_coupling_rejects_resonator_resonator_coupling():
    # the formula has no g_ab path: its root would stay at 4.6294 GHz,
    # where the exact gap with g_ab = 10 MHz is ten times that without
    p = DeviceParams(g_ab=0.01)
    with pytest.raises(ConfigError, match="g_ab"):
        effective_coupling(p, OperatingPoint(4.6, 4.6))
    with pytest.raises(ConfigError, match="resonator-resonator"):
        find_switch_off(p, (4.50, 4.77))


def test_switch_off_interval_outside_band():
    with pytest.raises(PhysicsError, match="no sign change"):
        find_switch_off(DeviceParams(), (4.40, 4.77))


# ---------------------------------------------------------------------------
# flux maps


def test_flux_sweet_spot_and_frustration():
    p = DeviceParams()
    assert flux_to_frequency(p, 1, 0.0) == p.qubit_max_freq_1
    assert flux_to_frequency(p, 1, 0.5) == pytest.approx(0.0, abs=1e-7)


def test_flux_symmetry():
    p = DeviceParams(flux_offset_2=0.3, flux_period_2=2.0)
    for delta in (0.1, 0.33, 0.7):
        up = flux_to_frequency(p, 2, 0.3 + delta)
        down = flux_to_frequency(p, 2, 0.3 - delta)
        assert up == pytest.approx(down, rel=1e-12)


def test_flux_to_frequency_on_both_branches():
    # the flux the inverse law x0 ± period·acos((f/f_max)²)/π gives for f, on
    # each side of the offset x0, maps back to f
    p = DeviceParams(flux_offset_1=0.2, flux_period_1=1.5)
    f_max = p.qubit_max_freq_1
    for target in (4.641, 4.5, 4.0, 2.0):
        for branch in (+1, -1):
            x = 0.2 + branch * 1.5 * math.acos((target / f_max) ** 2) / math.pi
            assert flux_to_frequency(p, 1, x) == pytest.approx(target, abs=1e-9)


def test_flux_to_frequency_special_points():
    # the sweet spot at the offset, and f_max/√2 a third of a period away on each side
    p = DeviceParams()
    f_max = p.qubit_max_freq_1
    assert flux_to_frequency(p, 1, 0.0) == f_max
    for branch in (+1, -1):
        x = branch * 1.0 / 3.0
        assert flux_to_frequency(p, 1, x) == pytest.approx(f_max / math.sqrt(2), abs=1e-12)


def test_a_real_parameter_of_another_number_type_is_stored_as_a_float():
    # ints and floats are kept as given; a Fraction or a numpy float32 becomes
    # the float it equals
    p = DeviceParams(g_12=fractions.Fraction(1, 1000), g_a1=np.float32(0.03125), t1_qubit1=12)
    assert type(p.g_12) is float and p.g_12 == 0.001
    assert type(p.g_a1) is float and p.g_a1 == 0.03125
    assert type(p.t1_qubit1) is int


@pytest.mark.parametrize("q", [1, 2])
def test_a_zero_flux_period_is_refused(q):
    with pytest.raises(ConfigError, match="flux periods must be nonzero"):
        DeviceParams(**{f"flux_period_{q}": 0})


@pytest.mark.parametrize("text", ["[1, 2]", '"device"', "3.5", "null"])
def test_device_json_that_is_not_an_object_is_refused(text):
    with pytest.raises(ConfigError, match="device file must be a JSON object"):
        DeviceParams.from_json(text)


@pytest.mark.parametrize("text, key", [
    ('{"g_12": 0.001, "g_12": 0.002}', "g_12"),
    ('{"t1_qubit1": null, "g_ab": 0.01, "t1_qubit1": 30}', "t1_qubit1"),
])
def test_device_json_repeating_a_key_is_refused_naming_it(text, key):
    with pytest.raises(ConfigError, match=f"device file repeats key '{key}'"):
        DeviceParams.from_json(text)


@pytest.mark.parametrize("interval", [(4.70, 4.55), (4.60, 4.60)])
def test_switch_off_search_interval_must_increase(interval):
    with pytest.raises(ConfigError, match="search interval must be increasing"):
        find_switch_off(DeviceParams(), interval)


@pytest.mark.parametrize("end", [0, 1])
def test_switch_off_at_an_end_of_the_interval_is_that_end(end):
    # g_12 cancels the resonator paths exactly at one end, so g is 0.0 there
    # and that end is the root itself; the closed form puts it an ulp or two
    # away at both of these ends
    interval = (4.58, 4.70)
    paths = effective_coupling(DeviceParams(g_12=0.0), [interval[end]])[0]
    p = DeviceParams(g_12=-paths)
    assert effective_coupling(p, [interval[end]])[0] == 0.0
    assert find_switch_off(p, interval) == interval[end]


def test_flux_qubit_index_beyond_two_is_refused():
    with pytest.raises(ConfigError, match="qubit index must be 1 or 2, got 3"):
        flux_to_frequency(DeviceParams(), 3, 0.0)
