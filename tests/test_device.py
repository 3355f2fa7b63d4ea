import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dresq.errors import ConfigError, PhysicsError
from dresq.fock import HilbertSpace, eigendecompose_hermitian
from dresq.device import (
    TWO_PI,
    DeviceParams,
    OperatingPoint,
    build_hamiltonian,
    effective_coupling,
    find_switch_off,
    flux_to_frequency,
    frequency_to_flux,
)


def decoupled(**kw):
    return DeviceParams(g_a1=0, g_a2=0, g_b1=0, g_b2=0, g_ab=0, g_12=0, **kw)


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


# ---------------------------------------------------------------------------
# Hamiltonian builder


def test_decoupled_hamiltonian_is_diagonal():
    space = HilbertSpace((2, 2, 2, 2))
    h = build_hamiltonian(decoupled(), OperatingPoint(4.60, 4.70), space)
    assert np.abs(h.elements - np.diag(np.diag(h.elements))).max() == 0.0
    evals = np.sort(np.diag(h.elements).real)
    singles = sorted(
        h.elements[i, i].real for i in space.single_excitation_indices()
    )
    assert np.allclose(singles, [TWO_PI * f for f in (4.47, 4.60, 4.70, 4.80)])
    assert evals[0] == 0.0


def test_coupling_matrix_element_placement():
    space = HilbertSpace((3, 3, 3, 3))
    h = build_hamiltonian(DeviceParams(), OperatingPoint(4.58, 4.58), space).elements
    i_a = space.basis_index((1, 0, 0, 0))
    i_q1 = space.basis_index((0, 0, 1, 0))
    assert h[i_a, i_q1] == pytest.approx(TWO_PI * 0.027)
    i_b = space.basis_index((0, 1, 0, 0))
    i_q2 = space.basis_index((0, 0, 0, 1))
    assert h[i_b, i_q2] == pytest.approx(TWO_PI * 0.030)
    # counter-rotating part carries the opposite sign
    i_vac = 0
    i_aq1 = space.basis_index((1, 0, 1, 0))
    assert h[i_vac, i_aq1] == pytest.approx(-TWO_PI * 0.027)


def test_anharmonic_shift():
    space = HilbertSpace((3, 3, 3, 3))
    p = decoupled()
    h = build_hamiltonian(p, OperatingPoint(4.60, 4.70), space).elements
    i_two = space.basis_index((0, 0, 2, 0))
    # two quanta in qubit 1: 2 omega_1 + 2 alpha (the a+a+aa term gives n(n-1))
    assert h[i_two, i_two].real == pytest.approx(TWO_PI * (2 * 4.60 + 2 * (-0.250)))


def test_hamiltonian_hermitian_at_random_points():
    space = HilbertSpace((3, 3, 3, 3))
    rng = np.random.default_rng(7)
    p = DeviceParams()
    for _ in range(100):
        f1, f2 = rng.uniform(4.0, 5.2, size=2)
        h = build_hamiltonian(p, OperatingPoint(f1, f2), space)
        assert h.hermiticity_defect() < 1e-12


def test_wrong_mode_count_rejected():
    with pytest.raises(ConfigError):
        build_hamiltonian(DeviceParams(), OperatingPoint(4.6, 4.6), HilbertSpace((3, 3)))


def test_rotating_wave_variant_conserves_excitation():
    space = HilbertSpace((3, 3, 3, 3))
    from dresq.fock import total_number_operator

    h = build_hamiltonian(
        DeviceParams(), OperatingPoint(4.60, 4.60), space, include_counter_rotating=False
    ).elements
    n = total_number_operator(space).elements
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
    assert abs(effective_coupling(p, OperatingPoint(root, root))) < 1e-7


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
    # the formula has no g_ab path: the bisected root would stay at 4.6294 GHz,
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


def test_frequency_to_flux_round_trip():
    p = DeviceParams(flux_offset_1=0.2, flux_period_1=1.5)
    for target in (4.641, 4.5, 4.0, 2.0):
        for branch in (+1, -1):
            x = frequency_to_flux(p, 1, target, branch)
            assert flux_to_frequency(p, 1, x) == pytest.approx(target, abs=1e-9)


def test_frequency_to_flux_special_points():
    p = DeviceParams()
    assert frequency_to_flux(p, 1, p.qubit_max_freq_1) == pytest.approx(0.0)
    x = frequency_to_flux(p, 1, p.qubit_max_freq_1 / math.sqrt(2), +1)
    assert x == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(ConfigError):
        frequency_to_flux(p, 1, 5.0)
