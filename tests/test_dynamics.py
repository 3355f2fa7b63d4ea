import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dresq import dynamics
from dresq.errors import ConfigError, IntegrationError, PhysicsError
from dresq.fock import HilbertSpace, OperatorMatrix, number_operator, total_number_operator
from dresq.device import DeviceParams, OperatingPoint, build_hamiltonian
from dresq.dynamics import (
    EXPM_BYTES_LIMIT,
    ChevronMap,
    DensityState,
    PulseSchedule,
    Stage,
    collapse_operators,
    evolve,
    two_level_transfer,
    vacuum_rabi_chevron,
    _dissipator,
    _expm,
    _expm_bytes,
    _superoperator,
)

SPACE2 = HilbertSpace((2, 2, 2, 2))
SPACE3 = HilbertSpace((3, 3, 3, 3))
BIAS = OperatingPoint(4.637, 4.691)


def decoupled(**kw):
    return DeviceParams(g_a1=0, g_a2=0, g_b1=0, g_b2=0, g_ab=0, g_12=0, **kw)


def lossless(**kw):
    inf = float("inf")
    return dict(t1_qubit1=inf, t1_qubit2=inf, t2_qubit1=inf, t2_qubit2=inf) | kw


# ---------------------------------------------------------------------------
# schedule and state types


def test_stage_validation():
    with pytest.raises(ConfigError):
        Stage(-1.0, BIAS)
    with pytest.raises(ConfigError):
        Stage(10.0, BIAS, prep="pi_q3")


def test_schedule_holds_its_stages_and_refuses_none():
    stages = [Stage(0.0, BIAS, prep="pi_q2"), Stage(100.0, BIAS)]
    assert PulseSchedule(stages).stages == tuple(stages)
    for empty in ([], ()):
        with pytest.raises(ConfigError, match="at least one stage"):
            PulseSchedule(empty)


def test_density_state_constructors():
    rho = DensityState.ground(SPACE2)
    assert rho.rho[0, 0] == 1.0
    rho.validate()
    exc = DensityState.single_excitation(SPACE2, 3)
    assert exc.rho[1, 1] == 1.0
    exc.validate()


def test_density_state_validation_catches_bad_trace():
    rho = DensityState.ground(SPACE2)
    rho.rho[0, 0] = 0.9
    with pytest.raises(IntegrationError):
        rho.validate()


# ---------------------------------------------------------------------------
# collapse operators


def test_lifetime_limited_gives_only_relaxation():
    p = DeviceParams(t1_qubit1=10.0, t2_qubit1=20.0, t1_qubit2=10.0, t2_qubit2=20.0)
    ops = collapse_operators(p, SPACE2)
    assert len(ops) == 2  # one relaxation operator per qubit, no dephasing


def test_dephasing_rate_arithmetic():
    p = DeviceParams()  # T1 = 10 us, T2 = 1.5 us
    ops = collapse_operators(p, SPACE2)
    assert len(ops) == 4
    gamma_phi = 1.0 / 1.5e3 - 1.0 / 20e3  # per ns
    n_q1 = ops[1].elements
    # dephasing operator is sqrt(2 gamma_phi) * number operator
    assert np.abs(n_q1).max() == pytest.approx(math.sqrt(2 * gamma_phi))


def test_infinite_lifetimes_give_empty_list():
    p = DeviceParams(**lossless())
    assert collapse_operators(p, SPACE2) == []


# ---------------------------------------------------------------------------
# evolve


def test_decoupled_excited_qubit_stays_excited():
    p = decoupled(**lossless())
    sched = PulseSchedule([Stage(50.0, OperatingPoint(4.60, 4.70))])
    init = DensityState.single_excitation(SPACE2, 3)
    obs = {
        "n_q2": number_operator(SPACE2, 3),
        "n_q1": number_operator(SPACE2, 2),
        "n_a": number_operator(SPACE2, 0),
    }
    ts = evolve(p, sched, init, SPACE2, obs, n_samples=11)
    assert np.allclose(ts.expectations["n_q2"], 1.0, atol=1e-9)
    assert np.allclose(ts.expectations["n_q1"], 0.0, atol=1e-9)
    assert np.allclose(ts.expectations["n_a"], 0.0, atol=1e-9)


def test_resonant_exchange_matches_closed_form():
    # direct coupling only: q1 population follows sin^2(2 pi g t)
    g = 0.003
    p = decoupled(**lossless()).replace(g_12=g)
    point = OperatingPoint(4.60, 4.60)
    t_swap = 1.0 / (4.0 * g)
    sched = PulseSchedule([Stage(t_swap, point)])
    init = DensityState.single_excitation(SPACE2, 3)
    ts = evolve(
        p, sched, init, SPACE2, {"n_q1": number_operator(SPACE2, 2)},
        n_samples=21, include_counter_rotating=False, frame_ghz=4.60,
    )
    expected = np.sin(2 * math.pi * g * ts.times_ns) ** 2
    assert np.abs(ts.expectations["n_q1"] - expected).max() < 1e-8


def test_full_model_with_counter_rotating_close_to_exchange():
    # lab frame, counter-rotating terms on: deviation from the exchange
    # model stays at the (g / frequency-sum) ** 2 level
    g = 0.003
    p = decoupled(**lossless()).replace(g_12=g)
    point = OperatingPoint(4.60, 4.60)
    sched = PulseSchedule([Stage(20.0, point)])
    init = DensityState.single_excitation(SPACE2, 3)
    ts = evolve(p, sched, init, SPACE2, {"n_q1": number_operator(SPACE2, 2)}, n_samples=5)
    expected = np.sin(2 * math.pi * g * ts.times_ns) ** 2
    assert np.abs(ts.expectations["n_q1"] - expected).max() < 1e-3


def test_relaxation_decay_at_t1():
    p = decoupled()  # T1 = 10 us
    sched = PulseSchedule([Stage(10000.0, OperatingPoint(4.60, 4.70))])
    init = DensityState.single_excitation(SPACE2, 3)
    ts = evolve(p, sched, init, SPACE2, {"n_q2": number_operator(SPACE2, 3)}, n_samples=11)
    assert abs(ts.expectations["n_q2"][-1] - math.exp(-1.0)) < 1e-6


def test_unitary_purity_constant():
    p = DeviceParams(**lossless())
    sched = PulseSchedule([Stage(200.0, OperatingPoint(4.60, 4.60))])
    init = DensityState.single_excitation(SPACE2, 3)
    ts = evolve(
        p, sched, init, SPACE2, {"n_q1": number_operator(SPACE2, 2)},
        n_samples=9, include_counter_rotating=False, frame_ghz=4.60,
    )
    assert abs(ts.final_state.purity() - 1.0) < 1e-8
    ts.final_state.validate()


def test_excitation_conservation_rotating_wave():
    p = DeviceParams(**lossless())
    sched = PulseSchedule([Stage(100.0, OperatingPoint(4.60, 4.60))])
    init = DensityState.single_excitation(SPACE3, 3)
    ts = evolve(
        p, sched, init, SPACE3, {"n_tot": total_number_operator(SPACE3)},
        n_samples=9, include_counter_rotating=False, frame_ghz=4.60,
    )
    assert np.abs(ts.expectations["n_tot"] - 1.0).max() < 1e-8


def test_excitation_drift_with_counter_rotating_bounded():
    p = DeviceParams(**lossless())
    sched = PulseSchedule([Stage(20.0, OperatingPoint(4.60, 4.60))])
    init = DensityState.single_excitation(SPACE2, 3)
    ts = evolve(
        p, sched, init, SPACE2, {"n_tot": total_number_operator(SPACE2)}, n_samples=9
    )
    drift = np.abs(ts.expectations["n_tot"] - 1.0).max()
    # counter-rotating terms leave the N <= 1 block, so it must not be used
    assert 1e-6 < drift < 1e-3


def test_pi_prep_flips_qubit():
    p = decoupled(**lossless())
    sched = PulseSchedule([Stage(10.0, OperatingPoint(4.60, 4.70), prep="pi_q2")])
    init = DensityState.ground(SPACE2)
    ts = evolve(p, sched, init, SPACE2, {"n_q2": number_operator(SPACE2, 3)}, n_samples=5)
    assert np.allclose(ts.expectations["n_q2"], 1.0, atol=1e-9)


def test_pi_prep_on_excited_state_reaches_two_excitations():
    # q1 excited, then a pi-prep of q2: the block must hold N = 2
    p = decoupled()  # T1 = 10 us for both qubits
    sched = PulseSchedule([Stage(1000.0, OperatingPoint(4.60, 4.70), prep="pi_q2")])
    init = DensityState.single_excitation(SPACE2, 2)
    obs = {"n_q1": number_operator(SPACE2, 2), "n_q2": number_operator(SPACE2, 3)}
    ts = evolve(p, sched, init, SPACE2, obs, n_samples=3)
    decay = np.exp(-ts.times_ns / 10000.0)
    assert np.allclose(ts.expectations["n_q1"], decay, atol=1e-9)
    assert np.allclose(ts.expectations["n_q2"], decay, atol=1e-9)


def test_multi_stage_schedule_with_padding():
    # excite q2, interact for a half swap, then wait 100 ns at a far-detuned
    # point: the transferred q1 population survives the wait when lossless
    g = 0.003
    p = decoupled(**lossless()).replace(g_12=g)
    t_swap = 1.0 / (4.0 * g)
    interact = OperatingPoint(4.60, 4.60)
    parked = OperatingPoint(4.40, 4.80)
    sched = PulseSchedule(
        [Stage(0.0, parked, prep="pi_q2"), Stage(t_swap, interact), Stage(100.0, parked)]
    )
    init = DensityState.ground(SPACE2)
    ts = evolve(
        p, sched, init, SPACE2, {"n_q1": number_operator(SPACE2, 2)},
        n_samples=25, include_counter_rotating=False, frame_ghz=4.60,
    )
    assert ts.expectations["n_q1"][-1] == pytest.approx(1.0, abs=1e-4)


stage_draws = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.1, 60.0)),
        st.floats(-0.01, 0.01),
        st.sampled_from([None, "pi_q1", "pi_q2"]),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(stage_draws, st.integers(3, 14), st.sampled_from([None, 2, 3]))
def test_evolve_sampling_trace_positivity_and_excitations(stages, n_samples, excited):
    # lossy rotating-wave evolution with preps on random stages: the sample
    # grid must not change the final state, and rho keeps its trace,
    # stays positive and gains at most one excitation per prep
    sched = PulseSchedule(
        [Stage(t, OperatingPoint(4.60 + dq, 4.60), prep) for t, dq, prep in stages]
    )
    init = DensityState.ground(SPACE2)
    if excited is not None:
        init = DensityState.single_excitation(SPACE2, excited)
    obs = {"tr": OperatorMatrix(SPACE2, np.eye(16)), "n": total_number_operator(SPACE2)}

    def run(n):
        return evolve(
            DeviceParams(), sched, init, SPACE2, obs, n_samples=n,
            include_counter_rotating=False, frame_ghz=4.60,
        )

    ts = run(n_samples)
    coarse = run(2)
    assert np.abs(ts.final_state.rho - coarse.final_state.rho).max() < 1e-10
    assert np.abs(ts.expectations["tr"] - 1.0).max() < 1e-8
    assert np.linalg.eigvalsh(ts.final_state.rho).min() > -1e-8
    n_preps = sum(prep is not None for _, _, prep in stages)
    assert ts.expectations["n"].max() <= (excited is not None) + n_preps + 1e-8


def test_frame_with_counter_rotating_rejected():
    p = DeviceParams()
    sched = PulseSchedule([Stage(1.0, BIAS)])
    init = DensityState.ground(SPACE2)
    with pytest.raises(ConfigError):
        evolve(p, sched, init, SPACE2, {}, frame_ghz=4.6, include_counter_rotating=True)


def test_chevron_column_matches_evolve():
    # the chevron and evolve share the stage exponentials: a column without
    # a readout delay is evolve on the same pi-prep, step and hold protocol
    p = DeviceParams()
    taus = np.linspace(0.0, 500.0, 26)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([3.0]), taus)
    hold = OperatingPoint(4.603, 4.60)
    sched = PulseSchedule([Stage(0.0, BIAS, prep="pi_q2"), Stage(taus[-1], hold)])
    ts = evolve(
        p, sched, DensityState.ground(SPACE3), SPACE3, {"n_q1": number_operator(SPACE3, 2)},
        n_samples=taus.size, include_counter_rotating=False, frame_ghz=4.60,
    )
    assert np.abs(chev.p1[0] - ts.expectations["n_q1"]).max() < 1e-10

    # lossy, with a fixed readout delay: each cell is one evolve run whose
    # last stage waits at the bias point up to the readout
    readout_ns = 800.0
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([3.0]), taus, readout_ns)
    for j, tau in enumerate(taus):
        sched = PulseSchedule(
            [Stage(0.0, BIAS, prep="pi_q2"), Stage(tau, hold), Stage(readout_ns - tau, BIAS)]
        )
        ts = evolve(
            p, sched, DensityState.ground(SPACE3), SPACE3,
            {"n_q1": number_operator(SPACE3, 2)},
            n_samples=2, include_counter_rotating=False, frame_ghz=4.60,
        )
        assert abs(chev.p1[0, j] - ts.expectations["n_q1"][-1]) < 1e-10


@pytest.mark.parametrize("factor", [1.01, math.nan])
def test_chevron_corrupted_step_map_names_its_column(monkeypatch, factor):
    # step maps that do not preserve the trace (or yield NaN) must stop
    # the lockstep propagation and name the first column they belong to
    calls = []

    def corrupt_from_third(a):
        calls.append(a.shape)
        m = _expm(a)
        m[2:] *= factor
        return m

    monkeypatch.setattr(dynamics, "_expm", corrupt_from_third)
    with pytest.raises(IntegrationError, match="chevron column 2$"):
        vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.60, np.array([-3.0, 0.0, 3.0, 6.0]),
            np.linspace(0.0, 100.0, 11),
        )
    # one stack of step maps, one 25 x 25 member per column of the 5-state block
    assert calls == [(4, 25, 25)]


def test_chevron_refuses_a_step_stack_over_the_limit_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(dynamics, "build_hamiltonian", lambda *a, **k: built.append(a))
    # each column's step map is a 25 x 25 generator exponential
    columns = EXPM_BYTES_LIMIT // _expm_bytes(25) + 1
    offsets = np.linspace(-20.0, 20.0, columns)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="columns needs"):
            vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, offsets, np.linspace(0, 2000, 201))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert built == []


def test_evolve_stops_on_a_nan_stage_map(monkeypatch):
    real = _expm
    monkeypatch.setattr(dynamics, "_expm", lambda a: np.nan * real(a))
    sched = PulseSchedule([Stage(10.0, OperatingPoint(4.60, 4.60))])
    with pytest.raises(IntegrationError, match="trace drifted to nan at t = 5.000 ns"):
        evolve(
            DeviceParams(), sched, DensityState.single_excitation(SPACE2, 3), SPACE2, {},
            n_samples=3, include_counter_rotating=False,
        )


def test_lossy_counter_rotating_full_space_refused_before_allocating():
    sched = PulseSchedule([Stage(1.0, BIAS)])
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="MiB"):
            evolve(DeviceParams(), sched, DensityState.ground(SPACE3), SPACE3, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_lossless_counter_rotating_full_space_runs():
    # no collapse operators: the 81-state full space exponentiates the
    # 81 x 81 generator -iH, not the 6561 x 6561 one the lossy case is refused for
    assert _expm_bytes(81) == 12 * 16 * 81**2 < EXPM_BYTES_LIMIT < _expm_bytes(81**2)
    p = DeviceParams(**lossless())
    sched = PulseSchedule([Stage(0.5, BIAS, prep="pi_q2"), Stage(50.0, OperatingPoint(4.60, 4.60))])
    ts = evolve(
        p, sched, DensityState.ground(SPACE3), SPACE3,
        {"n_tot": total_number_operator(SPACE3)}, n_samples=11,
    )
    final = ts.final_state
    assert abs(final.rho.trace() - 1.0) < 1e-8
    assert abs(final.purity() - 1.0) < 1e-8
    final.validate()
    # counter-rotating terms moved excitation number, so the full space ran
    assert np.abs(ts.expectations["n_tot"][1:] - 1.0).max() > 1e-6


def test_lossless_evolution_matches_generator_exponential():
    p = DeviceParams(**lossless())
    point = OperatingPoint(4.60, 4.62)
    duration = 37.0
    init = DensityState.single_excitation(SPACE2, 3)
    ts = evolve(p, PulseSchedule([Stage(duration, point)]), init, SPACE2, {}, n_samples=2)
    h = build_hamiltonian(p, point, SPACE2).elements
    stage_map = _expm(duration * _superoperator(h, _dissipator([], 16)))
    expected = (stage_map @ init.rho.reshape(-1)).reshape(init.rho.shape)
    assert np.abs(ts.final_state.rho - expected).max() < 1e-10


def eigenbasis_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """U = V e^{-iEt} V† from H = V E V†: the reference for lossless stage maps."""
    e, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * e)) @ v.conj().T


def test_lossless_full_space_matches_eigenbasis_reference():
    # lab frame, counter-rotating on, 3^4 space for 2 us: the squarings of
    # -iHt must not cost accuracy against the eigenbasis propagator
    p = DeviceParams(**lossless())
    point = OperatingPoint(4.60, 4.60)
    init = DensityState.single_excitation(SPACE3, 3)
    n_q1 = number_operator(SPACE3, 2)
    ts = evolve(p, PulseSchedule([Stage(2000.0, point)]), init, SPACE3, {"n_q1": n_q1},
                n_samples=11)
    h = build_hamiltonian(p, point, SPACE3).elements
    for t, reading in zip(ts.times_ns, ts.expectations["n_q1"]):
        u = eigenbasis_propagator(h, t)
        rho = u @ init.rho @ u.conj().T
        assert abs(reading - np.trace(n_q1.elements @ rho).real) <= 1e-9
    assert np.abs(ts.final_state.rho - rho).max() <= 1e-9
    assert abs(ts.final_state.purity() - 1.0) <= 1e-9


def test_expm_byte_estimate():
    # a lossy 81-state block needs a 6561 x 6561 generator: refused;
    # 16 states (a 256 x 256 generator) fit
    assert _expm_bytes(81**2) == 12 * 16 * 81**4 > EXPM_BYTES_LIMIT
    assert _expm_bytes(16**2) < EXPM_BYTES_LIMIT
    # the estimate bounds what exponentiating a generator really takes
    h = np.diag(np.arange(12.0))
    tracemalloc.start()
    try:
        _expm(_superoperator(h, _dissipator([np.eye(12)], 12)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _expm_bytes(144) / 2 < peak <= _expm_bytes(144)
    # a stack of m generators peaks at m times one
    lossy = _dissipator([np.eye(6)], 6)
    for m in (1, 4, 9):
        stack = _superoperator(np.arange(m)[:, None, None] * np.diag(np.arange(6.0)), lossy)
        tracemalloc.start()
        try:
            _expm(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m * _expm_bytes(36) / 2 < peak <= m * _expm_bytes(36)


def test_stacked_superoperator_and_expm_equal_each_member_alone():
    # members scaled so that they need from 0 to 7 squarings
    rng = np.random.default_rng(3)
    n = 5
    h = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    h = h + np.swapaxes(h, 1, 2).conj()  # Hermitian, not symmetric: Hᵀ != H
    collapse = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
    dissipator = _dissipator(collapse, n)
    stack = _superoperator(h, dissipator)
    eye = np.eye(n)
    for hk, sk in zip(h, stack):
        assert np.array_equal(sk, dissipator - 1j * (np.kron(hk, eye) - np.kron(eye, hk.T)))
    norms = np.abs(stack).sum(axis=1).max(axis=1)
    generators = (np.array([2.0, 8.0, 20.0, 40.0, 150.0, 600.0]) / norms)[:, None, None] * stack
    squarings = [max(math.ceil(math.log2(x / 5.371920351148152)), 0)
                 for x in np.abs(generators).sum(axis=1).max(axis=1)]
    assert squarings[0] == 0 and squarings[-1] >= 5
    maps = _expm(generators)
    for g, m in zip(generators, maps):
        assert np.array_equal(m, _expm(g))
        assert np.array_equal(m, _expm(g[None])[0])


# ---------------------------------------------------------------------------
# two_level_transfer


def test_transfer_resonant_peak_is_one():
    assert two_level_transfer(3.0, 0.0, 1.0 / (4 * 0.003)) == pytest.approx(1.0)


def test_transfer_detuned_peak_half():
    g = 5.0
    d = 2 * g
    f = math.sqrt(4 * g * g + d * d) * 1e-3
    t_peak = 1.0 / (2 * f)
    assert two_level_transfer(g, d, t_peak) == pytest.approx(0.5)


def test_transfer_zero_coupling():
    assert two_level_transfer(0.0, 0.0, 123.0) == 0.0
    assert two_level_transfer(0.0, 5.0, 123.0) == 0.0


def test_transfer_array_input():
    t = np.linspace(0, 100, 11)
    p = two_level_transfer(3.0, 0.0, t)
    assert p.shape == t.shape
    assert p[0] == 0.0


# ---------------------------------------------------------------------------
# chevron


def test_chevron_symmetric_in_detuning():
    g = 0.003
    p = decoupled(**lossless()).replace(g_12=g)
    taus = np.linspace(0, 500, 51)
    offsets = np.array([-8.0, -4.0, 0.0, 4.0, 8.0])
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, offsets, taus, dissipation=False)
    assert np.abs(chev.p1[0] - chev.p1[4]).max() < 1e-4
    assert np.abs(chev.p1[1] - chev.p1[3]).max() < 1e-4


def test_chevron_on_resonance_column_matches_closed_form():
    g = 0.003
    p = decoupled(**lossless()).replace(g_12=g)
    taus = np.linspace(0, 500, 101)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([0.0]), taus, dissipation=False)
    expected = two_level_transfer(g * 1e3, 0.0, taus)
    assert np.abs(chev.p1[0] - expected).max() < 1e-6


def test_chevron_quiet_at_spectral_crossing():
    # at the co-tuned frequency where the exchange gap closes, no
    # population moves over 2 us
    p = DeviceParams()
    quiet = 4.6333
    taus = np.linspace(0, 2000, 101)
    chev = vacuum_rabi_chevron(p, BIAS, quiet, np.array([0.0]), taus)
    assert chev.p1.max() < 0.05


def test_chevron_population_bounds_and_csv():
    g = 0.003
    p = DeviceParams().replace(g_12=g)
    taus = np.linspace(0, 200, 21)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([-5.0, 0.0, 5.0]), taus)
    assert chev.p1.min() >= 0.0 and chev.p1.max() <= 1.0
    lines = chev.to_csv().splitlines()
    assert lines[0] == "detuning_mhz,tau_ns,p1"
    assert len(lines) == 1 + 3 * 21


def test_chevron_csv_matches_cell_loop():
    rng = np.random.default_rng(3)
    chev = ChevronMap(
        np.linspace(-20, 20, 7), np.linspace(0, 2000, 13), rng.random((7, 13))
    )
    chev.p1[0, :3] = [0.0, 1.0, 1e-12]
    lines = ["detuning_mhz,tau_ns,p1\n"]
    for i, d in enumerate(chev.detunings_mhz):
        for j, t in enumerate(chev.taus_ns):
            lines.append(f"{d:.9g},{t:.9g},{chev.p1[i, j]:.9f}\n")
    assert chev.to_csv() == "".join(lines)


def test_chevron_fixed_readout_delay_attenuates():
    # padding at the bias point with dissipation on reduces the readout
    # population of early-readout columns
    g = 0.003
    p = decoupled().replace(g_12=g)
    taus = np.linspace(0, 200, 21)
    free = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([0.0]), taus)
    fixed = vacuum_rabi_chevron(
        p, BIAS, 4.60, np.array([0.0]), taus, prep_to_readout_ns=1200.0
    )
    # padding costs population overall; a percent-level residual exchange
    # at the detuned bias point keeps this from holding pointwise
    assert fixed.p1.max() < free.p1.max()
    assert fixed.p1.mean() < free.p1.mean()


def test_chevron_rejects_interaction_point_near_resonator():
    with pytest.raises(PhysicsError):
        vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.49, np.array([0.0]), np.linspace(0, 10, 3)
        )


def test_chevron_requires_uniform_tau_grid():
    with pytest.raises(ConfigError):
        vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.60, np.array([0.0]), np.array([0.0, 1.0, 3.0])
        )
    with pytest.raises(ConfigError):
        vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.60, np.array([0.0]), np.array([5.0, 10.0, 15.0])
        )

