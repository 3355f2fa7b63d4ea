import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dresq import dynamics
from dresq.errors import MEMORY_LIMIT, ConfigError, IntegrationError, PhysicsError
from dresq.fock import HilbertSpace, number_operator, total_number_operator
from dresq.device import DeviceModel, DeviceParams, OperatingPoint, device_model
from dresq.dynamics import (
    ChevronMap,
    DensityState,
    PulseSchedule,
    Stage,
    collapse_operators,
    evolve,
    two_level_transfer,
    vacuum_rabi_chevron,
    _block_model,
    _dissipator,
    _expm,
    _expm_bytes,
    _pi_flip_matrix,
    _reachable,
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


def test_validate_diagonalizes_only_the_support(monkeypatch):
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real(a))
    DensityState.ground(SPACE3).validate()
    assert shapes == [(1, 1)]


def test_validate_refuses_a_negative_eigenvalue_on_a_two_state_support():
    # trace 1 and Hermitian, but the 2-state support has eigenvalues 1.5 and -0.5
    rho = np.zeros((16, 16), dtype=complex)
    rho[np.ix_([1, 6], [1, 6])] = [[0.5, 1.0], [1.0, 0.5]]
    with pytest.raises(IntegrationError, match=r"min eigenvalue -5.00e-01"):
        DensityState(SPACE2, rho).validate()


@pytest.mark.parametrize("where, value", [
    ((0, 0), np.nan), ((1, 1), np.nan), ((0, 0), np.inf), ((1, 1), -np.inf),
], ids=["nan-00", "nan-11", "inf-00", "minus-inf-11"])
def test_density_state_refuses_a_non_finite_rho(where, value):
    rho = DensityState.ground(SPACE2).rho.copy()
    rho[where] = value
    with pytest.raises(ConfigError, match="finite"):
        DensityState(SPACE2, rho)
    # a state that was finite when built and broken afterwards reaches
    # evolve, which refuses it before any propagation
    state = DensityState.ground(SPACE2)
    state.rho[where] = value
    sched = PulseSchedule([Stage(10.0, BIAS)])
    with pytest.raises(ConfigError, match="finite"):
        evolve(decoupled(), sched, state, SPACE2, {}, n_samples=3)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_validate_refuses_a_non_finite_element_off_the_support(value):
    # a NaN or an infinity is nonzero, so it joins the support the checks run on
    state = DensityState.ground(SPACE3)
    state.rho[5, 7] = value
    with pytest.raises(ConfigError, match="finite"):
        state.validate()


def test_evolve_at_seven_levels_a_mode_peaks_near_its_final_state():
    # every operator of the run is built on its 5-state block, and validate
    # reads rho only on its support: what remains of the space's size is the
    # final rho (16 d^2 bytes) and a boolean d x d mask or two
    space = HilbertSpace((7, 7, 7, 7))
    params = DeviceParams()
    device_model(params, space, False)
    initial = DensityState.ground(space)
    sched = PulseSchedule([Stage(0.5, BIAS, prep="pi_q2"), Stage(2.0, OperatingPoint(4.601, 4.60))])
    tracemalloc.start()
    try:
        ts = evolve(params, sched, initial, space, {}, n_samples=3,
                    include_counter_rotating=False, frame_ghz=4.60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * space.size**2 + 16 * 2**20
    ts.final_state.validate()


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
    n_q1 = ops[1]
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
    obs = {"tr": np.eye(16), "n": total_number_operator(SPACE2)}

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


def leak_rule_block(space, rho, n_preps, operators):
    """The block by the operator-leak rule: the states with N up to the largest
    on the support of rho plus n_preps, unless an operator, or L†L for one,
    maps one of them outside; then the full space."""
    n_exc = space.quanta.sum(axis=0)
    inside = n_exc <= n_exc[np.any(rho != 0, axis=1)].max() + n_preps
    leak = np.ix_(~inside, inside)
    if any(np.any(op[leak]) or np.any((op.conj().T @ op)[leak]) for op in operators):
        return np.arange(space.size)
    return np.flatnonzero(inside)


coupling_draws = st.fixed_dictionaries(
    {name: st.sampled_from([0.0, value]) for name, value in
     (("g_a1", 0.027), ("g_a2", 0.027), ("g_b1", 0.030), ("g_b2", 0.030),
      ("g_ab", 0.010), ("g_12", 0.00088))}
)


@settings(max_examples=60, deadline=None)
@given(coupling_draws, st.booleans(), st.booleans(),
       st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 3), (3, 3, 3, 3)]),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
       st.integers(0, 2), st.lists(st.floats(-0.02, 0.02), min_size=1, max_size=2))
def test_block_from_static_couplings_matches_the_leak_rule(
    couplings, lossy, counter_rotating, dims, support, n_preps, detunings
):
    # the block rule reads only h_static: the frame and qubit terms are
    # diagonal and collapse operators lower or count quanta, so it must pick
    # the block that checking every operator of the evolution picks
    p = DeviceParams(**couplings) if lossy else DeviceParams(**lossless(**couplings))
    space = HilbertSpace(dims)
    states = sorted({int(u * space.size) for u in support})
    psi = np.zeros(space.size)
    psi[states] = 1.0 / math.sqrt(len(states))
    rho = np.outer(psi, psi).astype(complex)
    points = [OperatingPoint(4.60 + d, 4.60) for d in detunings]
    frame = 0.0 if counter_rotating else 4.60

    hs = device_model(p, space, counter_rotating).hamiltonians(
        [pt.qubit_freq_1 for pt in points], [pt.qubit_freq_2 for pt in points]
    )
    hs -= dynamics.TWO_PI * frame * total_number_operator(space)
    ls = collapse_operators(p, space)
    expected = leak_rule_block(space, rho, n_preps, list(hs) + ls)
    if _expm_bytes(expected.size**2 if ls else expected.size) > MEMORY_LIMIT:
        with pytest.raises(ConfigError, match="evolution block"):
            _block_model(p, space, points, rho, n_preps, counter_rotating, frame)
        return
    idx, block_hs, block_ls = _block_model(p, space, points, rho, n_preps, counter_rotating, frame)
    assert np.array_equal(idx, expected)
    sel = np.ix_(idx, idx)
    assert np.array_equal(block_hs, hs[:, idx[:, None], idx])
    assert len(block_ls) == len(ls)
    assert all(np.array_equal(b, l[sel]) for b, l in zip(block_ls, ls))


def test_evolution_builds_its_stage_stack_on_the_excitation_block(monkeypatch):
    blocks = []
    real = DeviceModel.hamiltonians

    def spy(self, f1, f2, idx=None):
        blocks.append(None if idx is None else np.array(idx))
        return real(self, f1, f2, idx)

    monkeypatch.setattr(DeviceModel, "hamiltonians", spy)
    # a lossy rotating-wave run at 3^4 from the ground state with one prep:
    # the N <= 1 block, ground and one quantum in each of the four modes
    hold = OperatingPoint(4.601, 4.60)
    sched = PulseSchedule([Stage(0.5, BIAS, prep="pi_q2"), Stage(2.0, hold)])
    observables = {f"n{m}": number_operator(SPACE3, m) for m in range(4)}
    evolve(DeviceParams(), sched, DensityState.ground(SPACE3), SPACE3, observables,
           n_samples=21, include_counter_rotating=False, frame_ghz=4.60)
    assert len(blocks) == 1 and blocks[0].tolist() == [0, 1, 3, 9, 27]
    # the chevron's N <= 1 block at 2^4
    vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array([0.0, 3.0]),
                        np.linspace(0.0, 100.0, 11), 200.0)
    assert len(blocks) == 2 and blocks[1].tolist() == [0, 1, 2, 4, 8]


def test_evolve_refuses_a_state_on_another_space_of_the_same_size():
    # 9 x 9 and 3^4 both have 81 states, but basis state i means different
    # occupations on each: the state is refused, not read as another one
    initial = DensityState.single_excitation(HilbertSpace((9, 9)), 1)
    sched = PulseSchedule([Stage(1.0, BIAS)])
    with pytest.raises(ConfigError, match="initial state lives on"):
        evolve(DeviceParams(**lossless()), sched, initial, SPACE3, {}, n_samples=2,
               include_counter_rotating=False)


def test_evolve_refuses_readings_over_the_limit_before_allocating(monkeypatch):
    # one trace row and three observable rows of 8-byte readings per sample:
    # the readings alone of one more sample than fits are refused before the
    # time grid, the readings or any stage map is built
    def built(*args):
        raise AssertionError("the lossy generators were built past the guard")

    monkeypatch.setattr(dynamics, "_dissipator", built)
    observables = {f"n{m}": number_operator(SPACE2, m) for m in range(3)}
    n_samples = MEMORY_LIMIT // (8 * 4) + 1
    sched = PulseSchedule([Stage(1.0, BIAS)])
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"{n_samples} samples of 1 evolution"):
            evolve(DeviceParams(), sched, DensityState.ground(SPACE2), SPACE2, observables,
                   n_samples=n_samples, include_counter_rotating=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_frame_with_counter_rotating_rejected():
    p = DeviceParams()
    sched = PulseSchedule([Stage(1.0, BIAS)])
    init = DensityState.ground(SPACE2)
    with pytest.raises(ConfigError):
        evolve(p, sched, init, SPACE2, {}, frame_ghz=4.6, include_counter_rotating=True)


@pytest.mark.parametrize("p", [DeviceParams(), DeviceParams(**lossless())],
                         ids=["lossy", "lossless"])
def test_chevron_column_matches_evolve(p):
    # the chevron and evolve share the stage exponentials: a column without
    # a readout delay is evolve on the same pi-prep, step and hold protocol
    # (on a lossless device both propagate U on their block)
    taus = np.linspace(0.0, 500.0, 26)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([3.0]), taus)
    hold = OperatingPoint(4.603, 4.60)
    sched = PulseSchedule([Stage(0.0, BIAS, prep="pi_q2"), Stage(taus[-1], hold)])
    ts = evolve(
        p, sched, DensityState.ground(SPACE3), SPACE3, {"n_q1": number_operator(SPACE3, 2)},
        n_samples=taus.size, include_counter_rotating=False, frame_ghz=4.60,
    )
    assert np.abs(chev.p1[0] - ts.expectations["n_q1"]).max() < 1e-10

    # with a fixed readout delay: each cell is one evolve run whose last
    # stage waits at the bias point up to the readout
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
    # one stack of step maps, one member per column on the 17 entries of vec(ρ)
    # of the 5-state block that the lossy maps reach
    assert calls == [(4, 17, 17)]


def full_vec_oracle(params, sched, initial, space, counter_rotating, frame, times):
    """Block vec(ρ) at each sample time on every entry of the block, each
    stage's prep and hold applied afresh from t = 0 (a sample at a stage
    boundary is read before the next stage's prep, as in evolve), together
    with the block indices and the reachable-entry mask."""
    stages = sched.stages
    n_preps = sum(st.prep is not None for st in stages)
    idx, hs, ls = _block_model(params, space, [st.point for st in stages], initial.rho,
                               n_preps, counter_rotating, frame)
    generators = _superoperator(hs, _dissipator(ls, idx.size))
    sel = np.ix_(idx, idx)
    flips = {}
    for tag, mode in (("pi_q1", 2), ("pi_q2", 3)):
        p = _pi_flip_matrix(space, mode, idx)
        flips[tag] = np.kron(p, p.conj())
    vec0 = initial.rho[sel].reshape(-1)
    used = [flips[st.prep] for st in stages if st.prep]
    keep = _reachable(vec0, [generators, *used])
    vecs = []
    for t in times:
        v, start = vec0, 0.0
        for k, st in enumerate(stages):
            if k and t <= start + 1e-9:
                break
            if st.prep:
                v = flips[st.prep] @ v
            hold = min(st.duration_ns, t - start) if k + 1 < len(stages) else t - start
            if hold > 0:
                v = _expm(hold * generators[k]) @ v
            start += st.duration_ns
        vecs.append(v)
    return idx, keep, vecs


@st.composite
def coherent_states(draw, space):
    """ρ = |ψ><ψ| of a ψ with complex amplitudes on 1-3 basis states, so its
    support holds coherences between them (of any excitation numbers)."""
    states = draw(st.lists(st.integers(0, space.size - 1), min_size=1, max_size=3, unique=True))
    amps = np.array([complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0)))
                     for _ in states])
    psi = np.zeros(space.size, dtype=complex)
    psi[states] = amps / np.linalg.norm(amps)
    return DensityState(space, np.outer(psi, psi.conj()))


@settings(max_examples=40, deadline=None)
@given(coupling_draws, st.booleans(), st.booleans(), coherent_states(SPACE2),
       st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 40.0)), st.floats(-0.01, 0.01),
                          st.sampled_from([None, "pi_q1", "pi_q2"])), min_size=1, max_size=3),
       st.integers(2, 5))
def test_evolve_on_reachable_entries_matches_full_vec_propagation(
    couplings, lossy, counter_rotating, initial, stages, n_samples
):
    # the lossy branch propagates only the entries of vec(ρ) in _reachable;
    # the oracle propagates all of them: its other entries stay exactly 0 and
    # every reading and the final ρ agree with evolve's
    assume(sum(prep is not None for *_, prep in stages) <= 2)
    p = DeviceParams(**couplings) if lossy else DeviceParams(**lossless(**couplings))
    sched = PulseSchedule(
        [Stage(t, OperatingPoint(4.60 + dq, 4.60), prep) for t, dq, prep in stages]
    )
    frame = 0.0 if counter_rotating else 4.60
    obs = {"n_q1": number_operator(SPACE2, 2), "n_a": number_operator(SPACE2, 0)}
    ts = evolve(p, sched, initial, SPACE2, obs, n_samples=n_samples,
                include_counter_rotating=counter_rotating, frame_ghz=frame)
    idx, keep, vecs = full_vec_oracle(p, sched, initial, SPACE2, counter_rotating, frame,
                                      ts.times_ns)
    for j, v in enumerate(vecs):
        assert not np.any(v[~keep])
        rho = v.reshape(idx.size, idx.size)
        for name, op in obs.items():
            expected = np.trace(op[np.ix_(idx, idx)] @ rho).real
            assert abs(ts.expectations[name][j] - expected) <= 1e-12
    final = np.zeros((16, 16), dtype=complex)
    final[np.ix_(idx, idx)] = vecs[-1].reshape(idx.size, idx.size)
    assert np.abs(ts.final_state.rho - final).max() <= 1e-12


def test_lossy_maps_are_exponentiated_on_the_reachable_entries(monkeypatch):
    shapes = []
    real = _expm
    monkeypatch.setattr(dynamics, "_expm", lambda a: shapes.append(a.shape) or real(a))
    offsets, taus = np.array([-3.0, 0.0, 3.0]), np.linspace(0.0, 100.0, 11)
    # lossy chevron: qubit 2's population feeds the 16 one-excitation entries
    # and, by relaxation, the ground population
    vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, offsets, taus, 200.0)
    assert shapes[-1] == (3, 17, 17) and all(s[-2:] == (17, 17) for s in shapes)
    # lossless chevron: nothing feeds the ground population
    shapes.clear()
    vacuum_rabi_chevron(DeviceParams(**lossless()), BIAS, 4.60, offsets, taus, 200.0)
    assert shapes[-1] == (3, 16, 16) and all(s[-2:] == (16, 16) for s in shapes)
    # an evolve_lossy-shaped run: 3^4, ground state, a pi-prep of qubit 2
    shapes.clear()
    sched = PulseSchedule([Stage(0.5, BIAS, prep="pi_q2"), Stage(2.0, OperatingPoint(4.601, 4.60))])
    evolve(DeviceParams(), sched, DensityState.ground(SPACE3), SPACE3,
           {"n_q1": number_operator(SPACE3, 2)}, n_samples=21,
           include_counter_rotating=False, frame_ghz=4.60)
    assert shapes and all(s == (17, 17) for s in shapes)


def test_reachable_closes_the_support_under_every_map():
    # 0 -> 1 -> 2 by the first map, 3 -> 0 by the second: from entry 0 only
    # 0, 1 and 2 are reachable; entry 3 feeds them but nothing feeds it
    a = np.zeros((2, 4, 4))
    a[0, 1, 0] = a[1, 2, 1] = 1.0
    b = np.zeros((4, 4))
    b[0, 3] = 1.0
    vec0 = np.array([1.0, 0, 0, 0])
    assert _reachable(vec0, [a, b]).tolist() == [True, True, True, False]
    assert _reachable(vec0, []).tolist() == [True, False, False, False]
    assert _reachable(np.array([0, 0, 0, 1j]), [a, b]).all()


def test_chevron_refuses_a_step_stack_over_the_limit_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(dynamics, "device_model", lambda *a, **k: built.append(a))
    # each column's step map is a 25 x 25 generator exponential
    columns = MEMORY_LIMIT // _expm_bytes(25) + 1
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


def test_evolve_refuses_malformed_observables():
    # observables come from outside the program: each must be a finite
    # (d, d) numeric array on the space
    sched = PulseSchedule([Stage(1.0, OperatingPoint(4.60, 4.60))])
    init = DensityState.ground(SPACE2)
    malformed = [
        np.zeros((3, 3)), np.zeros((16, 15)), np.zeros(16), np.eye(16, dtype=bool),
        np.full((16, 16), np.nan), np.full((16, 16), np.inf), [[1.0] * 16] * 15 + [[1.0]],
        "n", None,
    ]
    for op in malformed:
        with pytest.raises(ConfigError, match="observable 'o' must be a finite 16x16"):
            evolve(DeviceParams(), sched, init, SPACE2, {"o": op}, n_samples=2)
    ts = evolve(DeviceParams(), sched, init, SPACE2, {"o": np.eye(16).tolist()}, n_samples=2)
    assert np.allclose(ts.expectations["o"], 1.0)


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


def test_lossy_full_space_at_seven_levels_a_mode_refused_before_its_operators():
    # the refusal needs only whether there are collapse operators: none of
    # the four 2401 x 2401 ones (44 MiB each) is built
    space = HilbertSpace((7, 7, 7, 7))
    device_model(DeviceParams(), space, True)
    initial = DensityState.ground(space)
    sched = PulseSchedule([Stage(1.0, BIAS)])
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="2401-state evolution block needs"):
            evolve(DeviceParams(), sched, initial, space, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_lossless_counter_rotating_full_space_runs():
    # no collapse operators: the 81-state full space exponentiates the
    # 81 x 81 generator -iH, not the 6561 x 6561 one the lossy case is refused for
    assert _expm_bytes(81) == 12 * 16 * 81**2 < MEMORY_LIMIT < _expm_bytes(81**2)
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
    h = device_model(p, SPACE2, True).hamiltonians([point.qubit_freq_1], [point.qubit_freq_2])[0]
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
    h = device_model(p, SPACE3, True).hamiltonians([point.qubit_freq_1], [point.qubit_freq_2])[0]
    for t, reading in zip(ts.times_ns, ts.expectations["n_q1"]):
        u = eigenbasis_propagator(h, t)
        rho = u @ init.rho @ u.conj().T
        assert abs(reading - np.trace(n_q1 @ rho).real) <= 1e-9
    assert np.abs(ts.final_state.rho - rho).max() <= 1e-9
    assert abs(ts.final_state.purity() - 1.0) <= 1e-9


def test_expm_byte_estimate():
    # a lossy 81-state block needs a 6561 x 6561 generator: refused;
    # 16 states (a 256 x 256 generator) fit
    assert _expm_bytes(81**2) == 12 * 16 * 81**4 > MEMORY_LIMIT
    assert _expm_bytes(16**2) < MEMORY_LIMIT
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
    collapse = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                rng.standard_normal((n, n))]
    dissipator = _dissipator(collapse, n)
    # the broadcast outer products are bitwise the Kronecker products
    ceye = np.eye(n, dtype=complex)
    expected = np.zeros((n * n, n * n), dtype=complex)
    for l in collapse:
        ldl = l.conj().T @ l
        expected += np.kron(l, l.conj())
        expected -= 0.5 * (np.kron(ldl, ceye) + np.kron(ceye, ldl.T))
    assert np.array_equal(dissipator, expected)
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
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, offsets, taus)
    assert np.abs(chev.p1[0] - chev.p1[4]).max() < 1e-4
    assert np.abs(chev.p1[1] - chev.p1[3]).max() < 1e-4


def test_chevron_on_resonance_column_matches_closed_form():
    g = 0.003
    p = decoupled(**lossless()).replace(g_12=g)
    taus = np.linspace(0, 500, 101)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([0.0]), taus)
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


@pytest.mark.parametrize("offsets", [[1.0, 0.0, -1.0], [0.0, 0.0]])
def test_chevron_requires_strictly_ascending_offsets(offsets):
    with pytest.raises(ConfigError, match="strictly ascending"):
        vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array(offsets), np.linspace(0, 10, 3))


def test_chevron_accepts_a_single_offset():
    chev = vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array([0.0]), np.linspace(0, 10, 3))
    assert chev.p1.shape == (1, 3)


def test_chevron_requires_uniform_tau_grid():
    with pytest.raises(ConfigError):
        vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.60, np.array([0.0]), np.array([0.0, 1.0, 3.0])
        )
    with pytest.raises(ConfigError):
        vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.60, np.array([0.0]), np.array([5.0, 10.0, 15.0])
        )

