import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dresq import dynamics, errors
from dresq.errors import MEMORY_LIMIT, ConfigError, IntegrationError, PhysicsError
from dresq.fock import HilbertSpace, lowering_operator, number_operator
from dresq.device import Block, DeviceModel, DeviceParams, OperatingPoint, device_model
from dresq.dynamics import (
    ChevronMap,
    DensityState,
    PulseSchedule,
    Stage,
    collapse_operators,
    evolve,
    vacuum_rabi_chevron,
    _expm,
    _expm_bytes,
    _hermitian_basis,
    _reachable,
    _real_map,
    _rotated,
    _superoperator,
    _walk,
)
from oracles import (
    leak_rule_block, lindblad_superoperator, pi_flip, purity, total_number_operator,
    two_level_transfer, vec_oracle,
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


@pytest.mark.parametrize("shape", [(15, 15), (16, 15), (16,), (2, 16, 16)])
def test_density_state_of_the_wrong_shape_is_refused(shape):
    with pytest.raises(ConfigError, match="density matrix shape must match the space"):
        DensityState(SPACE2, np.zeros(shape))


def test_validate_refuses_a_non_hermitian_rho():
    # trace 1, but a coherence without its conjugate
    state = DensityState.ground(SPACE2)
    state.rho[0, 1] = 1e-6
    with pytest.raises(IntegrationError, match=r"not Hermitian \(defect 1.00e-06\)"):
        state.validate()


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


def test_a_device_at_the_t2_margin_runs():
    # DeviceParams, the one judge of coherence times, admits T2 up to
    # 2·T1 + 1e-12 µs: at T1 = 0.1 µs that margin leaves qubit 1 a dephasing
    # rate of about -2.5e-14 /ns, which adds no operator instead of a refusal
    p = DeviceParams(t1_qubit1=0.1, t2_qubit1=0.200000000001)
    ops = collapse_operators(p, SPACE2)
    assert len(ops) == 3
    assert np.array_equal(ops[0], math.sqrt(1.0 / 100.0) * lowering_operator(SPACE2, 2))
    # qubit 2 keeps the default relaxation and dephasing
    default = collapse_operators(DeviceParams(), SPACE2)
    assert all(np.array_equal(a, b) for a, b in zip(ops[1:], default[2:]))
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([-3.0, 0.0, 3.0]),
                               np.linspace(0.0, 200.0, 21), 300.0)
    assert chev.p1.shape == (3, 21) and np.isfinite(chev.p1).all()


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
    assert abs(purity(ts.final_state.rho) - 1.0) < 1e-8
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


def test_a_prep_after_0_ns_is_refused_before_anything_is_built(monkeypatch):
    # preps act on the initial state only: one on a stage that starts at
    # 12.5 ns is refused, naming that time, before any Hamiltonian is built
    built = []
    monkeypatch.setattr(DeviceModel, "block", lambda *a: built.append(a))
    sched = PulseSchedule([Stage(0.0, BIAS, prep="pi_q2"), Stage(12.5, BIAS),
                           Stage(10.0, BIAS, prep="pi_q1")])
    with pytest.raises(ConfigError, match=r"'pi_q1' at 12.5 ns"):
        evolve(DeviceParams(), sched, DensityState.ground(SPACE2), SPACE2, {}, n_samples=3,
               include_counter_rotating=False)
    # a space without the qubit modes has nothing to prep
    two_modes = HilbertSpace((2, 2))
    with pytest.raises(ConfigError, match="mode index 3 out of range for 2 modes"):
        evolve(DeviceParams(), PulseSchedule([Stage(1.0, BIAS, prep="pi_q2")]),
               DensityState.ground(two_modes), two_modes, {}, n_samples=2,
               include_counter_rotating=False)
    assert built == []


def test_two_opening_preps_of_one_qubit_cancel():
    # each prep is its own inverse: two of qubit 2 leave the ground state
    hold = OperatingPoint(4.601, 4.60)
    obs = {"n_q2": number_operator(SPACE3, 3), "n_tot": total_number_operator(SPACE3)}

    def run(stages):
        return evolve(DeviceParams(), PulseSchedule(stages), DensityState.ground(SPACE3), SPACE3,
                      obs, n_samples=11, include_counter_rotating=False, frame_ghz=4.60)

    twice = run([Stage(0.0, BIAS, "pi_q2"), Stage(0.0, BIAS, "pi_q2"), Stage(50.0, hold)])
    none = run([Stage(50.0, hold)])
    for name in obs:
        assert np.abs(twice.expectations[name] - none.expectations[name]).max() <= 1e-12
    assert np.abs(twice.final_state.rho - none.final_state.rho).max() <= 1e-12
    assert twice.final_state.rho[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_preps_of_both_qubits_run_on_the_two_excitation_block(monkeypatch):
    # pi_q1 and pi_q2 from the ground state at 3^4 start from |q1 q2>: the
    # evolution runs on the 15 states with N <= 2 and matches the complex
    # vec(ρ) reference, which flips ρ₀ on the full space
    blocks = []
    real = DeviceModel.block
    monkeypatch.setattr(DeviceModel, "block",
                        lambda self, idx: blocks.append(idx) or real(self, idx))
    sched = PulseSchedule([Stage(0.0, BIAS, "pi_q1"), Stage(0.0, BIAS, "pi_q2"),
                           Stage(30.0, OperatingPoint(4.601, 4.60)), Stage(20.0, BIAS)])
    obs = {"n_q1": number_operator(SPACE3, 2), "n_q2": number_operator(SPACE3, 3),
           "n_a": number_operator(SPACE3, 0)}
    initial = DensityState.ground(SPACE3)
    ts = evolve(DeviceParams(), sched, initial, SPACE3, obs, n_samples=6,
                include_counter_rotating=False, frame_ghz=4.60)
    assert len(blocks) == 1 and blocks[0].size == 15
    monkeypatch.undo()
    idx, _, readings, states = oracle_run(DeviceParams(), sched, initial, SPACE3, obs, 6,
                                          False, 4.60)
    assert np.array_equal(idx, blocks[0])
    assert readings[0, 1, 0] == readings[0, 2, 0] == 1.0
    for i, name in enumerate(obs):
        assert np.abs(ts.expectations[name] - readings[0, i + 1]).max() <= 1e-12
    assert np.abs(ts.final_state.rho[np.ix_(idx, idx)] - states[0, -1]).max() <= 1e-12


stage_draws = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 60.0)), st.floats(-0.01, 0.01)),
    min_size=1,
    max_size=3,
)
prep_draws = st.lists(st.sampled_from(["pi_q1", "pi_q2"]), max_size=2)


def opening_schedule(preps, stages):
    """A zero-length stage at the first stage's point per prep, then holds of
    (duration, qubit-1 offset from 4.60 GHz) with qubit 2 at 4.60 GHz."""
    points = [OperatingPoint(4.60 + dq, 4.60) for _, dq in stages]
    return PulseSchedule([Stage(0.0, points[0], prep) for prep in preps]
                         + [Stage(t, pt) for (t, _), pt in zip(stages, points)])


@settings(max_examples=25, deadline=None)
@given(prep_draws, stage_draws, st.integers(3, 14), st.sampled_from([None, 2, 3]))
def test_evolve_sampling_trace_positivity_and_excitations(preps, stages, n_samples, excited):
    # lossy rotating-wave evolution after opening preps: the sample grid must
    # not change the final state, and rho keeps its trace, stays positive and
    # Hermitian bit for bit and gains at most one excitation per prep
    sched = opening_schedule(preps, stages)
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
    assert np.array_equal(ts.final_state.rho, ts.final_state.rho.conj().T)
    assert ts.expectations["n"].max() <= (excited is not None) + len(preps) + 1e-8


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

    # a zero-length stage per prep, then a hold at each point: the preps act
    # on rho, and two of qubit 2 cancel
    sched = PulseSchedule([Stage(0.0, points[0], "pi_q2")] * n_preps
                          + [Stage(1.0, pt) for pt in points])
    stage_points = [st.point for st in sched.stages]
    hs = device_model(p, space, counter_rotating).block(np.arange(space.size)).stack(
        np.array([pt.qubit_freq_1 for pt in stage_points]),
        np.array([pt.qubit_freq_2 for pt in stage_points]),
    )
    hs -= dynamics.TWO_PI * frame * total_number_operator(space)
    ls = collapse_operators(p, space)
    flip = pi_flip(space, 3) if n_preps % 2 else np.eye(space.size)
    expected = leak_rule_block(space, flip @ rho @ flip.T, list(hs) + ls)

    # the core's block Hamiltonians are the stack it builds (the frame is taken
    # off in place) and its collapse operators what it builds the generator
    # from; the run stops at the first of _superoperator and _expm, before any map
    class Built(Exception):
        pass

    seen = {}
    real_block, real_stack = DeviceModel.block, Block.stack

    def block(self, idx):
        seen["idx"] = idx
        return real_block(self, idx)

    def stack(self, f1, f2):
        seen["hs"] = real_stack(self, f1, f2)
        return seen["hs"]

    def superoperator(h, collapse):
        seen["ls"] = collapse
        raise Built

    def expm(a):
        raise Built

    def run():
        evolve(p, sched, DensityState(space, rho), space, {}, n_samples=2,
               include_counter_rotating=counter_rotating, frame_ghz=frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DeviceModel, "block", block)
        mp.setattr(Block, "stack", stack)
        mp.setattr(dynamics, "_superoperator", superoperator)
        mp.setattr(dynamics, "_expm", expm)
        if _expm_bytes(expected.size**2 if ls else expected.size) > MEMORY_LIMIT:
            with pytest.raises(ConfigError, match="evolution block"):
                run()
            assert seen == {}
            return
        with pytest.raises(Built):
            run()
    idx = seen["idx"]
    assert np.array_equal(idx, expected)
    sel = np.ix_(idx, idx)
    assert np.array_equal(seen["hs"], hs[:, idx[:, None], idx])
    block_ls = seen.get("ls", [])
    assert len(block_ls) == len(ls)
    assert all(np.array_equal(b, l[sel]) for b, l in zip(block_ls, ls))


def test_evolution_builds_its_stage_stack_on_the_excitation_block(monkeypatch):
    blocks = []
    real = DeviceModel.block

    def spy(self, idx):
        blocks.append(np.array(idx))
        return real(self, idx)

    monkeypatch.setattr(DeviceModel, "block", spy)
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


def stepped_schedule(n_stages, preps=("pi_q2", "pi_q1")):
    """A zero-length opening stage per prep, then n_stages stages of 0.1 ns,
    each at its own point near 4.60 GHz."""
    return PulseSchedule([Stage(0.0, BIAS, prep) for prep in preps]
                         + [Stage(0.1, OperatingPoint(4.600 + 0.001 * (k % 5), 4.60))
                            for k in range(n_stages)])


def test_memory_does_not_grow_with_the_number_of_stages(monkeypatch):
    # a lossy rotating-wave run at 3^4 from the ground state with preps on
    # both qubits (the 15-state N <= 2 block): each stage's generators and
    # maps are built when it is entered and dropped when it is left
    members = []
    real = _rotated

    def spy(g0, shift, *pair):
        members.append(int(np.prod(shift.shape[:-1])))
        return real(g0, shift, *pair)

    monkeypatch.setattr(dynamics, "_rotated", spy)
    params = DeviceParams()
    device_model(params, SPACE3, False)
    peaks = []
    for n_stages in (4, 20):
        tracemalloc.start()
        try:
            evolve(params, stepped_schedule(n_stages), DensityState.ground(SPACE3), SPACE3, {},
                   n_samples=2, include_counter_rotating=False, frame_ghz=4.60)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    # no generator stack holds more members than the batch: one for evolve,
    # one per column for the chevron
    assert members and max(members) == 1
    members.clear()
    vacuum_rabi_chevron(params, BIAS, 4.60, np.array([-3.0, 0.0, 3.0]),
                        np.linspace(0.0, 100.0, 11), 200.0)
    assert members and max(members) == 3


def test_memory_guard_counts_the_peak_of_a_lossy_run(monkeypatch):
    # preps on both qubits start the run from |q1 q2>, on the 15-state N <= 2
    # block; the rotating-wave maps conserve N(ket) - N(bra), so 117 of its
    # 225 entries of vec(rho) are reachable (100 + 16 + 1): each stage map is
    # a real 117 x 117 exponential, held next to the stage generator, the
    # complex generator and the stage's other maps
    counted = []
    real = dynamics.require_memory
    monkeypatch.setattr(dynamics, "require_memory", lambda need, what: (
        counted.append(need), real(need, what)))
    params = DeviceParams()
    device_model(params, SPACE3, False)
    tracemalloc.start()
    try:
        evolve(params, stepped_schedule(4), DensityState.ground(SPACE3), SPACE3, {},
               n_samples=2, include_counter_rotating=False, frame_ghz=4.60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert _expm_bytes(117, 8) < peak <= counted[0]


def test_stage_hamiltonians_over_the_limit_refused_before_allocating(monkeypatch):
    # 600 stages of a lossless counter-rotating run at 3^4 need 600 Hamiltonians
    # on the 81-state full space (8 * 81^2 bytes each, 31 MiB in all, 32 with
    # a stage's maps), built before the first stage: over a 16 MiB limit they
    # are refused first
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 16 * 2**20)
    params = DeviceParams(**lossless())
    device_model(params, SPACE3, True)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="81-state evolution block needs 32 MiB"):
            evolve(params, stepped_schedule(600, ["pi_q2"]), DensityState.ground(SPACE3),
                   SPACE3, {}, n_samples=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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

    monkeypatch.setattr(dynamics, "_superoperator", built)
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
    # (on a lossless device the chevron propagates vec(ρ) and evolve U)
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


def test_drift_is_reported_from_the_first_slice_that_shows_it(monkeypatch):
    # three τ values a slice: column 1's step map gains 1.5e-9 of trace a step
    # and column 2's 4e-9, so column 2 drifts past 1e-8 at the third step, in
    # the second slice, and column 1 only at the seventh, in the third: the
    # walk stops at the second slice and names column 2 and its sample
    walks = []
    real_walk = _walk
    monkeypatch.setattr(dynamics, "_walk", lambda out, powers, act: (
        walks.append(len(out)), real_walk(out, powers, act))[1])

    def corrupt(a):
        m = _expm(a)
        m[1] *= 1 + 1.5e-9
        m[2] *= 1 + 4e-9
        return m

    monkeypatch.setattr(dynamics, "_expm", corrupt)
    monkeypatch.setattr(dynamics, "STACK_SLICE_BYTES", 3 * 4 * 8 * 5**2)
    with pytest.raises(IntegrationError, match=r"at t = 30.000 ns \(stage 0, 5-state block\) "
                                               r"in chevron column 2$"):
        vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array([-3.0, 0.0, 3.0, 6.0]),
                            np.linspace(0.0, 100.0, 11))
    assert walks == [3, 3]


@st.composite
def coherent_states(draw, space, basis=None):
    """ρ = |ψ><ψ| of a ψ with complex amplitudes on 1-3 basis states (drawn
    from ``basis`` if given), so its support holds coherences between them
    (of any excitation numbers)."""
    state = st.integers(0, space.size - 1) if basis is None else st.sampled_from(basis)
    states = draw(st.lists(state, min_size=1, max_size=3, unique=True))
    amps = np.array([complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0)))
                     for _ in states])
    psi = np.zeros(space.size, dtype=complex)
    psi[states] = amps / np.linalg.norm(amps)
    return DensityState(space, np.outer(psi, psi.conj()))


def oracle_run(params, sched, initial, space, observables, n_samples, counter_rotating, frame):
    """:func:`vec_oracle` of one evolve schedule: its opening preps act on the
    initial state, the rest are holds."""
    stages = sched.stages
    freqs = [[(st.point.qubit_freq_1, st.point.qubit_freq_2)] for st in stages]
    return vec_oracle(params, space, [st.duration_ns for st in stages], freqs, initial.rho,
                      list(observables.values()), n_samples, counter_rotating, frame,
                      preps=[st.prep for st in stages if st.prep])


# the unit roundoff of float64, and how many times u·(d + Σ_k ‖L_k t_k‖₁) two
# double-precision propagations of one schedule on a d-state space may differ
# by: the exponentials are accurate to about u·‖L t‖₁ (Higham 2005), and the
# products outside them (U ρ U†, readings) sum up to d terms. Against the
# extended-precision reference, evolve stayed within 0.96 u·(1 + Σ) and the
# oracle within 0.61, over 360 draws: 240 of the test below and 120 lossy or
# lossless counter-rotating ones of three 30-40 ns stages, whose Σ reaches
# 13,300. The two differed by at most 1.54 u·(16 + Σ) over 6,000 more draws,
# 4,000 of them with stages of at most 0.5 ns
UNIT_ROUNDOFF = 2.0**-53
PROPAGATION_ROUNDING = 4.0


def propagation_norm(params, sched, space, counter_rotating, frame):
    """Σ_k ‖L_k‖₁·t_k over the stages of ``sched``: the 1-norm of each stage's
    Lindblad generator on the whole space, at least its block's, times the
    stage's duration."""
    points = [st.point for st in sched.stages]
    hs = device_model(params, space, counter_rotating).block(np.arange(space.size)).stack(
        np.array([pt.qubit_freq_1 for pt in points]), np.array([pt.qubit_freq_2 for pt in points]))
    hs -= dynamics.TWO_PI * frame * total_number_operator(space)
    generators = lindblad_superoperator(hs, collapse_operators(params, space))
    return sum(np.abs(g).sum(axis=0).max() * st.duration_ns
               for g, st in zip(generators, sched.stages))


# a lossy counter-rotating draw on which evolve and the oracle differ by
# 1.12e-12, each about 0.6 u·Σ‖L_k t_k‖₁ (Σ = 8345) from the exact result
ROUNDING_DRAW = (
    {"g_a1": 0.0, "g_a2": 0.027, "g_b1": 0.030, "g_b2": 0.0, "g_ab": 0.010, "g_12": 0.0},
    True, True, DensityState.single_excitation(SPACE2, 2), [],
    [(35.5, 0.0), (35.898505521004125, -0.005859375)], 2,
)


@settings(max_examples=40, deadline=None)
@given(coupling_draws, st.booleans(), st.booleans(), coherent_states(SPACE2), prep_draws,
       st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 40.0)), st.floats(-0.01, 0.01)),
                min_size=1, max_size=3),
       st.integers(2, 5))
@example(*ROUNDING_DRAW)
def test_evolve_on_reachable_entries_matches_full_vec_propagation(
    couplings, lossy, counter_rotating, initial, preps, stages, n_samples
):
    # the lossy branch propagates only the entries of vec(ρ) in _reachable;
    # the oracle propagates all of them: those its generators cannot reach
    # stay exactly 0, and every reading and the final ρ agree with evolve's to
    # the rounding of two double-precision propagations of the schedule
    p = DeviceParams(**couplings) if lossy else DeviceParams(**lossless(**couplings))
    sched = opening_schedule(preps, stages)
    frame = 0.0 if counter_rotating else 4.60
    obs = {"n_q1": number_operator(SPACE2, 2), "n_a": number_operator(SPACE2, 0)}
    ts = evolve(p, sched, initial, SPACE2, obs, n_samples=n_samples,
                include_counter_rotating=counter_rotating, frame_ghz=frame)
    idx, keep, readings, states = oracle_run(p, sched, initial, SPACE2, obs, n_samples,
                                             counter_rotating, frame)
    assert not np.any(states.reshape(n_samples, -1)[:, ~keep])
    bound = PROPAGATION_ROUNDING * UNIT_ROUNDOFF * (
        SPACE2.size + propagation_norm(p, sched, SPACE2, counter_rotating, frame))
    for i, name in enumerate(obs):
        assert np.abs(ts.expectations[name] - readings[0, i + 1]).max() <= bound
    final = np.zeros((16, 16), dtype=complex)
    final[np.ix_(idx, idx)] = states[0, -1]
    assert np.abs(ts.final_state.rho - final).max() <= bound


def test_evolve_and_the_oracle_each_stay_within_half_the_bound_of_an_extended_reference():
    # on the draw where they differ most, neither is at fault: each is within
    # half of PROPAGATION_ROUNDING · u·(d + Σ‖L_k t_k‖₁) of the same schedule
    # propagated in extended precision
    couplings, _, _, initial, _, stages, n_samples = ROUNDING_DRAW
    p = DeviceParams(**couplings)
    sched = opening_schedule([], stages)
    obs = {"n_q1": number_operator(SPACE2, 2), "n_a": number_operator(SPACE2, 0)}
    ts = evolve(p, sched, initial, SPACE2, obs, n_samples=n_samples)
    run = [p, SPACE2, [st.duration_ns for st in sched.stages],
           [[(st.point.qubit_freq_1, st.point.qubit_freq_2)] for st in sched.stages],
           initial.rho, list(obs.values()), n_samples, True, 0.0]
    idx, _, readings, states = vec_oracle(*run)
    _, _, exact, exact_states = vec_oracle(*run, extended=True)
    half = 0.5 * PROPAGATION_ROUNDING * UNIT_ROUNDOFF * (
        SPACE2.size + propagation_norm(p, sched, SPACE2, True, 0.0))
    final = np.zeros((16, 16), dtype=complex)
    final[np.ix_(idx, idx)] = exact_states[0, -1]
    for i, name in enumerate(obs):
        assert np.abs(ts.expectations[name] - exact[0, i + 1]).max() <= half
    assert np.abs(ts.final_state.rho - final).max() <= half
    assert np.abs(readings - exact).max() <= half
    assert np.abs(states - exact_states).max() <= half
    # and the two differ by more than the fixed 1e-12 the test once allowed
    assert np.abs(ts.expectations["n_q1"] - readings[0, 1]).max() > 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([SPACE2, SPACE3]).flatmap(
           lambda space: st.tuples(st.just(space), coherent_states(
               space, [0, *space.single_excitation_indices()]))),
       st.sampled_from(["pi_q1", "pi_q2"]), prep_draws,
       st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.1, 40.0)), st.floats(-0.01, 0.01)),
                min_size=1, max_size=3),
       st.integers(2, 5))
def test_real_coordinates_match_complex_vec_propagation(space_and_state, first_prep, more_preps,
                                                        stages, n_samples):
    # lossy rotating-wave runs propagate real Hermitian coordinates of vec(ρ);
    # the oracle propagates complex vec(ρ) on the whole block: readings, of
    # non-Hermitian and complex observables too, and the final ρ agree, and
    # the final ρ is Hermitian bit for bit
    space, initial = space_and_state
    preps = [first_prep, *more_preps]
    n_exc = space.quanta.sum(axis=0)
    n0 = n_exc[np.any(initial.rho != 0, axis=1)].max()
    assume(n0 + len(preps) <= 2)
    p = DeviceParams()
    sched = opening_schedule(preps, stages)
    a1 = lowering_operator(space, 2)
    obs = {"n_q1": number_operator(space, 2), "n_q2": number_operator(space, 3),
           "a_q2": lowering_operator(space, 3), "ia_q1": 1j * a1, "y_q1": 1j * (a1 - a1.T)}
    ts = evolve(p, sched, initial, space, obs, n_samples=n_samples,
                include_counter_rotating=False, frame_ghz=4.60)
    idx, _, readings, states = oracle_run(p, sched, initial, space, obs, n_samples, False, 4.60)
    for i, name in enumerate(obs):
        assert np.abs(ts.expectations[name] - readings[0, i + 1]).max() <= 1e-12
    final = np.zeros_like(initial.rho)
    final[np.ix_(idx, idx)] = states[0, -1]
    assert np.abs(ts.final_state.rho - final).max() <= 1e-12
    assert np.array_equal(ts.final_state.rho, ts.final_state.rho.conj().T)


def dense_hermitian_basis(keep, n):
    """The unitary T on the kept entries of an n-state block's vec(ρ), built
    densely from its definition: ρ_ii stays, and each pair (i, j), (j, i)
    with i < j gives √2·Re ρ_ij in the place of (i, j), √2·Im ρ_ij in that
    of (j, i)."""
    place = {int(k): r for r, k in enumerate(keep)}
    r = math.sqrt(0.5)
    t = np.zeros((keep.size, keep.size), dtype=complex)
    for a, k in enumerate(keep):
        i, j = divmod(int(k), n)
        b = place[j * n + i]
        if i == j:
            t[a, a] = 1.0
        elif i < j:
            t[a, a] = t[a, b] = r
        else:
            t[a, b], t[a, a] = -1j * r, 1j * r
    return t


def test_hermitian_coordinates_make_lindblad_generators_real():
    # T L T† of a Lindblad generator has no imaginary part beyond rounding,
    # on the whole of vec(ρ) and on a reachable subset of it, and _real_map
    # gives its real part from the index gathers alone
    rng = np.random.default_rng(11)
    n = 5
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    collapse = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                np.diag(rng.standard_normal(n))]
    random_generator = _superoperator(h + h.conj().T, collapse)
    p = DeviceParams()
    idx = np.flatnonzero(SPACE3.quanta.sum(axis=0) <= 1)
    hd = device_model(p, SPACE3, False).block(idx).stack(np.array([4.603]), np.array([4.60]))[0]
    hd -= dynamics.TWO_PI * 4.60 * np.diag(SPACE3.quanta.sum(axis=0)[idx])
    device_generator = _superoperator(
        hd, [l[np.ix_(idx, idx)] for l in collapse_operators(p, SPACE3)])
    start = np.zeros((n, n))
    start[4, 4] = 1.0
    reach = np.flatnonzero(_reachable(start.ravel(), device_generator))
    assert reach.size == 17
    for gen, keep in ((random_generator, np.arange(n * n)), (device_generator, reach)):
        t = dense_hermitian_basis(keep, n)
        assert np.abs(t @ t.conj().T - np.eye(keep.size)).max() <= 1e-15
        g = gen[np.ix_(keep, keep)]
        dense = t @ g @ t.conj().T
        norm = np.linalg.norm(g)
        assert np.abs(dense.imag).max() <= 1e-15 * norm
        # _real_map restricts the whole map to the kept entries on the way
        _, _, pick, weight = _hermitian_basis(keep, n)
        real = _real_map(gen, pick, weight)
        assert real.dtype == np.float64 and real.flags.c_contiguous
        assert np.abs(real - dense.real).max() <= 1e-15 * norm
        # a stack of maps is mapped member by member
        stack = _real_map(np.stack([gen, 2 * gen]), pick, weight)
        assert np.array_equal(stack[0], real)
        assert np.array_equal(stack[1], _real_map(2 * gen, pick, weight))


def test_hermitian_basis_refuses_entries_without_their_transposes():
    # entries (0, 1) and (1, 1) of a 2-state block: (1, 0) is missing
    with pytest.raises(AssertionError, match="transposition"):
        _hermitian_basis(np.array([1, 3]), 2)


@settings(max_examples=40, deadline=None)
@given(coupling_draws, st.booleans(), st.booleans(), st.sampled_from([0.0, 4.60]),
       coherent_states(SPACE2),
       st.lists(st.tuples(st.floats(4.55, 4.65), st.floats(4.55, 4.65)), min_size=1, max_size=4))
def test_rotated_generators_match_each_point_built_alone(
    couplings, lossy, counter_rotating, frame, initial, freqs
):
    # points differ only on H's diagonal: the generator of the first point
    # plus the rotations of each kept pair equals each point's generator
    # built from its own superoperator, on the block and the reachable
    # entries a run would use, couplings, losses, model and frame drawn
    p = DeviceParams(**couplings) if lossy else DeviceParams(**lossless(**couplings))
    hs = device_model(p, SPACE2, counter_rotating).block(np.arange(SPACE2.size)).stack(
        *np.array(freqs, dtype=float).T)
    hs -= dynamics.TWO_PI * frame * total_number_operator(SPACE2)
    ls = collapse_operators(p, SPACE2)
    idx = leak_rule_block(SPACE2, initial.rho, list(hs) + ls)
    n = idx.size
    hs = hs[:, idx[:, None], idx]
    block_ls = [l[np.ix_(idx, idx)] for l in ls]
    s0 = _superoperator(hs[0], block_ls)
    support = initial.rho[np.ix_(idx, idx)] != 0
    keep = np.flatnonzero(_reachable(support.reshape(-1), s0))
    up, lo, pick, weight = _hermitian_basis(keep, n)
    g0 = _real_map(s0, pick, weight)
    diagonal = hs.diagonal(0, 1, 2)
    rotated = _rotated(g0, diagonal - diagonal[0], up, lo, *np.divmod(keep[up], n))
    direct = _real_map(_superoperator(hs, block_ls), pick, weight)
    scale = np.abs(direct).max()
    assert rotated.shape == direct.shape
    assert np.abs(rotated - direct).max() <= 1e-14 * scale
    # one shift gives one generator, the stack's member
    last = _rotated(g0, diagonal[-1] - diagonal[0], up, lo, *np.divmod(keep[up], n))
    assert np.array_equal(last, rotated[-1])


def test_superoperator_is_built_once_per_propagation(monkeypatch):
    calls = []
    real = _superoperator
    monkeypatch.setattr(dynamics, "_superoperator",
                        lambda h, d: calls.append(h.shape) or real(h, d))
    # 41 columns and a readout: one superoperator, of the first column's H
    vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.linspace(-20.0, 20.0, 41),
                        np.linspace(0.0, 2000.0, 201), 2500.0)
    assert calls == [(5, 5)]
    calls.clear()
    evolve(DeviceParams(), stepped_schedule(6), DensityState.ground(SPACE3), SPACE3, {},
           n_samples=2, include_counter_rotating=False, frame_ghz=4.60)
    assert calls == [(15, 15)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 64, 65, 201])
def test_walk_finds_r_states_in_a_logarithmic_number_of_products(r):
    rng = np.random.default_rng(r)
    u = rng.standard_normal((3, 4, 4)) / 4.0
    x = rng.standard_normal((3, 4))
    products = []

    def act(a, states, into):
        products.append(len(states))
        return np.matmul(states.swapaxes(0, 1), np.swapaxes(a, -1, -2), out=into.swapaxes(0, 1))

    out = np.empty((r, 3, 4))
    out[0] = x
    powers = [u]
    _walk(out, powers, act)
    assert len(products) == math.ceil(math.log2(r))
    assert len(powers) == max(1, math.ceil(math.log2(r)))
    assert sum(products) == r - 1
    state = x
    for image in out:
        assert np.abs(image - state).max() <= 1e-13 * max(1.0, np.abs(state).max())
        state = np.einsum("bij,bj->bi", u, state)
    # without a map every state is the first
    assert np.array_equal(_walk(out, [], act), np.repeat(out[:1], r, axis=0))


def test_chevron_walks_its_taus_and_readout_rows_in_logarithmically_many_products(monkeypatch):
    # 201 τ values: the columns' 200 steps and the readout rows' 200 steps
    # take 8 products each
    products = []
    real = _walk

    def counted(out, powers, act):
        return real(out, powers, lambda *a: products.append(len(a[1])) or act(*a))

    monkeypatch.setattr(dynamics, "_walk", counted)
    vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.linspace(-20.0, 20.0, 41),
                        np.linspace(0.0, 2000.0, 201), 2500.0)
    assert len(products) == 2 * 8 and sum(products) == 2 * 200


def boundary_durations(n_samples, dt=0.25):
    """Three stages whose boundaries lie on the uniform grid of ``n_samples``
    samples dt apart."""
    steps = n_samples - 1
    cuts = [0, steps // 3, (2 * steps) // 3, steps]
    return [dt * (cuts[s + 1] - cuts[s]) for s in range(3)]


WALK_FREQS = [(4.60 + d, 4.60) for d in (0.004, -0.002, 0.001)]


@pytest.mark.parametrize("slice_states", [None, 3])
@pytest.mark.parametrize("n_samples", [2, 3, 4, 5, 64, 65, 201])
@pytest.mark.parametrize("case", ["lossy", "lossless U", "batch with readout"])
def test_walk_matches_a_one_step_at_a_time_oracle(monkeypatch, case, n_samples, slice_states):
    # readings and final states of staged runs with samples on stage
    # boundaries equal the oracle's; with a slice of 3 states the runs of
    # equal steps are walked in several slices. The state holds a coherence
    # between the ground state and |q2>, so the complex observables read it
    lossy = case != "lossless U"
    p = DeviceParams() if lossy else DeviceParams(**lossless())
    psi = np.zeros(16, dtype=complex)
    psi[[0, 1]] = [0.6, 0.8j]
    initial = np.outer(psi, psi.conj())
    a2 = lowering_operator(SPACE2, 3)
    observables = [number_operator(SPACE2, 2), number_operator(SPACE2, 3), a2, 1j * a2]
    durations = boundary_durations(n_samples)
    if case == "batch with readout":
        # member s holds the frequencies rotated by s
        freqs = [[WALK_FREQS[(k + s) % 3] for s in range(3)] for k in range(3)]
        readout = ((BIAS.qubit_freq_1, BIAS.qubit_freq_2), 0.25 * (n_samples - 1) + 3.0)
    else:
        freqs, readout = [[f] for f in WALK_FREQS], None
    batch = len(freqs[0])
    if slice_states:
        # the block has 5 states, the slice 3 states of every member
        monkeypatch.setattr(dynamics, "STACK_SLICE_BYTES",
                            slice_states * batch * (8 if lossy else 16) * 5**2)
    walks, rows_walk = [], []
    real = _walk

    def spy(out, powers, act):
        walks.append(len(out))
        if readout and not rows_walk:
            rows_walk.extend([out, powers[0]])
        return real(out, powers, act)

    monkeypatch.setattr(dynamics, "_walk", spy)
    times, readings, final = dynamics._propagate(
        p, SPACE2, durations, freqs, initial, np.arange(16), observables, n_samples, False,
        4.60, readout)
    idx, _, expected, states = vec_oracle(p, SPACE2, durations, freqs, initial, observables,
                                          n_samples, False, 4.60, readout)
    assert idx.size == 5
    assert np.abs(readings - expected).max() <= 1e-12
    for f, e in zip(final, states[:, -1]):
        assert np.abs(f[np.ix_(idx, idx)] - e).max() <= 1e-12
        assert np.count_nonzero(f) == np.count_nonzero(f[np.ix_(idx, idx)])
    # the readout rows are one walk, before the stages' runs of equal steps
    runs = walks[1:] if readout else walks
    if slice_states:
        assert all(w <= slice_states for w in runs)
    elif n_samples >= 64:
        # a stage's samples are one walk
        assert max(runs) >= (n_samples - 1) // 3
    if readout:
        # the readout rows are one walk, equal to the rows carried back one
        # grid step at a time
        back, step = rows_walk
        assert walks[0] == n_samples
        rows = back[0]
        for found in back[1:]:
            rows = rows @ step
            assert np.abs(found - rows).max() <= 1e-13


def _walked_runs():
    """Runs of the core by name, each a call of no arguments."""
    hold = OperatingPoint(4.601, 4.60)
    sched = PulseSchedule([Stage(0.5, BIAS, prep="pi_q2"), Stage(200.0, hold)])
    modes = {f"n{m}": number_operator(SPACE3, m) for m in range(4)}

    def long_evolve(p):
        return lambda: evolve(p, sched, DensityState.ground(SPACE3), SPACE3, modes,
                              n_samples=100_001, include_counter_rotating=False, frame_ghz=4.60)

    taus = np.linspace(0.0, 2000.0, 200_001)
    return {
        "lossy chevron": lambda: vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.60, np.linspace(-20.0, 20.0, 41),
            np.linspace(0.0, 2000.0, 201), 2500.0),
        "lossless 3^4 evolve": lambda: evolve(
            DeviceParams(**lossless()), PulseSchedule([Stage(0.5, BIAS, prep="pi_q2"),
                                                       Stage(200.0, OperatingPoint(4.60, 4.60))]),
            DensityState.ground(SPACE3), SPACE3, {"n_q1": number_operator(SPACE3, 2)},
            n_samples=201),
        "chevron column of 200,001 taus": lambda: vacuum_rabi_chevron(
            DeviceParams(), BIAS, 4.60, np.array([0.0]), taus),
        "lossy evolve of 100,001 samples": long_evolve(DeviceParams()),
        "lossless evolve of 100,001 samples": long_evolve(DeviceParams(**lossless())),
    }


@pytest.mark.parametrize("run", list(_walked_runs()))
def test_memory_guard_bounds_the_peak_of_a_walked_run(monkeypatch, run):
    # the guard counts the slice of states and the step map's powers next to
    # the stage maps: a 201-sample lossy chevron with a readout, a lossless
    # counter-rotating evolve on the 81-state full space (complex U), and runs
    # whose samples dominate: one chevron column of 200,001 τ values and
    # rotating-wave 3^4 runs of 100,001 samples of four observables, lossy on
    # vec(ρ) and lossless on U. Their readings are held once, in the layout
    # returned, and the trace is checked slice by slice, so no second copy of
    # them and no temporary of their size lifts the peak past the count
    counted = []
    real = dynamics.require_memory
    monkeypatch.setattr(dynamics, "require_memory", lambda need, what: (
        counted.append(need), real(need, what)))
    call = _walked_runs()[run]
    call()  # builds and caches the device model
    counted.clear()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0]


def test_lossy_maps_are_exponentiated_on_the_reachable_entries(monkeypatch):
    shapes = []
    real = _expm
    monkeypatch.setattr(dynamics, "_expm", lambda a: shapes.append(a.shape) or real(a))
    offsets, taus = np.array([-3.0, 0.0, 3.0]), np.linspace(0.0, 100.0, 11)
    # lossy chevron: qubit 2's population feeds the 16 one-excitation entries
    # and, by relaxation, the ground population
    vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, offsets, taus, 200.0)
    assert shapes[-1] == (3, 17, 17) and all(s[-2:] == (17, 17) for s in shapes)
    # lossless chevron, with a readout delay or without: nothing feeds the
    # ground population, and every batch of columns runs on vec(ρ)
    for readout in (200.0, None):
        shapes.clear()
        vacuum_rabi_chevron(DeviceParams(**lossless()), BIAS, 4.60, offsets, taus, readout)
        assert shapes[-1] == (3, 16, 16) and all(s[-2:] == (16, 16) for s in shapes)
    # a lossless evolve keeps U on its 5-state block
    shapes.clear()
    sched = PulseSchedule([Stage(0.5, BIAS, prep="pi_q2"), Stage(2.0, OperatingPoint(4.601, 4.60))])
    evolve(DeviceParams(**lossless()), sched, DensityState.ground(SPACE3), SPACE3,
           {"n_q1": number_operator(SPACE3, 2)}, n_samples=21,
           include_counter_rotating=False, frame_ghz=4.60)
    assert shapes and all(s == (5, 5) for s in shapes)
    # an evolve_lossy-shaped run: 3^4, ground state, a pi-prep of qubit 2
    shapes.clear()
    evolve(DeviceParams(), sched, DensityState.ground(SPACE3), SPACE3,
           {"n_q1": number_operator(SPACE3, 2)}, n_samples=21,
           include_counter_rotating=False, frame_ghz=4.60)
    assert shapes and all(s == (17, 17) for s in shapes)


def test_reachable_closes_the_support_under_every_map():
    # 0 -> 1 -> 2 by the first two maps, 3 -> 0 by the third: from entry 0
    # only 0, 1 and 2 are reachable; entry 3 feeds them but nothing feeds it
    a = np.zeros((3, 4, 4))
    a[0, 1, 0] = a[1, 2, 1] = a[2, 0, 3] = 1.0
    vec0 = np.array([1.0, 0, 0, 0])
    assert _reachable(vec0, a).tolist() == [True, True, True, False]
    assert _reachable(vec0, a[2]).tolist() == [True, False, False, False]
    assert _reachable(vec0, np.zeros((0, 4, 4))).tolist() == [True, False, False, False]
    assert _reachable(np.array([0, 0, 0, 1j]), a).all()


def test_chevron_refuses_a_step_stack_over_the_limit_before_building(monkeypatch):
    # the core's one guard counts at least the exponential of a real map on
    # the 25 entries of vec(ρ) of the 5-state block per column: one column
    # more than fits is refused before any block Hamiltonian is built, with
    # nothing per column held but its row of the frequency table
    built = []
    monkeypatch.setattr(DeviceModel, "block", lambda *a: built.append(a))
    columns = errors.MEMORY_LIMIT // _expm_bytes(25, 8) + 1
    offsets = np.linspace(-20.0, 20.0, columns)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=rf"^201 samples of {columns} evolution\(s\) on a "
                                              r"5-state evolution block needs \d+ MiB"):
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
    assert abs(purity(final.rho) - 1.0) < 1e-8
    final.validate()
    # counter-rotating terms moved excitation number, so the full space ran
    assert np.abs(ts.expectations["n_tot"][1:] - 1.0).max() > 1e-6


def test_lossless_evolution_matches_generator_exponential():
    p = DeviceParams(**lossless())
    point = OperatingPoint(4.60, 4.62)
    duration = 37.0
    init = DensityState.single_excitation(SPACE2, 3)
    ts = evolve(p, PulseSchedule([Stage(duration, point)]), init, SPACE2, {}, n_samples=2)
    h = device_model(p, SPACE2, True).block(np.arange(SPACE2.size)).stack(
        np.array([point.qubit_freq_1]), np.array([point.qubit_freq_2]))[0]
    stage_map = _expm(duration * _superoperator(h, []))
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
    h = device_model(p, SPACE3, True).block(np.arange(SPACE3.size)).stack(
        np.array([point.qubit_freq_1]), np.array([point.qubit_freq_2]))[0]
    for t, reading in zip(ts.times_ns, ts.expectations["n_q1"]):
        u = eigenbasis_propagator(h, t)
        rho = u @ init.rho @ u.conj().T
        assert abs(reading - np.trace(n_q1 @ rho).real) <= 1e-9
    assert np.abs(ts.final_state.rho - rho).max() <= 1e-9
    assert abs(purity(ts.final_state.rho) - 1.0) <= 1e-9


def test_expm_byte_estimate():
    # a lossy 81-state block needs a 6561 x 6561 generator: refused;
    # 16 states (a 256 x 256 generator) fit
    assert _expm_bytes(81**2) == 12 * 16 * 81**4 > MEMORY_LIMIT
    assert _expm_bytes(16**2) < MEMORY_LIMIT
    # the estimate bounds what exponentiating a generator really takes
    h = np.diag(np.arange(12.0))
    tracemalloc.start()
    try:
        _expm(_superoperator(h, [np.eye(12)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _expm_bytes(144) / 2 < peak <= _expm_bytes(144)
    # a stack of m generators peaks at m times one
    for m in (1, 4, 9):
        stack = _superoperator(np.arange(m)[:, None, None] * np.diag(np.arange(6.0)), [np.eye(6)])
        tracemalloc.start()
        try:
            _expm(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m * _expm_bytes(36) / 2 < peak <= m * _expm_bytes(36)


@settings(max_examples=30, deadline=None)
@given(coupling_draws, st.booleans(), st.booleans(),
       st.lists(st.tuples(st.floats(4.55, 4.65), st.floats(4.55, 4.65)), min_size=1, max_size=3),
       st.booleans())
def test_superoperator_matches_the_term_by_term_lindblad_reference(
    couplings, lossy, counter_rotating, freqs, stacked
):
    # −i(H̃⊗1 − 1⊗H̃*) + Σ L⊗L̄ with H̃ = H − (i/2)ΣL†L equals the commutator
    # plus the dissipator built term by term, for a stack of device
    # Hamiltonians or one, with the device's collapse operators or none
    p = DeviceParams(**couplings) if lossy else DeviceParams(**lossless(**couplings))
    hs = device_model(p, SPACE2, counter_rotating).block(np.arange(SPACE2.size)).stack(
        *np.array(freqs, dtype=float).T)
    h = hs if stacked else hs[0]
    collapse = collapse_operators(p, SPACE2)
    assert bool(collapse) == lossy
    built = _superoperator(h, collapse)
    expected = lindblad_superoperator(h, collapse)
    assert built.shape == expected.shape
    assert np.abs(built - expected).max() <= 1e-14 * np.abs(expected).max()


def test_stacked_superoperator_and_expm_equal_each_member_alone():
    # members scaled so that they need from 0 to 7 squarings
    rng = np.random.default_rng(3)
    n = 5
    h = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    h = h + np.swapaxes(h, 1, 2).conj()  # Hermitian, not symmetric: Hᵀ != H
    collapse = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                rng.standard_normal((n, n))]
    # each member of the stack is the member built alone, bit for bit, and
    # the term-by-term Kronecker reference to rounding
    stack = _superoperator(h, collapse)
    expected = lindblad_superoperator(h, collapse)
    for hk, sk, ek in zip(h, stack, expected):
        assert np.array_equal(sk, _superoperator(hk, collapse))
        assert np.abs(sk - ek).max() <= 1e-14 * np.abs(ek).max()
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
# two_level_transfer, the closed-form oracle of the tests


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
    lines = chev.to_csv().decode().splitlines()
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
    assert chev.to_csv().decode() == "".join(lines)


def test_chevron_csv_formats_edge_values_as_f_strings():
    # each cell's text is f"{p:.9f}" also at signed zero, below the last
    # digit, next to 9th-decimal rounding ties, just above 1 and at or just below 0
    ties = np.array([(k + 0.5) / 1e9 for k in (0, 1, 7, 123456789, 499999999, 999999998)])
    edge = np.concatenate([[0.0, 1.0, -0.0, 1e-10, 5e-10, 1 - 5e-10], ties,
                           np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
    taus = np.linspace(0.0, 0.3, edge.size)
    # cells in (1, 1 + 1e-6] and in [-1e-6, -0.0], and a row mixing them with unsigned ones
    over_one = np.array([np.nextafter(1.0, 2.0), 1 + 5e-10, 1 + 3e-7,
                         np.nextafter(1 + 1e-6, 1.0), 1 + 1e-6])
    under_zero = np.array([-0.0, -5e-324, -1e-300, -4.9e-10, -5e-10, -5.1e-10, -3e-7, -1e-6])
    mixed = np.random.default_rng(11).permutation(
        np.concatenate([over_one, under_zero, [0.0, 0.25, 1.0, 5e-10]]))
    # (k + ½)/1e9 and 1-3 ulps either side of it, over the whole of [0, 1]
    half = (np.linspace(0, 999_999_999, 1001).round() + 0.5) / 1e9
    near = [half]
    for toward in (0.0, 2.0):
        step = half
        for _ in range(3):
            step = np.nextafter(step, toward)
            near.append(step)
    maps = [
        ChevronMap(np.array([-0.0, 2.5e-7, 123.456789012]), taus,
                   np.stack([edge, edge[::-1], np.roll(edge, 5)])),
        ChevronMap(np.array([-1.0, 0.0, 1.0]), np.linspace(0.0, 15.0, mixed.size),
                   np.stack([np.resize(over_one, mixed.size), np.resize(under_zero, mixed.size),
                             mixed])),
        ChevronMap(np.linspace(-3.0, 3.0, 7), np.linspace(0.0, 1000.0, 1001),
                   np.stack(near)),
        ChevronMap(np.linspace(-20.0, 20.0, 41), np.linspace(0.0, 2000.0, 201),
                   np.random.default_rng(4).random((41, 201))),
    ]
    for chev in maps:
        expected = "detuning_mhz,tau_ns,p1\n" + "".join(
            f"{d:.9g},{t:.9g},{p:.9f}\n"
            for d, row in zip(chev.detunings_mhz, chev.p1)
            for t, p in zip(chev.taus_ns, row.tolist()))
        assert chev.to_csv().decode() == expected
    assert "-0,0,0.000000000\n" in maps[0].to_csv().decode()
    assert "-0.000000000" in maps[0].to_csv().decode()
    assert "-0.000001000" in maps[1].to_csv().decode()


def test_chevron_csv_peaks_within_its_count_and_is_refused_before_allocating(monkeypatch):
    # the widest lines: nine significant digits in every detuning and τ value
    detunings = np.linspace(-1.23456789e-5, -1.13456789e-5, 41)
    taus = np.linspace(0.0, 1234.56789, 2001) + 1e-7
    chev = ChevronMap(detunings, taus, np.random.default_rng(5).random((41, 2001)) * 1e-3)
    tracemalloc.start()
    try:
        text = chev.to_csv()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 38 * chev.p1.size
    assert peak <= dynamics.CSV_CELL_BYTES * chev.p1.size
    monkeypatch.setattr(errors, "MEMORY_LIMIT", dynamics.CSV_CELL_BYTES * chev.p1.size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"the CSV of a \(41, 2001\) chevron needs"):
            chev.to_csv()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_chevron_map_of_the_wrong_shape_is_refused():
    with pytest.raises(ConfigError, match="wrong shape"):
        ChevronMap(np.zeros(3), np.linspace(0.0, 10.0, 5), np.zeros((5, 3)))


@pytest.mark.parametrize("cell", [None, (1, 2), (0, 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_chevron_map_of_a_non_finite_population_is_refused(cell, value):
    # NaN fails both range comparisons; every cell is checked where the map is built
    p1 = np.full((2, 3), value) if cell is None else np.full((2, 3), 0.5)
    if cell is not None:
        p1[cell] = value
    with pytest.raises(ConfigError, match="chevron population must be finite"):
        ChevronMap(np.zeros(2), np.linspace(0.0, 10.0, 3), p1)


@pytest.mark.parametrize("offsets, taus, readout, message", [
    ([0.0], [0.0], None, "at least 2 interaction times"),
    ([], [0.0, 1.0, 2.0], None, "need at least one detuning offset"),
    ([0.0], [0.0, 5.0, 10.0], 9.99, "prep-to-readout interval 9.99 ns shorter than the "
                                    "longest interaction time 10.0 ns"),
])
def test_chevron_refuses_unusable_grids(offsets, taus, readout, message):
    with pytest.raises(ConfigError, match=message):
        vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array(offsets, dtype=float),
                            np.array(taus), readout)


def test_chevron_readout_at_the_last_tau_within_the_grid_tolerance_runs():
    chev = vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array([0.0]),
                               np.linspace(0.0, 10.0, 3), 10.0 - 0.5 * dynamics.GRID_TOL_NS)
    assert chev.p1.shape == (1, 3)


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


def test_chevron_checks_the_raw_populations_before_clipping(monkeypatch):
    # a cell reading 1.2 with its trace intact comes from broken numerics:
    # it raises, where clipping first would have hidden it; rounding just
    # outside [0, 1] is clipped
    real = dynamics._propagate
    cell = {}

    def propagate(*args, **kwargs):
        times, readings, final = real(*args, **kwargs)
        readings[1, 1, 3] = cell["value"]
        return times, readings, final

    monkeypatch.setattr(dynamics, "_propagate", propagate)
    taus = np.linspace(0.0, 100.0, 11)
    cell["value"] = 1.2
    with pytest.raises(IntegrationError, match=r"population outside \[0, 1\]"):
        vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array([-3.0, 0.0, 3.0]), taus)
    cell["value"] = 1.0 + 1e-9
    chev = vacuum_rabi_chevron(DeviceParams(), BIAS, 4.60, np.array([-3.0, 0.0, 3.0]), taus)
    assert chev.p1[1, 3] == 1.0 and chev.p1.flags.c_contiguous


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

