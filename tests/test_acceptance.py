"""Acceptance suite: one test per criterion, one printed verdict line each.

Verdict lines are echoed in a terminal summary section so they appear
even under pytest's output capture.

Criterion 1 checks what the second-order dispersive formula promises: at
full coupling it is outside its validity across the 4.52-4.76 GHz window
(g/|Delta| up to 0.75), so the test scales the couplings down and asserts
that the residual against exact diagonalization is of fourth order.

Criterion 3 fails honestly. The three resonator anti-crossings match the
paper, but the exact qubit-qubit gap at 4.58 GHz, 49 MHz below the
switch-off, is 5.7 MHz where the paper's ">5 MHz after about 50 MHz"
(g = half the gap) asks for 10 MHz. Exact diagonalization is converged
and right for the modelled Hamiltonian; the modelled device misses the
coupling the paper reports, most likely through a parameter the package
does not know, such as the unmeasured resonator-resonator coupling g_ab.
The dispersive formula is not the cause. The printed line carries the
measured numbers.
"""

import hashlib
import json
import math
import sys
import time

import numpy as np
import pytest

from dresq.fock import HilbertSpace, number_operator
from dresq.device import (
    DeviceParams,
    OperatingPoint,
    effective_coupling,
    find_switch_off,
)
from dresq.spectroscopy import (
    cotuned_half_gap,
    qubit_qubit_gap,
    qubit_resonator_gap,
)
from dresq.dynamics import (
    DensityState,
    PulseSchedule,
    Stage,
    vacuum_rabi_chevron,
    evolve,
)
from dresq.fitting import TimeTrace, fit_damped_cosine, fit_exp_decay, geff_from_chevron
from dresq.cli import main as cli_main
from oracles import purity

SPACE = HilbertSpace((3, 3, 3, 3))
BIAS = OperatingPoint(4.637, 4.691)


def report(criterion: int, ok: bool, detail: str) -> None:
    from conftest import record_verdict

    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    record_verdict(line)


def synthetic_device(g_mhz, **kw):
    return DeviceParams(g_a1=0, g_a2=0, g_b1=0, g_b2=0, g_ab=0, g_12=g_mhz * 1e-3, **kw)


def lossless(**kw):
    inf = float("inf")
    return dict(t1_qubit1=inf, t1_qubit2=inf, t2_qubit1=inf, t2_qubit2=inf) | kw


def test_criterion_1_analytic_vs_exact_gap():
    """Analytic coupling vs. half the exact co-tuned splitting, 50 points.

    The dispersive formula is second order in the couplings, so its
    residual d = half gap - |g_eff| must be of fourth order. Scaling the
    qubit-resonator couplings by s and g_12 by s^2 makes every term of
    g_eff O(s^2); going from s = 1/2 to s = 1/4 then cuts |d| about
    16-fold, while a wrong second-order term leaves an O(s^2) residual
    that shrinks only about 4-fold. The check asks for at least 8, the
    geometric midpoint. s = 1 is left out: at the band edges the
    full-coupling series is not yet asymptotic.
    """
    p = DeviceParams()
    start = time.time()
    freqs = np.linspace(4.52, 4.76, 50)

    def scaled(s):
        return p.replace(
            g_a1=s * p.g_a1, g_a2=s * p.g_a2, g_b1=s * p.g_b1, g_b2=s * p.g_b2,
            g_12=s * s * p.g_12,
        )

    def residual(params, f):
        half_gap = cotuned_half_gap(params, [f], SPACE)[0]
        analytic = abs(effective_coupling(params, OperatingPoint(f, f))) * 1e3
        return half_gap - analytic

    half, quarter = scaled(0.5), scaled(0.25)
    violations = 0
    ratios = []
    for f in freqs:
        d_half = abs(residual(half, f))
        d_quarter = abs(residual(quarter, f))
        if d_quarter > max(d_half / 8.0, 1e-6):
            violations += 1
        ratios.append(d_half / d_quarter if d_quarter > 0 else math.inf)
    elapsed = time.time() - start
    worst = int(np.argmin(ratios))
    ok = violations == 0 and elapsed < 30.0
    report(
        1, ok,
        f"{violations}/50 points where halving the couplings (s = 1/2 to 1/4) "
        f"cuts the residual less than 8-fold; ratio d(1/2)/d(1/4) {min(ratios):.1f} to "
        f"{max(ratios):.1f} (fourth order: 16, second order: 4); worst "
        f"{ratios[worst]:.1f} at {freqs[worst]:.3f} GHz; runtime {elapsed:.1f} s",
    )
    assert elapsed < 30.0
    assert violations == 0


def test_criterion_2_switch_off_location():
    p = DeviceParams()
    root = find_switch_off(p, (4.50, 4.77))
    gap_mhz = 2.0 * cotuned_half_gap(p, [root], SPACE)[0]
    ok = 4.60 <= root <= 4.66 and gap_mhz < 0.5
    report(2, ok, f"switch-off at {root:.4f} GHz, exact gap there {gap_mhz:.3f} MHz")
    assert 4.60 <= root <= 4.66
    assert gap_mhz < 0.5


def test_criterion_3_anti_crossing_magnitudes():
    p = DeviceParams()
    pairs = (("q1-a", 1, "a", 54.0), ("q2-a", 2, "a", 54.0), ("q2-b", 2, "b", 60.0))
    details = []
    res_ok = True
    for name, qubit, resonator, expect in pairs:
        gap = qubit_resonator_gap(p, qubit, resonator, SPACE).gap_mhz
        rel = abs(gap - expect) / expect
        res_ok &= rel <= 0.02
        details.append(f"{name} {gap:.2f} MHz ({rel * 100:.1f}% from {expect:.0f})")
    qq = qubit_qubit_gap(p, 4.58, space=SPACE).gap_mhz
    qq_ok = abs(qq - 10.0) <= 3.0
    ok = res_ok and qq_ok
    report(
        3, ok,
        "; ".join(details) + f"; qubit-qubit gap at 4.58 GHz {qq:.2f} MHz "
        "vs 10 MHz +/- 30% (exact diagonalization gives less than the "
        "reported value at these couplings)",
    )
    assert res_ok
    assert qq_ok


def test_criterion_4_dynamics_vs_closed_form():
    # clause 1: on-resonance oscillation period vs 1 / (2 g_eff)
    p = DeviceParams(**lossless())
    g_eff = effective_coupling(p, OperatingPoint(4.60, 4.60)) * 1e3  # MHz
    taus = np.linspace(0, 2000, 401)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([0.0]), taus)
    fit = fit_damped_cosine(TimeTrace(taus, chev.p1[0]))
    period_ns = 1.0 / fit.estimates["frequency_per_ns"]
    expected_ns = 1.0 / (2.0 * g_eff * 1e-3)
    period_rel = abs(period_ns - expected_ns) / expected_ns

    # clause 2: detuned peak populations on a clean exchange device
    g = 3.0
    ps = synthetic_device(g, **lossless())
    peak_errs = []
    for mult in (1, 2, 4):
        delta = mult * g
        f_osc = math.sqrt(4 * g * g + delta * delta) * 1e-3  # 1/ns
        t_peak = 1.0 / (2.0 * f_osc)
        c = vacuum_rabi_chevron(ps, BIAS, 4.60, np.array([delta]), np.array([0.0, t_peak]))
        expected = 4 * g * g / (delta * delta + 4 * g * g)
        peak_errs.append(abs(c.p1[0, 1] - expected))
    ok = period_rel <= 0.05 and max(peak_errs) <= 1e-3
    report(
        4, ok,
        f"on-resonance period off by {period_rel * 100:.2f}% (limit 5%); "
        f"peak-population error at detuning {{g, 2g, 4g}} up to {max(peak_errs):.2e} "
        "(limit 1e-3)",
    )
    assert period_rel <= 0.05
    assert max(peak_errs) <= 1e-3


def test_criterion_5_open_system_sanity():
    space = HilbertSpace((2, 2, 2, 2))
    inf = float("inf")

    # trace and positivity through a dissipative evolution
    p = DeviceParams()
    sched = PulseSchedule([Stage(300.0, OperatingPoint(4.60, 4.60))])
    init = DensityState.single_excitation(space, 3)
    ts = evolve(
        p, sched, init, space, {"n_q1": number_operator(space, 2)},
        n_samples=7, include_counter_rotating=False, frame_ghz=4.60,
    )
    trace_dev = abs(ts.final_state.rho.trace().real - 1.0)
    min_eig = float(np.linalg.eigvalsh(ts.final_state.rho).min())

    # purity in the unitary limit
    p_unitary = DeviceParams(t1_qubit1=inf, t1_qubit2=inf, t2_qubit1=inf, t2_qubit2=inf)
    ts_u = evolve(
        p_unitary, sched, DensityState.single_excitation(space, 3), space,
        {"n_q1": number_operator(space, 2)},
        n_samples=7, include_counter_rotating=False, frame_ghz=4.60,
    )
    purity_dev = abs(purity(ts_u.final_state.rho) - 1.0)

    # decoupled excited qubit decays exp(-t / T1), checked at t = T1
    p_decay = DeviceParams(g_a1=0, g_a2=0, g_b1=0, g_b2=0, g_12=0)
    sched_t1 = PulseSchedule([Stage(10000.0, OperatingPoint(4.60, 4.70))])
    ts_d = evolve(
        p_decay, sched_t1, DensityState.single_excitation(space, 3), space,
        {"n_q2": number_operator(space, 3)}, n_samples=11,
    )
    decay_dev = abs(ts_d.expectations["n_q2"][-1] - math.exp(-1.0))

    ok = trace_dev < 1e-8 and min_eig >= -1e-8 and purity_dev < 1e-8 and decay_dev < 1e-6
    report(
        5, ok,
        f"trace drift {trace_dev:.1e} (<1e-8); min eigenvalue {min_eig:.1e} "
        f"(>=-1e-8); unitary purity drift {purity_dev:.1e} (<1e-8); "
        f"T1-decay error {decay_dev:.1e} (<1e-6)",
    )
    assert trace_dev < 1e-8
    assert min_eig >= -1e-8
    assert purity_dev < 1e-8
    assert decay_dev < 1e-6


def test_criterion_6_damped_envelope():
    # T2 equal to the swap time: the resonant peak approximates exp(-1)
    g = 3.0  # MHz
    t_swap_ns = 1.0 / (4.0 * g * 1e-3)
    t2_us = t_swap_ns * 1e-3
    p = synthetic_device(g, t1_qubit1=t2_us, t1_qubit2=t2_us,
                         t2_qubit1=t2_us, t2_qubit2=t2_us)
    taus = np.linspace(0, 200, 401)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([0.0]), taus)
    peak = float(chev.p1.max())
    target = math.exp(-t_swap_ns / (t2_us * 1e3))  # exp(-1)
    rel = abs(peak - target) / target
    ok = rel <= 0.15
    report(
        6, ok,
        f"peak population {peak:.4f} vs exp(-T_swap/T2) = {target:.4f}, "
        f"off by {rel * 100:.1f}% (limit 15%)",
    )
    assert rel <= 0.15


def test_criterion_7_estimator_loop_closure():
    taus = np.linspace(0, 2000, 201)
    offsets = np.linspace(-20, 20, 41)
    details = []
    ok = True
    for g in (2.0, 3.0, 5.0):
        p = synthetic_device(g)
        chev = vacuum_rabi_chevron(p, BIAS, 4.60, offsets, taus)
        est = geff_from_chevron(chev)
        rel = abs(est.g_mhz - g) / g if est.g_mhz else math.inf
        ok &= not est.below_floor and rel <= 0.10
        details.append(f"g={g:g}: {est.g_mhz:.3f} MHz ({rel * 100:.1f}%)")
    p = DeviceParams()
    root = find_switch_off(p, (4.50, 4.77))
    est_off = geff_from_chevron(vacuum_rabi_chevron(p, BIAS, root, offsets, taus))
    ok &= est_off.below_floor
    report(
        7, ok,
        "; ".join(details)
        + f"; switch-off verdict below_floor={est_off.below_floor} "
        f"(floor {est_off.floor_mhz:.2f} MHz)",
    )
    assert ok


def test_criterion_8_fit_round_trips():
    rng = np.random.default_rng(42)
    exp_ok = 0
    for _ in range(100):
        t = np.linspace(0, 50000, 1000)
        y = np.exp(-t / 10000.0) + rng.normal(0, 0.05, t.size)
        out = fit_exp_decay(TimeTrace(t, y))
        if abs(out.estimates["decay_time_ns"] - 10000.0) / 10000.0 < 0.05:
            exp_ok += 1
    cos_ok = 0
    for _ in range(100):
        t = np.linspace(0, 1000, 200)
        y = (0.5 * np.exp(-t / 1000.0) * np.cos(2 * math.pi * 0.006 * t + 0.3)
             + 0.2 + rng.normal(0, 0.025, t.size))
        out = fit_damped_cosine(TimeTrace(t, y))
        if abs(out.estimates["frequency_per_ns"] - 0.006) / 0.006 < 0.02:
            cos_ok += 1
    ok = exp_ok >= 95 and cos_ok >= 95
    report(8, ok, f"exp-decay {exp_ok}/100, damped-cosine {cos_ok}/100 recoveries (need 95)")
    assert exp_ok >= 95
    assert cos_ok >= 95


def test_criterion_9_determinism(tmp_path):
    args = ["chevron", "--target", "4.60", "--tau-max", "800", "--tau-points", "81",
            "--span-mhz", "12", "--detuning-points", "13"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "chevron.csv").read_bytes()
    b2 = (out2 / "chevron.csv").read_bytes()
    same = b1 == b2
    report(
        9, same,
        f"repeated chevron runs: CSV sha256 {hashlib.sha256(b1).hexdigest()[:12]} "
        f"{'==' if same else '!='} {hashlib.sha256(b2).hexdigest()[:12]}",
    )
    assert same
