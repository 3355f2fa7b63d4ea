import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dresq import errors, fitting
from dresq.errors import ConfigError, FitError
from dresq.device import DeviceParams, OperatingPoint
from dresq.dynamics import ChevronMap, vacuum_rabi_chevron
from dresq.fitting import (
    FIT_FIXED_BYTES,
    FIT_SAMPLE_BYTES,
    MIN_POINTS,
    ChevronCouplingFit,
    TimeTrace,
    fit_damped_cosine,
    fit_exp_decay,
    geff_from_chevron,
    _solve_each,
)

BIAS = OperatingPoint(4.637, 4.691)


def synthetic_device(g_mhz, **kw):
    return DeviceParams(g_a1=0, g_a2=0, g_b1=0, g_b2=0, g_ab=0, g_12=g_mhz * 1e-3, **kw)


def lossless(**kw):
    inf = float("inf")
    return dict(t1_qubit1=inf, t1_qubit2=inf, t2_qubit1=inf, t2_qubit2=inf) | kw


# ---------------------------------------------------------------------------
# TimeTrace


def test_trace_validation():
    with pytest.raises(ConfigError):
        TimeTrace(np.arange(4), np.arange(4))  # too few points
    with pytest.raises(ConfigError):
        TimeTrace(np.array([0, 1, 1, 2, 3, 4, 5, 6]), np.zeros(8))  # not ascending
    with pytest.raises(ConfigError):
        TimeTrace(np.arange(8), np.zeros(9))


def test_trace_csv_round_trip():
    t = np.linspace(0, 10, 11)
    y = np.sin(t)
    csv = "time_ns,value\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y))
    trace = TimeTrace.from_csv(csv)
    assert np.allclose(trace.times_ns, t)
    assert np.allclose(trace.values, y)
    assert trace.uncertainty is None


finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=MIN_POINTS, max_size=40, unique=True), st.data(),
       st.booleans(), st.booleans())
def test_trace_csv_round_trip_property(times, data, header, with_sigma):
    n = len(times)
    cols = [sorted(times), data.draw(st.lists(finite, min_size=n, max_size=n))]
    if with_sigma:
        cols.append(data.draw(st.lists(st.floats(1e-9, 1e6), min_size=n, max_size=n)))
    rows = [",".join(repr(c[i]) for c in cols) for i in range(n)]
    if header:
        rows.insert(0, "time_ns,value,sigma" if with_sigma else "time_ns,value")
    trace = TimeTrace.from_csv("\n".join(rows) + "\n")
    assert trace.times_ns.tolist() == cols[0]
    assert trace.values.tolist() == cols[1]
    assert (trace.uncertainty is not None) == with_sigma
    if with_sigma:
        assert trace.uncertainty.tolist() == cols[2]


def test_trace_csv_with_uncertainty_and_no_header():
    csv = "\n".join(f"{i},{i * 0.1},{0.01}" for i in range(10))
    trace = TimeTrace.from_csv(csv)
    assert trace.uncertainty is not None
    assert np.all(trace.uncertainty == 0.01)


@pytest.mark.parametrize("column", ["times", "values", "uncertainty"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trace_rejects_non_finite(column, bad):
    cols = {"times": np.arange(10.0), "values": np.zeros(10), "uncertainty": np.ones(10)}
    cols[column][4] = bad
    with pytest.raises(ConfigError, match="finite"):
        TimeTrace(cols["times"], cols["values"], cols["uncertainty"])


def _signal(model, t):
    if model is fit_exp_decay:
        return np.exp(-t / 5.0)
    return np.exp(-t / 50.0) * np.cos(2 * math.pi * 0.1 * t)


@pytest.mark.parametrize("model", [fit_exp_decay, fit_damped_cosine])
@pytest.mark.parametrize("scale, sigma", [(1e300, None), (1e101, None), (1.0, 1e-101)])
def test_trace_refuses_values_the_fits_cannot_square(model, scale, sigma):
    # |value| / σ above 1e100 is refused before any fit squares it
    t = np.arange(40.0)
    u = None if sigma is None else np.full(t.size, sigma)
    with pytest.raises(ConfigError, match="uncertainty"):
        model(TimeTrace(t, scale * _signal(model, t), u))


@pytest.mark.parametrize("model", [fit_exp_decay, fit_damped_cosine])
@pytest.mark.parametrize("scale, sigma", [(1e99, None), (1.0, 1e-99)])
def test_fits_stay_finite_just_below_the_value_bound(model, scale, sigma):
    t = np.arange(40.0)
    u = None if sigma is None else np.full(t.size, sigma)
    out = model(TimeTrace(t, scale * _signal(model, t), u))
    assert out.converged and math.isfinite(out.residual_rms)
    assert all(math.isfinite(v) for v in out.estimates.values())


def test_trace_csv_first_row_is_data_when_it_parses():
    # an exponent letter is no header: every one of the 50 rows is data
    t = np.linspace(0.0, 49.0, 50)
    csv = "\n".join(f"{a:g},{b:.3e}" for a, b in zip(t, np.cos(t)))
    assert csv.startswith("0,1.000e+00\n")
    trace = TimeTrace.from_csv(csv)
    assert trace.times_ns.size == 50
    assert trace.values[0] == 1.0
    assert TimeTrace.from_csv("time_ns,value\n" + csv).times_ns.size == 50
    with pytest.raises(ConfigError, match="line 1"):
        TimeTrace.from_csv("time_ns,1.0\n" + csv)


@pytest.mark.parametrize("header, sigma", [
    ("time_ns", ""), ("time_ns,value,uncertainty", ""), ("time_ns,value", ",0.1"),
    ("time,value,sigma,extra", ",0.1"),
])
def test_trace_csv_refuses_a_header_of_another_width_than_its_rows(header, sigma):
    rows = "".join(f"{k},{0.5 * k}{sigma}\n" for k in range(10))
    width = 3 if sigma else 2
    with pytest.raises(ConfigError, match=rf"header has {header.count(',') + 1} field\(s\) "
                                          rf"over rows of {width}"):
        TimeTrace.from_csv(f"{header}\n{rows}")
    with_header = TimeTrace.from_csv(f"{'time_ns,value,sigma' if sigma else 'time_ns,value'}\n"
                                     + rows)
    assert with_header.times_ns.size == 10
    assert (with_header.uncertainty is None) == (not sigma)


def test_trace_csv_malformed():
    with pytest.raises(ConfigError):
        TimeTrace.from_csv("time,value\n1,2,3,4\n")
    with pytest.raises(ConfigError):
        TimeTrace.from_csv("")


# ---------------------------------------------------------------------------
# exponential decay


def test_exp_decay_clean_round_trip():
    t = np.linspace(0, 30000, 120)
    y = 1.0 * np.exp(-t / 10000.0)
    out = fit_exp_decay(TimeTrace(t, y))
    assert out.estimates["decay_time_ns"] == pytest.approx(10000.0, rel=1e-3)
    assert out.estimates["amplitude"] == pytest.approx(1.0, rel=1e-6)
    assert out.estimates["offset"] == pytest.approx(0.0, abs=1e-6)
    assert out.converged


def test_exp_decay_noisy_recovery():
    rng = np.random.default_rng(11)
    t = np.linspace(0, 50000, 1000)
    y = np.exp(-t / 10000.0) + rng.normal(0, 0.05, t.size)
    out = fit_exp_decay(TimeTrace(t, y))
    assert out.estimates["decay_time_ns"] == pytest.approx(10000.0, rel=0.05)


def test_exp_decay_seeded_noise_ensemble():
    rng = np.random.default_rng(42)
    successes = 0
    for _ in range(100):
        t = np.linspace(0, 50000, 1000)
        y = np.exp(-t / 10000.0) + rng.normal(0, 0.05, t.size)
        out = fit_exp_decay(TimeTrace(t, y))
        if abs(out.estimates["decay_time_ns"] - 10000.0) / 10000.0 < 0.05:
            successes += 1
    assert successes >= 95


def test_exp_decay_constant_trace_rejected():
    t = np.linspace(0, 100, 20)
    with pytest.raises(FitError, match="no decay"):
        fit_exp_decay(TimeTrace(t, np.full(20, 0.7)))


def test_exp_decay_sigmas_nonnegative():
    rng = np.random.default_rng(5)
    t = np.linspace(0, 30000, 200)
    y = np.exp(-t / 10000.0) + rng.normal(0, 0.02, t.size)
    out = fit_exp_decay(TimeTrace(t, y))
    assert all(s >= 0 for s in out.sigmas.values())


# ---------------------------------------------------------------------------
# damped cosine


def test_damped_cosine_clean_round_trip():
    t = np.linspace(0, 1000, 200)
    y = 0.5 * np.exp(-t / 1000.0) * np.cos(2 * math.pi * 0.006 * t + 0.3) + 0.2
    out = fit_damped_cosine(TimeTrace(t, y))
    assert out.estimates["frequency_per_ns"] == pytest.approx(0.006, rel=0.005)
    assert out.estimates["decay_time_ns"] == pytest.approx(1000.0, rel=0.01)
    assert out.estimates["phase_rad"] == pytest.approx(0.3, abs=0.01)


def test_damped_cosine_seeded_noise_ensemble():
    rng = np.random.default_rng(42)
    successes = 0
    for _ in range(100):
        t = np.linspace(0, 1000, 200)
        y = (0.5 * np.exp(-t / 1000.0) * np.cos(2 * math.pi * 0.006 * t + 0.3)
             + 0.2 + rng.normal(0, 0.025, t.size))
        out = fit_damped_cosine(TimeTrace(t, y))
        if abs(out.estimates["frequency_per_ns"] - 0.006) / 0.006 < 0.02:
            successes += 1
    assert successes >= 95


def test_damped_cosine_rejects_non_uniform_times():
    rng = np.random.default_rng(11)
    t = np.sort(rng.uniform(0.0, 1000.0, 80))
    y = np.cos(2 * math.pi * 0.01 * t)
    with pytest.raises(ConfigError, match="uniformly spaced"):
        fit_damped_cosine(TimeTrace(t, y))
    # a linspace grid, shifted or not, stays within the tolerance
    t = np.linspace(0.0, 2000.0, 201)
    y = np.cos(2 * math.pi * 0.004 * t)
    for shift in (0.0, 123.0, 1e5):
        out = fit_damped_cosine(TimeTrace(t + shift, y))
        assert out.estimates["frequency_per_ns"] == pytest.approx(0.004, rel=1e-6)


def test_damped_cosine_white_noise_rejected():
    rng = np.random.default_rng(42)
    t = np.linspace(0, 1000, 200)
    with pytest.raises(FitError, match="not detected"):
        fit_damped_cosine(TimeTrace(t, rng.normal(0, 1, t.size)))


def test_damped_cosine_slow_oscillation_rejected():
    # under two periods inside the window
    t = np.linspace(0, 100, 50)
    y = np.cos(2 * math.pi * 0.001 * t)
    with pytest.raises(FitError, match="not detected"):
        fit_damped_cosine(TimeTrace(t, y))


def test_undamped_cosine_fit_converges_with_its_decay_time_at_the_clamp():
    # the envelope is flat, so log τ runs to its clamp; the clamped model no
    # longer moves with τ, which must not keep the fit from converging
    import json

    t = np.linspace(0, 1500, 151)
    out = fit_damped_cosine(TimeTrace(t, 0.45 * np.cos(2 * math.pi * 0.0063 * t) + 0.5))
    assert out.converged and out.n_iterations < 200
    assert out.estimates["frequency_per_ns"] == pytest.approx(0.0063, rel=1e-9)
    assert out.estimates["decay_time_ns"] == pytest.approx(math.exp(30.0))
    assert math.isinf(out.sigmas["decay_time_ns"])
    assert all(math.isfinite(v) for k, v in out.sigmas.items() if k != "decay_time_ns")

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out.to_json(), parse_constant=refuse)
    assert doc["sigmas"]["decay_time_ns"] is None


@pytest.mark.parametrize("n", [64, 201])
@pytest.mark.parametrize("value", [0.1, 0.25, 0.3, 0.7])
def test_damped_cosine_constant_trace_has_no_spectral_peak(value, n):
    # rounding noise in y - mean must not pass for an oscillation
    t = np.linspace(0, 1000, n)
    with pytest.raises(FitError, match="not detected: no spectral peak above the noise floor"):
        fit_damped_cosine(TimeTrace(t, np.full(n, value)))


def test_damped_cosine_runs_one_levenberg_marquardt_fit(monkeypatch):
    from dresq import fitting

    runs = []

    def counted(rj, p0):
        out = real(rj, p0)
        runs.append((len(p0), int(out[4][0])))
        return out

    real = fitting._levenberg_marquardt
    monkeypatch.setattr(fitting, "_levenberg_marquardt", counted)
    t = np.linspace(0, 1000, 200)
    y = 0.5 * np.exp(-t / 1000.0) * np.cos(2 * math.pi * 0.006 * t + 0.3) + 0.2
    out = fit_damped_cosine(TimeTrace(t, y))
    # one run of the batched core, on a batch of one
    assert len(runs) == 1 and runs[0][0] == 1
    assert out.n_iterations == runs[0][1]


# a row of a stack: (kind, frequency / Nyquist, decay time / window, amplitude,
# noise / amplitude, phase, offset, uncertainty or None)
_row = st.tuples(
    st.sampled_from(["cosine", "cosine", "cosine", "noise", "flat"]),
    st.floats(0.02, 0.98), st.floats(0.05, 20.0), st.floats(0.02, 1.0),
    st.floats(0.0, 0.6), st.floats(-3.2, 3.2), st.floats(-1.0, 1.0),
    st.one_of(st.none(), st.floats(0.01, 1.0)),
)


def _same(x, y):
    return (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-300)


@settings(max_examples=60, deadline=None)
@given(st.lists(_row, min_size=1, max_size=12), st.integers(40, 100), st.integers(0, 2**32 - 1))
# a weakly damped noisy cosine whose decay time runs to the clamp (11
# iterations), a strongly damped one (25 iterations), pure noise and a flat row
@example([("cosine", 0.45, 10.71, 0.91, 0.43, -0.6, 0.0, None),
          ("cosine", 0.47, 0.14, 0.13, 0.35, -1.8, 0.9, None),
          ("noise", 0.5, 1.0, 0.5, 0.5, 0.0, 0.0, 0.1),
          ("flat", 0.5, 1.0, 0.5, 0.0, 0.0, 0.3, None)], 80, 0)
def test_stacked_damped_cosine_fits_equal_each_row_alone(rows, n, seed):
    # each row of a lockstep batch must take the path it takes alone: the
    # masks that freeze converged rows must not leak between rows
    from dresq.fitting import _fit_damped_cosines

    t = 2.0 * np.arange(n)
    window, nyquist = t[-1], 0.25
    ys, us = [], []
    for k, (kind, f, tau, a, noise, phi, c, u) in enumerate(rows):
        rng = np.random.default_rng([seed, k])
        if kind == "cosine":
            y = a * np.exp(-t / (tau * window)) * np.cos(2 * math.pi * f * nyquist * t + phi) + c
            y += noise * a * rng.standard_normal(n)
        else:
            y = rng.standard_normal(n) if kind == "noise" else np.full(n, c)
        ys.append(y)
        us.append(np.full(n, u if u is not None else 1.0))
    stacked = _fit_damped_cosines(t, np.array(ys), 1.0 / np.array(us))
    for (*_, u), y, out in zip(rows, ys, stacked):
        try:
            alone = fit_damped_cosine(TimeTrace(t, y, None if u is None else np.full(n, u)))
        except FitError as exc:
            assert isinstance(out, FitError) and str(out) == str(exc)
            continue
        assert not isinstance(out, FitError), str(out)
        assert (out.n_iterations, out.converged) == (alone.n_iterations, alone.converged)
        for key, value in alone.estimates.items():
            assert _same(out.estimates[key], value), key
            assert _same(out.sigmas[key], alone.sigmas[key]), key


@pytest.mark.parametrize("model", ["exp", "cosine"])
@pytest.mark.parametrize("n", [40, 201])
def test_unweighted_fit_equals_the_fit_with_unit_uncertainties(model, n):
    # a trace without uncertainties multiplies no weights into its fit; the
    # weighted path with every weight 1.0 must give the same bytes
    t = np.linspace(0.0, 1000.0, n)
    noise = 0.02 * np.random.default_rng(n).standard_normal(n)
    if model == "exp":
        fit, y = fit_exp_decay, 0.6 * np.exp(-t / 300.0) + 0.1 + noise
    else:
        fit = fit_damped_cosine
        y = 0.4 * np.exp(-t / 800.0) * np.cos(2 * math.pi * 0.011 * t + 0.4) + 0.5 + noise
    unweighted = fit(TimeTrace(t, y))
    assert unweighted.to_json() == fit(TimeTrace(t, y, np.ones(n))).to_json()


@pytest.mark.parametrize("n", [8, 9, 201])
def test_periodogram_median_is_numpy_median_of_the_powers_above_0(n):
    # the noise floor is selected in place, not taken by np.median: it must
    # be np.median's value bit for bit, ties and repeated powers included
    t = np.arange(float(n))
    rng = np.random.default_rng(n)
    y = np.vstack([rng.standard_normal((3, n)), np.cos(2 * math.pi * 0.125 * t),
                   np.round(rng.standard_normal(n)), np.full(n, 0.3)])
    spec = np.abs(np.fft.rfft(y - y.mean(axis=1, keepdims=True), n=8 * n, axis=1)) ** 2
    median = fitting._periodogram_peaks(t, y)[2]
    assert median.tobytes() == np.median(spec[:, 1:], axis=1).tobytes()


def test_chevron_column_fits_in_one_batch_equal_each_column_alone():
    # at 4.593 GHz every fitted column runs 4 iterations together, the
    # batch shrinks as columns stop (some steps rejected), and one column
    # runs alone to its 12th: each must end bit for bit where it ends alone
    chev = vacuum_rabi_chevron(
        DeviceParams(), BIAS, 4.593, np.linspace(-20, 20, 41), np.linspace(0, 2000, 201),
        prep_to_readout_ns=2500.0,
    )
    batch = fitting._fit_damped_cosines(chev.taus_ns, chev.p1)
    iterations = sorted(out.n_iterations for out in batch if not isinstance(out, FitError))
    assert iterations[-1] == 12 and 4 <= iterations[0] and iterations[-2] <= 7
    for column, out in zip(chev.p1, batch):
        try:
            alone = fit_damped_cosine(TimeTrace(chev.taus_ns, column))
        except FitError as exc:
            assert isinstance(out, FitError) and str(out) == str(exc)
            continue
        # repr round-trips a float, so equal JSON is equal bits (and a sigma
        # written as null is infinite on both sides)
        assert out.to_json() == alone.to_json()
        assert out.sigmas == alone.sigmas


@pytest.mark.parametrize("offset, decay_ns", [(0.0, math.inf), (0.2, 100.0)])
def test_damped_cosine_refuses_a_peak_at_nyquist(offset, decay_ns):
    # (-1)^k: amplitude and phase cannot be told apart at the Nyquist frequency
    t = np.arange(64.0)
    y = np.exp(-t / decay_ns) * np.cos(math.pi * t) + offset
    with pytest.raises(FitError, match="cannot be resolved.*Nyquist"):
        fit_damped_cosine(TimeTrace(t, y))


def test_time_shift_changes_only_phase():
    t = np.linspace(0, 1000, 200)
    signal = lambda tt: 0.4 * np.exp(-tt / 2000.0) * np.cos(2 * math.pi * 0.008 * tt + 0.5) + 0.1
    out0 = fit_damped_cosine(TimeTrace(t, signal(t)))
    out1 = fit_damped_cosine(TimeTrace(t + 123.0, signal(t)))
    assert out1.estimates["frequency_per_ns"] == pytest.approx(
        out0.estimates["frequency_per_ns"], rel=1e-6
    )
    assert out1.estimates["amplitude"] == pytest.approx(out0.estimates["amplitude"], rel=1e-4)
    assert out1.estimates["decay_time_ns"] == pytest.approx(
        out0.estimates["decay_time_ns"], rel=1e-3
    )
    assert out1.estimates["phase_rad"] != pytest.approx(out0.estimates["phase_rad"], abs=0.01)


def test_vacuum_rabi_trace_frequency():
    # simulated resonant exchange at 3 MHz oscillates at 2 g = 6 MHz
    p = synthetic_device(3.0, **lossless())
    taus = np.linspace(0, 1000, 201)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, np.array([0.0]), taus)
    out = fit_damped_cosine(TimeTrace(taus, chev.p1[0]))
    assert out.estimates["frequency_per_ns"] * 1e3 == pytest.approx(6.0, rel=0.005)


def test_fit_outcome_json():
    import json

    t = np.linspace(0, 30000, 120)
    out = fit_exp_decay(TimeTrace(t, np.exp(-t / 10000.0)))
    doc = json.loads(out.to_json())
    assert doc["model"] == "exp_decay"
    assert set(doc) == {"model", "estimates", "sigmas", "residual_rms",
                        "converged", "n_iterations"}


# ---------------------------------------------------------------------------
# chevron coupling estimator


def test_geff_from_chevron_recovery():
    p = synthetic_device(3.0)
    taus = np.linspace(0, 2000, 201)
    offsets = np.linspace(-15, 15, 31)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, offsets, taus)
    est = geff_from_chevron(chev)
    assert not est.below_floor
    assert est.g_mhz == pytest.approx(3.0, rel=0.05)
    # hyperbola vertex at the true resonance, within one grid step
    assert abs(est.resonance_offset_mhz) < (offsets[1] - offsets[0])


def test_geff_from_chevron_gives_every_column_a_frequency_or_a_reason():
    chev = vacuum_rabi_chevron(
        DeviceParams(), BIAS, 4.593, np.linspace(-20, 20, 41), np.linspace(0, 2000, 201),
        prep_to_readout_ns=2500.0,
    )
    est = geff_from_chevron(chev)
    detected, rejected = set(est.column_freqs_mhz), set(est.rejected_columns)
    assert not detected & rejected
    assert detected | rejected == set(chev.detunings_mhz.tolist())
    assert est.n_detected == len(detected) >= 5
    for reason in est.rejected_columns.values():
        assert reason.startswith((
            "oscillation not detected: no spectral peak",
            "oscillation not detected: fewer than 2 periods",
            "oscillation cannot be resolved at the",
            "fit ended at",
            "fit did not converge",
            "amplitude",
        )), reason
    assert not any("rejected" in key for key in est.to_dict())


def test_geff_from_chevron_rejects_columns_whose_fit_did_not_converge(monkeypatch):
    from dresq import fitting

    chev = vacuum_rabi_chevron(
        DeviceParams(), BIAS, 4.593, np.linspace(-20, 20, 41), np.linspace(0, 2000, 201),
        prep_to_readout_ns=2500.0,
    )
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
    outcomes = fitting._fit_damped_cosines(chev.taus_ns, chev.p1, np.ones_like(chev.p1))
    fitted = [d for d, out in zip(chev.detunings_mhz.tolist(), outcomes)
              if not isinstance(out, FitError)]
    # enough columns reach the LM fit for a hyperbola had they been accepted
    assert len(fitted) >= 5
    est = geff_from_chevron(chev)
    assert est.below_floor and est.n_detected == 0 and est.g_mhz is None
    for det in fitted:
        assert est.rejected_columns[det] == "fit did not converge in 2 iterations"


def test_geff_from_chevron_flat_column_is_not_detected():
    taus = np.linspace(0, 1500, 151)
    chev = vacuum_rabi_chevron(
        synthetic_device(3.0, **lossless()), BIAS, 4.60, np.linspace(-12, 12, 25), taus
    )
    p1 = chev.p1.copy()
    p1[0] = 0.25
    est = geff_from_chevron(ChevronMap(chev.detunings_mhz, taus, p1))
    assert est.rejected_columns[-12.0].startswith("oscillation not detected")
    assert -12.0 not in est.column_freqs_mhz


def test_geff_from_chevron_even_in_detuning():
    p = synthetic_device(3.0, **lossless())
    taus = np.linspace(0, 1500, 151)
    offsets = np.linspace(-12, 12, 25)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, offsets, taus)
    est = geff_from_chevron(chev)
    for d, f in est.column_freqs_mhz.items():
        if -d in est.column_freqs_mhz:
            assert f == pytest.approx(est.column_freqs_mhz[-d], rel=1e-3)


def test_geff_from_chevron_below_floor_at_switch_off():
    from dresq.device import find_switch_off

    p = DeviceParams()
    root = find_switch_off(p, (4.50, 4.77))
    taus = np.linspace(0, 2000, 201)
    offsets = np.linspace(-20, 20, 41)
    chev = vacuum_rabi_chevron(p, BIAS, root, offsets, taus)
    est = geff_from_chevron(chev)
    assert est.below_floor
    assert est.g_mhz is None
    assert est.floor_mhz == pytest.approx(0.5)


def test_geff_from_chevron_edge_resonance_rejected():
    # detuning axis entirely to one side of the resonance
    p = synthetic_device(3.0, **lossless())
    taus = np.linspace(0, 1500, 151)
    offsets = np.linspace(2.0, 20.0, 19)
    chev = vacuum_rabi_chevron(p, BIAS, 4.60, offsets, taus)
    with pytest.raises(FitError, match="resonance"):
        geff_from_chevron(chev)


@pytest.mark.parametrize("target", [4.578, 4.586, 4.594, 4.5975, 4.600, 4.606])
def test_geff_from_chevron_stable_under_tiny_perturbation(target):
    # paper device with a fixed readout delay: a 1e-8 change of p1 must not
    # let a damped-cosine fit jump to an alias above the Nyquist frequency
    chev = vacuum_rabi_chevron(
        DeviceParams(), BIAS, target, np.linspace(-20, 20, 41), np.linspace(0, 2000, 201),
        prep_to_readout_ns=2500.0,
    )
    noise = 1e-8 * np.random.default_rng(0).standard_normal(chev.p1.shape)
    nudged = ChevronMap(chev.detunings_mhz, chev.taus_ns, np.clip(chev.p1 + noise, 0.0, 1.0))
    est, est_nudged = geff_from_chevron(chev), geff_from_chevron(nudged)
    assert not est.below_floor and not est_nudged.below_floor
    assert est_nudged.g_mhz == pytest.approx(est.g_mhz, rel=1e-6)


def test_chevron_fits_peak_within_their_count_and_are_refused_before_allocating(monkeypatch):
    # a lossless 41 x 2001 chevron fits every column, so the lockstep solver
    # holds residuals and Jacobians of every cell: its peak stays within
    # FIT_SAMPLE_BYTES a cell, and a limit one byte below the count (which
    # adds FIT_FIXED_BYTES) refuses the batch before its periodogram, with no
    # more built than the unit weights and the finiteness check of the cells
    chev = vacuum_rabi_chevron(DeviceParams(**lossless()), BIAS, 4.60,
                               np.linspace(-20.0, 20.0, 41), np.linspace(0.0, 2000.0, 2001))
    tracemalloc.start()
    try:
        fit = geff_from_chevron(chev)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.n_detected == 41
    assert peak <= FIT_SAMPLE_BYTES * chev.p1.size
    count = FIT_SAMPLE_BYTES * chev.p1.size + FIT_FIXED_BYTES
    monkeypatch.setattr(errors, "MEMORY_LIMIT", count - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="damped-cosine fits of 41 trace"):
            geff_from_chevron(chev)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * chev.p1.size + 2**12


def test_trace_uncertainties_must_match_its_length():
    t = np.arange(10.0)
    with pytest.raises(ConfigError, match="uncertainties must match the trace length"):
        TimeTrace(t, np.sin(t), np.full(9, 0.1))


def test_trace_csv_refuses_an_unparsable_number():
    text = "".join(f"{k},{0.5 * k}\n" for k in range(8)) + "8,half\n"
    with pytest.raises(ConfigError, match="trace line 9: could not convert string to float"):
        TimeTrace.from_csv(text)


def test_trace_csv_refuses_uncertainties_on_only_some_rows():
    text = "time_ns,value,sigma\n" + "".join(
        f"{k},{0.5 * k}" + (",0.1" if k % 2 else "") + "\n" for k in range(10))
    with pytest.raises(ConfigError, match="uncertainty column present on only some rows"):
        TimeTrace.from_csv(text)


def test_geff_from_chevron_refuses_non_finite_cells():
    # ChevronMap refuses a NaN cell where it is built; another object with
    # its three fields is refused by the fits' sample check
    p1 = np.full((3, 11), 0.5)
    p1[1, 4] = np.nan
    chev = types.SimpleNamespace(detunings_mhz=np.array([-1.0, 0.0, 1.0]),
                                 taus_ns=np.linspace(0.0, 100.0, 11), p1=p1)
    with pytest.raises(ConfigError, match="trace times and values must be finite"):
        geff_from_chevron(chev)


def test_solve_each_leaves_a_singular_member_nan_and_solves_the_others():
    a = np.stack([2.0 * np.eye(2), np.zeros((2, 2)), np.diag([1.0, 4.0])])
    b = np.ones((3, 2, 1))
    x, ok = _solve_each(a, b)
    assert ok.tolist() == [True, False, True]
    assert x[0, :, 0].tolist() == [0.5, 0.5] and x[2, :, 0].tolist() == [1.0, 0.25]
    assert np.isnan(x[1]).all()


def test_exp_decay_seed_when_the_first_value_equals_the_tail_mean():
    # the seed amplitude y0 - tail mean is 0: it is taken as the trace's span,
    # signed by y0 against the tail, instead of dividing by it
    t = np.arange(100.0)
    y = 0.3 + 0.5 * np.exp(-t / 20.0)
    y[0] = float(np.mean(y[-12:]))
    out = fit_exp_decay(TimeTrace(t, y))
    assert out.converged and 10.0 < out.estimates["decay_time_ns"] < 40.0


def test_exp_decay_without_a_decay_in_the_window_is_rejected():
    # a cubic rise: the best decay time is over 1000 windows
    t = np.arange(8.0)
    with pytest.raises(FitError, match="no decay detected: fitted time constant .* far beyond "
                                       "the 7 ns window"):
        fit_exp_decay(TimeTrace(t, t**3))


def test_damped_cosine_fit_ending_above_nyquist_is_rejected(monkeypatch):
    # a fit that walks to 0.6 /ns on a 1 ns grid (Nyquist 0.5 /ns) has found
    # an alias, not the trace's frequency
    real = fitting._levenberg_marquardt

    def beyond(residual_jac, p0):
        p, *rest = real(residual_jac, p0)
        p[:, 1] = 0.6
        return (p, *rest)

    monkeypatch.setattr(fitting, "_levenberg_marquardt", beyond)
    t = np.arange(64.0)
    with pytest.raises(FitError, match="fit ended at 0.6 /ns, above the 0.5 /ns Nyquist"):
        fit_damped_cosine(TimeTrace(t, np.cos(2 * math.pi * 0.05 * t)))


FIRST_FIT = """
import math, sys, tracemalloc
import numpy as np
from dresq.fitting import FIT_FIXED_BYTES, FIT_SAMPLE_BYTES, TimeTrace, fit_damped_cosine
n = int(sys.argv[1])
t = np.linspace(0.0, 8.0 * n, n)
trace = TimeTrace(t, 0.4 * np.exp(-t / (4.0 * n)) * np.cos(2 * math.pi * 0.02 * t) + 0.5)
assert "numpy.fft" not in sys.modules
tracemalloc.start()
fit_damped_cosine(trace)
print(tracemalloc.get_traced_memory()[1], FIT_SAMPLE_BYTES * n + FIT_FIXED_BYTES)
"""


@pytest.mark.parametrize("n", [16, 2000])
def test_first_damped_cosine_fit_of_a_process_peaks_within_its_count(n):
    # numpy loads numpy.fft on the first periodogram of a process, about 1.2 MB
    # beyond the samples' count; in a fresh interpreter that fit stays within it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FIRST_FIT, str(n)], timeout=120,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    peak, count = map(int, done.stdout.split())
    assert peak <= count
