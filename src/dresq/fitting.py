"""Least-squares extraction of decay times, oscillation frequencies, and
the exchange coupling from chevron data.

All fits go through one damped Gauss-Newton (Levenberg-Marquardt) core
with analytic Jacobians: deterministic, bounded at 200 iterations, step
tolerance 1e-10. It runs a batch of problems in lockstep, each with its
own damping and stopping test; a single fit is a batch of one. While
every problem of the batch runs, an iteration copies none of its
residuals, Jacobians or parameters. A trace without uncertainties is
fitted unweighted: no weight is multiplied into its residuals,
Jacobians or seed. A damped
cosine gets one start: its frequency from the periodogram peak of the
mean-subtracted trace, which keeps low-signal data out of local minima,
and its amplitude, phase and offset from an exact linear solve at that
frequency. The chevron fits all its columns as one such batch.

Registered models:
    exp_decay       A·exp(-t/T) + c
    damped_cosine   A·exp(-t/τ)·cos(2π f t + φ) + c
    hyperbola       f(Δ) = sqrt(4 g² + (Δ - Δ0)²)   (chevron column frequencies)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FitError, require_memory, require_numbers, uneven_steps

MAX_ITERATIONS = 200

STEP_TOL = 1e-10

MIN_POINTS = 8

# peak bytes a sample of a batch of damped-cosine fits: the periodogram's 8×
# zero-padded spectrum, then the lockstep solver's residuals, Jacobians and
# their temporaries; 196-305 measured with every trace fitted, weighted or not
# (tracemalloc, 1-1,000 traces of 16-20,000 points)
FIT_SAMPLE_BYTES = 336

# peak bytes a batch adds once: numpy loads numpy.fft on a process's first
# periodogram, 1.19-1.30 MB above the samples' count (16-2,000 points measured)
FIT_FIXED_BYTES = 3 * 2**19

# bounds of a fitted log decay time (log ns): beyond ~e^30 ns the envelope is
# flat, below e^-10 ns the model is numerically dead anyway
LOG_TAU_MIN, LOG_TAU_MAX = -10.0, 30.0

# periodogram peak must beat the median spectral power by this factor
# for an oscillation to count as detected
PEAK_OVER_MEDIAN = 10.0

# at least this many oscillation periods must fit in the window
MIN_PERIODS = 2.0

# largest |value| / uncertainty of a trace: the fits square sums of such
# terms, which overflow a float from about 1e150 on
MAX_WEIGHTED_VALUE = 1e100


@dataclass
class TimeTrace:
    """A sampled real-valued signal versus time (ns)."""

    times_ns: np.ndarray
    values: np.ndarray
    uncertainty: np.ndarray | None = None

    def __post_init__(self):
        t = require_numbers(self.times_ns, "trace times")
        v = require_numbers(self.values, "trace values")
        if v.shape != t.shape:
            raise ConfigError("trace times and values must be 1-d and equal length")
        _check_samples(t, v)
        self.times_ns, self.values = t, v
        if self.uncertainty is not None:
            u = require_numbers(self.uncertainty, "uncertainties", positive=True)
            if u.shape != t.shape:
                raise ConfigError("uncertainties must match the trace length")
            self.uncertainty = u
        with np.errstate(over="ignore"):  # an overflowing ratio is refused too
            worst = (np.abs(v) / (1.0 if self.uncertainty is None else self.uncertainty)).max()
        if worst > MAX_WEIGHTED_VALUE:
            raise ConfigError(f"trace |value| / uncertainty reaches {worst:.3g}, "
                              f"above the {MAX_WEIGHTED_VALUE:g} the fits can square")

    @property
    def window_ns(self) -> float:
        return float(self.times_ns[-1] - self.times_ns[0])

    @classmethod
    def from_csv(cls, text: str) -> "TimeTrace":
        """Parse two-column CSV time_ns,value (optional third: uncertainty).

        Row 1 is a header when none of its fields parses as a number and
        data when all do; a row 1 mixing the two is refused, and so is a
        header with another number of fields than the rows.
        """
        times, values, sigmas = [], [], []
        rows = [r.strip() for r in text.splitlines() if r.strip()]
        if not rows:
            raise ConfigError("empty trace file")
        numeric = [_is_float(f) for f in rows[0].split(",")]
        if any(numeric) and not all(numeric):
            raise ConfigError(f"trace line 1 is neither a header nor data: {rows[0]!r}")
        start = 0 if all(numeric) else 1
        for lineno, row in enumerate(rows[start:], start=start + 1):
            parts = row.split(",")
            if len(parts) not in (2, 3):
                raise ConfigError(f"trace line {lineno}: expected 2 or 3 columns")
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
                if len(parts) == 3:
                    sigmas.append(float(parts[2]))
            except ValueError as exc:
                raise ConfigError(f"trace line {lineno}: {exc}") from exc
        if sigmas and len(sigmas) != len(times):
            raise ConfigError("uncertainty column present on only some rows")
        width = 3 if sigmas else 2
        if start and len(numeric) != width:
            raise ConfigError(f"trace header has {len(numeric)} field(s) over rows of {width}")
        return cls(np.array(times), np.array(values), np.array(sigmas) if sigmas else None)


def _check_samples(t: np.ndarray, v: np.ndarray) -> None:
    """Refuse a time grid t, and values v sampled on it (one row per
    trace), that no fit can use."""
    if t.size < MIN_POINTS:
        raise ConfigError(f"a fit needs at least {MIN_POINTS} points, got {t.size}")
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise ConfigError("trace times and values must be finite")
    if np.any(np.diff(t) <= 0):
        raise ConfigError("trace times must be strictly ascending")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@dataclass
class FitOutcome:
    """Parameter estimates with one-sigma uncertainties."""

    model: str
    estimates: dict[str, float]
    sigmas: dict[str, float]
    residual_rms: float
    converged: bool
    n_iterations: int

    def to_json(self) -> str:
        """JSON of the outcome; an unbounded (infinite) sigma is written as null."""
        return json.dumps(
            {
                "model": self.model,
                "estimates": self.estimates,
                "sigmas": {k: v if math.isfinite(v) else None for k, v in self.sigmas.items()},
                "residual_rms": self.residual_rms,
                "converged": self.converged,
                "n_iterations": self.n_iterations,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x with a[i] x[i] = b[i] for a stack, and which members were solvable.

    A singular member gets NaN and leaves the others untouched.
    """
    try:
        return np.linalg.solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x, ok = np.full(b.shape, math.nan), np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return x, ok


def _levenberg_marquardt(residual_jac, p0: np.ndarray):
    """Damped Gauss-Newton minimization of ||r_b(p_b)||² for a batch of problems.

    ``p0`` is (batch, k). ``residual_jac(p, rows)`` must return, for the
    problems ``rows`` at the parameters p (one row each), the residuals
    r (rows, n) and the transposed Jacobians J (rows, k, n) with
    J[b, j, i] = ∂r_bi/∂p_bj. The problems advance in lockstep, but each
    keeps its own damping and stops on its own test, after which it is
    no longer evaluated; so each takes the path it would take alone.
    Returns arrays (p, sigma, rms, converged, iterations), one row or
    entry per problem. A parameter the final residuals do not depend on
    (a zero Jacobian row, as for a clamped one) is left out of the
    covariance and gets an infinite sigma.
    """
    p = np.array(p0, dtype=float)
    m, k = p.shape
    run = np.arange(m)  # the problems still running
    r, jac = residual_jac(p, run)
    cost = (r * r).sum(axis=1)
    lam = np.full(m, 1e-3)
    converged = np.zeros(m, dtype=bool)
    accepted_any = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    # the diagonal of a (k, k) matrix, as a slice of its k·k entries
    diagonal = slice(None, None, k + 1)
    for it in range(1, MAX_ITERATIONS + 1):
        # while every problem runs, its rows are the arrays themselves
        every = run.size == m
        at = slice(None) if every else run
        iterations[at] = it
        ja, ra, pa = (jac, r, p) if every else (jac[run], r[run], p[run])
        jtj = ja @ np.swapaxes(ja, 1, 2)
        d = jtj.reshape(run.size, k * k)[:, diagonal]
        d += lam[at, None] * np.where(d > 0, d, 1.0)
        # a singular member gets a NaN step, which no cost accepts
        step, solved = _solve_each(jtj, -(ja @ ra[:, :, None]))
        step = step[:, :, 0]
        p_new = pa + step
        r_new, j_new = residual_jac(p_new, run)
        c_new = (r_new * r_new).sum(axis=1)
        c_run = cost[at]
        better = c_new < c_run
        rel = (np.abs(step) / (np.abs(pa) + 1e-30)).max(axis=1)
        improvement = (c_run - c_new) / np.maximum(c_run, 1e-300)
        if every and better.all():
            p, r, jac, cost = p_new, r_new, j_new, c_new
        else:
            up = run[better]
            p[up], r[up], jac[up], cost[up] = (
                p_new[better], r_new[better], j_new[better], c_new[better])
        damping = lam[at]
        lam[at] = np.where(better, np.maximum(damping * 0.3, 1e-12), damping * 10.0)
        accepted_any[at] |= better
        done = better & ((rel < STEP_TOL) | (improvement < 1e-12))
        # fully damped and no step helps: we are at a (possibly local)
        # optimum provided some progress was ever made
        stuck = ~better & solved & (lam[at] > 1e12)
        converged[at] = done | stuck & (accepted_any[at] | (cost[at] < 1e-30))
        run = run[~(done | stuck)]
        if not run.size:
            break
    n = r.shape[1]
    dof = max(n - k, 1)
    rms = np.sqrt(cost / n)
    jtj = jac @ np.swapaxes(jac, 1, 2)
    d = jtj.reshape(m, k * k)[:, diagonal]
    dead = d == 0
    d += dead
    inv, _ = _solve_each(jtj, np.broadcast_to(np.eye(k), (m, k, k)))
    cov = (cost / dof)[:, None, None] * inv
    sigma = np.sqrt(np.clip(np.diagonal(cov, axis1=1, axis2=2), 0.0, None))
    return p, np.where(dead, math.inf, sigma), rms, converged, iterations


def _is_flat(y: np.ndarray) -> np.ndarray:
    """Per trace (last axis of y): whether its span is rounding noise on a constant."""
    span = y.max(axis=-1) - y.min(axis=-1)
    return (span < 1e-12) | (span < 1e-6 * np.maximum(1.0, np.abs(y).max(axis=-1)))


def _weighted(trace: TimeTrace):
    """Times, values and weights of a trace; weights None when it has no uncertainties."""
    w = None if trace.uncertainty is None else 1.0 / trace.uncertainty
    return trace.times_ns, trace.values, w


def fit_exp_decay(trace: TimeTrace) -> FitOutcome:
    """Fit A·exp(-t/T) + c; the decay time is kept positive by fitting log T."""
    t, y, w = _weighted(trace)
    if _is_flat(y):
        raise FitError("no decay detected: trace is constant")
    span = y.max() - y.min()
    # crude seeds: assume decay toward the tail mean
    c0 = float(np.mean(y[-max(3, len(y) // 8):]))
    a0 = float(y[0] - c0)
    if abs(a0) < 1e-12:
        a0 = span if y[0] >= c0 else -span
    # seed T from the 1/e crossing of the normalized signal
    norm = (y - c0) / a0
    above = np.nonzero(norm > math.exp(-1.0))[0]
    t0_seed = t[above[-1]] - t[0] if above.size else trace.window_ns / 3.0
    t0_seed = max(t0_seed, (t[1] - t[0]))
    elapsed = t - t[0]

    def rj(p, rows):
        a, log_t, c = p.T[:, :, None]
        tau = np.exp(np.clip(log_t, LOG_TAU_MIN, LOG_TAU_MAX))
        e = np.exp(-elapsed / tau)
        jac = np.empty((len(rows), 3, t.size))
        jac[:, 0] = e
        ae = np.multiply(a, e, out=jac[:, 1])
        r = ae + c - y
        # d/d(logT) by the chain rule
        ae *= elapsed
        ae /= tau
        jac[:, 2] = 1.0
        if w is not None:
            r *= w
            jac *= w
        return r, jac

    p, sig, rms, conv, it = _levenberg_marquardt(rj, [[a0, math.log(t0_seed), c0]])
    a, log_t, c = p[0]
    tau = math.exp(min(max(log_t, LOG_TAU_MIN), LOG_TAU_MAX))
    if tau > 1e3 * trace.window_ns:
        raise FitError(
            f"no decay detected: fitted time constant {tau:.3g} ns is far beyond "
            f"the {trace.window_ns:.3g} ns window"
        )
    sig = sig[0]
    return FitOutcome(
        "exp_decay",
        {"amplitude": float(a), "decay_time_ns": float(tau), "offset": float(c)},
        {"amplitude": float(sig[0]), "decay_time_ns": float(sig[1] * tau), "offset": float(sig[2])},
        float(rms[0]), bool(conv[0]), int(it[0]),
    )


def _periodogram_peaks(t: np.ndarray, y: np.ndarray):
    """Per row of y: peak frequency, peak and median power; and the Nyquist
    frequency (1/ns) of the grid t."""
    dt = float(np.mean(np.diff(t)))
    z = y - y.mean(axis=1, keepdims=True)
    n_fft = 8 * t.size
    spec = np.abs(np.fft.rfft(z, n=n_fft, axis=1))
    np.square(spec, out=spec)
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    spec[:, 0] = 0.0
    k = np.argmax(spec, axis=1)
    peak = spec[np.arange(len(y)), k]
    # np.median of the 4·t.size powers above 0, the mean of the two middle
    # ranks: one partition in place at the lower (numpy selects one rank far
    # faster than two), the upper the least power above it
    power, h = spec[:, 1:], 2 * t.size
    power.partition(h - 1, axis=1)
    median = (power[:, h - 1] + power[:, h:].min(axis=1)) / 2.0
    return freqs[k], peak, median, float(freqs[-1])


_COSINE_PARAMS = ("amplitude", "frequency_per_ns", "phase_rad", "decay_time_ns", "offset")


def require_fits_memory(n_traces: int, n_points: int) -> None:
    """ConfigError unless a batch of damped-cosine fits of ``n_traces`` traces
    of ``n_points`` samples, FIT_SAMPLE_BYTES a sample and FIT_FIXED_BYTES,
    fits in ``errors.MEMORY_LIMIT``."""
    require_memory(FIT_SAMPLE_BYTES * n_traces * n_points + FIT_FIXED_BYTES,
                   f"damped-cosine fits of {n_traces} trace(s) of {n_points} points")


def _fit_damped_cosines(t: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> list:
    """Damped-cosine fits of the rows of y (traces on the grid t, weights w or
    unweighted), in lockstep.

    Each row gets what :func:`fit_damped_cosine` gives that trace alone:
    a FitOutcome, or the FitError that rejects it. A batch whose
    FIT_SAMPLE_BYTES a sample and FIT_FIXED_BYTES would exceed
    ``errors.MEMORY_LIMIT`` is a ConfigError before anything of its size is
    built.
    """
    require_fits_memory(*y.shape)
    dt = np.diff(t)
    if uneven_steps(dt):
        raise ConfigError(
            f"a damped-cosine fit needs uniformly spaced times; the steps span "
            f"{dt.min():.6g} to {dt.max():.6g} ns"
        )
    f_seed, peak, median, nyquist = _periodogram_peaks(t, y)
    window = float(t[-1] - t[0])
    outcomes: list = [None] * len(y)
    # a constant trace has no peak, whatever its rounding noise shows
    undetected = _is_flat(y) | (median <= 0) | (peak < PEAK_OVER_MEDIAN * median)
    too_slow = ~undetected & (f_seed < MIN_PERIODS / window)
    at_nyquist = ~undetected & ~too_slow & (f_seed >= nyquist)
    for mask, reason in (
        (undetected, "oscillation not detected: no spectral peak above the noise floor"),
        (too_slow, f"oscillation not detected: fewer than {MIN_PERIODS:g} periods in the "
                   f"{window:.3g} ns window"),
        (at_nyquist, f"oscillation cannot be resolved at the {nyquist:.4g} /ns Nyquist frequency"),
    ):
        for i in np.flatnonzero(mask):
            outcomes[i] = FitError(reason)
    rows = np.flatnonzero(~(undetected | too_slow | at_nyquist))
    if not rows.size:
        return outcomes

    if rows.size < len(y):
        y, f_seed = y[rows], f_seed[rows]
        w = None if w is None else w[rows]
    elapsed = t - t[0]
    tau0 = window  # weak-damping seed; the solver shrinks it as needed
    e0, arg0 = np.exp(-elapsed / tau0), (2.0 * math.pi * f_seed)[:, None] * t
    basis = np.empty((rows.size, 3, t.size))
    np.multiply(e0, np.cos(arg0), out=basis[:, 0])
    np.multiply(e0, np.sin(arg0), out=basis[:, 1])
    basis[:, 2] = 1.0
    yw = y
    if w is not None:
        basis *= w[:, None, :]
        yw = y * w
    u, v, c0 = np.linalg.solve(
        basis @ np.swapaxes(basis, 1, 2), basis @ yw[:, :, None]
    )[:, :, 0].T

    def rj(p, sub):
        a, f, phi, log_tau, c = p.T[:, :, None]
        tau = np.exp(np.clip(log_tau, LOG_TAU_MIN, LOG_TAU_MAX))
        e = np.exp(-elapsed / tau)
        arg = 2.0 * math.pi * f * t + phi
        cos_, sin_ = np.cos(arg), np.sin(arg)
        # the solver asks for a subset of the rows in order, so all of them
        # when it asks for as many
        ys = y if sub.size == len(y) else y[sub]
        jac = np.empty((sub.size, 5, t.size))
        d_a, d_f, d_phi, d_tau, d_c = jac.swapaxes(0, 1)  # views, one per parameter
        ae = a * e
        aec = ae * cos_
        np.multiply(e, cos_, out=d_a)
        np.multiply(ae, sin_, out=d_phi)
        np.negative(d_phi, out=d_phi)
        np.multiply(d_phi, 2.0 * math.pi, out=d_f)
        d_f *= t
        # the model does not move with log τ once the clamp holds it
        free = (log_tau > LOG_TAU_MIN) & (log_tau < LOG_TAU_MAX)
        np.multiply(aec, elapsed, out=d_tau)
        d_tau /= tau
        d_tau *= free
        d_c[...] = 1.0
        r = aec
        r += c
        r -= ys
        if w is not None:
            ws = w if sub.size == len(w) else w[sub]
            r *= ws
            jac *= ws[:, None]
        return r, jac

    p0 = np.stack([np.hypot(u, v), f_seed, np.arctan2(-v, u),
                   np.full(rows.size, math.log(tau0)), c0], axis=1)
    p, sig, rms, conv, its = _levenberg_marquardt(rj, p0)
    a, f, phi, log_tau, c = p.T
    f = np.abs(f)
    tau = np.exp(np.clip(log_tau, LOG_TAU_MIN, LOG_TAU_MAX))
    flip = a < 0
    a, phi = np.where(flip, -a, a), np.where(flip, phi + math.pi, phi)
    phi = np.arctan2(np.sin(phi), np.cos(phi))
    sig[:, 3] *= tau
    estimates = np.stack([a, f, phi, tau, c], axis=1).tolist()
    for j, i in enumerate(rows.tolist()):
        if f[j] > nyquist:
            outcomes[i] = FitError(
                f"fit ended at {f[j]:.4g} /ns, above the {nyquist:.4g} /ns Nyquist frequency"
            )
        else:
            outcomes[i] = FitOutcome(
                "damped_cosine",
                dict(zip(_COSINE_PARAMS, estimates[j])),
                dict(zip(_COSINE_PARAMS, sig[j].tolist())),
                float(rms[j]), bool(conv[j]), int(its[j]),
            )
    return outcomes


def fit_damped_cosine(trace: TimeTrace) -> FitOutcome:
    """Fit A·exp(-t/τ)·cos(2π f t + φ) + c from one start.

    At the periodogram frequency and τ = window the model is linear in
    (A cos φ, -A sin φ, c): one weighted solve gives them, one LM run
    refines all five. A peak at Nyquist (A and φ unresolvable) or a fit
    ending above it (an alias) raises FitError. The periodogram needs
    uniform sampling: steps may differ by at most ``errors.GRID_TOL_NS``.
    """
    t, y, w = _weighted(trace)
    out = _fit_damped_cosines(t, y[None], None if w is None else w[None])[0]
    if isinstance(out, FitError):
        raise out
    return out


@dataclass
class ChevronCouplingFit:
    """Result of the time-domain coupling estimate.

    When the chevron shows no usable oscillation the verdict is
    ``below_floor`` and only the sensitivity floor is meaningful.
    ``rejected_columns`` gives, for each detuning without a usable
    frequency, the reason its fit was rejected; it is not serialized.
    """

    g_mhz: float | None
    resonance_offset_mhz: float | None
    below_floor: bool
    floor_mhz: float
    n_detected: int
    column_freqs_mhz: dict[float, float] = field(default_factory=dict)
    rejected_columns: dict[float, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every serialized field by name, a column frequency keyed by its ``:g`` detuning."""
        return {
            "g_mhz": self.g_mhz,
            "resonance_offset_mhz": self.resonance_offset_mhz,
            "below_floor": self.below_floor,
            "floor_mhz": self.floor_mhz,
            "n_detected": self.n_detected,
            "column_freqs_mhz": {f"{k:g}": v for k, v in sorted(self.column_freqs_mhz.items())},
        }


MIN_DETECTED_COLUMNS = 5

# a detected oscillation weaker than this is physically negligible ripple
MIN_AMPLITUDE = 5e-3


def geff_from_chevron(chevron) -> ChevronCouplingFit:
    """Coupling magnitude from the frequency-versus-detuning hyperbola.

    All columns of the ``dynamics.ChevronMap`` get damped-cosine fits as one batch;
    detected frequencies are fit to f(Δ) = sqrt(4g² + (Δ - Δ0)²).
    Oscillations slower than two periods per window are undetectable,
    which sets the sensitivity floor g_floor = 1/window (so 2·g_floor
    periods just fit); a chevron with fewer than 5 detected columns, or a
    fitted g below the floor, is reported as below-floor rather than as
    a number. A column whose fit did not converge is not used. Each
    column without a frequency has its reason in ``rejected_columns``.
    """
    taus, p1 = chevron.taus_ns, chevron.p1
    _check_samples(taus, p1)
    window = float(taus[-1] - taus[0])
    floor_mhz = 1.0 / window * 1e3
    freqs: dict[float, float] = {}
    rejected: dict[float, str] = {}
    outcomes = _fit_damped_cosines(taus, p1)
    for det, out in zip(chevron.detunings_mhz.tolist(), outcomes):
        if isinstance(out, FitError):
            rejected[det] = str(out)
        elif not out.converged:
            rejected[det] = f"fit did not converge in {out.n_iterations} iterations"
        elif out.estimates["amplitude"] < MIN_AMPLITUDE:
            rejected[det] = (
                f"amplitude {out.estimates['amplitude']:.3g} below the {MIN_AMPLITUDE:g} cut"
            )
        else:
            freqs[det] = out.estimates["frequency_per_ns"] * 1e3  # MHz
    if len(freqs) < MIN_DETECTED_COLUMNS:
        return ChevronCouplingFit(None, None, True, floor_mhz, len(freqs), freqs, rejected)

    dets = np.array(sorted(freqs))
    f_mhz = np.array([freqs[d] for d in dets])
    k_min = int(np.argmin(f_mhz))
    if k_min in (0, len(dets) - 1):
        raise FitError(
            "chevron does not cover the resonance: minimum oscillation frequency "
            "sits at the edge of the detuning axis"
        )
    g0 = max(f_mhz[k_min] / 2.0, 0.25 * floor_mhz)
    d0 = float(dets[k_min])

    def rj(p, rows):
        g, delta0 = p[:, 0, None], p[:, 1, None]
        f_model = np.sqrt(4.0 * g * g + (dets - delta0) ** 2)
        return f_model - f_mhz, np.stack([4.0 * g / f_model, -(dets - delta0) / f_model], axis=1)

    p = _levenberg_marquardt(rj, [[g0, d0]])[0][0]
    g = abs(float(p[0]))
    if g < floor_mhz:
        return ChevronCouplingFit(None, float(p[1]), True, floor_mhz, len(freqs), freqs, rejected)
    return ChevronCouplingFit(g, float(p[1]), False, floor_mhz, len(freqs), freqs, rejected)
