"""Least-squares extraction of decay times, oscillation frequencies, and
the exchange coupling from chevron data.

All fits go through one damped Gauss-Newton (Levenberg-Marquardt) core
with analytic Jacobians: deterministic, bounded at 200 iterations, step
tolerance 1e-10. It runs a batch of problems in lockstep, each with its
own damping and stopping test; a single fit is a batch of one. A damped
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

from .errors import ConfigError, FitError
from .dynamics import GRID_TOL_NS, ChevronMap

MAX_ITERATIONS = 200

STEP_TOL = 1e-10

MIN_POINTS = 8

# periodogram peak must beat the median spectral power by this factor
# for an oscillation to count as detected
PEAK_OVER_MEDIAN = 10.0

# at least this many oscillation periods must fit in the window
MIN_PERIODS = 2.0


@dataclass
class TimeTrace:
    """A sampled real-valued signal versus time (ns)."""

    times_ns: np.ndarray
    values: np.ndarray
    uncertainty: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times_ns, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ConfigError("trace times and values must be 1-d and equal length")
        _check_samples(t, v)
        self.times_ns, self.values = t, v
        if self.uncertainty is not None:
            u = np.asarray(self.uncertainty, dtype=float)
            if u.shape != t.shape or not np.all(np.isfinite(u) & (u > 0)):
                raise ConfigError(
                    "uncertainties must be positive, finite and match the trace length"
                )
            self.uncertainty = u

    @property
    def window_ns(self) -> float:
        return float(self.times_ns[-1] - self.times_ns[0])

    @classmethod
    def from_csv(cls, text: str) -> "TimeTrace":
        """Parse two-column CSV time_ns,value (optional third: uncertainty).

        Row 1 is a header when none of its fields parses as a number and
        data when all do; a row 1 mixing the two is refused.
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
    diagonal = np.arange(k)
    for it in range(1, MAX_ITERATIONS + 1):
        iterations[run] = it
        ja = jac[run]
        jtj = ja @ np.swapaxes(ja, 1, 2)
        d = np.diagonal(jtj, axis1=1, axis2=2)
        jtj[:, diagonal, diagonal] += lam[run, None] * np.where(d > 0, d, 1.0)
        # a singular member gets a NaN step, which no cost accepts
        step, solved = _solve_each(jtj, -(ja @ r[run, :, None]))
        step = step[:, :, 0]
        r_new, j_new = residual_jac(p[run] + step, run)
        c_new = (r_new * r_new).sum(axis=1)
        better = c_new < cost[run]
        rel = np.max(np.abs(step) / (np.abs(p[run]) + 1e-30), axis=1)
        improvement = (cost[run] - c_new) / np.maximum(cost[run], 1e-300)
        up = run[better]
        p[up] += step[better]
        r[up], jac[up], cost[up] = r_new[better], j_new[better], c_new[better]
        lam[run] = np.where(better, np.maximum(lam[run] * 0.3, 1e-12), lam[run] * 10.0)
        accepted_any[up] = True
        done = better & ((rel < STEP_TOL) | (improvement < 1e-12))
        # fully damped and no step helps: we are at a (possibly local)
        # optimum provided some progress was ever made
        stuck = ~better & solved & (lam[run] > 1e12)
        converged[run] = done | stuck & (accepted_any[run] | (cost[run] < 1e-30))
        run = run[~(done | stuck)]
        if not run.size:
            break
    n = r.shape[1]
    dof = max(n - k, 1)
    rms = np.sqrt(cost / n)
    jtj = jac @ np.swapaxes(jac, 1, 2)
    dead = np.diagonal(jtj, axis1=1, axis2=2) == 0
    jtj[:, diagonal, diagonal] += dead
    inv, _ = _solve_each(jtj, np.broadcast_to(np.eye(k), (m, k, k)))
    cov = (cost / dof)[:, None, None] * inv
    sigma = np.sqrt(np.clip(np.diagonal(cov, axis1=1, axis2=2), 0.0, None))
    return p, np.where(dead, math.inf, sigma), rms, converged, iterations


def _is_flat(y: np.ndarray) -> np.ndarray:
    """Per trace (last axis of y): whether its span is rounding noise on a constant."""
    span = y.max(axis=-1) - y.min(axis=-1)
    return (span < 1e-12) | (span < 1e-6 * np.maximum(1.0, np.abs(y).max(axis=-1)))


def _weighted(trace: TimeTrace):
    w = 1.0 / trace.uncertainty if trace.uncertainty is not None else np.ones_like(trace.values)
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
        tau = np.exp(np.clip(log_t, -10.0, 30.0))
        e = np.exp(-elapsed / tau)
        r = (a * e + c - y) * w
        # d/d(logT) by the chain rule
        return r, np.stack([e * w, a * e * elapsed / tau * w, np.broadcast_to(w, r.shape)], axis=1)

    p, sig, rms, conv, it = _levenberg_marquardt(rj, [[a0, math.log(t0_seed), c0]])
    a, log_t, c = p[0]
    tau = math.exp(min(max(log_t, -10.0), 30.0))
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
    spec = np.abs(np.fft.rfft(z, n=n_fft, axis=1)) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    spec[:, 0] = 0.0
    k = np.argmax(spec, axis=1)
    median = np.median(spec[:, 1:], axis=1)
    return freqs[k], spec[np.arange(len(y)), k], median, float(freqs[-1])


_COSINE_PARAMS = ("amplitude", "frequency_per_ns", "phase_rad", "decay_time_ns", "offset")


def _fit_damped_cosines(t: np.ndarray, y: np.ndarray, w: np.ndarray) -> list:
    """Damped-cosine fits of the rows of y (traces on the grid t, weights w), in lockstep.

    Each row gets what :func:`fit_damped_cosine` gives that trace alone:
    a FitOutcome, or the FitError that rejects it.
    """
    dt = np.diff(t)
    if dt.max() - dt.min() > GRID_TOL_NS:
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

    y, w, f_seed = y[rows], w[rows], f_seed[rows]
    elapsed = t - t[0]
    tau0 = window  # weak-damping seed; the solver shrinks it as needed
    e0, arg0 = np.exp(-elapsed / tau0), (2.0 * math.pi * f_seed)[:, None] * t
    basis = np.stack([e0 * np.cos(arg0), e0 * np.sin(arg0), np.ones_like(arg0)], axis=1)
    basis *= w[:, None, :]
    u, v, c0 = np.linalg.solve(
        basis @ np.swapaxes(basis, 1, 2), basis @ (y * w)[:, :, None]
    )[:, :, 0].T

    def rj(p, sub):
        a, f, phi, log_tau, c = p.T[:, :, None]
        # clamp the decay time: beyond ~e^30 ns the envelope is flat, below
        # e^-10 ns the model is numerically dead anyway
        tau = np.exp(np.clip(log_tau, -10.0, 30.0))
        e = np.exp(-elapsed / tau)
        arg = 2.0 * math.pi * f * t + phi
        cos_, sin_ = np.cos(arg), np.sin(arg)
        ws = w[sub]
        ae = a * e
        aec, aes = ae * cos_, -ae * sin_
        # the model does not move with log τ once the clamp holds it
        free = (log_tau > -10.0) & (log_tau < 30.0)
        jac = np.stack(
            [e * cos_, aes * (2.0 * math.pi) * t, aes, aec * elapsed / tau * free,
             np.ones_like(e)],
            axis=1,
        )
        jac *= ws[:, None]
        return (aec + c - y[sub]) * ws, jac

    p0 = np.stack([np.hypot(u, v), f_seed, np.arctan2(-v, u),
                   np.full(rows.size, math.log(tau0)), c0], axis=1)
    p, sig, rms, conv, its = _levenberg_marquardt(rj, p0)
    a, f, phi, log_tau, c = p.T
    f = np.abs(f)
    tau = np.exp(np.clip(log_tau, -10.0, 30.0))
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
    uniform sampling: steps may differ by at most GRID_TOL_NS.
    """
    t, y, w = _weighted(trace)
    out = _fit_damped_cosines(t, y[None], w[None])[0]
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "g_mhz": self.g_mhz,
                "resonance_offset_mhz": self.resonance_offset_mhz,
                "below_floor": self.below_floor,
                "floor_mhz": self.floor_mhz,
                "n_detected": self.n_detected,
                "column_freqs_mhz": {f"{k:g}": v for k, v in sorted(self.column_freqs_mhz.items())},
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


MIN_DETECTED_COLUMNS = 5

# a detected oscillation weaker than this is physically negligible ripple
MIN_AMPLITUDE = 5e-3


def geff_from_chevron(chevron: ChevronMap) -> ChevronCouplingFit:
    """Coupling magnitude from the frequency-versus-detuning hyperbola.

    All chevron columns get their damped-cosine fits as one batch;
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
    outcomes = _fit_damped_cosines(taus, p1, np.ones_like(p1))
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
