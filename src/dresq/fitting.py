"""Least-squares extraction of decay times, oscillation frequencies, and
the exchange coupling from chevron data.

All fits go through one damped Gauss-Newton (Levenberg-Marquardt) core
with analytic Jacobians: deterministic, bounded at 200 iterations, step
tolerance 1e-10. Oscillation frequencies are seeded from the
periodogram peak of the mean-subtracted trace, which is what keeps
low-signal data from landing in local minima.

Registered models:
    exp_decay       A·exp(-t/T) + c
    damped_cosine   A·exp(-t/τ)·cos(2π f t + φ) + c
    hyperbola       f(Δ) = sqrt(4 g² + (Δ - Δ0)²)   (chevron column frequencies)
"""

from __future__ import annotations

import io
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
        if t.size < MIN_POINTS:
            raise ConfigError(f"a fit needs at least {MIN_POINTS} points, got {t.size}")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise ConfigError("trace times and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("trace times must be strictly ascending")
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
        return json.dumps(
            {
                "model": self.model,
                "estimates": self.estimates,
                "sigmas": self.sigmas,
                "residual_rms": self.residual_rms,
                "converged": self.converged,
                "n_iterations": self.n_iterations,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


def _levenberg_marquardt(residual_jac, p0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, bool, int]:
    """Damped Gauss-Newton minimization of ||r(p)||².

    residual_jac(p) must return (r, J) with J[i, k] = ∂r_i/∂p_k.
    Returns (p, sigma, rms, converged, iterations).
    """
    p = np.asarray(p0, dtype=float).copy()
    r, jac = residual_jac(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    accepted_any = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        p_new = p + step
        r_new, jac_new = residual_jac(p_new)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            rel = np.max(np.abs(step) / (np.abs(p) + 1e-30))
            improvement = (cost - cost_new) / max(cost, 1e-300)
            p, r, jac, cost = p_new, r_new, jac_new, cost_new
            lam = max(lam * 0.3, 1e-12)
            accepted_any = True
            if rel < STEP_TOL or improvement < 1e-12:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                # fully damped and no step helps: we are at a (possibly
                # local) optimum provided some progress was ever made
                converged = accepted_any or cost < 1e-30
                break
    n, k = jac.shape
    dof = max(n - k, 1)
    rms = math.sqrt(cost / n)
    scale = cost / dof
    try:
        cov = scale * np.linalg.inv(jac.T @ jac)
        sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        sigma = np.full(k, math.nan)
    return p, sigma, rms, converged, it


def _weighted(trace: TimeTrace):
    w = 1.0 / trace.uncertainty if trace.uncertainty is not None else np.ones_like(trace.values)
    return trace.times_ns, trace.values, w


def fit_exp_decay(trace: TimeTrace) -> FitOutcome:
    """Fit A·exp(-t/T) + c; the decay time is kept positive by fitting log T."""
    t, y, w = _weighted(trace)
    span = y.max() - y.min()
    if span < 1e-12 or span < 1e-6 * max(1.0, abs(y).max()):
        raise FitError("no decay detected: trace is constant")
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

    def rj(p):
        a, log_t, c = p
        tau = math.exp(min(max(log_t, -10.0), 30.0))
        e = np.exp(-(t - t[0]) / tau)
        model = a * e + c
        r = (model - y) * w
        jac = np.empty((t.size, 3))
        jac[:, 0] = e * w
        jac[:, 1] = a * e * (t - t[0]) / tau * w  # d/d(logT): chain rule
        jac[:, 2] = w
        return r, jac

    p, sig, rms, conv, it = _levenberg_marquardt(rj, np.array([a0, math.log(t0_seed), c0]))
    a, log_t, c = p
    tau = math.exp(min(max(log_t, -10.0), 30.0))
    if tau > 1e3 * trace.window_ns:
        raise FitError(
            f"no decay detected: fitted time constant {tau:.3g} ns is far beyond "
            f"the {trace.window_ns:.3g} ns window"
        )
    return FitOutcome(
        "exp_decay",
        {"amplitude": float(a), "decay_time_ns": float(tau), "offset": float(c)},
        {"amplitude": float(sig[0]), "decay_time_ns": float(sig[1] * tau), "offset": float(sig[2])},
        rms, conv, it,
    )


def _periodogram_peak(trace: TimeTrace) -> tuple[float, float, float]:
    """Frequency (1/ns), peak power and median power of the detrended trace."""
    t, y, _ = _weighted(trace)
    dt = float(np.mean(np.diff(t)))
    z = y - y.mean()
    n_fft = 8 * len(z)
    spec = np.abs(np.fft.rfft(z, n=n_fft)) ** 2
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    spec[0] = 0.0
    k = int(np.argmax(spec))
    median = float(np.median(spec[1:]))
    return float(freqs[k]), float(spec[k]), median


def fit_damped_cosine(trace: TimeTrace) -> FitOutcome:
    """Fit A·exp(-t/τ)·cos(2π f t + φ) + c with periodogram frequency seeding.

    The periodogram assumes uniform sampling, so the time steps may differ
    by at most GRID_TOL_NS, the tolerance the chevron applies to τ.
    """
    t, y, w = _weighted(trace)
    dt = np.diff(t)
    if dt.max() - dt.min() > GRID_TOL_NS:
        raise ConfigError(
            f"a damped-cosine fit needs uniformly spaced times; the steps span "
            f"{dt.min():.6g} to {dt.max():.6g} ns"
        )
    f_seed, peak, median = _periodogram_peak(trace)
    window = trace.window_ns
    if median <= 0 or peak < PEAK_OVER_MEDIAN * median:
        raise FitError("oscillation not detected: no spectral peak above the noise floor")
    if f_seed < MIN_PERIODS / window:
        raise FitError(
            f"oscillation not detected: fewer than {MIN_PERIODS:g} periods in the "
            f"{window:.3g} ns window"
        )
    c0 = float(y.mean())
    a0 = float(math.sqrt(2.0) * np.std(y - c0))
    tau0 = window  # weak-damping seed; the solver shrinks it as needed

    def rj(p):
        a, f, phi, log_tau, c = p
        # clamp the decay time: beyond ~e^30 ns the envelope is flat, below
        # e^-10 ns the model is numerically dead anyway
        tau = math.exp(min(max(log_tau, -10.0), 30.0))
        e = np.exp(-(t - t[0]) / tau)
        arg = 2.0 * math.pi * f * t + phi
        cos_, sin_ = np.cos(arg), np.sin(arg)
        model = a * e * cos_ + c
        r = (model - y) * w
        jac = np.empty((t.size, 5))
        jac[:, 0] = e * cos_ * w
        jac[:, 1] = -a * e * sin_ * 2.0 * math.pi * t * w
        jac[:, 2] = -a * e * sin_ * w
        jac[:, 3] = a * e * cos_ * (t - t[0]) / tau * w
        jac[:, 4] = w
        return r, jac

    # a start can converge to an alias above the Nyquist frequency, which
    # matches the samples exactly and would win the residual comparison
    nyquist = 0.5 / float(np.mean(np.diff(t)))
    best = None
    for phi0 in (0.0, math.pi / 2, math.pi, -math.pi / 2):
        p0 = np.array([a0, f_seed, phi0, math.log(tau0), c0])
        p, sig, rms, conv, it = _levenberg_marquardt(rj, p0)
        if abs(p[1]) <= nyquist and (best is None or rms < best[2]):
            best = (p, sig, rms, conv, it)
    if best is None:
        raise FitError(
            f"every fit start converged above the {nyquist:.4g} /ns Nyquist frequency"
        )
    p, sig, rms, conv, it = best
    a, f, phi, log_tau, c = p
    log_tau = min(max(log_tau, -10.0), 30.0)
    if a < 0:
        a, phi = -a, phi + math.pi
    phi = math.atan2(math.sin(phi), math.cos(phi))
    f = abs(f)
    return FitOutcome(
        "damped_cosine",
        {
            "amplitude": float(a),
            "frequency_per_ns": float(f),
            "phase_rad": float(phi),
            "decay_time_ns": float(math.exp(log_tau)),
            "offset": float(c),
        },
        {
            "amplitude": float(sig[0]),
            "frequency_per_ns": float(sig[1]),
            "phase_rad": float(sig[2]),
            "decay_time_ns": float(sig[3] * math.exp(log_tau)),
            "offset": float(sig[4]),
        },
        rms, conv, it,
    )


@dataclass
class ChevronCouplingFit:
    """Result of the time-domain coupling estimate.

    When the chevron shows no usable oscillation the verdict is
    ``below_floor`` and only the sensitivity floor is meaningful.
    """

    g_mhz: float | None
    resonance_offset_mhz: float | None
    below_floor: bool
    floor_mhz: float
    n_detected: int
    column_freqs_mhz: dict[float, float] = field(default_factory=dict)

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


def geff_from_chevron(chevron: ChevronMap) -> ChevronCouplingFit:
    """Coupling magnitude from the frequency-versus-detuning hyperbola.

    Each chevron column gets a damped-cosine fit; detected frequencies
    are fit to f(Δ) = sqrt(4g² + (Δ - Δ0)²). Oscillations slower than
    two periods per window are undetectable, which sets the sensitivity
    floor g_floor = 1/window (so 2·g_floor periods just fit); a chevron
    with fewer than 5 detected columns, or a fitted g below the floor,
    is reported as below-floor rather than as a number.
    """
    window = float(chevron.taus_ns[-1] - chevron.taus_ns[0])
    floor_mhz = 1.0 / window * 1e3
    freqs: dict[float, float] = {}
    for i, det in enumerate(chevron.detunings_mhz):
        taus, col = chevron.column(i)
        try:
            out = fit_damped_cosine(TimeTrace(taus, col))
        except FitError:
            continue
        if out.estimates["amplitude"] < 5e-3:
            continue  # numerically detected but physically negligible ripple
        freqs[float(det)] = out.estimates["frequency_per_ns"] * 1e3  # MHz
    if len(freqs) < MIN_DETECTED_COLUMNS:
        return ChevronCouplingFit(None, None, True, floor_mhz, len(freqs), freqs)

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

    def rj(p):
        g, delta0 = p
        f_model = np.sqrt(4.0 * g * g + (dets - delta0) ** 2)
        r = f_model - f_mhz
        jac = np.empty((dets.size, 2))
        jac[:, 0] = 4.0 * g / f_model
        jac[:, 1] = -(dets - delta0) / f_model
        return r, jac

    p, sig, rms, conv, it = _levenberg_marquardt(rj, np.array([g0, d0]))
    g = abs(float(p[0]))
    if g < floor_mhz:
        return ChevronCouplingFit(None, float(p[1]), True, floor_mhz, len(freqs), freqs)
    return ChevronCouplingFit(g, float(p[1]), False, floor_mhz, len(freqs), freqs)
