"""The four benchmark workloads: seeded inputs, one call, outputs, checks.

A workload call is one closed-loop request: the harness issues the next
call only after the previous one returned. Three workloads go through the
CLI (``dresq.cli.main``) and read their results back from the artifacts
the CLI wrote; ``evolve_lossy`` calls the library ``evolve`` directly,
because the CLI has no entry point for the full-space integrator.

The seed drives only the input generator here and is never passed to the
program. The input space is ``N_VARIANTS`` variants per workload (seed s
runs variant s mod N_VARIANTS), so that every seed has stored reference
outputs; the last variant is kept out of tuning and serves to confirm
claims.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_VARIANTS = 4

# paper-device flux protocol: qubit 1 just under its sweet spot, qubit 2
# well above, as in the CLI defaults
BIAS_Q1 = 4.637
BIAS_Q2 = 4.691


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _rng(workload: str, variant: int) -> np.random.Generator:
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([salt, variant])


def _ghz(x: float) -> str:
    """Frequencies go to the program rounded to the Hz."""
    return f"{x:.9f}"


@dataclass(frozen=True)
class Tolerance:
    """|out - ref| <= abs + rel·|ref| elementwise; None means exact."""

    abs: float = 0.0
    rel: float = 0.0


EXACT = None


def compare(outputs: dict, reference: dict, tolerances: dict) -> list[str]:
    """Mismatches of ``outputs`` against ``reference``, one line each."""
    problems = []
    for key, tol in tolerances.items():
        ref = np.asarray(reference[key])
        if key not in outputs:
            problems.append(f"{key}: missing from the outputs")
            continue
        out = np.asarray(outputs[key])
        if out.shape != ref.shape:
            problems.append(f"{key}: shape {out.shape} != reference {ref.shape}")
            continue
        if tol is EXACT:
            if not np.array_equal(out, ref):
                bad = np.argwhere(out != ref) if out.ndim else [()]
                problems.append(f"{key}: differs from the reference at {tuple(bad[0])}")
            continue
        out_f, ref_f = out.astype(float), ref.astype(float)
        both_nan = np.isnan(out_f) & np.isnan(ref_f)
        err = np.where(both_nan, 0.0, np.abs(out_f - ref_f))
        limit = tol.abs + tol.rel * np.abs(np.nan_to_num(ref_f))
        over = ~(err <= limit)
        if over.any():
            worst = np.unravel_index(np.argmax(np.where(over, err - limit, -np.inf)), err.shape)
            problems.append(
                f"{key}: |out - ref| = {err[worst]:.3e} at {tuple(int(i) for i in worst)} "
                f"exceeds {limit[worst]:.1e}"
            )
    return problems


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def artifact_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the call left in ``out_dir``."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


class CallFailed(Exception):
    """A workload call returned a nonzero exit code."""


def _run_cli(cli, argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise CallFailed(f"dresq {argv[0]} exited with code {code}")


class Workload:
    """Base: subclasses define the inputs, the call and the outputs."""

    name: str
    work_unit: str
    tolerances: dict

    def inputs(self, variant: int) -> dict:
        raise NotImplementedError

    def work(self, inputs: dict) -> float:
        """Work finished by one call, in ``work_unit``."""
        raise NotImplementedError

    def size(self, inputs: dict) -> dict:
        """The input size recorded with every result."""
        raise NotImplementedError

    def invoke(self, dresq: dict, inputs: dict, out_dir: Path):
        """One call of the program: the part the benchmark times."""
        raise NotImplementedError

    def read(self, result, out_dir: Path) -> dict:
        """Outputs of the call ``invoke`` returned, with an ``artifacts`` digest."""
        raise NotImplementedError

    def check(self, outputs: dict, reference: dict) -> list[str]:
        return compare(outputs, reference, self.tolerances)


# Tolerances must admit a real-symmetric eigh (eigenvalues agree to ~1e-13
# rad/ns) and an exact propagator (p1 within ~1e-9 of fixed-step RK4), on
# top of the 9-digit CSV rounding, yet catch a reordered level (levels
# are MHz apart) or a wrong gap (kHz off at least).


class SpectrumDense(Workload):
    """``spectrum --axis freq_2`` across both bus anti-crossings at 4⁴."""

    name = "spectrum_dense"
    work_unit = "sweep points"
    points = 13
    dims = (4, 4, 4, 4)
    tolerances = {
        "sweep_values": Tolerance(abs=1e-12),
        "levels_ghz": Tolerance(abs=1e-7),
        "labels": EXACT,
        "overlaps": Tolerance(abs=1e-5),
    }

    def inputs(self, variant):
        rng = _rng(self.name, variant)
        return {
            "start": round(float(rng.uniform(4.395, 4.405)), 6),
            "stop": round(float(rng.uniform(4.855, 4.865)), 6),
            "fixed_q1": round(BIAS_Q1 + float(rng.uniform(-0.002, 0.002)), 6),
        }

    def work(self, inputs):
        return float(self.points)

    def size(self, inputs):
        return {"points": self.points, "dims": list(self.dims),
                "hilbert_dim": int(np.prod(self.dims)), **inputs}

    def invoke(self, dresq, inputs, out_dir):
        _run_cli(dresq["cli"], [
            "spectrum", "--axis", "freq_2",
            "--start", _ghz(inputs["start"]), "--stop", _ghz(inputs["stop"]),
            "--points", str(self.points), "--fixed-q1", _ghz(inputs["fixed_q1"]),
            "--dims", *map(str, self.dims), "--out", str(out_dir),
        ])

    def read(self, result, out_dir):
        rows = _read_csv(out_dir / "spectrum.csv")
        sweep = sorted({float(r["sweep_value"]) for r in rows})
        n_levels = len(rows) // len(sweep)
        return {
            "sweep_values": np.array(sweep),
            "levels_ghz": np.array([float(r["freq_ghz"]) for r in rows]).reshape(-1, n_levels),
            "labels": np.array([r["label"] for r in rows]).reshape(-1, n_levels),
            "overlaps": np.array([float(r["overlap"]) for r in rows]).reshape(-1, n_levels),
            "artifacts": artifact_digest(out_dir),
        }


class SwitchOff(Workload):
    """``gapscan`` at seeded qubit-2 setpoints, then ``geff`` over the band."""

    name = "switch_off"
    work_unit = "points resolved"
    geff_points = 50
    tolerances = {
        "setpoints_ghz": Tolerance(abs=1e-12),
        "gap_mhz": Tolerance(abs=1e-5),
        "gap_location_ghz": Tolerance(abs=1e-7),
        "gap_errors": EXACT,
        "switch_off_ghz": Tolerance(abs=2e-6),
        "geff_freq_ghz": Tolerance(abs=1e-12),
        "geff_mhz": Tolerance(abs=2e-6),
        "ed_half_gap_mhz": Tolerance(abs=1e-5),
    }

    def inputs(self, variant):
        rng = _rng(self.name, variant)
        # one setpoint on each side of the switch-off, inside the band where
        # qubit-character tracking works (3 g_max clear of both resonators)
        low = float(rng.uniform(4.580, 4.625))
        high = float(rng.uniform(4.640, 4.690))
        return {
            "setpoints": [round(low, 6), round(high, 6)],
            "geff_start": round(float(rng.uniform(4.515, 4.525)), 6),
            "geff_stop": round(float(rng.uniform(4.755, 4.765)), 6),
        }

    def work(self, inputs):
        return float(len(inputs["setpoints"]) + self.geff_points)

    def size(self, inputs):
        return {"setpoints": len(inputs["setpoints"]), "geff_points": self.geff_points,
                "dims": [3, 3, 3, 3], "hilbert_dim": 81, **inputs}

    def invoke(self, dresq, inputs, out_dir):
        _run_cli(dresq["cli"], [
            "gapscan", "--setpoints", *map(_ghz, inputs["setpoints"]),
            "--out", str(out_dir / "gapscan"),
        ])
        _run_cli(dresq["cli"], [
            "geff", "--start", _ghz(inputs["geff_start"]), "--stop", _ghz(inputs["geff_stop"]),
            "--points", str(self.geff_points), "--out", str(out_dir / "geff"),
        ])

    def read(self, result, out_dir):
        gap_dir, geff_dir = out_dir / "gapscan", out_dir / "geff"
        gaps = _read_csv(gap_dir / "gaps.csv")
        geff = _read_csv(geff_dir / "geff.csv")
        switch_off = json.loads((geff_dir / "switch_off.json").read_text())

        def num(text):
            return float(text) if text else math.nan

        digest = {f"gapscan/{k}": v for k, v in artifact_digest(gap_dir).items()}
        digest.update({f"geff/{k}": v for k, v in artifact_digest(geff_dir).items()})
        return {
            "setpoints_ghz": np.array([float(r["setpoint_ghz"]) for r in gaps]),
            "gap_mhz": np.array([num(r["gap_mhz"]) for r in gaps]),
            "gap_location_ghz": np.array([num(r["location_ghz"]) for r in gaps]),
            "gap_errors": np.array([r["error"] for r in gaps]),
            "switch_off_ghz": float(switch_off["switch_off_ghz"]),
            "geff_freq_ghz": np.array([float(r["freq_ghz"]) for r in geff]),
            "geff_mhz": np.array([float(r["geff_mhz"]) for r in geff]),
            "ed_half_gap_mhz": np.array([float(r["ed_half_gap_mhz"]) for r in geff]),
            "artifacts": digest,
        }


class Chevron(Workload):
    """``chevron`` at the CLI grid with dissipation and a fixed readout delay."""

    name = "chevron"
    work_unit = "chevron cells"
    detuning_points = 41
    tau_points = 201
    tau_max_ns = 2000.0
    span_mhz = 20.0
    prep_to_readout_ns = 2500.0
    tolerances = {
        "detunings_mhz": Tolerance(abs=1e-9),
        "taus_ns": Tolerance(abs=1e-9),
        "p1": Tolerance(abs=1e-7),
        "below_floor": EXACT,
        "g_mhz": Tolerance(abs=1e-5, rel=1e-4),
    }

    # Interaction points where g is resolvable and the estimate is stable:
    # perturbing p1 by 1e-8 leaves below_floor and g (to 1e-8 relative)
    # unchanged, so an exact propagator cannot trip the check. Elsewhere in
    # 4.578-4.610 GHz the hyperbola fit of geff_from_chevron flips between
    # values or to below_floor under such perturbations (4.5975 does), and
    # at 4.610 it raises. record_references.py re-checks this stability.
    targets = (4.5930, 4.5960, 4.5980, 4.5990)

    def inputs(self, variant):
        return {"target": self.targets[variant]}

    def work(self, inputs):
        return float(self.detuning_points * self.tau_points)

    def size(self, inputs):
        return {"detuning_points": self.detuning_points, "tau_points": self.tau_points,
                "tau_max_ns": self.tau_max_ns, "span_mhz": self.span_mhz,
                "prep_to_readout_ns": self.prep_to_readout_ns, "block_dim": 5, **inputs}

    def invoke(self, dresq, inputs, out_dir):
        _run_cli(dresq["cli"], [
            "chevron", "--target", _ghz(inputs["target"]),
            "--span-mhz", f"{self.span_mhz:g}",
            "--detuning-points", str(self.detuning_points),
            "--tau-max", f"{self.tau_max_ns:g}", "--tau-points", str(self.tau_points),
            "--prep-to-readout", f"{self.prep_to_readout_ns:g}", "--out", str(out_dir),
        ])

    def read(self, result, out_dir):
        rows = _read_csv(out_dir / "chevron.csv")
        estimate = json.loads((out_dir / "geff_estimate.json").read_text())
        g = estimate["g_mhz"]
        return {
            "detunings_mhz": np.array(sorted({float(r["detuning_mhz"]) for r in rows})),
            "taus_ns": np.array([float(r["tau_ns"]) for r in rows[: self.tau_points]]),
            "p1": np.array([float(r["p1"]) for r in rows]).reshape(-1, self.tau_points),
            "below_floor": bool(estimate["below_floor"]),
            "g_mhz": math.nan if g is None else float(g),
            "artifacts": artifact_digest(out_dir),
        }


class EvolveLossy(Workload):
    """Library ``evolve`` on the full 81-dim rotating-wave space, lossy."""

    name = "evolve_lossy"
    work_unit = "simulated ns"
    prep_ns = 0.5
    hold_ns = 2.0
    n_samples = 21
    observed_modes = {"n_a": 0, "n_b": 1, "n_q1": 2, "n_q2": 3}
    tolerances = {
        "times_ns": Tolerance(abs=1e-12),
        **{k: Tolerance(abs=1e-7) for k in observed_modes},
    }

    def inputs(self, variant):
        rng = _rng(self.name, variant)
        q2 = float(rng.uniform(4.580, 4.610))
        return {
            "hold_q1": round(q2 + float(rng.uniform(-0.002, 0.002)), 6),
            "hold_q2": round(q2, 6),
        }

    def work(self, inputs):
        return self.prep_ns + self.hold_ns

    def size(self, inputs):
        return {"dims": [3, 3, 3, 3], "hilbert_dim": 81, "prep_ns": self.prep_ns,
                "hold_ns": self.hold_ns, "n_samples": self.n_samples, **inputs}

    def invoke(self, dresq, inputs, out_dir):
        fock, device, dynamics = dresq["fock"], dresq["device"], dresq["dynamics"]
        params = device.DeviceParams()
        space = fock.HilbertSpace((3, 3, 3, 3))
        bias = device.OperatingPoint(BIAS_Q1, BIAS_Q2)
        hold = device.OperatingPoint(inputs["hold_q1"], inputs["hold_q2"])
        schedule = dynamics.PulseSchedule([
            dynamics.Stage(self.prep_ns, bias, prep="pi_q2"),
            dynamics.Stage(self.hold_ns, hold),
        ])
        observables = {k: fock.number_operator(space, m) for k, m in self.observed_modes.items()}
        return dynamics.evolve(
            params, schedule, dynamics.DensityState.ground(space), space, observables,
            n_samples=self.n_samples, include_counter_rotating=False,
            frame_ghz=inputs["hold_q2"],
        )

    def read(self, series, out_dir):
        outputs = {"times_ns": series.times_ns, **series.expectations}
        outputs["artifacts"] = {
            k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
            for k, v in sorted(outputs.items())
        }
        return outputs


WORKLOADS = {w.name: w for w in (SpectrumDense(), SwitchOff(), Chevron(), EvolveLossy())}


REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def reference_path(workload: str, variant: int) -> Path:
    return REFERENCE_DIR / f"{workload}-v{variant}.npz"


def save_reference(workload: str, variant: int, outputs: dict) -> None:
    arrays = {k: np.asarray(v) for k, v in outputs.items() if k != "artifacts"}
    np.savez_compressed(reference_path(workload, variant), **arrays)


def load_reference(workload: str, variant: int) -> dict:
    with np.load(reference_path(workload, variant), allow_pickle=False) as data:
        return {k: data[k] for k in data.files}
