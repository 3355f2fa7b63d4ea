"""Command-line front end.

One subcommand per reproducible figure-style artifact:

    dresq spectrum  — eigenfrequency ladder along a flux or frequency axis
    dresq geff      — analytic coupling vs. co-tuned frequency, switch-off marked
    dresq gapscan   — qubit-qubit anti-crossing gap at a list of setpoints
    dresq chevron   — vacuum-Rabi population map plus a time-domain g estimate
    dresq fit       — decay / damped-cosine fit of a trace CSV

Every run writes its artifacts plus a manifest.json holding the fully
resolved configuration and a sha256 per artifact. Identical
configuration produces byte-identical CSV/JSON output; SVG
carries no timestamps.

Exit codes: 0 success, 2 configuration error, 3 physics-domain error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericsError, PhysicsError
from .fock import HilbertSpace
from .device import (
    DeviceParams,
    OperatingPoint,
    effective_coupling,
    find_switch_off,
)
from . import spectroscopy, dynamics, fitting, svgplot

DEFAULT_DIMS = (3, 3, 3, 3)

# flux-pulse protocol defaults: qubit 1 parked just under its sweet spot,
# qubit 2 biased well above, interaction point between the resonators
DEFAULT_BIAS_Q1 = 4.637
DEFAULT_BIAS_Q2 = 4.691
DEFAULT_INTERACTION_GHZ = 4.60


def _add_common(parser: argparse.ArgumentParser, dims: bool = True) -> None:
    parser.add_argument("--device", type=Path, default=None,
                        help="device JSON file (defaults to the built-in device)")
    if dims:
        parser.add_argument("--dims", type=int, nargs=4, default=list(DEFAULT_DIMS),
                            metavar=("DA", "DB", "D1", "D2"),
                            help="per-mode truncation dimensions")
    _add_out(parser)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def _load_device(path: Path | None) -> DeviceParams:
    if path is None:
        return DeviceParams()
    if not path.is_file():
        raise ConfigError(f"device file not found: {path}")
    return DeviceParams.from_json(path.read_text())


def _grid(start: float, stop: float, points: int, flag: str) -> np.ndarray:
    if points < 1:
        raise ConfigError(f"{flag} must be at least 1, got {points}")
    return np.linspace(start, stop, points)


def _write_outputs(out_dir: Path, config: dict, artifacts: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for name, content in artifacts.items():
        data = content.encode()
        (out_dir / name).write_bytes(data)
        checksums[name] = hashlib.sha256(data).hexdigest()
    manifest = {"config": config, "artifacts": checksums}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def cmd_spectrum(args) -> int:
    params = _load_device(args.device)
    space = HilbertSpace(args.dims)
    values = _grid(args.start, args.stop, args.points, "--points")
    fixed = OperatingPoint(args.fixed_q1, args.fixed_q2)
    sweep = spectroscopy.sweep_spectrum(
        params, args.axis, values, fixed, space, n_levels=args.levels
    )
    series = {}
    for k in range(sweep.levels.shape[1]):
        series[f"level {k + 1}"] = sweep.levels[:, k]
    svg = svgplot.line_plot(
        sweep.sweep_values, series,
        x_label=f"{args.axis}", y_label="transition frequency (GHz)",
        title="spectrum sweep",
    )
    config = {
        "command": "spectrum", "axis": args.axis, "start": args.start,
        "stop": args.stop, "points": args.points, "levels": args.levels,
        "fixed_q1": args.fixed_q1, "fixed_q2": args.fixed_q2,
        "dims": list(args.dims),
        "device": json.loads(params.to_json()),
    }
    _write_outputs(args.out, config, {"spectrum.csv": sweep.to_csv(), "spectrum.svg": svg})
    return 0


def cmd_geff(args) -> int:
    params = _load_device(args.device)
    space = HilbertSpace(args.dims)
    freqs = _grid(args.start, args.stop, args.points, "--points")
    switch_off = find_switch_off(params, (args.start, args.stop))
    rows = ["freq_ghz,geff_mhz,ed_half_gap_mhz"]
    geffs, half_gaps = [], []
    for f in freqs:
        g_mhz = effective_coupling(params, OperatingPoint(f, f)) * 1e3
        hg = spectroscopy.cotuned_half_gap(params, f, space)
        geffs.append(g_mhz)
        half_gaps.append(hg)
        rows.append(f"{f:.9f},{g_mhz:.6f},{hg:.6f}")
    table = "\n".join(rows) + "\n"
    svg = svgplot.line_plot(
        freqs,
        {"analytic g_eff (MHz)": np.array(geffs), "ED half gap (MHz)": np.array(half_gaps)},
        x_label="co-tuned qubit frequency (GHz)", y_label="coupling (MHz)",
        title="effective coupling vs. frequency",
        markers={f"switch-off {switch_off:.4f}": switch_off},
    )
    summary = json.dumps({"switch_off_ghz": switch_off}, indent=2) + "\n"
    config = {
        "command": "geff", "start": args.start, "stop": args.stop,
        "points": args.points, "dims": list(args.dims),
        "device": json.loads(params.to_json()),
    }
    _write_outputs(args.out, config, {
        "geff.csv": table, "geff.svg": svg, "switch_off.json": summary,
    })
    return 0


def cmd_gapscan(args) -> int:
    params = _load_device(args.device)
    space = HilbertSpace(args.dims)
    results, errors = spectroscopy.gap_vs_setpoint(params, args.setpoints, space)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["setpoint_ghz", "gap_mhz", "location_ghz", "error"])
    xs, ys = [], []
    for sp, res, err in zip(args.setpoints, results, errors):
        if res is not None:
            writer.writerow([f"{sp:.9f}", f"{res.gap_mhz:.6f}", f"{res.location_ghz:.9f}", ""])
            xs.append(sp)
            ys.append(res.gap_mhz)
        else:
            writer.writerow([f"{sp:.9f}", "", "", err])
    if xs:
        svg = svgplot.line_plot(
            np.array(xs), {"anti-crossing gap (MHz)": np.array(ys)},
            x_label="qubit-2 setpoint (GHz)", y_label="gap (MHz)", title="gap scan",
        )
    else:
        svg = svgplot.line_plot(np.array([0.0, 1.0]), {"no data": np.array([0.0, 0.0])},
                                x_label="setpoint", y_label="gap (MHz)")
    config = {
        "command": "gapscan", "setpoints": list(args.setpoints),
        "dims": list(args.dims),
        "device": json.loads(params.to_json()),
    }
    _write_outputs(args.out, config, {"gaps.csv": buf.getvalue(), "gaps.svg": svg})
    return 0


def cmd_chevron(args) -> int:
    params = _load_device(args.device)
    taus = _grid(0.0, args.tau_max, args.tau_points, "--tau-points")
    offsets = _grid(-args.span_mhz, args.span_mhz, args.detuning_points, "--detuning-points")
    bias = OperatingPoint(args.bias_q1, args.bias_q2)
    chev = dynamics.vacuum_rabi_chevron(
        params, bias, args.target, offsets, taus,
        prep_to_readout_ns=args.prep_to_readout,
        dissipation=not args.no_dissipation,
    )
    estimate = fitting.geff_from_chevron(chev)
    # the analytic formula has no g_ab path: report no value, not a wrong one
    analytic_mhz = None if params.g_ab != 0.0 else effective_coupling(
        params, OperatingPoint(args.target, args.target)
    ) * 1e3
    verdict = dict(json.loads(estimate.to_json()))
    verdict["analytic_geff_mhz"] = analytic_mhz
    svg = svgplot.heatmap(
        chev.detunings_mhz, chev.taus_ns, chev.p1,
        x_label="detuning (MHz)", y_label="interaction time (ns)",
        title="vacuum-Rabi chevron (qubit-1 population)",
    )
    config = {
        "command": "chevron", "target": args.target,
        "bias_q1": args.bias_q1, "bias_q2": args.bias_q2,
        "span_mhz": args.span_mhz, "detuning_points": args.detuning_points,
        "tau_max": args.tau_max, "tau_points": args.tau_points,
        "prep_to_readout": args.prep_to_readout,
        "dissipation": not args.no_dissipation,
        "device": json.loads(params.to_json()),
    }
    _write_outputs(args.out, config, {
        "chevron.csv": chev.to_csv(),
        "chevron.svg": svg,
        "geff_estimate.json": json.dumps(verdict, indent=2, sort_keys=True) + "\n",
    })
    return 0


def cmd_fit(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.is_file():
        raise ConfigError(f"trace file not found: {trace_path}")
    trace = fitting.TimeTrace.from_csv(trace_path.read_text())
    if args.model == "exp":
        outcome = fitting.fit_exp_decay(trace)
    else:
        outcome = fitting.fit_damped_cosine(trace)
    config = {"command": "fit", "model": args.model, "trace": str(trace_path)}
    _write_outputs(args.out, config, {"fit.json": outcome.to_json()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dresq",
        description="two-qubit double-resonator tunable-coupler simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenfrequency sweep along one control axis")
    _add_common(p)
    p.add_argument("--axis", choices=spectroscopy.SWEEP_AXES, default="freq_1")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--fixed-q1", type=float, default=DEFAULT_BIAS_Q1)
    p.add_argument("--fixed-q2", type=float, default=DEFAULT_BIAS_Q2)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("geff", help="analytic coupling vs. co-tuned frequency")
    _add_common(p)
    p.add_argument("--start", type=float, default=4.52)
    p.add_argument("--stop", type=float, default=4.76)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=cmd_geff)

    p = sub.add_parser("gapscan", help="anti-crossing gap at a list of setpoints")
    _add_common(p)
    p.add_argument("--setpoints", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_gapscan)

    p = sub.add_parser("chevron", help="vacuum-Rabi chevron plus coupling estimate")
    _add_common(p, dims=False)
    p.add_argument("--target", type=float, default=DEFAULT_INTERACTION_GHZ,
                   help="interaction-point frequency, GHz")
    p.add_argument("--bias-q1", type=float, default=DEFAULT_BIAS_Q1)
    p.add_argument("--bias-q2", type=float, default=DEFAULT_BIAS_Q2)
    p.add_argument("--span-mhz", type=float, default=20.0)
    p.add_argument("--detuning-points", type=int, default=41)
    p.add_argument("--tau-max", type=float, default=2000.0)
    p.add_argument("--tau-points", type=int, default=201)
    p.add_argument("--prep-to-readout", type=float, default=None,
                   help="fixed prep-to-readout delay, ns (padding at the bias point)")
    p.add_argument("--no-dissipation", action="store_true")
    p.set_defaults(func=cmd_chevron)

    p = sub.add_parser("fit", help="fit a trace CSV")
    _add_out(p)
    p.add_argument("--model", choices=("exp", "cosine"), required=True)
    p.add_argument("trace", help="CSV file with columns time_ns,value[,uncertainty]")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
