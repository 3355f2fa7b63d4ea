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
carries no timestamps. An artifact that already exists is overwritten in
place and then cut to its new length, and the manifest is written last:
an interrupted run can leave a file, new bytes over an old tail among
them, whose sha256 does not match the manifest.

Exit codes: 0 success, 2 configuration error, 3 physics-domain error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, NumericsError, PhysicsError, require_count, require_memory, require_number,
)
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

# peak bytes a point of geff: its three float64 arrays (24) and the text of its
# CSV rows and SVG polylines, which peaks at 313-317 bytes a point (measured at
# 1,000-200,000 points) and widens by at most 12 with the widest numbers
GEFF_POINT_BYTES = 352

# peak bytes a line of a trace file adds to `dresq fit` beyond three copies of
# its text (the text, its lines and their stripped fields): 131-168 for the
# parse's line, field and float objects, then 16-24 for the parsed arrays and
# 168-171 for the exp fit or 352 for the cosine one (tracemalloc, 20,000-200,000
# lines of 17-59 bytes)
TRACE_LINE_BYTES = 384

# the characters str.splitlines breaks at, so their count bounds a text's lines
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _add_common(parser: argparse.ArgumentParser, dims: bool = True) -> None:
    parser.add_argument("--device", type=Path, default=None,
                        help="device JSON file (defaults to the built-in device)")
    if dims:
        parser.add_argument("--dims", type=int, nargs=4, default=DEFAULT_DIMS,
                            metavar=("DA", "DB", "D1", "D2"),
                            help="per-mode truncation dimensions")
    _add_out(parser)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of the input file ``path``; ConfigError if it cannot be
    read or, before it is read, if its bytes and their text would exceed
    ``errors.MEMORY_LIMIT``."""
    try:
        with open(path, encoding="utf-8") as f:
            size = os.fstat(f.fileno()).st_size
            # reading holds the bytes and their text, as long as the bytes when ASCII
            require_memory(2 * size, f"{what} {path} of {size} bytes")
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _load_device(path: Path | None) -> DeviceParams:
    if path is None:
        return DeviceParams()
    return DeviceParams.from_json(_read_text(path, "device file"))


def _load_trace(path: Path) -> fitting.TimeTrace:
    """The trace in the CSV file ``path``; ConfigError, before it is parsed,
    if three copies of its text and TRACE_LINE_BYTES a line would exceed
    ``errors.MEMORY_LIMIT``."""
    text = _read_text(path, "trace file")
    lines = 1 + sum(map(text.count, LINE_BREAKS))
    require_memory(3 * sys.getsizeof(text) + TRACE_LINE_BYTES * lines,
                   f"a trace file of {lines} lines")
    return fitting.TimeTrace.from_csv(text)


def _grid(start: float, stop: float, points: int, flags: tuple[str, str, str],
          minimum: int = 1, point_bytes: int = 8) -> np.ndarray:
    """At least ``minimum`` evenly spaced values; ``flags`` names the options
    of start, stop and points. ConfigError, before the grid is built, if
    ``point_bytes`` a point, the grid's own 8 or what a command holds per
    point, would exceed ``errors.MEMORY_LIMIT``."""
    start, stop = (require_number(v, f) for v, f in zip((start, stop), flags))
    points = require_count(points, flags[2], minimum)
    require_memory(point_bytes * points, f"a {flags[2]} grid of {points} points")
    return np.linspace(start, stop, points)


def _write_file(path: Path, data: bytes) -> None:
    """Write ``data`` over the bytes of the file ``path``, then cut it to
    their length; a new file gets the mode ``Path.write_bytes`` gives it.
    Rewritten this way, a 3 KB file on ext4 (2-core VM) takes about 7 µs,
    against about 100 µs when the open truncates it: ext4 flushes a file
    its open truncated when it is closed."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_outputs(args, artifacts: dict[str, str | bytearray],
                   params: DeviceParams | None = None) -> None:
    """Write the artifacts, text encoded as UTF-8 and a byte buffer as it is,
    and then a manifest of them, each through :func:`_write_file`. Its
    config is every parsed option but ``out`` and ``device`` (a path is
    written as text), plus the resolved device parameters when the command
    has a device. An output directory that
    cannot be made or written is a ConfigError naming it."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "device")}
    if params is not None:
        config["device"] = params.to_dict()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        checksums = {}
        for name, content in artifacts.items():
            data = content.encode() if isinstance(content, str) else content
            _write_file(args.out / name, data)
            checksums[name] = hashlib.sha256(data).hexdigest()
        manifest = {"config": config, "artifacts": checksums}
        _write_file(args.out / "manifest.json",
                    (json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n").encode())
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {args.out}: {exc}") from None


def cmd_spectrum(args) -> int:
    params = _load_device(args.device)
    space = HilbertSpace(args.dims)
    values = _grid(args.start, args.stop, args.points, ("--start", "--stop", "--points"))
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
    _write_outputs(args, {"spectrum.csv": sweep.to_csv(), "spectrum.svg": svg}, params)
    return 0


def cmd_geff(args) -> int:
    params = _load_device(args.device)
    space = HilbertSpace(args.dims)
    freqs = _grid(args.start, args.stop, args.points, ("--start", "--stop", "--points"),
                  point_bytes=GEFF_POINT_BYTES)
    switch_off = find_switch_off(params, (args.start, args.stop))
    geffs = effective_coupling(params, freqs) * 1e3
    half_gaps = spectroscopy.cotuned_half_gap(params, freqs, space)
    rows = ["freq_ghz,geff_mhz,ed_half_gap_mhz"]
    rows += [f"{f:.9f},{g:.6f},{hg:.6f}" for f, g, hg in zip(freqs, geffs, half_gaps)]
    table = "\n".join(rows) + "\n"
    svg = svgplot.line_plot(
        freqs,
        {"analytic g_eff (MHz)": geffs, "ED half gap (MHz)": half_gaps},
        x_label="co-tuned qubit frequency (GHz)", y_label="coupling (MHz)",
        title="effective coupling vs. frequency",
        markers={f"switch-off {switch_off:.4f}": switch_off},
    )
    summary = json.dumps({"switch_off_ghz": switch_off}, indent=2) + "\n"
    _write_outputs(args, {
        "geff.csv": table, "geff.svg": svg, "switch_off.json": summary,
    }, params)
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
    _write_outputs(args, {"gaps.csv": buf.getvalue(), "gaps.svg": svg}, params)
    return 0


def cmd_chevron(args) -> int:
    params = _load_device(args.device)
    # every column's trace is fitted, so the grid needs the points a fit needs
    taus = _grid(0.0, args.tau_max, args.tau_points, ("--tau-max", "--tau-max", "--tau-points"),
                 fitting.MIN_POINTS)
    offsets = _grid(-args.span_mhz, args.span_mhz, args.detuning_points,
                    ("--span-mhz", "--span-mhz", "--detuning-points"))
    # every column is fitted and the map written as CSV: both are counted
    # before anything is propagated
    fitting.require_fits_memory(offsets.size, taus.size)
    dynamics.require_csv_memory((offsets.size, taus.size))
    bias = OperatingPoint(args.bias_q1, args.bias_q2)
    # a lossless run is one with infinite lifetimes; the manifest keeps the device as given
    lifetimes = {f"t{k}_qubit{q}": math.inf for k in (1, 2) for q in (1, 2)}
    chev = dynamics.vacuum_rabi_chevron(
        params if args.dissipation else params.replace(**lifetimes),
        bias, args.target, offsets, taus, prep_to_readout_ns=args.prep_to_readout,
    )
    estimate = fitting.geff_from_chevron(chev)
    # the analytic formula has no g_ab path: report no value, not a wrong one
    analytic_mhz = None if params.g_ab != 0.0 else effective_coupling(
        params, OperatingPoint(args.target, args.target)
    ) * 1e3
    verdict = estimate.to_dict()
    verdict["analytic_geff_mhz"] = analytic_mhz
    svg = svgplot.heatmap(
        chev.detunings_mhz, chev.taus_ns, chev.p1,
        x_label="detuning (MHz)", y_label="interaction time (ns)",
        title="vacuum-Rabi chevron (qubit-1 population)",
    )
    _write_outputs(args, {
        "chevron.csv": chev.to_csv(),
        "chevron.svg": svg,
        "geff_estimate.json": json.dumps(verdict, indent=2, sort_keys=True) + "\n",
    }, params)
    return 0


def cmd_fit(args) -> int:
    trace = _load_trace(args.trace)
    if args.model == "exp":
        outcome = fitting.fit_exp_decay(trace)
    else:
        outcome = fitting.fit_damped_cosine(trace)
    _write_outputs(args, {"fit.json": outcome.to_json()})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args`` leaves it unchanged."""
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

    p = sub.add_parser("geff", help="analytic coupling vs. co-tuned frequency")
    _add_common(p)
    p.add_argument("--start", type=float, default=4.52)
    p.add_argument("--stop", type=float, default=4.76)
    p.add_argument("--points", type=int, default=50)

    p = sub.add_parser("gapscan", help="anti-crossing gap at a list of setpoints")
    _add_common(p)
    p.add_argument("--setpoints", type=float, nargs="+", required=True)

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
    p.add_argument("--no-dissipation", dest="dissipation", action="store_false")

    p = sub.add_parser("fit", help="fit a trace CSV")
    _add_out(p)
    p.add_argument("--model", choices=("exp", "cosine"), required=True)
    p.add_argument("trace", type=Path, help="CSV file with columns time_ns,value[,uncertainty]")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a command patched on the module is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
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
