import base64
import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import svg_coordinates
from dresq.cli import main
from dresq.device import DeviceParams
from dresq.errors import ConfigError
from dresq.fock import HilbertSpace


def run(args):
    return main([str(a) for a in args])


def child_env():
    """The environment of a child process that imports this checkout's dresq."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_a_second_call_in_one_process_writes_a_fresh_process_manifest(tmp_path):
    # the parser is built once per process: the --dims of one call must not
    # leak into the default of the next
    assert run(["geff", "--points", 5, "--dims", 2, 2, 2, 2, "--out", tmp_path / "first"]) == 0
    assert run(["geff", "--points", 5, "--out", tmp_path / "second"]) == 0
    subprocess.run(
        [sys.executable, "-m", "dresq.cli", "geff", "--points", "5", "--out", str(tmp_path / "fresh")],
        check=True, env=child_env(), timeout=120,
    )
    second = (tmp_path / "second" / "manifest.json").read_bytes()
    assert json.loads(second)["config"]["dims"] == [3, 3, 3, 3]
    assert second == (tmp_path / "fresh" / "manifest.json").read_bytes()


def test_main_runs_the_command_bound_on_the_module_at_call_time(tmp_path, monkeypatch):
    from dresq import cli

    assert run(["geff", "--points", 2, "--out", tmp_path / "a"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_geff", lambda args: seen.append(args.points) or 7)
    assert run(["geff", "--points", 3, "--out", tmp_path / "b"]) == 7
    assert seen == [3]


def test_spectrum_decoupled_straight_lines(tmp_path):
    device = tmp_path / "device.json"
    device.write_text(json.dumps({
        "g_a1": 0, "g_a2": 0, "g_b1": 0, "g_b2": 0, "g_ab": 0, "g_12": 0,
    }))
    out = tmp_path / "spec"
    code = run(["spectrum", "--device", device, "--axis", "freq_1",
                "--start", 4.40, "--stop", 4.55, "--points", 31,
                "--levels", "4", "--out", out])
    assert code == 0
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "sweep_value,freq_ghz,label,overlap"
    q1 = [r.split(",") for r in rows[1:] if r.split(",")[2] == "q1"]
    for r in q1:
        assert float(r[1]) == pytest.approx(float(r[0]), abs=1e-9)
    svg = (out / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_spectrum_paper_device_crossings(tmp_path):
    out = tmp_path / "spec"
    code = run(["spectrum", "--axis", "freq_2", "--start", 4.40, "--stop", 4.86,
                "--points", 301, "--levels", "5", "--out", out])
    assert code == 0
    rows = [r.split(",") for r in (out / "spectrum.csv").read_text().splitlines()[1:]]
    # qubit 2 sweeps through both resonators: both gaps appear
    def min_sep(tag_a, tag_b):
        best = math.inf
        by_sweep = {}
        for sv, f, label, _ in rows:
            by_sweep.setdefault(sv, {})[label] = float(f)
        for labels in by_sweep.values():
            if tag_a in labels and tag_b in labels:
                best = min(best, abs(labels[tag_a] - labels[tag_b]))
        return best * 1e3

    assert min_sep("a", "q2") < 75.0
    assert min_sep("b", "q2") < 80.0


def test_spectrum_artifacts_do_not_depend_on_the_slice_budget(tmp_path, monkeypatch):
    from dresq import spectroscopy

    argv = ["spectrum", "--axis", "freq_2", "--start", 4.40, "--stop", 4.86,
            "--points", 13, "--dims", 4, 4, 4, 4]
    assert run(argv + ["--out", tmp_path / "default"]) == 0
    # three members of a 128-state parity block per slice
    monkeypatch.setattr(spectroscopy, "STACK_SLICE_BYTES", 3 * 16 * 128**2)
    assert run(argv + ["--out", tmp_path / "sliced"]) == 0
    artifacts = [json.loads((tmp_path / d / "manifest.json").read_text())["artifacts"]
                 for d in ("default", "sliced")]
    assert artifacts[0] == artifacts[1]


def test_geff_outputs(tmp_path):
    out = tmp_path / "geff"
    code = run(["geff", "--out", out])
    assert code == 0
    rows = (out / "geff.csv").read_text().splitlines()
    assert rows[0] == "freq_ghz,geff_mhz,ed_half_gap_mhz"
    assert len(rows) == 51
    marker = json.loads((out / "switch_off.json").read_text())
    assert 4.60 < marker["switch_off_ghz"] < 4.66
    # sign change bracketed in the table
    gvals = [float(r.split(",")[1]) for r in rows[1:]]
    assert min(gvals) < 0 < max(gvals)


def test_geff_g12_zero_still_crosses(tmp_path):
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"g_12": 0.0}))
    out = tmp_path / "geff"
    assert run(["geff", "--device", device, "--out", out]) == 0
    marker = json.loads((out / "switch_off.json").read_text())
    assert 4.47 < marker["switch_off_ghz"] < 4.80


def test_geff_with_resonator_resonator_coupling_exit_2(tmp_path):
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"g_ab": 0.01}))
    assert run(["geff", "--device", device, "--out", tmp_path / "g"]) == 2


def test_geff_interval_outside_band_exit_3(tmp_path):
    assert run(["geff", "--start", 4.85, "--stop", 4.88,
                "--out", tmp_path / "x"]) == 3


def test_gapscan(tmp_path):
    out = tmp_path / "gaps"
    code = run(["gapscan", "--setpoints", 4.58, 4.60, 4.62, "--out", out])
    assert code == 0
    rows = (out / "gaps.csv").read_text().splitlines()
    assert rows[0] == "setpoint_ghz,gap_mhz,location_ghz,error"
    gaps = [float(r.split(",")[1]) for r in rows[1:]]
    assert gaps[0] > gaps[1] > gaps[2]
    # setpoints across the switch-off, and two refused 80 MHz from a
    # resonator: every row is pinned byte for byte
    out = tmp_path / "pinned"
    setpoints = [4.55, 4.58, 4.60, 4.62, 4.625, 4.64, 4.66, 4.70]
    assert run(["gapscan", "--setpoints", *setpoints, "--out", out]) == 0
    assert (out / "gaps.csv").read_text().splitlines()[1:] == [
        "4.550000000,,,qubit-2 setpoint 4.55 GHz is 80.0 MHz from resonator a "
        "(needs 90.0 MHz clearance)",
        "4.580000000,5.721648,4.580425935,",
        "4.600000000,3.302859,4.600212904,",
        "4.620000000,1.102294,4.620066175,",
        "4.625000000,0.568160,4.625033885,",
        "4.640000000,1.030179,4.639938149,",
        "4.660000000,3.229740,4.659792189,",
        "4.700000000,,,sweep endpoint 4.72 GHz is 80.0 MHz from resonator b "
        "(needs 90.0 MHz clearance)",
    ]


def test_chevron_outputs_and_determinism(tmp_path):
    args = ["chevron", "--target", 4.60, "--tau-max", 600, "--tau-points", 61,
            "--span-mhz", 12, "--detuning-points", 13]
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    b1 = (out1 / "chevron.csv").read_bytes()
    assert b1 == (out2 / "chevron.csv").read_bytes()
    assert (out1 / "chevron.svg").read_bytes() == (out2 / "chevron.svg").read_bytes()
    assert (out1 / "geff_estimate.json").read_bytes() == (out2 / "geff_estimate.json").read_bytes()
    # manifest checksum matches the artifact
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["artifacts"]["chevron.csv"] == hashlib.sha256(b1).hexdigest()
    assert "device" in manifest["config"]


@pytest.mark.parametrize("extra", [[], ["--no-dissipation"], ["--prep-to-readout", 2500]],
                         ids=["lossy", "lossless", "prep-to-readout"])
def test_chevron_csv_on_disk_is_the_f_string_text_of_its_map(tmp_path, monkeypatch, extra):
    # the bytes written are those of the map the command built, cell by cell
    from dresq import dynamics

    maps = []

    def spy(*args, **kwargs):
        maps.append(chevron(*args, **kwargs))
        return maps[-1]

    chevron = dynamics.vacuum_rabi_chevron
    monkeypatch.setattr(dynamics, "vacuum_rabi_chevron", spy)
    out = tmp_path / "c"
    assert run(["chevron", "--target", 4.593, "--out", out] + extra) == 0
    [chev] = maps
    expected = "detuning_mhz,tau_ns,p1\n" + "".join(
        f"{d:.9g},{t:.9g},{p:.9f}\n"
        for d, row in zip(chev.detunings_mhz, chev.p1) for t, p in zip(chev.taus_ns, row.tolist()))
    assert (out / "chevron.csv").read_bytes() == expected.encode()


def test_chevron_csv_is_the_bytes_of_one_to_csv_call(tmp_path, monkeypatch):
    # the command writes chevron.csv from ChevronMap.to_csv, called once
    from dresq.dynamics import ChevronMap

    returned = []
    real = ChevronMap.to_csv
    monkeypatch.setattr(ChevronMap, "to_csv",
                        lambda self: returned.append(real(self)) or returned[-1])
    out = tmp_path / "c"
    assert run(["chevron", "--tau-max", 600, "--tau-points", 61, "--span-mhz", 12,
                "--detuning-points", 13, "--out", out]) == 0
    assert len(returned) == 1
    assert (out / "chevron.csv").read_bytes() == returned[0]


def test_spectrum_over_a_span_of_one_ulp_finishes_with_finite_coordinates(tmp_path):
    # a sweep from 4.5 to the next float: its axis ticks step by less than
    # the float spacing at 4.5, and the command must still return. The child
    # runs on one BLAS thread in 1 GiB of address space, so a tick loop that
    # never ends fails there rather than filling the machine's memory
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    out = tmp_path / "d"
    done = subprocess.run(
        [sys.executable, "-m", "dresq.cli", "spectrum", "--axis", "freq_2", "--start", "4.5",
         "--stop", "4.500000000000001", "--points", "2", "--dims", "2", "2", "2", "2",
         "--out", str(out)],
        env=dict(child_env(), OPENBLAS_NUM_THREADS="1"), preexec_fn=cap_memory, timeout=60,
    )
    assert done.returncode == 0
    values = svg_coordinates((out / "spectrum.svg").read_text())
    assert values and all(math.isfinite(v) for v in values)


def test_every_svg_is_well_formed_xml_and_the_chevron_one_image(tmp_path):
    runs = [["spectrum", "--start", 4.40, "--stop", 4.55, "--points", 11],
            ["geff", "--points", 5], ["gapscan", "--setpoints", 4.58, 4.60], ["chevron"]]
    for argv in runs:
        assert run(argv + ["--out", tmp_path / argv[0]]) == 0
    svgs = sorted(tmp_path.glob("*/*.svg"))
    assert [p.name for p in svgs] == ["chevron.svg", "gaps.svg", "geff.svg", "spectrum.svg"]
    trees = {p.name: ET.parse(p).getroot() for p in svgs}
    images = trees["chevron.svg"].findall("{http://www.w3.org/2000/svg}image")
    assert len(images) == 1
    href = images[0].get("{http://www.w3.org/1999/xlink}href")
    png = base64.b64decode(href.removeprefix("data:image/png;base64,"))
    # IHDR is the first chunk: 41 detuning columns by 201 interaction times
    assert png[12:16] == b"IHDR" and struct.unpack(">II", png[16:24]) == (41, 201)


def test_chevron_manifest_of_a_lossless_device_is_strict_json(tmp_path):
    # null lifetimes in the device file stay null in the manifest, not Infinity
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"t1_qubit1": None, "t2_qubit1": None}))
    out = tmp_path / "chev"
    assert run(["chevron", "--device", device, "--tau-max", 300, "--tau-points", 31,
                "--detuning-points", 5, "--out", out]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["config"]["device"]["t1_qubit1"] is None
    assert manifest["config"]["device"]["t2_qubit1"] is None


@pytest.mark.parametrize("device", [
    {}, {"t1_qubit1": None, "t2_qubit1": None, "resonator_freq_a": 4, "g_ab": 0, "g_12": 1e-3},
], ids=["default", "null-lifetimes-and-ints"])
def test_manifest_device_is_the_device_json_read_back(tmp_path, device):
    # the manifest writes the fields as they are, byte for byte what parsing
    # the device's own JSON back would give: ints stay ints, null stays null
    path = tmp_path / "device.json"
    path.write_text(json.dumps(device))
    out = tmp_path / "gap"
    assert run(["gapscan", "--setpoints", 4.58, "--device", path, "--out", out]) == 0
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    manifest["config"]["device"] = json.loads(DeviceParams.from_json(json.dumps(device)).to_json())
    assert json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n" == text
    assert manifest["config"]["device"]["resonator_freq_a"] == device.get("resonator_freq_a", 4.47)


def test_no_dissipation_is_a_device_with_infinite_lifetimes(tmp_path):
    args = ["chevron", "--tau-max", 600, "--tau-points", 61, "--detuning-points", 9,
            "--prep-to-readout", 800]
    lifetimes = ("t1_qubit1", "t1_qubit2", "t2_qubit1", "t2_qubit2")
    device = tmp_path / "device.json"
    device.write_text(json.dumps(dict.fromkeys(lifetimes)))
    flag, lossless = tmp_path / "flag", tmp_path / "lossless"
    assert run(args + ["--no-dissipation", "--out", flag]) == 0
    assert run(args + ["--device", device, "--out", lossless]) == 0
    for name in ("chevron.csv", "geff_estimate.json"):
        assert (flag / name).read_bytes() == (lossless / name).read_bytes()
    config = json.loads((flag / "manifest.json").read_text())["config"]
    assert config["dissipation"] is False
    assert config["device"] == json.loads(DeviceParams().to_json())
    assert config["device"]["t1_qubit1"] == 10.0


def test_chevron_estimate_consistent_with_analytic(tmp_path):
    # clean synthetic device: the time-domain estimate closes the loop
    device = tmp_path / "device.json"
    device.write_text(json.dumps({
        "g_a1": 0, "g_a2": 0, "g_b1": 0, "g_b2": 0, "g_12": 0.003,
    }))
    out = tmp_path / "chev"
    assert run(["chevron", "--device", device, "--target", 4.60,
                "--tau-max", 1500, "--tau-points", 151,
                "--span-mhz", 15, "--detuning-points", 21, "--out", out]) == 0
    verdict = json.loads((out / "geff_estimate.json").read_text())
    assert not verdict["below_floor"]
    assert verdict["g_mhz"] == pytest.approx(verdict["analytic_geff_mhz"], rel=0.1)


def test_chevron_with_resonator_resonator_coupling_has_no_analytic_value(tmp_path):
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"g_ab": 0.01}))
    out = tmp_path / "chev"
    assert run(["chevron", "--device", device, "--tau-max", 300, "--tau-points", 31,
                "--detuning-points", 5, "--out", out]) == 0
    verdict = json.loads((out / "geff_estimate.json").read_text())
    assert verdict["analytic_geff_mhz"] is None


def test_chevron_below_floor_at_switch_off(tmp_path):
    from dresq.device import DeviceParams, find_switch_off

    root = find_switch_off(DeviceParams(), (4.50, 4.77))
    out = tmp_path / "chev"
    assert run(["chevron", "--target", root, "--tau-max", 2000,
                "--tau-points", 101, "--span-mhz", 15,
                "--detuning-points", 15, "--out", out]) == 0
    verdict = json.loads((out / "geff_estimate.json").read_text())
    assert verdict["below_floor"]


@pytest.mark.parametrize("argv", [
    pytest.param(["chevron", "--tau-points", "1"], id="chevron-tau-points-1"),
    pytest.param(["chevron", "--tau-max", "nan"], id="chevron-tau-max-nan"),
    pytest.param(["chevron", "--prep-to-readout", "nan"], id="chevron-prep-to-readout-nan"),
    pytest.param(["chevron", "--tau-max", "inf"], id="chevron-tau-max-inf"),
    pytest.param(["chevron", "--span-mhz", "inf"], id="chevron-span-mhz-inf"),
    pytest.param(["chevron", "--span-mhz", "-20", "--detuning-points", "11",
                  "--tau-points", "51"], id="chevron-span-mhz-negative"),
    pytest.param(["chevron", "--span-mhz", "0", "--detuning-points", "3"],
                 id="chevron-span-mhz-zero"),
    pytest.param(["geff", "--stop", "inf"], id="geff-stop-inf"),
    pytest.param(["spectrum", "--start", "4.4", "--stop", "inf"], id="spectrum-stop-inf"),
    pytest.param(["spectrum", "--start", "4.4", "--stop", "4.5", "--points", "-1"],
                 id="spectrum-points-negative"),
    pytest.param(["geff", "--points", "0"], id="geff-points-0"),
    pytest.param(["geff", "--points", "-3"], id="geff-points-negative"),
    pytest.param(["geff", "--points", "10000000000000"], id="geff-points-beyond-memory"),
])
def test_malformed_grid_exit_2(tmp_path, argv):
    assert run(argv + ["--out", tmp_path / "x"]) == 2
    assert not (tmp_path / "x").exists()


def test_chevron_tau_points_below_a_fit_exit_2_before_propagating(tmp_path, monkeypatch, capsys):
    # every column is fitted, and a fit needs MIN_POINTS points: a shorter τ
    # grid is refused naming its flag, before the chevron is propagated
    from dresq import dynamics, fitting

    calls = []
    monkeypatch.setattr(dynamics, "vacuum_rabi_chevron", lambda *a, **k: calls.append(a))
    for points in (2, fitting.MIN_POINTS - 1):
        assert run(["chevron", "--tau-points", points, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert f"--tau-points must be an integer of at least {fitting.MIN_POINTS}" in err
    assert calls == []
    assert not (tmp_path / "x").exists()


def test_chevron_population_out_of_range_exit_4(tmp_path, monkeypatch, capsys):
    # a cell reading 1.2 with its trace intact is a numerical failure, not a
    # population to clip
    from dresq import dynamics

    real = dynamics._propagate

    def broken(*args, **kwargs):
        times, readings, final = real(*args, **kwargs)
        readings[2, 1, 5] = 1.2
        return times, readings, final

    monkeypatch.setattr(dynamics, "_propagate", broken)
    assert run(["chevron", "--tau-points", 21, "--detuning-points", 5,
                "--out", tmp_path / "x"]) == 4
    assert "population outside [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_command(tmp_path):
    t = np.linspace(0, 1000, 200)
    y = 0.5 * np.exp(-t / 800.0) * np.cos(2 * math.pi * 0.006 * t + 0.3) + 0.2
    trace = tmp_path / "trace.csv"
    trace.write_text("time_ns,value\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y)))
    out = tmp_path / "fit"
    assert run(["fit", "--model", "cosine", "--out", out, trace]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["estimates"]["frequency_per_ns"] == pytest.approx(0.006, rel=0.01)


@pytest.mark.parametrize("model", ["exp", "cosine"])
def test_fit_huge_trace_values_exit_2(tmp_path, model):
    # unrefused, the exp fit overflows here and writes "residual_rms": Infinity
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{t},{1e300 * math.exp(-t / 5)}\n" for t in range(40)))
    assert run(["fit", "--model", model, "--out", tmp_path / "f", trace]) == 2
    assert not (tmp_path / "f").exists()


def test_fit_missing_trace_exit_2(tmp_path):
    assert run(["fit", "--model", "exp", "--out", tmp_path / "f",
                tmp_path / "missing.csv"]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_non_finite_trace_exit_2(tmp_path, bad):
    rows = [f"{t},{math.cos(0.3 * t)}" for t in range(20)]
    rows[7] = f"7,{bad}"
    trace = tmp_path / "trace.csv"
    trace.write_text("time_ns,value\n" + "\n".join(rows) + "\n")
    assert run(["fit", "--model", "cosine", "--out", tmp_path / "f", trace]) == 2
    assert not (tmp_path / "f").exists()


def test_gapscan_error_text_round_trips(tmp_path, monkeypatch):
    from dresq import cli, spectroscopy

    real = spectroscopy.gap_vs_setpoint
    message = 'no "qubit" pair, or none resolved'

    def second_fails(params, setpoints, space):
        results, errors = real(params, setpoints, space)
        results[1], errors[1] = None, message
        return results, errors

    monkeypatch.setattr(cli.spectroscopy, "gap_vs_setpoint", second_fails)
    out = tmp_path / "gaps"
    assert run(["gapscan", "--setpoints", 4.58, 4.60, "--out", out]) == 0
    text = (out / "gaps.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["setpoint_ghz", "gap_mhz", "location_ghz", "error"]
    assert rows[2] == ["4.600000000", "", "", message]
    # a resolved setpoint keeps its row: fixed-point fields, empty error
    line = text.splitlines()[1]
    assert line.startswith("4.580000000,") and line.endswith(",")
    assert line.count(",") == 3


# a setpoint that is not finite, whose scan window (± 20 MHz) reaches 0 GHz,
# or too large for float64 to resolve 1e-9 GHz in that window (1e7 and 1e12 GHz)
@pytest.mark.parametrize("bad", ["nan", "inf", "-4.6", "0.01", "10000000", "1000000000000"])
def test_gapscan_non_finite_setpoint_exit_2(tmp_path, capsys, bad):
    assert run(["gapscan", "--setpoints", 4.60, bad, "--out", tmp_path / "g"]) == 2
    err = capsys.readouterr().err
    assert "qubit-2 setpoint" in err and bad in err
    assert not (tmp_path / "g").exists()


def test_gapscan_model_beyond_the_memory_limit_exit_2(tmp_path, capsys):
    # every setpoint is admitted, so a refused 8^4 model is the configuration's
    # fault: it exits 2, not 0 with the refusal written into each gaps.csv row
    out = tmp_path / "g"
    assert run(["gapscan", "--setpoints", 4.58, 4.60, "--dims", 8, 8, 8, 8, "--out", out]) == 2
    assert "4096-state device model needs" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_beyond_the_memory_limit_exit_2_before_allocating(tmp_path, capsys):
    # 300,000 points at 3^4 need 829 MiB: four words an eigenpair (eigenvalue,
    # dominant state, weight, rank) and five for each of the 6 reported levels
    tracemalloc.start()
    try:
        code = run(["spectrum", "--start", 4.40, "--stop", 4.86, "--points", 300_000,
                    "--out", tmp_path / "s"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "a spectrum of 300000 points needs 829 MiB" in capsys.readouterr().err
    assert peak < 8 * 2**20
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("content", [b"\xff\xfe" + "time_ns,value\n".encode("utf-16-le"), None],
                         ids=["not-utf8", "directory"])
@pytest.mark.parametrize("what, argv", [("trace", ["fit", "--model", "exp"]),
                                        ("device", ["geff", "--device"])], ids=["fit", "device"])
def test_unreadable_input_file_exit_2(tmp_path, capsys, content, what, argv):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert run(argv + [path, "--out", tmp_path / "x"]) == 2
    assert f"cannot read {what} file" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_device_key_exit_2(tmp_path):
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"coupling_strength": 1.0}))
    assert run(["geff", "--device", device, "--out", tmp_path / "g"]) == 2


def test_a_device_file_repeating_a_key_exit_2_writing_nothing(tmp_path, capsys):
    # json.loads alone keeps the last value, and geff ran with g_12 = 0.002
    device = tmp_path / "device.json"
    device.write_text('{"g_12": 0.001, "g_12": 0.002}')
    assert run(["geff", "--device", device, "--out", tmp_path / "g"]) == 2
    assert "device file repeats key 'g_12'" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("header", ["time_ns", "time_ns,value,uncertainty"])
def test_a_trace_header_wider_or_narrower_than_its_rows_exit_2_writing_nothing(
        tmp_path, capsys, header):
    trace = tmp_path / "trace.csv"
    t = np.linspace(0.0, 500.0, 101)
    trace.write_text(header + "\n" + "".join(
        f"{a},{b}\n" for a, b in zip(t, np.exp(-t / 250.0))))
    assert run(["fit", "--model", "exp", trace, "--out", tmp_path / "f"]) == 2
    assert f"trace header has {header.count(',') + 1} field(s) over rows of 2" in (
        capsys.readouterr().err)
    assert not (tmp_path / "f").exists()


def test_oversized_device_integer_exit_2(tmp_path):
    device = tmp_path / "device.json"
    device.write_text('{"g_12": 1' + "0" * 400 + "}")
    assert run(["geff", "--device", device, "--out", tmp_path / "g"]) == 2


@pytest.mark.parametrize("argv", [
    ["geff", "--step", "0.01"],
    ["spectrum", "--start", "4.4", "--stop", "4.5", "--seed", "3"],
    ["chevron", "--dims", "3", "3", "3", "3"],
    ["fit", "--model", "exp", "--dims", "3", "3", "3", "3", "trace.csv"],
    ["fit", "--model", "exp", "--device", "device.json", "trace.csv"],
])
def test_removed_flags_rejected_by_argparse(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", tmp_path / "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("where", ["an existing file", "a path under a file"])
def test_an_unusable_output_path_exit_2_naming_it(tmp_path, capsys, where):
    # the run is done before the outputs are written: a path that cannot be a
    # directory is a configuration error naming it, not a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    out = blocker if where == "an existing file" else blocker / "sub"
    assert run(["geff", "--points", 3, "--out", out]) == 2
    assert f"cannot write output directory {out}" in capsys.readouterr().err
    assert blocker.read_text() == "keep me\n"


def test_a_device_at_the_t2_margin_runs_every_command(tmp_path):
    # DeviceParams admits T2 = 2·T1 + 1e-12 µs, and the chevron runs it too
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"t1_qubit1": 0.1, "t2_qubit1": 0.200000000001}))
    assert run(["geff", "--device", device, "--points", 3, "--out", tmp_path / "g"]) == 0
    assert run(["chevron", "--device", device, "--tau-max", 600, "--tau-points", 121,
                "--out", tmp_path / "c"]) == 0


def test_geff_peaks_within_its_count_and_is_refused_before_allocating(tmp_path, monkeypatch,
                                                                      capsys):
    # the count is each point's three arrays and the text of its CSV row and
    # SVG points; the exact half gaps (their own guard) are stood in for
    from dresq import cli, errors, spectroscopy

    halves = []
    monkeypatch.setattr(spectroscopy, "cotuned_half_gap", lambda params, freqs, space: (
        halves.append(freqs.size), np.full(freqs.size, 12.345678))[1])
    points = 50_000
    tracemalloc.start()
    try:
        assert run(["geff", "--points", points, "--out", tmp_path / "g"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert halves == [points]
    assert peak <= cli.GEFF_POINT_BYTES * points
    # one point more than the limit holds is refused before anything is computed
    monkeypatch.setattr(errors, "MEMORY_LIMIT", cli.GEFF_POINT_BYTES * points)
    tracemalloc.start()
    try:
        assert run(["geff", "--points", points + 1, "--out", tmp_path / "h"]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"a --points grid of {points + 1} points needs" in capsys.readouterr().err
    assert halves == [points] and peak < 2**20
    assert not (tmp_path / "h").exists()


def test_gapscan_peaks_within_its_count_and_is_refused_before_building(tmp_path, monkeypatch,
                                                                      capsys):
    # the lockstep holds each setpoint's grid points, separations, pairs, held
    # points and result; beyond one solver slice its peak is within the
    # count, and one setpoint more than the limit holds is refused before any
    # solver is built
    from dresq import errors, spectroscopy

    p, space = DeviceParams(), HilbertSpace((3, 3, 3, 3))
    setpoints = np.linspace(4.58, 4.68, 500).tolist()
    spectroscopy.gap_vs_setpoint(p, setpoints[:1], space)  # the model is built and kept
    tracemalloc.start()
    try:
        _, gap_errors = spectroscopy.gap_vs_setpoint(p, setpoints, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gap_errors == [None] * len(setpoints)
    limit = spectroscopy.GAP_SETPOINT_BYTES * len(setpoints)
    assert peak <= limit + spectroscopy.STACK_SLICE_BYTES
    built = []
    monkeypatch.setattr(spectroscopy, "_pair_separations", lambda *a: built.append(a))
    monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
    with pytest.raises(ConfigError, match=f"gap scans at {len(setpoints) + 1} setpoints needs"):
        spectroscopy.gap_vs_setpoint(p, setpoints + [4.60], space)
    assert run(["gapscan", "--setpoints", *setpoints, 4.60, "--out", tmp_path / "g"]) == 2
    assert f"gap scans at {len(setpoints) + 1} setpoints needs" in capsys.readouterr().err
    assert built == [] and not (tmp_path / "g").exists()


def test_chevron_fits_over_the_limit_exit_2(tmp_path, monkeypatch, capsys):
    # 11 columns of 4,001 τ values: the propagation's own count fits in 10 MiB,
    # the fits' 336 bytes a cell and 1.5 MiB (16 MiB) do not; they are refused
    # from the grid sizes, before anything is propagated, and nothing is written
    from dresq import dynamics, errors

    propagated = []
    monkeypatch.setattr(dynamics, "_propagate", lambda *a: propagated.append(a))
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 10 * 2**20)
    out = tmp_path / "c"
    assert run(["chevron", "--detuning-points", 11, "--tau-points", 4001, "--out", out]) == 2
    assert "damped-cosine fits of 11 trace(s) of 4001 points needs 16 MiB" in (
        capsys.readouterr().err)
    assert propagated == [] and not out.exists()


def test_chevron_csv_over_the_limit_exit_2_before_propagating(tmp_path, monkeypatch, capsys):
    # under a limit that holds the fits but not the CSV's count, the CSV is
    # refused from the grid sizes with the message of its own guard
    from dresq import dynamics, errors, fitting

    propagated = []
    monkeypatch.setattr(dynamics, "_propagate", lambda *a: propagated.append(a))
    monkeypatch.setattr(fitting, "FIT_SAMPLE_BYTES", 1)
    monkeypatch.setattr(errors, "MEMORY_LIMIT", fitting.FIT_FIXED_BYTES + 11 * 4001)
    out = tmp_path / "c"
    assert run(["chevron", "--detuning-points", 11, "--tau-points", 4001, "--out", out]) == 2
    assert "the CSV of a (11, 4001) chevron needs" in capsys.readouterr().err
    assert propagated == [] and not out.exists()


@pytest.mark.parametrize("start", ["-0.1", "0"])
def test_spectrum_frequency_grid_reaching_0_ghz_exit_2_before_a_model(tmp_path, monkeypatch,
                                                                      capsys, start):
    # the swept qubit's frequencies are checked where the sweep maps its grid,
    # before the device model is built
    from dresq import spectroscopy

    built = []
    monkeypatch.setattr(spectroscopy, "device_model", lambda *a: built.append(a))
    out = tmp_path / "s"
    assert run(["spectrum", "--axis", "freq_1", "--start", start, "--stop", 4.5,
                "--points", 5, "--out", out]) == 2
    assert f"qubit_freq_1 must be positive and finite, got {float(start)}" in (
        capsys.readouterr().err)
    assert built == [] and not out.exists()


def test_chevron_hold_below_0_ghz_exit_2_before_propagating(tmp_path, monkeypatch, capsys):
    # ± 5,000 MHz about the 4.60 GHz interaction point holds qubit 1 at -0.4 GHz
    from dresq import dynamics

    calls = []
    monkeypatch.setattr(dynamics, "_propagate", lambda *a: calls.append(a))
    out = tmp_path / "c"
    assert run(["chevron", "--span-mhz", 5000, "--detuning-points", 11, "--out", out]) == 2
    assert "qubit-1 interaction frequency must be positive and finite, got -0.4" in (
        capsys.readouterr().err)
    assert calls == [] and not out.exists()


def test_gapscan_where_every_setpoint_fails_plots_no_data(tmp_path):
    # both setpoints are refused within 90 MHz of a resonator: the rows keep
    # the reasons and the figure is the placeholder series
    out = tmp_path / "g"
    assert run(["gapscan", "--setpoints", 4.471, 4.79, "--out", out]) == 0
    rows = (out / "gaps.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["4.471000000", "", ""], ["4.790000000", "", ""]]
    assert all("needs 90.0 MHz clearance" in r for r in rows)
    assert "no data" in (out / "gaps.svg").read_text()


def test_fit_command_exp_model(tmp_path):
    t = np.linspace(0, 1000, 200)
    trace = tmp_path / "trace.csv"
    trace.write_text("time_ns,value\n" + "\n".join(
        f"{a},{0.7 * math.exp(-a / 250.0) + 0.1}" for a in t))
    out = tmp_path / "fit"
    assert run(["fit", "--model", "exp", "--out", out, trace]) == 0
    doc = json.loads((out / "fit.json").read_text())
    assert doc["model"] == "exp_decay"
    assert doc["estimates"]["decay_time_ns"] == pytest.approx(250.0, rel=1e-6)


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


@pytest.mark.parametrize("first, second", [
    (["geff", "--points", 50], ["geff", "--points", 3]),
    (["geff", "--points", 3], ["geff", "--points", 50]),
    (["spectrum", "--start", 4.40, "--stop", 4.55, "--points", 21],
     ["spectrum", "--start", 4.40, "--stop", 4.55, "--points", 3, "--levels", 2]),
    (["chevron", "--tau-max", 600, "--tau-points", 61, "--span-mhz", 12, "--detuning-points", 13],
     ["chevron", "--tau-max", 300, "--tau-points", 9, "--detuning-points", 3]),
], ids=["geff-shorter", "geff-longer", "spectrum", "chevron"])
def test_a_rewrite_leaves_the_bytes_of_a_fresh_run(tmp_path, first, second):
    # artifacts are written over the old ones and cut to length: every file of
    # a run into a used directory equals that of the run into an empty one,
    # and the manifest's checksums are those of the files on disk
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert run(first + ["--out", shared]) == 0
    assert run(second + ["--out", shared]) == 0
    assert run(second + ["--out", fresh]) == 0
    rewritten = _files(shared)
    assert rewritten == _files(fresh)
    checksums = json.loads(rewritten.pop("manifest.json"))["artifacts"]
    assert checksums == {name: hashlib.sha256(data).hexdigest() for name, data in rewritten.items()}


def test_an_artifact_path_taken_by_a_directory_exit_2_leaving_the_other_files(tmp_path, capsys):
    # geff.csv is the first file written, so the refusal comes before any other
    out = tmp_path / "g"
    assert run(["geff", "--points", 5, "--out", out]) == 0
    (out / "geff.csv").unlink()
    (out / "geff.csv").mkdir()
    before = _files(out)
    assert sorted(before) == ["geff.svg", "manifest.json", "switch_off.json"]
    assert run(["geff", "--points", 3, "--out", out]) == 2
    assert f"cannot write output directory {out}" in capsys.readouterr().err
    assert (out / "geff.csv").is_dir()
    assert _files(out) == before


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_artifact_has_the_mode_write_bytes_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        assert run(["geff", "--points", 3, "--out", tmp_path / "g"]) == 0
        (tmp_path / "reference").write_bytes(b"")
    finally:
        os.umask(old)
    mode = (tmp_path / "reference").stat().st_mode
    assert {p.name: p.stat().st_mode for p in (tmp_path / "g").iterdir()} == {
        name: mode for name in ("geff.csv", "geff.svg", "switch_off.json", "manifest.json")}


def _write_trace(path, n, model="cosine"):
    """A trace of n samples the model fits; the fit command's memory count of it."""
    from dresq import cli

    t = np.arange(n) * (2000.0 / n)
    if model == "exp":
        y = 0.7 * np.exp(-t / 250.0) + 0.1
    else:
        y = 0.5 * np.exp(-t / 800.0) * np.cos(2 * math.pi * 0.006 * t + 0.3) + 0.2
    path.write_text("time_ns,value\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), y.tolist())))
    text = path.read_text()
    return 3 * sys.getsizeof(text) + cli.TRACE_LINE_BYTES * (text.count("\n") + 1)


def test_fit_of_200000_samples_runs_under_the_memory_limit(tmp_path):
    trace = tmp_path / "trace.csv"
    _write_trace(trace, 200_000, "exp")
    assert run(["fit", "--model", "exp", "--out", tmp_path / "f", trace]) == 0


@pytest.mark.parametrize("model", ["exp", "cosine"])
def test_fit_peaks_within_its_count(tmp_path, model):
    trace = tmp_path / "trace.csv"
    count = _write_trace(trace, 20_000, model)
    tracemalloc.start()
    try:
        assert run(["fit", "--model", model, "--out", tmp_path / "f", trace]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= count


@pytest.mark.parametrize("limit, message", [
    (lambda size, count: 2 * size - 1, "trace file {trace} of {size} bytes needs"),
    (lambda size, count: count - 1, "a trace file of 20002 lines needs"),
    (lambda size, count: count, None),
], ids=["size", "lines", "at-the-count"])
def test_fit_refuses_a_trace_over_the_limit_before_parsing(tmp_path, monkeypatch, capsys,
                                                           limit, message):
    # the file's size is counted before it is read and its lines before they
    # are parsed; a limit of the count itself runs the fit
    from dresq import errors, fitting

    trace = tmp_path / "trace.csv"
    count = _write_trace(trace, 20_000)
    size = trace.stat().st_size
    parsed = []
    from_csv = fitting.TimeTrace.from_csv
    monkeypatch.setattr(fitting.TimeTrace, "from_csv",
                        staticmethod(lambda text: parsed.append(1) or from_csv(text)))
    monkeypatch.setattr(errors, "MEMORY_LIMIT", limit(size, count))
    out = tmp_path / "f"
    tracemalloc.start()
    try:
        code = run(["fit", "--model", "cosine", "--out", out, trace])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if message is None:
        assert code == 0 and parsed == [1]
        return
    assert code == 2 and parsed == [] and not out.exists()
    assert message.format(trace=trace, size=size) in capsys.readouterr().err
    if "bytes" in message:
        # refused by its size, the file is never read
        assert peak < size / 4
