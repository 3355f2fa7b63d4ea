import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from dresq.cli import main


def run(args):
    return main([str(a) for a in args])


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
    pytest.param(["spectrum", "--start", "4.4", "--stop", "4.5", "--points", "-1"],
                 id="spectrum-points-negative"),
    pytest.param(["geff", "--points", "0"], id="geff-points-0"),
    pytest.param(["geff", "--points", "-3"], id="geff-points-negative"),
])
def test_malformed_grid_exit_2(tmp_path, argv):
    assert run(argv + ["--out", tmp_path / "x"]) == 2
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


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_gapscan_non_finite_setpoint_exit_2(tmp_path, bad):
    assert run(["gapscan", "--setpoints", bad, 4.60, "--out", tmp_path / "g"]) == 2
    assert not (tmp_path / "g").exists()


def test_unknown_device_key_exit_2(tmp_path):
    device = tmp_path / "device.json"
    device.write_text(json.dumps({"coupling_strength": 1.0}))
    assert run(["geff", "--device", device, "--out", tmp_path / "g"]) == 2


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
