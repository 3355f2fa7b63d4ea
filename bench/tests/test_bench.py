"""Toy-size tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests

They keep the harness from rotting: the tracer must see every call at
every binding site, the reference check must catch real errors and admit
numerical noise, and the command must meet its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    N_VARIANTS, WORKLOADS, compare, load_reference, variant_of,
)


@pytest.fixture(scope="module")
def dresq():
    sys.path.insert(0, str(ROOT / "src"))
    return run.fresh_import()


def traced(dresq, argv):
    tracer = Tracer(dresq)
    tracer.install()
    try:
        assert dresq["cli"].main(argv) == 0
    finally:
        tracer.uninstall()
    return layer_metrics(tracer.take(), 0)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_wrappers_catch_every_call(dresq, tmp_path):
    points, columns = 5, 3
    spectrum = ["spectrum", "--axis", "freq_2", "--start", "4.40", "--stop", "4.86",
                "--points", str(points), "--dims", "2", "2", "2", "2",
                "--out", str(tmp_path / "spec")]
    first = traced(dresq, spectrum)
    assert first["device.build_hamiltonian.calls"] == points
    assert first["fock.eigh.calls"] == points
    assert first["fock.eigh.dim_max"] == 16
    # 4 lowering + 4 number operators per Hamiltonian, each embeds once
    assert first["fock.embed.calls"] == 8 * points
    assert first["svgplot.bytes"] > 0 and first["cli.self_s"] > 0
    again = traced(dresq, spectrum)
    counts = [k for k in first if k.endswith((".calls", ".bytes", ".dim_max"))]
    assert {k: again[k] for k in counts} == {k: first[k] for k in counts}

    chevron = traced(dresq, [
        "chevron", "--detuning-points", str(columns), "--tau-points", "16",
        "--tau-max", "300", "--out", str(tmp_path / "chev")])
    assert chevron["fitting.fit_damped_cosine.calls"] == columns
    assert chevron["device.build_hamiltonian.calls"] == columns
    assert chevron["device.effective_coupling.calls"] == 1  # bound by name in cli
    assert chevron["dynamics.vacuum_rabi_chevron.self_s"] > 0


def test_gapscan_counts_diagonalizations_per_gap(dresq, tmp_path):
    metrics = traced(dresq, ["gapscan", "--setpoints", "4.60", "--dims", "2", "2", "2", "2",
                             "--out", str(tmp_path)])
    # 201 grid points plus one refinement
    assert metrics["spectroscopy.diag_per_gap"] == 202
    assert metrics["fock.eigh.calls"] == 202


def test_install_patches_binding_sites_and_uninstall_restores(dresq):
    originals = {
        ("spectroscopy", "build_hamiltonian"): dresq["spectroscopy"].build_hamiltonian,
        ("dynamics", "build_hamiltonian"): dresq["dynamics"].build_hamiltonian,
        ("device", "lowering_operator"): dresq["device"].lowering_operator,
        ("spectroscopy", "eigendecompose_hermitian"):
            dresq["spectroscopy"].eigendecompose_hermitian,
        ("cli", "effective_coupling"): dresq["cli"].effective_coupling,
        ("cli", "find_switch_off"): dresq["cli"].find_switch_off,
    }
    to_csv = dresq["spectroscopy"].SpectrumSweep.to_csv
    tracer = Tracer(dresq)
    tracer.install()
    try:
        for (layer, name), fn in originals.items():
            assert getattr(dresq[layer], name) is not fn, (layer, name)
        assert dresq["spectroscopy"].SpectrumSweep.to_csv is not to_csv
        assert dresq["fitting"]._levenberg_marquardt.__name__ == "_levenberg_marquardt"
        assert not hasattr(dresq["fitting"]._levenberg_marquardt, "span_name")
    finally:
        tracer.uninstall()
    for (layer, name), fn in originals.items():
        assert getattr(dresq[layer], name) is fn
    assert dresq["spectroscopy"].SpectrumSweep.to_csv is to_csv


def test_self_time_subtracts_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, None, None),
        Span("device.build_hamiltonian", 1.0, 4.0, 0, None, None),
        Span("fock.embed_operator", 1.5, 2.0, 1, None, None),
        Span("fock.eigendecompose_hermitian", 5.0, 7.0, 0, "ConfigError", None),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.5, 0.5, 2.0])
    metrics = layer_metrics(spans, 123)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["device.build_hamiltonian.self_s"] == pytest.approx(2.5)
    assert metrics["fock.eigh.busy_s"] == pytest.approx(2.0)
    assert metrics["cli.bytes_written"] == 123


def test_reference_seconds_cancel_the_machine_speed():
    at_reference = {name: reference for name, (_, reference) in speed.COMPONENTS.items()}
    slower = {name: 1.5 * t for name, t in at_reference.items()}
    assert speed.slowness(at_reference) == pytest.approx(1.0)
    assert speed.to_reference(2.0, at_reference, at_reference) == pytest.approx(2.0)
    # the same call on a machine 1.5x slower throughout
    assert speed.to_reference(3.0, slower, slower) == pytest.approx(2.0)
    # slowing down during the call: the mean of the two kernel timings
    assert speed.to_reference(2.5, at_reference, slower) == pytest.approx(2.0)
    measured = speed.kernel_times()
    assert set(measured) == set(speed.COMPONENTS)
    assert 0.2 < speed.slowness(measured) < 5.0


def test_inputs_are_seeded():
    for workload in WORKLOADS.values():
        assert workload.inputs(1) == workload.inputs(1)
        assert len({json.dumps(workload.inputs(v)) for v in range(N_VARIANTS)}) == N_VARIANTS
    assert variant_of(7) == variant_of(7 + N_VARIANTS)


def test_check_catches_reordered_level_and_wrong_gap():
    spec = WORKLOADS["spectrum_dense"]
    ref = load_reference("spectrum_dense", 0)
    assert spec.check(dict(ref), ref) == []
    swapped = ref["levels_ghz"].copy()
    swapped[4, [1, 2]] = swapped[4, [2, 1]]
    assert spec.check({**ref, "levels_ghz": swapped}, ref)
    noisy = ref["levels_ghz"] + 1e-9
    assert spec.check({**ref, "levels_ghz": noisy}, ref) == []

    gaps = WORKLOADS["switch_off"]
    ref = load_reference("switch_off", 0)
    assert gaps.check({**ref, "gap_mhz": ref["gap_mhz"] + 1e-3}, ref)
    assert gaps.check({**ref, "gap_location_ghz": ref["gap_location_ghz"] + 1e-5}, ref)

    chevron = WORKLOADS["chevron"]
    ref = load_reference("chevron", 0)
    assert chevron.check({**ref, "p1": ref["p1"] + 1e-9}, ref) == []
    assert chevron.check({**ref, "p1": ref["p1"][::-1]}, ref)
    assert chevron.check({**ref, "below_floor": np.array(True)}, ref)


def test_compare_treats_missing_estimates_as_equal():
    tol = {"g": WORKLOADS["chevron"].tolerances["g_mhz"]}
    assert compare({"g": float("nan")}, {"g": np.array(np.nan)}, tol) == []
    assert compare({"g": 1.0}, {"g": np.array(np.nan)}, tol)


def test_command_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chevron", "--seed", "6",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUP_REPS + 2
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["fitting.fit_damped_cosine.calls"]["value"] == 41


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chevron", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == run.SETUP_REPS + 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chevron", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
