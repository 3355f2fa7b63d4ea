"""dresq benchmark: one workload, closed loop, in one process.

    python3 bench/run.py --workload chevron --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing else. The run

1. sets up ``SETUP_REPS`` times: imports dresq afresh, generates the
   seeded inputs and makes one untimed warm-up call (``setup_s`` is the
   median, so work moved into import or into a first-call cache shows);
2. calls the workload back to back for ``--seconds`` seconds, checking
   every call against the stored reference outputs and against the
   previous call's artifacts (repeated runs must be byte-identical);
3. prints a readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

The reference kernel of ``speed.py`` runs before and after every set-up
and every call, and the end-to-end timings are reported in its reference
seconds, which follow the program's speed but not the host's changing
speed; the wall-clock figures are in the record and the report.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every other call runs with the layer wrappers of ``tracer.py`` installed
and the metrics are the per-layer ones (medians over the traced calls),
plus ``trace.overhead_ratio`` from the interleaved untraced calls.

The full record of a run (environment, input size, every sample) goes to
``.bench_out/`` in the checkout, together with the spans of a traced run.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads. One thread: on the 2-core machine of the
# baseline (shared with other tenants) a second BLAS thread bought ~30 % on
# the n = 256 eigenproblems of spectrum_dense but made the small-matrix
# workloads slower and noisier.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from speed import kernel_times, slowness, to_reference  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, load_reference, variant_of  # noqa: E402

SETUP_REPS = 3

OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s_p50": "s",
    "work_per_s": "work/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "fock.embed.calls": "count",
    "fock.embed.busy_s": "s",
    "fock.eigh.calls": "count",
    "fock.eigh.busy_s": "s",
    "fock.eigh.dim_max": "dim",
    "device.build_hamiltonian.calls": "count",
    "device.build_hamiltonian.self_s": "s",
    "device.effective_coupling.calls": "count",
    "spectroscopy.sweep_spectrum.self_s": "s",
    "spectroscopy.qubit_qubit_gap.self_s": "s",
    "spectroscopy.diag_per_gap": "calls/gap",
    "spectroscopy.to_csv.busy_s": "s",
    "dynamics.evolve.self_s": "s",
    "dynamics.trace_defect_max": "1",
    "dynamics.vacuum_rabi_chevron.self_s": "s",
    "dynamics.to_csv.busy_s": "s",
    "fitting.fit_damped_cosine.calls": "count",
    "fitting.fit_damped_cosine.busy_s": "s",
    "fitting.fit_damped_cosine.fail_ratio": "ratio",
    "fitting.lm_iterations": "count",
    "fitting.detected_ratio": "ratio",
    "fitting.geff_from_chevron.self_s": "s",
    "svgplot.busy_s": "s",
    "svgplot.bytes": "bytes",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


def fresh_import() -> dict:
    """Drop every dresq module and import the package again from src/."""
    for name in [n for n in sys.modules if n == "dresq" or n.startswith("dresq.")]:
        del sys.modules[name]
    dresq = {layer: importlib.import_module(f"dresq.{layer}") for layer in LAYERS}
    where = Path(dresq["cli"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"dresq imported from {where}, not from {ROOT / 'src'}")
    return dresq


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Checker:
    """Counts calls and failures; a call fails if it raised or exited
    nonzero, if an output is outside tolerance of the reference, or if its
    artifacts differ from those of the previous call."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._previous = None

    def record(self, outputs: dict | None, error: str | None) -> bool:
        self.attempted += 1
        problems = [error] if error else []
        if outputs is not None:
            problems += self.workload.check(outputs, self.reference)
            artifacts = outputs["artifacts"]
            if self._previous is not None and artifacts != self._previous:
                changed = sorted(
                    k for k in set(artifacts) | set(self._previous)
                    if artifacts.get(k) != self._previous.get(k)
                )
                problems.append(f"artifacts differ from the previous call: {changed}")
            self._previous = artifacts
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"call {self.attempted}: " + "; ".join(problems))
            return False
        return True


def one_call(workload, dresq, inputs, work_dir):
    """(outputs, error, wall seconds) of one call; errors never escape.

    Garbage the harness left (parsed CSV rows, digests) is collected first,
    so that the program is not charged for it.
    """
    gc.collect()
    start = time.perf_counter()
    # the loop must go on after a failure: a failed call is a data point
    try:
        result = workload.invoke(dresq, inputs, work_dir)
    except Exception as exc:
        return None, _failure(exc), time.perf_counter() - start
    wall = time.perf_counter() - start
    try:
        return workload.read(result, work_dir), None, wall
    except Exception as exc:
        return None, _failure(exc), wall


def _failure(exc: Exception) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure for ``seconds`` and return the run's record."""
    workload = WORKLOADS[workload_name]
    variant = variant_of(seed)
    checker = Checker(workload, load_reference(workload_name, variant))
    work_dir = OUT_DIR / f"work-{workload_name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        setup_samples, setup_ref = [], []
        kernel_before = kernel_times()
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            dresq = fresh_import()
            inputs = workload.inputs(variant)
            outputs, error, _ = one_call(workload, dresq, inputs, work_dir)
            setup_samples.append(time.perf_counter() - start)
            kernel_after = kernel_times()
            setup_ref.append(to_reference(setup_samples[-1], kernel_before, kernel_after))
            kernel_before = kernel_after
            checker.record(outputs, error)

        tracer = Tracer(dresq) if trace else None
        walls, ref_walls, traced_walls, per_call_layers, all_spans = [], [], [], [], []
        kernel_samples = [kernel_before]
        deadline = time.perf_counter() + seconds
        i = 0
        while i < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = trace and i % 2 == 1
            if traced:
                tracer.install()
            try:
                outputs, error, wall = one_call(workload, dresq, inputs, work_dir)
            finally:
                if traced:
                    tracer.uninstall()
            kernel_samples.append(kernel_times())
            if traced:
                spans = tracer.take()
                all_spans.append(spans)
                traced_walls.append(wall)
                written = bytes_under(work_dir) if outputs is not None else 0
                per_call_layers.append(layer_metrics(spans, written))
            else:
                walls.append(wall)
                ref_walls.append(to_reference(wall, *kernel_samples[-2:]))
            checker.record(outputs, error)
            i += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wall_p50 = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        metrics = {
            name: statistics.median(call[name] for call in per_call_layers)
            for name in per_call_layers[0]
        }
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / wall_p50 - 1.0
        units = PER_LAYER_UNITS
        samples = dict.fromkeys(metrics, len(traced_walls))
    else:
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_s_p50": statistics.median(ref_walls),
            # work finished over the time spent calling: the mean rate
            "work_per_s": workload.work(inputs) * len(ref_walls) / sum(ref_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        samples = {"setup_s": len(setup_samples), "wall_s_p50": len(walls),
                   "work_per_s": len(walls), "peak_rss_mb": 1}
    record = {
        "workload": workload_name,
        "seed": seed,
        "variant": variant,
        "trace": int(trace),
        "seconds": seconds,
        "input_size": workload.size(inputs),
        "work_unit": workload.work_unit,
        "work_per_call": workload.work(inputs),
        "environment": environment(),
        "setup_s_samples": setup_samples,
        "setup_ref_s_samples": setup_ref,
        "wall_s_samples": walls,
        "wall_ref_s_samples": ref_walls,
        "kernel_s_samples": kernel_samples,
        "wall_clock": {"setup_s": statistics.median(setup_samples),
                       "wall_s_p50": wall_p50,
                       "work_per_s": workload.work(inputs) * len(walls) / sum(walls)},
        "traced_wall_s_samples": traced_walls,
        "samples": samples,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_ratio": checker.failed / checker.attempted,
        "failures": checker.messages,
        "peak_rss_mb": peak_rss_mb,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        spans_out = [[list(s[:5]) for s in spans] for spans in all_spans]
        (OUT_DIR / f"spans-{stem}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "error"],
                        "calls": spans_out}, separators=(",", ":")) + "\n"
        )
    return record


def report(record: dict) -> None:
    """Readable summary: every metric by name, unit and sample count."""
    print(f"workload {record['workload']}  seed {record['seed']} "
          f"(variant {record['variant']})  trace {record['trace']}")
    print(f"  input size: {json.dumps(record['input_size'])}")
    env = record["environment"]
    print(f"  nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, threads {env['threads']}, commit {env['git_commit']}")
    for name, m in record["metrics"].items():
        unit = m["unit"]
        if name == "work_per_s":
            unit += f" ({record['work_unit']}/s)"
        clock = record["wall_clock"].get(name) if not record["trace"] else None
        clock = f"  wall clock {clock:.6g}" if clock is not None else ""
        print(f"  {name:40s} {m['value']:.6g} {unit}  (n={record['samples'][name]}){clock}")
    slow = statistics.median(slowness(k) for k in record["kernel_s_samples"])
    print(f"  reference kernel: median slowness {slow:.4f} "
          f"(n={len(record['kernel_s_samples'])}); timings above are reference seconds")
    print(f"  fail_ratio {record['failed']}/{record['attempted']} = {record['fail_ratio']:.6g}")
    for message in record["failures"]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dresq" / "__init__.py").is_file():
        print(f"no dresq sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
