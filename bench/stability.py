"""Run the benchmark over several seeds and report the spread of each metric.

    python3 bench/stability.py [--workloads chevron ...] [--seeds 0-9] \
        [--seconds 20] [--trace 0] [--write bench/BENCH_baseline.json]

Without ``--workloads`` it runs all four.

For every workload and metric it prints the median of the per-run values
and the quartile spread (Q3 - Q1) / median, with the quartiles as
``statistics.quantiles(values, n=4)`` gives them. That spread is what has
to stay within a metric's bound in ``BENCHMARK.json``. With ``--write``
the summary, the per-run values and the environment of the first run are
stored as a point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record_path.read_text())
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            res = one_run(workload, seed, args.seconds, args.trace)
            runs.append(res)
            values = {k: round(v["value"], 6) for k, v in res["metrics"].items()}
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"{res['failed']}/{res['attempted']} failed, {res['elapsed_s']:.1f} s, "
                  f"{values}", flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, rel = spread(values) if len(values) > 1 else (values[0], 0.0)
            metrics[name] = {"unit": first["unit"], "median": median,
                             "quartile_spread": rel, "values": values}
            print(f"  {name:40s} median {median:.6g} {first['unit']}  spread {rel:.2%}")
        summary["workloads"][workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_elapsed_s": [r["elapsed_s"] for r in runs],
            "input_size": runs[0]["record"]["input_size"],
            "work_unit": runs[0]["record"]["work_unit"],
            "environment": runs[0]["record"]["environment"],
        }
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
