"""Record the reference outputs the benchmark checks every call against.

    python3 bench/record_references.py

Runs one call of every workload variant with the dresq sources of this
checkout and stores the outputs under ``bench/references/``. References
are recorded once, at a commit whose results are trusted, and are never
re-recorded to make a failing check pass.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
import numpy as np
from workloads import N_VARIANTS, REFERENCE_DIR, WORKLOADS, compare, save_reference


def check_estimate_stable(dresq, outputs: dict, trials: int = 8) -> None:
    """Refuse a chevron whose g estimate moves when p1 moves by 1e-8.

    The check must admit an exact propagator (p1 within ~1e-9 of RK4);
    an estimate that flips under a smaller change would fail it.
    """
    rng = np.random.default_rng(0)
    tolerances = {k: WORKLOADS["chevron"].tolerances[k] for k in ("below_floor", "g_mhz")}
    for _ in range(trials):
        p1 = np.clip(outputs["p1"] + 1e-8 * rng.standard_normal(outputs["p1"].shape), 0, 1)
        chevron = dresq["dynamics"].ChevronMap(outputs["detunings_mhz"], outputs["taus_ns"], p1)
        est = dresq["fitting"].geff_from_chevron(chevron)
        moved = {"below_floor": est.below_floor,
                 "g_mhz": math.nan if est.g_mhz is None else est.g_mhz}
        problems = compare(moved, outputs, tolerances)
        if problems:
            raise SystemExit(f"chevron estimate unstable under 1e-8 noise: {problems}")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    dresq = run.fresh_import()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        for variant in range(N_VARIANTS):
            inputs = workload.inputs(variant)
            with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
                out_dir = Path(tmp)
                outputs = workload.read(workload.invoke(dresq, inputs, out_dir), out_dir)
            if name == "chevron":
                check_estimate_stable(dresq, outputs)
            save_reference(name, variant, outputs)
            summary = {k: v for k, v in outputs.items()
                       if k != "artifacts" and getattr(v, "size", 1) <= 4}
            print(name, variant, json.dumps(inputs), summary)
    meta = {"environment": run.environment(), "variants": N_VARIANTS}
    (REFERENCE_DIR / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
