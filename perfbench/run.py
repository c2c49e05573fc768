"""Benchmark of unitary_forge: seeded training workloads, timed from outside.

    python3 perfbench/run.py --workload full_n8 --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. Each workload is single-process and
closed-loop: one training step starts when the previous one returns.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
trains a fixed amount untraced, then repeats exactly the same steps, and
one inference call, with every public function of the layers wrapped (see
harness.py); it prints per-span call counts and self time over that work.
Both check the outputs and print, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.

Set-up (`setup_s`) is timed SETUP_REPEATS times per run and reported as
the median: each repeat drops the unitary_forge modules from sys.modules,
imports them again from source, generates the inputs, builds the model or
spec, and runs one untimed warm-up step. numpy is imported once, before
the first repeat, after the BLAS thread cap is set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cap_blas_threads() -> int:
    """Cap every BLAS pool at the CPUs this process may use; before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread cap was set")
    cap = len(os.sched_getaffinity(0))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(cap)
    return cap


def fingerprint(np, cap: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": cap,
        "nproc": os.cpu_count(),
        "gc": "default during set-up; gc.collect() then disabled in timed phases",
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    cap = cap_blas_threads()
    import numpy as np

    # Every import of the package compiles it from source, as in a fresh
    # checkout: no bytecode is read from or written to __pycache__.
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(ROOT / "perfbench" / "no-bytecode")

    import workloads

    try:
        workloads.fresh_import()
    except ImportError as exc:
        print(f"cannot import unitary_forge from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    run = workloads.Run()
    runner = workloads.run_quanv if w["kind"] == "quanv" else workloads.run_identity
    collect = workloads.per_layer if args.trace else workloads.end_to_end
    try:
        outcome = runner(w, args.seed, args.seconds, bool(args.trace), run)
        values = collect(args.workload, w, outcome, run)
    except Exception:  # the run is over; report it as failed, never as a result
        traceback.print_exc()
        run.fail("exception")
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": run.failed, "metrics": {}}))
        return 1
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"no value for declared metrics {sorted(missing)}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("why: " + next(x["why"] for x in spec["workloads"] if x["name"] == args.workload))
    print("fingerprint: " + json.dumps(fingerprint(np, cap)))
    print("detail: " + json.dumps(outcome.detail))
    for problem in run.problems:
        print("FAILED: " + problem)
    for metric, unit in units.items():
        print(f"  {metric:<32} {values[metric]:>14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
