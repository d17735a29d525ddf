"""One measured pass of one workload, in a fresh process.

Started by ``run.py``; prints a single JSON object on stdout.  The BLAS
thread count is pinned here, before numpy is imported, and the package is
imported from the checkout's ``src`` directory only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead of timing")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import zogreedy

    if not Path(zogreedy.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"zogreedy was imported from {zogreedy.__file__}, not the checkout")

    import resource

    import tracer as tracing
    from workloads import WORKLOADS, PassResult

    tracer = tracing.Tracer() if args.traced else None
    quiet = tracer.paused if tracer else contextlib.nullcontext
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.tiny, quiet)
    res = PassResult()
    rounds = 0
    try:
        workload.warm_up()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        while (
            rounds < args.rounds
            if args.rounds is not None
            else time.perf_counter() - start < args.seconds
        ):
            try:
                workload.round(rounds, res)
            except Exception as exc:  # record and go on with the next round
                res.fail(f"round-{rounds}", exc)
            rounds += 1
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
        workload.close()

    report = {
        "workload": args.workload,
        "rounds": rounds,
        "wall_s": wall,
        "ops": [asdict(op) for op in res.ops],
        "setups": res.setups,
        "ratios": res.ratios,
        "notes": workload.notes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        report["layers"] = tracing.layer_metrics(tracer, max(1, len(res.ops)))
        report["absent"] = tracer.absent
        report["edges"] = tracer.edge_list()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
