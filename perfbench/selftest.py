"""Self-test of the benchmark at tiny problem sizes.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with ``--tiny``, and checks
that every metric named in BENCHMARK.json is reported with its unit, that
the correctness gate passed, and that query counts are exact: the reported
total against the paper's formulas, and the traced oracle calls against the
same total.  Also checks that the benchmark refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and the benchmark.
Timings are never asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

# Counted queries per round at --tiny sizes: bcg 2BT with B=4, T=10; dbg
# 2BlT with B=1, l=4, T=10; one configs_suite pass with every T set to 5:
# nqp_small and topics each bcg 2BT + scg T + ga T + zga 2BT = 10+5+5+10,
# active_set dbg 2BlT + scg 2dT = 10 + 2*22*5, influence 10 + 2*34*5, opt 0.
TINY_QUERIES_PER_ROUND = {
    "bcg_nqp_d1000": 80,
    "dbg_influence_l4": 80,
    "configs_suite": 30 + 30 + 230 + 350,
}
COUNTED_CALLS = (
    "oracles.ValueOracle.__call__.calls",
    "oracles.ValueOracle.gradient.calls",
    "oracles.SetOracle.__call__.calls",
)


def run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds lie in (0, 0.25]")
    check(bounds["setup_s"] == max(bounds.values()), "setup_s has the largest bound")


def check_workload(spec: dict, workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, out = run(ROOT, workload, trace)
        check(code == 0, f"{workload} trace {trace}: exit code {code}")
        result = json.loads(out.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(result["correct"] and result["failed"] == 0, f"{workload}: correctness gate")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))}")
        report = json.loads((SCRATCH / f"report-{workload}-seed3-trace{trace}.json").read_text())
        per_round = TINY_QUERIES_PER_ROUND[workload]
        for worker in report["workers"]:
            queries = sum(op["queries"] for op in worker["ops"])
            check(queries == per_round * worker["rounds"],
                  f"{workload}: {queries} queries in {worker['rounds']} rounds")
        if trace:
            traced = report["workers"][1]
            calls = sum(traced["layers"][name] for name in COUNTED_CALLS) * len(traced["ops"])
            check(round(calls) == per_round * traced["rounds"],
                  f"{workload}: traced oracle calls {calls}")
        else:
            rows = report["rows"]
            check(set(rows) >= {"queries_total", "failed_ratio"}, "report-only metrics")
            check(rows["failed_ratio"][0] == 0, "failed_ratio is 0")
        print(f"ok  {workload} trace {trace}")


def check_refuses_bare_directory() -> None:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(bare, "bcg_nqp_d1000", 0)
        check(code != 0, "bare directory must fail")
        check('"correct"' not in out, "bare directory must print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses a directory without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check({w["name"] for w in spec["workloads"]} <= set(TINY_QUERIES_PER_ROUND),
          "BENCHMARK.json names a workload the benchmark lacks")
    for workload in TINY_QUERIES_PER_ROUND:
        check_workload(spec, workload)
    check_refuses_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
