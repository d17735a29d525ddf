"""The benchmark's three workloads and their correctness gate.

Each workload is a closed loop: one client in one process runs operations
back to back.  An operation is one (algorithm, seed) run, or one brute-force
``opt``.  A round is the unit the loop repeats: one operation for the two
library workloads, one pass over the shipped configs for ``configs_suite``,
so its mix of cells is the same in every run.

Every operation is checked: feasibility of the output (``contains`` for
points, ``independent`` for sets), the exact query formula (``2BT``,
``2BlT``, ``2dT`` or ``T`` gradient accesses) and a finite final value.
Reference values and checks run outside the timed region and, in a traced
pass, outside the trace.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
import zogreedy as zg
import zogreedy.bench
import zogreedy.cli

clock = time.perf_counter


@dataclass
class Op:
    kind: str
    seconds: float
    queries: int
    error: str | None = None


@dataclass
class PassResult:
    """What one worker pass measured; serialised to the parent as JSON."""

    ops: list[Op] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)

    def add(self, kind: str, seconds: float, queries: int, problems: list[str]) -> None:
        self.ops.append(Op(kind, seconds, queries, "; ".join(problems) or None))

    def fail(self, kind: str, exc: BaseException) -> None:
        self.ops.append(Op(kind, 0.0, 0, f"{type(exc).__name__}: {exc}"))
        traceback.print_exc()


def _finite_problem(value) -> list[str]:
    return [] if math.isfinite(value) else [f"non-finite value {value!r}"]


def _query_problem(got: int, want: int, what: str) -> list[str]:
    return [] if got == want else [f"{what}: {got} queries, expected {want}"]


class BcgNqp:
    """``bcg`` on a d=1000 quadratic program with an exact oracle.

    H is 8 MB, twice a 4 MiB L2, and every iteration makes 2B = 8 probes.
    Each instance serves OPS_PER_INSTANCE seeds; its set-up time (generation,
    oracle and constraint build) is one ``setup_s`` sample and its first-order
    ``scg`` reference value is computed outside the timed region.
    """

    name = "bcg_nqp_d1000"
    OPS_PER_INSTANCE = 4

    def __init__(self, root: Path, seed: int, tiny: bool, quiet):
        self.seed = seed
        self.quiet = quiet
        self.d, self.T = (30, 10) if tiny else (1000, 300)
        self.B, self.delta = 4, 0.02
        self._inst_id = None
        self._inst = None

    def notes(self) -> dict:
        h_bytes = 8 * self.d * self.d
        return {"H_bytes": h_bytes, "H_over_4MiB_L2": h_bytes / float(4 << 20)}

    def _build(self, inst_seed: int):
        t0 = clock()
        H, b = zg.nqp_generate(self.d, inst_seed)
        oracle = zg.nqp_oracle(H, b)
        blocks = [tuple(int(i) for i in blk) for blk in np.array_split(np.arange(self.d), 3)]
        constraint = zg.ConstraintSpec.block_budget(
            self.d, blocks, [len(blk) / 4.0 for blk in blocks]
        )
        domain = zg.BoxDomain.unit_cube(self.d)
        setup = clock() - t0
        with self.quiet():
            ref, _ = zg.scg(oracle, constraint, zg.AlgoParams(T=self.T))
            ref_value = oracle.peek(ref)
        return oracle, domain, constraint, ref_value, setup

    def _run(self, inst, op_seed: int, res: PassResult | None) -> None:
        oracle, domain, constraint, ref_value, _ = inst
        params = zg.AlgoParams(T=self.T, delta=self.delta, B=self.B, seed=op_seed)
        q0 = oracle.query_count
        t0 = clock()
        out, trace = zg.bcg(oracle, domain, constraint, params)
        dt = clock() - t0
        with self.quiet():
            queries = oracle.query_count - q0
            want = 2 * self.B * self.T
            problems = _query_problem(queries, want, "oracle counter")
            problems += _query_problem(trace.final.queries, want, "trace")
            if not zg.contains(constraint, out, tol=1e-9):
                problems.append("output violates the constraint")
            value = oracle.peek(out)
            problems += _finite_problem(value)
        if res is not None:
            res.add("bcg", dt, queries, problems)
            if not problems:
                res.ratios.append(value / ref_value)

    def warm_up(self) -> None:
        self._run(self._build(self.seed * 7919 + 104729), 0, None)

    def round(self, i: int, res: PassResult) -> None:
        inst_id = i // self.OPS_PER_INSTANCE
        if inst_id != self._inst_id:
            self._inst = None  # one H alive at a time
            self._inst = self._build(self.seed * 1000 + inst_id)
            self._inst_id = inst_id
            res.setups.append(self._inst[4])
        self._run(self._inst, self.seed * 100003 + i, res)

    def close(self) -> None:
        pass


class DbgInfluence:
    """``dbg`` on the bundled karate graph under a 2/2/2 partition matroid.

    The value reference is the brute-force optimum, computed once per process
    outside the timed region.  Every operation loads the graph and builds the
    oracle and matroid again; that is its ``setup_s`` sample.
    """

    name = "dbg_influence_l4"
    BLOCKS = (tuple(range(0, 10)), tuple(range(10, 24)), tuple(range(24, 34)))
    LIMITS = (2, 2, 2)

    def __init__(self, root: Path, seed: int, tiny: bool, quiet):
        self.seed = seed
        self.quiet = quiet
        self.T = 10 if tiny else 300
        self.B, self.l, self.delta = 1, 4, 0.05
        self.optimum = None

    def notes(self) -> dict:
        return {"brute_force_optimum": self.optimum}

    def _setup(self):
        graph = zogreedy.bench.karate_club_graph()
        f = zg.influence_set_oracle(graph)
        matroid = zg.ConstraintSpec.partition_matroid(graph.num_nodes, self.BLOCKS, self.LIMITS)
        return f, matroid

    def _run(self, op_seed: int, res: PassResult | None) -> None:
        t0 = clock()
        f, matroid = self._setup()
        t1 = clock()
        params = zg.AlgoParams(T=self.T, delta=self.delta, B=self.B, l=self.l, seed=op_seed)
        chosen, trace = zg.dbg(f, matroid, params)
        dt = clock() - t1
        with self.quiet():
            want = 2 * self.B * self.l * self.T
            problems = _query_problem(f.query_count, want, "oracle counter")
            problems += _query_problem(trace.final.queries, want, "trace")
            if not zg.independent(matroid, chosen):
                problems.append("output set violates the matroid")
            value = f.peek(chosen)
            problems += _finite_problem(value)
        if res is not None:
            res.add("dbg", dt, f.query_count, problems)
            res.setups.append(t1 - t0)
            if not problems:
                res.ratios.append(value / self.optimum)

    def warm_up(self) -> None:
        with self.quiet():
            f, matroid = self._setup()
            _, self.optimum = zogreedy.bench.brute_force_opt(f, matroid)
        if not (math.isfinite(self.optimum) and self.optimum > 0):
            raise RuntimeError(f"brute-force optimum {self.optimum!r} is unusable")
        self._run(self.seed * 7919 + 104729, None)

    def round(self, i: int, res: PassResult) -> None:
        self._run(self.seed * 100003 + i, res)

    def close(self) -> None:
        pass


def expected_queries(cfg, algorithm: str) -> int | None:
    """The paper's exact query count for one cell, or None if it has none."""
    p = cfg.algorithms[algorithm]
    if algorithm == "dbg":
        return 2 * p.B * p.l * p.T
    if algorithm == "scg":
        return 2 * cfg.dim * p.T if cfg.discrete else p.T
    if cfg.discrete:
        return None
    if algorithm in ("bcg", "zga"):
        return 2 * p.B * p.T
    if algorithm == "ga":
        return p.T
    return None


class ConfigsSuite:
    """``zogreedy run`` on the four shipped configs, then ``zogreedy opt``.

    Calls ``zogreedy.cli.main`` in process, with one ``--seed-override`` per
    round and all CSVs written to a temporary directory that is removed at the
    end.  The first round runs the whole suite; later rounds repeat only the
    ``run`` commands, because the deterministic 2-second ``opt`` would
    otherwise take half of every round and leave few samples of each cell.
    Cell times come from a timing hook on ``bench.run_cell``; a ``setup_s``
    sample is the time one ``main`` call spends in ``load_config`` and
    ``build_objective``.
    """

    name = "configs_suite"
    CONFIGS = ("nqp_small", "topics", "active_set", "influence")
    OPT_CONFIG = "influence"
    ALGORITHMS = ("bcg", "dbg", "scg", "ga", "zga")
    TINY_T = 5

    def __init__(self, root: Path, seed: int, tiny: bool, quiet):
        self.seed = seed
        self.quiet = quiet
        scratch = root / ".bench_build" / "perfbench"
        scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="configs_suite-", dir=scratch))
        self.paths = {}
        for name in self.CONFIGS:
            path = root / "configs" / f"{name}.ini"
            if tiny:
                text = re.sub(r"(?m)^T\s*=\s*\d+", f"T = {self.TINY_T}", path.read_text())
                path = self.tmp / f"{name}.ini"
                path.write_text(text)
            self.paths[name] = path
        self.cfgs = {name: zogreedy.bench.load_config(p) for name, p in self.paths.items()}
        self._undo = []
        self._cells: list = []
        self._outputs: list = []
        self._setup_s = 0.0
        self._install_hooks()

    def notes(self) -> dict:
        return {"configs": list(self.CONFIGS), "opt": self.OPT_CONFIG}

    def _install_hooks(self) -> None:
        def timed_setup(fn):
            def hook(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._setup_s += clock() - t0
            return hook

        def timed_cell(fn):
            def hook(cfg, algorithm, seed):
                self._outputs = []
                t0 = clock()
                result = fn(cfg, algorithm, seed)
                self._cells.append((cfg, result, clock() - t0, self._outputs))
                return result
            return hook

        def keep_output(fn):
            def hook(*args, **kwargs):
                out = fn(*args, **kwargs)
                self._outputs.append(out[0])
                return out
            return hook

        hooks = [("bench", n, timed_setup) for n in ("load_config", "build_objective")]
        hooks.append(("bench", "run_cell", timed_cell))
        hooks += [("algorithms", n, keep_output) for n in self.ALGORITHMS]
        for module, name, make in hooks:
            undo = tracing.wrap_function(module, name, make)
            if undo is None:
                raise RuntimeError(f"configs_suite needs zogreedy.{module}.{name}")
            self._undo.extend(undo)

    def _main(self, argv) -> tuple[int, str, float]:
        self._setup_s = 0.0
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = zogreedy.cli.main(argv)
        return code, buf.getvalue(), clock() - t0

    def _check_cell(self, cfg, result, outputs) -> list[str]:
        problems = []
        if result.error is not None:
            problems.append(result.error)
        want = expected_queries(cfg, result.algorithm)
        if want is None:
            problems.append(f"no query formula for {result.algorithm}")
        else:
            problems += _query_problem(result.total_queries, want, result.algorithm)
        problems += _finite_problem(result.final_value)
        if not outputs and result.error is None:
            problems.append("no algorithm output captured")
        for out in outputs:
            if isinstance(out, frozenset):
                ok = zg.independent(cfg.constraint, out)
            else:
                ok = zg.contains(cfg.constraint, out, tol=1e-9)
            if not ok:
                problems.append("output is infeasible")
        return problems

    def _run_config(self, name: str, seed: int, out_dir: Path, res: PassResult | None):
        self._cells = []
        argv = ["run", str(self.paths[name]), "--out-dir", str(out_dir),
                "--seed-override", str(seed)]
        code, _, _ = self._main(argv)
        setup = self._setup_s
        cfg = self.cfgs[name]
        if res is None:
            return
        with self.quiet():
            for cell_cfg, result, dt, outputs in self._cells:
                problems = self._check_cell(cell_cfg, result, outputs)
                res.add(f"{name}/{result.algorithm}", dt, result.total_queries, problems)
            for _ in range(len(cfg.algorithms) - len(self._cells)):
                res.add(f"{name}/missing", 0.0, 0, ["cell never ran"])
            failures = out_dir / f"{cfg.name}_failures.txt"
            if code != 0 or failures.exists():
                text = failures.read_text().strip() if failures.exists() else ""
                res.add(f"{name}/exit", 0.0, 0, [f"zogreedy run exit code {code} {text}"])
            res.setups.append(setup)
            ratio = self._summary_ratio(out_dir / f"{cfg.name}_summary.csv")
            if ratio is None:
                res.add(f"{name}/summary", 0.0, 0, ["summary has no zeroth-order/scg ratio"])
            else:
                res.ratios.append(ratio)

    @staticmethod
    def _summary_ratio(path: Path) -> float | None:
        if not path.exists():
            return None
        means = {}
        for line in path.read_text().splitlines()[1:]:
            algo, mean = line.split(",")[:2]
            means[algo] = float(mean)
        zo = means.get("bcg", means.get("dbg"))
        ref = means.get("scg")
        if zo is None or not ref or not math.isfinite(zo / ref):
            return None
        return zo / ref

    def _run_opt(self, res: PassResult) -> None:
        code, text, dt = self._main(["opt", str(self.paths[self.OPT_CONFIG])])
        setup = self._setup_s
        with self.quiet():
            problems = [] if code == 0 else [f"exit code {code}"]
            match = re.search(r"optimum value:\s*(\S+)", text)
            value = float(match.group(1)) if match else math.nan
            problems += _finite_problem(value)
        res.add("opt", dt, 0, problems)
        res.setups.append(setup)

    def warm_up(self) -> None:
        out_dir = self.tmp / "warm-up"
        self._run_config("nqp_small", self.seed * 7919 + 104729, out_dir, None)
        shutil.rmtree(out_dir, ignore_errors=True)

    def round(self, i: int, res: PassResult) -> None:
        seed = self.seed * 1000 + i
        out_dir = self.tmp / f"round-{i}"
        for name in self.CONFIGS:
            self._run_config(name, seed, out_dir, res)
        if i == 0:
            self._run_opt(res)
        shutil.rmtree(out_dir, ignore_errors=True)

    def close(self) -> None:
        tracing.restore(self._undo)
        self._undo = []
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (BcgNqp, DbgInfluence, ConfigsSuite)}
