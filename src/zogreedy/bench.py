"""Experiment harness: configs, dataset ingestion, runs, and CSV emission.

A benchmark is described by a flat INI file with one section per algorithm::

    [objective]
    kind = nqp
    dim = 20
    seed = 7

    [constraint]
    kind = block_budget
    blocks = 0-5 6-11 12-19
    budgets = 6 4 4

    [run]
    seeds = 1 2 3
    out_dir = out

    [bcg]
    T = 100
    B = 1
    delta = 0.05

Running it produces a trace CSV (``algorithm,seed,iteration,queries,
elapsed_ms,value``, one row per iteration of every cell) and a summary CSV
(``algorithm,final_value_mean,final_value_sd,total_queries,relative_runtime``)
with runtimes normalized to the zeroth-order conditional-gradient run.
Cells are deterministic given their seed; rows are emitted in sorted order,
so repeated runs agree except for wall-clock columns.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
from dataclasses import dataclass, field, replace
from configparser import ConfigParser
from functools import partial
from importlib import resources
from itertools import chain, combinations
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import algorithms as optimizers
from .algorithms import AlgoParams, RunTrace
from .constraints import BoxDomain, ConstraintSpec, transform_constraint
from .objectives import (
    Graph,
    coverage_set_oracle,
    coverage_value_oracle,
    influence_set_oracle,
    logdet_set_oracle,
    nqp_generate,
    nqp_oracle,
    rbf_covariance,
)
from .oracles import NoisyOracle, SetOracle, ValueOracle

MAX_BRUTE_FORCE_SETS = 10**6
# Bytes of feasible-set masks brute_force_opt holds at once.  The influence
# kernel makes two float32 arrays of 4 bytes per mask byte, so a chunk needs
# about 128 kB more, little enough not to raise a run's peak memory; all
# 332,416 masks of configs/influence.ini would take 11.3 MB.
BRUTE_FORCE_CHUNK_BYTES = 2**14

TRACE_HEADER = ["algorithm", "seed", "iteration", "queries", "elapsed_ms", "value"]
SUMMARY_HEADER = [
    "algorithm",
    "final_value_mean",
    "final_value_sd",
    "total_queries",
    "relative_runtime",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

def load_edge_list(path) -> Graph:
    """Parse an undirected edge list: one ``u v`` pair of 0-based ints per line.

    Blank lines and ``#`` comments are skipped; duplicate edges collapse; the
    node count is the largest index seen plus one.
    """
    edges: set[tuple[int, int]] = set()
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-integer node id") from exc
            if u < 0 or v < 0:
                raise ValueError(f"{path}: line {lineno}: negative node index")
            max_index = max(max_index, u, v)
            if u != v:
                edges.add((min(u, v), max(u, v)))
    if max_index < 0:
        raise ValueError(f"{path}: empty edge list")
    return Graph.from_edges(max_index + 1, edges)


def load_matrix_csv(path, unit_interval: bool = False) -> np.ndarray:
    """Read a header-free rectangular numeric CSV into a row-major matrix."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            try:
                row = [float(cell) for cell in record]
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: non-numeric cell") from exc
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}: row {lineno}: has {len(row)} columns, expected {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty matrix")
    matrix = np.array(rows, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{path}: entries must be finite")
    if unit_interval and (np.any(matrix < 0) or np.any(matrix > 1)):
        raise ValueError(f"{path}: entries must lie in [0, 1]")
    return matrix


def karate_club_graph() -> Graph:
    """The bundled 34-node, 78-edge social network used by the influence demo."""
    ref = resources.files("zogreedy").joinpath("data/karate_club_edges.txt")
    with resources.as_file(ref) as path:
        graph = load_edge_list(path)
    if graph.num_nodes != 34 or graph.num_edges != 78:
        raise RuntimeError("bundled social-network data is corrupted")
    return graph


def synthetic_topics(num_topics: int, num_articles: int, seed: int) -> np.ndarray:
    """Random topic matrix: each article column is Dirichlet over topics."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(num_topics), size=num_articles).T


def synthetic_data_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    constraint: ConstraintSpec
    discrete: bool
    dim: int
    algorithms: dict
    seeds: tuple[int, ...]
    out_dir: str
    domain: BoxDomain  # the objective's box, the unit cube when it has none
    # the objective's oracle builder, set by load_config
    builder: Callable[[], Union[ValueOracle, SetOracle]] = field(compare=False, repr=False)
    noise: float = 0.0


# The keys each section reads; [objective] and [constraint] read those of
# their kind, an algorithm section those its optimizer reads on a continuous
# objective (False) or a set function (True).  The algorithms that read
# ``delta`` are the zeroth-order ones, which search the shrunk set K'.
_OBJECTIVE_KEYS = {"nqp": "dim seed noise",
                   "coverage": "topics articles topics_csv seed noise discrete",
                   "logdet": "rows attributes data_csv seed bandwidth",
                   "influence": "edges"}
# The [objective] keys that each data file replaces; setting one next to it is an error
_DATA_KEYS = {"topics_csv": "topics articles seed", "data_csv": "rows attributes seed"}
_CONSTRAINT_KEYS = {"box": "cap", "block_budget": "cap blocks budgets",
                    "partition_matroid": "blocks budgets"}
_RUN_KEYS = "name seeds out_dir"
_ALGO_KEYS = {
    False: {"bcg": "T B delta", "scg": "T", "ga": "T eta0", "zga": "T B delta eta0"},
    True: {"dbg": "T B delta l trace_value_samples", "scg": "T trace_value_samples",
           "ga": "T eta0 trace_value_samples", "zga": "T B delta eta0 l trace_value_samples"},
}
# The ConfigParser getter of each key that is not a string, the same in every section
_GETTERS = {"discrete": ConfigParser.getboolean,
            **dict.fromkeys("noise bandwidth cap delta eta0".split(), ConfigParser.getfloat),
            **dict.fromkeys("dim seed topics articles rows attributes T B l trace_value_samples"
                            .split(), ConfigParser.getint)}


def _read_section(parser: ConfigParser, path: Path, name: str, keys: str) -> dict:
    """The ``keys`` of section ``[name]``, each parsed by its getter; ``{}`` if absent.

    A key the section does not read, such as a typo, is a config error.
    """
    section = parser[name] if name in parser else {}
    keys = keys.split()
    unknown = sorted(set(section) - {key.lower() for key in keys})
    if unknown:
        raise ConfigError(
            f"{path}: [{name}]: unknown key {unknown[0]!r} (known: {', '.join(keys)})"
        )
    values = {}
    for key in keys:
        if key in section:
            try:
                values[key] = _GETTERS.get(key, ConfigParser.get)(parser, name, key)
            except ValueError as exc:
                raise ConfigError(f"{path}: {name}.{key}: {exc}") from exc
    return values


def _read_kind_section(parser: ConfigParser, path: Path, name: str, tables: dict,
                       default: Optional[str] = None) -> dict:
    """Section ``[name]`` read by the key table of its ``kind``, ``default`` if unset."""
    if name not in parser:
        raise ConfigError(f"{path}: missing [{name}] section")
    kind = parser.get(name, "kind", fallback=default)
    if kind is None:
        raise ConfigError(f"{path}: {name} needs a kind")
    if kind not in tables:
        raise ConfigError(f"{path}: {name}: unknown kind {kind!r}")
    return {**_read_section(parser, path, name, "kind " + tables[kind]), "kind": kind}


def _parse_blocks(text: str) -> tuple[tuple[int, ...], ...]:
    blocks = []
    for token in text.split():
        if "-" in token:
            lo, hi = token.split("-", 1)
            blocks.append(tuple(range(int(lo), int(hi) + 1)))
        else:
            blocks.append(tuple(int(i) for i in token.split(",") if i != ""))
    return tuple(blocks)


def _parse_constraint(parser: ConfigParser, path: Path, dim: int) -> ConstraintSpec:
    spec = _read_kind_section(parser, path, "constraint", _CONSTRAINT_KEYS, default="box")
    try:
        if spec["kind"] == "box":
            return ConstraintSpec.box(np.full(dim, spec.get("cap", 1.0)))
        blocks = _parse_blocks(spec.get("blocks", ""))
        budgets = tuple(float(b) for b in spec.get("budgets", "").split())
        if spec["kind"] == "block_budget":
            return ConstraintSpec.block_budget(dim, blocks, budgets, cap=spec.get("cap", 1.0))
        return ConstraintSpec.partition_matroid(dim, blocks, budgets)
    except ValueError as exc:
        raise ConfigError(f"{path}: constraint: {exc}") from exc


def _objective_builder(spec: dict, discrete: bool, directory: Path) -> partial:
    """The oracle builder of an objective spec, over its data read or made once.

    The one dispatch on ``kind``; data paths are relative to ``directory``,
    the config's.  The builder is a ``partial`` of a module-level oracle
    builder, so a config that holds it pickles for worker processes, and each
    call returns a fresh oracle with zero counters.
    """
    kind, seed = spec["kind"], spec.get("seed", 0)
    if kind == "nqp":
        return partial(nqp_oracle, *nqp_generate(spec["dim"], seed))
    if kind == "coverage":
        if "topics_csv" in spec:
            P = load_matrix_csv(directory / spec["topics_csv"], unit_interval=True)
        else:
            P = synthetic_topics(spec.get("topics", 10), spec.get("articles", 24), seed)
        return partial(coverage_set_oracle if discrete else coverage_value_oracle, P)
    if kind == "logdet":
        if "data_csv" in spec:
            X = load_matrix_csv(directory / spec["data_csv"])
        else:
            X = synthetic_data_matrix(spec.get("rows", 60), spec.get("attributes", 22), seed)
        return partial(logdet_set_oracle, rbf_covariance(X, spec.get("bandwidth", 0.75)))
    edges = spec.get("edges", "karate")  # influence
    graph = karate_club_graph() if edges == "karate" else load_edge_list(directory / edges)
    return partial(influence_set_oracle, graph)


def build_objective(cfg: ExperimentConfig) -> Union[ValueOracle, SetOracle]:
    """Construct a fresh oracle for one run cell (query counters start at 0)."""
    return cfg.builder()


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment INI file.

    The objective's data is read or generated here, once, and checked by
    building one oracle from it.
    """
    path = Path(path)
    parser = ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    spec = _read_kind_section(parser, path, "objective", _OBJECTIVE_KEYS)
    for data_key, replaced in _DATA_KEYS.items():
        unused = [key for key in replaced.split() if data_key in spec and key in spec]
        if unused:
            raise ConfigError(f"{path}: [objective]: key {unused[0]!r} is unused "
                              f"when {data_key!r} is set")
    discrete = spec["kind"] in ("logdet", "influence") or spec.get("discrete", False)
    try:
        builder = _objective_builder(spec, discrete, path.parent)
        probe = builder()
    except KeyError as exc:
        raise ConfigError(f"{path}: objective: missing key {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: objective: {exc}") from exc
    dim = probe.ground_size if discrete else probe.dim

    constraint = _parse_constraint(parser, path, dim)
    if discrete and constraint.kind != "partition_matroid":
        raise ConfigError(f"{path}: discrete objectives need a partition_matroid constraint")
    domain = getattr(probe, "domain", None) or BoxDomain.unit_cube(dim)
    if np.any(constraint.upper > domain.upper + 1e-12):
        raise ConfigError(f"{path}: constraint caps must not exceed the objective's domain")

    run = _read_section(parser, path, "run", _RUN_KEYS)
    try:
        seeds = tuple(int(s) for s in run.get("seeds", "0").split())
    except ValueError as exc:
        raise ConfigError(f"{path}: run.seeds: {exc}") from exc
    if not seeds:
        raise ConfigError(f"{path}: run.seeds must list at least one seed")

    allowed = _ALGO_KEYS[discrete]
    algorithms = {}
    for section in parser.sections():
        if section in ("objective", "constraint", "run"):
            continue
        if section not in allowed:
            raise ConfigError(
                f"{path}: algorithm {section!r} does not apply to this objective "
                f"(allowed: {', '.join(allowed)})"
            )
        params = _read_section(parser, path, section, allowed[section])
        try:
            algorithms[section] = AlgoParams(**params)
            if "delta" in allowed[section].split():
                transform_constraint(domain, constraint, algorithms[section].delta)
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}]: {exc}") from exc
    if not algorithms:
        raise ConfigError(f"{path}: no algorithm sections found")

    noise = spec.get("noise", 0.0)
    if not 0 <= noise < math.inf:
        raise ConfigError(f"{path}: objective.noise must be finite and non-negative")
    if discrete and "noise" in spec:
        raise ConfigError(f"{path}: objective.noise applies to continuous objectives only")

    return ExperimentConfig(
        name=run.get("name", path.stem),
        constraint=constraint,
        discrete=discrete,
        dim=dim,
        algorithms=algorithms,
        seeds=seeds,
        out_dir=run.get("out_dir", "out"),
        domain=domain,
        builder=builder,
        noise=noise,
    )


# ---------------------------------------------------------------------------
# Brute-force optimum
# ---------------------------------------------------------------------------

def _groups(matroid: ConstraintSpec) -> list[tuple[tuple[int, ...], int]]:
    """Each block, then the free coordinates, with how many of its members a set may hold."""
    covered = set(chain.from_iterable(matroid.blocks))
    free = tuple(i for i in range(matroid.dim) if i not in covered)
    limits = [min(int(round(limit)), len(b)) for b, limit in zip(matroid.blocks, matroid.budgets)]
    return [*zip(matroid.blocks, limits), (free, len(free))]


def count_feasible_sets(matroid: ConstraintSpec) -> int:
    return math.prod(sum(math.comb(len(m), r) for r in range(k + 1)) for m, k in _groups(matroid))


def _choice_masks(members: tuple[int, ...], k: int, dim: int) -> np.ndarray:
    """Boolean ``(choices, dim)`` matrix whose rows select the subsets of ``members``
    of at most ``k`` elements, by size, then lexicographically."""
    choices = [c for r in range(k + 1) for c in combinations(members, r)]
    masks = np.zeros((len(choices), dim), dtype=bool)
    rows = np.repeat(np.arange(len(choices)), [len(c) for c in choices])
    masks[rows, np.fromiter(chain.from_iterable(choices), dtype=np.intp)] = True
    return masks


def brute_force_opt(f: SetOracle, matroid: ConstraintSpec) -> tuple[frozenset, float]:
    """Exhaustive maximum of a set function over a small partition matroid.

    The feasible sets are evaluated as boolean masks through
    :meth:`SetOracle.peek_masks`, at most :data:`BRUTE_FORCE_CHUNK_BYTES` of
    masks at a time.  The scan takes one choice per block in block order, then
    one subset of the free coordinates, the last varying fastest; each block's
    choices run by size, then lexicographically.  The first set with the
    largest value wins.
    """
    if matroid.kind != "partition_matroid":
        raise ValueError("brute force optimum needs a partition matroid")
    n = count_feasible_sets(matroid)
    if n > MAX_BRUTE_FORCE_SETS:
        raise ValueError(f"{n} feasible sets exceed the enumeration budget")
    d = matroid.dim
    tables = [_choice_masks(m, k, d) for m, k in _groups(matroid)]
    shape = tuple(len(t) for t in tables)
    rows = max(1, BRUTE_FORCE_CHUNK_BYTES // d)
    best_mask, best_value = None, -math.inf
    for lo in range(0, n, rows):
        digits = np.unravel_index(np.arange(lo, min(lo + rows, n)), shape)
        masks = tables[0][digits[0]]
        for table, digit in zip(tables[1:], digits[1:]):
            masks |= table[digit]
        values = f.peek_masks(masks)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_mask, best_value = masks[i].copy(), float(values[i])
    return frozenset(np.flatnonzero(best_mask).tolist()), best_value


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    algorithm: str
    seed: int
    trace: Optional[RunTrace]
    final_value: float
    total_queries: int
    wall_s: float
    error: Optional[str] = None


def _cell_seed(base_seed: int, algorithm: str) -> int:
    """Stable per-cell seed derivation, independent of execution order."""
    digest = sum(ord(c) * 131**k for k, c in enumerate(algorithm)) % (2**31)
    return (base_seed * 2654435761 + digest) % (2**31)


def run_cell(cfg: ExperimentConfig, algorithm: str, seed: int) -> CellResult:
    """Execute one (algorithm, seed) cell on a freshly built oracle."""
    params = replace(cfg.algorithms[algorithm], seed=_cell_seed(seed, algorithm))
    try:
        oracle = build_objective(cfg)
        output, trace = _run_algorithm(oracle, cfg, algorithm, params)
        return CellResult(
            algorithm=algorithm,
            seed=seed,
            trace=trace,
            final_value=oracle.peek(output),
            total_queries=int(trace.final.queries),
            wall_s=float(trace.final.elapsed_s),
        )
    except Exception as exc:  # keep the remaining cells running
        return CellResult(
            algorithm=algorithm,
            seed=seed,
            trace=None,
            final_value=float("nan"),
            total_queries=0,
            wall_s=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_algorithm(oracle, cfg: ExperimentConfig, algorithm: str, params: AlgoParams):
    """Run one of the five optimizers; each checks its own output.

    It is looked up in its module at each call, so wrappers set there see it.
    Those that read ``delta`` see the oracle through the config's noise, and
    bcg and zga search the config's domain; dbg's is the unit cube.
    """
    optimize = getattr(optimizers, algorithm)
    if "delta" not in _ALGO_KEYS[cfg.discrete][algorithm].split():
        return optimize(oracle, cfg.constraint, params)
    if cfg.noise:
        oracle = NoisyOracle(oracle, cfg.noise, seed=params.seed + 1)
    if algorithm == "dbg":
        return optimize(oracle, cfg.constraint, params)
    return optimize(oracle, cfg.domain, cfg.constraint, params)


def run_experiment(
    cfg: ExperimentConfig, jobs: int = 1, out_dir: Optional[str] = None
) -> tuple[Path, Path]:
    """Run every (algorithm, seed) cell and write trace + summary CSVs.

    Returns the two output paths.  Failed cells are skipped in the CSVs and
    reported in the summary's stderr companion ``<name>_failures.txt``; a run
    without failures removes that file if an earlier run left one.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = [(cfg, algo, seed) for algo in cfg.algorithms for seed in cfg.seeds]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, *zip(*cells)))
    else:
        results = [run_cell(*c) for c in cells]

    by_algo: dict[str, list[CellResult]] = {a: [] for a in cfg.algorithms}
    for res in results:
        by_algo[res.algorithm].append(res)

    trace_path = out / f"{cfg.name}_trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for algo in cfg.algorithms:
            for res in sorted(by_algo[algo], key=lambda r: r.seed):
                if res.trace is None:
                    continue
                for rec in res.trace.records:
                    writer.writerow(
                        [
                            algo,
                            res.seed,
                            rec.t,
                            rec.queries,
                            f"{rec.elapsed_s * 1000.0:.3f}",
                            repr(rec.value),
                        ]
                    )

    reference = "bcg" if "bcg" in cfg.algorithms else ("dbg" if "dbg" in cfg.algorithms else next(iter(cfg.algorithms)))
    ref_results = [r for r in by_algo[reference] if r.error is None]
    ref_time = float(np.mean([r.wall_s for r in ref_results])) if ref_results else float("nan")

    summary_path = out / f"{cfg.name}_summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for algo in cfg.algorithms:
            ok = [r for r in by_algo[algo] if r.error is None]
            if not ok:
                writer.writerow([algo, "nan", "nan", 0, "nan"])
                continue
            finals = np.array([r.final_value for r in ok])
            mean_time = float(np.mean([r.wall_s for r in ok]))
            rel = mean_time / ref_time if ref_time and not math.isnan(ref_time) else float("nan")
            writer.writerow(
                [
                    algo,
                    repr(float(np.mean(finals))),
                    repr(float(np.std(finals))),
                    int(ok[0].total_queries),
                    repr(float(rel)),
                ]
            )

    failures = [r for r in results if r.error is not None]
    failures_path = out / f"{cfg.name}_failures.txt"
    if failures:
        with open(failures_path, "w", encoding="utf-8") as fh:
            for r in failures:
                fh.write(f"{r.algorithm} seed={r.seed}: {r.error}\n")
    else:
        failures_path.unlink(missing_ok=True)  # left by an earlier run
    return trace_path, summary_path


# ---------------------------------------------------------------------------
# SVG chart (value vs. queries)
# ---------------------------------------------------------------------------

_SVG_COLORS = ["#1f6fb2", "#e07b39", "#4c9f70", "#9b5de5", "#d1495b", "#5f6caf"]


def write_svg(trace_csv, out_path, width: int = 640, height: int = 400) -> Path:
    """Render mean value vs. mean queries per algorithm from a trace CSV."""
    series: dict[str, dict[int, list[tuple[float, float]]]] = {}
    with open(trace_csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_HEADER:
            raise ValueError(f"{trace_csv}: unexpected header {reader.fieldnames}")
        for row in reader:
            series.setdefault(row["algorithm"], {}).setdefault(
                int(row["iteration"]), []
            ).append((float(row["queries"]), float(row["value"])))
    if not series:
        raise ValueError(f"{trace_csv}: no rows to plot")

    lines: dict[str, list[tuple[float, float]]] = {}
    for algo, by_iter in series.items():
        pts = []
        for it in sorted(by_iter):
            qs, vs = zip(*by_iter[it])
            pts.append((float(np.mean(qs)), float(np.mean(vs))))
        lines[algo] = pts

    xs = [p[0] for pts in lines.values() for p in pts]
    ys = [p[1] for pts in lines.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    margin = 50

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">oracle queries</text>',
        f'<text x="{margin}" y="{height - margin + 15}" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 15}" text-anchor="end" '
        f'font-size="10">{x_hi:.4g}</text>',
        f'<text x="{margin - 5}" y="{height - margin}" text-anchor="end" '
        f'font-size="10">{y_lo:.4g}</text>',
        f'<text x="{margin - 5}" y="{margin + 4}" text-anchor="end" '
        f'font-size="10">{y_hi:.4g}</text>',
    ]
    for k, (algo, pts) in enumerate(lines.items()):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * k + 10}" '
            f'font-size="11" fill="{color}">{algo}</text>'
        )
    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.write_text("\n".join(parts), encoding="utf-8")
    return out_path
