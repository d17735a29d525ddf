import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

import zogreedy.bench as bench
from zogreedy import ConstraintSpec, SetOracle, coverage_set_oracle
from zogreedy.bench import (
    ConfigError,
    brute_force_opt,
    build_objective,
    count_feasible_sets,
    karate_club_graph,
    load_config,
    load_edge_list,
    load_matrix_csv,
    run_experiment,
    synthetic_data_matrix,
    synthetic_topics,
    write_svg,
)
from zogreedy.cli import main

from support import brute_force_reference, iter_feasible_sets

CONFIG_DIR = Path(__file__).parent.parent / "configs"


class TestLoadEdgeList:
    def test_small_path(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 2\n")
        g = load_edge_list(p)
        assert g.num_nodes == 3 and g.num_edges == 2

    def test_duplicates_collapse(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 0\n")
        g = load_edge_list(p)
        assert g.num_edges == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\nnot an edge\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(p)

    def test_negative_index_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 -1\n")
        with pytest.raises(ValueError, match="negative"):
            load_edge_list(p)

    def test_bundled_social_network(self):
        g = karate_club_graph()
        assert g.num_nodes == 34
        assert g.num_edges == 78


class TestLoadMatrixCsv:
    def test_small_matrix(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0.5,0.5\n")
        m = load_matrix_csv(p)
        np.testing.assert_allclose(m, [[1.0, 0.0], [0.5, 0.5]])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0.5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_matrix_csv(p)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,x\n")
        with pytest.raises(ValueError, match="row 1"):
            load_matrix_csv(p)

    def test_unit_interval_validation(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0.5,1.2\n")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            load_matrix_csv(p, unit_interval=True)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("unit_interval", [False, True])
    def test_non_finite_cell_rejected(self, tmp_path, cell, unit_interval):
        p = tmp_path / "m.csv"
        p.write_text(f"0.5,{cell}\n")
        with pytest.raises(ValueError, match="finite"):
            load_matrix_csv(p, unit_interval=unit_interval)


class TestSynthetics:
    def test_topic_columns_are_distributions(self):
        P = synthetic_topics(5, 12, seed=0)
        assert P.shape == (5, 12)
        np.testing.assert_allclose(P.sum(axis=0), 1.0)
        assert np.all(P >= 0)

    def test_data_matrix_deterministic(self):
        a = synthetic_data_matrix(6, 4, seed=1)
        b = synthetic_data_matrix(6, 4, seed=1)
        np.testing.assert_array_equal(a, b)


class TestBruteForce:
    def test_two_singleton_blocks(self):
        P = np.array([[1.0, 0.5], [0.0, 0.5]])
        f = coverage_set_oracle(P)
        M = ConstraintSpec.partition_matroid(2, [(0,), (1,)], [1, 1])
        best_set, best_value = brute_force_opt(f, M)
        assert best_set == frozenset({0, 1})
        assert best_value == pytest.approx(0.75)

    def test_zero_function(self):
        f = SetOracle(lambda S: 0.0, ground_size=3, bound_M=1.0)
        M = ConstraintSpec.partition_matroid(3, [(0, 1, 2)], [1])
        _, value = brute_force_opt(f, M)
        assert value == 0.0

    def test_feasible_set_count(self):
        M = ConstraintSpec.partition_matroid(
            9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)], [1, 1, 1]
        )
        assert count_feasible_sets(M) == 64
        assert sum(1 for _ in iter_feasible_sets(M)) == 64

    def test_capacity_guard(self):
        M = ConstraintSpec.partition_matroid(
            24, [tuple(range(24))], [12]
        )
        f = SetOracle(lambda S: 0.0, ground_size=24, bound_M=1.0)
        with pytest.raises(ValueError, match="enumeration budget"):
            brute_force_opt(f, M)

    @pytest.mark.parametrize("chunk_rows", [1, 3, None])
    def test_matches_per_set_loop_with_ties(self, chunk_rows, monkeypatch):
        """Same set and value as the per-set loop, first maximum kept across chunks."""
        rng = np.random.default_rng(31)
        for _ in range(25):
            d = int(rng.integers(1, 9))
            cut = int(rng.integers(0, d + 1))  # coordinates >= cut are free
            blocks, i = [], 0
            while i < cut:
                size = int(rng.integers(1, cut - i + 1))
                blocks.append(tuple(range(i, i + size)))
                i += size
            M = ConstraintSpec.partition_matroid(
                d, blocks, [int(rng.integers(1, len(b) + 1)) for b in blocks])
            w = rng.integers(0, 3, size=d).astype(float)  # ties are common
            f = SetOracle(lambda S: float(min(sum(w[j] for j in S), 4.0)),
                          ground_size=d, bound_M=4.0,
                          batch_fn=lambda masks: np.minimum(masks @ w, 4.0))
            if chunk_rows is not None:
                monkeypatch.setattr(bench, "BRUTE_FORCE_CHUNK_BYTES", chunk_rows * d)
            assert brute_force_opt(f, M) == brute_force_reference(f, M)

    @pytest.mark.parametrize("config", ["active_set", "influence"])
    def test_shipped_configs_match_per_set_loop(self, config):
        cfg = load_config(CONFIG_DIR / f"{config}.ini")
        f = build_objective(cfg)
        best = brute_force_opt(f, cfg.constraint)
        assert best == brute_force_reference(f, cfg.constraint)
        assert f.query_count == 0

    @pytest.mark.parametrize("fn", [
        lambda S: float("nan"),
        lambda S: float("nan") if S == {2} else float(len(S)),
    ], ids=["all_nan", "partly_nan"])
    def test_non_finite_value_raises(self, fn):
        f = SetOracle(fn, ground_size=3, bound_M=3.0)
        M = ConstraintSpec.partition_matroid(3, [(0, 1, 2)], [1])
        with pytest.raises(ValueError, match="non-finite"):
            brute_force_opt(f, M)


def write_config(tmp_path, text) -> Path:
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return p


TINY_CONFIG = """
[objective]
kind = nqp
dim = 4
seed = 3

[constraint]
kind = block_budget
blocks = 0-1 2-3
budgets = 1 1

[run]
name = tiny
seeds = 1 2 3
out_dir = {out}

[bcg]
T = 10
B = 1
delta = 0.05

[scg]
T = 10
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_missing_objective_section(self, tmp_path):
        p = write_config(tmp_path, "[constraint]\nkind = box\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_algorithm_for_discrete(self, tmp_path):
        p = write_config(tmp_path, """
[objective]
kind = influence

[constraint]
kind = partition_matroid
blocks = 0-9 10-23 24-33
budgets = 2 2 2

[bcg]
T = 10
""")
        with pytest.raises(ConfigError, match="does not apply"):
            load_config(p)

    def test_discrete_requires_matroid(self, tmp_path):
        p = write_config(tmp_path, """
[objective]
kind = influence

[constraint]
kind = box

[dbg]
T = 10
""")
        with pytest.raises(ConfigError, match=re.escape(f"{p}: discrete objectives need a "
                                                        "partition_matroid constraint")):
            load_config(p)

    def test_loads_dimensions_from_data(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        assert cfg.dim == 4
        assert not cfg.discrete
        assert set(cfg.algorithms) == {"bcg", "scg"}
        assert cfg.seeds == (1, 2, 3)

    @pytest.mark.parametrize("config", ["nqp_small", "topics", "active_set", "influence"])
    def test_equal_loads_compare_equal(self, config):
        path = Path(__file__).parent.parent / "configs" / f"{config}.ini"
        assert load_config(path) == load_config(path)

    def test_objective_builder_is_fresh_each_call(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        F1 = build_objective(cfg)
        F1(np.zeros(4))
        F2 = build_objective(cfg)
        assert F2.query_count == 0


# The keys each optimizer reads, on a continuous objective and on a set function
OPTIMIZER_KEYS = {
    False: {"bcg": "T B delta", "scg": "T", "ga": "T eta0", "zga": "T B delta eta0"},
    True: {"dbg": "T B delta l trace_value_samples", "scg": "T trace_value_samples",
           "ga": "T eta0 trace_value_samples", "zga": "T B delta eta0 l trace_value_samples"},
}
# a value of each key other than its default
KEY_VALUES = {"T": 6, "B": 2, "delta": 0.04, "eta0": 0.01, "l": 2, "trace_value_samples": 3}


def coverage_config(tmp_path, discrete: bool, algorithm: str, keys: dict) -> Path:
    lines = "".join(f"{key} = {value}\n" for key, value in keys.items())
    return write_config(tmp_path, f"""
[objective]
kind = coverage
discrete = {discrete}
topics = 4
articles = 6
seed = 2

[constraint]
kind = partition_matroid
blocks = 0-2 3-5
budgets = 1 1

[{algorithm}]
{lines}""")


class TestAlgorithmKeys:
    def test_table_is_what_the_optimizers_read(self):
        assert bench._ALGO_KEYS == OPTIMIZER_KEYS

    @pytest.mark.parametrize("discrete, algorithm, key", [
        (discrete, algorithm, key)
        for discrete, rows in OPTIMIZER_KEYS.items()
        for algorithm, keys in rows.items()
        for key in keys.split()
    ])
    def test_every_key_loads_and_changes_the_run(self, tmp_path, discrete, algorithm, key):
        """Each key an optimizer reads loads under its section, and a value
        other than the default changes the cell's queries or values."""
        def run(keys):
            cfg = load_config(coverage_config(tmp_path, discrete, algorithm, keys))
            result = bench.run_cell(cfg, algorithm, seed=1)
            assert result.error is None
            return cfg.algorithms[algorithm], result.trace.queries().tolist(), \
                result.trace.values().tolist()

        params, *changed = run({"T": 5, key: KEY_VALUES[key]})
        assert getattr(params, key) == KEY_VALUES[key]
        _, *default = run({"T": 5})
        assert changed != default


def test_readme_key_table_matches_the_loader():
    """README's ``| section | kind | keys |`` table documents the enforced schema."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    lines = text[text.index("| section | kind | keys |"):].splitlines()[2:]
    documented = {}
    for line in lines[:lines.index("")]:
        section, kind, keys = (cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
        documented[section, kind] = keys.replace(",", "").split()
    enforced = {("run", "-"): bench._RUN_KEYS.split()}
    for section, tables in (("objective", bench._OBJECTIVE_KEYS),
                            ("constraint", bench._CONSTRAINT_KEYS)):
        enforced.update({(section, kind): keys.split() for kind, keys in tables.items()})
    for discrete, rows in bench._ALGO_KEYS.items():
        kind = "set function" if discrete else "continuous"
        enforced.update({(algorithm, kind): keys.split() for algorithm, keys in rows.items()})
    assert documented == enforced


DISCRETE_COVERAGE = """
[objective]
kind = coverage
discrete = {discrete}
topics = 4
articles = 6
seed = 2

[constraint]
kind = partition_matroid
blocks = 0-2 3-5
budgets = 1 1

[dbg]
T = 8
"""


class TestObjectiveLoading:
    @pytest.mark.parametrize("discrete", ["on", "yes", "1", "True"])
    def test_discrete_reads_configparser_booleans(self, tmp_path, discrete):
        cfg = load_config(write_config(tmp_path, DISCRETE_COVERAGE.format(discrete=discrete)))
        assert cfg.discrete
        assert isinstance(build_objective(cfg), SetOracle)

    @pytest.mark.parametrize("config, data, calls", [
        ("nqp_small", None, {"nqp_generate": 1}),
        ("topics", None, {"synthetic_topics": 1}),
        ("active_set", None, {"rbf_covariance": 1}),
        ("influence", None, {"karate_club_graph": 1}),
        ("topics", "topics_csv", {"load_matrix_csv": 1}),
        ("active_set", "data_csv", {"load_matrix_csv": 1, "rbf_covariance": 1}),
    ], ids=["nqp", "coverage", "logdet", "influence", "topics_csv", "data_csv"])
    def test_data_is_loaded_once_per_run(self, config, data, calls, tmp_path, monkeypatch):
        """Each data reader or generator runs once per ``zogreedy run``, whatever
        the number of cells, and every cell still gets a fresh oracle."""
        text = re.sub(r"(?m)^T\s*=\s*\d+", "T = 5", (CONFIG_DIR / f"{config}.ini").read_text())
        if data == "topics_csv":
            matrix, sizes = synthetic_topics(10, 24, 3), "topics = 10\narticles = 24"
        elif data == "data_csv":
            matrix, sizes = synthetic_data_matrix(60, 22, 5), "rows = 60\nattributes = 22"
        if data is not None:
            np.savetxt(tmp_path / "data.csv", matrix, delimiter=",", fmt="%.17g")
            assert text.count(sizes) == 1
            text = text.replace(sizes, f"{data} = data.csv")
        counts = dict.fromkeys(("nqp_generate", "synthetic_topics", "rbf_covariance",
                                "karate_club_graph", "load_matrix_csv"), 0)
        for name in counts:
            def counted(*args, fn=getattr(bench, name), name=name, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(bench, name, counted)
        built = []
        build = bench.build_objective
        monkeypatch.setattr(bench, "build_objective", lambda cfg: built.append(build(cfg)) or built[-1])
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, text)), "--out-dir", str(out)]) == 0
        assert not (out / f"{config}_failures.txt").exists()
        assert {k: v for k, v in counts.items() if v} == calls
        assert len(built) == len(set(map(id, built))) > 1


class TestRunExperiment:
    def test_row_counts_and_summary(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        trace_path, summary_path = run_experiment(cfg)
        trace = read_csv(trace_path)
        assert trace[0] == ["algorithm", "seed", "iteration", "queries",
                            "elapsed_ms", "value"]
        assert len(trace) == 1 + 2 * 3 * 10  # header + algos * seeds * T
        summary = read_csv(summary_path)
        assert summary[0] == ["algorithm", "final_value_mean", "final_value_sd",
                              "total_queries", "relative_runtime"]
        assert len(summary) == 3
        by_algo = {row[0]: row for row in summary[1:]}
        assert float(by_algo["bcg"][4]) == 1.0  # reference runtime
        assert int(by_algo["bcg"][3]) == 2 * 1 * 10
        assert int(by_algo["scg"][3]) == 10  # gradient accesses

    def test_queries_column_matches_accounting(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        trace_path, _ = run_experiment(cfg)
        for row in read_csv(trace_path)[1:]:
            algo, _, it, queries = row[0], row[1], int(row[2]), int(row[3])
            if algo == "bcg":
                assert queries == 2 * 1 * it
            else:
                assert queries == it

    def test_deterministic_modulo_wall_time(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        first, _ = run_experiment(cfg, out_dir=tmp_path / "a")
        second, _ = run_experiment(cfg, out_dir=tmp_path / "b")

        def strip_elapsed(path):
            return [row[:4] + row[5:] for row in read_csv(path)]

        assert strip_elapsed(first) == strip_elapsed(second)

    def test_parallel_jobs_agree_with_serial(self, tmp_path):
        """``jobs=2`` writes the same trace and summary CSVs as ``jobs=1``,
        apart from the wall-clock columns, for a continuous config and two discrete
        ones, so that the pickled influence and logdet oracle builders are covered."""
        shipped = {name: re.sub(r"(?m)^T\s*=\s*\d+", "T = 12",
                                (CONFIG_DIR / f"{name}.ini").read_text())
                   for name in ("influence", "active_set")}
        for name, text in (("tiny", TINY_CONFIG.format(out=tmp_path / "out")), *shipped.items()):
            cfg = load_config(write_config(tmp_path, text))
            serial = run_experiment(cfg, out_dir=tmp_path / name / "s")
            parallel = run_experiment(cfg, jobs=2, out_dir=tmp_path / name / "p")

            def strip_wall_clock(path):
                # column 4 is elapsed_ms in the trace, relative_runtime in the summary
                return [row[:4] + row[5:] for row in read_csv(path)]

            for s_path, p_path in zip(serial, parallel):
                assert read_csv(s_path)[0][4] in ("elapsed_ms", "relative_runtime")
                assert strip_wall_clock(s_path) == strip_wall_clock(p_path)
                assert len(read_csv(s_path)) > 1

    def test_discrete_experiment_runs(self, tmp_path):
        p = write_config(tmp_path, """
[objective]
kind = influence

[constraint]
kind = partition_matroid
blocks = 0-9 10-23 24-33
budgets = 2 2 2

[run]
name = cover
seeds = 1
out_dir = {out}

[dbg]
T = 10
delta = 0.05
trace_value_samples = 4

[scg]
T = 10
trace_value_samples = 4

[ga]
T = 10

[zga]
T = 10
B = 2
l = 2
delta = 0.05
""".format(out=tmp_path / "out"))
        cfg = load_config(p)
        trace_path, summary_path = run_experiment(cfg)
        rows = read_csv(trace_path)
        assert len(rows) == 1 + 4 * 10
        by_algo = {r[0]: r for r in read_csv(summary_path)[1:]}
        assert int(by_algo["dbg"][3]) == 2 * 1 * 1 * 10
        assert int(by_algo["scg"][3]) == 2 * 34 * 10
        assert int(by_algo["ga"][3]) == 2 * 34 * 10
        assert int(by_algo["zga"][3]) == 2 * 2 * 2 * 10

    def test_svg_emission(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        trace_path, _ = run_experiment(cfg)
        svg = write_svg(trace_path, tmp_path / "chart.svg")
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_noisy_evaluations_keep_exact_accounting(self, tmp_path):
        p = write_config(tmp_path, """
[objective]
kind = nqp
dim = 3
seed = 1
noise = 0.05

[constraint]
kind = box

[run]
name = noisy
seeds = 4
out_dir = {out}

[bcg]
T = 8
B = 2
delta = 0.05
""".format(out=tmp_path / "out"))
        cfg = load_config(p)
        assert cfg.noise == 0.05
        trace_path, summary_path = run_experiment(cfg)
        rows = read_csv(trace_path)
        assert len(rows) == 1 + 8
        assert int(rows[-1][3]) == 2 * 2 * 8
        assert not math.isnan(float(read_csv(summary_path)[1][1]))
