import csv
import math
from pathlib import Path

import numpy as np
import pytest

from zogreedy import ConstraintSpec, SetOracle, coverage_set_oracle
from zogreedy.bench import (
    ConfigError,
    brute_force_opt,
    build_objective,
    count_feasible_sets,
    iter_feasible_sets,
    karate_club_graph,
    load_config,
    load_edge_list,
    load_matrix_csv,
    run_experiment,
    synthetic_data_matrix,
    synthetic_topics,
    write_svg,
)


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
        with pytest.raises(ConfigError, match="partition_matroid"):
            load_config(p)

    def test_loads_dimensions_from_data(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        assert cfg.dim == 4
        assert not cfg.discrete
        assert set(cfg.algorithms) == {"bcg", "scg"}
        assert cfg.seeds == (1, 2, 3)

    def test_objective_builder_is_fresh_each_call(self, tmp_path):
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        F1 = build_objective(cfg)
        F1(np.zeros(4))
        F2 = build_objective(cfg)
        assert F2.query_count == 0


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
        p = write_config(tmp_path, TINY_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(p)
        serial, _ = run_experiment(cfg, out_dir=tmp_path / "s")
        parallel, _ = run_experiment(cfg, jobs=2, out_dir=tmp_path / "p")

        def strip_elapsed(path):
            return [row[:4] + row[5:] for row in read_csv(path)]

        assert strip_elapsed(serial) == strip_elapsed(parallel)

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
l = 2

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
