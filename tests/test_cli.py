from pathlib import Path

import pytest

import zogreedy.bench
from zogreedy import SetOracle
from zogreedy.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

CONFIG_DIR = Path(__file__).parent.parent / "configs"

CONTINUOUS = """
[objective]
kind = nqp
dim = 4
seed = 3

[constraint]
kind = block_budget
blocks = 0-1 2-3
budgets = 1 1

[run]
name = cli_tiny
seeds = 1 2
out_dir = {out}

[bcg]
T = 8
delta = 0.05
"""

DISCRETE = """
[objective]
kind = coverage
discrete = true
topics = 4
articles = 6
seed = 2

[constraint]
kind = partition_matroid
blocks = 0-2 3-5
budgets = 1 1

[run]
name = cli_cover
seeds = 1
out_dir = {out}

[dbg]
T = 8
delta = 0.05
trace_value_samples = 2
"""

LOGDET = """
[objective]
kind = logdet
rows = 8
attributes = 4
bandwidth = 0.75
seed = 1

[constraint]
kind = partition_matroid
blocks = 0-1 2-3
budgets = 1 1

[run]
seeds = 1
out_dir = {out}

[dbg]
T = 8
delta = 0.05
"""

INFLUENCE = """
[objective]
kind = influence
edges = karate

[constraint]
kind = partition_matroid
blocks = 0-9 10-23 24-33
budgets = 2 2 2

[run]
seeds = 1
out_dir = {out}

[dbg]
T = 8
delta = 0.05
"""

# The lines of DISCRETE that topics_csv replaces
CSV_REPLACES = "topics = 4\narticles = 6\nseed = 2"

# CONTINUOUS with a continuous coverage objective in place of the quadratic one
COVERAGE = CONTINUOUS.replace("kind = nqp\ndim = 4", "kind = coverage\ntopics = 3\narticles = 4")


@pytest.fixture
def continuous_config(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(CONTINUOUS.format(out=tmp_path / "out"))
    return p


@pytest.fixture
def discrete_config(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(DISCRETE.format(out=tmp_path / "out"))
    return p


class TestRunCommand:
    def test_writes_outputs(self, continuous_config, tmp_path, capsys):
        code = main(["run", str(continuous_config)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "trace:" in out and "summary:" in out
        assert (tmp_path / "out" / "cli_tiny_trace.csv").exists()
        assert (tmp_path / "out" / "cli_tiny_summary.csv").exists()

    def test_seed_override_and_out_dir(self, continuous_config, tmp_path):
        code = main([
            "run", str(continuous_config),
            "--seed-override", "5",
            "--out-dir", str(tmp_path / "alt"),
        ])
        assert code == EXIT_OK
        rows = (tmp_path / "alt" / "cli_tiny_trace.csv").read_text().splitlines()
        assert len(rows) == 1 + 8  # one seed only
        assert all(r.split(",")[1] == "5" for r in rows[1:])

    def test_jobs_flag(self, continuous_config):
        assert main(["run", str(continuous_config), "--jobs", "2"]) == EXIT_OK

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, continuous_config, tmp_path, jobs, capsys):
        assert main(["run", str(continuous_config), "--jobs", jobs]) == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_clean_run_removes_stale_failures_file(self, discrete_config, tmp_path,
                                                   monkeypatch):
        def broken(cfg):
            raise ValueError("cannot build")

        monkeypatch.setattr(zogreedy.bench, "build_objective", broken)
        assert main(["run", str(discrete_config)]) == EXIT_RUNTIME
        failures = tmp_path / "out" / "cli_cover_failures.txt"
        assert failures.exists()
        monkeypatch.undo()
        assert main(["run", str(discrete_config)]) == EXIT_OK
        assert not failures.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == EXIT_CONFIG

    def test_unreadable_config_is_config_error_naming_it(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == EXIT_CONFIG  # a directory, not a file
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "section" not in err

    def test_malformed_config_is_config_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[objective]\nkind = unknown_thing\n")
        assert main(["run", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize("template, line, bad", [
        (CONTINUOUS, "T = 8", "T = abc"),
        (CONTINUOUS, "delta = 0.05", "delta = small"),
        (CONTINUOUS, "delta = 0.05", "delta = nan"),
        (CONTINUOUS, "T = 8", "T = 8\nB = 1.5"),
        (CONTINUOUS, "seed = 3", "seed = x"),
        (CONTINUOUS, "seed = 3", "seed = -1"),
        (LOGDET, "seed = 1", "seed = -1"),
        (CONTINUOUS, "kind = nqp", "kind = nqp\nnoise = abc"),
        (CONTINUOUS, "kind = nqp", "kind = nqp\nnoise = nan"),
        (DISCRETE, "seed = 2", "seed = 2\nnoise = 5.0"),
        (LOGDET, "seed = 1", "seed = 1\nnoise = 0.0"),
        (DISCRETE, "topics = 4", "topics = four"),
        (DISCRETE, "articles = 6", "articles = 6.5"),
        (LOGDET, "rows = 8", "rows = many"),
        (LOGDET, "attributes = 4", "attributes = x"),
        (LOGDET, "bandwidth = 0.75", "bandwidth = wide"),
        (LOGDET, "bandwidth = 0.75", "bandwidth = nan"),
        (LOGDET, "bandwidth = 0.75", "bandwidth = -1"),
        (LOGDET, "bandwidth = 0.75", "bandwidth = inf"),
        (CONTINUOUS, "budgets = 1 1", "budgets = nan 1"),
    ], ids=["T", "delta", "delta_nan", "B", "seed", "seed_negative", "seed_negative_logdet", "noise",
            "noise_nan", "noise_discrete", "noise_logdet", "topics", "articles", "rows",
            "attributes", "bandwidth", "bandwidth_nan", "bandwidth_negative", "bandwidth_inf",
            "budgets_nan"])
    def test_malformed_key_is_config_error(self, template, line, bad, tmp_path, capsys):
        """Each malformed value is a config error that names the config file."""
        assert template.count(line) == 1
        p = tmp_path / "bad.ini"
        p.write_text(template.replace(line, bad).format(out=tmp_path / "out"))
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {p}: ")

    @pytest.mark.parametrize("template, line, bad, message", [
        (DISCRETE, CSV_REPLACES, "topics_csv = absent.csv", "No such file"),
        (LOGDET, "rows = 8\nattributes = 4\nbandwidth = 0.75\nseed = 1",
         "data_csv = absent.csv\nbandwidth = 0.75", "No such file"),
        (INFLUENCE, "edges = karate", "edges = absent.txt", "No such file"),
        (DISCRETE, "topics = 4", "topics = 0", "non-empty"),
        (DISCRETE, "topics = 4", "topics = -2", "negative dimensions"),
        (CONTINUOUS, "dim = 4\n", "", "missing key 'dim'"),
        (CONTINUOUS, "kind = block_budget\nblocks = 0-1 2-3\nbudgets = 1 1",
         "kind = box\ncap = 2", "domain"),
        (CONTINUOUS, "budgets = 1 1", "budgets = 1 1\ncap = 1.5", "domain"),
        (CONTINUOUS, "seed = 3", "seed = 3\nbogus_key = 1", "[objective]: unknown key 'bogus_key'"),
        (CONTINUOUS, "budgets = 1 1", "budgets = 1 1\nbudget = 2", "[constraint]: unknown key 'budget'"),
        (CONTINUOUS, "seeds = 1 2", "seeds = 1 2\nsede = 3", "[run]: unknown key 'sede'"),
        (CONTINUOUS, "T = 8", "T = 8\nTT = 6", "[bcg]: unknown key 'tt'"),
        (COVERAGE, "seed = 3", "seed = 3\ndiscrete = maybe", "Not a boolean"),
        (COVERAGE, "seed = 3", "seed = 3\ndiscrete = ture", "Not a boolean"),
        (CONTINUOUS, "kind = block_budget\n", "", "[constraint]: unknown key 'blocks'"),
        (DISCRETE, "budgets = 1 1", "budgets = 1 1\ncap = 3", "[constraint]: unknown key 'cap'"),
        (INFLUENCE, "edges = karate", "edges = karate\ndim = 50\nrows = 7",
         "[objective]: unknown key 'dim'"),
        (LOGDET, "seed = 1", "seed = 1\ndiscrete = true", "[objective]: unknown key 'discrete'"),
        (CONTINUOUS, "delta = 0.05", "delta = 0.6", "empty or degenerate box"),
        (INFLUENCE, "blocks = 0-9 10-23 24-33\nbudgets = 2 2 2", "blocks = 0-29\nbudgets = 1",
         "budget 1.0 < delta*|block|"),
        (CONTINUOUS, "T = 8", "T = 8\nl = 5", "[bcg]: unknown key 'l'"),
        (CONTINUOUS, "T = 8", "T = 8\neta0 = 3", "[bcg]: unknown key 'eta0'"),
        (CONTINUOUS, "T = 8", "T = 8\ntrace_value_samples = 9",
         "[bcg]: unknown key 'trace_value_samples'"),
        (CONTINUOUS, "[bcg]\nT = 8\ndelta = 0.05", "[scg]\nT = 8\nB = 4", "[scg]: unknown key 'b'"),
        (CONTINUOUS, "[bcg]\nT = 8\ndelta = 0.05", "[scg]\nT = 8\ndelta = 0.3",
         "[scg]: unknown key 'delta'"),
        (DISCRETE, "[dbg]", "[ga]\nT = 8\nl = 2\n\n[dbg]", "[ga]: unknown key 'l'"),
        (DISCRETE, "articles = 6\nseed = 2", "topics_csv = t.csv",
         "[objective]: key 'topics' is unused when 'topics_csv' is set"),
        (DISCRETE, "topics = 4\n", "topics_csv = t.csv\n",
         "[objective]: key 'articles' is unused when 'topics_csv' is set"),
        (DISCRETE, "topics = 4\narticles = 6", "topics_csv = t.csv",
         "[objective]: key 'seed' is unused when 'topics_csv' is set"),
        (COVERAGE, "topics = 3\narticles = 4\nseed = 3",
         "topics_csv = t.csv\ntopics = 50\nseed = -4",
         "[objective]: key 'topics' is unused when 'topics_csv' is set"),
        (LOGDET, "attributes = 4\n", "data_csv = d.csv\n",
         "[objective]: key 'rows' is unused when 'data_csv' is set"),
        (LOGDET, "rows = 8\n", "data_csv = d.csv\n",
         "[objective]: key 'attributes' is unused when 'data_csv' is set"),
        (LOGDET, "rows = 8\nattributes = 4", "data_csv = d.csv",
         "[objective]: key 'seed' is unused when 'data_csv' is set"),
    ], ids=["topics_csv_missing", "data_csv_missing", "edges_missing", "topics_zero",
            "topics_negative", "dim_missing", "box_cap_above_domain", "budget_cap_above_domain",
            "objective_typo", "constraint_typo", "run_typo", "algorithm_typo",
            "discrete_maybe", "discrete_typo", "blocks_without_kind", "cap_on_matroid",
            "keys_of_other_kind", "discrete_on_logdet", "delta_empties_box",
            "delta_empties_budget", "l_on_bcg", "eta0_on_bcg", "trace_value_samples_on_bcg",
            "B_on_scg", "delta_on_scg", "l_on_discrete_ga", "topics_with_topics_csv",
            "articles_with_topics_csv", "seed_with_topics_csv", "continuous_topics_csv",
            "rows_with_data_csv", "attributes_with_data_csv", "seed_with_data_csv"])
    def test_bad_input_fails_at_load(self, template, line, bad, message, tmp_path, capsys):
        """Input only the data readers or oracle builders reject, keys nothing
        reads, and a delta that leaves no shrunk set exit 2 before any cell
        runs, with a message that names the config file."""
        assert template.count(line) == 1
        p = tmp_path / "bad.ini"
        p.write_text(template.replace(line, bad).format(out=tmp_path / "out"))
        assert main(["run", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {p}: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_opt_with_missing_data_file_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text(DISCRETE.replace(CSV_REPLACES, "topics_csv = absent.csv")
                     .format(out=tmp_path / "out"))
        assert main(["opt", str(p)]) == EXIT_CONFIG
        assert "No such file" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("ga", "eta0 = inf"), ("zga", "delta = inf")],
                             ids=["eta0 = inf", "delta = inf"])
    def test_infinite_step_size_is_config_error(self, section, key, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text((CONTINUOUS + f"\n[{section}]\nT = 8\n{key}\n").format(out=tmp_path / "out"))
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert "finite and positive" in capsys.readouterr().err

    def test_nan_topics_csv_is_config_error(self, tmp_path, capsys):
        csv = tmp_path / "topics.csv"
        rows = [[0.5] * 6 for _ in range(3)]
        rows[1][4] = "nan"
        csv.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
        p = tmp_path / "bad.ini"
        p.write_text(DISCRETE.replace(CSV_REPLACES, "topics_csv = topics.csv")
                     .format(out=tmp_path / "out"))
        assert main(["run", str(p)]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    def test_objective_build_failure_is_a_failed_cell(self, discrete_config, tmp_path,
                                                      monkeypatch):
        def broken(cfg):
            raise ValueError("cannot build")

        monkeypatch.setattr(zogreedy.bench, "build_objective", broken)
        assert main(["run", str(discrete_config)]) == EXIT_RUNTIME
        failures = (tmp_path / "out" / "cli_cover_failures.txt").read_text()
        assert failures == "dbg seed=1: ValueError: cannot build\n"
        assert (tmp_path / "out" / "cli_cover_trace.csv").exists()

    def test_nan_objective_cell_is_runtime_error(self, discrete_config, tmp_path,
                                                  monkeypatch):
        nan_oracle = SetOracle(lambda S: float("nan"), ground_size=6, bound_M=1.0)
        monkeypatch.setattr(zogreedy.bench, "build_objective", lambda cfg: nan_oracle)
        assert main(["run", str(discrete_config)]) == EXIT_RUNTIME
        failures = (tmp_path / "out" / "cli_cover_failures.txt").read_text()
        assert failures.startswith("dbg seed=1: ValueError")
        assert "non-finite" in failures


class TestOptCommand:
    def test_reports_brute_force_optimum(self, discrete_config, capsys):
        code = main(["opt", str(discrete_config)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "optimum value:" in out
        assert "optimum set:" in out

    def test_rejects_continuous_config(self, continuous_config):
        assert main(["opt", str(continuous_config)]) == EXIT_CONFIG

    def test_oversized_instance_is_runtime_error(self, tmp_path):
        p = tmp_path / "big.ini"
        p.write_text("""
[objective]
kind = coverage
discrete = true
topics = 3
articles = 40
seed = 0

[constraint]
kind = partition_matroid
blocks = 0-39
budgets = 20

[dbg]
T = 8
delta = 0.01
""")
        assert main(["opt", str(p)]) == EXIT_RUNTIME


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["nqp_small", "topics", "active_set", "influence"])
    def test_config_runs_end_to_end(self, name, tmp_path):
        code = main([
            "run", str(CONFIG_DIR / f"{name}.ini"),
            "--seed-override", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        trace = tmp_path / f"{name}_trace.csv"
        assert trace.exists()
        assert len(trace.read_text().splitlines()) > 1
        assert not (tmp_path / f"{name}_failures.txt").exists()


class TestPlotCommand:
    def test_renders_svg(self, continuous_config, tmp_path, capsys):
        main(["run", str(continuous_config)])
        trace = tmp_path / "out" / "cli_tiny_trace.csv"
        code = main(["plot", str(trace), "--out", str(tmp_path / "c.svg")])
        assert code == EXIT_OK
        assert (tmp_path / "c.svg").read_text().startswith("<svg")

    def test_default_output_path(self, continuous_config, tmp_path):
        main(["run", str(continuous_config)])
        trace = tmp_path / "out" / "cli_tiny_trace.csv"
        assert main(["plot", str(trace)]) == EXIT_OK
        assert trace.with_suffix(".svg").exists()

    def test_missing_csv_is_config_error(self, tmp_path):
        assert main(["plot", str(tmp_path / "none.csv")]) == EXIT_CONFIG
