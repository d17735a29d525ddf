"""Fixed-seed golden outputs of the four shipped configs.

Each config runs through ``run_experiment`` with seeds (4, 7) and every
algorithm's ``T`` cut to 12; the trace and summary CSVs must equal the files
under ``tests/golden/``.  One more case, ``influence_ascent``, runs ``ga`` and
``zga`` on the set function of ``influence.ini``, which no shipped config
does.  Counts (iterations, queries) must match exactly and values within a
relative 1e-12, which leaves room for the last-digit drift of an unpinned
numpy.  Wall-clock columns are not compared.

To rewrite the golden files after a deliberate, documented change of the
random stream, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from zogreedy.bench import load_config, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG_DIR = Path(__file__).parent.parent / "configs"
CONFIGS = ("active_set", "influence", "nqp_small", "topics")
SEEDS = (4, 7)
T = 12
REL_TOL = 1e-12

EXACT_COLUMNS = {"algorithm", "seed", "iteration", "queries", "total_queries"}
VALUE_COLUMNS = {"value", "final_value_mean", "final_value_sd"}
WALL_CLOCK_COLUMNS = {"elapsed_ms", "relative_runtime"}


def run_short(config: str, out_dir: Path):
    """Run a shipped config with the golden seeds and iteration count."""
    cfg = load_config(CONFIG_DIR / f"{config}.ini")
    algorithms = {name: replace(p, T=T) for name, p in cfg.algorithms.items()}
    cfg = replace(cfg, seeds=SEEDS, algorithms=algorithms)
    return run_experiment(cfg, out_dir=str(out_dir))


ASCENT_SECTIONS = "\n[ga]\nT = 12\n\n[zga]\nT = 12\nB = 2\nl = 2\ndelta = 0.05\n"


def run_discrete_ascent(out_dir: Path):
    """Run ``ga`` and ``zga`` on influence.ini's set function with the golden seeds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "influence.ini"
        path.write_text((CONFIG_DIR / "influence.ini").read_text() + ASCENT_SECTIONS)
        cfg = load_config(path)
    algorithms = {name: cfg.algorithms[name] for name in ("ga", "zga")}
    cfg = replace(cfg, name="influence_ascent", seeds=SEEDS, algorithms=algorithms)
    return run_experiment(cfg, out_dir=str(out_dir))


def read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def assert_same_csv(actual: Path, expected: Path) -> None:
    got, want = read_rows(actual), read_rows(expected)
    assert got[0] == want[0], "header differs"
    assert len(got) == len(want), "row count differs"
    header = want[0]
    assert set(header) <= EXACT_COLUMNS | VALUE_COLUMNS | WALL_CLOCK_COLUMNS
    for lineno, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        for name, a, b in zip(header, g, w):
            where = f"{expected.name}:{lineno} {name}"
            if name in EXACT_COLUMNS:
                assert a == b, where
            elif name in VALUE_COLUMNS:
                assert math.isclose(float(a), float(b), rel_tol=REL_TOL), (
                    f"{where}: {a} != {b}"
                )


@pytest.mark.parametrize("config", CONFIGS)
def test_fixed_seed_outputs_match_golden(config, tmp_path):
    trace, summary = run_short(config, tmp_path)
    assert not (tmp_path / f"{config}_failures.txt").exists()
    assert_same_csv(trace, GOLDEN_DIR / trace.name)
    assert_same_csv(summary, GOLDEN_DIR / summary.name)


def test_discrete_ascent_outputs_match_golden(tmp_path):
    trace, summary = run_discrete_ascent(tmp_path)
    assert not (tmp_path / "influence_ascent_failures.txt").exists()
    assert_same_csv(trace, GOLDEN_DIR / trace.name)
    assert_same_csv(summary, GOLDEN_DIR / summary.name)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CONFIGS:
        for path in run_short(name, GOLDEN_DIR):
            print(path)
    for path in run_discrete_ascent(GOLDEN_DIR):
        print(path)
