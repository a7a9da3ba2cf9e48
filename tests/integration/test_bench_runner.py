"""Parallel benchmark runner: determinism and worker-count invariance.

The runner fans simulation points across worker processes; simulated
results must not depend on scheduling. Two invocations -- and different
worker counts -- must produce byte-identical ``results`` sections
(wall-clock and similar host facts are confined to ``meta``).
"""

import importlib.util
import json
import multiprocessing
import sys
from pathlib import Path

import pytest

_RUNNER_PATH = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "runner.py")
_spec = importlib.util.spec_from_file_location("bench_runner",
                                               _RUNNER_PATH)
runner = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_runner", runner)
_spec.loader.exec_module(runner)

_golden_spec = importlib.util.spec_from_file_location(
    "bench_golden_diff", _RUNNER_PATH.with_name("golden_diff.py"))
golden_diff = importlib.util.module_from_spec(_golden_spec)
_golden_spec.loader.exec_module(golden_diff)

# A tiny grid keeps this inside tier-1 budgets: one table, small sizes.
_GRID = dict(tables=("table5",), transactions=40)


def _results_bytes(documents):
    """The deterministic section of each document, canonically encoded."""
    return {name: json.dumps(doc["results"], sort_keys=True)
            for name, doc in documents.items()}


def test_two_invocations_identical_in_process(tmp_path):
    first = runner.run_grid(workers=1, out_dir=str(tmp_path / "a"),
                            **_GRID)
    second = runner.run_grid(workers=1, out_dir=str(tmp_path / "b"),
                             **_GRID)
    assert _results_bytes(first) == _results_bytes(second)


def test_parallel_matches_in_process(tmp_path):
    if not hasattr(multiprocessing, "get_context"):
        pytest.skip("no multiprocessing on this host")
    serial = runner.run_grid(workers=1, **_GRID)
    parallel = runner.run_grid(workers=2, out_dir=str(tmp_path), **_GRID)
    assert _results_bytes(serial) == _results_bytes(parallel)
    # the parallel invocation really used the pool
    assert all(doc["meta"]["workers"] == 2 for doc in parallel.values())


def test_written_files_deterministic_modulo_meta(tmp_path):
    runner.run_grid(workers=1, out_dir=str(tmp_path / "x"), **_GRID)
    runner.run_grid(workers=1, out_dir=str(tmp_path / "y"), **_GRID)
    for name in _GRID["tables"]:
        out_name = runner._OUT_NAMES[name]
        docs = []
        for sub in ("x", "y"):
            with open(tmp_path / sub / out_name) as handle:
                docs.append(json.load(handle))
        assert (json.dumps(docs[0]["results"], sort_keys=True)
                == json.dumps(docs[1]["results"], sort_keys=True))
        # wall-clock facts live in meta, never in results
        assert "wall_seconds" in docs[0]["meta"]


def test_enumerate_points_stable_order():
    kwargs = dict(iterations=5, count=8, transactions=40)
    once = runner.enumerate_points(("table2", "table3"), **kwargs)
    twice = runner.enumerate_points(("table2", "table3"), **kwargs)
    assert once == twice
    assert len(once) > 2


def test_golden_diff_flags_a_drifted_number_and_updates(tmp_path):
    runner.run_grid(workers=1, out_dir=str(tmp_path / "run"), **_GRID)
    name = runner._OUT_NAMES["table5"]
    golden = tmp_path / "golden"
    golden.mkdir()
    with open(tmp_path / "run" / name) as handle:
        results = json.load(handle)["results"]
    (golden / name).write_text(golden_diff._render(results))
    assert golden_diff.diff_results(str(tmp_path / "run"),
                                    str(golden)) == []

    results["overhead"] += 1
    (golden / name).write_text(golden_diff._render(results))
    lines = golden_diff.diff_results(str(tmp_path / "run"), str(golden))
    assert any(line.startswith("-") and '"overhead"' in line
               for line in lines)
    golden_diff.diff_results(str(tmp_path / "run"), str(golden),
                             update=True)
    assert golden_diff.diff_results(str(tmp_path / "run"),
                                    str(golden)) == []
