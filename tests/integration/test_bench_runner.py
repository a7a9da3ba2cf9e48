"""Paper grid runner: determinism, worker-count invariance, shape check.

The runner fans simulation points across worker processes; simulated
results must not depend on scheduling. Two invocations -- and different
worker counts -- must produce byte-identical ``results`` sections
(wall-clock and similar host facts are confined to ``meta``). Its
``check`` holds the paper's shape bounds; it runs here on the committed
golden documents, so these tests boot no grid to exercise it.
"""

import copy
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
        out_name = runner.TABLES[name][1]
        docs = []
        for sub in ("x", "y"):
            with open(tmp_path / sub / out_name) as handle:
                docs.append(json.load(handle))
        assert (json.dumps(docs[0]["results"], sort_keys=True)
                == json.dumps(docs[1]["results"], sort_keys=True))
        # wall-clock facts live in meta, never in results
        for key in ("wall_seconds", "point_seconds"):
            assert key in docs[0]["meta"]
            assert key not in json.dumps(docs[0]["results"])
        assert set(docs[0]["meta"]["point_seconds"]) == {
            "postmark/native", "postmark/virtual_ghost"}


def test_enumerate_points_stable_order():
    kwargs = dict(iterations=5, count=8, transactions=40)
    once = runner.enumerate_points(("table2", "table3"), **kwargs)
    twice = runner.enumerate_points(("table2", "table3"), **kwargs)
    assert once == twice
    assert len(once) > 2


def test_golden_diff_flags_a_drifted_number_and_updates(tmp_path):
    runner.run_grid(workers=1, out_dir=str(tmp_path / "run"), **_GRID)
    name = runner.TABLES["table5"][1]
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


def test_golden_diff_names_a_missing_table(tmp_path, capsys):
    runner.run_grid(workers=1, out_dir=str(tmp_path), **_GRID)
    assert golden_diff.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "BENCH_fig2_thttpd.json" in out
    assert runner.TABLES["table5"][1] not in out


# ----------------------------------------------------------------------
# the shape check, on the committed golden documents
# ----------------------------------------------------------------------

def _golden_results():
    """Every table's results: the goldens, plus the TCB counted live."""
    results = {}
    for table, (_, out_name) in runner.TABLES.items():
        path = Path(golden_diff.GOLDEN_DIR) / out_name
        if path.exists():
            results[table] = json.loads(path.read_text())
    tcb_point, = runner.enumerate_points(("tcb",))
    results.update(runner.merge_tables(("tcb",),
                                       [runner.run_point(tcb_point)]))
    return results


def _failed(results):
    return [bound.describe() for bound, _, holds in runner.check(results)
            if not holds]


def test_check_passes_on_the_golden_documents():
    results = _golden_results()
    assert set(results) == set(runner.ALL_TABLES)
    verdicts = runner.check(results)
    assert {bound.table for bound, _, _ in verdicts} == set(results)
    assert len(verdicts) == len(runner.BOUNDS)
    assert _failed(results) == []


def test_check_skips_tables_not_in_the_run():
    results = {"table5": _golden_results()["table5"]}
    assert {bound.table for bound, _, _ in runner.check(results)} == {
        "table5"}


def test_check_fails_a_table3_overhead_of_6():
    results = copy.deepcopy(_golden_results())
    results["table3"]["1024"]["overhead"] = 6.0
    assert "3.5 < overhead [1024 B] < 5.5" in _failed(results)


def test_check_fails_a_fig3_small_file_reduction_of_60():
    results = copy.deepcopy(_golden_results())
    results["fig3"]["1024"]["reduction_pct"] = 60.0
    assert _failed(results) == ["10 < reduction % [1024 B] < 50"]


def test_check_fails_a_ghosting_app_at_1_5x():
    results = copy.deepcopy(_golden_results())
    ghosting = results["ablation"][runner.SELECTIVE]
    ghosting["ghost heap, staged I/O"] = (
        1.5 * ghosting["traditional heap, direct I/O"])
    assert _failed(results) == [
        "1 < ghosting/traditional app cycles < 1.5"]


def test_table4_monotone_bound_reads_sizes_in_numeric_order():
    table4 = _golden_results()["table4"]
    # JSON's sort_keys puts "10240" before "4096"; with the golden rates
    # that lexical order shows a (false) rise.
    lexical = [table4[size]["native_per_sec"] for size in sorted(table4)]
    assert sorted(table4) == ["0", "1024", "10240", "4096"]
    assert any(b > a for a, b in zip(lexical, lexical[1:]))
    assert runner._largest_rise(table4) <= 0
    assert _failed({"table4": table4}) == []
    # a real rise between 4096 and 10240 bytes fails it
    table4 = copy.deepcopy(table4)
    table4["10240"]["native_per_sec"] = (
        table4["4096"]["native_per_sec"] + 1)
    assert _failed({"table4": table4}) == [
        "largest native rate rise with size <= 0"]


@pytest.mark.parametrize("point, field", [
    ({"kind": "fig2", "key": 1024, "config": "virtual_ghost",
      "requests": 1}, "kb_per_sec"),
    ({"kind": "fig3", "key": 1024, "config": "virtual_ghost",
      "transfers": 1}, "kb_per_sec"),
    ({"kind": "fig4", "key": 1024, "config": "ghosting",
      "transfers": 1}, "kb_per_sec"),
    ({"kind": "ablation", "key": "open_close", "config": "cfi only",
      "iterations": 2}, "us_per_op"),
    ({"kind": "ablation", "key": runner.SELECTIVE,
      "config": "ghost heap, staged I/O", "rounds": 1}, "cycles"),
    ({"kind": "tcb", "key": None, "config": None}, "tcb"),
], ids=lambda value: runner.point_label(value)
    if isinstance(value, dict) else None)
def test_run_point_smoke_for_each_new_kind(point, field):
    row = runner.run_point(point)
    assert row.items() >= point.items()
    assert row[field]
