"""Parallel benchmark runner: fan the paper's grids across processes.

Every benchmark grid point -- one (workload, parameter, kernel
configuration) triple -- boots its own :class:`~repro.system.System`, so
points are fully independent and embarrassingly parallel. This runner
enumerates the points for the paper's tables, executes them across a
worker-process pool, and merges the results into one JSON document per
table:

* ``BENCH_table2_lmbench.json``   -- 9 LMBench probes x {native, vg}
* ``BENCH_table3_file_delete.json`` / ``BENCH_table4_file_create.json``
  -- file-churn sizes x {native, vg} (one run feeds both tables)
* ``BENCH_table5_postmark.json``  -- Postmark x {native, vg}

Simulated results are deterministic, so the ``results`` section of each
document is byte-identical run to run regardless of worker count or
scheduling; everything wall-clock (host seconds, worker count, hostname)
is confined to the ``meta`` section. The determinism tests in
``tests/integration/test_bench_runner.py`` rely on this split.

CLI::

    PYTHONPATH=src python -m benchmarks.runner \
        --tables table2,table3,table4,table5 \
        --workers 4 --scale 1 --out-dir results/

See EXPERIMENTS.md for the full flag reference.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import time
from typing import Any

from repro.baselines.inktag import InkTagModel, RunMetrics
from repro.core.config import VGConfig
from repro.workloads.files import FILE_SIZES, run_file_churn
from repro.workloads.lmbench import BENCH_NAMES, LMBench
from repro.workloads.postmark import run_postmark

try:
    from benchmarks import faultcli
except ImportError:              # run as a bare script
    import faultcli

ALL_TABLES = ("table2", "table3", "table4", "table5")

_CONFIGS = ("native", "virtual_ghost")


def _make_config(name: str) -> VGConfig:
    if name == "native":
        return VGConfig.native()
    if name == "virtual_ghost":
        return VGConfig.virtual_ghost()
    raise ValueError(f"unknown config {name!r}")


# ----------------------------------------------------------------------
# grid points
# ----------------------------------------------------------------------

def enumerate_points(tables: tuple[str, ...], *, iterations: int,
                     count: int, transactions: int) -> list[dict]:
    """One dict per independent simulation run, in deterministic order."""
    points: list[dict] = []
    if "table2" in tables:
        for bench in BENCH_NAMES:
            for config in _CONFIGS:
                points.append({"kind": "lmbench", "bench": bench,
                               "config": config,
                               "iterations": iterations})
    if "table3" in tables or "table4" in tables:
        for size in FILE_SIZES:
            for config in _CONFIGS:
                points.append({"kind": "files", "size": size,
                               "config": config, "count": count})
    if "table5" in tables:
        for config in _CONFIGS:
            points.append({"kind": "postmark", "config": config,
                           "transactions": transactions})
    return points


def run_point(point: dict) -> dict:
    """Execute one grid point in a (worker) process; returns plain data."""
    config = _make_config(point["config"])
    if point["kind"] == "lmbench":
        result = LMBench(config,
                         iterations=point["iterations"]).run_one(
                             point["bench"])
        return {**point,
                "us_per_op": result.us_per_op,
                "ops": result.ops,
                "cycles": result.metrics.cycles,
                "counters": result.metrics.counters,
                "page_faults": result.page_faults,
                "machine_metrics": result.system.metrics.snapshot()}
    if point["kind"] == "files":
        result = run_file_churn(config, size=point["size"],
                                count=point["count"])
        return {**point,
                "created_per_sec": result.created_per_sec,
                "deleted_per_sec": result.deleted_per_sec,
                "create_cycles": result.create_metrics.cycles,
                "create_counters": result.create_metrics.counters,
                "delete_cycles": result.delete_metrics.cycles,
                "delete_counters": result.delete_metrics.counters,
                "machine_metrics": result.system.metrics.snapshot()}
    if point["kind"] == "postmark":
        result = run_postmark(config,
                              transactions=point["transactions"])
        return {**point,
                "seconds": result.seconds,
                "transactions_per_sec": result.transactions_per_sec,
                "files_created": result.files_created,
                "files_deleted": result.files_deleted,
                "bytes_read": result.bytes_read,
                "bytes_written": result.bytes_written,
                "machine_metrics": result.system.metrics.snapshot()}
    raise ValueError(f"unknown point kind {point['kind']!r}")


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------

def _pair(rows: list[dict], **match) -> dict[str, dict]:
    out = {}
    for row in rows:
        if all(row.get(k) == v for k, v in match.items()):
            out[row["config"]] = row
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else float("inf")


def _metrics_pair(pair: dict[str, dict]) -> dict[str, dict]:
    """Machine-metrics snapshots for a native/vg result pair.

    Simulation facts only (counters and gauges of the always-on
    per-machine registry), so the embedded snapshots are as deterministic
    as the rest of the ``results`` section.
    """
    return {config: row.get("machine_metrics", {})
            for config, row in sorted(pair.items())}


def merge_tables(tables: tuple[str, ...],
                 rows: list[dict]) -> dict[str, dict]:
    """Fold raw point rows into per-table paper-shaped results."""
    model = InkTagModel()
    merged: dict[str, dict] = {}

    if "table2" in tables:
        table: dict[str, Any] = {}
        for bench in BENCH_NAMES:
            pair = _pair(rows, kind="lmbench", bench=bench)
            native, vg = pair["native"], pair["virtual_ghost"]
            inktag_x = model.slowdown(
                RunMetrics(cycles=native["cycles"],
                           counters=native["counters"]),
                page_faults=native["page_faults"])
            table[bench] = {
                "native_us": native["us_per_op"],
                "virtual_ghost_us": vg["us_per_op"],
                "overhead": _ratio(vg["us_per_op"], native["us_per_op"]),
                "inktag_model": inktag_x,
                "machine_metrics": _metrics_pair(pair),
            }
        merged["table2"] = table

    for name, rate_key, metric_keys in (
            ("table3", "deleted_per_sec",
             ("delete_cycles", "delete_counters")),
            ("table4", "created_per_sec",
             ("create_cycles", "create_counters"))):
        if name not in tables:
            continue
        table = {}
        for size in FILE_SIZES:
            pair = _pair(rows, kind="files", size=size)
            native, vg = pair["native"], pair["virtual_ghost"]
            inktag_x = model.slowdown(
                RunMetrics(cycles=native[metric_keys[0]],
                           counters=native[metric_keys[1]]))
            table[str(size)] = {
                "native_per_sec": native[rate_key],
                "virtual_ghost_per_sec": vg[rate_key],
                "overhead": _ratio(native[rate_key], vg[rate_key]),
                "inktag_model": inktag_x,
                "machine_metrics": _metrics_pair(pair),
            }
        merged[name] = table

    if "table5" in tables:
        pair = _pair(rows, kind="postmark")
        native, vg = pair["native"], pair["virtual_ghost"]
        merged["table5"] = {
            "native_seconds": native["seconds"],
            "virtual_ghost_seconds": vg["seconds"],
            "native_tps": native["transactions_per_sec"],
            "virtual_ghost_tps": vg["transactions_per_sec"],
            "overhead": _ratio(vg["seconds"], native["seconds"]),
            "files_created": native["files_created"],
            "files_deleted": native["files_deleted"],
            "machine_metrics": _metrics_pair(pair),
        }
    return merged


_OUT_NAMES = {
    "table2": "BENCH_table2_lmbench.json",
    "table3": "BENCH_table3_file_delete.json",
    "table4": "BENCH_table4_file_create.json",
    "table5": "BENCH_table5_postmark.json",
}


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run_grid(tables: tuple[str, ...] = ALL_TABLES, *, workers: int = 0,
             iterations: int = 60, count: int = 48,
             transactions: int = 600,
             out_dir: str | None = None,
             extra_meta: dict | None = None) -> dict[str, dict]:
    """Run the requested tables' grids and return (optionally write) the
    merged JSON documents, keyed by table name.

    ``workers=0`` picks ``min(#points, max(2, cpu_count))``; ``workers=1``
    runs in-process (no pool), which is what the tier-1 tests use.

    Fault injection and resilience ride in through the ``REPRO_FAULT_*``
    / ``REPRO_RESILIENCE`` environment (see ``faultcli.export_fault_env``)
    -- forked workers inherit it, so every grid point sees the same
    deterministic per-site fault streams. ``extra_meta`` is merged into
    each document's ``meta`` section to record those knobs.
    """
    points = enumerate_points(tables, iterations=iterations, count=count,
                              transactions=transactions)
    if workers <= 0:
        workers = min(len(points), max(2, os.cpu_count() or 2))
    started = time.time()
    if not points:
        rows = []
    elif workers == 1:
        rows = [run_point(p) for p in points]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            rows = pool.map(run_point, points, chunksize=1)
    wall_seconds = time.time() - started

    # Deterministic merge order regardless of pool scheduling.
    rows.sort(key=lambda r: json.dumps(
        {k: v for k, v in r.items() if not isinstance(v, dict)},
        sort_keys=True))
    merged = merge_tables(tables, rows)

    documents: dict[str, dict] = {}
    for name, results in merged.items():
        documents[name] = {
            "meta": {
                "table": name,
                "workers": workers,
                "points": len(points),
                "iterations": iterations,
                "count": count,
                "transactions": transactions,
                "wall_seconds": round(wall_seconds, 3),
                "unix_time": round(started, 3),
                **(extra_meta or {}),
            },
            "results": results,
        }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, document in documents.items():
            path = os.path.join(out_dir, _OUT_NAMES[name])
            with open(path, "w") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
    return documents


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.runner",
        description="Run the paper's benchmark grids across worker "
                    "processes and merge BENCH_*.json result tables.")
    parser.add_argument("--tables", default=",".join(ALL_TABLES),
                        help="comma-separated subset of: "
                             + ", ".join(ALL_TABLES))
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = auto, 1 = in-process)")
    parser.add_argument("--scale", type=int, default=1,
                        help="multiply iteration/transaction counts")
    parser.add_argument("--iterations", type=int, default=60,
                        help="LMBench iterations per probe (pre-scale)")
    parser.add_argument("--count", type=int, default=48,
                        help="file-churn files per point (pre-scale)")
    parser.add_argument("--transactions", type=int, default=600,
                        help="Postmark transactions (pre-scale)")
    parser.add_argument("--out-dir", default="results",
                        help="directory for BENCH_*.json (default "
                             "results/)")
    faultcli.add_fault_args(parser, seed_default=None, rate_default=None)
    faultcli.add_resilience_arg(parser)
    args = parser.parse_args(argv)

    tables = tuple(t.strip() for t in args.tables.split(",") if t.strip())
    for table in tables:
        if table not in ALL_TABLES:
            parser.error(f"unknown table {table!r}")
    scale = max(1, args.scale)
    faultcli.export_fault_env(args)
    extra_meta = {}
    if args.seed is not None and args.rate is not None:
        extra_meta.update(fault_seed=args.seed, fault_rate=args.rate,
                          fault_sites=args.sites or "all")
    if args.resilience:
        extra_meta["resilience"] = True
    documents = run_grid(tables, workers=args.workers,
                         iterations=args.iterations * scale,
                         count=args.count * scale,
                         transactions=args.transactions * scale,
                         out_dir=args.out_dir,
                         extra_meta=extra_meta)
    for name in tables:
        if name in documents:
            meta = documents[name]["meta"]
            print(f"{_OUT_NAMES[name]}: {meta['points']} points, "
                  f"{meta['workers']} workers, "
                  f"{meta['wall_seconds']}s wall")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
