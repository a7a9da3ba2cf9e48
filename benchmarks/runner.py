"""Paper grid runner: every result table, its shape bounds, and the check.

Every grid point -- one (workload, parameter, configuration) triple --
boots its own :class:`~repro.system.System` (the TCB count boots none),
so points are fully independent and embarrassingly parallel. This
runner enumerates the points for the paper's tables and figures,
executes them across a worker-process pool, and merges the results into
one JSON document per table:

* ``BENCH_table2_lmbench.json``   -- 9 LMBench probes x {native, vg}
* ``BENCH_table3_file_delete.json`` / ``BENCH_table4_file_create.json``
  -- file-churn sizes x {native, vg} (one run feeds both tables)
* ``BENCH_table5_postmark.json``  -- Postmark x {native, vg}
* ``BENCH_fig2_thttpd.json``      -- thttpd bandwidth per size x {native, vg}
* ``BENCH_fig3_ssh_server.json``  -- sshd transfer rate per size x {native, vg}
* ``BENCH_fig4_ghost_ssh.json``   -- ssh client per size x {plain,
  ghosting}, both on the Virtual Ghost kernel
* ``BENCH_ablation.json``         -- protection subsets x {null syscall,
  open/close}, plus selective ghosting (not in the paper)
* ``BENCH_tcb_size.json``         -- section 5 TCB accounting (SLOC)

``BOUNDS`` holds the paper's shape claims (who wins, by roughly what
factor), one row per claim. :func:`check` evaluates them on the
``results`` sections; :func:`main` runs it after every grid, prints one
line per bound and exits 1 if any fails.

Simulated results are deterministic, so the ``results`` section of each
document is byte-identical run to run regardless of worker count or
scheduling; everything wall-clock (host seconds per point, worker count)
is confined to the ``meta`` section. The determinism tests in
``tests/integration/test_bench_runner.py`` rely on this split.

CLI::

    PYTHONPATH=src python benchmarks/runner.py \
        --workers 2 --scale 1 --out-dir results/

See EXPERIMENTS.md for the full flag reference.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.results import percent_reduction, ratio
from repro.analysis.tcb import count_tcb_sloc, count_untrusted_sloc
from repro.baselines.inktag import InkTagModel, RunMetrics
from repro.core.config import VGConfig
from repro.system import System
from repro.userland.libc import O_CREAT, O_TRUNC, O_WRONLY
from repro.userland.wrappers import GhostWrappers
from repro.workloads import ssh_transfer, webserver
from repro.workloads.files import FILE_SIZES, run_file_churn
from repro.workloads.lmbench import BENCH_NAMES, LMBench
from repro.workloads.postmark import run_postmark

try:
    from benchmarks import faultcli
    from benchmarks.fault_soak import Script
except ImportError:              # run as a bare script
    import faultcli
    from fault_soak import Script

#: table -> (the point kind that feeds it, its output file)
TABLES = {
    "table2": ("lmbench", "BENCH_table2_lmbench.json"),
    "table3": ("files", "BENCH_table3_file_delete.json"),
    "table4": ("files", "BENCH_table4_file_create.json"),
    "table5": ("postmark", "BENCH_table5_postmark.json"),
    "fig2": ("fig2", "BENCH_fig2_thttpd.json"),
    "fig3": ("fig3", "BENCH_fig3_ssh_server.json"),
    "fig4": ("fig4", "BENCH_fig4_ghost_ssh.json"),
    "ablation": ("ablation", "BENCH_ablation.json"),
    "tcb": ("tcb", "BENCH_tcb_size.json"),
}
ALL_TABLES = tuple(TABLES)

# Pre-scale sizes of the figure and ablation grids.
FIG2_REQUESTS = 8
FIG3_TRANSFERS = 4
FIG4_TRANSFERS = 3
ABLATION_ITERATIONS = 50
GHOSTING_ROUNDS = 30

_PAIR = ("native", "virtual_ghost")

#: configuration name -> factory; the partial ones price each
#: protection on its own (the ablation grid)
CONFIGS: dict[str, Callable[[], VGConfig]] = {
    "native": VGConfig.native,
    "sandboxing only": lambda: VGConfig.native().with_(sandboxing=True),
    "cfi only": lambda: VGConfig.native().with_(cfi=True),
    "secure-ic only": lambda: VGConfig.native().with_(secure_ic=True),
    "sandbox+cfi": lambda: VGConfig.native().with_(sandboxing=True,
                                                   cfi=True),
    "virtual_ghost": VGConfig.virtual_ghost,
}
PARTIAL = ("sandboxing only", "cfi only", "secure-ic only", "sandbox+cfi")
ABLATION_PROBES = ("null_syscall", "open_close")

#: the ablation point key of the selective-ghosting pair
SELECTIVE = "selective_ghosting"
#: selective-ghosting variant -> (ghost heap, wrapper-staged I/O)
GHOSTING_VARIANTS = {"traditional heap, direct I/O": (False, False),
                     "ghost heap, staged I/O": (True, True)}


# ----------------------------------------------------------------------
# grid points
# ----------------------------------------------------------------------

def enumerate_points(tables: tuple[str, ...], *, scale: int = 1,
                     iterations: int = 60, count: int = 48,
                     transactions: int = 600) -> list[dict]:
    """One dict per independent simulation run, in deterministic order.

    Every size is multiplied by ``scale``.
    """
    kinds = {TABLES[table][0] for table in tables}
    points: list[dict] = []

    def add(kind, keys, configs, **sizes):
        if kind in kinds:
            points.extend({"kind": kind, "key": key, "config": config,
                           **{k: v * scale for k, v in sizes.items()}}
                          for key in keys for config in configs)

    add("lmbench", BENCH_NAMES, _PAIR, iterations=iterations)
    add("files", FILE_SIZES, _PAIR, count=count)
    add("postmark", (None,), _PAIR, transactions=transactions)
    add("fig2", webserver.FILE_SIZES, _PAIR, requests=FIG2_REQUESTS)
    add("fig3", ssh_transfer.FILE_SIZES, _PAIR, transfers=FIG3_TRANSFERS)
    add("fig4", ssh_transfer.FILE_SIZES, ("plain", "ghosting"),
        transfers=FIG4_TRANSFERS)
    add("ablation", ABLATION_PROBES, CONFIGS,
        iterations=ABLATION_ITERATIONS)
    add("ablation", (SELECTIVE,), GHOSTING_VARIANTS, rounds=GHOSTING_ROUNDS)
    add("tcb", (None,), (None,))
    return points


def point_label(point: dict) -> str:
    """Stable name of a grid point (its kind, key and configuration)."""
    return "/".join(str(point[field]) for field in ("kind", "key", "config")
                    if point[field] is not None)


def run_point(point: dict) -> dict:
    """Execute one grid point in a (worker) process; returns plain data."""
    kind, key, config = point["kind"], point["key"], point["config"]
    if kind == "lmbench":
        result = LMBench(CONFIGS[config](),
                         iterations=point["iterations"]).run_one(key)
        return {**point,
                "us_per_op": result.us_per_op,
                "ops": result.ops,
                "cycles": result.metrics.cycles,
                "counters": result.metrics.counters,
                "page_faults": result.page_faults,
                "machine_metrics": result.system.metrics.snapshot()}
    if kind == "files":
        result = run_file_churn(CONFIGS[config](), size=key,
                                count=point["count"])
        return {**point,
                "created_per_sec": result.created_per_sec,
                "deleted_per_sec": result.deleted_per_sec,
                "create_cycles": result.create_metrics.cycles,
                "create_counters": result.create_metrics.counters,
                "delete_cycles": result.delete_metrics.cycles,
                "delete_counters": result.delete_metrics.counters,
                "machine_metrics": result.system.metrics.snapshot()}
    if kind == "postmark":
        result = run_postmark(CONFIGS[config](),
                              transactions=point["transactions"])
        return {**point,
                "seconds": result.seconds,
                "transactions_per_sec": result.transactions_per_sec,
                "files_created": result.files_created,
                "files_deleted": result.files_deleted,
                "bytes_read": result.bytes_read,
                "bytes_written": result.bytes_written,
                "machine_metrics": result.system.metrics.snapshot()}
    if kind == "fig2":
        result = webserver.run_thttpd_bandwidth(
            CONFIGS[config](), size=key, requests=point["requests"])
        return {**point, "kb_per_sec": result.kb_per_sec}
    if kind == "fig3":
        result = ssh_transfer.run_sshd_bandwidth(
            CONFIGS[config](), size=key, transfers=point["transfers"])
        return {**point, "kb_per_sec": result.kb_per_sec}
    if kind == "fig4":
        result = ssh_transfer.run_ssh_client_bandwidth(
            VGConfig.virtual_ghost(), size=key,
            ghosting=config == "ghosting", transfers=point["transfers"])
        return {**point, "kb_per_sec": result.kb_per_sec}
    if kind == "ablation" and key == SELECTIVE:
        return {**point, "cycles": _selective_ghosting_cycles(
            *GHOSTING_VARIANTS[config], rounds=point["rounds"])}
    if kind == "ablation":
        result = LMBench(CONFIGS[config](),
                         iterations=point["iterations"]).run_one(key)
        return {**point, "us_per_op": result.us_per_op}
    if kind == "tcb":
        return {**point, "tcb": count_tcb_sloc(),
                "untrusted": count_untrusted_sloc()}
    raise ValueError(f"unknown point kind {kind!r}")


def _selective_ghosting_cycles(use_ghost: bool, staged: bool, *,
                               rounds: int) -> int:
    """Application-side cycles of one write loop on the Virtual Ghost
    kernel: the price of ghost memory plus wrapper staging (paper
    section 3.1) against a traditional-memory application."""
    payload = b"d" * 8192

    def body(env, program):
        heap = env.malloc_init(use_ghost=use_ghost and env.ghost_available)
        wrappers = GhostWrappers(env)
        buf = heap.store(payload)
        clock = env.kernel.machine.clock
        start = clock.cycles
        for _ in range(rounds):
            fd = yield from env.sys_open("/abl.bin",
                                         O_WRONLY | O_CREAT | O_TRUNC)
            if staged:
                yield from wrappers.write(fd, buf, len(payload))
            else:
                yield from env.sys_write(fd, buf, len(payload))
            yield from env.sys_close(fd)
        program.cycles = clock.cycles - start
        return 0

    system = System.create(VGConfig.virtual_ghost(), memory_mb=48)
    program = Script(body)
    system.install("/bin/abl", program)
    system.run_until_exit(system.spawn("/bin/abl"), max_slices=2_000_000)
    return program.cycles


def _timed_point(point: dict) -> tuple[dict, float]:
    started = time.perf_counter()
    row = run_point(point)
    return row, time.perf_counter() - started


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------

def _pairs(rows: list[dict], kind: str) -> dict[Any, dict[str, dict]]:
    """``{key: {config: row}}`` for one point kind."""
    out: dict[Any, dict[str, dict]] = {}
    for row in rows:
        if row["kind"] == kind:
            out.setdefault(row["key"], {})[row["config"]] = row
    return out


def _metrics_pair(pair: dict[str, dict]) -> dict[str, dict]:
    """Machine-metrics snapshots for a native/vg result pair.

    Simulation facts only (counters and gauges of the always-on
    per-machine registry), so the embedded snapshots are as deterministic
    as the rest of the ``results`` section.
    """
    return {config: row.get("machine_metrics", {})
            for config, row in sorted(pair.items())}


def _merge_table2(rows: list[dict]) -> dict:
    model = InkTagModel()
    table = {}
    for bench, pair in _pairs(rows, "lmbench").items():
        native, vg = pair["native"], pair["virtual_ghost"]
        table[bench] = {
            "native_us": native["us_per_op"],
            "virtual_ghost_us": vg["us_per_op"],
            "overhead": ratio(vg["us_per_op"], native["us_per_op"]),
            "inktag_model": model.slowdown(
                RunMetrics(cycles=native["cycles"],
                           counters=native["counters"]),
                page_faults=native["page_faults"]),
            "machine_metrics": _metrics_pair(pair),
        }
    return table


def _merge_files(rows: list[dict], rate_key: str, phase: str) -> dict:
    model = InkTagModel()
    table = {}
    for size, pair in _pairs(rows, "files").items():
        native, vg = pair["native"], pair["virtual_ghost"]
        table[str(size)] = {
            "native_per_sec": native[rate_key],
            "virtual_ghost_per_sec": vg[rate_key],
            "overhead": ratio(native[rate_key], vg[rate_key]),
            "inktag_model": model.slowdown(
                RunMetrics(cycles=native[f"{phase}_cycles"],
                           counters=native[f"{phase}_counters"])),
            "machine_metrics": _metrics_pair(pair),
        }
    return table


def _merge_table5(rows: list[dict]) -> dict:
    pair = _pairs(rows, "postmark")[None]
    native, vg = pair["native"], pair["virtual_ghost"]
    return {
        "native_seconds": native["seconds"],
        "virtual_ghost_seconds": vg["seconds"],
        "native_tps": native["transactions_per_sec"],
        "virtual_ghost_tps": vg["transactions_per_sec"],
        "overhead": ratio(vg["seconds"], native["seconds"]),
        "files_created": native["files_created"],
        "files_deleted": native["files_deleted"],
        "transaction_mix": {
            config: {field: row[field] for field in
                     ("files_created", "bytes_read", "bytes_written")}
            for config, row in sorted(pair.items())},
        "machine_metrics": _metrics_pair(pair),
    }


def _merge_bandwidth(kind: str, base: str, other: str):
    """A figure's merge: KB/s of both configurations per file size."""
    def merge(rows: list[dict]) -> dict:
        return {str(size): {
            f"{base}_kb_per_sec": pair[base]["kb_per_sec"],
            f"{other}_kb_per_sec": pair[other]["kb_per_sec"],
            "reduction_pct": percent_reduction(pair[other]["kb_per_sec"],
                                               pair[base]["kb_per_sec"]),
        } for size, pair in _pairs(rows, kind).items()}
    return merge


def _merge_ablation(rows: list[dict]) -> dict:
    pairs = _pairs(rows, "ablation")
    return {
        "protection": {config: {bench: pairs[bench][config]["us_per_op"]
                                for bench in ABLATION_PROBES}
                       for config in CONFIGS},
        "selective_ghosting": {variant: row["cycles"] for variant, row
                               in pairs[SELECTIVE].items()},
    }


def _merge_tcb(rows: list[dict]) -> dict:
    row = _pairs(rows, "tcb")[None][None]
    return {"tcb": row["tcb"], "untrusted": row["untrusted"]}


_MERGE = {
    "table2": _merge_table2,
    "table3": lambda rows: _merge_files(rows, "deleted_per_sec", "delete"),
    "table4": lambda rows: _merge_files(rows, "created_per_sec", "create"),
    "table5": _merge_table5,
    "fig2": _merge_bandwidth("fig2", "native", "virtual_ghost"),
    "fig3": _merge_bandwidth("fig3", "native", "virtual_ghost"),
    "fig4": _merge_bandwidth("fig4", "plain", "ghosting"),
    "ablation": _merge_ablation,
    "tcb": _merge_tcb,
}


def merge_tables(tables: tuple[str, ...],
                 rows: list[dict]) -> dict[str, dict]:
    """Fold raw point rows into per-table paper-shaped results."""
    return {table: _MERGE[table](rows) for table in tables}


# ----------------------------------------------------------------------
# shape bounds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Bound:
    """One paper shape claim: ``lo < measure(results) < hi``.

    ``closed`` makes both ends inclusive. ``measure`` reads the
    ``results`` section of ``table``'s document.
    """

    table: str
    name: str
    measure: Callable[[Any], float]
    lo: float = -math.inf
    hi: float = math.inf
    closed: bool = False

    def holds(self, value: float) -> bool:
        if self.closed:
            return self.lo <= value <= self.hi
        return self.lo < value < self.hi

    def describe(self) -> str:
        op = "<=" if self.closed else "<"
        if self.closed and self.lo == self.hi:
            return f"{self.name} == {self.lo:g}"
        lo = f"{self.lo:g} {op} " if self.lo > -math.inf else ""
        hi = f" {op} {self.hi:g}" if self.hi < math.inf else ""
        return f"{lo}{self.name}{hi}"


#: Table 2 probes that land in the 2.5-6x band
BAND_PROBES = ("null_syscall", "open_close", "mmap", "fork_exit",
               "fork_exec", "select", "signal_install")
#: the Table 2 probes for which the paper reports an InkTag number
INKTAG_COMPARABLE = ("null_syscall", "open_close", "mmap", "page_fault",
                     "fork_exit", "fork_exec", "select")
_WEB_SIZES = webserver.FILE_SIZES
_SSH_SIZES = ssh_transfer.FILE_SIZES


def _at(*path):
    def measure(results):
        for step in path:
            results = results[str(step)]
        return results
    return measure


def _inktag_per_vg(key):
    return lambda t: t[str(key)]["inktag_model"] / t[str(key)]["overhead"]


def _largest_rise(table) -> float:
    """Largest rise of the native rate between neighbouring sizes, in
    numeric size order (the JSON keys sort as strings)."""
    rates = [table[size]["native_per_sec"] for size in sorted(table, key=int)]
    return max(b - a for a, b in zip(rates, rates[1:]))


def _share_of_full(config, bench):
    """Where a partial configuration sits between native (0) and full
    Virtual Ghost (1)."""
    def measure(t):
        row = {c: t["protection"][c][bench]
               for c in ("native", config, "virtual_ghost")}
        return ((row[config] - row["native"])
                / (row["virtual_ghost"] - row["native"]))
    return measure


def _delta(t, config, bench) -> float:
    return t["protection"][config][bench] - t["protection"]["native"][bench]


BOUNDS: tuple[Bound, ...] = (
    # Table 2: syscall-bound probes in the 2.5-6x band, page fault and
    # signal delivery the low outliers, VG beats the InkTag model on
    # >= 5 of 7, InkTag wins fork+exec, its null syscall is catastrophic.
    *(Bound("table2", f"{bench} overhead", _at(bench, "overhead"), 2.5, 6.0)
      for bench in BAND_PROBES),
    Bound("table2", "page_fault overhead", _at("page_fault", "overhead"),
          hi=2.0),
    Bound("table2", "signal_delivery overhead",
          _at("signal_delivery", "overhead"), hi=3.0),
    Bound("table2", "probes where VG beats InkTag (of 7)",
          lambda t: sum(t[b]["overhead"] < t[b]["inktag_model"]
                        for b in INKTAG_COMPARABLE), lo=5, closed=True),
    Bound("table2", "fork_exec InkTag/VG overhead",
          _inktag_per_vg("fork_exec"), hi=1.0),
    Bound("table2", "null_syscall InkTag overhead",
          _at("null_syscall", "inktag_model"), lo=30),
    # Table 3: flat 3.5-5.5x, InkTag wins at every size.
    *(Bound("table3", f"overhead [{size} B]", _at(size, "overhead"),
            3.5, 5.5) for size in FILE_SIZES),
    Bound("table3", "overhead max/min",
          lambda t: (max(r["overhead"] for r in t.values())
                     / min(r["overhead"] for r in t.values())), hi=1.2),
    *(Bound("table3", f"InkTag/VG overhead [{size} B]",
            _inktag_per_vg(size), hi=1.0) for size in FILE_SIZES),
    # Table 4: 3-5.5x, create rate falls (or holds) with size, InkTag wins.
    *(Bound("table4", f"overhead [{size} B]", _at(size, "overhead"),
            3.0, 5.5) for size in FILE_SIZES),
    Bound("table4", "largest native rate rise with size", _largest_rise,
          hi=0.0, closed=True),
    *(Bound("table4", f"InkTag/VG overhead [{size} B]",
            _inktag_per_vg(size), hi=1.0) for size in FILE_SIZES),
    # Table 5: 3.5-5.5x on a run that really exercised the FS, with an
    # identical transaction mix in both configurations.
    Bound("table5", "overhead", _at("overhead"), 3.5, 5.5),
    Bound("table5", "native files_created", _at("files_created"), lo=400),
    Bound("table5", "native files_deleted", _at("files_deleted"), lo=50),
    Bound("table5", "native bytes_written",
          _at("transaction_mix", "native", "bytes_written"), lo=1_000_000),
    *(Bound("table5", f"{field} vg - native",
            lambda t, f=field: (t["transaction_mix"]["virtual_ghost"][f]
                                - t["transaction_mix"]["native"][f]),
            0, 0, closed=True) for field in ("files_created", "bytes_read")),
    # Figure 2: negligible bandwidth loss; bandwidth rises with size.
    *(Bound("fig2", f"reduction % [{size} B]", _at(size, "reduction_pct"),
            hi=10.0) for size in _WEB_SIZES),
    *(Bound("fig2", f"reduction % [{size} B]", _at(size, "reduction_pct"),
            hi=3.0) for size in _WEB_SIZES if size >= 65536),
    Bound("fig2", f"native KB/s [{_WEB_SIZES[-1]} B] - [{_WEB_SIZES[0]} B]",
          lambda t: (t[str(_WEB_SIZES[-1])]["native_kb_per_sec"]
                     - t[str(_WEB_SIZES[0])]["native_kb_per_sec"]), lo=0),
    # Figure 3: a visible hit on small files, negligible at 1 MiB.
    Bound("fig3", f"reduction % [{_SSH_SIZES[0]} B]",
          _at(_SSH_SIZES[0], "reduction_pct"), 10.0, 50.0),
    Bound("fig3", f"reduction % [{_SSH_SIZES[-1]} B]",
          _at(_SSH_SIZES[-1], "reduction_pct"), hi=5.0),
    Bound("fig3", "smallest - largest size reduction %",
          lambda t: (t[str(_SSH_SIZES[0])]["reduction_pct"]
                     - t[str(_SSH_SIZES[-1])]["reduction_pct"]), lo=0),
    Bound("fig3", "average reduction %",
          lambda t: (sum(t[str(s)]["reduction_pct"] for s in _SSH_SIZES)
                     / len(_SSH_SIZES)), hi=30.0),
    # Figure 4: the ghosting client loses little bandwidth.
    *(Bound("fig4", f"reduction % [{size} B]", _at(size, "reduction_pct"),
            hi=8.0) for size in _SSH_SIZES),
    # Section 5: a TCB of the paper's order, dwarfed by untrusted code.
    Bound("tcb", "TCB SLOC", _at("tcb", "total"), 2_000, 15_000),
    Bound("tcb", "untrusted/TCB SLOC",
          lambda t: t["untrusted"]["total"] / t["tcb"]["total"], lo=1.5),
    # Ablation: each protection alone costs between native and full;
    # sandboxing dominates open/close, secure-IC the null syscall; the
    # ghosting application pays something, but far less than 1.5x.
    *(Bound("ablation", f"{config} share of full overhead [{bench}]",
            _share_of_full(config, bench), 0.0, 1.0, closed=True)
      for config in PARTIAL for bench in ABLATION_PROBES),
    Bound("ablation", "open_close: sandboxing - cfi delta (us)",
          lambda t: (_delta(t, "sandboxing only", "open_close")
                     - _delta(t, "cfi only", "open_close")), lo=0),
    Bound("ablation", "null_syscall: secure-ic - cfi delta (us)",
          lambda t: (_delta(t, "secure-ic only", "null_syscall")
                     - _delta(t, "cfi only", "null_syscall")), lo=0),
    Bound("ablation", "ghosting/traditional app cycles",
          lambda t: (t[SELECTIVE]["ghost heap, staged I/O"]
                     / t[SELECTIVE]["traditional heap, direct I/O"]),
          1.0, 1.5),
)


def check(results_by_table: dict[str, Any]
          ) -> list[tuple[Bound, float, bool]]:
    """``(bound, measured value, holds)`` for every bound whose table is
    in ``results_by_table`` (table name -> its ``results`` section)."""
    verdicts = []
    for bound in BOUNDS:
        if bound.table in results_by_table:
            value = bound.measure(results_by_table[bound.table])
            verdicts.append((bound, value, bound.holds(value)))
    return verdicts


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run_grid(tables: tuple[str, ...] = ALL_TABLES, *, workers: int = 0,
             scale: int = 1, iterations: int = 60, count: int = 48,
             transactions: int = 600,
             out_dir: str | None = None,
             extra_meta: dict | None = None) -> dict[str, dict]:
    """Run the requested tables' grids and return (optionally write) the
    merged JSON documents, keyed by table name.

    ``scale`` multiplies every grid size, ``iterations``/``count``/
    ``transactions`` included. ``workers=0`` picks
    ``min(#points, max(2, cpu_count))``; ``workers=1`` runs in-process
    (no pool), which is what the tier-1 tests use.

    Fault injection and resilience ride in through the ``REPRO_FAULT_*``
    / ``REPRO_RESILIENCE`` environment (see ``faultcli.export_fault_env``)
    -- forked workers inherit it, so every grid point sees the same
    deterministic per-site fault streams. ``extra_meta`` is merged into
    each document's ``meta`` section to record those knobs.
    """
    points = enumerate_points(tables, scale=scale, iterations=iterations,
                              count=count, transactions=transactions)
    if workers <= 0:
        workers = min(len(points), max(2, os.cpu_count() or 2))
    started = time.time()
    if not points:
        timed = []
    elif workers == 1:
        timed = [_timed_point(p) for p in points]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            timed = pool.map(_timed_point, points, chunksize=1)
    wall_seconds = time.time() - started
    # pool.map keeps the points' order, so the merge is scheduling-free.
    merged = merge_tables(tables, [row for row, _ in timed])

    documents: dict[str, dict] = {}
    for name, results in merged.items():
        kind = TABLES[name][0]
        documents[name] = {
            "meta": {
                "table": name,
                "workers": workers,
                "points": len(points),
                "scale": scale,
                "iterations": iterations * scale,
                "count": count * scale,
                "transactions": transactions * scale,
                "wall_seconds": round(wall_seconds, 3),
                "point_seconds": {point_label(row): round(seconds, 3)
                                  for row, seconds in timed
                                  if row["kind"] == kind},
                "unix_time": round(started, 3),
                **(extra_meta or {}),
            },
            "results": results,
        }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, document in documents.items():
            path = os.path.join(out_dir, TABLES[name][1])
            with open(path, "w") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
    return documents


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.runner",
        description="Run the paper's benchmark grids across worker "
                    "processes, merge BENCH_*.json result tables and "
                    "check the paper's shape bounds on them.")
    parser.add_argument("--tables", default=",".join(ALL_TABLES),
                        help="comma-separated subset of: "
                             + ", ".join(ALL_TABLES))
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = auto, 1 = in-process)")
    parser.add_argument("--scale", type=int, default=1,
                        help="multiply every grid size")
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
        if table not in TABLES:
            parser.error(f"unknown table {table!r}")
    faultcli.export_fault_env(args)
    extra_meta = {}
    if args.seed is not None and args.rate is not None:
        extra_meta.update(fault_seed=args.seed, fault_rate=args.rate,
                          fault_sites=args.sites or "all")
    if args.resilience:
        extra_meta["resilience"] = True
    documents = run_grid(tables, workers=args.workers,
                         scale=max(1, args.scale),
                         iterations=args.iterations, count=args.count,
                         transactions=args.transactions,
                         out_dir=args.out_dir,
                         extra_meta=extra_meta)
    for name in tables:
        meta = documents[name]["meta"]
        print(f"{TABLES[name][1]}: {meta['points']} points, "
              f"{meta['workers']} workers, "
              f"{meta['wall_seconds']}s wall")

    verdicts = check({name: document["results"]
                      for name, document in documents.items()})
    for bound, value, holds in verdicts:
        print(f"{bound.table:<9} {bound.describe():<58} {value:>12.6g}  "
              f"{'ok' if holds else 'FAIL'}")
    failed = sum(not holds for _, _, holds in verdicts)
    print(f"shape bounds: {len(verdicts) - failed}/{len(verdicts)} ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
