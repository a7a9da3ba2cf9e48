#!/usr/bin/env python3
"""Mini Table 2: run a fast subset of the LMBench suite and print the
native / Virtual Ghost / InkTag comparison.

This is the quick-look version of Table 2 (a few seconds per bench);
``benchmarks/runner.py --tables table2`` sweeps all nine benchmarks and
checks the paper's shape bounds on them.

Run:  python examples/microbenchmarks.py
"""

from repro.analysis.results import Table
from repro.baselines.inktag import InkTagModel
from repro.core.config import VGConfig
from repro.workloads.lmbench import LMBench

BENCHES = ("null_syscall", "open_close", "page_fault",
           "signal_delivery", "select")

PAPER = {"null_syscall": 3.90, "open_close": 4.83, "page_fault": 1.15,
         "signal_delivery": 1.61, "select": 3.38}


def main():
    print("=== LMBench quick look (simulated microseconds) ===")
    print("running native...", flush=True)
    native_suite = LMBench(VGConfig.native(), iterations=40)
    native = {name: native_suite.run_one(name) for name in BENCHES}
    print("running virtual ghost...", flush=True)
    vg_suite = LMBench(VGConfig.virtual_ghost(), iterations=40)
    vg = {name: vg_suite.run_one(name) for name in BENCHES}
    model = InkTagModel()

    table = Table(title="Table 2 (subset)",
                  headers=["Test", "Native", "Virtual Ghost", "Overhead",
                           "paper", "InkTag(model)"])
    for name in BENCHES:
        ratio = vg[name].us_per_op / native[name].us_per_op
        inktag_x = model.slowdown(native[name].metrics,
                                  page_faults=native[name].page_faults)
        table.add(name, f"{native[name].us_per_op:.3f}",
                  f"{vg[name].us_per_op:.3f}", f"{ratio:.2f}x",
                  f"{PAPER[name]:.2f}x", f"{inktag_x:.1f}x")
    table.print()

    print("Reading the shape: syscall-bound operations pay ~4x for the")
    print("whole-kernel instrumentation; page faults (bulk-dominated)")
    print("pay almost nothing; a hypervisor-shadowing design pays an")
    print("order of magnitude on every trap.")


if __name__ == "__main__":
    main()
