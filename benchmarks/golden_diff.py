"""Diff a runner's simulated results against the committed golden copies.

``benchmarks/golden/`` holds the ``results`` section of each
``BENCH_*.json`` that the runner writes at its default sizes: Tables
2-5, Figures 2-4 and the ablation (the TCB count changes with every
source edit and has no golden). Those sections are deterministic, so
any change that moves a simulated number shows up here as a reviewable
diff. ``meta`` (wall time, worker count) is ignored.

Usage::

    PYTHONPATH=src python benchmarks/runner.py --workers 2 --out-dir results/
    python benchmarks/golden_diff.py results/

Exits 1 and prints a unified diff when any table differs, or names the
golden tables the run directory lacks (a partial ``--tables`` run).
After a deliberate change to the simulation, ``--update`` rewrites the
golden files from the run so the new numbers are reviewed in the commit.
"""

from __future__ import annotations

import argparse
import difflib
import glob
import json
import os
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


def _render(results) -> str:
    return json.dumps(results, indent=2, sort_keys=True) + "\n"


def missing_tables(run_dir: str, golden_dir: str = GOLDEN_DIR) -> list[str]:
    """Golden table files that ``run_dir`` does not contain."""
    names = [os.path.basename(path) for path in
             sorted(glob.glob(os.path.join(golden_dir, "BENCH_*.json")))]
    return [name for name in names
            if not os.path.exists(os.path.join(run_dir, name))]


def diff_results(run_dir: str, golden_dir: str = GOLDEN_DIR, *,
                 update: bool = False) -> list[str]:
    """Unified-diff lines of every golden table that differs in
    ``run_dir`` (empty when all match); ``update`` rewrites them.

    A golden table missing from ``run_dir`` raises FileNotFoundError.
    """
    lines: list[str] = []
    for golden_path in sorted(glob.glob(os.path.join(golden_dir,
                                                     "BENCH_*.json"))):
        name = os.path.basename(golden_path)
        with open(golden_path) as handle:
            expected = handle.read()
        run_path = os.path.join(run_dir, name)
        with open(run_path) as handle:
            actual = _render(json.load(handle)["results"])
        if actual == expected:
            continue
        if update:
            with open(golden_path, "w") as handle:
                handle.write(actual)
        lines.extend(difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{name}", tofile=run_path))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.golden_diff",
        description="Compare BENCH_*.json results with benchmarks/golden/.")
    parser.add_argument("run_dir", help="the runner's --out-dir")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden files from the run")
    args = parser.parse_args(argv)
    missing = missing_tables(args.run_dir)
    if missing:
        print(f"golden tables missing from {args.run_dir}: "
              + ", ".join(missing))
        return 1
    lines = diff_results(args.run_dir, update=args.update)
    sys.stdout.writelines(lines)
    if lines and not args.update:
        print("simulated results differ from benchmarks/golden/")
        return 1
    print("golden results: "
          + ("updated" if lines else "identical"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
