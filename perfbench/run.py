"""Host-time benchmark of the Virtual Ghost reproduction.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload postmark --seed 1 --seconds 10 \\
        --trace 0

Each run is one fresh process: a single client drives one workload
(``postmark``, ``thttpd`` or ``ghost``, see ``perfbench/DESIGN.md``) in a
closed loop on a Virtual Ghost system booted with an empty fault plan and
resilience off. It prints a summary and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every run first replays a fixed number of ops on the default seed's
inputs and compares that phase's simulated fingerprint (cycles, cycles by
kind, metrics-registry delta) with ``perfbench/reference.json``. A
mismatch counts every op of the run as failed.

``--trace 0``
    End-to-end metrics: boot time (median of three boots), ops per
    second and op latency for ``--seconds`` seconds, scaled to a
    reference host speed by a probe loop timed between blocks of ops
    (see ``perfbench/DESIGN.md``), and peak RSS.
``--trace 1``
    Per-layer metrics: the layer wrappers of ``perfbench/tracing.py`` are
    installed, the reference phase is repeated traced (its fingerprint
    must equal the untraced one), then a fixed number of ops on
    ``--seed`` is traced.

``--update-reference`` rewrites ``perfbench/reference.json`` from this
run's reference phase (after a deliberate change to the simulation).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
#: peak_rss_mib is read when the measured phase reaches this many ops, so
#: that it covers a fixed amount of work however fast the host runs
RSS_OPS = 100
#: Host speed unit of the measured phase's timings: each op's host time is
#: scaled by PROBE_REF_S / (time of the probes around its block), i.e. to a
#: host on which one probe takes exactly PROBE_REF_S.
PROBE_REF_S = 0.003

if not (ROOT / "src" / "repro" / "system.py").is_file():
    sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
             f"a full checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.config import VGConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.observe.metrics import MetricsRegistry  # noqa: E402
from repro.system import System  # noqa: E402

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, Workload  # noqa: E402


# -- one phase: boot, prepare, ops, finish ----------------------------------------

def boot(workload: type[Workload] | Workload) -> tuple[System, float]:
    """``System.create`` isolated from REPRO_FAULT_* / REPRO_RESILIENCE."""
    start = time.perf_counter()
    system = System.create(VGConfig.virtual_ghost(), fault_plan=FaultPlan(),
                           resilience=False, **workload.boot)
    return system, time.perf_counter() - start


def _sim_state(system: System) -> tuple[int, dict, dict]:
    clock = system.machine.clock
    return clock.cycles, dict(clock.cycles_by_kind), system.metrics.snapshot()


def fingerprint(before: tuple, after: tuple) -> dict:
    """Simulated work between two ``_sim_state`` samples."""
    kinds = sorted(set(before[1]) | set(after[1]))
    by_kind = {k: after[1].get(k, 0) - before[1].get(k, 0) for k in kinds}
    return {"cycles": after[0] - before[0],
            "cycles_by_kind": {k: v for k, v in by_kind.items() if v},
            "metrics": MetricsRegistry.diff(before[2], after[2])}


def digest(fp: dict) -> str:
    return hashlib.sha256(
        json.dumps(fp, sort_keys=True).encode()).hexdigest()


class Phase:
    """One workload on one freshly booted system."""

    def __init__(self, name: str, seed: int, stop, *, tracer=None):
        self.workload = WORKLOADS[name](seed)
        self.tracer = tracer
        self.marks: dict[str, dict] = {}
        self._mark("start")
        system, self.boot_s = boot(self.workload)
        self._mark("booted")
        self.workload.prepare(system)
        before = _sim_state(system)
        self._mark("measure")
        begin = time.perf_counter()
        self.ops: list[Op] = self.workload.run(system, stop)
        self.measured_s = time.perf_counter() - begin
        self._mark("measured")
        self.fingerprint = fingerprint(before, _sim_state(system))
        self.problems = self.workload.finish(system)
        del system
        gc.collect()

    def _mark(self, name: str) -> None:
        if self.tracer is not None:
            self.marks[name] = {**self.tracer.snapshot(),
                                "wall_s": time.perf_counter()}

    def window(self, first: str, last: str) -> dict:
        a, b = self.marks[first], self.marks[last]
        return {k: b[k] - a.get(k, 0) for k in b}

    @property
    def failed(self) -> int:
        if self.problems:
            return len(self.ops)
        return sum(not op.ok for op in self.ops)


def count_stop(n: int):
    return lambda done: done >= n


def deadline_stop(seconds: float):
    deadline = []

    def stop(done: int) -> bool:
        if not deadline:
            deadline.append(time.perf_counter() + seconds)
        return time.perf_counter() >= deadline[0]
    return stop


# -- the reference check ----------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def reference_entry(name: str, phase: Phase) -> dict:
    return {"seed": DEFAULT_SEED, "ops": len(phase.ops),
            "cycles": phase.fingerprint["cycles"],
            "sha256": digest(phase.fingerprint)}


def check_reference(name: str, phase: Phase, reference: dict) -> list[str]:
    expected = reference.get(name)
    got = reference_entry(name, phase)
    if expected != got:
        return [f"reference fingerprint mismatch for {name}: expected "
                f"{expected}, got {got}"]
    return []


def tracing_overhead(name: str, pairs: int = 6) -> float:
    """Median of traced / untraced time over alternating one-block
    batches of the default seed's ops on one system. Adjacent batches see
    the same host load, which a comparison of two whole phases does not.
    Programs already running when the tracer is installed get no
    ``userland`` spans, so this slightly understates the overhead."""
    workload = WORKLOADS[name](DEFAULT_SEED)
    tracer = Tracer()
    batch = workload.block_ops
    times: list[float] = []
    mark = [0.0]

    def stop(done: int) -> bool:
        if done and done % batch == 0:
            times.append(time.perf_counter() - mark[0])
            if tracer.installed:
                tracer.uninstall()
            else:
                tracer.install()
        if done % batch == 0:
            mark[0] = time.perf_counter()
        return done >= 2 * pairs * batch

    system, _ = boot(workload)
    workload.prepare(system)
    try:
        workload.run(system, stop)
    finally:
        tracer.uninstall()
    return statistics.median(times[i + 1] / times[i]
                             for i in range(0, len(times) - 1, 2))


# -- metrics -----------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _ProbeBox:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def add(self, k: int) -> int:
        self.n += k
        return self.n


_PROBE_BYTES = bytes(range(256)) * 2


def probe_seconds() -> float:
    """Host time of a fixed pure-Python loop doing the simulator's kind of
    work: method calls, attribute updates, dict lookups, byte slices. It
    runs between blocks of ops and tracks how fast the shared host is
    running right then; it uses no ``repro`` code, so a change to the
    program cannot move it."""
    box, table = _ProbeBox(), {}
    start = time.perf_counter()
    for i in range(9000):
        key = i & 63
        table[key] = table.get(key, 0) + box.add(i)
        _PROBE_BYTES[key:key + 16]
    return time.perf_counter() - start


def scaled_latencies(ops: list[Op], probes: list[float],
                     block: int) -> list[float]:
    """Each op's host seconds at the reference host speed: op ``i`` is
    scaled by the mean of the probes taken before and after its block."""
    out = []
    for i, op in enumerate(ops):
        k = min(i // block, len(probes) - 1)
        around = probes[k:k + 2]
        out.append(op.seconds * PROBE_REF_S * len(around) / sum(around))
    return out


def end_to_end(phase: Phase, probes: list[float], boots: list[float],
               rss_kib: int) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same timings unscaled."""
    block = phase.workload.block_ops
    scaled = scaled_latencies(phase.ops, probes, block)

    def timings(seconds: list[float]) -> dict:
        ok = [s * 1e3 for s, op in zip(seconds, phase.ops) if op.ok]
        if len(ok) < 2:
            ok = ok * 2 or [0.0, 0.0]
        return {"ops_per_s": (len(seconds) / sum(seconds), "1/s"),
                "op_p50_ms": (percentile(ok, 50), "ms"),
                "op_p90_ms": (percentile(ok, 90), "ms")}

    metrics = {**timings(scaled),
               "setup_s": (statistics.median(boots), "s"),
               "peak_rss_mib": (rss_kib / 1024, "MiB")}
    return metrics, timings([op.seconds for op in phase.ops])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


#: per-layer metrics read straight from the tracer (``tracing.py``)
LAYER_METRICS = (
    "crypto.self_s", "crypto.sha256_bytes", "crypto.aes_blocks",
    "crypto.rsa_keygens",
    "kernel.simplefs.name_ops", "kernel.simplefs.dirents_scanned",
    "kernel.simplefs.self_s",
    "hardware.clock.charges", "kernel.context.work_calls",
    "hardware.disk.sectors_read", "hardware.disk.self_s",
    "kernel.net.self_s", "hardware.nic.bytes", "hardware.nic.self_s",
    "kernel.syscalls.calls", "kernel.syscalls.self_s", "kernel.sched.self_s",
    "kernel.self_s",
    "core.vm.traps", "core.vm.self_s", "core.vm.ghost_swaps",
    "core.vm.exec_validations",
    "userland.self_s", "userland.wrapper_bytes", "remote.self_s",
    "kernel.sched.slices", "kernel.memory.page_faults",
    "hardware.mmu.translations", "compiler.interp_runs",
)
SETUP_METRICS = ("crypto.self_s", "crypto.sha256_bytes", "crypto.rsa_keygens")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def per_layer(measured: Phase, overhead_x: float) -> dict:
    """The traced measured phase's split; ``setup.*`` is its boot."""
    w = measured.window("measure", "measured")
    setup = measured.window("start", "booted")
    metrics = {name: (w.get(name, 0), _unit(name)) for name in LAYER_METRICS}
    metrics.update({f"setup.{name}": (setup.get(name, 0), _unit(name))
                    for name in SETUP_METRICS})
    fs = measured.fingerprint["metrics"]
    hits = fs.get("fs.cache.hits", 0)
    metrics.update({
        "kernel.simplefs.dirents_per_name_op":
            (_ratio(w.get("kernel.simplefs.dirents_scanned", 0),
                    w.get("kernel.simplefs.name_ops", 0)), "ratio"),
        "kernel.simplefs.cache_hit_ratio":
            (_ratio(hits, hits + fs.get("fs.cache.misses", 0)), "ratio"),
        "hardware.clock.self_s": (w.get("hardware.clock.sampled_s", 0), "s"),
        "kernel.syscalls.us_per_call":
            (_ratio(w.get("kernel.syscalls.span_s", 0) * 1e6,
                    w.get("kernel.syscalls.calls", 0)), "us"),
        "sim.mcycles": (measured.fingerprint["cycles"] / 1e6, "Mcycles"),
        "trace.measured_s": (measured.measured_s, "s"),
        "trace.overhead_x": (overhead_x, "x"),
        "trace.unattributed_s":
            (w["wall_s"] - w.get("trace.covered_s", 0), "s"),
    })
    return metrics


# -- the run ----------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, *,
        reference: dict, update_reference: bool = False) -> dict:
    workload = WORKLOADS[name]
    check = Phase(name, DEFAULT_SEED, count_stop(workload.check_ops))
    if update_reference:
        reference = {**reference, name: reference_entry(name, check)}
        REFERENCE.write_text(json.dumps(reference, indent=2,
                                        sort_keys=True) + "\n")
    problems = check_reference(name, check, reference) + check.problems
    phases = [check]

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = Phase(name, DEFAULT_SEED,
                           count_stop(workload.check_ops), tracer=tracer)
            measured = Phase(name, seed, count_stop(workload.trace_ops),
                             tracer=tracer)
        finally:
            tracer.uninstall()
        if traced.fingerprint != check.fingerprint:
            problems.append("traced fingerprint differs from the untraced "
                            "one")
        phases += [traced, measured]
        metrics, unscaled = per_layer(measured, tracing_overhead(name)), {}
    else:
        system, extra_boot_s = boot(workload)
        del system
        gc.collect()
        rss: list[int] = []
        probes: list[float] = []
        until_deadline = deadline_stop(seconds)

        def stop(done: int) -> bool:
            if done == RSS_OPS:
                rss.append(peak_rss_kib())
            if done % workload.block_ops == 0:
                probes.append(probe_seconds())
            return until_deadline(done)

        measured = Phase(name, seed, stop)
        phases.append(measured)
        metrics, unscaled = end_to_end(
            measured, probes, [check.boot_s, extra_boot_s, measured.boot_s],
            rss[0] if rss else peak_rss_kib())

    attempted = sum(len(p.ops) for p in phases)
    failed = attempted if problems else sum(p.failed for p in phases)
    details = problems + [f"{p.workload.name}: {problem}" for p in phases
                          for problem in p.problems]
    details += [op.detail for p in phases for op in p.ops if not op.ok][:10]
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "details": details,
            "samples": sum(op.ok for op in measured.ops),
            "unscaled": unscaled}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 reference=load_reference(),
                 update_reference=args.update_reference)
    for detail in result.pop("details"):
        print(f"FAILED: {detail}", file=sys.stderr)
    samples = result.pop("samples")
    unscaled = result.pop("unscaled")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"{samples} latency samples")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:38s} {value:16.6f} {unit}")
    for key, (value, unit) in unscaled.items():
        print(f"  {key + ' (unscaled)':38s} {value:16.6f} {unit}")
    result["metrics"] = {key: {"value": value, "unit": unit}
                         for key, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
