"""Fault-injection soak: drive a mixed workload under a hostile plan.

Boots one system with a seed-driven :class:`repro.faults.FaultPlan`
armed at every site, then pushes it through filesystem churn, fork
trees, web traffic, ghost swapping, and process churn. Every fault must
surface as a defined errno, a :class:`~repro.errors.SecurityViolation`,
or a documented degradation -- and ghost memory must never be observably
wrong. The run report (including the full fault log) is a pure function
of ``(seed, rate)``, which the CI determinism job checks by running the
same seed twice and diffing the JSON.

Usage::

    PYTHONPATH=src python benchmarks/fault_soak.py --seed storm-1 \
        --rate 0.02 --out /tmp/soak.json
"""

from __future__ import annotations

import argparse
import json

from repro.core.config import VGConfig
from repro.core.layout import page_of
from repro.errors import (DeviceFault, IOMMUFault, SecurityViolation,
                          SyscallError)
from repro.faults import soak_plan
from repro.hardware.memory import PAGE_SIZE
from repro.kernel.proc import Program
from repro.system import System
from repro.userland.apps.thttpd import HTTP_PORT, HttpClient, ThttpdServer
from repro.userland.libc import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY

try:
    from benchmarks import faultcli
except ImportError:              # run as a bare script
    import faultcli

#: the only exception types allowed to cross the kernel boundary
DEFINED_FAILURES = (SyscallError, SecurityViolation)


class Script(Program):
    """A program whose body is supplied as a generator function."""

    program_id = "fault-soak-script"

    def __init__(self, body, child_body=None):
        self._body = body
        self._child_body = child_body

    def main(self, env):
        return self._body(env, self)

    def child_main(self, env):
        if self._child_body is None:
            return self.main(env)
        return self._child_body(env, self)


def _payload(index: int, length: int) -> bytes:
    return bytes((index * 37 + i * 11) % 251 for i in range(length))


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def _phase_files(system: System, report: dict) -> None:
    """Create/write/fsync/read-back/unlink loop over the buffer cache."""
    outcomes = []
    violations = report["invariant_violations"]
    program = Script(_files_body(outcomes, violations))
    system.install("/bin/filesoak", program)
    proc = system.spawn("/bin/filesoak")
    system.run(max_slices=500_000)
    report["outcomes"].append(["files", outcomes])


def _files_body(outcomes, violations):
    def body(env, program):
        heap = env.malloc_init(use_ghost=False)
        for i in range(10):
            payload = _payload(i, 700 + 113 * i)
            path = f"/soak{i}.dat"
            try:
                src = heap.store(payload)
                dst = heap.malloc(len(payload))
            except DEFINED_FAILURES as exc:
                outcomes.append(["heap", i, _errname(exc)])
                continue
            fd = yield from env.sys_open(path, O_WRONLY | O_CREAT | O_TRUNC)
            if fd < 0:
                outcomes.append(["open", i, fd])
                continue
            wrote = yield from env.sys_write(fd, src, len(payload))
            synced = yield from env.sys_fsync(fd)
            yield from env.sys_close(fd)
            outcomes.append(["write", i, wrote, synced])

            fd = yield from env.sys_open(path, O_RDONLY)
            if fd < 0:
                outcomes.append(["reopen", i, fd])
            else:
                got = yield from env.sys_read(fd, dst, len(payload))
                outcomes.append(["read", i, got])
                if wrote == len(payload) and got == len(payload):
                    try:
                        data = env.mem_read(dst, got)
                    except DEFINED_FAILURES as exc:
                        outcomes.append(["readback", i, _errname(exc)])
                    else:
                        if data != payload:
                            violations.append(
                                f"file {path}: read-back differs from a "
                                f"fully-acknowledged write")
                yield from env.sys_close(fd)
            yield from env.sys_unlink(path)
        return 0
    return body


def _phase_fork(system: System, report: dict) -> None:
    """Fork a few children that each write a file; reap them."""
    outcomes = []

    def body(env, program):
        for i in range(4):
            pid = yield from env.sys_fork()
            if pid < 0:
                outcomes.append(["fork", i, pid])
                continue
            reaped, status = yield from env.sys_wait4(pid)
            outcomes.append(["wait", i, reaped, status])
        return 0

    def child_body(env, program):
        heap = env.malloc_init(use_ghost=False)
        try:
            buf = heap.store(b"child-data")
        except DEFINED_FAILURES:
            return 9
        fd = yield from env.sys_open("/forkchild.tmp", O_WRONLY | O_CREAT)
        if fd < 0:
            return 8
        yield from env.sys_write(fd, buf, 10)
        yield from env.sys_close(fd)
        return 0

    program = Script(body, child_body)
    system.install("/bin/forksoak", program)
    system.spawn("/bin/forksoak")
    system.run(max_slices=500_000)
    report["outcomes"].append(["fork", outcomes])


def _phase_net(system: System, report: dict) -> None:
    """Serve HTTP over the faulty NIC; transfers must still complete."""
    outcomes = []
    size = 18_000
    try:
        system.write_file("/index.bin", _payload(3, size))
    except DEFINED_FAILURES as exc:
        report["outcomes"].append(["net", [["provision", _errname(exc)]]])
        return

    server = ThttpdServer()
    system.install("/bin/thttpd", server)
    system.spawn("/bin/thttpd")
    system.run(max_slices=200_000)          # until the accept loop blocks

    for i in range(3):
        client = HttpClient("/index.bin")
        system.kernel.net.remote_connect(HTTP_PORT, client)
        system.run(until=lambda: client.done, max_slices=1_000_000)
        outcomes.append(["get", i, int(client.done), client.bytes_received])

    stop = HttpClient("/__shutdown__")
    system.kernel.net.remote_connect(HTTP_PORT, stop)
    system.run(max_slices=500_000)
    outcomes.append(["served", server.requests_served])
    report["outcomes"].append(["net", outcomes])


def _phase_ghost_swap(system: System, report: dict) -> None:
    """Swap ghost pages out through the kernel's blob store and back.

    Every page either comes back bit-exact or fails closed (EIO for a
    lost blob, SecurityViolation for a tampered one) and stays
    non-resident -- never restored with wrong contents.
    """
    outcomes = []
    violations = report["invariant_violations"]
    kernel = system.kernel
    pages = 4

    def body(env, program):
        addrs = []
        for i in range(pages):
            addr = env.allocgm(1)
            env.mem_write(addr, bytes([0x41 + i]) * PAGE_SIZE)
            addrs.append(addr)
        program.pages = addrs
        while not getattr(program, "release", False):
            yield from env.sys_sched_yield()
        return 0

    program = Script(body)
    proc = None
    for attempt in range(4):       # injected ENOMEM is transient: retry
        try:
            system.install("/bin/ghostsoak", program)
            proc = system.spawn("/bin/ghostsoak")
            break
        except DEFINED_FAILURES as exc:
            outcomes.append(["spawn", attempt, _errname(exc)])
    if proc is None:
        report["outcomes"].append(["ghost", outcomes])
        return
    try:
        system.run(until=lambda: hasattr(program, "pages"),
                   max_slices=500_000)
    except DEFINED_FAILURES as exc:
        report["outcomes"].append(["ghost", outcomes + [["fill", _errname(exc)]]])
        return
    if not hasattr(program, "pages"):
        report["outcomes"].append(["ghost", [["no-pages"]]])
        return

    swapped = []
    for index, vaddr in enumerate(program.pages):
        try:
            kernel.swapper.swap_out(proc, vaddr)
        except DEFINED_FAILURES as exc:
            outcomes.append(["swap-out", index, _errname(exc)])
            continue
        swapped.append((index, vaddr))

    for index, vaddr in swapped:
        expected = bytes([0x41 + index]) * PAGE_SIZE
        try:
            kernel.swapper.swap_in(proc, vaddr)
        except DEFINED_FAILURES as exc:
            outcomes.append(["swap-in", index, _errname(exc)])
            if kernel.vm.ghosts.frame_for(proc.pid, vaddr) is not None:
                violations.append(
                    f"ghost page {vaddr:#x}: resident after failed swap-in")
            continue
        frame = kernel.vm.ghosts.frame_for(proc.pid, vaddr)
        if frame is None:
            violations.append(
                f"ghost page {vaddr:#x}: swap-in succeeded but page "
                f"is not resident")
            continue
        data = system.machine.phys.read(frame * PAGE_SIZE, PAGE_SIZE)
        if data != expected:
            violations.append(
                f"ghost page {vaddr:#x}: restored contents differ")
        outcomes.append(["swap-in", index, "ok"])

    program.release = True
    system.run(max_slices=500_000)
    report["outcomes"].append(["ghost", outcomes])


def _phase_churn(system: System, report: dict) -> None:
    """Spawn/exit a run of small ghost-using processes."""
    outcomes = []
    violations = report["invariant_violations"]

    for i in range(6):
        marker = bytes([0x60 + i]) * 64

        def body(env, program, marker=marker):
            try:
                addr = env.allocgm(1)
                env.mem_write(addr, marker)
                program.ok = env.mem_read(addr, len(marker)) == marker
            except DEFINED_FAILURES as exc:
                program.ok = _errname(exc)
            yield from env.sys_sched_yield()
            return 0

        program = Script(body)
        path = f"/bin/churn{i}"
        system.install(path, program)
        try:
            system.spawn(path)
            system.run(max_slices=200_000)
        except DEFINED_FAILURES as exc:
            outcomes.append(["spawn", i, _errname(exc)])
            continue
        ok = getattr(program, "ok", None)
        if ok is False:
            violations.append(f"churn process {i}: ghost read-back differs")
        outcomes.append(["ran", i, ok if isinstance(ok, str) else int(bool(ok))])
    report["outcomes"].append(["churn", outcomes])


def _phase_devices(system: System, report: dict) -> None:
    """Raw device paths beneath the buffer cache.

    This phase plays the role of kernel driver code, so the defined
    failures at this level are :class:`~repro.errors.DeviceFault` and
    :class:`~repro.errors.IOMMUFault` (which the kernel proper
    translates to errnos before they reach applications). Reads only --
    nothing here may perturb filesystem or kernel state.
    """
    outcomes = []
    disk = system.machine.disk
    dma = system.machine.dma
    for i in range(8):
        lba = (i * 97) % max(1, disk.num_sectors - 4)
        try:
            disk.read_sectors(lba, 4)
            outcomes.append(["disk-read", i, "ok"])
        except DeviceFault as exc:
            outcomes.append(["disk-read", i, exc.kind])
    base = (system.machine.phys.num_frames // 2) * PAGE_SIZE
    for i in range(8):
        try:
            dma.read_memory(base + i * 64, 64)
            outcomes.append(["dma-read", i, "ok"])
        except DeviceFault as exc:
            outcomes.append(["dma-read", i, exc.kind])
        except IOMMUFault:
            outcomes.append(["dma-read", i, "iommu-denied"])
    report["outcomes"].append(["devices", outcomes])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

PHASES = (_phase_files, _phase_fork, _phase_net, _phase_ghost_swap,
          _phase_churn, _phase_devices)


def _errname(exc: Exception) -> str:
    if isinstance(exc, SyscallError):
        return exc.errno
    return type(exc).__name__


def run_soak(seed, *, rate: float = 0.02, memory_mb: int = 16,
             disk_mb: int = 16, resilience=False,
             sites=None) -> dict:
    """One soak run; the returned report is a pure function of the args.

    Defined failures (``SyscallError``, ``SecurityViolation``) are
    recorded as outcomes; anything else escaping the kernel boundary
    propagates to the caller -- the soak test treats that as a failed
    invariant.

    ``rate=None`` runs the identical workload with *no* fault plan at
    all (the machine's inert plan), for bit-identity comparisons
    against a rate-0 armed plan. ``resilience`` (bool or a
    :class:`~repro.resilience.ResilienceConfig`) additionally arms the
    recovery layer, so most injected transients surface as retry
    counters instead of errnos.
    """
    plan = None if rate is None else soak_plan(seed, rate=rate,
                                               sites=sites)
    system = System.create(VGConfig.virtual_ghost(), memory_mb=memory_mb,
                           disk_mb=disk_mb, fault_plan=plan,
                           resilience=resilience)
    report: dict = {
        "seed": str(seed),
        "rate": rate,
        "resilience": bool(system.resilience.enabled),
        "outcomes": [],
        "invariant_violations": [],
    }
    if plan is None:
        plan = system.fault_plan
    for phase in PHASES:
        try:
            phase(system, report)
        except DEFINED_FAILURES as exc:
            report["outcomes"].append(
                [phase.__name__.removeprefix("_phase_"),
                 [["aborted", _errname(exc)]]])

    kernel = system.kernel
    report["cycles"] = system.cycles
    report["fault_counts"] = plan.log.counts()
    report["fault_log"] = plan.log.to_lines()
    report["consultations"] = {site: plan.consultations(site)
                               for site in sorted(plan.specs)}
    report["stats"] = {
        "net": kernel.net.stats,
        "disk_read_errors": system.machine.disk.read_errors,
        "disk_write_errors": system.machine.disk.write_errors,
        "dma_aborts": system.machine.dma.aborts,
        "cache_io_errors": kernel.fs.cache.io_errors,
        "swap": {
            "out": kernel.swapper.swapped_out,
            "in": kernel.swapper.swapped_in,
            "lost": kernel.swapper.lost,
            "rejected": kernel.swapper.rejected,
        },
        "close_failures": kernel.close_failures,
    }
    report["resilience_counters"] = system.resilience.snapshot()
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    faultcli.add_fault_args(parser)
    faultcli.add_resilience_arg(parser)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here instead of stdout")
    args = parser.parse_args()
    report = run_soak(args.seed, rate=args.rate,
                      sites=faultcli.sites_from_args(args),
                      resilience=faultcli.resilience_from_args(args))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"fault soak seed={args.seed} rate={args.rate} "
              f"resilience={int(args.resilience)}: "
              f"{len(report['fault_log'])} log lines, "
              f"{len(report['invariant_violations'])} invariant violations "
              f"-> {args.out}")
    else:
        print(text)
    if report["invariant_violations"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
