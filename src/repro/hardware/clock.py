"""Deterministic cycle clock and the machine-wide cost model.

All performance numbers reported by the benchmark harness are *simulated
time*: components charge cycles for the primitive operations they perform
(instructions, memory accesses, page-table walks, crypto blocks, device
byte transfers, ...). Virtual Ghost's overheads are therefore emergent --
the instrumented kernel executes *more primitives* on the same path -- and
the cost model is calibrated once, globally, never per benchmark.

The frequency matches the paper's testbed (Intel i7-3770 at 3.4 GHz) so
microbenchmark latencies can be reported in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


#: Simulated core frequency (cycles per second); i7-3770 in the paper.
FREQUENCY_HZ = 3_400_000_000

#: Cycles per microsecond, used when formatting results.
CYCLES_PER_US = FREQUENCY_HZ / 1_000_000


@dataclass
class CostModel:
    """Per-primitive cycle costs for the whole machine.

    These are the *only* tunable performance constants in the repository.
    They were calibrated so that the emergent ratios land near the paper's
    Table 2 (see EXPERIMENTS.md); the benchmarks themselves never inject
    latencies.
    """

    # -- CPU primitives ----------------------------------------------------
    instr: int = 1                 # generic ALU/branch instruction
    mem_access: int = 2            # one kernel/user load or store
    call: int = 3                  # direct call (stack push + jump)
    ret: int = 3                   # return
    indirect_call: int = 4         # indirect call through a pointer

    # -- Virtual Ghost instrumentation (charged only when enabled) ---------
    mask_check: int = 9            # load/store sandboxing: cmp+or+branch and
    #                                the register pressure / lost scheduling
    #                                slack the paper's pass induces
    mask_check_bulk: int = 14      # one range check on a memcpy/memset
    cfi_check: int = 9             # label fetch + compare on ret/indirect call
    cfi_label: int = 1             # executing over an inline label

    # -- traps, syscalls, context -------------------------------------------
    trap_entry: int = 100          # hardware trap/syscall entry microcode
    trap_exit: int = 80           # sysret/iret
    ic_save_kernel: int = 40       # baseline: save trap frame on kernel stack
    ic_save_sva: int = 390         # VG: save full Interrupt Context into SVA
    #                                internal memory (IST redirection + copy)
    ic_restore_kernel: int = 30
    ic_restore_sva: int = 280
    reg_scrub: int = 120            # VG: zero GPRs before entering the kernel
    sva_dispatch: int = 120         # VG: syscall forwarded through SVA-OS
    context_switch: int = 400      # scheduler switch (stack + CR3 reload)

    # -- MMU ----------------------------------------------------------------
    tlb_hit: int = 1
    ptw: int = 36                  # 4-level page-table walk (TLB miss)
    tlb_flush: int = 80
    mmu_update: int = 24           # write one PTE (baseline path)
    mmu_check: int = 55            # VG: validate one PTE update against the
    #                                ghost/SVA/code-page policy (reverse-map
    #                                lookup + range classification)

    # -- bulk data ----------------------------------------------------------
    copy_per_word: int = 1         # memcpy/memset, per 8 bytes (both modes)
    copy_call: int = 1             # one copyin/copyout invocation (counter
    #                                for the hypervisor-baseline model)
    zero_page: int = 512           # clear a 4 KiB frame

    # -- devices ------------------------------------------------------------
    pio: int = 250                 # one port-mapped I/O access
    disk_seek: int = 20_000        # per-request positioning (SSD-ish)
    disk_per_sector: int = 900     # per 512-byte sector transferred
    nic_per_packet: int = 3_000    # per-packet fixed cost (driver + DMA ring)
    nic_per_byte: int = 27         # gigabit wire time: 8 bits/byte at 3.4 GHz
    interrupt_delivery: int = 600

    # -- resilience (charged only on fault/timeout recovery paths) ----------
    retry_backoff: int = 1         # one unit of driver retry backoff
    arq_timeout: int = 1           # one unit of ARQ retransmit-timer wait
    supervisor_backoff: int = 1    # one unit of supervisor restart delay
    timer_wait: int = 1            # idle cycles skipped to a blocking
    #                                deadline (per cycle, so charges are
    #                                exact simulated waiting time)

    # -- crypto (software AES / SHA as in the prototype) --------------------
    aes_block: int = 180           # one 16-byte AES block
    sha_block: int = 220           # one 64-byte SHA-256 block
    rsa_op: int = 1_200_000        # one private-key RSA operation

    # -- hypervisor baseline (InkTag-style shadowing model) ------------------
    hv_exit: int = 2_600           # one VM exit + re-entry
    hv_shadow_page: int = 9_500    # encrypt+hash one app page on OS access

    def validate(self) -> None:
        """Reject non-positive costs (a zero cost silently hides work)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"cost {f.name!r} must be a positive int, "
                                 f"got {value!r}")


class CycleClock:
    """Monotonic simulated clock with per-category accounting.

    ``charge(kind, units)`` advances time by ``units * cost_model.<kind>``
    and tallies both the event count and the cycles attributed to the
    category, which the tests use to assert that overheads are emergent
    (e.g. "the VG run executed N mask checks, the native run zero").

    The cost model is frozen into a plain dict at construction time
    (after :meth:`CostModel.validate`), so the hot ``charge`` path does a
    single dict lookup instead of a ``getattr``. ``charge_batch`` lets a
    caller that accumulates event counts locally settle them in one call;
    because every total here is a sum of ``units * cost``, batching never
    changes ``cycles``, ``counters``, or ``cycles_by_kind`` -- only how
    often this object is touched.
    """

    def __init__(self, costs: CostModel | None = None):
        self.costs = costs or CostModel()
        self.costs.validate()
        #: Per-kind costs as a plain dict; the only lookup ``charge`` does.
        self._cost_table: dict[str, int] = {
            f.name: getattr(self.costs, f.name) for f in fields(self.costs)}
        self.cycles = 0
        self.counters: dict[str, int] = {}
        self.cycles_by_kind: dict[str, int] = {}

    def charge(self, kind: str, units: int = 1) -> int:
        """Advance the clock by ``units`` events of category ``kind``.

        Returns the number of cycles charged.
        """
        if units < 0:
            raise ValueError(f"negative units for {kind!r}: {units}")
        cost = self._cost_table.get(kind)
        if cost is None:
            raise ValueError(f"unknown cost category {kind!r}")
        cycles = cost * units
        self.cycles += cycles
        self.counters[kind] = self.counters.get(kind, 0) + units
        self.cycles_by_kind[kind] = self.cycles_by_kind.get(kind, 0) + cycles
        return cycles

    def charge_batch(self, units_by_kind: dict[str, int]) -> int:
        """Settle many accumulated events in one call.

        Equivalent to ``charge(kind, units)`` for every item; returns the
        total cycles charged. Unknown kinds and negative units are
        rejected exactly as in ``charge``.
        """
        costs = self._cost_table
        counters = self.counters
        by_kind = self.cycles_by_kind
        total = 0
        for kind, units in units_by_kind.items():
            if units < 0:
                raise ValueError(f"negative units for {kind!r}: {units}")
            cost = costs.get(kind)
            if cost is None:
                raise ValueError(f"unknown cost category {kind!r}")
            cycles = cost * units
            total += cycles
            counters[kind] = counters.get(kind, 0) + units
            by_kind[kind] = by_kind.get(kind, 0) + cycles
        self.cycles += total
        return total

    def charge_cycles(self, kind: str, cycles: int, units: int = 1) -> int:
        """Advance the clock by a raw cycle amount under a named category.

        ``units`` is the number of *events* recorded in ``counters`` for
        this charge (default 1: one charge, one event). Callers folding
        several events into one raw-cycle amount should pass the true
        event count so counter-based assertions stay meaningful --
        historically this method always bumped the counter by exactly 1
        regardless of magnitude, which skewed event counts.
        """
        if cycles < 0:
            raise ValueError(f"negative cycles for {kind!r}: {cycles}")
        if units < 0:
            raise ValueError(f"negative units for {kind!r}: {units}")
        self.cycles += cycles
        self.counters[kind] = self.counters.get(kind, 0) + units
        self.cycles_by_kind[kind] = self.cycles_by_kind.get(kind, 0) + cycles
        return cycles

    @property
    def micros(self) -> float:
        """Current simulated time in microseconds."""
        return self.cycles / CYCLES_PER_US

    def elapsed_since(self, mark: int) -> int:
        """Cycles elapsed since a previously sampled ``cycles`` value."""
        return self.cycles - mark

    def snapshot(self) -> dict[str, int]:
        """Copy of the event counters (for diffing around a region)."""
        return dict(self.counters)

    def reset(self) -> None:
        self.cycles = 0
        self.counters.clear()
        self.cycles_by_kind.clear()


def cycles_to_us(cycles: int) -> float:
    """Convert simulated cycles to microseconds at the modeled frequency."""
    return cycles / CYCLES_PER_US


def cycles_to_seconds(cycles: int) -> float:
    """Convert simulated cycles to seconds at the modeled frequency."""
    return cycles / FREQUENCY_HZ
