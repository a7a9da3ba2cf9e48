"""Address-space layout and the load/store sandboxing arithmetic.

The paper divides each process's address space into three partitions
(section 3.1) plus SVA-internal memory (section 5):

* user        -- traditional application memory (low canonical half)
* kernel      -- persistent kernel mappings (high canonical half)
* ghost       -- 512 GiB at ``0xffffff0000000000``, per-application
* SVA internal -- kept inside the kernel data segment in the prototype;
  instrumentation rewrites any address inside it to zero before the access

The sandboxing transform is the paper's exactly: if an address is >= the
ghost base it is OR-ed with 2**39, which relocates it past the end of the
ghost partition; addresses inside SVA internal memory become null. Kernel
code therefore *cannot express* an access to either region.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from repro.hardware.memory import PAGE_SIZE

# -- partition boundaries (paper section 5) -------------------------------------

USER_START = 0x0000_0000_0001_0000          # leave page 0 unmapped
USER_END = 0x0000_8000_0000_0000

KERNEL_START = 0xFFFF_8000_0000_0000
KERNEL_END = 0xFFFF_FF00_0000_0000

#: Ghost memory partition: the unused 512 GiB slice the paper claims.
GHOST_START = 0xFFFF_FF00_0000_0000
GHOST_END = 0xFFFF_FF80_0000_0000

#: Each process's ghost heap starts at its pid's 256 MiB slot. Pids wrap
#: around the 2,048 slots: every process has its own address space (and
#: ``GhostManager`` keys partitions by pid), so two processes sharing a
#: slot never collide.
GHOST_SLOT_SIZE = 0x1000_0000
GHOST_SLOTS = (GHOST_END - GHOST_START) // GHOST_SLOT_SIZE

#: Where masked ghost addresses land: deliberately unmapped ("dead zone").
#: OR-ing bit 39 into a ghost address can produce anything from GHOST_END
#: up to the top of the address space, so the whole remainder is dead.
DEAD_ZONE_START = GHOST_END
DEAD_ZONE_END = 1 << 64

#: SVA VM internal memory. The prototype leaves it inside the kernel data
#: segment and adds zero-the-address instrumentation for it (section 5);
#: we reserve a named slice of the kernel segment for the same effect.
SVA_START = 0xFFFF_C000_0000_0000
SVA_END = 0xFFFF_C001_0000_0000

#: Kernel sub-regions (conventional; the kernel's own allocators use these).
KERNEL_CODE_START = 0xFFFF_8000_0000_0000
KERNEL_CODE_END = 0xFFFF_8000_4000_0000
KERNEL_HEAP_START = 0xFFFF_8001_0000_0000
KERNEL_HEAP_END = 0xFFFF_8040_0000_0000
KERNEL_STACK_START = 0xFFFF_8040_0000_0000
KERNEL_STACK_END = 0xFFFF_8041_0000_0000

#: The OR mask of the sandboxing transform (2**39 spans the 512 GiB ghost
#: partition, so ghost | MASK_BIT lands in the dead zone).
MASK_BIT = 1 << 39

_U64 = (1 << 64) - 1


class Region(enum.Enum):
    USER = "user"
    KERNEL = "kernel"
    GHOST = "ghost"
    SVA = "sva"
    DEAD = "dead"
    UNMAPPED = "unmapped"


def classify(addr: int) -> Region:
    """Which partition a virtual address belongs to."""
    addr &= _U64
    if USER_START <= addr < USER_END:
        return Region.USER
    if SVA_START <= addr < SVA_END:
        return Region.SVA
    if GHOST_START <= addr < GHOST_END:
        return Region.GHOST
    if DEAD_ZONE_START <= addr < DEAD_ZONE_END:
        return Region.DEAD
    if KERNEL_START <= addr < KERNEL_END:
        return Region.KERNEL
    return Region.UNMAPPED


@lru_cache(maxsize=65536)
def mask_address(addr: int) -> int:
    """The ``vgmask`` transform applied before every kernel memory access.

    Pure arithmetic, no branching on secret data: addresses at or above the
    ghost base get the relocation bit OR-ed in; SVA-internal addresses
    become null. Everything else passes through unchanged.

    The transform is a pure function of its argument, so it carries an
    LRU cache: kernel paths and instrumented module code mask the same
    handful of buffer addresses millions of times per benchmark. The
    cache affects host wall-clock only -- the simulated ``mask_check``
    cycles are charged by the callers, per access, exactly as before.
    """
    addr &= _U64
    if SVA_START <= addr < SVA_END:
        return 0
    if addr >= GHOST_START:
        return (addr | MASK_BIT) & _U64
    return addr


def ghost_slot_base(pid: int) -> int:
    """Where process ``pid``'s ghost allocations begin."""
    return GHOST_START + pid % GHOST_SLOTS * GHOST_SLOT_SIZE


def is_page_aligned(addr: int) -> bool:
    return addr % PAGE_SIZE == 0


def page_of(addr: int) -> int:
    """Base address of the page containing ``addr``."""
    return addr & ~(PAGE_SIZE - 1) & _U64
