"""Ghost memory management: ``allocgm``/``freegm`` (paper section 3.2).

Ghost memory is per-process: frames logically belong to the process and
are mapped/unmapped as it is context-switched, like anonymous mmap memory.
``allocgm`` takes frames *donated by the OS*, verifies they are mapped
nowhere (using the reverse map the MMU policy maintains), zeroes them,
maps them at the requested ghost virtual address with user permissions,
and marks them DMA-inaccessible. ``freegm`` zeroes and returns them.

Kernel accesses are prevented by instrumentation (the pages stay mapped
while the kernel runs -- no unmapping or encryption on entry, which is
where Virtual Ghost's performance advantage over shadowing comes from).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.layout import GHOST_END, GHOST_START, page_of
from repro.errors import SecurityViolation
from repro.hardware.memory import PAGE_SIZE


@dataclass
class GhostPartition:
    """One process's ghost partition: vaddr(page) -> frame."""

    owner_pid: int
    #: page-table root of the owning process (set on first allocation)
    root: int = 0
    pages: dict[int, int] = field(default_factory=dict)
    #: pages currently swapped out: vaddr -> expected blob digest
    swapped: dict[int, bytes] = field(default_factory=dict)

    @property
    def resident_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE


class GhostManager:
    """Tracks every ghost partition and the frames backing them."""

    def __init__(self):
        self._partitions: dict[int, GhostPartition] = {}

    def partition(self, pid: int) -> GhostPartition:
        part = self._partitions.get(pid)
        if part is None:
            part = GhostPartition(owner_pid=pid)
            self._partitions[pid] = part
        return part

    def has_partition(self, pid: int) -> bool:
        return pid in self._partitions

    def drop_partition(self, pid: int) -> GhostPartition | None:
        return self._partitions.pop(pid, None)

    def uses_root(self, root: int) -> bool:
        """Whether any partition belongs to the address space ``root``."""
        return any(part.root == root for part in self._partitions.values())

    def validate_range(self, vaddr: int, num_pages: int) -> None:
        """The requested range must sit inside the ghost partition."""
        if num_pages <= 0:
            raise SecurityViolation("allocgm/freegm: non-positive size")
        if vaddr != page_of(vaddr):
            raise SecurityViolation(
                f"allocgm/freegm: unaligned address {vaddr:#x}")
        end = vaddr + num_pages * PAGE_SIZE
        if not (GHOST_START <= vaddr and end <= GHOST_END):
            raise SecurityViolation(
                f"allocgm/freegm: range [{vaddr:#x}, {end:#x}) outside "
                f"the ghost partition")

    def frame_for(self, pid: int, vaddr: int) -> int | None:
        return self.partition(pid).pages.get(page_of(vaddr))

    def owns_page(self, pid: int, vaddr: int) -> bool:
        part = self._partitions.get(pid)
        return part is not None and page_of(vaddr) in part.pages

    def all_frames(self, pid: int) -> list[int]:
        return list(self.partition(pid).pages.values())
