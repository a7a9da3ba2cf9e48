"""MMU update policy (paper sections 4.3.2 and 5, "Memory Management").

All page-table updates flow through the SVA-OS MMU operations; this module
holds the checks those operations run when ``mmu_checks`` is enabled:

* physical frames backing ghost memory (or reserved by SVA) may never be
  mapped at any virtual address by the OS;
* virtual addresses inside the ghost partition (or SVA internal memory)
  may never have their mappings modified by the OS;
* frames holding native code may not be remapped, and code pages may not
  be made writable (nor may new frames be mapped over code addresses).

The policy also maintains the reverse map (frame -> set of mappings) that
``allocgm`` uses to verify a frame donated by the OS is not aliased
anywhere before it becomes ghost memory.
"""

from __future__ import annotations

import enum
from collections import defaultdict

from repro.core.layout import Region, classify
from repro.errors import SecurityViolation
from repro.hardware.memory import PAGE_SIZE


class FrameKind(enum.Enum):
    ORDINARY = "ordinary"
    GHOST = "ghost"
    SVA = "sva"
    CODE = "code"
    PAGE_TABLE = "page_table"


class MMUPolicy:
    """Frame classification + mapping constraints + reverse map."""

    def __init__(self):
        self._frame_kinds: dict[int, FrameKind] = {}
        # frame -> {(root, vaddr)}
        self._reverse: dict[int, set[tuple[int, int]]] = defaultdict(set)
        # (root, page-aligned vaddr) -> frame
        self._at: dict[tuple[int, int], int] = {}
        # root -> how many pages it maps
        self._mapped: dict[int, int] = defaultdict(int)
        self.denied_updates = 0

    # -- frame classification (called by the SVA VM, trusted) -------------------

    def classify_frame(self, frame: int, kind: FrameKind) -> None:
        self._frame_kinds[frame] = kind

    def declassify_frame(self, frame: int) -> None:
        self._frame_kinds.pop(frame, None)

    def frame_kind(self, frame: int) -> FrameKind:
        return self._frame_kinds.get(frame, FrameKind.ORDINARY)

    # -- reverse map ---------------------------------------------------------------

    def record_mapping(self, root: int, vaddr: int, frame: int) -> None:
        self._reverse[frame].add((root, vaddr))
        if (root, vaddr) not in self._at:
            self._mapped[root] += 1
        self._at[(root, vaddr)] = frame

    def record_unmapping(self, root: int, vaddr: int, frame: int) -> None:
        self._reverse[frame].discard((root, vaddr))
        if self._at.pop((root, vaddr), None) is not None:
            self._mapped[root] -= 1

    def maps_anything(self, root: int) -> bool:
        return self._mapped.get(root, 0) > 0

    def frame_at(self, root: int, vaddr: int) -> int | None:
        return self._at.get((root, vaddr))

    def mappings_of(self, frame: int) -> set[tuple[int, int]]:
        return set(self._reverse.get(frame, ()))

    def is_unmapped_everywhere(self, frame: int) -> bool:
        return not self._reverse.get(frame)

    # -- the checks -----------------------------------------------------------------

    def check_map(self, root: int, vaddr: int, frame: int, *,
                  writable: bool, from_os: bool) -> None:
        """Validate an OS request to install ``vaddr -> frame``.

        ``from_os`` is False for mappings installed by the SVA VM itself
        (ghost pages, swap-in), which are exempt from the OS-facing rules.
        """
        if not from_os:
            return
        region = classify(vaddr)
        kind = self.frame_kind(frame)

        if kind == FrameKind.GHOST:
            self._deny(f"OS attempted to map ghost frame {frame:#x} "
                       f"at {vaddr:#x}")
        if kind == FrameKind.SVA:
            self._deny(f"OS attempted to map SVA frame {frame:#x} "
                       f"at {vaddr:#x}")
        if region in (Region.GHOST, Region.SVA):
            self._deny(f"OS attempted to modify {region.value} partition "
                       f"mapping at {vaddr:#x}")
        if kind == FrameKind.CODE:
            self._deny(f"OS attempted to remap code frame {frame:#x}")
        if kind == FrameKind.PAGE_TABLE and writable:
            self._deny(f"OS attempted to map page-table frame {frame:#x} "
                       f"writable")
        # Mapping a new frame over an address that currently holds code
        # would let the OS swap instructions under the instrumentation.
        existing = self._at.get((root, vaddr & ~(PAGE_SIZE - 1)))
        if (existing is not None and existing != frame
                and self.frame_kind(existing) == FrameKind.CODE):
            self._deny(f"OS attempted to shadow code page at {vaddr:#x}")

    def check_unmap(self, root: int, vaddr: int, *, from_os: bool) -> None:
        if not from_os:
            return
        region = classify(vaddr)
        if region in (Region.GHOST, Region.SVA):
            self._deny(f"OS attempted to unmap {region.value} partition "
                       f"address {vaddr:#x}")

    def check_protect(self, root: int, vaddr: int, frame: int, *,
                      writable: bool, from_os: bool) -> None:
        if not from_os:
            return
        region = classify(vaddr)
        if region in (Region.GHOST, Region.SVA):
            self._deny(f"OS attempted to change protection inside "
                       f"{region.value} partition at {vaddr:#x}")
        if self.frame_kind(frame) == FrameKind.CODE and writable:
            self._deny(f"OS attempted to make code page {vaddr:#x} "
                       f"writable")

    def _deny(self, message: str) -> None:
        self.denied_updates += 1
        raise SecurityViolation(f"MMU policy: {message}")
