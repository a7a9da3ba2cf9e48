"""Kernel memory management: frames, address spaces, demand paging, swap.

The physical allocator owns every frame of installed RAM and is the
``FrameSource`` the SVA VM draws from for ghost memory and page tables.
Address spaces hold mmap-style regions; pages materialize on first touch
(demand paging), reading file-backed pages from the VFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.layout import (KERNEL_HEAP_START, KERNEL_STACK_START,
                               USER_END, USER_START, page_of)
from repro.errors import KernelError, SyscallError
from repro.faults import NO_FAULTS, FaultPlan
from repro.hardware.memory import PAGE_SIZE

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.vfs import Vnode

PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4

MAP_ANON = 1
MAP_FILE = 2


#: Pages per kernel stack (one unmapped guard page sits below each).
KSTACK_PAGES = 4


class FrameAllocator:
    """Free-list allocator over physical frames (frame 0 reserved).

    The fault plan (site ``kernel.frame_alloc``) can make any single
    allocation report *transient* exhaustion -- an errno the caller must
    handle -- while genuine exhaustion of installed RAM stays a
    simulated kernel panic (:class:`~repro.errors.KernelError`).

    When the free list runs dry, ``reclaim`` (if given) is called first
    to return retired frames through :meth:`free`; only if it frees
    nothing is the allocation a panic. An injected ENOMEM is decided
    before the free list is looked at, so it never triggers a reclaim.
    """

    def __init__(self, num_frames: int,
                 faults: FaultPlan | None = None,
                 reclaim: Callable[[], None] | None = None):
        self._free = list(range(num_frames - 1, 0, -1))
        self.total = num_frames - 1
        self.faults = faults if faults is not None else NO_FAULTS
        self.reclaim = reclaim
        self.allocs = 0
        self.frees = 0
        self.denied = 0
        #: reclaim passes that refilled the free list
        self.reclaims = 0

    def alloc(self) -> int:
        if self.faults.decide("kernel.frame_alloc") is not None:
            self.denied += 1
            raise SyscallError("ENOMEM",
                               "transient frame exhaustion (injected)")
        if not self._free:
            if self.reclaim is not None:
                self.reclaim()
            if not self._free:
                raise KernelError("out of physical memory")
            self.reclaims += 1
        self.allocs += 1
        return self._free.pop()

    def alloc_many(self, count: int) -> list[int]:
        frames: list[int] = []
        try:
            for _ in range(count):
                frames.append(self.alloc())
        except SyscallError:
            # transient failure mid-batch: return what was taken so a
            # partially satisfied request never leaks frames
            for frame in frames:
                self.free(frame)
            raise
        return frames

    def free(self, frame: int) -> None:
        self.frees += 1
        self._free.append(frame)

    @property
    def available(self) -> int:
        return len(self._free)


@dataclass
class VMRegion:
    """One contiguous mapping in a process address space."""

    start: int
    end: int
    prot: int
    kind: int                       # MAP_ANON or MAP_FILE
    vnode: "Vnode | None" = None
    file_offset: int = 0
    name: str = ""

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    @property
    def num_pages(self) -> int:
        return (self.end - self.start) // PAGE_SIZE


@dataclass
class AddressSpace:
    """Page-table root + regions + resident-page map for one process."""

    root: int
    regions: list[VMRegion] = field(default_factory=list)
    #: page-aligned vaddr -> frame, for pages this space owns (not ghost)
    resident: dict[int, int] = field(default_factory=dict)
    mmap_cursor: int = 0x0000_1000_0000_0000
    brk: int = 0x0000_0800_0000_0000
    brk_start: int = 0x0000_0800_0000_0000

    def region_at(self, vaddr: int) -> VMRegion | None:
        for region in self.regions:
            if region.contains(vaddr):
                return region
        return None

    def overlaps(self, start: int, end: int) -> bool:
        return any(region.start < end and start < region.end
                   for region in self.regions)


class VirtualMemoryManager:
    """The kernel's VM subsystem (one instance per kernel)."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.ctx = kernel.ctx
        self.vm = kernel.vm
        self.frames = FrameAllocator(kernel.machine.phys.num_frames,
                                     faults=kernel.machine.faults,
                                     reclaim=self.reclaim_retired)
        #: (page-table root, kernel-stack bases) of each reaped process
        #: or discarded image, held until the free list runs dry
        self.retired: list[tuple[int, list[int]]] = []
        self.kernel_heap_cursor = KERNEL_HEAP_START
        self.kernel_stack_cursor = KERNEL_STACK_START
        self.page_faults = 0
        self.pages_swapped_out = 0

    # -- FrameSource protocol (the SVA VM draws frames from the OS) -----------

    def provide_frames(self, count: int) -> list[int]:
        return self.frames.alloc_many(count)

    def reclaim_frame(self, frame: int) -> None:
        self.frames.free(frame)

    # -- kernel mappings ----------------------------------------------------------

    def kalloc_pages(self, count: int, *, name: str = "kheap") -> int:
        """Map fresh zeroed pages into the kernel heap; returns the vaddr."""
        vaddr = self.kernel_heap_cursor
        self.kernel_heap_cursor += count * PAGE_SIZE
        root = self.kernel.kernel_root
        for index in range(count):
            frame = self.frames.alloc()
            self.kernel.machine.phys.zero_frame(frame)
            self.ctx.clock.charge("zero_page")
            self.vm.mmu_map_page(root, vaddr + index * PAGE_SIZE, frame,
                                 writable=True, user=False)
        self.ctx.work(mem=4 * count, ops=6 * count)
        return vaddr

    def kalloc_stack(self, pages: int = KSTACK_PAGES) -> int:
        """Allocate a kernel stack; returns its *base* (lowest) address."""
        # one unmapped guard page between stacks
        vaddr = self.kernel_stack_cursor + PAGE_SIZE
        self.kernel_stack_cursor += (pages + 1) * PAGE_SIZE
        root = self.kernel.kernel_root
        for index in range(pages):
            frame = self.frames.alloc()
            self.vm.mmu_map_page(root, vaddr + index * PAGE_SIZE, frame,
                                 writable=True, user=False)
        self.ctx.work(mem=4 * pages, ops=6 * pages)
        return vaddr

    # -- address spaces --------------------------------------------------------------

    def new_address_space(self) -> AddressSpace:
        root = self.vm.mmu_new_root()
        self.ctx.work(mem=8, ops=12)
        return AddressSpace(root=root)

    def destroy_address_space(self, aspace: AddressSpace) -> None:
        for vaddr, frame in list(aspace.resident.items()):
            self.vm.mmu_unmap_page(aspace.root, vaddr)
            self.frames.free(frame)
            self.ctx.work(mem=3, ops=4)
        aspace.resident.clear()
        aspace.regions.clear()

    # -- retired frames ------------------------------------------------------

    def retire(self, root: int, kstacks: list[int]) -> None:
        """Note a dead address space's root and its threads' kernel
        stacks (``KSTACK_PAGES`` pages each); their frames come back in
        :meth:`reclaim_retired`.

        They are not freed here: the allocator's counters and free-list
        length are part of every recorded machine-metrics snapshot, and
        freeing at exit would move them.
        """
        self.retired.append((root, kstacks))

    def reclaim_retired(self) -> None:
        """Free every retired root's page tables (through
        ``sva.mmu.release_root``) and its kernel stacks. A root still
        loaded in ``cr3`` waits for a later pass."""
        cr3 = self.kernel.machine.cpu.cr3
        kernel_root = self.kernel.kernel_root
        pending, self.retired = self.retired, []
        for root, kstacks in pending:
            if root == cr3:
                self.retired.append((root, kstacks))
                continue
            self.vm.mmu_release_root(root)
            for base in kstacks:
                for page in range(base, base + KSTACK_PAGES * PAGE_SIZE,
                                  PAGE_SIZE):
                    self.frames.free(
                        self.vm.mmu_unmap_page(kernel_root, page))

    # -- mmap/munmap -------------------------------------------------------------------

    def mmap(self, aspace: AddressSpace, addr_hint: int, length: int,
             prot: int, kind: int, vnode: "Vnode | None" = None,
             file_offset: int = 0, name: str = "") -> int:
        if length <= 0:
            raise SyscallError("EINVAL", "mmap with non-positive length")
        length = _page_round(length)
        if addr_hint:
            start = page_of(addr_hint)
        else:
            start = aspace.mmap_cursor
            aspace.mmap_cursor += length + PAGE_SIZE
        end = start + length
        if not (USER_START <= start and end <= USER_END):
            raise SyscallError("EINVAL", "mmap outside user range")
        if aspace.overlaps(start, end):
            raise SyscallError("EEXIST", "mmap overlaps existing region")
        aspace.regions.append(VMRegion(start=start, end=end, prot=prot,
                                       kind=kind, vnode=vnode,
                                       file_offset=file_offset, name=name))
        self.ctx.work(mem=120, ops=70, rets=6, icalls=2)
        return start

    def munmap(self, aspace: AddressSpace, addr: int, length: int) -> None:
        start = page_of(addr)
        end = start + _page_round(length)
        kept: list[VMRegion] = []
        for region in aspace.regions:
            if region.start >= start and region.end <= end:
                for page in range(region.start, region.end, PAGE_SIZE):
                    frame = aspace.resident.pop(page, None)
                    if frame is not None:
                        self.vm.mmu_unmap_page(aspace.root, page)
                        self.frames.free(frame)
                        self.ctx.work(mem=3, ops=4)
            else:
                kept.append(region)
        aspace.regions = kept
        self.ctx.work(mem=90, ops=60, rets=4)

    def set_brk(self, aspace: AddressSpace, new_brk: int) -> int:
        if new_brk < aspace.brk_start:
            raise SyscallError("EINVAL", "brk below segment start")
        aspace.brk = new_brk
        self.ctx.work(mem=4, ops=8)
        return new_brk

    # -- demand paging ----------------------------------------------------------------------

    def handle_fault(self, aspace: AddressSpace, vaddr: int, *,
                     write: bool) -> None:
        """Materialize the page containing ``vaddr`` or raise SIGSEGV-ish."""
        self.page_faults += 1
        self.ctx.clock.charge("trap_entry")
        page = page_of(vaddr)
        region = aspace.region_at(vaddr)
        in_heap = aspace.brk_start <= vaddr < aspace.brk
        if region is None and not in_heap:
            self.ctx.clock.charge("trap_exit")
            raise SyscallError("EFAULT", f"no mapping at {vaddr:#x}")
        if region is not None and write and not region.prot & PROT_WRITE:
            self.ctx.clock.charge("trap_exit")
            raise SyscallError("EFAULT",
                               f"write to read-only page {vaddr:#x}")

        try:
            frame = self.frames.alloc()
        except SyscallError:
            # transient ENOMEM: leave the trap balanced, caller sees errno
            self.ctx.clock.charge("trap_exit")
            raise
        self.kernel.machine.phys.zero_frame(frame)
        self.ctx.clock.charge("zero_page")
        if region is not None and region.kind == MAP_FILE and region.vnode:
            offset = region.file_offset + (page - region.start)
            data = region.vnode.read(offset, PAGE_SIZE)
            if data:
                self.kernel.machine.phys.write(frame * PAGE_SIZE, data)
                self.ctx.clock.charge("copy_per_word", len(data) // 8 or 1)
        writable = True if region is None else bool(region.prot & PROT_WRITE)
        self.vm.mmu_map_page(aspace.root, page, frame, writable=writable,
                             user=True)
        aspace.resident[page] = frame
        # fault-handler bookkeeping (vm lookup, pmap enter, stats);
        # mostly hardware-side and bulk work, hence the low VG overhead
        self.ctx.clock.charge("instr", 300)
        self.ctx.work(mem=10, ops=24, rets=3)
        self.ctx.clock.charge("trap_exit")

    # -- fork support -----------------------------------------------------------------------

    def clone_address_space(self, parent: AddressSpace) -> AddressSpace:
        """Eager copy of all resident pages (no COW, as a simple kernel)."""
        child = self.new_address_space()
        child.regions = [VMRegion(start=r.start, end=r.end, prot=r.prot,
                                  kind=r.kind, vnode=r.vnode,
                                  file_offset=r.file_offset, name=r.name)
                         for r in parent.regions]
        child.mmap_cursor = parent.mmap_cursor
        child.brk = parent.brk
        child.brk_start = parent.brk_start
        phys = self.kernel.machine.phys
        try:
            for page, parent_frame in parent.resident.items():
                frame = self.frames.alloc()
                phys.write(frame * PAGE_SIZE,
                           phys.read(parent_frame * PAGE_SIZE, PAGE_SIZE))
                self.ctx.clock.charge("copy_per_word", PAGE_SIZE // 8)
                region = parent.region_at(page)
                writable = True if region is None else bool(region.prot
                                                            & PROT_WRITE)
                self.vm.mmu_map_page(child.root, page, frame,
                                     writable=writable, user=True)
                child.resident[page] = frame
                self.ctx.work(mem=26, ops=14)
        except SyscallError:
            # transient ENOMEM mid-copy: unwind the half-built child so
            # a failed fork never leaks frames or mappings
            self.destroy_address_space(child)
            self.retire(child.root, [])
            raise
        self.ctx.work(mem=120, ops=90, rets=6)
        return child


def _page_round(length: int) -> int:
    return (length + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
