"""The SVA virtual machine: the hardware abstraction layer of the paper.

The VM sits between the kernel and the hardware (Figure 1). It is *not*
at a higher privilege level -- the kernel calls its operations like
library functions -- but because every kernel translation is produced by
the VM's compiler (with sandboxing + CFI) and every kernel-hardware
interaction goes through these operations, the VM's internal state and
ghost memory are untouchable by OS code.

The kernel-facing surface groups into:

* translation service -- compile/verify/sign OS modules, build interpreters
* MMU operations -- checked page-table updates, address-space creation
* trap handling -- Interrupt Context save/scrub/restore
* IC manipulation -- ``sva.icontext.*``, ``sva.ipush.function``,
  ``sva.newstate``, ``sva.reinit.icontext``
* I/O -- checked port access (IOMMU configuration is refused)
* ghost services (application-facing) -- ``allocgm``/``freegm``,
  ``sva.getKey``, ``sva.permitFunction``, trusted randomness, swapping
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.compiler.codegen import CodeGenerator, NativeImage
from repro.compiler.interp import (ExecutionLimits, Interpreter,
                                   MemoryPort)
from repro.compiler.ir import Module
from repro.compiler.parser import parse_module
from repro.compiler.passes.cfi import CFIPass
from repro.compiler.passes.pipeline import PassManager
from repro.compiler.passes.sandbox import SandboxPass
from repro.compiler.verifier import verify_module
from repro.core.config import VGConfig
from repro.core.ghost import GhostManager
from repro.core.icontext import (ICRegistry, InterruptContext, ThreadState,
                                 TrapKind, scrub_for_kernel)
from repro.core.keymgmt import KeyManager, SignedExecutable
from repro.core.layout import (GHOST_START, KERNEL_CODE_START,
                               KERNEL_HEAP_START, page_of)
from repro.core.mmu_policy import FrameKind, MMUPolicy
from repro.core.swap import SwapService
from repro.crypto.drbg import HmacDRBG
from repro.errors import KernelError, SecurityViolation
from repro.hardware.cpu import RegisterFile
from repro.hardware.memory import PAGE_SIZE
from repro.hardware.mmu import PTE_NX, PTE_USER, PTE_WRITE, vpn_indices
from repro.hardware.platform import Machine

#: First L4 slot a process does not share with the kernel (the ghost
#: partition, then the dead zone above it).
_GHOST_L4 = vpn_indices(GHOST_START)[0]


class FrameSource(Protocol):
    """How the VM asks the OS for physical frames (and returns them)."""

    def provide_frames(self, count: int) -> list[int]: ...
    def reclaim_frame(self, frame: int) -> None: ...


@dataclass
class LoadedProgram:
    """Per-process record of a validated executable."""

    exe_name: str
    program_id: str
    app_key: bytes | None           # None when signatures are disabled
    entry_addr: int


class SVAVM:
    """One Virtual Ghost VM instance hosting one kernel."""

    def __init__(self, machine: Machine,
                 config: VGConfig | None = None):
        self.machine = machine
        self.clock = machine.clock
        self.observer = machine.observer
        self.config = config or VGConfig.virtual_ghost()

        self.policy = MMUPolicy()
        self.ghosts = GhostManager()
        self.ics = ICRegistry()
        self.keys = KeyManager.bootstrap(machine.tpm, self.clock)
        self.swap = SwapService(self.keys.swap_key, self.clock,
                                faults=machine.faults)
        self.drbg = HmacDRBG(machine.tpm.entropy(48))

        self.frame_source: FrameSource | None = None
        self._kernel_root: int | None = None

        # Code/data address cursors for translated modules.
        self._code_cursor = KERNEL_CODE_START + 0x10000
        self._data_cursor = KERNEL_HEAP_START + 0x2000_0000

        # pid -> registered signal-handler addresses (sva.permitFunction)
        self._permitted: dict[int, set[int]] = {}
        # pid -> LoadedProgram (set by validate_exec)
        self._programs: dict[int, LoadedProgram] = {}
        # tid -> pid (so IC ops can find per-process state)
        self._thread_pid: dict[int, int] = {}
        # tid -> ThreadState (sva.newstate results)
        self._thread_states: dict[int, ThreadState] = {}
        # tid -> kernel-stack address for the serialized IC (native mode)
        self._kstack_ic_addr: dict[int, int] = {}
        # process root -> every page-table frame taken for it (the root
        # included), kept so sva.mmu.release_root never walks the tables
        self._root_tables: dict[int, list[int]] = {}
        # valid kernel entry points for sva.newstate
        self._kernel_entries: set[int] = set()
        self._next_kernel_entry = KERNEL_CODE_START + 0x1000

        self.stats = {"traps": 0, "syscalls": 0, "ipush_refused": 0,
                      "exec_refused": 0}

    # ==================================================================
    # boot / wiring
    # ==================================================================

    def attach_frame_source(self, source: FrameSource) -> None:
        self.frame_source = source

    def boot_kernel_root(self) -> int:
        """Create the kernel's initial address space (top-level table).

        The L4 slots covering the kernel's code/heap/stack regions are
        pre-populated so that process address spaces (which share the
        kernel half by copying these L4 entries) observe later kernel
        mappings. The ghost-partition slots are deliberately *not*
        shared -- ghost mappings are per-process.
        """
        from repro.core.layout import (KERNEL_CODE_START, KERNEL_HEAP_START,
                                       KERNEL_STACK_START)
        root = self.machine.pt_editor.new_table(self._take_pt_frame)
        self._kernel_root = root
        for base in (KERNEL_CODE_START, KERNEL_HEAP_START,
                     KERNEL_STACK_START):
            self._ensure_l4_entry(root, base)
        self.machine.load_page_table(root)
        return root

    def _ensure_l4_entry(self, root: int, vaddr: int) -> None:
        from repro.hardware.mmu import (PTE_PRESENT, PTE_WRITE, make_pte,
                                        vpn_indices)
        index = vpn_indices(vaddr)[0]
        entry_addr = root + index * 8
        if not self.machine.phys.read_word(entry_addr) & PTE_PRESENT:
            frame = self._take_pt_frame()
            self.machine.phys.zero_frame(frame)
            self.machine.phys.write_word(
                entry_addr, make_pte(frame, PTE_PRESENT | PTE_WRITE))
            self.clock.charge("mmu_update")

    def register_kernel_entry(self) -> int:
        """Issue a code address usable as a thread's kernel entry point.

        ``sva.newstate`` verifies the entry the OS supplies is one of
        these (paper 4.6.2: "the specified function is the entry point of
        a kernel function").
        """
        addr = self._next_kernel_entry
        self._next_kernel_entry += 0x40
        self._kernel_entries.add(addr)
        return addr

    def _require_frames(self, count: int) -> list[int]:
        if self.frame_source is None:
            raise KernelError("SVA VM has no frame source attached")
        frames = self.frame_source.provide_frames(count)
        if len(frames) != count:
            raise KernelError("OS failed to provide requested frames")
        return frames

    def _take_pt_frame(self) -> int:
        frame = self._require_frames(1)[0]
        self.policy.classify_frame(frame, FrameKind.PAGE_TABLE)
        if self.config.dma_protection:
            self.machine.iommu.deny_frame(frame)
        return frame

    # ==================================================================
    # translation service
    # ==================================================================

    def translate_module(self, source: str | Module, *,
                         instrument: bool = True) -> NativeImage:
        """Compile OS code: parse, verify, instrument, lower, sign.

        ``instrument=True`` is the only mode reachable for kernel modules
        under Virtual Ghost; the native baseline compiles without passes
        (same compiler, no instrumentation), matching the paper's setup.
        """
        module = (parse_module(source) if isinstance(source, str)
                  else source)
        verify_module(module)
        passes = []
        if instrument and self.config.sandboxing:
            passes.append(SandboxPass())
        if instrument and self.config.cfi:
            passes.append(CFIPass())
        if passes:
            PassManager(passes, observer=self.observer).run(module)
        if self.observer.enabled:
            self.observer.trace(
                "compile.module",
                f"name={module.name} funcs={len(module.functions)} "
                f"instrumented={int(bool(passes))}")

        image = CodeGenerator(self._code_cursor, self._data_cursor).generate(
            module)
        self._code_cursor += max(image.code_size, 1) + 0x100
        self._data_cursor += max(image.data_size, PAGE_SIZE)
        if self.config.signed_translations:
            image.sign(self.keys.translation_key)
        return image

    def make_interpreter(self, image: NativeImage, memory: MemoryPort, *,
                         externs: dict[str, Callable[[list[int]], int]],
                         stack_top: int,
                         limits: ExecutionLimits | None = None
                         ) -> Interpreter:
        """Build an execution engine for a translated module.

        Refuses unsigned or tampered translations when signing is on --
        binary code that did not come out of the VM's compiler is simply
        not executable (the paper: traditional code-injection exploits
        "are not even expressible").
        """
        if self.config.signed_translations:
            image.verify(self.keys.translation_key)
        return Interpreter(image, memory, self.clock, externs=externs,
                           stack_top=stack_top, limits=limits,
                           observer=self.observer)

    # ==================================================================
    # MMU operations (sva.mmu.*)
    # ==================================================================

    def mmu_new_root(self) -> int:
        """Create a process address space sharing the kernel half."""
        root = self.machine.pt_editor.new_table(self._take_pt_frame)
        if self._kernel_root is not None:
            # Share the kernel's upper-half L4 entries, except the ghost
            # partition (and the dead zone above it): ghost mappings are
            # per-process by design.
            for index in range(256, _GHOST_L4):
                word = self.machine.phys.read_word(
                    self._kernel_root + index * 8)
                self.machine.phys.write_word(root + index * 8, word)
            self.clock.charge("copy_per_word", 256)
        self._root_tables[root] = [root // PAGE_SIZE]
        return root

    def _table_supplier(self, root: int, vaddr: int) -> Callable[[], int]:
        """Frame supplier for a walk of ``root`` down to ``vaddr``.

        Tables below a process root's private L4 slots (user half, ghost
        partition, dead zone) are noted against that root; tables under
        the kernel-shared slots belong to the kernel and are never noted.
        """
        tables = self._root_tables.get(root)
        if tables is None or 256 <= (vaddr >> 39) & 0x1FF < _GHOST_L4:
            return self._take_pt_frame

        def take() -> int:
            frame = self._take_pt_frame()
            tables.append(frame)
            return frame
        return take

    def mmu_map_page(self, root: int, vaddr: int, frame: int, *,
                     writable: bool, user: bool, executable: bool = False,
                     from_os: bool = True) -> None:
        if self.observer.enabled:
            self.observer.trace(
                "mmu.map", f"vaddr={page_of(vaddr):#x} frame={frame} "
                f"w={int(writable)} u={int(user)} os={int(from_os)}")
        if self.config.mmu_checks and from_os:
            self.clock.charge("mmu_check")
            self.policy.check_map(root, vaddr, frame, writable=writable,
                                  from_os=True)
        flags = 0
        if writable:
            flags |= PTE_WRITE
        if user:
            flags |= PTE_USER
        if not executable:
            flags |= PTE_NX
        self.machine.pt_editor.map_page(root, page_of(vaddr), frame, flags,
                                        self._table_supplier(root, vaddr))
        self.policy.record_mapping(root, page_of(vaddr), frame)
        self.machine.mmu.invalidate(vaddr)

    def mmu_unmap_page(self, root: int, vaddr: int, *,
                       from_os: bool = True) -> int | None:
        if self.observer.enabled:
            self.observer.trace(
                "mmu.unmap",
                f"vaddr={page_of(vaddr):#x} os={int(from_os)}")
        if self.config.mmu_checks and from_os:
            self.clock.charge("mmu_check")
            self.policy.check_unmap(root, vaddr, from_os=True)
        frame = self.machine.pt_editor.unmap_page(root, page_of(vaddr))
        if frame is not None:
            self.policy.record_unmapping(root, page_of(vaddr), frame)
        self.machine.mmu.invalidate(vaddr)
        return frame

    def mmu_protect(self, root: int, vaddr: int, *, writable: bool,
                    user: bool, executable: bool = False,
                    from_os: bool = True) -> None:
        frame = self.policy.frame_at(root, page_of(vaddr))
        if frame is None:
            raise KernelError(f"protect of unmapped page {vaddr:#x}")
        if self.observer.enabled:
            self.observer.trace(
                "mmu.protect", f"vaddr={page_of(vaddr):#x} "
                f"w={int(writable)} os={int(from_os)}")
        if self.config.mmu_checks and from_os:
            self.clock.charge("mmu_check")
            self.policy.check_protect(root, vaddr, frame,
                                      writable=writable, from_os=True)
        flags = 0
        if writable:
            flags |= PTE_WRITE
        if user:
            flags |= PTE_USER
        if not executable:
            flags |= PTE_NX
        self.machine.pt_editor.set_leaf_flags(root, page_of(vaddr), flags)
        self.machine.mmu.invalidate(vaddr)

    def mmu_load_root(self, root: int) -> None:
        """Context-switch the address space (CR3 reload)."""
        self.clock.charge("context_switch")
        self.machine.load_page_table(root)

    def mmu_release_root(self, root: int) -> None:
        """sva.mmu.release_root: return a dead address space's page-table
        frames to the OS.

        Refused for the kernel's root, for a root loaded in ``cr3``, and
        for a root that still maps any page or backs a ghost partition.
        Only the frames noted against the root as it grew are released,
        so the kernel's tables behind the shared L4 slots stay put. Each
        frame is zeroed, declassified and DMA-allowed, as ghost frames
        are when a partition is released.
        """
        self.clock.charge("sva_dispatch")
        tables = self._root_tables.get(root)
        if tables is None:
            raise SecurityViolation(
                f"sva.mmu.release_root: {root:#x} is not a process root")
        if root == self.machine.cpu.cr3:
            raise SecurityViolation(
                f"sva.mmu.release_root: {root:#x} is loaded in cr3")
        if self.policy.maps_anything(root) or self.ghosts.uses_root(root):
            raise SecurityViolation(
                f"sva.mmu.release_root: {root:#x} still maps pages")
        del self._root_tables[root]
        for frame in tables:
            self.machine.phys.zero_frame(frame)
            self.clock.charge("zero_page")
            self.policy.declassify_frame(frame)
            if self.config.dma_protection:
                self.machine.iommu.allow_frame(frame)
            self.frame_source.reclaim_frame(frame)

    def declare_code_frame(self, frame: int) -> None:
        """Mark a frame as holding native code (non-remappable)."""
        self.policy.classify_frame(frame, FrameKind.CODE)

    # ==================================================================
    # trap handling
    # ==================================================================

    def trap_enter(self, tid: int, kind: TrapKind,
                   regs: RegisterFile) -> None:
        """Hardware trap entry: save the Interrupt Context.

        Under ``secure_ic`` the IST points into SVA memory: the IC is
        stored inside the VM and registers are scrubbed. Otherwise the IC
        is serialized onto the thread's kernel stack -- ordinary kernel
        memory a hostile module can inspect and rewrite.
        """
        self.stats["traps"] += 1
        if kind == TrapKind.SYSCALL:
            self.stats["syscalls"] += 1
        if self.observer.enabled:
            self.observer.trace("trap.enter",
                                f"tid={tid} kind={kind.name}")
        self.clock.charge("trap_entry")
        ic = InterruptContext(regs=regs.copy(), kind=kind)
        self.ics.set_current(tid, ic)
        if self.config.secure_ic:
            self.clock.charge("ic_save_sva")
            self.clock.charge("reg_scrub")
            scrub_for_kernel(ic, regs)
            if kind == TrapKind.SYSCALL:
                self.clock.charge("sva_dispatch")
        else:
            self.clock.charge("ic_save_kernel")
            kstack = self._kstack_ic_addr.get(tid)
            if kstack is not None:
                self._write_kernel(kstack, ic.serialize())

    def trap_exit(self, tid: int) -> InterruptContext:
        """Return-from-trap: produce the state the thread resumes with.

        In native mode the IC is re-read from the kernel stack, so any
        kernel modification of the saved state takes effect -- the attack
        surface the interrupted-state attacks use.
        """
        if self.observer.enabled:
            self.observer.trace("trap.exit", f"tid={tid}")
        self.clock.charge("trap_exit")
        ic = self.ics.current(tid)
        if self.config.secure_ic:
            self.clock.charge("ic_restore_sva")
        else:
            self.clock.charge("ic_restore_kernel")
            kstack = self._kstack_ic_addr.get(tid)
            if kstack is not None:
                raw = self._read_kernel(kstack,
                                        InterruptContext.SERIALIZED_SIZE)
                refreshed = InterruptContext.deserialize(raw, ic.kind)
                refreshed.pushed_handler = ic.pushed_handler
                ic = refreshed
                self.ics.set_current(tid, ic)
        return ic

    def set_kstack_ic_addr(self, tid: int, vaddr: int) -> None:
        """Kernel tells the VM where this thread's trap frame lives
        (only meaningful in the native, insecure-IC configuration)."""
        self._kstack_ic_addr[tid] = vaddr

    # ==================================================================
    # Interrupt Context manipulation (sva.icontext.*)
    # ==================================================================

    def register_thread(self, tid: int, pid: int) -> None:
        self._thread_pid[tid] = pid

    def retire_thread(self, tid: int) -> None:
        self._thread_pid.pop(tid, None)
        self._thread_states.pop(tid, None)
        self._kstack_ic_addr.pop(tid, None)
        self.ics.drop(tid)

    def icontext_set_retval(self, tid: int, value: int) -> None:
        """Set the system-call return value in the saved IC."""
        self.ics.current(tid).regs.set("rax", value & ((1 << 64) - 1))

    def icontext_save(self, tid: int) -> None:
        """sva.icontext.save: stash a copy before signal dispatch."""
        self.clock.charge("ic_save_sva" if self.config.secure_ic
                          else "ic_save_kernel")
        self.ics.push_saved(tid)

    def icontext_load(self, tid: int) -> None:
        """sva.icontext.load: restore the stashed copy (sigreturn)."""
        self.clock.charge("ic_restore_sva" if self.config.secure_ic
                          else "ic_restore_kernel")
        self.ics.pop_saved(tid)

    def permit_function(self, pid: int, handler_addr: int) -> None:
        """sva.permitFunction: application registers a signal handler.

        Called on the application's behalf (a "virtual ghost call" --
        it does not cross into the OS).
        """
        self.clock.charge("sva_dispatch")
        self._permitted.setdefault(pid, set()).add(handler_addr)

    def permitted_functions(self, pid: int) -> set[int]:
        return set(self._permitted.get(pid, ()))

    def ipush_function(self, tid: int, handler_addr: int,
                       args: tuple[int, ...]) -> None:
        """sva.ipush.function: make the thread resume in a signal handler.

        Refuses targets the application did not register -- this is the
        check that defeats the paper's second rootkit attack (section 7).
        """
        self.clock.charge("sva_dispatch")
        ic = self.ics.current(tid)
        if self.config.secure_ic:
            pid = self._thread_pid.get(tid)
            allowed = self._permitted.get(pid, set())
            if handler_addr not in allowed:
                self.stats["ipush_refused"] += 1
                raise SecurityViolation(
                    f"sva.ipush.function: {handler_addr:#x} is not a "
                    f"function registered via sva.permitFunction for "
                    f"pid {pid}")
        ic.pushed_handler = (handler_addr, tuple(args))

    def clear_pushed_handler(self, tid: int) -> None:
        ic = self.ics.current(tid)
        ic.pushed_handler = None

    def newstate(self, parent_tid: int, child_tid: int, child_pid: int,
                 kernel_entry: int) -> None:
        """sva.newstate: create IC + Thread State for a new thread.

        The child's IC is a clone of the parent's current IC; the Thread
        State resumes in ``kernel_entry``, which must be a registered
        kernel function entry point (section 4.6.2).
        """
        self.clock.charge("ic_save_sva" if self.config.secure_ic
                          else "ic_save_kernel")
        if self.config.secure_ic and kernel_entry not in self._kernel_entries:
            raise SecurityViolation(
                f"sva.newstate: {kernel_entry:#x} is not a kernel "
                f"function entry point")
        parent_ic = self.ics.current(parent_tid)
        child_ic = parent_ic.copy()
        child_ic.pushed_handler = None
        self.ics.set_current(child_tid, child_ic)
        self._thread_states[child_tid] = ThreadState(
            kernel_entry=kernel_entry)
        self._thread_pid[child_tid] = child_pid
        # Ghost memory of the parent's process is shared with threads of
        # the same process; fork gives the child its own empty partition
        # (the kernel copies user memory, ghost contents are not cloned --
        # they are per-application secrets tied to the validated image).
        parent_pid = self._thread_pid.get(parent_tid)
        if parent_pid is not None and child_pid == parent_pid:
            return

    def reinit_icontext(self, tid: int, pid: int, entry_addr: int,
                        stack_ptr: int, *, make_user: bool = True) -> None:
        """sva.reinit.icontext: point a thread at a fresh program image.

        Verifies the entry address matches the program the VM validated
        for this process at exec time, and unmaps any ghost memory of the
        previously running image (section 4.6.2).
        """
        self.clock.charge("ic_save_sva" if self.config.secure_ic
                          else "ic_save_kernel")
        if self.config.verify_app_signatures:
            program = self._programs.get(pid)
            if program is None or program.entry_addr != entry_addr:
                raise SecurityViolation(
                    f"sva.reinit.icontext: entry {entry_addr:#x} does not "
                    f"match the validated program for pid {pid}")
        self._release_ghost(pid)
        self._permitted.pop(pid, None)
        ic = self.ics.current(tid)
        ic.regs = RegisterFile()
        ic.regs.rip = entry_addr
        ic.regs.set("rsp", stack_ptr)
        ic.pushed_handler = None

    # ==================================================================
    # exec-time program validation
    # ==================================================================

    def validate_exec(self, pid: int, exe: SignedExecutable,
                      entry_addr: int) -> LoadedProgram:
        """Verify an executable before the kernel may launch it."""
        if self.config.verify_app_signatures:
            try:
                app_key = self.keys.validate_executable(exe)
            except SecurityViolation:
                self.stats["exec_refused"] += 1
                raise
        else:
            app_key = None
        program = LoadedProgram(exe_name=exe.name,
                                program_id=exe.program_id,
                                app_key=app_key, entry_addr=entry_addr)
        self._programs[pid] = program
        return program

    def program_of(self, pid: int) -> LoadedProgram | None:
        return self._programs.get(pid)

    def inherit_program(self, parent_pid: int, child_pid: int) -> None:
        """fork: the child runs the same validated image as the parent."""
        program = self._programs.get(parent_pid)
        if program is not None:
            self._programs[child_pid] = program

    def get_app_key(self, pid: int) -> bytes:
        """sva.getKey: hand the application its decrypted key."""
        self.clock.charge("sva_dispatch")
        if not self.config.ghost_memory:
            raise SecurityViolation("sva.getKey: ghost services disabled")
        program = self._programs.get(pid)
        if program is None or program.app_key is None:
            raise SecurityViolation(
                f"sva.getKey: no validated application key for pid {pid}")
        return program.app_key

    def sva_random(self, length: int) -> bytes:
        """Trusted randomness (defeats RNG Iago attacks, section 4.7)."""
        self.clock.charge("sva_dispatch")
        self.clock.charge("sha_block", max(1, (length + 31) // 32))
        return self.drbg.generate(length)

    # ==================================================================
    # ghost memory (allocgm / freegm / swap)
    # ==================================================================

    def allocgm(self, pid: int, root: int, vaddr: int,
                num_pages: int) -> None:
        """Map ``num_pages`` zeroed ghost frames at ``vaddr`` (Table 1)."""
        if self.observer.enabled:
            self.observer.trace("ghost.alloc",
                                f"pid={pid} vaddr={vaddr:#x} "
                                f"pages={num_pages}")
        self.clock.charge("sva_dispatch")
        if not self.config.ghost_memory:
            raise SecurityViolation("allocgm: ghost memory disabled")
        self.ghosts.validate_range(vaddr, num_pages)
        partition = self.ghosts.partition(pid)
        partition.root = root
        frames = self._require_frames(num_pages)
        for index, frame in enumerate(frames):
            page_vaddr = vaddr + index * PAGE_SIZE
            if page_vaddr in partition.pages:
                raise SecurityViolation(
                    f"allocgm: {page_vaddr:#x} already allocated")
            if not self.policy.is_unmapped_everywhere(frame):
                raise SecurityViolation(
                    f"allocgm: OS donated frame {frame:#x} that is still "
                    f"mapped somewhere")
            self.machine.phys.zero_frame(frame)
            self.clock.charge("zero_page")
            self.policy.classify_frame(frame, FrameKind.GHOST)
            if self.config.dma_protection:
                self.machine.iommu.deny_frame(frame)
            self.mmu_map_page(root, page_vaddr, frame, writable=True,
                              user=True, from_os=False)
            partition.pages[page_vaddr] = frame

    def freegm(self, pid: int, root: int, vaddr: int,
               num_pages: int) -> None:
        """Unmap, zero, and return ghost frames to the OS (Table 1)."""
        if self.observer.enabled:
            self.observer.trace("ghost.free",
                                f"pid={pid} vaddr={vaddr:#x} "
                                f"pages={num_pages}")
        self.clock.charge("sva_dispatch")
        if not self.config.ghost_memory:
            raise SecurityViolation("freegm: ghost memory disabled")
        self.ghosts.validate_range(vaddr, num_pages)
        partition = self.ghosts.partition(pid)
        for index in range(num_pages):
            page_vaddr = vaddr + index * PAGE_SIZE
            frame = partition.pages.pop(page_vaddr, None)
            if frame is None:
                raise SecurityViolation(
                    f"freegm: {page_vaddr:#x} is not allocated ghost "
                    f"memory")
            self.mmu_unmap_page(root, page_vaddr, from_os=False)
            self.machine.phys.zero_frame(frame)
            self.clock.charge("zero_page")
            self.policy.declassify_frame(frame)
            if self.config.dma_protection:
                self.machine.iommu.allow_frame(frame)
            if self.frame_source is not None:
                self.frame_source.reclaim_frame(frame)

    def _release_ghost(self, pid: int) -> None:
        """Free a process's whole partition (exit / exec)."""
        partition = self.ghosts.drop_partition(pid)
        if partition is None:
            return
        for page_vaddr, frame in partition.pages.items():
            if partition.root:
                self.mmu_unmap_page(partition.root, page_vaddr,
                                    from_os=False)
            self.machine.phys.zero_frame(frame)
            self.clock.charge("zero_page")
            self.policy.declassify_frame(frame)
            if self.config.dma_protection:
                self.machine.iommu.allow_frame(frame)
            if self.frame_source is not None:
                self.frame_source.reclaim_frame(frame)

    def process_exit(self, pid: int) -> None:
        """Kernel notification that a process died."""
        self._release_ghost(pid)
        self._permitted.pop(pid, None)
        self._programs.pop(pid, None)

    def swap_out_ghost(self, pid: int, root: int, vaddr: int) -> bytes:
        """OS asks to reclaim a ghost frame; returns the protected blob."""
        if self.observer.enabled:
            self.observer.trace("ghost.swap_out",
                                f"pid={pid} vaddr={page_of(vaddr):#x}")
        self.clock.charge("sva_dispatch")
        partition = self.ghosts.partition(pid)
        page_vaddr = page_of(vaddr)
        frame = partition.pages.pop(page_vaddr, None)
        if frame is None:
            raise SecurityViolation(
                f"swap-out: {vaddr:#x} is not resident ghost memory")
        page = self.machine.phys.read(frame * PAGE_SIZE, PAGE_SIZE)
        blob = self.swap.protect_page(pid, page_vaddr, page)
        self.mmu_unmap_page(root, page_vaddr, from_os=False)
        self.machine.phys.zero_frame(frame)
        self.clock.charge("zero_page")
        self.policy.declassify_frame(frame)
        if self.config.dma_protection:
            self.machine.iommu.allow_frame(frame)
        if self.frame_source is not None:
            self.frame_source.reclaim_frame(frame)
        partition.swapped[page_vaddr] = blob[-32:]   # MAC tag, diagnostics
        return blob

    def swap_in_ghost(self, pid: int, root: int, vaddr: int,
                      blob: bytes) -> None:
        """OS returns a swapped page; verify and restore it."""
        if self.observer.enabled:
            self.observer.trace("ghost.swap_in",
                                f"pid={pid} vaddr={page_of(vaddr):#x}")
        self.clock.charge("sva_dispatch")
        partition = self.ghosts.partition(pid)
        page_vaddr = page_of(vaddr)
        if page_vaddr not in partition.swapped:
            raise SecurityViolation(
                f"swap-in: {vaddr:#x} was never swapped out")
        page = self.swap.recover_page(pid, page_vaddr, blob)
        frame = self._require_frames(1)[0]
        if not self.policy.is_unmapped_everywhere(frame):
            raise SecurityViolation(
                f"swap-in: OS donated mapped frame {frame:#x}")
        self.machine.phys.write(frame * PAGE_SIZE, page)
        self.clock.charge("copy_per_word", PAGE_SIZE // 8)
        self.policy.classify_frame(frame, FrameKind.GHOST)
        if self.config.dma_protection:
            self.machine.iommu.deny_frame(frame)
        self.mmu_map_page(root, page_vaddr, frame, writable=True,
                          user=True, from_os=False)
        partition.pages[page_vaddr] = frame
        del partition.swapped[page_vaddr]

    # ==================================================================
    # checked port I/O (sva.io.*)
    # ==================================================================

    def io_read(self, port: int) -> int:
        return self.machine.ports.read(port)

    def io_write(self, port: int, value: int) -> None:
        """Refuses kernel writes that would reconfigure the IOMMU."""
        if (self.config.dma_protection
                and self.machine.ports.owner(port) == "iommu"):
            raise SecurityViolation(
                f"sva.io.write: kernel attempted to reconfigure the IOMMU "
                f"(port {port:#x})")
        self.machine.ports.write(port, value)

    # ==================================================================
    # kernel-memory helpers (VM-internal; used for kernel-stack ICs)
    # ==================================================================

    def _write_kernel(self, vaddr: int, data: bytes) -> None:
        for offset in range(0, len(data), PAGE_SIZE):
            chunk = data[offset:offset + PAGE_SIZE]
            paddr = self.machine.mmu.translate(vaddr + offset, write=True)
            self.machine.phys.write(paddr, chunk)

    def _read_kernel(self, vaddr: int, length: int) -> bytes:
        out = bytearray()
        offset = 0
        while offset < length:
            chunk = min(length - offset, PAGE_SIZE)
            paddr = self.machine.mmu.translate(vaddr + offset)
            out += self.machine.phys.read(paddr, chunk)
            offset += chunk
        return bytes(out)
