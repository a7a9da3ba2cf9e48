"""The kernel proper: boot, scheduling, process lifecycle, module hooks.

One :class:`Kernel` instance runs on one :class:`~repro.core.vm.SVAVM`
(which runs on one :class:`~repro.hardware.platform.Machine`). The same
kernel code serves both configurations; ``VGConfig.native()`` reproduces
the paper's baseline.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.core.config import VGConfig
from repro.core.icontext import InterruptContext, TrapKind
from repro.core.keymgmt import SignedExecutable
from repro.core.layout import USER_END, ghost_slot_base
from repro.core.vm import SVAVM
from repro.errors import (KernelError, SecurityViolation, SyscallError,
                          TranslationFault)
from repro.hardware.cpu import SYSCALL_ARG_REGS
from repro.hardware.memory import PAGE_SIZE
from repro.hardware.platform import Machine
from repro.kernel.blocking import WouldBlock, wait_channel
from repro.kernel.context import KernelContext
from repro.kernel.devfs import DevFS
from repro.kernel.memory import (KSTACK_PAGES, MAP_ANON, PROT_READ,
                                 PROT_WRITE, VirtualMemoryManager, VMRegion)
from repro.kernel.modules import ModuleLoader
from repro.kernel.net.stack import NetworkStack
from repro.kernel.proc import (Process, Program, SyscallRequest, Thread,
                               ThreadState)
from repro.kernel.signals import SignalSubsystem
from repro.kernel.simplefs import SimpleFS
from repro.kernel.swapstore import GhostSwapStore
from repro.kernel.syscalls import dispatch as syscall_dispatch
from repro.kernel.syscalls.table import (SYSCALL_NAMES, ExecImage,
                                         ProcessExited)
from repro.kernel.vfs import VFS

if TYPE_CHECKING:
    pass

#: Fixed location of the user stack region (top 64 pages of user space).
USER_STACK_TOP = USER_END - PAGE_SIZE
USER_STACK_PAGES = 64

#: Syscalls per scheduling slice before rotating to the next thread.
QUANTUM_SYSCALLS = 64


class Scheduler:
    """Round-robin over runnable threads, with wait channels."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.runqueue: deque[Thread] = deque()
        self._blocked: dict[object, list[Thread]] = {}
        #: tid -> (absolute deadline cycles, thread) for timed sleeps
        self._deadlines: dict[int, tuple[int, Thread]] = {}
        self._yield_requested: set[int] = set()
        self.switches = 0

    def add(self, thread: Thread) -> None:
        thread.state = ThreadState.RUNNABLE
        self.runqueue.append(thread)

    def park(self, thread: Thread, channel: object,
             deadline: int | None = None) -> None:
        thread.state = ThreadState.BLOCKED
        thread.blocked_on = channel
        self._blocked.setdefault(channel, []).append(thread)
        if deadline is not None:
            self._deadlines[thread.tid] = (deadline, thread)

    def wake(self, channel: object) -> None:
        """Wake sleepers on a channel (plus all blocked selects)."""
        for waiting_channel in [channel] + [
                c for c in self._blocked
                if isinstance(c, tuple) and c and c[0] == "select"]:
            for thread in self._blocked.pop(waiting_channel, []):
                if thread.state == ThreadState.BLOCKED:
                    thread.state = ThreadState.RUNNABLE
                    thread.blocked_on = None
                    self._deadlines.pop(thread.tid, None)
                    self.runqueue.append(thread)

    def wake_thread(self, thread: Thread) -> None:
        if thread.state == ThreadState.BLOCKED:
            channel = thread.blocked_on
            if channel in self._blocked:
                waiters = self._blocked[channel]
                if thread in waiters:
                    waiters.remove(thread)
                if not waiters:
                    del self._blocked[channel]
            thread.state = ThreadState.RUNNABLE
            thread.blocked_on = None
            self._deadlines.pop(thread.tid, None)
            self.runqueue.append(thread)

    def discard(self, thread: Thread) -> None:
        """Remove a dying thread from every wait structure.

        Without this, a process killed while blocked leaves its thread
        in ``_blocked`` forever (a leaked sleeper) and a later ``wake``
        on the channel touches a reaped thread.
        """
        channel = thread.blocked_on
        if channel is not None:
            waiters = self._blocked.get(channel)
            if waiters is not None:
                if thread in waiters:
                    waiters.remove(thread)
                if not waiters:
                    del self._blocked[channel]
        thread.blocked_on = None
        thread.restart_request = None
        thread.wait_timed_out = False
        self._deadlines.pop(thread.tid, None)
        self._yield_requested.discard(thread.tid)

    def _fire_earliest_deadline(self) -> bool:
        """Nothing runnable: advance time to the earliest timed sleeper.

        Charges the skipped idle cycles as ``timer_wait`` (exact
        simulated waiting time), flags the thread's wait as timed out,
        and wakes it so its restarted syscall can return ETIMEDOUT.
        Ties break on tid for determinism.
        """
        if not self._deadlines:
            return False
        tid = min(self._deadlines,
                  key=lambda t: (self._deadlines[t][0], t))
        deadline, thread = self._deadlines.pop(tid)
        clock = self.kernel.ctx.clock
        clock.charge("timer_wait", max(0, deadline - clock.cycles))
        thread.wait_timed_out = True
        resilience = self.kernel.machine.resilience
        if resilience.enabled:
            resilience.deadline_misses += 1
        self.wake_thread(thread)
        return True

    def request_yield(self, thread: Thread) -> None:
        self._yield_requested.add(thread.tid)

    @property
    def has_runnable(self) -> bool:
        return bool(self.runqueue)

    @property
    def blocked_channels(self) -> list[object]:
        return list(self._blocked)

    def run(self, *, until: Callable[[], bool] | None = None,
            max_slices: int = 1_000_000) -> None:
        """Drive threads until nothing is runnable or ``until()`` is true.

        When the runqueue drains but timed sleepers remain, simulated
        time jumps to the earliest deadline and that sleeper is woken
        with its wait flagged as timed out (there is nothing else the
        machine could do with those cycles).
        """
        slices = 0
        while self.runqueue or self._deadlines:
            if until is not None and until():
                return
            if not self.runqueue:
                if not self._fire_earliest_deadline():
                    return
                continue
            slices += 1
            if slices > max_slices:
                raise KernelError("scheduler slice limit exceeded")
            thread = self.runqueue.popleft()
            if thread.state != ThreadState.RUNNABLE:
                continue
            self._run_slice(thread)

    def _run_slice(self, thread: Thread) -> None:
        kernel = self.kernel
        kernel.switch_to(thread)
        self.switches += 1
        thread.state = ThreadState.RUNNING

        for _ in range(QUANTUM_SYSCALLS):
            if thread.tid in self._yield_requested:
                self._yield_requested.discard(thread.tid)
                break
            if thread.state != ThreadState.RUNNING:
                return
            if thread.restart_request is not None:
                request = thread.restart_request
                thread.restart_request = None
                if not kernel.execute_syscall(thread, request):
                    return          # blocked again or exited
                continue
            # resume the user program
            try:
                value = thread.pending
                thread.pending = None
                request = thread.active_gen.send(value)
            except StopIteration as stop:
                if thread.in_signal_handler:
                    kernel.finish_signal_handler(thread)
                    continue
                kernel.terminate_process(
                    thread.proc,
                    stop.value if isinstance(stop.value, int) else 0)
                return
            except (SyscallError, SecurityViolation) as exc:
                # A defined fault escaped the user program -- e.g. an
                # injected transient ENOMEM raised straight out of an
                # SVA instruction such as allocgm, which (unlike a
                # syscall) is a direct call and is not translated by
                # the dispatcher.  The hardware analogue is a fatal
                # trap: the process dies; the machine and every other
                # process keep running.
                kernel.user_faults += 1
                kernel.machine.faults.log.note(
                    "kernel.user_fault", type(exc).__name__,
                    f"pid {thread.proc.pid}: {exc}")
                kernel.terminate_process(thread.proc, 128 + 11)
                return
            if not isinstance(request, SyscallRequest):
                raise KernelError(
                    f"user program yielded {request!r}, expected a "
                    f"SyscallRequest")
            if not kernel.execute_syscall(thread, request):
                return              # blocked or process gone
        if thread.state == ThreadState.RUNNING:
            thread.state = ThreadState.RUNNABLE
            self.runqueue.append(thread)


class Kernel:
    """A booted OS instance."""

    def __init__(self, machine: Machine, config: VGConfig | None = None,
                 *, interp_limits=None):
        self.machine = machine
        self.config = config or VGConfig.virtual_ghost()
        self.vm = SVAVM(machine, self.config)
        self.ctx = KernelContext(machine, self.config)
        #: Default ExecutionLimits for kernel-module interpreters (None =
        #: interpreter defaults); per-load ``limits=`` still wins.
        self.interp_limits = interp_limits

        self.kernel_root = 0
        self.vmm: VirtualMemoryManager | None = None
        self.vfs = VFS(self.ctx)
        self.fs: SimpleFS | None = None
        self.devfs: DevFS | None = None
        self.net = NetworkStack(self)
        self.signals = SignalSubsystem(self)
        self.scheduler = Scheduler(self)
        self.loader = ModuleLoader(self)
        self.swapper = GhostSwapStore(self)
        #: The machine's resilience engine (NO_RESILIENCE when disabled).
        self.resilience = machine.resilience
        #: Process supervisor (restart policies); only with resilience on.
        self.supervisor = None
        if self.resilience.enabled:
            from repro.resilience.supervisor import Supervisor
            self.supervisor = Supervisor(self, self.resilience)
        #: fd teardown failures survived during process exit (see
        #: terminate_process); also noted in the machine's fault log.
        self.close_failures = 0
        #: processes killed by a defined fault escaping their program
        #: (Scheduler._run_slice); each is noted in the fault log.
        self.user_faults = 0

        self.processes: dict[int, Process] = {}
        self.threads: dict[int, Thread] = {}
        self._next_pid = 1
        self._next_tid = 1
        self.current_thread: Thread | None = None
        self.syscall_hooks: dict[int, tuple] = {}
        #: path -> (SignedExecutable, Program, entry_addr)
        self.exec_registry: dict[str, tuple[SignedExecutable, Program,
                                            int]] = {}
        #: shellcode signature -> payload factory(proc, addr) -> generator
        #: fn. Binds *behaviour* to injected bytes: whenever registered
        #: bytes are copied into a process and later gain control, the
        #: factory's generator runs as that process (simulation glue for
        #: attacker machine code; see repro.attacks.rootkit).
        self.shellcode_registry: dict[bytes, Callable] = {}
        self._next_entry = 0x0000_0000_0040_0000
        self.thread_start_entry = 0
        self.booted = False

    # ==================================================================
    # boot
    # ==================================================================

    def boot(self, *, format_disk: bool = True) -> None:
        """Bring the system up: MMU root, VM wiring, filesystems."""
        if self.booted:
            raise KernelError("already booted")
        self.vmm = VirtualMemoryManager(self)
        self.vm.attach_frame_source(self.vmm)
        self.ctx.port.fault_in = self._copy_fault_in
        self.kernel_root = self.vm.boot_kernel_root()
        self.thread_start_entry = self.vm.register_kernel_entry()

        self.fs = SimpleFS(self.machine.disk, self.ctx)
        if format_disk:
            self.fs.mkfs()
        root_vnode = self.fs.mount()
        self.vfs.mount_root(root_vnode)
        self.devfs = DevFS(self.machine.console,
                           seed=self.machine.config.serial)
        self.vfs.mount("/dev", self.devfs)
        self._register_gauges()
        self.booted = True

    def _register_gauges(self) -> None:
        """Surface kernel subsystem counters through ``machine.metrics``.

        Gauge re-registration replaces the source, so a second kernel
        booted on the same machine simply rebinds them.
        """
        metrics = self.machine.metrics
        metrics.gauge("sched.switches", lambda: self.scheduler.switches)
        metrics.gauge("kernel.close_failures", lambda: self.close_failures)
        metrics.gauge("kernel.user_faults", lambda: self.user_faults)
        metrics.gauge("vm.page_faults", lambda: self.vmm.page_faults)
        metrics.gauge("vm.pages_swapped_out",
                      lambda: self.vmm.pages_swapped_out)
        metrics.gauge("vm.frames_available",
                      lambda: self.vmm.frames.available)
        metrics.gauge("vm.frame_allocs", lambda: self.vmm.frames.allocs)
        metrics.gauge("vm.frame_frees", lambda: self.vmm.frames.frees)
        metrics.gauge("vm.frame_alloc_denied",
                      lambda: self.vmm.frames.denied)
        metrics.gauge("fs.cache.hits", lambda: self.fs.cache.hits)
        metrics.gauge("fs.cache.misses", lambda: self.fs.cache.misses)
        metrics.gauge("fs.cache.io_errors", lambda: self.fs.cache.io_errors)
        metrics.gauge("swap.store.swapped_out",
                      lambda: self.swapper.swapped_out)
        metrics.gauge("swap.store.swapped_in",
                      lambda: self.swapper.swapped_in)
        metrics.gauge("swap.store.lost", lambda: self.swapper.lost)
        metrics.gauge("swap.store.rejected", lambda: self.swapper.rejected)
        metrics.gauge("swap.store.held", lambda: len(self.swapper))
        if self.resilience.enabled and self.machine.faults.injects_anything:
            # Degradation counters are surfaced only when faults can
            # actually fire: registering them eagerly would grow the
            # metric snapshots embedded in BENCH_*.json and break the
            # resilience layer's free-when-idle bit-identity.
            self.resilience.register_gauges(metrics)

    # ==================================================================
    # program installation & process creation
    # ==================================================================

    def install_executable(self, path: str, program: Program,
                           exe: SignedExecutable) -> None:
        """Register an installed application (trusted-admin action)."""
        entry = self._next_entry
        self._next_entry += 0x0001_0000
        self.exec_registry[path] = (exe, program, entry)

    def spawn(self, path: str, *, argv: tuple = ()) -> Process:
        """Create a new process running an installed executable."""
        if not self.booted:
            raise KernelError("kernel not booted")
        entry_info = self.exec_registry.get(path)
        if entry_info is None:
            raise KernelError(f"no executable installed at {path!r}")
        exe, program, entry = entry_info

        aspace = self.vmm.new_address_space()
        pid = self._next_pid
        self._next_pid += 1
        proc = Process(pid=pid, ppid=0, name=exe.name, aspace=aspace,
                       exe=exe, program=program)
        proc.ghost_cursor = ghost_slot_base(pid)
        self._add_stack_region(proc)
        self.processes[pid] = proc

        thread = None
        try:
            thread = self._create_thread(proc)
            proc.loaded = self.vm.validate_exec(pid, exe, entry)
        except (SecurityViolation, SyscallError):
            # refused at startup (or transient ENOMEM while building the
            # thread): unwind the half-created process
            self.vmm.destroy_address_space(proc.aspace)
            self.processes.pop(pid, None)
            if thread is not None:
                self.vm.retire_thread(thread.tid)
                self.threads.pop(thread.tid, None)
            self._retire(proc)
            raise
        thread.uregs.rip = entry
        thread.uregs.set("rsp", USER_STACK_TOP)

        env = self.make_env(proc, thread, argv=argv)
        proc.main_env = env          # type: ignore[attr-defined]
        thread.gen_stack = [program.main(env)]
        self.scheduler.add(thread)
        return proc

    def _create_thread(self, proc: Process) -> Thread:
        tid = self._next_tid
        self._next_tid += 1
        thread = Thread(tid=tid, proc=proc)
        kstack_base = self.vmm.kalloc_stack()
        thread.kstack_top = kstack_base + KSTACK_PAGES * PAGE_SIZE
        proc.threads.append(thread)
        self.threads[tid] = thread
        self.vm.register_thread(tid, proc.pid)
        self.vm.set_kstack_ic_addr(
            tid, thread.kstack_top - 2 * InterruptContext.SERIALIZED_SIZE)
        return thread

    def _add_stack_region(self, proc: Process) -> None:
        stack_bottom = USER_STACK_TOP - USER_STACK_PAGES * PAGE_SIZE
        proc.aspace.regions.append(VMRegion(
            start=stack_bottom, end=USER_STACK_TOP + PAGE_SIZE,
            prot=PROT_READ | PROT_WRITE, kind=MAP_ANON, name="stack"))

    def make_env(self, proc: Process, thread: Thread, *, argv: tuple = ()):
        from repro.userland.libc import UserEnv
        return UserEnv(self, proc, thread, argv=argv)

    # ==================================================================
    # fork & exec
    # ==================================================================

    def do_fork(self, parent_thread: Thread) -> Process:
        parent = parent_thread.proc
        aspace = self.vmm.clone_address_space(parent.aspace)
        pid = self._next_pid
        self._next_pid += 1
        child = Process(pid=pid, ppid=parent.pid, name=parent.name,
                        aspace=aspace, exe=parent.exe,
                        program=parent.program)
        child.ghost_cursor = ghost_slot_base(pid)
        child.signal_handlers = dict(parent.signal_handlers)
        child.handler_fns = dict(parent.handler_fns)
        child.injected_code = dict(parent.injected_code)
        child.code_cursor = parent.code_cursor
        for fd, open_file in parent.fds.items():
            open_file.refcount += 1
            child.fds[fd] = open_file
        child.next_fd = parent.next_fd
        parent.children[pid] = child
        self.processes[pid] = child

        thread = self._create_thread(child)
        self.vm.newstate(parent_thread.tid, thread.tid, pid,
                         self.thread_start_entry)
        self.vm.inherit_program(parent.pid, pid)
        child.loaded = parent.loaded
        thread.uregs = parent_thread.uregs.copy()

        env = self.make_env(child, thread)
        child.main_env = env         # type: ignore[attr-defined]
        thread.gen_stack = [child.program.child_main(env)]
        self.scheduler.add(thread)
        # proc-table entry, pid allocation, credential copy, fd loop,
        # vm-map entry duplication, pmap setup
        self.ctx.work(mem=5200 + 20 * len(child.fds), ops=2600, rets=90,
                      icalls=24)
        return child

    def do_exec(self, thread: Thread, path: str, args: tuple) -> ExecImage:
        entry_info = self.exec_registry.get(path)
        if entry_info is None:
            raise SyscallError("ENOENT", f"no executable {path!r}")
        exe, program, entry = entry_info
        proc = thread.proc

        try:
            proc.loaded = self.vm.validate_exec(proc.pid, exe, entry)
        except SecurityViolation as exc:
            raise SyscallError("EACCES", str(exc)) from exc

        # tear down the old image
        old_root = proc.aspace.root
        self.vmm.destroy_address_space(proc.aspace)
        proc.aspace = self.vmm.new_address_space()
        self._add_stack_region(proc)
        proc.signal_handlers.clear()
        proc.handler_fns.clear()
        proc.injected_code.clear()
        proc.name = exe.name
        proc.exe = exe
        proc.program = program

        self.vm.reinit_icontext(thread.tid, proc.pid, entry,
                                USER_STACK_TOP)
        self.vmm.retire(old_root, [])
        thread.uregs.rip = entry
        thread.uregs.set("rsp", USER_STACK_TOP)
        env = self.make_env(proc, thread, argv=args)
        proc.main_env = env          # type: ignore[attr-defined]
        # loading the image copies the binary into fresh pages -- bulk
        # work at native speed in both configurations
        self.ctx.clock.charge("copy_per_word", 16384)
        # image setup: argv copy, vm region setup, credential checks,
        # image activation and old-image teardown bookkeeping
        self.ctx.work(mem=9000, ops=3600, rets=120, icalls=30)
        return ExecImage(program)

    # ==================================================================
    # syscall execution (trap path)
    # ==================================================================

    def execute_syscall(self, thread: Thread,
                        request: SyscallRequest) -> bool:
        """Run one syscall through the full trap path.

        Returns True when the thread may continue running, False when it
        blocked or its process ended.
        """
        obs = self.machine.observer
        if not obs.enabled:
            return self._execute_syscall(thread, request)
        name = SYSCALL_NAMES.get(request.number, str(request.number))
        obs.trace("syscall.enter",
                  f"pid={thread.proc.pid} tid={thread.tid} name={name}")
        obs.push(f"syscall:{name}")
        try:
            return self._execute_syscall(thread, request)
        finally:
            obs.pop()
            obs.trace("syscall.exit",
                      f"pid={thread.proc.pid} tid={thread.tid} "
                      f"name={name}")

    def _execute_syscall(self, thread: Thread,
                         request: SyscallRequest) -> bool:
        proc = thread.proc
        self.current_thread = thread
        self._load_syscall_regs(thread, request)

        if proc.pending_signals:
            # A signal arrived while the thread was off the CPU (e.g.
            # blocked in this very syscall): deliver it first, then
            # restart the call -- BSD's interruptible-sleep semantics.
            self.vm.trap_enter(thread.tid, TrapKind.INTERRUPT,
                               thread.uregs)
            self.signals.deliver_pending(thread)
            if proc.is_zombie:
                return False
            ic = self.vm.trap_exit(thread.tid)
            if ic.pushed_handler is not None:
                return self._resume_user(thread, ic,
                                         ("restart", request))
            # disposition was ignore: fall through to the actual call

        self.vm.trap_enter(thread.tid, TrapKind.SYSCALL, thread.uregs)

        try:
            try:
                hook = self.syscall_hooks.get(request.number)
                if hook is not None and all(isinstance(a, int)
                                            for a in request.args):
                    module, function = hook
                    result = module.call(function, list(request.args))
                else:
                    result = syscall_dispatch(self, thread, request.number,
                                              request.args)
            finally:
                # A timed-out wake is consumed by exactly one handler
                # execution (which either returns ETIMEDOUT or found its
                # data after all); never leak the flag into a later,
                # unrelated sleep.
                thread.wait_timed_out = False
        except WouldBlock as blocked:
            self.vm.trap_exit(thread.tid)
            thread.restart_request = request
            self.scheduler.park(thread, blocked.channel,
                                deadline=blocked.deadline)
            return False
        except ProcessExited as exited:
            self.vm.trap_exit(thread.tid)
            self.terminate_process(proc, exited.status)
            return False

        if isinstance(result, ExecImage):
            self.vm.icontext_set_retval(thread.tid, 0)
            self.vm.trap_exit(thread.tid)
            # activate the fresh image's address space
            self.vm.mmu_load_root(proc.aspace.root)
            thread.gen_stack = [result.program.main(proc.main_env)]
            thread.pending_stack.clear()
            thread.pending = None
            return True

        self.vm.icontext_set_retval(thread.tid, int(result))
        self.signals.deliver_pending(thread)
        if proc.is_zombie:
            return False
        ic = self.vm.trap_exit(thread.tid)
        return self._resume_user(thread, ic, int(result))

    def _load_syscall_regs(self, thread: Thread,
                           request: SyscallRequest) -> None:
        regs = thread.uregs
        regs.set("rax", request.number)
        for reg_name, arg in zip(SYSCALL_ARG_REGS[1:], request.args):
            if isinstance(arg, int):
                regs.set(reg_name, arg & ((1 << 64) - 1))

    def _resume_user(self, thread: Thread, ic: InterruptContext,
                     result: int) -> bool:
        """Apply the (possibly kernel-modified) Interrupt Context."""
        proc = thread.proc
        if ic.pushed_handler is not None:
            handler_addr, handler_args = ic.pushed_handler
            self.vm.clear_pushed_handler(thread.tid)
            handler_fn = proc.code_at(handler_addr)
            if handler_fn is None:
                # Resuming into a non-code address: the process crashes.
                self.terminate_process(proc, 139)
                return False
            thread.pending_stack.append(result)
            thread.gen_stack.append(
                handler_fn(proc.main_env, *handler_args))
            thread.pending = None
            return True

        if (not self.config.secure_ic and ic.regs.rip != thread.uregs.rip
                and ic.regs.rip != 0):
            # Native baseline: the kernel rewrote the saved program
            # counter; the hardware will happily resume there. There is
            # no signal frame to return through -- mark the frame as a
            # raw hijack so its completion skips sigreturn.
            target = proc.code_at(ic.regs.rip)
            if target is None:
                self.terminate_process(proc, 139)
                return False
            thread.pending_stack.append(("hijack", result))
            thread.gen_stack.append(target(proc.main_env))
            thread.pending = None
            return True

        thread.pending = result
        return True

    def finish_signal_handler(self, thread: Thread) -> None:
        """Handler generator returned: run sigreturn and pop the frame.

        A frame entered through a raw PC rewrite (native-mode hijack)
        has no saved context; completion falls through without a
        sigreturn, as the hardware would."""
        is_hijack = (thread.pending_stack
                     and isinstance(thread.pending_stack[-1], tuple)
                     and thread.pending_stack[-1]
                     and thread.pending_stack[-1][0] == "hijack")
        self.current_thread = thread
        if not is_hijack:
            self.vm.trap_enter(thread.tid, TrapKind.SYSCALL,
                               thread.uregs)
            self.signals.sigreturn(thread)
            self.vm.trap_exit(thread.tid)
        thread.gen_stack.pop()
        resumed = (thread.pending_stack.pop()
                   if thread.pending_stack else None)
        if isinstance(resumed, tuple) and len(resumed) == 2 \
                and resumed[0] == "restart":
            thread.restart_request = resumed[1]
            thread.pending = None
        elif isinstance(resumed, tuple) and len(resumed) == 2 \
                and resumed[0] == "hijack":
            thread.pending = resumed[1]
        else:
            thread.pending = resumed

    # ==================================================================
    # process teardown
    # ==================================================================

    def terminate_process(self, proc: Process, status: int) -> None:
        if proc.is_zombie:
            return
        proc.exit_status = status
        for fd in list(proc.fds):
            from repro.kernel.syscalls.file import sys_close
            try:
                sys_close(self, proc.threads[0], fd)
            except SyscallError as exc:
                # A failed close must not leak the descriptor: log the
                # failure (observable in the fault log) and release the
                # fd-backed resource anyway -- the process is dying.
                self.close_failures += 1
                self.machine.faults.log.note(
                    "kernel.close", "teardown_failure",
                    f"pid {proc.pid} fd {fd}: {exc}")
                open_file = proc.fds.pop(fd, None)
                if open_file is not None:
                    open_file.refcount -= 1
        self.swapper.drop_process(proc.pid)
        self.vmm.destroy_address_space(proc.aspace)
        self.vm.process_exit(proc.pid)
        for thread in proc.threads:
            # A thread killed while blocked (in a retrying driver, an
            # ARQ wait, a timed sleep, ...) must leave no sleeper entry
            # behind: wait queues and deadline tables are scrubbed so no
            # later wakeup ever touches the reaped thread.
            self.scheduler.discard(thread)
            thread.state = ThreadState.ZOMBIE
            self.vm.retire_thread(thread.tid)
        self._retire(proc)
        # orphan children are re-parented to init (pid of first process)
        for child in proc.children.values():
            child.ppid = 0
        self.scheduler.wake(wait_channel(proc.ppid))
        self.ctx.work(mem=60, ops=110, rets=5)
        if proc.ppid == 0:
            self.release_zombie(proc)
            proc.reaped = True
        if self.supervisor is not None:
            self.supervisor.on_exit(proc, status)

    def _retire(self, proc: Process) -> None:
        """Hand a dead process's page tables and kernel stacks to the
        VMM, which frees them only when the free list runs dry."""
        self.vmm.retire(proc.aspace.root,
                        [thread.kstack_top - KSTACK_PAGES * PAGE_SIZE
                         for thread in proc.threads])

    def release_zombie(self, proc: Process) -> None:
        self.processes.pop(proc.pid, None)
        for thread in proc.threads:
            self.threads.pop(thread.tid, None)

    # ==================================================================
    # context switching + user memory helpers
    # ==================================================================

    def switch_to(self, thread: Thread) -> None:
        root = thread.proc.aspace.root
        if self.machine.cpu.cr3 != root:
            obs = self.machine.observer
            if obs.enabled:
                obs.trace("sched.switch",
                          f"pid={thread.proc.pid} tid={thread.tid}")
                obs.push("sched:switch")
                try:
                    self.vm.mmu_load_root(root)
                    self.ctx.work(mem=20, ops=35, rets=2)
                finally:
                    obs.pop()
            else:
                self.vm.mmu_load_root(root)
                self.ctx.work(mem=20, ops=35, rets=2)
        self.current_thread = thread

    def read_user(self, proc: Process, vaddr: int, length: int) -> bytes:
        """User-privilege read of a process's memory (demand-faulting).

        This is *application-side* access (used by UserEnv), not kernel
        access: no sandboxing applies, ghost pages are readable by their
        owner, and unmapped-but-valid regions fault pages in.
        """
        out = bytearray()
        cursor = vaddr
        remaining = length
        while remaining > 0:
            chunk = min(remaining, PAGE_SIZE - (cursor % PAGE_SIZE))
            paddr = self._user_translate(proc, cursor, write=False)
            out += self.machine.phys.read(paddr, chunk)
            cursor += chunk
            remaining -= chunk
        self.ctx.clock.charge("copy_per_word", max(1, (length + 7) // 8))
        return bytes(out)

    def write_user(self, proc: Process, vaddr: int, data: bytes) -> None:
        cursor = vaddr
        view = memoryview(data)
        while view.nbytes > 0:
            chunk = min(view.nbytes, PAGE_SIZE - (cursor % PAGE_SIZE))
            paddr = self._user_translate(proc, cursor, write=True)
            self.machine.phys.write(paddr, bytes(view[:chunk]))
            cursor += chunk
            view = view[chunk:]
        self.ctx.clock.charge("copy_per_word",
                              max(1, (len(data) + 7) // 8))

    def _copy_fault_in(self, vaddr: int, write: bool) -> bool:
        """copyin/copyout fault handler: materialize a user page.

        Only user-partition addresses of the current process are eligible;
        anything else (dead zone, unmapped kernel) stays a stray access.
        """
        from repro.core.layout import USER_END, USER_START
        if not USER_START <= vaddr < USER_END:
            return False
        thread = self.current_thread
        if thread is None:
            return False
        try:
            self.vmm.handle_fault(thread.proc.aspace, vaddr, write=write)
        except SyscallError:
            return False
        return True

    def _user_translate(self, proc: Process, vaddr: int, *,
                        write: bool) -> int:
        mmu = self.machine.mmu
        switched = False
        if mmu.root != proc.aspace.root:
            # Access on behalf of a non-current process (rootkit externs,
            # test drivers): walk that process's tables directly.
            saved_root = mmu.root
            mmu.root = proc.aspace.root
            switched = True
        try:
            try:
                return mmu.translate(vaddr, write=write, user=True)
            except TranslationFault:
                self.vmm.handle_fault(proc.aspace, vaddr, write=write)
                return mmu.translate(vaddr, write=write, user=True)
        finally:
            if switched:
                mmu.root = saved_root

    # ==================================================================
    # module externs (the kernel's exported symbol table)
    # ==================================================================

    def standard_externs(self) -> dict[str, Callable[[list[int]], int]]:
        kernel = self

        def klog(args: list[int]) -> int:
            ptr, length = args
            data = kernel.ctx.port.read_bytes(ptr, length)
            kernel.machine.console.write(
                "kernel: " + data.split(b"\x00")[0].decode("latin-1"))
            return 0

        def klog_hex(args: list[int]) -> int:
            kernel.machine.console.write(f"kernel: {args[0]:#018x}")
            return 0

        def cur_pid(args: list[int]) -> int:
            thread = kernel.current_thread
            return thread.proc.pid if thread else 0

        def orig_read(args: list[int]) -> int:
            from repro.kernel.syscalls.file import sys_read
            thread = kernel.current_thread
            if thread is None:
                raise KernelError("orig_read outside a syscall")
            try:
                return sys_read(kernel, thread, *args)
            except SyscallError:
                return -1

        def proc_mmap(args: list[int]) -> int:
            pid, length = args
            proc = kernel.processes.get(pid)
            if proc is None:
                return 0
            return kernel.vmm.mmap(proc.aspace, 0, length,
                                   PROT_READ | PROT_WRITE, MAP_ANON,
                                   name="rootkit")

        def copy_to_proc(args: list[int]) -> int:
            pid, dst, src, length = args
            proc = kernel.processes.get(pid)
            if proc is None:
                return -1
            data = kernel.ctx.port.read_bytes(src, length)
            kernel.write_user(proc, dst, data)
            for signature, factory in kernel.shellcode_registry.items():
                if data.startswith(signature):
                    proc.inject_code(dst, factory(proc, dst))
            return 0

        def set_sighandler(args: list[int]) -> int:
            pid, signum, addr = args
            proc = kernel.processes.get(pid)
            if proc is None:
                return -1
            proc.signal_handlers[signum] = addr
            return 0

        def send_signal(args: list[int]) -> int:
            pid, signum = args
            proc = kernel.processes.get(pid)
            if proc is None:
                return -1
            kernel.signals.post(proc, signum)
            return 0

        def open_into_proc(args: list[int]) -> int:
            pid, path_ptr, flags = args
            proc = kernel.processes.get(pid)
            if proc is None:
                return -1
            raw = kernel.ctx.port.read_bytes(path_ptr, 256)
            path = raw.split(b"\x00")[0].decode("latin-1")
            from repro.kernel.vfs import OpenFile, VnodeType
            try:
                vnode, _ = kernel.vfs.resolve(path)
            except SyscallError:
                parent, name = kernel.vfs.resolve(path, parent=True)
                vnode = parent.create(name, VnodeType.REGULAR)
            return proc.alloc_fd(OpenFile(vnode=vnode, flags=flags))

        return {
            "klog": klog,
            "klog_hex": klog_hex,
            "cur_pid": cur_pid,
            "orig_read": orig_read,
            "proc_mmap": proc_mmap,
            "copy_to_proc": copy_to_proc,
            "set_sighandler": set_sighandler,
            "send_signal": send_signal,
            "open_into_proc": open_into_proc,
        }

    # ==================================================================
    # convenience
    # ==================================================================

    def run(self, **kwargs) -> None:
        self.scheduler.run(**kwargs)

    def run_until_exit(self, proc: Process, max_slices: int = 1_000_000
                       ) -> int:
        self.scheduler.run(until=lambda: proc.is_zombie,
                           max_slices=max_slices)
        if not proc.is_zombie:
            raise KernelError(
                f"process {proc.pid} did not exit (blocked on "
                f"{self.scheduler.blocked_channels})")
        return proc.exit_status or 0
