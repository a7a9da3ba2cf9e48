"""Process churn: ghost slots wrap at the pid limit, and the frames a
dead process leaves behind (page tables, kernel stacks) come back when
the free list runs dry."""

import pytest

from repro.core.config import VGConfig
from repro.core.layout import GHOST_SLOTS, GHOST_START
from repro.core.mmu_policy import FrameKind
from repro.errors import KernelError, SecurityViolation, SyscallError
from repro.faults import FaultPlan, FaultSpec
from repro.hardware.memory import PAGE_SIZE
from repro.hardware.mmu import PTE_PRESENT, pte_frame
from repro.kernel.memory import (KSTACK_PAGES, MAP_ANON, PROT_READ,
                                 PROT_WRITE, FrameAllocator)
from repro.system import System

from tests.conftest import ScriptProgram


def _ghost_body(env, program):
    addr = env.allocgm(2)
    env.mem_write(addr, b"ghost secret")
    program.addrs[env.proc.pid] = addr
    yield from env.sys_exit(0)


def _ghost_program():
    program = ScriptProgram(_ghost_body)
    program.addrs = {}
    return program


def _spawn_and_exit(system, path="/bin/g"):
    proc = system.spawn(path)
    assert system.run_until_exit(proc) == 0
    return proc


# -- ghost slots wrap at the pid limit ----------------------------------------

def test_ghost_slot_of_low_pids_is_unchanged():
    system = System.create(VGConfig.virtual_ghost())
    program = _ghost_program()
    system.install("/bin/g", program)
    for _ in range(5):
        _spawn_and_exit(system)
    assert program.addrs[5] == 0xFFFF_FF00_5000_0000
    assert program.addrs[1] == GHOST_START + 0x1000_0000


def test_ghost_allocation_works_past_pid_2048():
    assert GHOST_SLOTS == 2048
    system = System.create(VGConfig.virtual_ghost())
    program = _ghost_program()
    system.install("/bin/g", program)
    system.kernel._next_pid = 2046
    for _ in range(5):                       # pids 2046 .. 2050
        _spawn_and_exit(system)
    assert sorted(program.addrs) == [2046, 2047, 2048, 2049, 2050]
    assert program.addrs[2047] == 0xFFFF_FF7F_F000_0000
    assert program.addrs[2048] == GHOST_START
    assert program.addrs[2050] == GHOST_START + 2 * 0x1000_0000


def test_forked_child_past_pid_2048_gets_a_wrapped_slot():
    system = System.create(VGConfig.virtual_ghost())

    def parent(env, program):
        child = yield from env.sys_fork()
        yield from env.sys_wait4(child)
        program.child = child
        yield from env.sys_exit(0)

    def child(env, program):
        program.child_addr = env.allocgm(1)
        yield from env.sys_exit(0)

    program = ScriptProgram(parent, child)
    system.install("/bin/f", program)
    system.kernel._next_pid = 2047
    _spawn_and_exit(system, "/bin/f")
    assert program.child == 2048
    assert program.child_addr == GHOST_START


# -- the allocator's reclaim hook ---------------------------------------------

def test_allocator_reclaims_before_panicking():
    allocator = FrameAllocator(4)
    held = allocator.alloc_many(3)
    allocator.reclaim = lambda: allocator.free(held.pop())
    assert allocator.alloc() in (1, 2, 3)
    assert allocator.reclaims == 1


def test_allocator_panics_when_reclaim_frees_nothing():
    calls = []
    allocator = FrameAllocator(2, reclaim=lambda: calls.append(1))
    allocator.alloc()
    with pytest.raises(KernelError, match="out of physical memory"):
        allocator.alloc()
    assert calls == [1] and allocator.reclaims == 0


def test_injected_enomem_never_reclaims():
    calls = []
    plan = FaultPlan(b"nomem", {"kernel.frame_alloc": FaultSpec(rate=1.0)})
    allocator = FrameAllocator(2, faults=plan,
                               reclaim=lambda: calls.append(1))
    for _ in range(3):
        with pytest.raises(SyscallError, match="ENOMEM"):
            allocator.alloc()
    assert calls == [] and allocator.reclaims == 0


# -- churn on a small machine -------------------------------------------------

def test_spawn_exit_churn_outlives_installed_memory():
    """Spawn and exit ghost programs until the dead ones have left more
    frames behind than the machine has: it must keep going."""
    system = System.create(VGConfig.virtual_ghost(), memory_mb=16)
    system.install("/bin/g", _ghost_program())
    frames = system.kernel.vmm.frames
    _spawn_and_exit(system)               # first run also grows kernel tables
    outstanding = frames.allocs - frames.frees
    _spawn_and_exit(system)
    retired_each = frames.allocs - frames.frees - outstanding
    assert retired_each == 1 + 3 + KSTACK_PAGES   # root, L3-L1, stack
    runs = frames.total // retired_each + 20
    for _ in range(runs):
        _spawn_and_exit(system)
    assert runs * retired_each > frames.total
    assert frames.reclaims >= 1


def _ghost_holder(env, program):
    """Allocate ghost pages, then block in accept() for good."""
    addr = env.allocgm(3)
    for index in range(3):
        env.mem_write(addr + index * PAGE_SIZE, b"held %d" % index)
    listen_fd = yield from env.sys_listen(7070)
    yield from env.sys_accept(listen_fd)


def _spawn_holder(system):
    system.install("/bin/holder", ScriptProgram(_ghost_holder))
    live = system.spawn("/bin/holder")
    system.run()
    assert not live.is_zombie
    system.kernel.vm.mmu_load_root(system.kernel.kernel_root)
    return live


def _exhaust(system, budget=100_000):
    """Allocate frames until a reclaim pass has run; returns them."""
    frames = system.kernel.vmm.frames
    before = frames.reclaims
    taken = []
    while frames.reclaims == before:
        taken.append(frames.alloc())
        assert len(taken) < budget
    return taken


def test_reclaim_leaves_machine_state_clean():
    system = System.create(VGConfig.virtual_ghost(), memory_mb=16)
    kernel, vm = system.kernel, system.kernel.vm
    phys, policy, iommu = system.machine.phys, vm.policy, system.machine.iommu
    live = _spawn_holder(system)

    system.install("/bin/g", _ghost_program())
    for _ in range(10):
        _spawn_and_exit(system)
    vm.mmu_load_root(kernel.kernel_root)
    assert len(kernel.vmm.retired) == 10
    tables, stacks = [], []
    for root, kstacks in kernel.vmm.retired:
        tables += vm._root_tables[root]
        for base in kstacks:
            stacks += [policy.frame_at(kernel.kernel_root,
                                       base + i * PAGE_SIZE)
                       for i in range(KSTACK_PAGES)]
    doomed = set(tables + stacks)
    assert len(doomed) == 10 * (4 + KSTACK_PAGES)
    for frame in tables:
        assert policy.frame_kind(frame) == FrameKind.PAGE_TABLE

    ghost_pages = dict(vm.ghosts.partition(live.pid).pages)
    live_tables = list(vm._root_tables[live.aspace.root])
    root = kernel.kernel_root
    shared = {i: phys.read_word(root + i * 8) for i in range(256, 510)}

    taken = set(_exhaust(system))

    assert kernel.vmm.retired == []
    for frame in doomed:
        assert policy.frame_kind(frame) == FrameKind.ORDINARY
        assert policy.is_unmapped_everywhere(frame)
        assert not iommu.is_denied(frame)
    for frame in set(tables) - taken:
        assert phys.read(frame * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
    # the live ghost process is untouched
    assert vm.ghosts.partition(live.pid).pages == ghost_pages
    for index, (vaddr, frame) in enumerate(sorted(ghost_pages.items())):
        assert frame not in doomed
        assert policy.frame_kind(frame) == FrameKind.GHOST
        assert iommu.is_denied(frame)
        assert phys.read(frame * PAGE_SIZE, 6) == b"held %d" % index
        assert policy.frame_at(live.aspace.root, vaddr) == frame
    for frame in live_tables:
        assert frame not in doomed
        assert policy.frame_kind(frame) == FrameKind.PAGE_TABLE
    # the kernel's shared L4 entries, and the tables behind them, stay
    for index, word in shared.items():
        assert phys.read_word(root + index * 8) == word
        assert phys.read_word(live.aspace.root + index * 8) == word
        if word & PTE_PRESENT:
            assert pte_frame(word) not in doomed
            assert policy.frame_kind(pte_frame(word)) == FrameKind.PAGE_TABLE


def test_root_loaded_in_cr3_waits_for_a_later_pass():
    system = System.create(VGConfig.virtual_ghost(), memory_mb=16)
    kernel = system.kernel
    aspace = kernel.vmm.new_address_space()
    kernel.vm.mmu_load_root(aspace.root)
    kernel.vmm.retire(aspace.root, [])
    kernel.vmm.reclaim_retired()
    assert kernel.vmm.retired == [(aspace.root, [])]
    kernel.vm.mmu_load_root(kernel.kernel_root)
    kernel.vmm.reclaim_retired()
    assert kernel.vmm.retired == []


# -- sva.mmu.release_root refuses live roots ----------------------------------

def test_release_root_refuses_kernel_current_and_live_roots():
    system = System.create(VGConfig.virtual_ghost())
    kernel, vm = system.kernel, system.kernel.vm
    with pytest.raises(SecurityViolation, match="not a process root"):
        vm.mmu_release_root(kernel.kernel_root)
    with pytest.raises(SecurityViolation, match="not a process root"):
        vm.mmu_release_root(0x1234_5000)

    aspace = kernel.vmm.new_address_space()
    vm.mmu_load_root(aspace.root)
    with pytest.raises(SecurityViolation, match="cr3"):
        vm.mmu_release_root(aspace.root)
    vm.mmu_load_root(kernel.kernel_root)

    start = kernel.vmm.mmap(aspace, 0, PAGE_SIZE, PROT_READ | PROT_WRITE,
                            MAP_ANON)
    kernel.vmm.handle_fault(aspace, start, write=True)
    with pytest.raises(SecurityViolation, match="still maps"):
        vm.mmu_release_root(aspace.root)

    kernel.vmm.destroy_address_space(aspace)
    available = kernel.vmm.frames.available
    tables = len(vm._root_tables[aspace.root])
    vm.mmu_release_root(aspace.root)
    assert kernel.vmm.frames.available == available + tables
    with pytest.raises(SecurityViolation, match="not a process root"):
        vm.mmu_release_root(aspace.root)


def test_release_root_refuses_a_ghost_process_root():
    system = System.create(VGConfig.virtual_ghost())
    live = _spawn_holder(system)
    with pytest.raises(SecurityViolation, match="still maps"):
        system.kernel.vm.mmu_release_root(live.aspace.root)
