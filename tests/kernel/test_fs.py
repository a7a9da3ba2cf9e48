"""SimpleFS, buffer cache, VFS, devfs, pipes."""

import pytest

from repro.core.config import VGConfig
from repro.errors import KernelError, SyscallError
from repro.hardware.clock import CycleClock
from repro.hardware.disk import Disk
from repro.hardware.platform import Machine, MachineConfig
from repro.kernel.context import KernelContext
from repro.kernel.pipe import PIPE_CAPACITY, make_pipe
from repro.kernel.simplefs import (BLOCK_SIZE, DIRENTS_PER_BLOCK,
                                   MAX_NAME, BufferCache, SimpleFS,
                                   SimpleFSVnode, NUM_DIRECT)
from repro.kernel.vfs import VnodeType
from repro.system import System


@pytest.fixture
def fs():
    machine = Machine(MachineConfig(disk_sectors=32768))   # 16 MiB
    ctx = KernelContext(machine, VGConfig.native())
    filesystem = SimpleFS(machine.disk, ctx)
    filesystem.mkfs(num_inodes=256)
    root = filesystem.mount()
    return filesystem, root


def test_mkfs_mount_roundtrip(fs):
    filesystem, root = fs
    assert root.vtype == VnodeType.DIRECTORY
    assert root.entries() == []


def test_mount_unformatted_disk_rejected():
    machine = Machine(MachineConfig())
    ctx = KernelContext(machine, VGConfig.native())
    with pytest.raises(KernelError, match="magic"):
        SimpleFS(machine.disk, ctx).mount()


def test_create_lookup_file(fs):
    filesystem, root = fs
    child = root.create("hello.txt", VnodeType.REGULAR)
    assert root.lookup("hello.txt") is child
    assert "hello.txt" in root.entries()


def test_duplicate_create_rejected(fs):
    _, root = fs
    root.create("x", VnodeType.REGULAR)
    with pytest.raises(SyscallError, match="EEXIST"):
        root.create("x", VnodeType.REGULAR)


def test_lookup_missing_rejected(fs):
    _, root = fs
    with pytest.raises(SyscallError, match="ENOENT"):
        root.lookup("ghost")


def test_write_read_small(fs):
    _, root = fs
    file = root.create("f", VnodeType.REGULAR)
    assert file.write(0, b"hello world") == 11
    assert file.size == 11
    assert file.read(0, 100) == b"hello world"
    assert file.read(6, 5) == b"world"
    assert file.read(100, 5) == b""


def test_write_read_multi_block(fs):
    _, root = fs
    file = root.create("big", VnodeType.REGULAR)
    payload = bytes(range(256)) * 64          # 16 KiB, 4 blocks
    file.write(0, payload)
    assert file.read(0, len(payload)) == payload
    assert file.read(BLOCK_SIZE - 10, 20) \
        == payload[BLOCK_SIZE - 10:BLOCK_SIZE + 10]


def test_write_beyond_direct_blocks_uses_indirect(fs):
    _, root = fs
    file = root.create("huge", VnodeType.REGULAR)
    size = (NUM_DIRECT + 4) * BLOCK_SIZE
    payload = b"ab" * (size // 2)
    file.write(0, payload)
    assert file.size == size
    assert file.read(NUM_DIRECT * BLOCK_SIZE, 16) == b"ab" * 8


def test_sparse_hole_reads_zero(fs):
    _, root = fs
    file = root.create("sparse", VnodeType.REGULAR)
    file.write(3 * BLOCK_SIZE, b"tail")
    assert file.read(0, 8) == bytes(8)
    assert file.read(3 * BLOCK_SIZE, 4) == b"tail"


def test_overwrite_in_place(fs):
    _, root = fs
    file = root.create("f", VnodeType.REGULAR)
    file.write(0, b"aaaaaaaa")
    file.write(2, b"BB")
    assert file.read(0, 8) == b"aaBBaaaa"


def test_truncate_frees_blocks(fs):
    filesystem, root = fs
    file = root.create("t", VnodeType.REGULAR)
    file.write(0, b"x" * (3 * BLOCK_SIZE))
    file.truncate(0)
    assert file.size == 0
    assert file.read(0, 10) == b""


def test_unlink_frees_inode_for_reuse(fs):
    filesystem, root = fs
    for round_number in range(5):
        file = root.create(f"cycle", VnodeType.REGULAR)
        file.write(0, b"data")
        root.unlink("cycle")
    assert root.entries() == []


def test_unlink_missing_rejected(fs):
    _, root = fs
    with pytest.raises(SyscallError, match="ENOENT"):
        root.unlink("nothing")


def test_directory_hierarchy(fs):
    _, root = fs
    sub = root.create("sub", VnodeType.DIRECTORY)
    inner = sub.create("inner.txt", VnodeType.REGULAR)
    inner.write(0, b"nested")
    assert root.lookup("sub").lookup("inner.txt").read(0, 6) == b"nested"


def test_persistence_across_remount(fs):
    filesystem, root = fs
    file = root.create("keep", VnodeType.REGULAR)
    file.write(0, b"durable data")
    filesystem.sync()
    # remount from the same disk
    refreshed = SimpleFS(filesystem.disk, filesystem.ctx)
    root2 = refreshed.mount()
    assert root2.lookup("keep").read(0, 12) == b"durable data"


def test_many_files_in_directory(fs):
    _, root = fs
    for index in range(100):
        root.create(f"file{index:03d}", VnodeType.REGULAR)
    assert len(root.entries()) == 100
    assert root.lookup("file057") is not None


# -- directory scan boundaries ----------------------------------------------------

#: past the direct pointers by half a block: 12 direct blocks + 1 indirect
_BIG_DIR = NUM_DIRECT * DIRENTS_PER_BLOCK + DIRENTS_PER_BLOCK // 2


def _fresh_fs(num_inodes: int = 1024):
    machine = Machine(MachineConfig(disk_sectors=32768))
    ctx = KernelContext(machine, VGConfig.native())
    filesystem = SimpleFS(machine.disk, ctx)
    filesystem.mkfs(num_inodes=num_inodes)
    return filesystem, filesystem.mount()


@pytest.fixture(scope="module")
def big_dir():
    """A directory whose slot ``i`` holds ``n{i}`` (read-only use)."""
    filesystem, root = _fresh_fs()
    children = [root.create(f"n{slot}", VnodeType.REGULAR).inode_number
                for slot in range(_BIG_DIR)]
    return filesystem, root, children


def _slot_of(root, name):
    inode = root.fs.read_inode(root.inode_number)
    entry = root._find_entry(inode, name)
    return None if entry is None else entry[0]


@pytest.mark.parametrize("slot", sorted(
    {edge for block in range(-(-_BIG_DIR // DIRENTS_PER_BLOCK))
     for edge in (block * DIRENTS_PER_BLOCK,
                  block * DIRENTS_PER_BLOCK + DIRENTS_PER_BLOCK - 1)
     if edge < _BIG_DIR} | {_BIG_DIR - 1}))
def test_lookup_first_and_last_slot_of_each_block(big_dir, slot):
    # includes 767/768, where scans cross from direct to indirect blocks
    _, root, children = big_dir
    assert root.lookup(f"n{slot}").inode_number == children[slot]
    assert _slot_of(root, f"n{slot}") == slot


def test_lookup_miss_examines_every_slot_once(big_dir, monkeypatch):
    filesystem, root, _ = big_dir
    examined = []
    decode = SimpleFSVnode.read_dirent

    def counting(self, block, slot):
        examined.append(slot)
        return decode(self, block, slot)

    monkeypatch.setattr(SimpleFSVnode, "read_dirent", counting)
    hits = filesystem.cache.hits
    with pytest.raises(SyscallError, match="ENOENT"):
        root.lookup("absent")
    assert examined == list(range(_BIG_DIR))
    # every block is resident: one hit for the directory's inode, one per
    # direct slot, two (indirect table + data) per slot past them
    direct = NUM_DIRECT * DIRENTS_PER_BLOCK
    assert filesystem.cache.hits - hits == (
        1 + direct + 2 * (_BIG_DIR - direct))


def test_create_reuses_lowest_tombstone_slot():
    _, root = _fresh_fs()
    for slot in range(2 * DIRENTS_PER_BLOCK + 2):
        root.create(f"n{slot}", VnodeType.REGULAR)
    size = root.size
    for slot in (100, 5, 70):
        root.unlink(f"n{slot}")
    for name, slot in (("a", 5), ("b", 70), ("c", 100)):
        root.create(name, VnodeType.REGULAR)
        assert _slot_of(root, name) == slot
    assert root.size == size
    root.create("d", VnodeType.REGULAR)
    assert _slot_of(root, "d") == 2 * DIRENTS_PER_BLOCK + 2
    assert root.size == size + 64


def test_entries_keep_slot_order_and_skip_tombstones():
    _, root = _fresh_fs()
    names = [f"n{slot}" for slot in range(DIRENTS_PER_BLOCK + 3)]
    for name in names:
        root.create(name, VnodeType.REGULAR)
    for name in ("n0", "n63", "n64", "n66"):
        root.unlink(name)
        names.remove(name)
    assert root.entries() == names
    root.create("z", VnodeType.REGULAR)       # lands in slot 0
    assert root.entries() == ["z"] + names


def test_all_tombstone_directory_lists_empty():
    _, root = _fresh_fs()
    for slot in range(3):
        root.create(f"n{slot}", VnodeType.REGULAR)
    for slot in range(3):
        root.unlink(f"n{slot}")
    assert root.entries() == []
    with pytest.raises(SyscallError, match="ENOENT"):
        root.lookup("n1")


# -- name length and directory unlink -------------------------------------------

def test_name_limit_is_in_utf8_bytes(fs):
    filesystem, root = fs
    fits = "é" * (MAX_NAME // 2)                  # 54 bytes
    child = root.create(fits, VnodeType.REGULAR)
    assert root.entries() == [fits]
    assert root.lookup(fits) is child
    with pytest.raises(SyscallError, match="ENAMETOOLONG"):
        root.create("é" * (MAX_NAME // 2 + 1), VnodeType.REGULAR)
    with pytest.raises(SyscallError, match="ENAMETOOLONG"):
        root.create("x" * (MAX_NAME + 1), VnodeType.REGULAR)
    assert root.entries() == [fits]
    filesystem.sync()                 # directory blocks stay block-sized


def test_unencodable_name_rejected(fs):
    _, root = fs
    with pytest.raises(SyscallError, match="EINVAL"):
        root.create("bad\ud800", VnodeType.REGULAR)
    assert root.entries() == []


def test_unlink_non_empty_directory_rejected(fs):
    filesystem, root = fs
    sub = root.create("d", VnodeType.DIRECTORY)
    inner = sub.create("x", VnodeType.REGULAR)
    with pytest.raises(SyscallError, match="ENOTEMPTY"):
        root.unlink("d")
    assert root.lookup("d") is sub
    assert sub.lookup("x") is inner
    assert inner.vtype == VnodeType.REGULAR
    sub.unlink("x")                    # only a tombstone left
    root.unlink("d")
    assert root.entries() == []


def test_out_of_inodes():
    machine = Machine(MachineConfig(disk_sectors=32768))
    ctx = KernelContext(machine, VGConfig.native())
    filesystem = SimpleFS(machine.disk, ctx)
    filesystem.mkfs(num_inodes=4)
    root = filesystem.mount()
    root.create("a", VnodeType.REGULAR)
    root.create("b", VnodeType.REGULAR)
    root.create("c", VnodeType.REGULAR)
    with pytest.raises(SyscallError, match="ENOSPC"):
        root.create("d", VnodeType.REGULAR)


def test_buffer_cache_hits_avoid_disk():
    clock = CycleClock()
    disk = Disk(1024, clock)
    machine = Machine(MachineConfig())
    ctx = KernelContext(machine, VGConfig.native())
    ctx.clock = clock  # route charges to the same clock as the disk
    cache = BufferCache(disk, ctx)
    cache.get(5)
    seeks = clock.counters["disk_seek"]
    cache.get(5)
    assert clock.counters["disk_seek"] == seeks
    assert cache.hits == 1 and cache.misses == 1


def test_buffer_cache_writeback_on_flush():
    clock = CycleClock()
    disk = Disk(1024, clock)
    machine = Machine(MachineConfig())
    ctx = KernelContext(machine, VGConfig.native())
    ctx.clock = clock
    cache = BufferCache(disk, ctx)
    block = cache.get(3)
    block[:5] = b"dirty"
    cache.mark_dirty(3)
    assert disk.read_sectors(3 * 8, 1)[:5] == bytes(5)   # not yet
    cache.flush()
    assert disk.read_sectors(3 * 8, 1)[:5] == b"dirty"


def test_buffer_cache_dirty_requires_cached():
    machine = Machine(MachineConfig())
    ctx = KernelContext(machine, VGConfig.native())
    cache = BufferCache(machine.disk, ctx)
    with pytest.raises(KernelError):
        cache.mark_dirty(99)


# -- devfs / VFS through System -------------------------------------------------

def test_devfs_nodes(native_system):
    devfs = native_system.kernel.devfs
    assert devfs.lookup("null").read(0, 10) == b""
    assert devfs.lookup("zero").read(0, 4) == bytes(4)
    assert devfs.lookup("null").write(0, b"x" * 100) == 100
    assert len(devfs.lookup("random").read(0, 16)) == 16
    assert "console" in devfs.entries()


def test_dev_console_writes_to_machine_console(native_system):
    devfs = native_system.kernel.devfs
    devfs.lookup("console").write(0, b"dmesg line")
    assert native_system.console.contains("dmesg line")


def test_vfs_resolves_mounts(native_system):
    vnode, _ = native_system.kernel.vfs.resolve("/dev/null")
    assert vnode is native_system.kernel.devfs.lookup("null")


def test_vfs_parent_resolution(native_system):
    parent, name = native_system.kernel.vfs.resolve("/newfile",
                                                    parent=True)
    assert name == "newfile"
    assert parent is native_system.kernel.vfs.root


def test_vfs_rejects_relative_path(native_system):
    with pytest.raises(SyscallError, match="EINVAL"):
        native_system.kernel.vfs.resolve("relative/path")


# -- pipes ---------------------------------------------------------------------------

def test_pipe_fifo_semantics():
    read_end, write_end = make_pipe()
    write_end.write(0, b"first")
    write_end.write(0, b"second")
    assert read_end.read(0, 5) == b"first"
    assert read_end.read(0, 100) == b"second"


def test_pipe_capacity_limits_writes():
    read_end, write_end = make_pipe()
    written = write_end.write(0, b"x" * (PIPE_CAPACITY + 100))
    assert written == PIPE_CAPACITY


def test_pipe_write_after_reader_closed_is_epipe():
    read_end, write_end = make_pipe()
    read_end.close_end()
    with pytest.raises(SyscallError, match="EPIPE"):
        write_end.write(0, b"data")


def test_pipe_eof_semantics():
    read_end, write_end = make_pipe()
    write_end.write(0, b"last")
    write_end.close_end()
    assert not read_end.at_eof                 # data still buffered
    assert read_end.read(0, 10) == b"last"
    assert read_end.at_eof


def test_pipe_wrong_end_operations():
    read_end, write_end = make_pipe()
    with pytest.raises(SyscallError, match="EBADF"):
        write_end.read(0, 1)
    with pytest.raises(SyscallError, match="EBADF"):
        read_end.write(0, b"x")
