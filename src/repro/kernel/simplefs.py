"""SimpleFS: a small on-disk filesystem (superblock, inodes, bitmap, data).

Structure (4 KiB blocks over the 512-byte-sector disk):

* block 0              -- superblock
* blocks 1..I          -- inode table (64-byte inodes, 64 per block)
* blocks I+1..I+B      -- block allocation bitmap
* remaining blocks     -- file data and directories

Inodes hold 12 direct block pointers plus one single-indirect block
(max file size ~4 MiB). Directories store fixed 64-byte entries
(64 per block) and name operations scan them in slot order.
A write-back buffer cache sits between the FS and the disk; cache misses
and evictions charge real disk costs, metadata manipulation charges
kernel work -- this is the substrate under Tables 3/4 (file create and
delete rates) and the Postmark run (Table 5).

Directory costs: every dirent a scan examines is charged as a dirent
read plus the buffer-cache lookup of its block (two lookups past the
direct pointers, where ``block_for`` also reads the indirect table).
A scan fetches each directory block once, with the real lookups of its
first slot, and settles the rest of the block's examined slots in one
charge (see :meth:`SimpleFSVnode._scan`); simulated time is the same as
looking every slot up.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Callable

from repro.errors import DeviceFault, KernelError, SyscallError
from repro.hardware.disk import Disk, SECTOR_SIZE
from repro.kernel.vfs import Vnode, VnodeType

if TYPE_CHECKING:
    from repro.kernel.context import KernelContext

BLOCK_SIZE = 4096
_SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE

MAGIC = 0x5F56_4753                  # "_VGS"

INODE_SIZE = 64
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
NUM_DIRECT = 12

DIRENT_SIZE = 64
DIRENTS_PER_BLOCK = BLOCK_SIZE // DIRENT_SIZE
MAX_NAME = 54                        # bytes of UTF-8

#: child field of a deleted entry (its slot is reused by the next create)
_TOMBSTONE = 0xFFFF_FFFF
#: dirent header: child inode number, name length in bytes
_DIRENT_HEAD = struct.Struct("<IB")
#: kernel work of reading one dirent out of a cached block
_DIRENT_MEM, _DIRENT_OPS = 14, 8
#: what a directory block that was never allocated reads as
_HOLE = bytes(BLOCK_SIZE)

_TYPE_FREE = 0
_TYPE_REGULAR = 1
_TYPE_DIRECTORY = 2

#: Buffer-cache capacity in blocks (16 MiB -- the paper's machine has
#: 16 GiB of RAM; its benchmarks run fully buffered).
CACHE_BLOCKS = 4096


class BufferCache:
    """Write-back block cache with FIFO eviction.

    Device-level failures (:class:`~repro.errors.DeviceFault`, injected
    or otherwise) are translated to EIO here -- the kernel boundary for
    disk errors -- and never propagate raw. A failed writeback keeps the
    block cached and dirty so a later flush can retry it. The fault site
    ``fs.cache`` additionally models transient buffer exhaustion
    (ENOMEM) on cache fills.

    With resilience enabled, device faults and injected transients are
    first retried under the machine's retry policies (backoff charged as
    ``retry_backoff`` cycles); only policy exhaustion escalates to the
    same EIO/ENOMEM the non-resilient cache would raise.
    """

    #: kernel work of one ``get`` that hits
    HIT_MEM, HIT_OPS = 3, 5

    def __init__(self, disk: Disk, ctx: "KernelContext"):
        self.disk = disk
        self.ctx = ctx
        self.faults = ctx.machine.faults
        self.resilience = ctx.machine.resilience
        self._blocks: dict[int, bytearray] = {}
        self._dirty: set[int] = set()
        self._order: list[int] = []
        self.hits = 0
        self.misses = 0
        self.io_errors = 0

    def holds(self, block_number: int) -> bool:
        """Whether ``get(block_number)`` would hit (no side effects)."""
        return block_number in self._blocks

    def _cache_fault(self, detail: str) -> str | None:
        """Consult the fs.cache fault site, retrying injected transients."""
        kind = self.faults.decide("fs.cache", detail)
        if kind is not None and self.resilience.enabled:
            kind = self.resilience.absorb_transient("fs.cache",
                                                    self.faults, detail)
        return kind

    def _read_device(self, block_number: int) -> bytes:
        start = block_number * _SECTORS_PER_BLOCK
        try:
            return self.disk.read_sectors(start, _SECTORS_PER_BLOCK)
        except DeviceFault as exc:
            if self.resilience.enabled:
                return self.resilience.retry_device(
                    "disk.read",
                    lambda: self.disk.read_sectors(start,
                                                   _SECTORS_PER_BLOCK),
                    exc)
            raise

    def _write_device(self, block_number: int, payload: bytes) -> None:
        start = block_number * _SECTORS_PER_BLOCK
        try:
            self.disk.write_sectors(start, payload)
        except DeviceFault as exc:
            if self.resilience.enabled:
                # a full-block rewrite heals any torn prefix on the platter
                self.resilience.retry_device(
                    "disk.write",
                    lambda: self.disk.write_sectors(start, payload), exc)
            else:
                raise

    def get(self, block_number: int) -> bytearray:
        cached = self._blocks.get(block_number)
        if cached is not None:
            self.hits += 1
            self.ctx.work(mem=self.HIT_MEM, ops=self.HIT_OPS)
            return cached
        self.misses += 1
        if self._cache_fault(f"fill block {block_number}") is not None:
            raise SyscallError("ENOMEM",
                               "buffer cache exhausted (injected)")
        self._evict_if_full()
        try:
            data = bytearray(self._read_device(block_number))
        except DeviceFault as exc:
            self.io_errors += 1
            raise SyscallError(
                "EIO", f"read of block {block_number} failed "
                f"({exc})") from exc
        self._blocks[block_number] = data
        self._order.append(block_number)
        self.ctx.work(mem=10, ops=14)
        return data

    def create(self, block_number: int) -> bytearray:
        """Install a zeroed block without reading the disk (fresh
        allocation -- its prior contents are dead)."""
        cached = self._blocks.get(block_number)
        if cached is not None:
            cached[:] = bytes(BLOCK_SIZE)
            return cached
        if self._cache_fault(f"create block {block_number}") is not None:
            raise SyscallError("ENOMEM",
                               "buffer cache exhausted (injected)")
        self._evict_if_full()
        data = bytearray(BLOCK_SIZE)
        self._blocks[block_number] = data
        self._order.append(block_number)
        self.ctx.work(mem=8, ops=10)
        return data

    def mark_dirty(self, block_number: int) -> None:
        if block_number not in self._blocks:
            raise KernelError(f"dirtying uncached block {block_number}")
        self._dirty.add(block_number)

    def flush(self) -> None:
        for block_number in sorted(self._dirty):
            self._writeback(block_number)
            self._dirty.discard(block_number)

    def _writeback(self, block_number: int) -> None:
        try:
            self._write_device(block_number,
                               bytes(self._blocks[block_number]))
        except DeviceFault as exc:
            # the block stays cached + dirty: fsync retries will rewrite
            # it whole, healing any torn prefix on the platter
            self.io_errors += 1
            raise SyscallError(
                "EIO", f"writeback of block {block_number} failed "
                f"({exc})") from exc

    def _evict_if_full(self) -> None:
        while len(self._blocks) >= CACHE_BLOCKS:
            victim = self._order.pop(0)
            if victim in self._dirty:
                try:
                    self._writeback(victim)
                except SyscallError:
                    # cannot evict a dirty block we failed to persist:
                    # keep it (cached + dirty) and surface the error
                    self._order.append(victim)
                    raise
                self._dirty.discard(victim)
            del self._blocks[victim]


class _Inode:
    """In-memory view of one on-disk inode."""

    __slots__ = ("number", "itype", "size", "direct", "indirect", "nlink")

    def __init__(self, number: int):
        self.number = number
        self.itype = _TYPE_FREE
        self.size = 0
        self.direct = [0] * NUM_DIRECT
        self.indirect = 0
        self.nlink = 0

    def pack(self) -> bytes:
        return struct.pack("<BxHQ12II", self.itype, self.nlink, self.size,
                           *self.direct, self.indirect)

    @classmethod
    def unpack(cls, number: int, raw: bytes) -> "_Inode":
        inode = cls(number)
        fields = struct.unpack("<BxHQ12II",
                               raw[:struct.calcsize("<BxHQ12II")])
        inode.itype = fields[0]
        inode.nlink = fields[1]
        inode.size = fields[2]
        inode.direct = list(fields[3:3 + NUM_DIRECT])
        inode.indirect = fields[3 + NUM_DIRECT]
        return inode


class SimpleFS:
    """The filesystem driver: formats, mounts, and serves vnodes."""

    def __init__(self, disk: Disk, ctx: "KernelContext"):
        self.disk = disk
        self.ctx = ctx
        self.cache = BufferCache(disk, ctx)
        self.num_blocks = disk.size_bytes // BLOCK_SIZE
        self.num_inodes = 0
        self.inode_blocks = 0
        self.bitmap_blocks = 0
        self.data_start = 0
        self._vnodes: dict[int, "SimpleFSVnode"] = {}
        self._inode_hint = 0
        self._block_hint = 0

    # -- format & mount ---------------------------------------------------------

    def mkfs(self, num_inodes: int = 4096) -> None:
        self.num_inodes = num_inodes
        self.inode_blocks = -(-num_inodes // INODES_PER_BLOCK)
        self.bitmap_blocks = -(-self.num_blocks // (BLOCK_SIZE * 8))
        self.data_start = 1 + self.inode_blocks + self.bitmap_blocks

        superblock = struct.pack("<IIIII", MAGIC, self.num_blocks,
                                 self.num_inodes, self.inode_blocks,
                                 self.bitmap_blocks)
        block = self.cache.get(0)
        block[:] = superblock.ljust(BLOCK_SIZE, b"\x00")
        self.cache.mark_dirty(0)

        for block_number in range(1, self.data_start):
            block = self.cache.get(block_number)
            block[:] = bytes(BLOCK_SIZE)
            self.cache.mark_dirty(block_number)
        # mark metadata blocks used in the bitmap
        for block_number in range(self.data_start):
            self._bitmap_set(block_number, True)

        root = _Inode(0)
        root.itype = _TYPE_DIRECTORY
        root.nlink = 1
        self._write_inode(root)
        self.cache.flush()

    def mount(self) -> "SimpleFSVnode":
        raw = bytes(self.cache.get(0))
        magic, num_blocks, num_inodes, inode_blocks, bitmap_blocks = (
            struct.unpack("<IIIII", raw[:20]))
        if magic != MAGIC:
            raise KernelError("SimpleFS: bad magic (disk not formatted?)")
        self.num_blocks = num_blocks
        self.num_inodes = num_inodes
        self.inode_blocks = inode_blocks
        self.bitmap_blocks = bitmap_blocks
        self.data_start = 1 + inode_blocks + bitmap_blocks
        return self.vnode(0)

    def sync(self) -> None:
        self.cache.flush()

    def vnode(self, inode_number: int) -> "SimpleFSVnode":
        vnode = self._vnodes.get(inode_number)
        if vnode is None:
            vnode = SimpleFSVnode(self, inode_number)
            self._vnodes[inode_number] = vnode
        return vnode

    # -- inode table -------------------------------------------------------------

    def read_inode(self, number: int) -> _Inode:
        if not 0 <= number < self.num_inodes:
            raise KernelError(f"inode {number} out of range")
        block_number = 1 + number // INODES_PER_BLOCK
        offset = (number % INODES_PER_BLOCK) * INODE_SIZE
        raw = self.cache.get(block_number)[offset:offset + INODE_SIZE]
        self.ctx.work(mem=8, ops=10)
        return _Inode.unpack(number, bytes(raw))

    def _write_inode(self, inode: _Inode) -> None:
        block_number = 1 + inode.number // INODES_PER_BLOCK
        offset = (inode.number % INODES_PER_BLOCK) * INODE_SIZE
        block = self.cache.get(block_number)
        block[offset:offset + INODE_SIZE] = inode.pack()
        self.cache.mark_dirty(block_number)
        self.ctx.work(mem=8, ops=10)

    def _alloc_fault(self, detail: str) -> str | None:
        """Consult the fs.alloc fault site, retrying injected transients."""
        cache = self.cache
        kind = cache.faults.decide("fs.alloc", detail)
        if kind is not None and cache.resilience.enabled:
            kind = cache.resilience.absorb_transient("fs.alloc",
                                                     cache.faults, detail)
        return kind

    def alloc_inode(self, itype: int) -> _Inode:
        if self._alloc_fault("inode") is not None:
            raise SyscallError("ENOSPC",
                               "inode allocation failed (injected)")
        for step in range(self.num_inodes):
            number = (self._inode_hint + step) % self.num_inodes
            inode = self.read_inode(number)
            if inode.itype == _TYPE_FREE:
                self._inode_hint = (number + 1) % self.num_inodes
                inode.itype = itype
                inode.nlink = 1
                inode.size = 0
                inode.direct = [0] * NUM_DIRECT
                inode.indirect = 0
                self._write_inode(inode)
                self.ctx.work(mem=12, ops=20)
                return inode
        raise SyscallError("ENOSPC", "out of inodes")

    def free_inode(self, inode: _Inode) -> None:
        for block_number in self._data_blocks_of(inode):
            self.free_block(block_number)
        if inode.indirect:
            self.free_block(inode.indirect)
        inode.itype = _TYPE_FREE
        inode.size = 0
        inode.direct = [0] * NUM_DIRECT
        inode.indirect = 0
        self._write_inode(inode)
        self._vnodes.pop(inode.number, None)

    # -- block allocation ------------------------------------------------------------

    def alloc_block(self) -> int:
        if self._alloc_fault("block") is not None:
            raise SyscallError("ENOSPC",
                               "block allocation failed (injected)")
        span = self.num_blocks - self.data_start
        for step in range(span):
            block_number = self.data_start + (
                (self._block_hint + step) % span)
            if not self._bitmap_get(block_number):
                self._block_hint = (block_number - self.data_start + 1) % span
                self._bitmap_set(block_number, True)
                self.cache.create(block_number)
                self.cache.mark_dirty(block_number)
                self.ctx.work(mem=10, ops=16)
                return block_number
        raise SyscallError("ENOSPC", "disk full")

    def free_block(self, block_number: int) -> None:
        self._bitmap_set(block_number, False)
        self.ctx.work(mem=6, ops=8)

    def _bitmap_get(self, block_number: int) -> bool:
        bitmap_block = 1 + self.inode_blocks + block_number // (
            BLOCK_SIZE * 8)
        bit = block_number % (BLOCK_SIZE * 8)
        block = self.cache.get(bitmap_block)
        return bool(block[bit // 8] & (1 << (bit % 8)))

    def _bitmap_set(self, block_number: int, used: bool) -> None:
        bitmap_block = 1 + self.inode_blocks + block_number // (
            BLOCK_SIZE * 8)
        bit = block_number % (BLOCK_SIZE * 8)
        block = self.cache.get(bitmap_block)
        if used:
            block[bit // 8] |= 1 << (bit % 8)
        else:
            block[bit // 8] &= ~(1 << (bit % 8))
        self.cache.mark_dirty(bitmap_block)

    # -- file block mapping -------------------------------------------------------------

    def block_for(self, inode: _Inode, file_block: int, *,
                  allocate: bool) -> int:
        """Disk block holding file block ``file_block`` (0 when absent)."""
        if file_block < NUM_DIRECT:
            if inode.direct[file_block] == 0 and allocate:
                inode.direct[file_block] = self.alloc_block()
                self._write_inode(inode)
            return inode.direct[file_block]
        index = file_block - NUM_DIRECT
        if index >= BLOCK_SIZE // 4:
            raise SyscallError("EFBIG", "file too large")
        if inode.indirect == 0:
            if not allocate:
                return 0
            inode.indirect = self.alloc_block()
            self._write_inode(inode)
        table = self.cache.get(inode.indirect)
        entry = struct.unpack_from("<I", table, index * 4)[0]
        if entry == 0 and allocate:
            entry = self.alloc_block()
            table = self.cache.get(inode.indirect)
            struct.pack_into("<I", table, index * 4, entry)
            self.cache.mark_dirty(inode.indirect)
        return entry

    def _data_blocks_of(self, inode: _Inode):
        num_blocks = -(-inode.size // BLOCK_SIZE)
        for file_block in range(num_blocks):
            block_number = self.block_for(inode, file_block, allocate=False)
            if block_number:
                yield block_number


class SimpleFSVnode(Vnode):
    """Vnode adapter over a SimpleFS inode."""

    def __init__(self, fs: SimpleFS, inode_number: int):
        self.fs = fs
        self.inode_number = inode_number

    @property
    def vtype(self) -> VnodeType:  # type: ignore[override]
        inode = self.fs.read_inode(self.inode_number)
        return (VnodeType.DIRECTORY if inode.itype == _TYPE_DIRECTORY
                else VnodeType.REGULAR)

    @property
    def size(self) -> int:
        return self.fs.read_inode(self.inode_number).size

    # -- file I/O -------------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        inode = self.fs.read_inode(self.inode_number)
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        out = bytearray()
        cursor = offset
        while len(out) < length:
            file_block, block_offset = divmod(cursor, BLOCK_SIZE)
            chunk = min(length - len(out), BLOCK_SIZE - block_offset)
            block_number = self.fs.block_for(inode, file_block,
                                             allocate=False)
            if block_number == 0:
                out += bytes(chunk)           # hole
            else:
                block = self.fs.cache.get(block_number)
                out += block[block_offset:block_offset + chunk]
            self.fs.ctx.work(mem=110, ops=60, rets=4, icalls=2)
            self.fs.ctx.clock.charge("copy_per_word", (chunk + 7) // 8)
            cursor += chunk
        return bytes(out)

    def write(self, offset: int, data: bytes) -> int:
        inode = self.fs.read_inode(self.inode_number)
        cursor = offset
        view = memoryview(data)
        while view.nbytes > 0:
            file_block, block_offset = divmod(cursor, BLOCK_SIZE)
            chunk = min(view.nbytes, BLOCK_SIZE - block_offset)
            block_number = self.fs.block_for(inode, file_block,
                                             allocate=True)
            block = self.fs.cache.get(block_number)
            block[block_offset:block_offset + chunk] = view[:chunk]
            self.fs.cache.mark_dirty(block_number)
            self.fs.ctx.work(mem=380, ops=160, rets=8, icalls=3)
            self.fs.ctx.clock.charge("copy_per_word", (chunk + 7) // 8)
            cursor += chunk
            view = view[chunk:]
        if cursor > inode.size:
            inode.size = cursor
            self.fs._write_inode(inode)
        return len(data)

    def truncate(self, length: int) -> None:
        inode = self.fs.read_inode(self.inode_number)
        if length != 0:
            raise SyscallError("EINVAL",
                               "SimpleFS only truncates to zero")
        for block_number in self.fs._data_blocks_of(inode):
            self.fs.free_block(block_number)
        if inode.indirect:
            self.fs.free_block(inode.indirect)
            inode.indirect = 0
        inode.size = 0
        inode.direct = [0] * NUM_DIRECT
        self.fs._write_inode(inode)

    def fsync(self) -> None:
        self.fs.sync()

    # -- directory operations ------------------------------------------------------

    def lookup(self, name: str) -> Vnode:
        inode = self._require_directory()
        entry = self._find_entry(inode, name)
        if entry is None:
            raise SyscallError("ENOENT", f"no entry {name!r}")
        return self.fs.vnode(entry[1])

    def create(self, name: str, vtype: VnodeType) -> Vnode:
        inode = self._require_directory()
        try:
            encoded = name.encode()
        except UnicodeEncodeError:
            raise SyscallError("EINVAL",
                               f"name {name!r} is not UTF-8") from None
        if len(encoded) > MAX_NAME:
            raise SyscallError("ENAMETOOLONG", name)
        if self._find_entry(inode, name) is not None:
            raise SyscallError("EEXIST", name)
        itype = (_TYPE_DIRECTORY if vtype == VnodeType.DIRECTORY
                 else _TYPE_REGULAR)
        child = self.fs.alloc_inode(itype)
        self._insert_entry(inode, encoded, child.number)
        self.fs.ctx.work(mem=2400, ops=1100, rets=60, icalls=18)
        return self.fs.vnode(child.number)

    def unlink(self, name: str) -> None:
        inode = self._require_directory()
        entry = self._find_entry(inode, name)
        if entry is None:
            raise SyscallError("ENOENT", f"no entry {name!r}")
        slot, child_number = entry
        child = self.fs.read_inode(child_number)
        if (child.itype == _TYPE_DIRECTORY
                and self._scan(child, _is_live) is not None):
            raise SyscallError("ENOTEMPTY", name)
        child.nlink -= 1
        if child.nlink <= 0:
            self.fs.free_inode(child)
        else:
            self.fs._write_inode(child)
        self._clear_entry(inode, slot)
        self.fs.ctx.work(mem=2200, ops=1000, rets=55, icalls=16)

    def entries(self) -> list[str]:
        inode = self._require_directory()
        names = []

        def collect(child: int, name: str) -> bool:
            if child != _TOMBSTONE:
                names.append(name)
            return False

        self._scan(inode, collect)
        return names

    # -- directory internals --------------------------------------------------------

    def _require_directory(self) -> _Inode:
        inode = self.fs.read_inode(self.inode_number)
        if inode.itype != _TYPE_DIRECTORY:
            raise SyscallError("ENOTDIR", f"inode {self.inode_number}")
        return inode

    def _scan(self, inode: _Inode, stop: Callable[[int, str], bool]
              ) -> tuple[int, int] | None:
        """``(slot, child)`` of the first entry ``stop(child, name)``
        accepts, scanning in slot order; None when none does.

        Each block is fetched once, by the real ``block_for`` +
        ``cache.get`` of its first slot, so every fault decision, miss,
        disk read and trace event happens as it would slot by slot. Every
        later slot's lookup would then be a side-effect-free cache hit,
        so the block's examined slots are charged in one ``work`` (and one
        ``hits`` bump) before the next block is touched: the clock sums
        ``units * cost``, so the totals and every later cycle stamp are
        those of the per-slot charges. Blocks where that does not hold go
        through :meth:`_replay_block`.
        """
        cache = self.fs.cache
        read_dirent = self.read_dirent
        num_slots = inode.size // DIRENT_SIZE
        for first in range(0, num_slots, DIRENTS_PER_BLOCK):
            file_block = first // DIRENTS_PER_BLOCK
            slots = range(first, min(first + DIRENTS_PER_BLOCK, num_slots))
            block = self._dirent_block(inode, file_block)
            lookups = 1 if file_block < NUM_DIRECT else 2
            if block is None or (lookups == 2
                                 and not cache.holds(inode.indirect)):
                found = self._replay_block(inode, file_block, block, slots,
                                           stop)
                if found is not None:
                    return found
                continue
            found = None
            for slot in slots:
                child, name = read_dirent(block, slot)
                if stop(child, name):
                    found = slot, child
                    break
            examined = slot - first + 1
            hits = (examined - 1) * lookups
            cache.hits += hits
            self.fs.ctx.work(
                mem=examined * _DIRENT_MEM + hits * BufferCache.HIT_MEM,
                ops=examined * _DIRENT_OPS + hits * BufferCache.HIT_OPS)
            if found is not None:
                return found
        return None

    def _replay_block(self, inode: _Inode, file_block: int,
                      block: bytearray | None, slots: range,
                      stop: Callable[[int, str], bool]
                      ) -> tuple[int, int] | None:
        """:meth:`_scan` of one block with a real lookup per slot.

        For a hole, and for a block past the direct pointers whose first
        fetch evicted the indirect table (FIFO eviction from a full
        cache): there every later slot misses again, and its misses must
        happen in slot order.
        """
        for slot in slots:
            if slot != slots.start:
                block = self._dirent_block(inode, file_block)
            if block is None:
                child, name = self.read_dirent(_HOLE, slot)
            else:
                self.fs.ctx.work(mem=_DIRENT_MEM, ops=_DIRENT_OPS)
                child, name = self.read_dirent(block, slot)
            if stop(child, name):
                return slot, child
        return None

    def _dirent_block(self, inode: _Inode,
                      file_block: int) -> bytearray | None:
        block_number = self.fs.block_for(inode, file_block, allocate=False)
        return self.fs.cache.get(block_number) if block_number else None

    def read_dirent(self, block: bytes | bytearray,
                    slot: int) -> tuple[int, str]:
        """Decode entry ``slot`` of its already-fetched directory block
        into ``(child, name)``. No cache access and no charge: the scan
        settles those, and calls this once per examined slot."""
        offset = (slot % DIRENTS_PER_BLOCK) * DIRENT_SIZE
        child, name_length = _DIRENT_HEAD.unpack_from(block, offset)
        start = offset + _DIRENT_HEAD.size
        end = min(start + name_length, offset + DIRENT_SIZE)
        return child, block[start:end].decode("utf-8", "replace")

    def _write_dirent(self, inode: _Inode, slot: int, raw: bytes) -> None:
        offset = slot * DIRENT_SIZE
        file_block, block_offset = divmod(offset, BLOCK_SIZE)
        block_number = self.fs.block_for(inode, file_block, allocate=True)
        block = self.fs.cache.get(block_number)
        block[block_offset:block_offset + DIRENT_SIZE] = raw
        self.fs.cache.mark_dirty(block_number)
        self.fs.ctx.work(mem=4, ops=6)

    def _find_entry(self, inode: _Inode,
                    name: str) -> tuple[int, int] | None:
        return self._scan(inode, lambda child, entry: (
            entry == name and child != _TOMBSTONE))

    def _insert_entry(self, inode: _Inode, encoded: bytes,
                      child_number: int) -> None:
        raw = (_DIRENT_HEAD.pack(child_number, len(encoded)) + encoded
               ).ljust(DIRENT_SIZE, b"\x00")
        # reuse the lowest tombstone slot if there is one
        tombstone = self._scan(inode, _is_tombstone)
        if tombstone is not None:
            self._write_dirent(inode, tombstone[0], raw)
            return
        slot = inode.size // DIRENT_SIZE
        self._write_dirent(inode, slot, raw)
        inode.size += DIRENT_SIZE
        self.fs._write_inode(inode)

    def _clear_entry(self, inode: _Inode, slot: int) -> None:
        raw = _DIRENT_HEAD.pack(_TOMBSTONE, 0).ljust(DIRENT_SIZE, b"\x00")
        self._write_dirent(inode, slot, raw)


def _is_live(child: int, name: str) -> bool:
    return child != _TOMBSTONE


def _is_tombstone(child: int, name: str) -> bool:
    return child == _TOMBSTONE
