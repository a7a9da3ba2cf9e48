"""Directory scans by byte search agree with decoding every slot.

The finders of ``SimpleFSVnode._scan`` search a directory block's raw
bytes. Here they run on adversarial blocks -- tombstone bytes inside
names, search patterns at misaligned offsets, name lengths past the slot
end, invalid UTF-8 and ``EF BF BD`` (U+FFFD), partial last blocks,
holes, indirect blocks and an indirect table evicted by a tiny cache --
and must stop at the same slot as ``read_dirent`` plus the predicate,
with the same cycles, counters and cache hits and misses as a scan that
looks every slot up.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VGConfig
from repro.hardware.platform import Machine, MachineConfig
from repro.kernel import simplefs
from repro.kernel.context import KernelContext
from repro.kernel.simplefs import (BLOCK_SIZE, DIRENT_SIZE,
                                   DIRENTS_PER_BLOCK, NUM_DIRECT, SimpleFS,
                                   SimpleFSVnode, _find_live,
                                   _find_tombstone)

#: child field of a deleted entry, and its bytes
_TOMBSTONE = 0xFFFF_FFFF
_TOMBSTONE_HEAD = b"\xff" * 4
#: name bytes: ASCII, two-byte UTF-8, U+FFFD, tombstone bytes, a lone
#: continuation byte, a truncated sequence, NUL
_FRAGMENTS = [b"a", b"b", b"\xc3\xa9", b"\xef\xbf\xbd", b"\xff",
              _TOMBSTONE_HEAD, b"\x80", b"\xc3", b"\x00"]
#: query characters: the same alphabet, plus a lone surrogate
_CHARS = ["a", "b", "\xe9", "\ufffd", "\ud800"]

_names = st.one_of(
    st.text(alphabet=_CHARS, max_size=6),
    # 50-60 bytes: around MAX_NAME (54) and the 59-byte slot end
    st.builds(lambda width, tail: "a" * width + tail,
              st.integers(50, 60), st.text(alphabet=_CHARS, max_size=2)),
)


def _pattern(name: str) -> bytes:
    """Length byte plus name bytes, as a slot would hold ``name``."""
    encoded = name.encode("utf-8", "surrogatepass")
    return bytes([len(encoded) % 256]) + encoded


@st.composite
def _slots(draw, names: list[str]) -> bytes:
    patterns = [_pattern(name) for name in names]
    child = draw(st.sampled_from([_TOMBSTONE_HEAD, bytes(4),
                                  b"\x07\x00\x00\x00"])
                 | st.binary(min_size=4, max_size=4))
    shape = draw(st.sampled_from(["pattern", "any length", "byte"]))
    if patterns and shape == "pattern":
        head = draw(st.sampled_from(patterns))
    elif patterns and shape == "any length":
        # a length byte that need not fit the name that follows it
        head = (bytes([draw(st.integers(0, 255))])
                + draw(st.sampled_from(patterns))[1:])
    else:
        head = bytes([draw(st.sampled_from([0, 1, 2, 54, 55, 59, 60, 255])
                           | st.integers(0, 255))])
    body = b"".join(draw(st.lists(st.sampled_from(_FRAGMENTS + patterns),
                                  max_size=10)))
    return (child + head + body)[:DIRENT_SIZE].ljust(DIRENT_SIZE, b"\x00")


@st.composite
def _blocks(draw, names: list[str]) -> bytes:
    """A full block built from a few distinct slots; a scan may stop
    short of its end (a partial last block)."""
    kinds = draw(st.lists(_slots(names), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(kinds) - 1),
                          min_size=DIRENTS_PER_BLOCK,
                          max_size=DIRENTS_PER_BLOCK))
    return b"".join(kinds[pick] for pick in picks)


def _decode_first(block, lo: int, hi: int, stop) -> int | None:
    vnode = SimpleFSVnode(None, 0)
    for index in range(lo, hi):
        if stop(*vnode.read_dirent(block, index)):
            return index
    return None


def _named(name: str):
    return lambda child, entry: entry == name and child != _TOMBSTONE


def _tombstone(child: int, name: str) -> bool:
    return child == _TOMBSTONE


def _live(child: int, name: str) -> bool:
    return child != _TOMBSTONE


def _with_decoded_names(data, block: bytes, names: list[str]) -> list[str]:
    """``names`` plus the decoded names of a few of the block's slots, so
    that searches also hit."""
    vnode = SimpleFSVnode(None, 0)
    slots = data.draw(st.lists(st.integers(0, DIRENTS_PER_BLOCK - 1),
                               max_size=3))
    return names + [vnode.read_dirent(block, slot)[1] for slot in slots]


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_finders_stop_where_decoding_stops(data):
    names = data.draw(st.lists(_names, min_size=1, max_size=3))
    block = bytearray(data.draw(_blocks(names)))
    hi = data.draw(st.integers(1, DIRENTS_PER_BLOCK))
    lo = data.draw(st.integers(0, hi - 1))
    vnode = SimpleFSVnode(None, 0)
    for name in _with_decoded_names(data, bytes(block), names):
        assert (vnode._name_finder(name)(block, lo, hi)
                == _decode_first(block, lo, hi, _named(name))), name
    assert (_find_tombstone(block, lo, hi)
            == _decode_first(block, lo, hi, _tombstone))
    assert _find_live(block, lo, hi) == _decode_first(block, lo, hi, _live)


# -- whole scans: same slot, same cycles, same cache traffic ------------------


def _directory(layout: list, num_slots: int):
    machine = Machine(MachineConfig(disk_sectors=8192))
    ctx = KernelContext(machine, VGConfig.virtual_ghost())
    filesystem = SimpleFS(machine.disk, ctx)
    filesystem.mkfs(num_inodes=64)
    root = filesystem.mount()
    inode = filesystem.read_inode(root.inode_number)
    for file_block, content in enumerate(layout):
        if content is not None:
            number = filesystem.block_for(inode, file_block, allocate=True)
            filesystem.cache.get(number)[:] = content
    inode.size = num_slots * DIRENT_SIZE
    filesystem._write_inode(inode)
    return filesystem, root


def _slot_by_slot(root, stop):
    """The scan as a per-slot lookup, dirent read and decode."""
    inode = root.fs.read_inode(root.inode_number)
    for slot in range(inode.size // DIRENT_SIZE):
        block = root._dirent_block(inode, slot // DIRENTS_PER_BLOCK)
        if block is None:
            block = bytes(BLOCK_SIZE)
        else:
            root.fs.ctx.work(mem=14, ops=8)
        child, name = root.read_dirent(block, slot)
        if stop(child, name):
            return slot, child
    return None


def _state(filesystem) -> tuple:
    clock = filesystem.ctx.clock
    return (clock.cycles, dict(clock.counters), filesystem.cache.hits,
            filesystem.cache.misses)


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_scan_charges_what_a_slot_by_slot_scan_charges(data):
    names = data.draw(st.lists(_names, min_size=1, max_size=2))
    blocks = data.draw(st.lists(_blocks(names), min_size=1, max_size=2))
    # up to two blocks past the direct pointers; None is a hole
    layout = data.draw(st.lists(
        st.none() | st.sampled_from(blocks),
        min_size=1, max_size=NUM_DIRECT + 2))
    num_slots = ((len(layout) - 1) * DIRENTS_PER_BLOCK
                 + data.draw(st.integers(1, DIRENTS_PER_BLOCK)))
    names = _with_decoded_names(data, blocks[0], names)
    # a 4-block cache evicts the indirect table when a data block past
    # the direct pointers is fetched, so those slots replay one by one
    cache_blocks = data.draw(st.sampled_from([4, simplefs.CACHE_BLOCKS]))
    saved = simplefs.CACHE_BLOCKS
    simplefs.CACHE_BLOCKS = cache_blocks
    try:
        searched, searched_root = _directory(layout, num_slots)
        decoded, decoded_root = _directory(layout, num_slots)
        assert _state(searched) == _state(decoded)
        for name in names:
            inode = searched.read_inode(searched_root.inode_number)
            found = searched_root._scan(inode,
                                        searched_root._name_finder(name))
            assert found == _slot_by_slot(decoded_root, _named(name)), name
            assert _state(searched) == _state(decoded), name
        for finder, stop in ((_find_tombstone, _tombstone),
                             (_find_live, _live)):
            inode = searched.read_inode(searched_root.inode_number)
            assert (searched_root._scan(inode, finder)
                    == _slot_by_slot(decoded_root, stop))
            assert _state(searched) == _state(decoded)
        listing = []
        _slot_by_slot(decoded_root, lambda child, name: (
            child != _TOMBSTONE and listing.append(name)))
        assert searched_root.entries() == listing
        assert _state(searched) == _state(decoded)
    finally:
        simplefs.CACHE_BLOCKS = saved
