"""Golden simulated counts for simplefs directory operations.

A scripted mix of creates, unlinks, tombstone-reusing creates, hit and
miss lookups and ``entries()`` runs on a Virtual Ghost kernel context.
The pinned numbers -- clock cycles, per-kind event counters and
buffer-cache hits and misses after every phase, plus one observed run's
full export (scopes, metrics and cycle-stamped trace) -- were recorded
with the per-dirent directory scan, before scans settled their charges
once per directory block. Any drift in simulated time fails here.

The ``replay`` case shrinks the buffer cache to 4 blocks so that
fetching a directory data block past the direct pointers evicts the
directory's indirect table, and the next slot's lookup misses again.
"""

import hashlib

import pytest

from repro.core.config import VGConfig
from repro.errors import SyscallError
from repro.hardware.platform import Machine, MachineConfig
from repro.kernel import simplefs
from repro.kernel.context import KernelContext
from repro.kernel.simplefs import SimpleFS
from repro.kernel.vfs import VnodeType


def _run(monkeypatch, entries: int, cache_blocks: int | None,
         observe: bool = False) -> dict:
    if cache_blocks is not None:
        monkeypatch.setattr(simplefs, "CACHE_BLOCKS", cache_blocks)
    machine = Machine(MachineConfig(disk_sectors=32768, observe=observe))
    ctx = KernelContext(machine, VGConfig.virtual_ghost())
    fs = SimpleFS(machine.disk, ctx)
    fs.mkfs(num_inodes=2048)
    root = fs.mount()
    clock = machine.clock
    phases = {}

    def mark(phase: str) -> None:
        phases[phase] = (clock.cycles, fs.cache.hits, fs.cache.misses)

    names = [f"f{i}" for i in range(entries)]
    for name in names:
        root.create(name, VnodeType.REGULAR)
    root.lookup(names[-1])
    mark("fill")
    # first slot, last slot of block 0, first slot of block 1, middle, last
    for index in sorted({0, 63, 64, entries // 2, entries - 1}):
        root.unlink(names[index])
    mark("unlink")
    for index in range(3):
        root.create(f"g{index}", VnodeType.REGULAR)
    mark("reuse")
    for name in (names[1], names[65], "g2", names[-2]):
        root.lookup(name)
    for name in ("missing", names[0]):
        with pytest.raises(SyscallError, match="ENOENT"):
            root.lookup(name)
    mark("lookup")
    listing = root.entries()
    mark("entries")
    result = {
        "phases": phases,
        "counters": dict(sorted(clock.counters.items())),
        "listing": (len(listing), hashlib.sha256(
            "\n".join(listing).encode()).hexdigest()[:16]),
    }
    if observe:
        export = machine.observer.export_text()
        result["export"] = (machine.observer.tracer.emitted,
                            hashlib.sha256(export.encode()).hexdigest())
    return result


GOLDEN = {
    "direct": {
        "phases": {
            "fill": (66478042, 252562, 34),
            "unlink": (66787062, 253463, 34),
            "reuse": (67200368, 255105, 34),
            "lookup": (67527584, 256743, 34),
            "entries": (67627720, 257244, 34),
        },
        "counters": {
            "cfi_check": 39589,
            "disk_per_sector": 544,
            "disk_seek": 68,
            "indirect_call": 9134,
            "instr": 3915876,
            "mask_check": 5579822,
            "mem_access": 5579822,
            "ret": 30455,
        },
        "listing": (498, "b804f79e94caa78f"),
    },
    "indirect": {
        "phases": {
            "fill": (516111406, 2794169, 34),
            "unlink": (516748280, 2797303, 34),
            "reuse": (517845034, 2804141, 34),
            "lookup": (518855660, 2810974, 34),
            "entries": (519183612, 2813207, 34),
        },
        "counters": {
            "cfi_check": 117589,
            "disk_per_sector": 544,
            "disk_seek": 68,
            "indirect_call": 27134,
            "instr": 33930183,
            "mask_check": 43815057,
            "mem_access": 43815057,
            "ret": 90455,
        },
        "listing": (1498, "741139c9951aa5d2"),
    },
    "small_cache": {
        "phases": {
            "fill": (516655492, 2794168, 35),
            "unlink": (517401338, 2797300, 37),
            "reuse": (518498092, 2804138, 37),
            "lookup": (519508718, 2810971, 37),
            "entries": (519836670, 2813204, 37),
        },
        "counters": {
            "cfi_check": 117589,
            "disk_per_sector": 736,
            "disk_seek": 92,
            "indirect_call": 27134,
            "instr": 33930210,
            "mask_check": 43815078,
            "mem_access": 43815078,
            "ret": 90455,
        },
        "listing": (1498, "741139c9951aa5d2"),
    },
    "replay": {
        "phases": {
            "fill": (1768762222, 2752313, 41890),
            "unlink": (1770790166, 2755402, 41935),
            "reuse": (1774560432, 2762148, 42027),
            "lookup": (1777944768, 2768896, 42112),
            "entries": (1779064014, 2771100, 42141),
        },
        "counters": {
            "cfi_check": 117589,
            "disk_per_sector": 370032,
            "disk_seek": 46254,
            "indirect_call": 27134,
            "instr": 34309146,
            "mask_check": 44109806,
            "mem_access": 44109806,
            "ret": 90455,
        },
        "listing": (1498, "741139c9951aa5d2"),
    },
    "observed": {
        "phases": {
            "fill": (962922114, 1303975, 22210),
            "unlink": (964514712, 1306075, 22244),
            "reuse": (967344514, 1310445, 22312),
            "lookup": (969788386, 1314817, 22373),
            "entries": (970594144, 1316229, 22394),
        },
        "counters": {
            "cfi_check": 86389,
            "disk_per_sector": 202360,
            "disk_seek": 25295,
            "indirect_call": 19934,
            "instr": 17944577,
            "mask_check": 23960815,
            "mem_access": 23960815,
            "ret": 66455,
        },
        "listing": (1098, "7badb842f5b8f547"),
        "export": (25295, "41925ed4208a2d86680aad59a363ec8d"
                   "4ffe8841074ee7c0bb9e310047903418"),
    },
}


@pytest.mark.parametrize("case,entries,cache_blocks", [
    ("direct", 500, None),
    ("indirect", 1500, None),
    ("small_cache", 1500, 40),
    ("replay", 1500, 4),
])
def test_directory_operations_keep_simulated_counts(monkeypatch, case,
                                                     entries,
                                                     cache_blocks):
    assert _run(monkeypatch, entries, cache_blocks) == GOLDEN[case]


def test_observed_directory_operations_keep_trace_export(monkeypatch):
    assert _run(monkeypatch, 1100, 4, observe=True) == GOLDEN["observed"]
