"""Seeded workload inputs, made with stdlib ``random`` only.

Nothing here calls into ``repro``'s crypto (no ``make_random_file``, no
HMAC-DRBG), so a change to the simulator's crypto cannot move the input
generator's cost into a filesystem or serving metric. The same seed always
gives the same inputs.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

from repro.hardware.memory import PAGE_SIZE
from repro.workloads.postmark import (BASE_FILES, CREATE_BIAS, MAX_SIZE,
                                      MIN_SIZE, READ_BIAS)


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{seed}")


# -- postmark ------------------------------------------------------------------

POSTMARK_BLOCK = 10

class PostmarkScript:
    """Postmark's transaction stream (section 8.5 parameters), generated
    lazily and tracking the size every live file must have.

    A transaction is two actions: ``("read", name, size)`` or
    ``("append", name, nbytes)``, then ``("create", name, size)`` or
    ``("delete", name)`` (or ``None`` when only one file is left).
    """

    def __init__(self, seed: int):
        self._rng = _rng("postmark", seed)
        self._next_id = 0
        #: name -> size the file must have now (the script's size model)
        self.sizes: dict[str, int] = {}
        self.live: list[str] = []
        self.base = [self._create() for _ in range(BASE_FILES)]
        self._block = self._kinds()

    def _size(self) -> int:
        return self._rng.randint(MIN_SIZE, MAX_SIZE)

    def _create(self) -> tuple[str, int]:
        self._next_id += 1
        name = f"/mail/msg{self._next_id:06d}"
        size = self._size()
        self.sizes[name] = size
        self.live.append(name)
        return name, size

    def _kinds(self) -> Iterator[tuple[bool, bool]]:
        """(read?, create?) per transaction. Each block of ten holds
        exactly READ_BIAS reads and CREATE_BIAS creates (Postmark's biases
        are out of 10), shuffled, so the directory cannot drift far from
        BASE_FILES entries on any seed."""
        reads = [i < READ_BIAS for i in range(POSTMARK_BLOCK)]
        creates = [i < CREATE_BIAS for i in range(POSTMARK_BLOCK)]
        while True:
            self._rng.shuffle(reads)
            self._rng.shuffle(creates)
            yield from zip(reads, creates)

    def next_transaction(self) -> tuple[tuple, tuple | None]:
        rng = self._rng
        read, create = next(self._block)
        name = self.live[rng.randrange(len(self.live))]
        if read:
            first = ("read", name, self.sizes[name])
        else:
            nbytes = self._size()
            self.sizes[name] += nbytes
            first = ("append", name, nbytes)
        if create:
            second = ("create", *self._create())
        elif len(self.live) > 1:
            victim = self.live.pop(rng.randrange(len(self.live)))
            del self.sizes[victim]
            second = ("delete", victim)
        else:
            second = None
        return first, second


# -- thttpd ---------------------------------------------------------------------

#: Figure 2 file sizes -> (files of that size, requests per block of 12).
#: The files total 24.7 MiB against the 16 MiB buffer cache. The request
#: weights put the median inside the 16 KiB class and the 90th percentile
#: inside the 1 MiB class, both away from a class boundary.
WEB_CLASSES = {
    1024: (32, 2),
    4096: (32, 2),
    16384: (32, 3),
    65536: (32, 2),
    262144: (24, 1),
    1048576: (16, 2),
}
WEB_BLOCK = sum(weight for _, weight in WEB_CLASSES.values())


class WebFiles:
    """Web file bodies and the request stream over them."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng("web-files", seed)
        self.files: dict[str, bytes] = {}
        self.digests: dict[str, str] = {}
        self.by_size: dict[int, list[str]] = {}
        for size, (count, _) in WEB_CLASSES.items():
            names = [f"/www/f{size}_{i:02d}.bin" for i in range(count)]
            for name in names:
                body = rng.randbytes(size)
                self.files[name] = body
                self.digests[name] = hashlib.sha256(body).hexdigest()
            self.by_size[size] = names

    def requests(self) -> Iterator[str]:
        """Endless request paths: shuffled blocks with fixed class weights.
        Within a class the files are requested in shuffled rounds, so that
        every seed touches the same files equally often and the buffer
        cache's miss rate does not depend on the seed's luck."""
        rng = _rng("web-requests", self.seed)
        block = [size for size, (_, weight) in WEB_CLASSES.items()
                 for _ in range(weight)]
        rounds = {size: self._rounds(rng, names)
                  for size, names in self.by_size.items()}
        while True:
            rng.shuffle(block)
            for size in block:
                yield next(rounds[size])

    @staticmethod
    def _rounds(rng: random.Random, names: list[str]) -> Iterator[str]:
        names = list(names)
        while True:
            rng.shuffle(names)
            yield from names


# -- ghost ----------------------------------------------------------------------

#: Figure 4 sizes the ssh client pulls (at most 64 KiB).
SSH_FILE_SIZES = (1024, 8192, 65536)
SSH_FILES_PER_SIZE = 4
GHOST_PAGES = 16
#: Each block of the op mix holds this many pulls of each size and one
#: swap: 6 of 7 ops are pulls, so the median falls inside the 8 KiB pulls
#: and the 90th percentile inside the swaps.
PULLS_PER_SIZE = 2
GHOST_BLOCK = len(SSH_FILE_SIZES) * PULLS_PER_SIZE + 1


class GhostInputs:
    """Remote files, ghost page contents and the op mix for ``ghost``."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng("ghost-inputs", seed)
        self.remote_files = {
            f"file{size}_{i}.bin": rng.randbytes(size)
            for size in SSH_FILE_SIZES for i in range(SSH_FILES_PER_SIZE)}
        self.pages = [rng.randbytes(PAGE_SIZE) for _ in range(GHOST_PAGES)]

    def ops(self) -> Iterator[tuple[str, object]]:
        """Endless op stream: ``("ssh", filename)`` or ``("swap", page)``."""
        rng = _rng("ghost-ops", self.seed)
        block = [size for size in SSH_FILE_SIZES
                 for _ in range(PULLS_PER_SIZE)] + [None]
        while True:
            rng.shuffle(block)
            for size in block:
                if size is None:
                    yield "swap", rng.randrange(GHOST_PAGES)
                else:
                    index = rng.randrange(SSH_FILES_PER_SIZE)
                    yield "ssh", f"file{size}_{index}.bin"
