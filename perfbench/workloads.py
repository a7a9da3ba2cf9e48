"""The benchmark's three workloads, each a closed loop with one client.

A workload boots nothing itself. The harness hands it a booted
:class:`~repro.system.System` and calls, in order:

``prepare(system)``
    Provisioning and warm-up. Untimed.
``run(system, stop)``
    The measured phase. Runs one op after another until ``stop(done)``
    is true and returns one :class:`Op` per op attempted.
``finish(system)``
    End-of-run checks. Returns the problems found (empty when clean).

Every op's output is checked against the seeded inputs; a wrong output
makes the op fail, as does an exception out of the simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.hardware.memory import PAGE_SIZE
from repro.kernel.proc import Program
from repro.kernel.vfs import VnodeType
from repro.userland.apps.ssh import RemoteSshServer, SshClient
from repro.userland.apps.ssh_keygen import SshKeygen
from repro.userland.apps.thttpd import HTTP_PORT, HttpClient, ThttpdServer
from repro.userland.libc import O_APPEND, O_CREAT, O_RDONLY, O_WRONLY
from repro.userland.loader import derive_app_key
from repro.workloads.postmark import BLOCK_SIZE, MAX_SIZE

from perfbench.inputs import (GHOST_BLOCK, POSTMARK_BLOCK, WEB_BLOCK,
                              GhostInputs, PostmarkScript, WebFiles)

MAX_SLICES = 2_000_000


@dataclass
class Op:
    seconds: float
    ok: bool
    detail: str = ""


class Workload:
    name = ""
    #: ``System.create`` sizes for this workload.
    boot: dict = {}
    #: ops in the fixed-size phases: the reference check and the traced run
    check_ops = 0
    trace_ops = 0
    #: ops in one block of the input mix (every block has the same make-up)
    block_ops = 0

    def prepare(self, system) -> None:
        raise NotImplementedError

    def op(self, system) -> Op:
        """Run and check the next op."""
        raise NotImplementedError

    def run(self, system, stop: Callable[[int], bool]) -> list[Op]:
        ops: list[Op] = []
        while not stop(len(ops)):
            try:
                op = self.op(system)
            except Exception as exc:    # noqa: BLE001 -- a failed op
                op = Op(0.0, False, f"{type(exc).__name__}: {exc}")
            ops.append(op)
        return ops

    def finish(self, system) -> list[str]:
        raise NotImplementedError


# -- postmark ---------------------------------------------------------------------

class PostmarkReplay(Program):
    """Replays a :class:`PostmarkScript`: base files, then transactions
    pulled one at a time from ``next_transaction`` until it returns None,
    then teardown. Yields to the harness after setup and after the last
    transaction, so the measured phase holds transactions only."""

    program_id = "postmark-replay"

    def __init__(self, script: PostmarkScript):
        self.script = script
        self.next_transaction: Callable[[], tuple | None] = lambda: None
        self.ready = False
        self.transactions_done = False
        self.ops: list[Op] = []

    def main(self, env):
        heap = env.malloc_init(use_ghost=False)
        buf = heap.store(b"m" * MAX_SIZE)
        if (yield from env.sys_mkdir("/mail")) < 0:
            return 1
        for name, size in self.script.base:
            if not (yield from self._write_new(env, buf, name, size)):
                return 1
        self.ready = True
        yield from env.sys_sched_yield()

        while (transaction := self.next_transaction()) is not None:
            start = time.perf_counter()
            problems = []
            for action in transaction:
                if action is not None:
                    problem = yield from self._act(env, buf, action)
                    if problem:
                        problems.append(problem)
            self.ops.append(Op(time.perf_counter() - start, not problems,
                               "; ".join(problems)))
        self.transactions_done = True
        yield from env.sys_sched_yield()

        for name in list(self.script.live):
            yield from env.sys_unlink(name)
        return 0

    def _act(self, env, buf: int, action: tuple):
        kind, name = action[0], action[1]
        if kind == "read":
            expected = action[2]
            size = yield from env.sys_stat(name)
            fd = yield from env.sys_open(name, O_RDONLY)
            if fd < 0:
                return f"open {name} for read: {fd}"
            got = 0
            while got < expected:
                n = yield from env.sys_read(
                    fd, buf, min(BLOCK_SIZE, expected - got))
                if n <= 0:
                    break
                got += n
            yield from env.sys_close(fd)
            if size != expected or got != expected:
                return f"read {name}: stat {size}, read {got}, " \
                       f"model {expected}"
        elif kind == "append":
            fd = yield from env.sys_open(name, O_WRONLY | O_APPEND)
            if fd < 0:
                return f"open {name} for append: {fd}"
            put = yield from self._write_blocks(env, fd, buf, action[2])
            yield from env.sys_close(fd)
            if put != action[2]:
                return f"append {name}: wrote {put} of {action[2]}"
        elif kind == "create":
            if not (yield from self._write_new(env, buf, name, action[2])):
                return f"create {name} failed"
        elif kind == "delete":
            status = yield from env.sys_unlink(name)
            if status != 0:
                return f"unlink {name}: {status}"
        return ""

    def _write_new(self, env, buf: int, name: str, size: int):
        fd = yield from env.sys_open(name, O_WRONLY | O_CREAT)
        if fd < 0:
            return False
        put = yield from self._write_blocks(env, fd, buf, size)
        yield from env.sys_close(fd)
        return put == size

    @staticmethod
    def _write_blocks(env, fd: int, buf: int, size: int):
        put = 0
        while put < size:
            n = yield from env.sys_write(fd, buf, min(BLOCK_SIZE, size - put))
            if n <= 0:
                break
            put += n
        return put


class Postmark(Workload):
    """One op is one Postmark transaction against one growing directory."""

    name = "postmark"
    boot = {"memory_mb": 128, "disk_mb": 192}
    check_ops = 40
    trace_ops = 300
    block_ops = POSTMARK_BLOCK

    def __init__(self, seed: int):
        self.script = PostmarkScript(seed)
        self.program = PostmarkReplay(self.script)
        self.proc = None

    def prepare(self, system) -> None:
        system.install("/bin/postmark", self.program)
        self.proc = system.spawn("/bin/postmark")
        system.run(until=lambda: self.program.ready, max_slices=MAX_SLICES)
        if not self.program.ready:
            raise RuntimeError("postmark replay failed to create its base "
                               "files")

    def run(self, system, stop) -> list[Op]:
        program = self.program

        def next_transaction():
            if stop(len(program.ops)):
                return None
            return self.script.next_transaction()

        program.next_transaction = next_transaction
        system.run(until=lambda: program.transactions_done,
                   max_slices=MAX_SLICES)
        if not program.transactions_done:
            program.ops.append(Op(0.0, False,
                                  f"replay died (status "
                                  f"{self.proc.exit_status})"))
        return program.ops

    def finish(self, system) -> list[str]:
        status = system.run_until_exit(self.proc, max_slices=MAX_SLICES)
        problems = [] if status == 0 else [f"postmark exited {status}"]
        left = system.kernel.vfs.resolve("/mail")[0].entries()
        if left:
            problems.append(f"/mail not empty after teardown: {len(left)} "
                            f"entries")
        return problems


# -- thttpd -----------------------------------------------------------------------

class Thttpd(Workload):
    """One op is one HTTP GET of a Figure 2-sized file, body-checked."""

    name = "thttpd"
    boot = {"memory_mb": 96, "disk_mb": 64}
    check_ops = 60
    trace_ops = 600
    block_ops = WEB_BLOCK
    #: requests before the measured phase, so the FIFO buffer cache holds
    #: a request-driven mix instead of the last files provisioned
    warmup_requests = 120

    def __init__(self, seed: int):
        self.web = WebFiles(seed)
        self.requests = self.web.requests()
        self.server = ThttpdServer()
        self.served = 0

    def prepare(self, system) -> None:
        root, name = system.kernel.vfs.resolve("/www", parent=True)
        root.create(name, VnodeType.DIRECTORY)
        for path, body in self.web.files.items():
            system.write_file(path, body)
        system.kernel.fs.sync()
        system.install("/bin/thttpd", self.server)
        system.spawn("/bin/thttpd")
        system.run(max_slices=100_000)          # until accept() blocks
        if not self.server.running:
            raise RuntimeError("thttpd failed to start")
        for _ in range(self.warmup_requests):
            op = self.op(system)
            if not op.ok:
                raise RuntimeError(f"warm-up request failed: {op.detail}")

    def op(self, system) -> Op:
        path = next(self.requests)
        client = HttpClient(path)
        start = time.perf_counter()
        system.kernel.net.remote_connect(HTTP_PORT, client)
        system.run(until=lambda: client.done, max_slices=MAX_SLICES)
        seconds = time.perf_counter() - start
        self.served += 1
        body = self.web.files[path]
        if not client.done or client.bytes_received != len(body):
            return Op(seconds, False, f"GET {path}: {client.bytes_received}"
                                      f" of {len(body)} bytes")
        if client.body_sha256 != self.web.digests[path]:
            return Op(seconds, False, f"GET {path}: body digest mismatch")
        return Op(seconds, True)

    def finish(self, system) -> list[str]:
        if self.server.requests_served != self.served:
            return [f"thttpd served {self.server.requests_served} of "
                    f"{self.served} requests"]
        return []


# -- ghost ------------------------------------------------------------------------

GHOST_HOLDER_PORT = 7070
SUITE_KEY = derive_app_key("openssh-suite")


class GhostHolder(Program):
    """Holds seeded ghost pages while blocked in accept(); on the first
    connection it re-reads every page and exits 0 only if all are intact."""

    program_id = "ghost-holder"

    def __init__(self, pages: list[bytes]):
        self.pages = pages
        self.addrs: list[int] = []
        self.ready = False
        self.intact = False

    def main(self, env):
        base = env.allocgm(len(self.pages))
        for i, content in enumerate(self.pages):
            env.mem_write(base + i * PAGE_SIZE, content)
            self.addrs.append(base + i * PAGE_SIZE)
        listen_fd = yield from env.sys_listen(GHOST_HOLDER_PORT)
        if listen_fd < 0:
            return 1
        self.ready = True
        conn = yield from env.sys_accept(listen_fd)
        self.intact = all(env.mem_read(addr, PAGE_SIZE) == content
                          for addr, content in zip(self.addrs, self.pages))
        if conn >= 0:
            yield from env.sys_close(conn)
        return 0 if self.intact else 1


class _Knock:
    """A remote peer that only connects (wakes the holder's accept)."""

    def on_connect(self, conn) -> None:
        conn.peer_close()

    def on_data(self, conn, data: bytes) -> None:
        pass

    def on_close(self, conn) -> None:
        pass


class Ghost(Workload):
    """One op is a ghosting ssh pull of a file of at most 64 KiB, or an
    OS-initiated swap-out/swap-in round trip of one ghost page."""

    name = "ghost"
    boot = {"memory_mb": 96, "disk_mb": 64}
    check_ops = 10
    trace_ops = 100
    block_ops = GHOST_BLOCK

    def __init__(self, seed: int):
        self.inputs = GhostInputs(seed)
        self.op_stream = self.inputs.ops()
        self.client = SshClient(ghosting=True)
        self.holder = GhostHolder(self.inputs.pages)
        self.holder_proc = None

    def prepare(self, system) -> None:
        system.install("/bin/ssh-keygen", SshKeygen(), app_key=SUITE_KEY)
        keygen = system.spawn("/bin/ssh-keygen", argv=("/id_rsa",))
        if system.run_until_exit(keygen, max_slices=MAX_SLICES) != 0:
            raise RuntimeError("ssh-keygen failed")
        system.install("/bin/ssh", self.client, app_key=SUITE_KEY)
        files = self.inputs.remote_files
        system.kernel.net.register_remote_service(
            "server", 22, lambda: RemoteSshServer(files, verify_auth=False))
        system.install("/bin/ghost-holder", self.holder)
        self.holder_proc = system.spawn("/bin/ghost-holder")
        system.run(max_slices=100_000)          # until accept() blocks
        if not self.holder.ready:
            raise RuntimeError("ghost holder failed to start")

    def _ssh(self, system, filename: str) -> Op:
        client = self.client
        client.bytes_received = 0
        start = time.perf_counter()
        proc = system.spawn("/bin/ssh", argv=("server", 22, filename,
                                              "/id_rsa"))
        status = system.run_until_exit(proc, max_slices=MAX_SLICES)
        seconds = time.perf_counter() - start
        expected = len(self.inputs.remote_files[filename])
        if status != 0 or client.bytes_received != expected:
            return Op(seconds, False, f"ssh {filename}: status {status}, "
                                      f"{client.bytes_received} of "
                                      f"{expected} bytes")
        return Op(seconds, True)

    def _swap(self, system, index: int) -> Op:
        kernel = system.kernel
        proc = self.holder_proc
        vaddr = self.holder.addrs[index]
        start = time.perf_counter()
        kernel.swapper.swap_out(proc, vaddr)
        kernel.swapper.swap_in(proc, vaddr)
        seconds = time.perf_counter() - start
        frame = kernel.vm.ghosts.frame_for(proc.pid, vaddr)
        if frame is None:
            return Op(seconds, False, f"ghost page {index} not resident "
                                      f"after swap-in")
        restored = system.machine.phys.read(frame * PAGE_SIZE, PAGE_SIZE)
        if restored != self.inputs.pages[index]:
            return Op(seconds, False, f"ghost page {index} restored with "
                                      f"different contents")
        return Op(seconds, True)

    def op(self, system) -> Op:
        kind, arg = next(self.op_stream)
        if kind == "ssh":
            return self._ssh(system, arg)
        return self._swap(system, arg)

    def finish(self, system) -> list[str]:
        system.kernel.net.remote_connect(GHOST_HOLDER_PORT, _Knock())
        status = system.run_until_exit(self.holder_proc,
                                       max_slices=MAX_SLICES)
        if status != 0 or not self.holder.intact:
            return [f"ghost holder found its pages changed at exit "
                    f"(status {status})"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Postmark, Thttpd, Ghost)}
