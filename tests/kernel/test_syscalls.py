"""System calls end-to-end through real user programs."""

import pytest

from repro.errors import SecurityViolation
from repro.kernel.memory import MAP_ANON, MAP_FILE, PROT_READ, PROT_WRITE
from repro.kernel.syscalls.table import ERRNO
from repro.userland.libc import O_APPEND, O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY

from tests.conftest import ScriptProgram, run_script, write_and_read_file


def test_file_write_read_roundtrip(any_system):
    status, program = run_script(any_system, write_and_read_file)
    assert status == 0
    assert program.result == b"hello world"


def test_open_missing_without_creat_fails(any_system):
    def body(env, program):
        program.result = yield from env.sys_open("/nope", O_RDONLY)
        return 0

    _, program = run_script(any_system, body)
    assert program.result == -ERRNO["ENOENT"]


def test_read_bad_fd(any_system):
    def body(env, program):
        program.result = yield from env.sys_read(99, 0, 10)
        return 0

    _, program = run_script(any_system, body)
    assert program.result == -ERRNO["EBADF"]


def test_write_to_readonly_fd(native_system):
    native_system.write_file("/r.txt", b"data")

    def body(env, program):
        fd = yield from env.sys_open("/r.txt", O_RDONLY)
        program.result = yield from env.sys_write(fd, 0, 4)
        yield from env.sys_close(fd)
        return 0

    _, program = run_script(native_system, body)
    assert program.result == -ERRNO["EBADF"]


def test_lseek_and_append(native_system):
    def body(env, program):
        heap = env.malloc_init(use_ghost=False)
        buf = heap.store(b"0123456789")
        fd = yield from env.sys_open("/s.txt", O_WRONLY | O_CREAT)
        yield from env.sys_write(fd, buf, 10)
        yield from env.sys_close(fd)

        fd = yield from env.sys_open("/s.txt", O_WRONLY | O_APPEND)
        yield from env.sys_write(fd, buf, 3)
        yield from env.sys_close(fd)

        fd = yield from env.sys_open("/s.txt", O_RDONLY)
        end = yield from env.sys_lseek(fd, 0, 2)       # SEEK_END
        yield from env.sys_lseek(fd, 5, 0)
        out = heap.malloc(32)
        got = yield from env.sys_read(fd, out, 32)
        program.result = (end, env.mem_read(out, got))
        yield from env.sys_close(fd)
        return 0

    _, program = run_script(native_system, body)
    assert program.result == (13, b"56789012")


def test_unlink_then_stat_fails(native_system):
    native_system.write_file("/gone.txt", b"bye")

    def body(env, program):
        size = yield from env.sys_stat("/gone.txt")
        rc = yield from env.sys_unlink("/gone.txt")
        after = yield from env.sys_stat("/gone.txt")
        program.result = (size, rc, after)
        return 0

    _, program = run_script(native_system, body)
    assert program.result == (3, 0, -ERRNO["ENOENT"])


def test_dup_shares_offset(native_system):
    native_system.write_file("/d.txt", b"abcdef")

    def body(env, program):
        heap = env.malloc_init(use_ghost=False)
        fd = yield from env.sys_open("/d.txt", O_RDONLY)
        fd2 = yield from env.sys_dup(fd)
        buf = heap.malloc(8)
        yield from env.sys_read(fd, buf, 3)
        got = yield from env.sys_read(fd2, buf, 3)
        program.result = env.mem_read(buf, got)
        yield from env.sys_close(fd)
        yield from env.sys_close(fd2)
        return 0

    _, program = run_script(native_system, body)
    assert program.result == b"def"


def test_pipe_between_syscalls(any_system):
    def body(env, program):
        heap = env.malloc_init(use_ghost=False)
        read_fd, write_fd = yield from env.sys_pipe()
        msg = heap.store(b"through the pipe")
        yield from env.sys_write(write_fd, msg, 16)
        out = heap.malloc(16)
        got = yield from env.sys_read(read_fd, out, 16)
        program.result = env.mem_read(out, got)
        yield from env.sys_close(read_fd)
        yield from env.sys_close(write_fd)
        return 0

    _, program = run_script(any_system, body)
    assert program.result == b"through the pipe"


def test_mkdir_and_nested_files(native_system):
    def body(env, program):
        heap = env.malloc_init(use_ghost=False)
        yield from env.sys_mkdir("/etc")
        buf = heap.store(b"config")
        fd = yield from env.sys_open("/etc/conf", O_WRONLY | O_CREAT)
        yield from env.sys_write(fd, buf, 6)
        yield from env.sys_close(fd)
        program.result = yield from env.sys_stat("/etc/conf")
        return 0

    _, program = run_script(native_system, body)
    assert program.result == 6


def test_name_limit_counts_utf8_bytes(any_system):
    fits, too_long = "é" * 27, "é" * 28       # 54 and 56 bytes

    def body(env, program):
        fd = yield from env.sys_open("/" + fits, O_WRONLY | O_CREAT)
        yield from env.sys_close(fd)
        program.result = [
            fd >= 0,
            (yield from env.sys_open("/" + too_long, O_WRONLY | O_CREAT)),
            (yield from env.sys_mkdir("/dd" + fits[1:])),    # 54 bytes
            (yield from env.sys_mkdir("/" + too_long)),
            (yield from env.sys_open("/bad\ud800", O_WRONLY | O_CREAT)),
            (yield from env.sys_stat("/" + fits)),
        ]
        return 0

    _, program = run_script(any_system, body)
    assert program.result == [True, -ERRNO["ENAMETOOLONG"], 0,
                              -ERRNO["ENAMETOOLONG"], -ERRNO["EINVAL"], 0]
    root = any_system.kernel.vfs.resolve("/")[0]
    assert root.entries() == [fits, "dd" + fits[1:]]


def test_unlink_non_empty_directory_is_enotempty(native_system):
    def body(env, program):
        yield from env.sys_mkdir("/d")
        fd = yield from env.sys_open("/d/x", O_WRONLY | O_CREAT)
        yield from env.sys_close(fd)
        first = yield from env.sys_unlink("/d")
        yield from env.sys_unlink("/d/x")
        program.result = [first, (yield from env.sys_unlink("/d"))]
        return 0

    _, program = run_script(native_system, body)
    assert program.result == [-ERRNO["ENOTEMPTY"], 0]


def test_ftruncate(native_system):
    native_system.write_file("/t.txt", b"longcontent")

    def body(env, program):
        fd = yield from env.sys_open("/t.txt", O_WRONLY)
        yield from env.sys_ftruncate(fd, 0)
        yield from env.sys_close(fd)
        program.result = yield from env.sys_stat("/t.txt")
        return 0

    _, program = run_script(native_system, body)
    assert program.result == 0


def test_getpid_and_exit_status(any_system):
    def body(env, program):
        program.result = yield from env.sys_getpid()
        return 42

    status, program = run_script(any_system, body)
    assert status == 42
    assert program.result >= 1


def test_brk(native_system):
    def body(env, program):
        base = yield from env.sys_brk(0)
        new = yield from env.sys_brk(base + 0x10000)
        env.mem_write(base, b"heap!")
        program.result = (new - base, env.mem_read(base, 5))
        return 0

    _, program = run_script(native_system, body)
    assert program.result == (0x10000, b"heap!")


def test_mmap_anon_demand_paging(any_system):
    def body(env, program):
        addr = yield from env.sys_mmap(0, 3 * 4096,
                                       PROT_READ | PROT_WRITE, MAP_ANON)
        env.mem_write(addr + 5000, b"paged")
        program.result = env.mem_read(addr + 5000, 5)
        yield from env.sys_munmap(addr, 3 * 4096)
        return 0

    _, program = run_script(any_system, body)
    assert program.result == b"paged"


def test_mmap_file_backed(native_system):
    native_system.write_file("/m.bin", b"F" * 4096 + b"S" * 4096)

    def body(env, program):
        fd = yield from env.sys_open("/m.bin", O_RDONLY)
        addr = yield from env.sys_mmap(0, 8192, PROT_READ, MAP_FILE, fd, 0)
        program.result = (env.mem_read(addr, 2),
                          env.mem_read(addr + 4096, 2))
        yield from env.sys_munmap(addr, 8192)
        yield from env.sys_close(fd)
        return 0

    _, program = run_script(native_system, body)
    assert program.result == (b"FF", b"SS")


def test_munmap_then_access_faults(native_system):
    def body(env, program):
        addr = yield from env.sys_mmap(0, 4096, PROT_READ | PROT_WRITE,
                                       MAP_ANON)
        env.mem_write(addr, b"x")
        yield from env.sys_munmap(addr, 4096)
        try:
            env.mem_read(addr, 1)
            program.result = "readable"
        except Exception:
            program.result = "faulted"
        return 0

    _, program = run_script(native_system, body)
    assert program.result == "faulted"


def test_select_reports_ready_pipe(native_system):
    def body(env, program):
        heap = env.malloc_init(use_ghost=False)
        r1, w1 = yield from env.sys_pipe()
        r2, w2 = yield from env.sys_pipe()
        msg = heap.store(b"!")
        yield from env.sys_write(w2, msg, 1)
        mask = yield from env.sys_select((r1, r2))
        program.result = mask
        return 0

    _, program = run_script(native_system, body)
    assert program.result == 0b10        # only the second pipe readable


def test_gettimeofday_monotonic(native_system):
    def body(env, program):
        t1 = yield from env.sys_gettimeofday()
        yield from env.sys_getpid()
        t2 = yield from env.sys_gettimeofday()
        program.result = (t1, t2)
        return 0

    _, program = run_script(native_system, body)
    t1, t2 = program.result
    assert t2 >= t1 >= 0


def test_getrandom_fills_buffer(native_system):
    def body(env, program):
        heap = env.malloc_init(use_ghost=False)
        buf = heap.calloc(32)
        yield from env.sys_getrandom(buf, 32)
        program.result = env.mem_read(buf, 32)
        return 0

    _, program = run_script(native_system, body)
    assert program.result != bytes(32)


def test_unknown_syscall_enosys(native_system):
    def body(env, program):
        from repro.kernel.proc import SyscallRequest
        program.result = yield SyscallRequest(9999, ())
        return 0

    _, program = run_script(native_system, body)
    assert program.result == -ERRNO["ENOSYS"]
