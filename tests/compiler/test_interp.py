"""Interpreter semantics: arithmetic, control flow, memory, calls, fuel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.rootkit import RootkitAttack
from repro.compiler.codegen import CodeGenerator
from repro.compiler.interp import ExecutionLimits, Interpreter
from repro.compiler.parser import parse_module
from repro.compiler.verifier import verify_module
from repro.core.config import VGConfig
from repro.core.layout import KERNEL_CODE_START
from repro.errors import InterpreterError
from repro.hardware.clock import CycleClock
from tests.security.test_rootkit import _run_attack

CODE_BASE = KERNEL_CODE_START + 0x100000
DATA_BASE = KERNEL_CODE_START + 0x200000
STACK_TOP = KERNEL_CODE_START + 0x300000


class DictMemory:
    """Simple byte-addressable memory for interpreter tests."""

    def __init__(self):
        self.bytes: dict[int, int] = {}

    def load(self, addr, width):
        return int.from_bytes(
            bytes(self.bytes.get(addr + i, 0) for i in range(width)),
            "little")

    def store(self, addr, width, value):
        for i, b in enumerate((value & ((1 << (8 * width)) - 1))
                              .to_bytes(width, "little")):
            self.bytes[addr + i] = b

    def copy(self, dst, src, length):
        data = [self.bytes.get(src + i, 0) for i in range(length)]
        for i, b in enumerate(data):
            self.bytes[dst + i] = b

    def fill(self, dst, byte, length):
        for i in range(length):
            self.bytes[dst + i] = byte & 0xFF


def build(source, externs=None):
    module = parse_module(source)
    verify_module(module)
    image = CodeGenerator(CODE_BASE, DATA_BASE).generate(module)
    memory = DictMemory()
    interp = Interpreter(image, memory, CycleClock(),
                         externs=externs or {}, stack_top=STACK_TOP)
    return interp, memory, image


def run_expr(body, args=(), params=""):
    source = f"module t\nfunc @f({params}) {{\nentry:\n{body}\n}}\n"
    interp, _, _ = build(source)
    return interp.run("f", list(args))


# -- arithmetic -----------------------------------------------------------------

@pytest.mark.parametrize("body, expected", [
    ("  %x = add 3, 4\n  ret %x", 7),
    ("  %x = sub 3, 4\n  ret %x", (3 - 4) % 2 ** 64),
    ("  %x = mul 7, 6\n  ret %x", 42),
    ("  %x = udiv 42, 5\n  ret %x", 8),
    ("  %x = urem 42, 5\n  ret %x", 2),
    ("  %x = and 12, 10\n  ret %x", 8),
    ("  %x = or 12, 10\n  ret %x", 14),
    ("  %x = xor 12, 10\n  ret %x", 6),
    ("  %x = shl 1, 40\n  ret %x", 1 << 40),
    ("  %x = lshr 256, 4\n  ret %x", 16),
    ("  %x = mov 99\n  ret %x", 99),
    ("  %x = not 0\n  ret %x", 2 ** 64 - 1),
    ("  %x = select 1, 10, 20\n  ret %x", 10),
    ("  %x = select 0, 10, 20\n  ret %x", 20),
])
def test_arithmetic(body, expected):
    assert run_expr(body) == expected


def test_sdiv_signed_semantics():
    minus_seven = (2 ** 64 - 7)
    assert run_expr(f"  %x = sdiv {minus_seven}, 2\n  ret %x") \
        == (2 ** 64 - 3)


def test_ashr_sign_extends():
    minus_eight = 2 ** 64 - 8
    assert run_expr(f"  %x = ashr {minus_eight}, 1\n  ret %x") \
        == 2 ** 64 - 4


def test_division_by_zero_raises():
    with pytest.raises(InterpreterError, match="zero"):
        run_expr("  %x = udiv 1, 0\n  ret %x")


def test_division_by_zero_mid_run_keeps_prior_charges():
    source = """
module t
func @f(%x) {
entry:
  %a = add %x, 1
  %b = mul %a, 2
  %q = udiv %b, 0
  %c = add %q, 1
  ret %c
}
"""
    interp, _, _ = build(source)
    with pytest.raises(InterpreterError, match="division by zero"):
        interp.run("f", [5])
    # the two instructions before it and the failing one's own charge
    # (charges precede evaluation); nothing after it ran
    assert interp.clock.counters["instr"] == 3
    assert interp.steps_executed == 3


@pytest.mark.parametrize("pred, a, b, expected", [
    ("eq", 5, 5, 1), ("ne", 5, 5, 0),
    ("ult", 3, 5, 1), ("ugt", 3, 5, 0),
    ("ule", 5, 5, 1), ("uge", 4, 5, 0),
    ("slt", 2 ** 64 - 1, 0, 1),        # -1 < 0 signed
    ("sgt", 2 ** 64 - 1, 0, 0),
    ("sle", 2 ** 64 - 1, 0, 1),
    ("sge", 2 ** 64 - 1, 0, 0),
])
def test_icmp(pred, a, b, expected):
    assert run_expr(f"  %x = icmp {pred} {a}, {b}\n  ret %x") == expected


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))
@settings(max_examples=40, deadline=None)
def test_add_matches_wraparound(a, b):
    assert run_expr(f"  %x = add {a}, {b}\n  ret %x") == (a + b) % 2 ** 64


# -- control flow -----------------------------------------------------------------

LOOP = """
module t
func @sum(%n) {
entry:
  %acc = mov 0
  %i = mov 1
  br head
head:
  %done = icmp ugt %i, %n
  condbr %done, out, body
body:
  %acc = add %acc, %i
  %i = add %i, 1
  br head
out:
  ret %acc
}
"""


def test_loop_sums():
    interp, _, _ = build(LOOP)
    assert interp.run("sum", [10]) == 55
    assert interp.run("sum", [0]) == 0


def test_recursion():
    source = """
module t
func @fact(%n) {
entry:
  %base = icmp ule %n, 1
  condbr %base, one, rec
one:
  ret 1
rec:
  %m = sub %n, 1
  %sub = call @fact(%m)
  %r = mul %n, %sub
  ret %r
}
"""
    interp, _, _ = build(source)
    assert interp.run("fact", [10]) == 3628800


def test_step_limit_stops_infinite_loop():
    source = """
module t
func @spin() {
entry:
  br entry
}
"""
    module = parse_module(source)
    image = CodeGenerator(CODE_BASE, DATA_BASE).generate(module)
    interp = Interpreter(image, DictMemory(), CycleClock(), externs={},
                         stack_top=STACK_TOP,
                         limits=ExecutionLimits(max_steps=1000))
    with pytest.raises(InterpreterError, match="step limit") as excinfo:
        interp.run("spin", [])
    message = str(excinfo.value)
    assert "1001 steps executed" in message
    assert "in @spin" in message
    assert "max_steps=1000" in message
    assert interp.steps_executed == 1001


def test_call_depth_limit():
    source = """
module t
func @down(%n) {
entry:
  %r = call @down(%n)
  ret %r
}
"""
    interp, _, _ = build(source)
    interp.limits = ExecutionLimits(max_call_depth=10)
    with pytest.raises(InterpreterError, match="depth"):
        interp.run("down", [1])


def test_unreachable_raises():
    with pytest.raises(InterpreterError, match="unreachable"):
        run_expr("  unreachable")


def test_wrong_arity_rejected():
    interp, _, _ = build(LOOP)
    with pytest.raises(InterpreterError, match="args"):
        interp.run("sum", [1, 2])


@pytest.mark.parametrize("source, args, message", [
    ("""
module t
func @g(%flag) {
entry:
  condbr %flag, set, use
set:
  %v = mov 42
  br use
use:
  %r = add %v, 1
  ret %r
}
""", [0], "read of undefined register %v in @g"),
    ("""
module t
extern @mystery/1
func @g(%x) {
entry:
  %r = call @mystery(%x)
  ret %r
}
""", [9], "call to unknown @mystery"),
])
def test_runtime_error_messages(source, args, message):
    interp, _, _ = build(source)
    with pytest.raises(InterpreterError) as excinfo:
        interp.run("g", args)
    assert str(excinfo.value) == message


def test_unknown_function_rejected():
    interp, _, _ = build(LOOP)
    with pytest.raises(InterpreterError, match="no function"):
        interp.run("missing", [])


# -- memory & globals ----------------------------------------------------------------

def test_globals_initialized_via_image():
    source = """
module t
global @greeting 8 = "hi"
func @peek() {
entry:
  %v = load8 @greeting
  ret %v
}
"""
    interp, memory, image = build(source)
    addr = image.global_addrs["greeting"]
    memory.copy  # noqa: B018 -- memory starts empty; init is loader's job
    for i, b in enumerate(b"hi\x00\x00\x00\x00\x00\x00"):
        memory.bytes[addr + i] = b
    assert interp.run("peek", []) == int.from_bytes(
        b"hi\x00\x00\x00\x00\x00\x00"[:8], "little")


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_load_store_widths(width):
    value = 0x1122334455667788
    masked = value & ((1 << (8 * width)) - 1)
    source = f"""
module t
global @slot 8
func @f() {{
entry:
  store{width} {value}, @slot
  %v = load{width} @slot
  ret %v
}}
"""
    interp, _, _ = build(source)
    assert interp.run("f", []) == masked


def test_alloca_gives_distinct_writable_slots():
    source = """
module t
func @f() {
entry:
  %p = alloca 16
  %q = alloca 16
  store8 111, %p
  store8 222, %q
  %a = load8 %p
  %b = load8 %q
  %s = add %a, %b
  ret %s
}
"""
    interp, _, _ = build(source)
    assert interp.run("f", []) == 333


def test_memcpy_memset():
    source = """
module t
global @src 16 = "abcdefgh"
global @dst 16
func @f() {
entry:
  memset @dst, 90, 16
  memcpy @dst, @src, 4
  %v = load8 @dst
  ret %v
}
"""
    interp, memory, image = build(source)
    src_addr = image.global_addrs["src"]
    for i, b in enumerate(b"abcdefgh"):
        memory.bytes[src_addr + i] = b
    result = interp.run("f", [])
    assert result.to_bytes(8, "little") == b"abcdZZZZ"


# -- externs -------------------------------------------------------------------------

def test_extern_call_receives_args_and_returns():
    calls = []

    def helper(args):
        calls.append(tuple(args))
        return sum(args)

    source = """
module t
extern @helper/3
func @f() {
entry:
  %r = call @helper(1, 2, 3)
  ret %r
}
"""
    interp, _, _ = build(source, externs={"helper": helper})
    assert interp.run("f", []) == 6
    assert calls == [(1, 2, 3)]


def test_extern_sees_clock_charged_up_to_its_call():
    """Externs run host code that may read the clock, so every charge
    before the call -- including the call's own -- is already on it."""
    seen = []

    def spy(args):
        seen.append((clock.cycles, dict(clock.counters)))
        return args[0] * 2

    source = """
module t
extern @spy/1
func @f(%x) {
entry:
  %a = add %x, 1
  %r = call @spy(%a)
  %s = add %r, 1
  ret %s
}
"""
    interp, _, _ = build(source, externs={"spy": spy})
    clock = interp.clock
    assert interp.run("f", [4]) == 11
    # the pushed host return address, the add, the call
    expected = {"mem_access": 1, "instr": 1, "call": 1}
    assert seen == [(sum(getattr(clock.costs, kind) * units
                         for kind, units in expected.items()), expected)]


def test_indirect_call_through_function_pointer():
    source = """
module t
func @target(%x) {
entry:
  %r = add %x, 100
  ret %r
}
func @f() {
entry:
  %fp = mov @target
  %r = callind %fp(5)
  ret %r
}
"""
    interp, _, _ = build(source)
    assert interp.run("f", []) == 105


def test_indirect_call_to_non_entry_address_crashes():
    source = """
module t
func @target(%x) {
entry:
  %r = add %x, 1
  ret %r
}
func @f(%addr) {
entry:
  %r = callind %addr(5)
  ret %r
}
"""
    interp, _, image = build(source)
    bad = image.functions["target"].base + 1       # mid-function
    with pytest.raises(InterpreterError, match="non-entry|non-function"):
        interp.run("f", [bad])


# -- control-flow hijacks ----------------------------------------------------------

VULNERABLE_MODULE = """
module vulnmod
extern @klog/2
global @pwned 8
global @banner 16 = "kernel pwned"
func @grant_root() {
entry:
  store8 1, @pwned
  %r = call @klog(@banner, 12)
  ret 0
}
func @parse_packet(%value, %offset) {
entry:
  %buf = alloca 32
  %slot = add %buf, %offset
  store8 %value, %slot
  ret 0
}
func @handle(%value, %offset) {
entry:
  %r = call @parse_packet(%value, %offset)
  ret %r
}
"""


def test_return_hijacked_to_function_entry():
    """Offset 32 overwrites parse_packet's saved return address; the
    return then continues in @grant_root, not in @handle, and @grant_root's
    own return unwinds handle's frame back to the host."""
    logged = []
    interp, memory, image = build(
        VULNERABLE_MODULE, externs={"klog": lambda args: logged.append(
            tuple(args)) or 0})
    gadget = image.functions["grant_root"].base
    assert interp.run("handle", [gadget, 32]) == 0
    assert memory.load(image.global_addrs["pwned"], 8) == 1
    assert logged == [(image.global_addrs["banner"], 12)]
    # handle's call, parse_packet's 4 insns, grant_root's 3 insns
    assert interp.steps_executed == 8
    assert interp.clock.counters["ret"] == 2


def test_rootkit_direct_read_runs_interpreted_and_reads_masked_zeros():
    """The full rootkit module (hooked read syscall, real kernel externs)
    runs on the interpreter under Virtual Ghost, steals nothing, and
    replays to the same cycle."""
    runs = []
    for _ in range(2):
        system, victim, result, status = _run_attack(
            VGConfig.virtual_ghost(), RootkitAttack.MODE_DIRECT)
        assert not (result.console_leak or result.file_leak)
        assert status == 0 and victim.secret_intact_after
        assert system.kernel.ctx.stray_reads > 0
        # the module's sandboxing masks executed on the interpreter
        assert system.machine.clock.counters["mask_check"] > 0
        runs.append((system.machine.clock.cycles,
                     dict(system.machine.clock.counters)))
    assert runs[0] == runs[1]
