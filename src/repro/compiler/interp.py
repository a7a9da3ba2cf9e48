"""Native-code interpreter with cycle accounting.

Executes a signed :class:`~repro.compiler.codegen.NativeImage` against a
:class:`MemoryPort` (supplied by the kernel: accesses go through the MMU
at supervisor privilege). Return addresses are stored *in memory* on a
descending stack, so corrupting the stack redirects control flow exactly
as on real hardware -- which is what the CFI checks exist to stop:

* ``cfi_ret`` verifies the loaded return address lands on a ``cfi_label``
  in kernel-space code;
* ``cfi_icall`` verifies the target is a function entry whose first
  instruction is a ``cfi_label``.

Uninstrumented ``ret``/``callind`` (native-baseline modules) perform no
such checks; a wild target is then an ordinary crash (InterpreterError),
or -- if the attacker aimed well -- a successful hijack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.compiler.codegen import NativeFunction, NativeImage
from repro.compiler.ir import Imm, Operand, Reg
from repro.core.layout import KERNEL_START, mask_address
from repro.errors import CFIViolation, InterpreterError
from repro.hardware.clock import CycleClock

_U64 = (1 << 64) - 1
_S64_SIGN = 1 << 63


class MemoryPort(Protocol):
    """How interpreted code touches memory. The kernel's implementation
    translates through the MMU at supervisor privilege and resolves what
    happens on unmapped accesses (the dead zone reads as zeros)."""

    def load(self, addr: int, width: int) -> int: ...
    def store(self, addr: int, width: int, value: int) -> None: ...
    def copy(self, dst: int, src: int, length: int) -> None: ...
    def fill(self, dst: int, byte: int, length: int) -> None: ...


ExternFn = Callable[[list[int]], int]


@dataclass
class ExecutionLimits:
    max_steps: int = 2_000_000
    max_call_depth: int = 256


def _to_signed(value: int) -> int:
    value &= _U64
    return value - (1 << 64) if value & _S64_SIGN else value


def _align16(value: int) -> int:
    return (value + 15) // 16 * 16


def _udiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("division by zero")
    return a // b


def _urem(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("division by zero")
    return a % b


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("division by zero")
    result = abs(_to_signed(a)) // abs(_to_signed(b))
    if (_to_signed(a) < 0) != (_to_signed(b) < 0):
        result = -result
    return result & _U64


_BINFN: dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: (a + b) & _U64,
    "sub": lambda a, b: (a - b) & _U64,
    "mul": lambda a, b: (a * b) & _U64,
    "udiv": _udiv,
    "urem": _urem,
    "sdiv": _sdiv,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 63)) & _U64,
    "lshr": lambda a, b: a >> (b & 63),
    "ashr": lambda a, b: (_to_signed(a) >> (b & 63)) & _U64,
}

_CMPFN: dict[str, Callable[[int, int], int]] = {
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "ult": lambda a, b: 1 if a < b else 0,
    "ule": lambda a, b: 1 if a <= b else 0,
    "ugt": lambda a, b: 1 if a > b else 0,
    "uge": lambda a, b: 1 if a >= b else 0,
    "slt": lambda a, b: 1 if _to_signed(a) < _to_signed(b) else 0,
    "sle": lambda a, b: 1 if _to_signed(a) <= _to_signed(b) else 0,
    "sgt": lambda a, b: 1 if _to_signed(a) > _to_signed(b) else 0,
    "sge": lambda a, b: 1 if _to_signed(a) >= _to_signed(b) else 0,
}


class Interpreter:
    """Executes functions from one native image."""

    #: Sentinel return address meaning "return to the (trusted) host code
    #: that invoked this module function" -- a valid cfi_ret target, since
    #: the kernel's own call sites carry labels.
    HOST_RETURN = 0

    def __init__(self, image: NativeImage, memory: MemoryPort,
                 clock: CycleClock, *, externs: dict[str, ExternFn],
                 stack_top: int, limits: ExecutionLimits | None = None,
                 observer=None):
        self.image = image
        self.memory = memory
        self.clock = clock
        self.externs = dict(externs)
        self.stack_top = stack_top
        self.limits = limits or ExecutionLimits()
        self.steps_executed = 0
        self.cfi_violations = 0
        #: optional Observer; consulted only on (rare) CFI violations so
        #: the interpreter's hot loop stays untouched
        self.observer = observer

    # -- entry ------------------------------------------------------------------

    def run(self, function_name: str, args: list[int]) -> int:
        """Invoke a module function from host (kernel) code."""
        function = self.image.functions.get(function_name)
        if function is None:
            raise InterpreterError(
                f"no function @{function_name} in {self.image.module_name}")
        return self._execute(function, [a & _U64 for a in args])

    def run_addr(self, addr: int, args: list[int]) -> int:
        """Invoke by code address (used by host callbacks)."""
        function = self.image.function_at(addr)
        if function is None:
            raise InterpreterError(f"call to non-function address {addr:#x}")
        return self._execute(function, [a & _U64 for a in args])

    def _step_limit_error(self, total_steps: int,
                          function_name: str) -> InterpreterError:
        return InterpreterError(
            f"step limit exceeded in {self.image.module_name}: "
            f"{total_steps} steps executed, in @{function_name} "
            f"(max_steps={self.limits.max_steps})")

    # -- execution loop ----------------------------------------------------------

    def _execute(self, function: NativeFunction, args: list[int]) -> int:
        sp = self.stack_top
        sp = self._push_return(sp, self.HOST_RETURN)
        frame = self._make_frame(function, args, sp, result_reg=None)
        call_stack: list[_Frame] = []
        step_budget = self.limits.max_steps

        while True:
            if frame.pc >= len(frame.function.insns):
                raise InterpreterError(
                    f"fell off the end of @{frame.function.name}")
            insn = frame.function.insns[frame.pc]
            self.steps_executed += 1
            step_budget -= 1
            if step_budget < 0:
                raise self._step_limit_error(self.steps_executed,
                                             frame.function.name)

            op = insn.opcode
            # -- control flow -------------------------------------------------
            if op == "br":
                self.clock.charge("instr")
                frame.pc = insn.targets[0]
                continue
            if op == "condbr":
                self.clock.charge("instr")
                cond = self._value(frame, insn.operands[0])
                frame.pc = insn.targets[0] if cond else insn.targets[1]
                continue
            if op in ("ret", "cfi_ret"):
                retval = (self._value(frame, insn.operands[0])
                          if insn.operands else 0)
                self.clock.charge("ret")
                return_addr = self.memory.load(frame.ret_slot, 8)
                self.clock.charge("mem_access")
                if op == "cfi_ret":
                    self.clock.charge("cfi_check")
                    self._cfi_check_return(return_addr)
                if return_addr == self.HOST_RETURN:
                    if not call_stack:
                        return retval
                    # Host sentinel below a live frame means stack rot.
                    raise InterpreterError("return to host with live frames")
                target = self.image.locate(return_addr)
                if target is None:
                    raise InterpreterError(
                        f"return to non-code address {return_addr:#x}")
                if not call_stack:
                    raise InterpreterError("return with empty call stack")
                caller = call_stack.pop()
                caller_fn, caller_pc = target
                if caller_fn is not caller.function:
                    # A corrupted return address redirected us elsewhere;
                    # follow it (this is what an uninstrumented kernel
                    # does), continuing in the victim function.
                    hijacked = _Frame(caller_fn, dict(caller.regs),
                                      caller.ret_slot, caller.result_reg)
                    hijacked.sp = caller.sp
                    caller = hijacked
                caller.pc = caller_pc
                if frame.result_reg is not None:
                    caller.regs[frame.result_reg] = retval & _U64
                frame = caller
                continue
            if op == "unreachable":
                raise InterpreterError(
                    f"reached 'unreachable' in @{frame.function.name}")

            # -- calls -----------------------------------------------------------
            if op == "call":
                args_values = [self._value(frame, operand)
                               for operand in insn.operands]
                callee = insn.callee
                assert callee is not None
                if callee in self.image.functions:
                    self.clock.charge("call")
                    if len(call_stack) >= self.limits.max_call_depth:
                        raise InterpreterError("call depth exceeded")
                    target_fn = self.image.functions[callee]
                    return_addr = frame.function.base + frame.pc + 1
                    sp = self._push_return(frame.sp, return_addr)
                    call_stack.append(frame)
                    frame = self._make_frame(target_fn, args_values, sp,
                                             insn.result)
                    continue
                if callee in self.externs:
                    self.clock.charge("call")
                    result = self.externs[callee](args_values) or 0
                    if insn.result is not None:
                        frame.regs[insn.result] = result & _U64
                    frame.pc += 1
                    continue
                raise InterpreterError(f"call to unknown @{callee}")

            if op in ("callind", "cfi_icall"):
                target_addr = self._value(frame, insn.operands[0])
                args_values = [self._value(frame, operand)
                               for operand in insn.operands[1:]]
                self.clock.charge("indirect_call")
                if op == "cfi_icall":
                    self.clock.charge("cfi_check")
                    self._cfi_check_icall(target_addr)
                target_fn = self.image.function_at(target_addr)
                if target_fn is None:
                    raise InterpreterError(
                        f"indirect call to non-entry address "
                        f"{target_addr:#x}")
                if len(call_stack) >= self.limits.max_call_depth:
                    raise InterpreterError("call depth exceeded")
                return_addr = frame.function.base + frame.pc + 1
                sp = self._push_return(frame.sp, return_addr)
                call_stack.append(frame)
                frame = self._make_frame(target_fn, args_values, sp,
                                         insn.result)
                continue

            # -- straight-line ----------------------------------------------------
            self._execute_simple(frame, insn)
            frame.pc += 1

    def _make_frame(self, function: NativeFunction, args: list[int],
                    ret_slot: int, result_reg: str | None) -> "_Frame":
        if len(args) != len(function.params):
            raise InterpreterError(
                f"@{function.name} takes {len(function.params)} args, "
                f"got {len(args)}")
        regs = dict(zip(function.params, args))
        return _Frame(function, regs, ret_slot, result_reg)

    def _push_return(self, sp: int, return_addr: int) -> int:
        sp = (sp - 8) & _U64
        self.memory.store(sp, 8, return_addr)
        self.clock.charge("mem_access")
        return sp

    # -- CFI ------------------------------------------------------------------------

    def _cfi_violation(self, kind: str, addr: int,
                       message: str) -> CFIViolation:
        self.cfi_violations += 1
        if self.observer is not None and self.observer.enabled:
            self.observer.trace("cfi.violation",
                                f"kind={kind} target={addr:#x}")
        return CFIViolation(message)

    def _cfi_check_return(self, return_addr: int) -> None:
        if return_addr == self.HOST_RETURN:
            return
        if return_addr < KERNEL_START:
            raise self._cfi_violation(
                "ret", return_addr,
                f"return target {return_addr:#x} outside kernel space")
        located = self.image.locate(return_addr)
        if located is None:
            raise self._cfi_violation(
                "ret", return_addr,
                f"return target {return_addr:#x} is not kernel code")
        function, index = located
        if function.insns[index].opcode != "cfi_label":
            raise self._cfi_violation(
                "ret", return_addr,
                f"return target {return_addr:#x} lacks a CFI label")

    def _cfi_check_icall(self, target_addr: int) -> None:
        if target_addr < KERNEL_START:
            raise self._cfi_violation(
                "icall", target_addr,
                f"indirect-call target {target_addr:#x} outside kernel "
                f"space")
        function = self.image.function_at(target_addr)
        if (function is None or not function.insns
                or function.insns[0].opcode != "cfi_label"):
            raise self._cfi_violation(
                "icall", target_addr,
                f"indirect-call target {target_addr:#x} is not a labeled "
                f"function entry")

    # -- simple instructions ----------------------------------------------------------

    def _execute_simple(self, frame: "_Frame", insn) -> None:
        op = insn.opcode
        regs = frame.regs

        if op == "cfi_label":
            self.clock.charge("cfi_label")
            return
        if op == "vgmask":
            self.clock.charge("mask_check")
            address = self._value(frame, insn.operands[0])
            regs[insn.result] = mask_address(address)
            return
        if op == "mov":
            self.clock.charge("instr")
            regs[insn.result] = self._value(frame, insn.operands[0])
            return
        if op == "not":
            self.clock.charge("instr")
            regs[insn.result] = (~self._value(frame, insn.operands[0])
                                 & _U64)
            return
        if op == "alloca":
            self.clock.charge("instr")
            size = self._value(frame, insn.operands[0])
            frame.sp = (frame.sp - _align16(size)) & _U64
            regs[insn.result] = frame.sp
            return
        if op.startswith("load"):
            width = int(op[4:])
            address = self._value(frame, insn.operands[0])
            self.clock.charge("mem_access")
            regs[insn.result] = self.memory.load(address, width)
            return
        if op.startswith("store"):
            width = int(op[5:])
            value = self._value(frame, insn.operands[0])
            address = self._value(frame, insn.operands[1])
            self.clock.charge("mem_access")
            self.memory.store(address, width, value)
            return
        if op == "memcpy":
            dst = self._value(frame, insn.operands[0])
            src = self._value(frame, insn.operands[1])
            length = self._value(frame, insn.operands[2])
            self.clock.charge("copy_per_word", (length + 7) // 8)
            self.memory.copy(dst, src, length)
            return
        if op == "memset":
            dst = self._value(frame, insn.operands[0])
            byte = self._value(frame, insn.operands[1]) & 0xFF
            length = self._value(frame, insn.operands[2])
            self.clock.charge("copy_per_word", (length + 7) // 8)
            self.memory.fill(dst, byte, length)
            return
        if op == "icmp":
            self.clock.charge("instr")
            regs[insn.result] = self._icmp(
                insn.predicate,
                self._value(frame, insn.operands[0]),
                self._value(frame, insn.operands[1]))
            return
        if op == "select":
            self.clock.charge("instr")
            cond = self._value(frame, insn.operands[0])
            regs[insn.result] = self._value(
                frame, insn.operands[1] if cond else insn.operands[2])
            return
        # binary ops
        self.clock.charge("instr")
        a = self._value(frame, insn.operands[0])
        b = self._value(frame, insn.operands[1])
        regs[insn.result] = self._binary(op, a, b)

    @staticmethod
    def _binary(op: str, a: int, b: int) -> int:
        fn = _BINFN.get(op)
        if fn is None:
            raise InterpreterError(f"unknown binary op {op!r}")
        return fn(a, b)

    @staticmethod
    def _icmp(predicate: str, a: int, b: int) -> int:
        fn = _CMPFN.get(predicate)
        if fn is None:
            raise InterpreterError(f"unknown icmp predicate {predicate!r}")
        return fn(a, b)

    def _value(self, frame: "_Frame", operand: Operand) -> int:
        if isinstance(operand, Reg):
            try:
                return frame.regs[operand.name]
            except KeyError:
                raise InterpreterError(
                    f"read of undefined register %{operand.name} in "
                    f"@{frame.function.name}") from None
        if isinstance(operand, Imm):
            return operand.value
        raise InterpreterError(f"unresolved operand {operand!r}")


class _Frame:
    """One activation: registers live in a name-keyed dict."""

    __slots__ = ("function", "pc", "regs", "ret_slot", "sp", "result_reg")

    def __init__(self, function: NativeFunction, regs: dict[str, int],
                 ret_slot: int, result_reg: str | None):
        self.function = function
        self.pc = 0
        self.regs = regs
        self.ret_slot = ret_slot   # stack address holding our return addr
        self.sp = ret_slot         # alloca cursor (grows down)
        self.result_reg = result_reg
