"""Code generation: lower verified IR to a linked, signable native image.

"Native code" is a flat array of lowered instructions per function; each
instruction occupies one unit of code address space, so every instruction
has a concrete kernel-text address (``function.base + index``). Return
addresses are real data (stored to the stack through the memory port), so
control-flow attacks -- and the CFI checks that stop them -- behave as
they do on real hardware.

The SVA VM signs every translation with its translation key and verifies
the signature before execution (the paper: the VM "caches and signs the
translations").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.compiler.ir import (FuncRef, Function, GlobalRef, Imm,
                               Instruction, Module, Operand, Reg)
from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.errors import CompilerError, SignatureError


@dataclass
class NativeInsn:
    """One lowered instruction. Operands are ``Reg`` or ``Imm`` only;
    direct-call targets live in ``callee``; branch targets are absolute
    instruction indices within the owning function."""

    opcode: str
    result: str | None = None
    operands: list[Operand] = field(default_factory=list)
    predicate: str | None = None
    targets: list[int] = field(default_factory=list)
    callee: str | None = None           # for direct `call`

    def serialize(self) -> str:
        ops = ",".join(str(op) for op in self.operands)
        return (f"{self.opcode}|{self.result}|{ops}|{self.predicate}"
                f"|{self.targets}|{self.callee}")


@dataclass
class NativeFunction:
    name: str
    base: int                       # code address of instruction 0
    params: list[str]
    insns: list[NativeInsn]

    @property
    def end(self) -> int:
        return self.base + len(self.insns)


class NativeImage:
    """A translated module: functions at code addresses + a data segment."""

    def __init__(self, module_name: str, code_base: int, data_base: int):
        self.module_name = module_name
        self.code_base = code_base
        self.data_base = data_base
        self.functions: dict[str, NativeFunction] = {}
        self.externs: set[str] = set()
        self.global_addrs: dict[str, int] = {}
        self.global_inits: dict[str, bytes] = {}
        self.data_size = 0
        self.signature: bytes | None = None
        self._addr_index: dict[int, NativeFunction] = {}
        self._locate_bases: list[int] | None = None
        self._locate_funcs: list[NativeFunction] = []
        self._locate_cache: dict[int, tuple[NativeFunction, int]] = {}

    # -- lookup ---------------------------------------------------------------

    def function_addr(self, name: str) -> int:
        return self.functions[name].base

    def function_at(self, addr: int) -> NativeFunction | None:
        """Resolve an address to a function *entry point*, else None."""
        return self._addr_index.get(addr)

    def locate(self, addr: int) -> tuple[NativeFunction, int] | None:
        """Resolve a code address to (function, instruction index).

        Functions occupy disjoint address ranges, so the lookup is a
        bisect over bases (returns and indirect calls resolve addresses
        on every hop; a linear scan here dominated large-module runs).
        Resolved addresses are memoized -- return sites repeat massively
        -- and the memo is dropped whenever the function set changes.
        """
        cached = self._locate_cache.get(addr)
        if cached is not None:
            return cached
        bases = self._locate_bases
        if bases is None or len(self._locate_funcs) != len(self.functions):
            self._locate_funcs = sorted(self.functions.values(),
                                        key=lambda f: f.base)
            bases = self._locate_bases = [f.base
                                          for f in self._locate_funcs]
            self._locate_cache.clear()
        index = bisect_right(bases, addr) - 1
        if index >= 0:
            function = self._locate_funcs[index]
            if function.base <= addr < function.end:
                result = (function, addr - function.base)
                self._locate_cache[addr] = result
                return result
        return None

    @property
    def code_size(self) -> int:
        return sum(len(f.insns) for f in self.functions.values())

    # -- integrity -------------------------------------------------------------

    def payload_digest_input(self) -> bytes:
        parts = [self.module_name, str(self.code_base), str(self.data_base)]
        for name in sorted(self.functions):
            function = self.functions[name]
            parts.append(f"fn {name}@{function.base}"
                         f"({','.join(function.params)})")
            parts.extend(insn.serialize() for insn in function.insns)
        for name in sorted(self.global_addrs):
            parts.append(f"gv {name}@{self.global_addrs[name]}"
                         f"={self.global_inits[name].hex()}")
        return "\n".join(parts).encode()

    def sign(self, key: bytes) -> None:
        self.signature = hmac_sha256(key, self.payload_digest_input())

    def verify(self, key: bytes) -> None:
        if self.signature is None:
            raise SignatureError(
                f"translation of {self.module_name!r} is unsigned")
        expected = hmac_sha256(key, self.payload_digest_input())
        if not constant_time_equal(self.signature, expected):
            raise SignatureError(
                f"translation of {self.module_name!r} fails verification "
                f"(tampered native code)")


class CodeGenerator:
    """Lowers a verified module into a :class:`NativeImage`."""

    def __init__(self, code_base: int, data_base: int):
        self.code_base = code_base
        self.data_base = data_base

    def generate(self, module: Module) -> NativeImage:
        image = NativeImage(module.name, self.code_base, self.data_base)
        image.externs = set(module.externs)

        offset = 0
        for name, var in module.globals.items():
            image.global_addrs[name] = self.data_base + offset
            image.global_inits[name] = var.initial_bytes()
            offset += _align(var.size, 16)
        image.data_size = offset

        code_cursor = self.code_base
        # First assign bases (so forward references to function addresses
        # resolve), then lower bodies.
        bases: dict[str, int] = {}
        for name, function in module.functions.items():
            bases[name] = code_cursor
            code_cursor += sum(len(b.instructions) for b in function.blocks)

        for name, function in module.functions.items():
            native = self._lower_function(module, image, function,
                                          bases, bases[name])
            image.functions[name] = native
            image._addr_index[native.base] = native
        return image

    def _lower_function(self, module: Module, image: NativeImage,
                        function: Function, bases: dict[str, int],
                        base: int) -> NativeFunction:
        # Block label -> absolute instruction index within the function.
        block_index: dict[str, int] = {}
        cursor = 0
        for block in function.blocks:
            block_index[block.label] = cursor
            cursor += len(block.instructions)

        insns: list[NativeInsn] = []
        for block in function.blocks:
            for insn in block.instructions:
                insns.append(self._lower_insn(module, image, insn,
                                              bases, block_index))
        return NativeFunction(name=function.name, base=base,
                              params=list(function.params), insns=insns)

    def _lower_insn(self, module: Module, image: NativeImage,
                    insn: Instruction, bases: dict[str, int],
                    block_index: dict[str, int]) -> NativeInsn:
        callee: str | None = None
        operands: list[Operand] = []
        source_operands = insn.operands
        if insn.opcode == "call":
            target = source_operands[0]
            if not isinstance(target, FuncRef):
                raise CompilerError("call without a FuncRef callee")
            callee = target.name
            source_operands = source_operands[1:]
        for operand in source_operands:
            operands.append(self._lower_operand(module, image, operand,
                                                bases))
        targets = [block_index[label] for label in insn.targets]
        return NativeInsn(opcode=insn.opcode, result=insn.result,
                          operands=operands, predicate=insn.predicate,
                          targets=targets, callee=callee)

    def _lower_operand(self, module: Module, image: NativeImage,
                       operand: Operand, bases: dict[str, int]) -> Operand:
        if isinstance(operand, (Reg, Imm)):
            return operand
        if isinstance(operand, FuncRef):
            if operand.name not in bases:
                raise CompilerError(
                    f"address taken of non-module function "
                    f"@{operand.name}")
            return Imm(bases[operand.name])
        if isinstance(operand, GlobalRef):
            name = operand.name
            if name in image.global_addrs:
                return Imm(image.global_addrs[name])
            if name in bases:
                return Imm(bases[name])
            if name in module.externs:
                raise CompilerError(
                    f"cannot take the address of extern @{name}")
            raise CompilerError(f"unresolved symbol @{name}")
        raise CompilerError(f"cannot lower operand {operand!r}")


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment
