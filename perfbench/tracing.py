"""Per-layer host-time tracing, installed from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(module) in place: class methods on the class, module-level functions at
every module that bound them with ``from ... import``. Nothing in ``src/``
knows about it, and :meth:`Tracer.uninstall` puts every original back.

Three kinds of wrapper:

``span``
    Records a span when the call enters the layer from another layer;
    calls within the same layer only count. A layer's self time is its
    spans' time minus the time of the child spans of other layers.
``count``
    Counts calls and nothing else. Used on hot inner functions, whose
    time stays in their caller's self time.
``sampled``
    Counts calls and times every ``SAMPLE_EVERY``-th one. Its self time
    is the sampled time scaled up, an estimate that also sits inside the
    callers' self time.

User programs run as generators that the scheduler resumes; each
resumption of a program's ``main`` is a ``userland`` span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

SAMPLE_EVERY = 16


def _nbytes(index: int) -> Callable:
    return lambda args: len(args[index])


def _arg(index: int) -> Callable:
    return lambda args: args[index]


#: (layer, target, mode, counters). A target is ``module:Class`` (every
#: public method the class defines), ``module:Class.method`` or
#: ``module:function``. ``counters`` maps a method name (``*`` for any)
#: to the metrics it adds to: one per call, or ``amount(args)``.
TARGETS: list[tuple[str, str, str, dict]] = [
    ("system", "repro.system:System", "span", {}),
    ("crypto", "repro.crypto.sha256:sha256", "span",
     {"*": [("crypto.sha256_bytes", _nbytes(0))]}),
    ("crypto", "repro.crypto.hmac:hmac_sha256", "span", {}),
    ("crypto", "repro.crypto.signing:authenticated_encrypt", "span", {}),
    ("crypto", "repro.crypto.signing:authenticated_decrypt", "span", {}),
    ("crypto", "repro.crypto.signing:sign_blob", "span", {}),
    ("crypto", "repro.crypto.signing:verify_blob", "span", {}),
    ("crypto", "repro.crypto.aes:AES128", "span",
     {"encrypt_block": [("crypto.aes_blocks", None)],
      "decrypt_block": [("crypto.aes_blocks", None)]}),
    ("crypto", "repro.crypto.rsa:RSAKeyPair", "span",
     {"generate": [("crypto.rsa_keygens", None)]}),
    ("crypto", "repro.crypto.rsa:RSAPublicKey", "span", {}),
    ("crypto", "repro.crypto.drbg:HmacDRBG", "span", {}),
    ("core.vm", "repro.core.vm:SVAVM", "span",
     {"trap_enter": [("core.vm.traps", None)],
      "swap_out_ghost": [("core.vm.ghost_swaps", None)],
      "swap_in_ghost": [("core.vm.ghost_swaps", None)],
      "validate_exec": [("core.vm.exec_validations", None)]}),
    ("kernel", "repro.kernel.kernel:Kernel", "span",
     {"switch_to": [("kernel.sched.slices", None)]}),
    ("kernel", "repro.kernel.vfs:VFS", "span", {}),
    ("kernel.sched", "repro.kernel.kernel:Scheduler", "span", {}),
    ("kernel.syscalls", "repro.kernel.syscalls:dispatch", "span",
     {"*": [("kernel.syscalls.calls", None)]}),
    ("kernel.memory", "repro.kernel.memory:VirtualMemoryManager", "span",
     {"handle_fault": [("kernel.memory.page_faults", None)]}),
    ("kernel.simplefs", "repro.kernel.simplefs:SimpleFS", "span", {}),
    ("kernel.simplefs", "repro.kernel.simplefs:SimpleFSVnode", "span",
     {"lookup": [("kernel.simplefs.name_ops", None)],
      "create": [("kernel.simplefs.name_ops", None)],
      "unlink": [("kernel.simplefs.name_ops", None)]}),
    ("kernel.simplefs", "repro.kernel.simplefs:SimpleFSVnode.read_dirent",
     "count", {"*": [("kernel.simplefs.dirents_scanned", None)]}),
    ("kernel.net", "repro.kernel.net.stack:NetworkStack", "span", {}),
    ("remote", "repro.userland.apps.thttpd:HttpClient", "span", {}),
    ("remote", "repro.userland.apps.ssh:RemoteSshServer", "span", {}),
    ("kernel.net", "repro.kernel.net.stack:Connection", "span", {}),
    ("kernel.net", "repro.kernel.net.socket:SocketVnode", "span", {}),
    ("kernel.net", "repro.kernel.net.socket:ListenVnode", "span", {}),
    ("kernel.context", "repro.kernel.context:KernelContext", "span", {}),
    ("kernel.context", "repro.kernel.context:KernelContext.work", "count",
     {"*": [("kernel.context.work_calls", None)]}),
    ("hardware.disk", "repro.hardware.disk:Disk", "span",
     {"read_sectors": [("hardware.disk.sectors_read", _arg(2))]}),
    ("hardware.nic", "repro.hardware.nic:NIC", "span",
     {"send": [("hardware.nic.bytes", _nbytes(1))],
      "deliver": [("hardware.nic.bytes", _nbytes(1))]}),
    ("hardware.mmu", "repro.hardware.mmu:PageTableEditor", "span", {}),
    ("hardware.mmu", "repro.hardware.mmu:MMU", "span", {}),
    ("hardware.mmu", "repro.hardware.mmu:MMU.translate", "count",
     {"*": [("hardware.mmu.translations", None)]}),
    ("hardware.clock", "repro.hardware.clock:CycleClock.charge", "sampled",
     {"*": [("hardware.clock.charges", None)]}),
    ("hardware.clock", "repro.hardware.clock:CycleClock.charge_batch",
     "sampled", {"*": [("hardware.clock.charges", None)]}),
    ("hardware.clock", "repro.hardware.clock:CycleClock.charge_cycles",
     "sampled", {"*": [("hardware.clock.charges", None)]}),
    ("compiler", "repro.compiler.interp:Interpreter.run", "count",
     {"*": [("compiler.interp_runs", None)]}),
    ("compiler", "repro.compiler.interp:Interpreter.run_addr", "count",
     {"*": [("compiler.interp_runs", None)]}),
    ("userland", "repro.userland.wrappers:GhostWrappers.read", "count",
     {"*": [("userland.wrapper_bytes", _arg(3))]}),
    ("userland", "repro.userland.wrappers:GhostWrappers.write", "count",
     {"*": [("userland.wrapper_bytes", _arg(3))]}),
    ("userland", "repro.userland.wrappers:GhostWrappers.read_bytes",
     "count", {"*": [("userland.wrapper_bytes", _arg(2))]}),
    ("userland", "repro.userland.wrappers:GhostWrappers.write_bytes",
     "count", {"*": [("userland.wrapper_bytes", _nbytes(2))]}),
]


class Tracer:
    """Layer spans and counts, kept in memory."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.span_ns: dict[str, int] = defaultdict(int)
        self.sampled_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: time covered by spans entered with no span open
        self.top_ns = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _call(self, layer: str, fn: Callable, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            self.self_ns[layer] += elapsed - frame[1]
            self.span_ns[layer] += elapsed
            if stack:
                stack[-1][1] += elapsed
            else:
                self.top_ns += elapsed

    def _wrap(self, layer: str, mode: str, fn: Callable,
              counters: list) -> Callable:
        counts = self.counts

        def add(args) -> None:
            for metric, amount in counters:
                counts[metric] += 1 if amount is None else amount(args)

        if mode == "span":
            def wrapper(*args, **kwargs):
                add(args)
                return self._call(layer, fn, args, kwargs)
        elif mode == "count":
            def wrapper(*args, **kwargs):
                add(args)
                return fn(*args, **kwargs)
        else:
            calls = [0]
            sampled = self.sampled_ns

            def wrapper(*args, **kwargs):
                add(args)
                calls[0] += 1
                if calls[0] % SAMPLE_EVERY:
                    return fn(*args, **kwargs)
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sampled[layer] += time.perf_counter_ns() - start
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _wrap_program_main(self, fn: Callable) -> Callable:
        def main(program, env):
            return self._resumptions(fn(program, env))
        main.__wrapped__ = fn
        return main

    def _resumptions(self, gen):
        value = None
        while True:
            try:
                request = self._call("userland", gen.send, (value,), {})
            except StopIteration as stop:
                return stop.value
            value = yield request

    # -- installing --------------------------------------------------------------

    def _patch(self, owner: object, name: str, new: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _patch_method(self, cls: type, name: str, layer: str, mode: str,
                      counters: list) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(layer, mode, raw.__func__,
                                           counters))
        else:
            wrapped = self._wrap(layer, mode, raw, counters)
        self._patch(cls, name, wrapped)

    def _patch_function(self, fn: Callable, layer: str, mode: str,
                        counters: list) -> None:
        wrapped = self._wrap(layer, mode, fn, counters)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if (namespace is None or not getattr(module, "__name__", "")
                    .startswith(("repro", "perfbench"))):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every target; raises if one no longer exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        methods = {target for _, target, _, _ in TARGETS}
        for layer, target, mode, counters in TARGETS:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, method = qualname.partition(".")
            owner = getattr(module, owner_name)
            if method:
                self._patch_method(owner, method, layer, mode,
                                   counters.get("*", []))
            elif inspect.isclass(owner):
                for name, raw in list(vars(owner).items()):
                    func = getattr(raw, "__func__", raw)
                    if (name.startswith("_") or not inspect.isfunction(func)
                            or f"{target}.{name}" in methods):
                        continue
                    self._patch_method(owner, name, layer, mode,
                                       counters.get(name, []))
            else:
                self._patch_function(owner, layer, mode,
                                     counters.get("*", []))
        self._install_programs()

    def _install_programs(self) -> None:
        from repro.kernel.proc import Program
        pending = list(Program.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for name in ("main", "child_main"):
                raw = cls.__dict__.get(name)
                if inspect.isgeneratorfunction(raw):
                    self._patch(cls, name, self._wrap_program_main(raw))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Cumulative totals: ``<layer>.self_s``, ``<layer>.span_s``,
        ``<layer>.sampled_s`` (already scaled), the counters and
        ``trace.covered_s``."""
        out: dict[str, float] = dict(self.counts)
        for layer, ns in self.self_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        for layer, ns in self.span_ns.items():
            out[f"{layer}.span_s"] = ns / 1e9
        for layer, ns in self.sampled_ns.items():
            out[f"{layer}.sampled_s"] = ns * SAMPLE_EVERY / 1e9
        out["trace.covered_s"] = self.top_ns / 1e9
        return out
