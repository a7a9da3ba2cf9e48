"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py

Each test boots several systems, so the file takes a few minutes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.inputs import GhostInputs, PostmarkScript, WebFiles
from perfbench.tracing import Tracer
from perfbench.workloads import Ghost, Postmark, Thttpd

SPEC = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _printed(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


def _run(name: str, **kwargs) -> dict:
    kwargs.setdefault("reference", bench.load_reference())
    return bench.run(name, 1, 0.5, False, **kwargs)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = PostmarkScript(3), PostmarkScript(3), PostmarkScript(4)
    assert a.base == b.base != c.base
    assert ([a.next_transaction() for _ in range(50)]
            == [b.next_transaction() for _ in range(50)])
    assert WebFiles(3).digests == WebFiles(3).digests != WebFiles(4).digests
    ga, gb = GhostInputs(3).ops(), GhostInputs(3).ops()
    assert [next(ga) for _ in range(20)] == [next(gb) for _ in range(20)]


def test_postmark_script_sizes_follow_appends():
    script = PostmarkScript(5)
    sizes = dict(script.sizes)
    for _ in range(200):
        first, second = script.next_transaction()
        if first[0] == "append":
            sizes[first[1]] += first[2]
        elif first[0] == "read":
            assert first[2] == sizes[first[1]]
        if second and second[0] == "create":
            sizes[second[1]] = second[2]
        elif second:
            del sizes[second[1]]
    assert sizes == script.sizes


def test_latencies_scale_by_the_probes_around_their_block():
    ops = [bench.Op(0.004, True)] * 5
    probes = [0.002, 0.002, 0.004]
    scaled = bench.scaled_latencies(ops, probes, block=2)
    ref = bench.PROBE_REF_S
    assert scaled == pytest.approx(
        [0.002 * ref / 0.001] * 2 + [0.004 * ref / 0.003] * 2
        + [0.004 * ref / 0.004])


def test_clean_run_has_no_failures_and_matches_the_reference():
    result = _run("thttpd")
    assert result["correct"], result["details"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert _printed(result["metrics"]) == _declared("end_to_end")
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_wrong_reference_fails_every_op():
    reference = bench.load_reference()
    wrong = {**reference,
             "ghost": {**reference["ghost"],
                       "cycles": reference["ghost"]["cycles"] + 1}}
    result = _run("ghost", reference=wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("reference fingerprint mismatch" in d
               for d in result["details"])


def _corrupt_web_files(w, system):
    for path in w.web.by_size[1024]:
        system.write_file(path, b"x" * 1024)


def _truncate_mail(w, system):
    for name in w.script.live:
        system.kernel.vfs.resolve(name)[0].truncate(0)


def _zero_ghost_page(w, system):
    frame = system.kernel.vm.ghosts.frame_for(w.holder_proc.pid,
                                              w.holder.addrs[0])
    system.machine.phys.write(frame * 4096, b"\0" * 16)


@pytest.mark.parametrize("workload, corrupt", [
    (Thttpd, _corrupt_web_files),
    (Postmark, _truncate_mail),
    (Ghost, _zero_ghost_page),
])
def test_corrupted_output_counts_as_failed(monkeypatch, workload, corrupt):
    prepare = workload.prepare

    def prepare_then_corrupt(self, system):
        prepare(self, system)
        corrupt(self, system)

    monkeypatch.setattr(workload, "prepare", prepare_then_corrupt)
    phase = bench.Phase(workload.name, 1, bench.count_stop(40))
    assert phase.failed > 0
    details = [op.detail for op in phase.ops if not op.ok] + phase.problems
    assert details


def test_traced_run_reports_every_layer_metric_and_keeps_the_fingerprint():
    result = bench.run("ghost", 1, 0.5, True,
                       reference=bench.load_reference())
    assert result["correct"], result["details"]
    metrics = result["metrics"]
    assert _printed(metrics) == _declared("per_layer")
    assert metrics["compiler.interp_runs"][0] == 0
    for name in ("crypto.aes_blocks", "crypto.sha256_bytes",
                 "core.vm.ghost_swaps", "core.vm.exec_validations",
                 "userland.wrapper_bytes", "kernel.syscalls.calls",
                 "hardware.nic.bytes", "hardware.clock.charges"):
        assert metrics[name][0] > 0, name
    assert metrics["setup.crypto.rsa_keygens"][0] >= 1
    assert metrics["trace.overhead_x"][0] > 0


def test_tracer_uninstall_restores_every_original():
    from repro.crypto import hmac, rsa
    from repro.hardware.clock import CycleClock
    from repro.kernel.simplefs import SimpleFSVnode
    before = (hmac.sha256, rsa.RSAKeyPair.__dict__["generate"],
              CycleClock.charge, SimpleFSVnode.read_dirent)
    tracer = Tracer()
    tracer.install()
    try:
        assert hmac.sha256 is not before[0]
        assert CycleClock.charge is not before[2]
    finally:
        tracer.uninstall()
    assert before == (hmac.sha256, rsa.RSAKeyPair.__dict__["generate"],
                      CycleClock.charge, SimpleFSVnode.read_dirent)
