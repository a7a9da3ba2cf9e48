"""OpenSSH transfer-rate experiments (paper Figures 3 and 4).

* Figure 3: the (non-ghosting) sshd serves files to a remote scp client;
  bandwidth native-vs-VG isolates kernel-side instrumentation cost.
* Figure 4: the ghosting vs non-ghosting ssh client pulls files from a
  remote server, both on the Virtual Ghost kernel; the difference
  isolates ghost memory + wrapper staging cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.clock import cycles_to_seconds
from repro.system import System
from repro.userland.apps.ssh import RemoteSshServer, SshClient
from repro.userland.apps.ssh_keygen import SshKeygen
from repro.userland.apps.sshd import SSHD_PORT, RemoteScpClient, SshServer
from repro.userland.apps.sshkeys import (deserialize_private,
                                         serialize_private)
from repro.userland.loader import derive_app_key
from repro.workloads.webserver import make_random_file

#: Figures 3/4 x-axis (bytes); the paper sweeps 1 KB .. 1 MB.
FILE_SIZES = (1024, 8192, 65536, 262144, 1048576)

_SUITE_KEY = derive_app_key("openssh-suite")


@dataclass
class TransferPoint:
    size: int
    kb_per_sec: float


def run_sshd_bandwidth(config, *, size: int, transfers: int = 6,
                       memory_mb: int = 96) -> TransferPoint:
    """Figure 3: server under test, remote client downloading."""
    system = System.create(config, memory_mb=memory_mb)
    filename = f"/pub{size}.bin"
    system.write_file(filename, make_random_file(size, b"sshfile"))

    server = SshServer()
    system.install("/bin/sshd", server, app_key=_SUITE_KEY)
    system.spawn("/bin/sshd")
    system.run(max_slices=100_000)
    if not server.running:
        raise RuntimeError("sshd failed to start")

    clock = system.machine.clock
    start = clock.cycles
    total = 0
    for _ in range(transfers):
        client = RemoteScpClient(filename, signer=None)
        system.kernel.net.remote_connect(SSHD_PORT, client)
        system.run(until=lambda: client.done, max_slices=2_000_000)
        if client.bytes_received < size:
            raise RuntimeError(
                f"transfer failed: {client.bytes_received}/{size}")
        total += client.bytes_received
    elapsed = cycles_to_seconds(clock.cycles - start)
    return TransferPoint(size=size, kb_per_sec=total / 1024 / elapsed)


def run_ssh_client_bandwidth(config, *, size: int, ghosting: bool,
                             transfers: int = 6,
                             memory_mb: int = 96) -> TransferPoint:
    """Figure 4: client under test, pulling from a remote server."""
    system = System.create(config, memory_mb=memory_mb)
    filename = f"file{size}.bin"
    contents = make_random_file(size, b"remotefile")

    # provision the authentication key (as ssh-keygen would)
    keygen = SshKeygen()
    system.install("/bin/ssh-keygen", keygen, app_key=_SUITE_KEY)
    proc = system.spawn("/bin/ssh-keygen", argv=("/id_rsa",))
    if system.run_until_exit(proc) != 0:
        raise RuntimeError("ssh-keygen failed")
    # plaintext copy for the non-ghosting variant (which has no app key)
    plain = serialize_private(
        deserialize_private(_decrypt_keyfile(system, "/id_rsa")))
    system.write_file("/id_rsa.plain", plain)

    client = SshClient(ghosting=ghosting)
    system.install("/bin/ssh", client, app_key=_SUITE_KEY)
    system.kernel.net.register_remote_service(
        "server", 22,
        lambda: RemoteSshServer({filename: contents}, verify_auth=False))

    clock = system.machine.clock
    start = clock.cycles
    total = 0
    for _ in range(transfers):
        proc = system.spawn("/bin/ssh",
                            argv=("server", 22, filename, "/id_rsa"))
        status = system.run_until_exit(proc, max_slices=2_000_000)
        if status != 0:
            raise RuntimeError(f"ssh client exited {status}")
        total += client.bytes_received
    elapsed = cycles_to_seconds(clock.cycles - start)
    return TransferPoint(size=size, kb_per_sec=total / 1024 / elapsed)


def _decrypt_keyfile(system: System, path: str) -> bytes:
    """Admin-side decryption of the key file (provisioning the plaintext
    variant for the non-ghosting client)."""
    from repro.crypto.signing import authenticated_decrypt
    blob = system.read_file(path)
    return authenticated_decrypt(_SUITE_KEY, blob, aad=path.encode())
