"""ssh: the ghosting client (paper sections 6 and 8.3.2).

The client authenticates with an RSA authentication key -- decrypted from
its encrypted on-disk form with the application key, or obtained by
asking ssh-agent over the local socket -- then pulls a file from the
remote server (the paper transfers files by running ``cat`` remotely).
Transferred data is session-encrypted; the client pays the AES cost per
block in both variants, so the ghosting-vs-plain difference isolates the
cost of ghost memory + wrapper staging (Figure 4). The simulated cost
is charged from the byte count (``clock.charge("aes_block", n)``); the
host computes the session transform as one big-integer XOR of the data
with a repeating pad, so neither the cipher stand-in nor how fast the
host runs it moves a simulated cycle.

Wire protocol (client <-> remote sshd):
    server -> client : 32-byte challenge
    client -> server : 64-byte signature
    client -> server : b"GET " + name + b"\\n"
    server -> client : 8-byte big-endian length, then CTR-encrypted data
"""

from __future__ import annotations

from repro.crypto.modes import xor_bytes
from repro.crypto.sha256 import sha256
from repro.kernel.net.stack import Connection
from repro.kernel.proc import Program
from repro.userland.apps.sshkeys import deserialize_private
from repro.userland.wrappers import GhostWrappers

TRANSFER_CHUNK = 32768

#: Fixed (public) session key: both ends derive it during the handshake.
#: The session channel's *cycle cost* is charged at full AES rates by the
#: endpoints; the transform itself is a cheap repeating-pad XOR so that
#: multi-megabyte simulated transfers do not burn real CPU on Python AES
#: (the at-rest crypto protecting key files remains genuine AES -- see
#: DESIGN.md substitutions).
SESSION_KEY = sha256(b"ssh-session")[:16]
_PAD = (sha256(b"ssh-session-pad") * 512)          # 16 KiB repeating pad


def _session_encrypt(data: bytes) -> bytes:
    pad = (_PAD * (len(data) // len(_PAD) + 1))[:len(data)]
    return xor_bytes(data, pad)


_session_decrypt = _session_encrypt        # XOR is symmetric


class SshClient(Program):
    """argv: (host, port, remote_filename, key_path)."""

    program_id = "ssh-6.2p1"

    def __init__(self, *, ghosting: bool = True):
        self.ghosting = ghosting
        self.bytes_received = 0
        self.auth_ok = False

    def main(self, env):
        host, port, filename, key_path = env.argv
        use_ghost = self.ghosting and env.ghost_available
        heap = env.malloc_init(use_ghost=use_ghost)
        wrappers = GhostWrappers(env)

        # -- obtain the authentication key ---------------------------------
        if use_ghost:
            app_key = env.get_app_key()
            blob = yield from wrappers.load_encrypted(key_path, app_key)
            if blob is None:
                return 1
            heap.store(blob)            # plaintext key into the ghost heap
        else:
            size = yield from env.sys_stat(key_path + ".plain")
            if size < 0:
                return 1
            fd = yield from env.sys_open(key_path + ".plain")
            blob = yield from wrappers.read_bytes(fd, size)
            yield from env.sys_close(fd)
        keypair = deserialize_private(blob)

        # -- connect and authenticate ----------------------------------------
        sock = yield from env.sys_connect(host, port)
        if sock < 0:
            return 1
        challenge = yield from wrappers.read_bytes(sock, 32)
        env.kernel.ctx.clock.charge("rsa_op")
        signature = keypair.sign(challenge)
        yield from wrappers.write_bytes(sock, signature)
        self.auth_ok = True

        # -- request and receive the file -------------------------------------
        yield from wrappers.write_bytes(sock, b"GET " + filename.encode()
                                        + b"\n")
        header = yield from wrappers.read_bytes(sock, 8)
        if len(header) < 8:
            return 1
        total = int.from_bytes(header, "big")

        received = 0
        buf = heap.malloc(TRANSFER_CHUNK) if use_ghost else heap.malloc(
            TRANSFER_CHUNK)
        while received < total:
            want = min(TRANSFER_CHUNK, total - received)
            if use_ghost:
                # staged read into a ghost buffer (bounce + user copy)
                got = yield from wrappers.read(sock, buf, want)
                if got <= 0:
                    break
                ciphertext = env.mem_read(buf, got)
            else:
                got = yield from env.sys_read(sock, buf, want)
                if got <= 0:
                    break
                ciphertext = env.mem_read(buf, got)
            env.kernel.ctx.clock.charge("aes_block",
                                        max(1, (got + 15) // 16))
            plaintext = _session_decrypt(ciphertext)  # noqa: F841
            received += got
        self.bytes_received = received
        yield from env.sys_close(sock)
        return 0 if received == total else 1


class RemoteSshServer:
    """The remote machine's sshd, as a traffic-generating peer.

    Holds a file map and speaks the wire protocol above. Its compute time
    is not charged (the paper measures the machine under test); its bytes
    cross the simulated NIC and are charged there.
    """

    def __init__(self, files: dict[str, bytes], *,
                 verify_auth: bool = True):
        self.files = files
        self.verify_auth = verify_auth
        self._buffer = bytearray()
        self._state = "auth"
        self.challenge = sha256(b"challenge")[:32]
        self.auth_failures = 0

    def on_connect(self, conn: Connection) -> None:
        conn.peer_send(self.challenge)

    def on_data(self, conn: Connection, data: bytes) -> None:
        self._buffer += data
        if self._state == "auth":
            if len(self._buffer) < 64:
                return
            signature = bytes(self._buffer[:64])
            del self._buffer[:64]
            if self.verify_auth and not self._verify(signature):
                self.auth_failures += 1
                conn.peer_close()
                return
            self._state = "request"
        if self._state == "request" and b"\n" in self._buffer:
            line, _, rest = bytes(self._buffer).partition(b"\n")
            self._buffer = bytearray(rest)
            if line.startswith(b"GET "):
                name = line[4:].decode()
                data_out = self.files.get(name, b"")
                conn.peer_send(len(data_out).to_bytes(8, "big"))
                encrypted = _session_encrypt(data_out)
                for offset in range(0, len(encrypted), TRANSFER_CHUNK):
                    conn.peer_send(encrypted[offset:offset
                                             + TRANSFER_CHUNK])
                self._state = "done"

    def _verify(self, signature: bytes) -> bool:
        # The remote server knows the client's public key out of band; in
        # the harness the public key is registered here before the run.
        public = getattr(self, "client_public", None)
        if public is None:
            return True
        return public.verify(self.challenge, signature)

    def on_close(self, conn: Connection) -> None:
        pass
