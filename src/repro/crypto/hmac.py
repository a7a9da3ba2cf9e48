"""HMAC-SHA256 (RFC 2104)."""

from __future__ import annotations

from hmac import compare_digest

from repro.crypto.sha256 import sha256

_BLOCK = 64


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return the 32-byte HMAC-SHA256 tag of ``message`` under ``key``."""
    if len(key) > _BLOCK:
        key = sha256(key)
    key = key + bytes(_BLOCK - len(key))
    inner = bytes(b ^ 0x36 for b in key)
    outer = bytes(b ^ 0x5C for b in key)
    return sha256(outer + sha256(inner + message))


#: Compare two byte strings in time independent of where they differ.
constant_time_equal = compare_digest
