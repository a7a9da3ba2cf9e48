"""SHA-256 (FIPS 180-4), backed by the standard library's ``hashlib``."""

from __future__ import annotations

import hashlib


def sha256(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()
