"""From-scratch cryptographic primitives for the Virtual Ghost chain of trust.

The paper's prototype hard-codes a single AES-128 application key; we
implement the full design: a TPM storage key seals the Virtual Ghost RSA
key pair, which signs application executables and decrypts the per-app key
section, which in turn protects application data at rest and in transit.

AES, HMAC, HMAC-DRBG, and RSA (Miller-Rabin key generation,
PKCS#1-v1.5-style signatures) are implemented in this package; SHA-256
is the standard library's ``hashlib``. Keys are small by real
standards (RSA-1024 by default) because the simulation only needs the
*structure* of the trust chain; ciphertexts are nevertheless genuinely
opaque to the simulated OS.
"""

from repro.crypto.sha256 import sha256
from repro.crypto.hmac import hmac_sha256
from repro.crypto.aes import AES128
from repro.crypto.modes import (cbc_decrypt, cbc_encrypt, ctr_keystream,
                                ctr_xcrypt, pkcs7_pad, pkcs7_unpad)
from repro.crypto.drbg import HmacDRBG
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
from repro.crypto.signing import (authenticated_decrypt, authenticated_encrypt,
                                  sign_blob, verify_blob)

__all__ = [
    "sha256", "hmac_sha256", "AES128",
    "cbc_encrypt", "cbc_decrypt", "ctr_keystream", "ctr_xcrypt",
    "pkcs7_pad", "pkcs7_unpad",
    "HmacDRBG", "RSAKeyPair", "RSAPublicKey",
    "authenticated_encrypt", "authenticated_decrypt",
    "sign_blob", "verify_blob",
]
