"""Crypto primitives against reference implementations and vectors."""

import hashlib
import hmac as stdlib_hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.swap import SwapService
from repro.crypto.aes import AES128
from repro.crypto.drbg import HmacDRBG
from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.modes import (cbc_decrypt, cbc_encrypt, ctr_keystream,
                                ctr_xcrypt, pkcs7_pad, pkcs7_unpad)
from repro.crypto.sha256 import sha256
from repro.hardware.clock import CycleClock
from repro.hardware.memory import PAGE_SIZE
from repro.userland.apps.ssh import _session_encrypt


# -- SHA-256 --------------------------------------------------------------------

@pytest.mark.parametrize("message", [
    b"", b"abc", b"a" * 55, b"a" * 56, b"a" * 64, b"a" * 1000,
    bytes(range(256)),
])
def test_sha256_matches_hashlib(message):
    assert sha256(message) == hashlib.sha256(message).digest()


@given(st.binary(max_size=512))
@settings(max_examples=60, deadline=None)
def test_sha256_matches_hashlib_random(message):
    assert sha256(message) == hashlib.sha256(message).digest()


# -- AES -----------------------------------------------------------------------------

def test_aes_fips197_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert AES128(key).encrypt_block(plaintext) == expected


def test_aes_fips197_vector_decrypts():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    ciphertext = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    expected = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert AES128(key).decrypt_block(ciphertext) == expected


def test_aes_all_zero_vector():
    # NIST AESAVS GFSbox-adjacent check: all-zero key/plaintext
    key = bytes(16)
    expected = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")
    assert AES128(key).encrypt_block(bytes(16)) == expected


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16,
                                                      max_size=16))
@settings(max_examples=40, deadline=None)
def test_aes_decrypt_inverts_encrypt(key, block):
    cipher = AES128(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


def test_aes_rejects_bad_key_and_block():
    with pytest.raises(ValueError):
        AES128(b"short")
    with pytest.raises(ValueError):
        AES128(bytes(16)).encrypt_block(b"short")


# -- modes -----------------------------------------------------------------------------

@given(st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_pkcs7_roundtrip(data):
    assert pkcs7_unpad(pkcs7_pad(data)) == data


def test_pkcs7_rejects_bad_padding():
    with pytest.raises(ValueError):
        pkcs7_unpad(b"\x00" * 16)
    with pytest.raises(ValueError):
        pkcs7_unpad(b"123")


@given(st.binary(max_size=200), st.binary(min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_cbc_roundtrip(data, iv):
    cipher = AES128(b"k" * 16)
    assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data


@given(st.binary(max_size=200))
@settings(max_examples=30, deadline=None)
def test_ctr_is_involutive(data):
    cipher = AES128(b"k" * 16)
    nonce = bytes(16)
    assert ctr_xcrypt(cipher, nonce, ctr_xcrypt(cipher, nonce,
                                                data)) == data


def test_ctr_keystream_deterministic_and_extending():
    cipher = AES128(b"k" * 16)
    short = ctr_keystream(cipher, bytes(16), 10)
    longer = ctr_keystream(cipher, bytes(16), 50)
    assert longer[:10] == short


# NIST SP 800-38A appendix F: AES-128 key and the four plaintext blocks
_SP800_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_SP800_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710")


def test_ctr_sp800_38a_f51_vector():
    nonce = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    expected = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce" "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab" "1e031dda2fbe03d1792170a0f3009cee")
    cipher = AES128(_SP800_KEY)
    assert ctr_xcrypt(cipher, nonce, _SP800_PLAINTEXT) == expected
    assert ctr_xcrypt(cipher, nonce, expected) == _SP800_PLAINTEXT
    assert ctr_xcrypt(cipher, nonce, _SP800_PLAINTEXT[:5]) == expected[:5]


def test_cbc_sp800_38a_f21_vector():
    iv = bytes(range(16))
    expected = bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d" "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516" "3ff1caa1681fac09120eca307586e1a7")
    cipher = AES128(_SP800_KEY)
    ciphertext = cbc_encrypt(cipher, iv, _SP800_PLAINTEXT)
    assert ciphertext[:64] == expected
    assert len(ciphertext) == 80            # plus one PKCS#7 padding block
    assert cbc_decrypt(cipher, iv, ciphertext) == _SP800_PLAINTEXT


# Digests of outputs recorded with the byte-at-a-time FIPS 197 cipher and
# per-byte XOR loops that the table-driven code replaced: the rewrite must
# not move one output byte.

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_aes_matches_recorded_outputs_on_random_keys():
    rng = random.Random(20140301)
    encrypted, decrypted = hashlib.sha256(), hashlib.sha256()
    for _ in range(1000):
        cipher = AES128(rng.randbytes(16))
        block = rng.randbytes(16)
        encrypted.update(cipher.encrypt_block(block))
        decrypted.update(cipher.decrypt_block(block))
    assert encrypted.hexdigest() == (
        "730c42f4eaa40cf44e26cd6c46a3bac6575413e475a2fe10ccd78fc6b480f669")
    assert decrypted.hexdigest() == (
        "16f782a92bdb5ac057712a2f0b9795e88356f0b54fa2f15538a595b641a735fe")


def test_modes_match_recorded_outputs():
    rng = random.Random(65541)
    data = rng.randbytes(65541)               # 4,096 blocks and a tail
    cipher = AES128(rng.randbytes(16))
    nonce = rng.randbytes(16)
    assert _digest(ctr_xcrypt(cipher, nonce, data)) == (
        "d04a7d2acbc9c42f610c4099839e242e408f9e54ce473d800dc901ecd06e495c")
    # the 128-bit counter wraps to zero
    top = (2 ** 128 - 3).to_bytes(16, "big")
    assert _digest(ctr_keystream(cipher, top, 100)) == (
        "e95faa2083bb0c2d20c9d52d276268f8aa16a3d5c45474e80f5aca131a3a54e9")
    assert _digest(cbc_encrypt(cipher, nonce, data[:1000])) == (
        "f6de3a187a72d87acdf624d603ca76afcb06fab7271a675cf14f10abcd29e9e7")


def test_ssh_session_cipher_matches_recorded_output():
    data = random.Random(102400).randbytes(100 * 1024)
    encrypted = _session_encrypt(data)
    assert _digest(encrypted) == (
        "d57e50ba17f1c12445c54e30a63f68fca548848b6a2c66f5568831c21f82ce94")
    assert _session_encrypt(encrypted) == data


def test_swap_blob_matches_recorded_output():
    page = random.Random(4096).randbytes(PAGE_SIZE)
    swap = SwapService(b"s" * 32, CycleClock())
    blob = swap.protect_page(7, 0xFFFF_FF00_0000_1000, page)
    assert _digest(blob) == (
        "9fa13a3254cb00f8dbb4408f626f390f18c88b286ef4f344bd454b0947c8592c")
    assert swap.recover_page(7, 0xFFFF_FF00_0000_1000, blob) == page


def test_cbc_differs_from_plaintext():
    cipher = AES128(b"k" * 16)
    ct = cbc_encrypt(cipher, bytes(16), b"attack at dawn")
    assert b"attack" not in ct


# -- HMAC --------------------------------------------------------------------------------

@given(st.binary(max_size=100), st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_hmac_matches_stdlib(key, message):
    assert hmac_sha256(key, message) == stdlib_hmac.new(
        key, message, hashlib.sha256).digest()


def test_hmac_long_key_hashed_first():
    key = b"K" * 100
    assert hmac_sha256(key, b"m") == stdlib_hmac.new(
        key, b"m", hashlib.sha256).digest()


def test_constant_time_equal():
    assert constant_time_equal(b"abc", b"abc")
    assert not constant_time_equal(b"abc", b"abd")
    assert not constant_time_equal(b"abc", b"abcd")


# -- DRBG ---------------------------------------------------------------------------------

def test_drbg_deterministic():
    assert HmacDRBG(b"seed").generate(64) == HmacDRBG(b"seed").generate(64)


def test_drbg_seed_sensitivity():
    assert HmacDRBG(b"a").generate(32) != HmacDRBG(b"b").generate(32)


def test_drbg_sequential_outputs_differ():
    drbg = HmacDRBG(b"seed")
    assert drbg.generate(32) != drbg.generate(32)


def test_drbg_reseed_changes_stream():
    a = HmacDRBG(b"seed")
    b = HmacDRBG(b"seed")
    a.reseed(b"more entropy")
    assert a.generate(32) != b.generate(32)


@given(st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=40, deadline=None)
def test_drbg_randint_in_range(upper):
    drbg = HmacDRBG(b"seed")
    for _ in range(5):
        assert 0 <= drbg.randint(upper) < upper


def test_drbg_rejects_bad_args():
    drbg = HmacDRBG(b"s")
    with pytest.raises(ValueError):
        drbg.generate(-1)
    with pytest.raises(ValueError):
        drbg.randint(0)
