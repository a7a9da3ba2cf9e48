"""Crypto primitives against reference implementations and vectors."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128
from repro.crypto.drbg import HmacDRBG
from repro.crypto.hmac import constant_time_equal, hmac_sha256
from repro.crypto.modes import (cbc_decrypt, cbc_encrypt, ctr_keystream,
                                ctr_xcrypt, pkcs7_pad, pkcs7_unpad)
from repro.crypto.sha256 import sha256


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
