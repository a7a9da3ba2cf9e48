"""AES-128 block cipher, implemented from FIPS 197.

Only the 128-bit key size is provided -- it is what the paper's prototype
uses for the application key ("a 128-bit AES application key is hard-coded
into SVA-OS", section 5).

Rounds run on four 32-bit column words through T-tables: each table entry
folds SubBytes, ShiftRows and MixColumns for one byte position into one
lookup. Decryption is the equivalent inverse cipher (FIPS 197 section
5.3.5), whose round keys carry InvMixColumns so that its rounds have the
same table shape.
"""

from __future__ import annotations

import struct


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverse table in GF(2^8) via exp/log tables (generator 3)
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by generator 0x03
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        transformed = inv
        for shift in (1, 2, 3, 4):
            transformed ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = transformed ^ 0x63
    inv_sbox = bytearray(256)
    for value, mapped in enumerate(sbox):
        inv_sbox[mapped] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_tables(box: bytes, column: tuple[int, int, int, int]
                  ) -> tuple[tuple[int, ...], ...]:
    """Four tables: byte -> the MixColumns ``column`` times ``box[byte]``
    as a big-endian word, then that word rotated right by 8, 16, 24."""
    first = [int.from_bytes(bytes(_mul(box[x], c) for c in column), "big")
             for x in range(256)]
    return tuple(tuple(((w >> r) | (w << (32 - r))) & 0xFFFFFFFF
                       for w in first) for r in (0, 8, 16, 24))


_TE = _build_tables(_SBOX, (2, 1, 1, 3))
_TD = _build_tables(_INV_SBOX, (14, 9, 13, 11))
_WORDS = struct.Struct(">4I")


class AES128:
    """AES with a 16-byte key; ``encrypt_block``/``decrypt_block`` only.

    Modes of operation live in :mod:`repro.crypto.modes`.
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._enc_keys = self._expand_key(key)
        self._dec_keys = self._inverse_keys(self._enc_keys)

    @staticmethod
    def _expand_key(key: bytes) -> list[int]:
        """The 44 round-key words of FIPS 197 section 5.2."""
        words = [int.from_bytes(key[i:i + 4], "big") for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                # SubWord(RotWord(temp)) xor Rcon
                temp = ((_SBOX[temp >> 16 & 255] << 24
                         | _SBOX[temp >> 8 & 255] << 16
                         | _SBOX[temp & 255] << 8 | _SBOX[temp >> 24])
                        ^ _RCON[i // 4 - 1] << 24)
            words.append(words[i - 4] ^ temp)
        return words

    @staticmethod
    def _inverse_keys(enc: list[int]) -> list[int]:
        """Round keys of the equivalent inverse cipher: rounds in reverse
        order, InvMixColumns applied to rounds 1-9, and each round's words
        in the column order (0, 3, 2, 1) that ``_rounds`` decrypts in."""
        d0, d1, d2, d3 = _TD
        dec: list[int] = []
        for r in range(10, -1, -1):
            words = enc[4 * r:4 * r + 4]
            if 0 < r < 10:
                # _TD[k][_SBOX[b]] is InvMixColumns of byte b in row k
                words = [d0[_SBOX[w >> 24]] ^ d1[_SBOX[w >> 16 & 255]]
                         ^ d2[_SBOX[w >> 8 & 255]] ^ d3[_SBOX[w & 255]]
                         for w in words]
            dec += (words[0], words[3], words[2], words[1])
        return dec

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        s0, s1, s2, s3 = _WORDS.unpack(block)
        return _WORDS.pack(*_rounds(s0, s1, s2, s3, self._enc_keys, _TE,
                                    _SBOX))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        # InvShiftRows takes row k from column c - k where ShiftRows takes
        # it from c + k: the encryption round shape, with columns 1 and 3
        # swapped on the way in and out
        s0, s3, s2, s1 = _WORDS.unpack(block)
        o0, o3, o2, o1 = _rounds(s0, s1, s2, s3, self._dec_keys, _TD,
                                 _INV_SBOX)
        return _WORDS.pack(o0, o1, o2, o3)


def _rounds(s0: int, s1: int, s2: int, s3: int, rk: list[int], tables,
            box: bytes) -> tuple[int, int, int, int]:
    """Ten rounds over the column words ``s0..s3``: row k of output
    column c comes from input column c + k (mod 4)."""
    t0, t1, t2, t3 = tables
    s0 ^= rk[0]
    s1 ^= rk[1]
    s2 ^= rk[2]
    s3 ^= rk[3]
    for k in range(4, 40, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255]
            ^ t3[s3 & 255] ^ rk[k],
            t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255]
            ^ t3[s0 & 255] ^ rk[k + 1],
            t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255]
            ^ t3[s1 & 255] ^ rk[k + 2],
            t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255]
            ^ t3[s2 & 255] ^ rk[k + 3])
    return (
        (box[s0 >> 24] << 24 | box[s1 >> 16 & 255] << 16
         | box[s2 >> 8 & 255] << 8 | box[s3 & 255]) ^ rk[40],
        (box[s1 >> 24] << 24 | box[s2 >> 16 & 255] << 16
         | box[s3 >> 8 & 255] << 8 | box[s0 & 255]) ^ rk[41],
        (box[s2 >> 24] << 24 | box[s3 >> 16 & 255] << 16
         | box[s0 >> 8 & 255] << 8 | box[s1 & 255]) ^ rk[42],
        (box[s3 >> 24] << 24 | box[s0 >> 16 & 255] << 16
         | box[s1 >> 8 & 255] << 8 | box[s2 & 255]) ^ rk[43])
