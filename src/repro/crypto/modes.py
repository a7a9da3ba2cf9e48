"""Block-cipher modes of operation: CBC and CTR, with PKCS#7 padding.

Applications on Virtual Ghost choose their own encryption algorithms and
modes (a design point the paper contrasts with Overshadow/InkTag, which
bake the choice in); ghost-page swapping and the TPM seal use CTR + HMAC.
"""

from __future__ import annotations

from repro.crypto.aes import AES128

_BLOCK = AES128.BLOCK_SIZE


def pkcs7_pad(data: bytes, block_size: int = _BLOCK) -> bytes:
    pad = block_size - (len(data) % block_size)
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes, block_size: int = _BLOCK) -> bytes:
    if not data or len(data) % block_size:
        raise ValueError("bad padded length")
    pad = data[-1]
    if not 1 <= pad <= block_size or data[-pad:] != bytes([pad]) * pad:
        raise ValueError("bad PKCS#7 padding")
    return data[:-pad]


def cbc_encrypt(cipher: AES128, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt PKCS#7-padded plaintext; returns ciphertext (no IV)."""
    if len(iv) != _BLOCK:
        raise ValueError("IV must be one block")
    data = pkcs7_pad(plaintext)
    out = bytearray()
    previous = iv
    for i in range(0, len(data), _BLOCK):
        block = bytes(x ^ y for x, y in zip(data[i:i + _BLOCK], previous))
        previous = cipher.encrypt_block(block)
        out += previous
    return bytes(out)


def cbc_decrypt(cipher: AES128, iv: bytes, ciphertext: bytes) -> bytes:
    if len(iv) != _BLOCK or len(ciphertext) % _BLOCK:
        raise ValueError("bad IV or ciphertext length")
    out = bytearray()
    previous = iv
    for i in range(0, len(ciphertext), _BLOCK):
        block = ciphertext[i:i + _BLOCK]
        plain = cipher.decrypt_block(block)
        out += bytes(x ^ y for x, y in zip(plain, previous))
        previous = block
    return pkcs7_unpad(bytes(out))


def ctr_keystream(cipher: AES128, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes from a 16-byte initial counter."""
    if len(nonce) != _BLOCK:
        raise ValueError("CTR nonce must be one block")
    counter = int.from_bytes(nonce, "big")
    stream = bytearray()
    while len(stream) < length:
        stream += cipher.encrypt_block(
            (counter % (1 << 128)).to_bytes(_BLOCK, "big"))
        counter += 1
    return bytes(stream[:length])


def ctr_xcrypt(cipher: AES128, nonce: bytes, data: bytes) -> bytes:
    """CTR mode: same operation encrypts and decrypts."""
    stream = ctr_keystream(cipher, nonce, len(data))
    return bytes(x ^ y for x, y in zip(data, stream))

