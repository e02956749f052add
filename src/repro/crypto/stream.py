"""Fast keyed keystream cipher for bulk simulated traffic.

``KeystreamCipher`` XORs the data with ``SHAKE-128(key || nonce)``
squeezed to the message length: one :mod:`hashlib` C call per message,
no block loop and no cached state beyond the key.  It is a stand-in for
the data channel's AES-128-CBC, orders of magnitude faster than the
pure-Python AES, so functional experiments (real bytes end-to-end) stay
fast.  The simulation *cost model* still charges AES-128-CBC prices for
the data channel — see ``repro.costs`` — whatever bytes come out, so
performance results are unaffected by this implementation choice.
"""

from __future__ import annotations

from hashlib import shake_128


class KeystreamCipher:
    """Symmetric keystream cipher: ``ct = pt XOR KS(key, nonce)``.

    Encryption and decryption are the same operation.  A fresh ``nonce``
    must be used per message (the VPN layer uses its packet id).  Each
    end derives the stream itself from the key and nonce, as two
    machines must.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._key = key

    def process(self, nonce: bytes, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` under ``nonce``."""
        if not data:
            return b""
        size = len(data)
        stream = shake_128(self._key + nonce).digest(size)
        # Whole-buffer XOR via big integers: ~50x faster than a byte loop.
        xored = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        return xored.to_bytes(size, "big")

    encrypt = process
    decrypt = process
