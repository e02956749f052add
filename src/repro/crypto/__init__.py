"""Cryptographic primitives used by the VPN, TLS library and SGX model.

Everything here is implemented from scratch (pure Python) or on top of
:mod:`hashlib`/:mod:`hmac` from the standard library — no third-party
crypto dependencies exist in this environment.

Two symmetric ciphers are provided behind one interface:

* :class:`~repro.crypto.aes.AES128` + CBC mode — a genuine AES
  implementation, validated against FIPS-197/NIST vectors.  Used in unit
  tests and whenever small amounts of data are protected (control channel,
  configuration files).
* :class:`~repro.crypto.stream.KeystreamCipher` — a fast keyed keystream
  cipher (SHAKE-128 over key and nonce, one call per message).
  Large-volume simulated traffic uses this so functional experiments stay
  fast; the *cost model* still charges AES-128-CBC prices, matching the
  paper's data channel.

Security note: this code exists to reproduce a systems paper inside a
simulator.  It is *not* hardened (no constant-time guarantees) and must
not be used to protect real data.
"""

from repro.crypto.aes import AES128
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.crypto.hkdf import hkdf_expand, hkdf_extract, hkdf_expand_label
from repro.crypto.hmac import hmac_sha256, hmac_verify
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.crypto.stream import KeystreamCipher
from repro.crypto.x25519 import X25519PrivateKey, x25519

__all__ = [
    "AES128",
    "HmacDrbg",
    "KeystreamCipher",
    "RsaKeyPair",
    "RsaPublicKey",
    "X25519PrivateKey",
    "cbc_decrypt",
    "cbc_encrypt",
    "hkdf_expand",
    "hkdf_expand_label",
    "hkdf_extract",
    "hmac_sha256",
    "hmac_verify",
    "sha256",
    "x25519",
]
