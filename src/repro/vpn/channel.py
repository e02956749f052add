"""The data channel: per-packet encryption and authentication.

``DataChannel`` owns one direction pair of symmetric keys derived during
the control-channel handshake.  Modes (§IV-A, scenario-specific traffic
protection):

* ``ENCRYPT_AND_MAC`` — AES-128-CBC-style encryption + HMAC (enterprise
  scenario; the default, like OpenVPN's data channel),
* ``MAC_ONLY`` — payload travels in clear but integrity-protected (ISP
  scenario; users opted in, so confidentiality against the ISP is not a
  goal, but Click-processing still cannot be bypassed).

Functionally the bulk cipher is the fast keyed keystream cipher; the
cost model charges AES prices (see ``repro.costs``).  Sender and
receiver are two machines in the paper's deployment, so each end
derives every keystream and MAC itself; the only state kept across
records is per-key (the HMAC pad states).

One code path per direction: :meth:`DataChannel.protect_batch` and
:meth:`DataChannel.unprotect_batch` hold the per-record crypto, and
``protect``/``unprotect`` are bursts of one.

Buffer model (see DESIGN.md, "Zero-copy buffer model"): record bodies
arriving from :func:`repro.vpn.protocol.VpnPacket.parse` are
``memoryview`` slices over the datagram buffer.  Unprotect splits
ciphertext and tag as sub-views, MAC-checks straight from the views,
and only materialises fresh ``bytes`` for the *output* plaintext — the
one copy the trust transition requires.
"""

from __future__ import annotations

import enum
from hmac import compare_digest

from repro.crypto.hmac import pad_states
from repro.crypto.stream import KeystreamCipher
from repro.telemetry.registry import Registry
from repro.vpn.protocol import OP_DATA, VpnPacket

TAG_LEN = 16


class ChannelError(RuntimeError):
    """Authentication or format failure on the data channel."""


class ProtectionMode(enum.Enum):
    ENCRYPT_AND_MAC = "encrypt+mac"
    MAC_ONLY = "mac-only"


class DataChannel:
    """Symmetric protection for one VPN session direction.

    Packet and byte tallies report through :mod:`repro.telemetry`: the
    public :attr:`protected` / :attr:`rejected` /
    :attr:`bytes_protected` / :attr:`bytes_unprotected` counters are
    private instruments (per-channel ``.value``) mirroring into the
    owning registry's shared ``vpn.channel.*`` totals.
    """

    def __init__(self, cipher_key: bytes, hmac_key: bytes, mode: ProtectionMode = ProtectionMode.ENCRYPT_AND_MAC) -> None:
        if len(cipher_key) < 16 or len(hmac_key) < 16:
            raise ValueError("channel keys must be at least 16 bytes")
        self._cipher = KeystreamCipher(cipher_key.ljust(16, b"\x00"))
        self._hmac_key = hmac_key
        self.mode = mode
        registry = Registry.current()
        self.telemetry = registry
        self.protected = registry.counter("vpn.channel.packets_protected", private=True)
        self.rejected = registry.counter("vpn.channel.packets_rejected", private=True)
        self.bytes_protected = registry.counter("vpn.channel.bytes_protected", private=True)
        self.bytes_unprotected = registry.counter("vpn.channel.bytes_unprotected", private=True)

    # ------------------------------------------------------------------
    def protect(self, packet: VpnPacket, plaintext: bytes) -> VpnPacket:
        """Fill ``packet.body`` with the protected form of ``plaintext``.

        A burst of one through :meth:`protect_batch`.
        """
        return self.protect_batch(((packet, plaintext),))[0]

    def protect_batch(self, items) -> list:
        """Protect a burst of ``(packet, plaintext)`` pairs.

        Each record is encrypted under its own nonce (the session and
        packet ids), then MAC'd over the auth header and the sealed
        bytes.  Only the key-only work — the HMAC pad states — is
        hoisted out of the loop.
        """
        inner_base, outer_base = pad_states(self._hmac_key)
        encrypting = self.mode is ProtectionMode.ENCRYPT_AND_MAC
        process = self._cipher.process
        protected = []
        append = protected.append
        total_plain = 0
        for packet, plain in items:
            if packet.opcode != OP_DATA:
                raise ChannelError("data channel only protects DATA packets")
            ah = packet.auth_header()
            # the auth header embeds ``>QQ`` session/packet ids at bytes
            # 1..17 — exactly the nonce layout
            payload = process(ah[1:17], plain) if encrypting else plain
            inner = inner_base.copy()
            inner.update(ah)
            inner.update(payload)
            outer = outer_base.copy()
            outer.update(inner.digest())
            packet.body = payload + outer.digest()[:TAG_LEN]
            total_plain += len(plain)
            append(packet)
        self.protected.inc(len(protected))
        self.bytes_protected.inc(total_plain)
        return protected

    def unprotect_batch(self, packets) -> list:
        """Authenticate/decrypt a burst; one ``Optional[bytes]`` each.

        A failing packet — too short to carry a tag, or a tag that does
        not verify — yields ``None`` in its slot and advances the
        rejection counter, so one forged packet cannot mask the rest of
        the burst.  Ciphertext and tag are split as zero-copy views and
        MAC-checked straight from them; only the output plaintext is
        materialised as fresh ``bytes``.
        """
        inner_base, outer_base = pad_states(self._hmac_key)
        decrypting = self.mode is ProtectionMode.ENCRYPT_AND_MAC
        process = self._cipher.process
        plaintexts = []
        append = plaintexts.append
        accepted_bytes = 0
        bad = 0
        for packet in packets:
            tail = packet.body
            boundary = len(tail) - TAG_LEN
            if boundary < 0:
                bad += 1
                append(None)
                continue
            ah = packet.auth_header()
            # the body may itself be a view over the datagram buffer
            # (see module docs); split ciphertext and tag as sub-views
            view = memoryview(tail) if type(tail) is bytes else tail
            sealed = view[:boundary]
            inner = inner_base.copy()
            inner.update(ah)
            inner.update(sealed)
            outer = outer_base.copy()
            outer.update(inner.digest())
            if not compare_digest(outer.digest()[:TAG_LEN], view[boundary:]):
                bad += 1
                append(None)
                continue
            accepted_bytes += boundary
            # bytes 1..17 of the auth header are the ``>QQ`` nonce fields
            append(process(ah[1:17], sealed) if decrypting else bytes(sealed))
        self.bytes_unprotected.inc(accepted_bytes)
        if bad:
            self.rejected.inc(bad)
        return plaintexts

    def unprotect(self, packet: VpnPacket) -> bytes:
        """Authenticate and (if encrypted) decrypt a DATA packet body.

        A burst of one through :meth:`unprotect_batch`; raises
        :class:`ChannelError` where the burst form yields ``None``.
        """
        plaintext = self.unprotect_batch((packet,))[0]
        if plaintext is None:
            raise ChannelError("data packet failed authentication")
        return plaintext
