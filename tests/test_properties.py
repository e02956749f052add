"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.click import ClickSyntaxError, parse_config
from repro.core.ca import CertificateAuthority
from repro.core.config_update import ConfigPublisher
from repro.crypto.hkdf import hkdf_expand, hkdf_extract
from repro.netsim.packet import IPv4Packet, TcpSegment, internet_checksum, parse_ipv4
from repro.sgx import IntelAttestationService, SealedStorage
from repro.sgx.enclave import Enclave, EnclaveImage
from repro.sgx.epc import EnclavePageCache
from repro.vpn.channel import DataChannel, ProtectionMode
from repro.vpn.protocol import OP_DATA, VpnPacket

identifier = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)


# ----------------------------------------------------------------------
# Click configuration language
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(identifier, min_size=2, max_size=6, unique=True))
def test_generated_chains_parse_into_matching_graphs(names):
    declarations = "".join(f"{name} :: Counter();\n" for name in names)
    chain = " -> ".join(names) + ";"
    parsed = parse_config(declarations + chain)
    assert [d.name for d in parsed.declarations] == names
    assert len(parsed.connections) == len(names) - 1
    for connection, (src, dst) in zip(parsed.connections, zip(names, names[1:])):
        assert (connection.src, connection.dst) == (src, dst)


@settings(max_examples=30, deadline=None)
@given(st.text(max_size=60))
def test_parser_never_crashes_ungracefully(text):
    try:
        parse_config(text)
    except ClickSyntaxError:
        pass  # the only acceptable failure mode


# ----------------------------------------------------------------------
# VPN data channel
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=0, max_size=3000),
    st.integers(min_value=1, max_value=2**40),
    st.sampled_from(list(ProtectionMode)),
)
def test_data_channel_roundtrip_any_payload(payload, packet_id, mode):
    tx = DataChannel(b"k" * 16, b"h" * 16, mode)
    rx = DataChannel(b"k" * 16, b"h" * 16, mode)
    packet = VpnPacket(OP_DATA, 5, packet_id)
    tx.protect(packet, payload)
    assert rx.unprotect(packet) == payload


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=500), st.integers(min_value=0, max_value=499))
def test_data_channel_detects_any_single_byte_flip(payload, position):
    tx = DataChannel(b"k" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
    rx = DataChannel(b"k" * 16, b"h" * 16, ProtectionMode.ENCRYPT_AND_MAC)
    packet = VpnPacket(OP_DATA, 5, 1)
    tx.protect(packet, payload)
    body = bytearray(packet.body)
    body[position % len(body)] ^= 0xFF
    packet.body = bytes(body)
    from repro.vpn.channel import ChannelError

    with pytest.raises(ChannelError):
        rx.unprotect(packet)


# ----------------------------------------------------------------------
# IP fragmentation
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=30000), st.integers(min_value=100, max_value=9000))
def test_ip_fragmentation_covers_payload_exactly(payload, mtu):
    packet = IPv4Packet(
        src="10.0.0.1", dst="10.0.0.2", l4=TcpSegment(1, 2, payload=payload), identification=7
    )
    fragments = packet.fragment(mtu)
    assert all(len(f) <= mtu for f in fragments)
    body = b"".join(
        f.l4 if isinstance(f.l4, bytes) else f.l4.serialize() for f in fragments
    )
    assert body == packet.l4.serialize()
    offsets = [f.frag_offset * 8 for f in fragments]
    assert offsets == sorted(offsets)
    if len(fragments) > 1:
        assert fragments[-1].more_fragments is False
        assert all(f.more_fragments for f in fragments[:-1])


# ----------------------------------------------------------------------
# checksums / HKDF
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_checksum_of_data_plus_checksum_is_zero(data):
    checksum = internet_checksum(data)
    if len(data) % 2:
        data += b"\x00"
    assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=255))
def test_hkdf_expand_prefix_property(ikm, length):
    prk = hkdf_extract(b"salt", ikm)
    long_output = hkdf_expand(prk, b"ctx", length)
    assert len(long_output) == length
    if length > 1:
        assert hkdf_expand(prk, b"ctx", length - 1) == long_output[:-1]


# ----------------------------------------------------------------------
# sealing + config bundles
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=2000))
def test_sealing_roundtrip_any_blob(blob):
    image = EnclaveImage("prop", ecalls={})
    enclave = Enclave(image, EnclavePageCache())
    storage = SealedStorage("platform-x")
    storage.seal(enclave, "blob", blob)
    assert storage.unseal(enclave, "blob") == blob


@settings(max_examples=10, deadline=None)
@given(st.text(max_size=300), st.booleans(), st.integers(min_value=1, max_value=1 << 30))
def test_config_bundles_verify_and_decode(config_text, encrypted, version):
    ias = IntelAttestationService(seed=b"prop")
    ca = CertificateAuthority(ias, seed=b"prop-ca")
    publisher = ConfigPublisher(ca)
    bundle = publisher.build_bundle(version, config_text, encrypt=encrypted)
    import json

    envelope = json.loads(bundle.blob.decode())
    body = (
        str(version).encode()
        + (b"\x01" if encrypted else b"\x00")
        + bytes.fromhex(envelope["payload"])
    )
    assert ca.public_key.verify(body, int(envelope["signature"]))
    if encrypted:
        from repro.crypto.stream import KeystreamCipher

        payload = KeystreamCipher(ca.shared_config_key).decrypt(
            str(version).encode(), bytes.fromhex(envelope["payload"])
        )
    else:
        payload = bytes.fromhex(envelope["payload"])
    assert json.loads(payload.decode())["click_config"] == config_text


# ----------------------------------------------------------------------
# parse/serialize closure under re-serialization
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=1400))
def test_parse_serialize_fixpoint(payload):
    packet = IPv4Packet(src="10.8.0.9", dst="10.0.0.3", l4=TcpSegment(5, 6, payload=payload))
    once = parse_ipv4(packet.serialize())
    twice = parse_ipv4(once.serialize())
    assert once.serialize() == twice.serialize()
    # the parse reads headers in place at offsets, so a view parses the same
    viewed = parse_ipv4(memoryview(once.serialize()))
    assert type(viewed.l4.payload) is bytes
    assert viewed.serialize() == once.serialize()
