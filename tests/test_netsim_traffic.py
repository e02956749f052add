"""Traffic generator/sink tests, plus IP fragmentation behaviour."""

import pytest

from repro.netsim import IPv4Packet, StarTopology, UdpDatagram, parse_ipv4
from repro.netsim.host import class_a_host, class_b_host
from repro.netsim.packet import PROTO_UDP
from repro.netsim.traffic import HEADER_BYTES, UdpSink, UdpTrafficSource, make_payload
from repro.sim import Simulator


@pytest.fixture()
def pair():
    sim = Simulator()
    topo = StarTopology(sim)
    a = class_a_host(sim, "a")
    b = class_b_host(sim, "b")
    topo.attach(a)
    topo.attach(b)
    return sim, a, b


def test_source_hits_offered_rate(pair):
    sim, a, b = pair
    sink = UdpSink(b, 5000)
    source = UdpTrafficSource(a, b.address, 5000, rate_bps=8e6, packet_bytes=1000)
    source.start()
    sim.run(until=0.5)
    assert sink.packets == pytest.approx(500, abs=3)  # 1000 pps * 0.5 s
    assert sink.inner_bytes == sink.packets * 1000


def test_sink_window_throughput(pair):
    sim, a, b = pair
    sink = UdpSink(b, 5000)
    source = UdpTrafficSource(a, b.address, 5000, rate_bps=16e6, packet_bytes=2000)
    source.start()
    sim.run(until=0.1)
    sink.reset_window()
    sim.run(until=0.3)
    assert sink.window_throughput_bps() == pytest.approx(16e6, rel=0.05)


def test_payload_is_printable_ascii():
    payload = make_payload(1500)
    assert len(payload) == 1500 - HEADER_BYTES
    assert all(32 <= byte < 127 for byte in payload)


def test_source_clamps_to_ipv4_maximum():
    sim = Simulator()
    host = class_a_host(sim, "h")
    StarTopology(sim).attach(host)
    source = UdpTrafficSource(host, "10.0.0.9", 1, rate_bps=1e6, packet_bytes=70000)
    assert source.packet_bytes == 65535
    assert len(source.payload) == 65535 - HEADER_BYTES


def test_source_stop_halts_generation(pair):
    sim, a, b = pair
    sink = UdpSink(b, 5000)
    source = UdpTrafficSource(a, b.address, 5000, rate_bps=8e6, packet_bytes=1000)
    source.start()
    sim.run(until=0.1)
    source.stop()
    sim.run(until=0.11)
    seen = sink.packets
    sim.run(until=0.5)
    assert sink.packets == seen


def test_tos_byte_travels_with_traffic(pair):
    sim, a, b = pair
    got = []

    def server():
        sock = b.stack.udp_socket(5000)
        _payload, _src, _port, packet = yield sock.recv()
        got.append(packet.tos)

    sim.process(server())
    UdpTrafficSource(a, b.address, 5000, rate_bps=1e6, packet_bytes=200, tos=0xEB).start()
    sim.run(until=0.1)
    assert got and got[0] == 0xEB


# ----------------------------------------------------------------------
# IP fragmentation (large datagrams over MTU-limited links)
# ----------------------------------------------------------------------
def test_large_datagram_fragmented_and_reassembled(pair):
    sim, a, b = pair
    payload = bytes(range(256)) * 100  # 25.6 KB > MTU 9000
    got = []

    def server():
        sock = b.stack.udp_socket(6000)
        data, *_ = yield sock.recv()
        got.append(data)

    def client():
        sock = a.stack.udp_socket()
        sock.sendto(payload, b.address, 6000)
        yield sim.timeout(0)

    sim.process(server())
    sim.process(client())
    sim.run(until=1.0)
    assert got and got[0] == payload


def test_fragment_helper_roundtrip():
    packet = IPv4Packet(
        src="10.0.0.1", dst="10.0.0.2", l4=UdpDatagram(1, 2, b"z" * 20000), identification=42
    )
    fragments = packet.fragment(9000)
    assert len(fragments) == 3
    assert all(len(f) <= 9000 for f in fragments)
    assert fragments[0].more_fragments and not fragments[-1].more_fragments
    # fragments survive serialization with raw bodies
    parsed = [parse_ipv4(f.serialize()) for f in fragments]
    assert all(p.is_fragment for p in parsed)
    reassembled = b"".join(p.l4 for p in parsed)
    assert reassembled == packet.l4.serialize()


def _fragment(a, b, body, offset, more):
    """A raw UDP fragment from ``a`` to ``b`` at byte ``offset``."""
    return IPv4Packet(
        src=a.address,
        dst=b.address,
        l4=body,
        identification=7,
        protocol=PROTO_UDP,
        frag_offset=offset // 8,
        more_fragments=more,
    )


def test_reassembly_drops_oversize_datagram(pair):
    _sim, a, b = pair
    sock = b.stack.udp_socket(5000)
    before = b.stack.packets_dropped
    # 8 x 8200 B = 65,600 B of body: past the 65,535-byte IPv4 maximum
    for index in range(8):
        b.stack.inject(_fragment(a, b, bytes(8200), index * 8200, index < 7))
    assert b.stack.packets_dropped == before + 1
    assert sock.pending() == 0


def test_reassembly_drops_overlapping_fragments(pair):
    _sim, a, b = pair
    sock = b.stack.udp_socket(5000)
    before = b.stack.packets_dropped
    wire = UdpDatagram(4000, 5000, bytes(range(1, 93))).serialize()  # 100 bytes
    # offsets 0 and 8 overlap, and bytes 72-95 never arrive: the lengths
    # still add up to more than the 100-byte total (RFC 5722)
    for offset, size, more in ((0, 64, True), (8, 64, True), (96, 4, False)):
        b.stack.inject(_fragment(a, b, wire[offset : offset + size], offset, more))
    assert b.stack.packets_dropped == before + 1
    assert sock.pending() == 0


def test_reassembly_table_stays_bounded_without_last_fragments(pair):
    _sim, a, b = pair
    for ident in range(300):
        first = _fragment(a, b, bytes(64), 0, True)
        first.identification = ident
        b.stack.inject(first)
    assert len(b.stack._ip_fragments) == 256


def test_reassembly_accepts_out_of_order_fragments(pair):
    _sim, a, b = pair
    sock = b.stack.udp_socket(5000)
    wire = UdpDatagram(4000, 5000, bytes(range(1, 93))).serialize()
    for offset, size, more in ((96, 4, False), (0, 48, True), (48, 48, True)):
        b.stack.inject(_fragment(a, b, wire[offset : offset + size], offset, more))
    assert sock.pending() == 1
    assert sock._inbox.try_get()[0] == bytes(range(1, 93))


def test_small_packet_not_fragmented():
    packet = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=b"tiny")
    # the unfragmented case allocates no per-packet list
    assert list(packet.fragment(9000)) == [packet]
