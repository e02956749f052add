"""End-to-end tests across the simulated network: UDP, ICMP, TCP, TUN."""

import pytest

from repro.netsim import IPv4Network, IPv4Packet, StarTopology, UdpDatagram
from repro.netsim.host import Host, class_a_host, class_b_host
from repro.netsim.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.netsim.tcp import TcpError
from repro.sim import Simulator


@pytest.fixture()
def lan():
    sim = Simulator()
    topo = StarTopology(sim)
    alice = class_a_host(sim, "alice")
    bob = class_b_host(sim, "bob")
    topo.attach(alice)
    topo.attach(bob)
    return sim, topo, alice, bob


def test_udp_delivery_across_switch(lan):
    sim, _topo, alice, bob = lan
    received = []

    def server():
        sock = bob.stack.udp_socket(5001)
        payload, src, src_port, _pkt = yield sock.recv()
        received.append((payload, str(src), src_port))

    def client():
        sock = alice.stack.udp_socket()
        yield sim.timeout(0.001)
        sock.sendto(b"hello", bob.address, 5001)

    sim.process(server())
    sim.process(client())
    sim.run(until=1.0)
    assert received == [(b"hello", str(alice.address), 49153)]


def test_udp_transfer_time_includes_bandwidth_and_latency(lan):
    sim, topo, alice, bob = lan
    arrival = []

    def server():
        sock = bob.stack.udp_socket(5001)
        yield sock.recv()
        arrival.append(sim.now)

    def client():
        sock = alice.stack.udp_socket()
        sock.sendto(b"x" * 1000, bob.address, 5001)
        yield sim.timeout(0)

    sim.process(server())
    sim.process(client())
    sim.run(until=1.0)
    assert len(arrival) == 1
    # two link hops (host->switch, switch->host): 2 serialisations + 2 latencies
    assert arrival[0] > 2 * topo.latency_s
    assert arrival[0] < 2 * topo.latency_s + 1e-4


def test_ping_rtt_on_lan(lan):
    sim, topo, alice, bob = lan
    rtts = []

    def pinger():
        rtt = yield sim.process(alice.stack.ping(bob.address))
        rtts.append(rtt)

    sim.process(pinger())
    sim.run(until=2.0)
    assert len(rtts) == 1 and rtts[0] is not None
    assert rtts[0] >= 4 * topo.latency_s  # request + reply, 2 hops each
    assert rtts[0] < 1e-3


def test_ping_timeout_when_host_mute(lan):
    sim, _topo, alice, bob = lan
    bob.stack.icmp_echo_enabled = False
    results = []

    def pinger():
        rtt = yield sim.process(alice.stack.ping(bob.address, timeout=0.05))
        results.append(rtt)

    sim.process(pinger())
    sim.run(until=1.0)
    assert results == [None]


def test_tcp_connect_send_receive(lan):
    sim, _topo, alice, bob = lan
    got = []

    def server():
        listener = bob.stack.tcp.listen(8080)
        conn = yield listener.accept()
        data = yield sim.process(conn.read_exactly(11))
        got.append(data)
        conn.send(b"pong")
        yield sim.process(conn.drain())
        conn.close()

    def client():
        conn = yield sim.process(alice.stack.tcp.connect(bob.address, 8080))
        conn.send(b"hello world")
        reply = yield sim.process(conn.read_exactly(4))
        got.append(reply)
        conn.close()

    sim.process(server())
    sim.process(client())
    sim.run(until=5.0)
    assert got == [b"hello world", b"pong"]


def test_every_link_delivers_bytes(lan):
    """``parse_ipv4`` is the one ingress path: links carry wire bytes only."""
    sim, topo, alice, bob = lan
    frames = []
    for port in (*topo.switch.ports, alice.stack.interfaces[0], bob.stack.interfaces[0]):

        def tapped(frame, deliver=port.deliver):
            frames.append(frame)
            deliver(frame)

        port.deliver = tapped
    got = []

    def udp_server():
        sock = bob.stack.udp_socket(5001)
        payload, *_ = yield sock.recv()
        got.append(payload)

    def tcp_server():
        listener = bob.stack.tcp.listen(8080)
        conn = yield listener.accept()
        got.append((yield sim.process(conn.read_exactly(3))))

    def client():
        alice.stack.udp_socket().sendto(b"udp", bob.address, 5001)
        rtt = yield sim.process(alice.stack.ping(bob.address))
        got.append(rtt is not None)
        conn = yield sim.process(alice.stack.tcp.connect(bob.address, 8080))
        conn.send(b"tcp")

    sim.process(udp_server())
    sim.process(tcp_server())
    sim.process(client())
    sim.run(until=1.0)
    assert got == [b"udp", True, b"tcp"]
    assert {type(frame) for frame in frames} == {bytes}
    assert {frame[9] for frame in frames} == {PROTO_ICMP, PROTO_TCP, PROTO_UDP}


def test_tcp_bulk_transfer_integrity(lan):
    sim, _topo, alice, bob = lan
    blob = bytes(range(256)) * 512  # 128 KiB, spans many MSS segments
    received = []

    def server():
        listener = bob.stack.tcp.listen(9000)
        conn = yield listener.accept()
        data = yield sim.process(conn.read_exactly(len(blob)))
        received.append(data)

    def client():
        conn = yield sim.process(alice.stack.tcp.connect(bob.address, 9000))
        conn.send(blob)
        yield sim.process(conn.drain())

    sim.process(server())
    sim.process(client())
    sim.run(until=10.0)
    assert received and received[0] == blob


def test_tcp_connect_refused_raises(lan):
    sim, _topo, alice, bob = lan
    outcome = []

    def client():
        try:
            yield sim.process(alice.stack.tcp.connect(bob.address, 1))
        except TcpError as exc:
            outcome.append("refused")

    sim.process(client())
    sim.run(until=10.0)
    assert outcome == ["refused"]


def test_tcp_read_until_delimiter(lan):
    sim, _topo, alice, bob = lan
    lines = []

    def server():
        listener = bob.stack.tcp.listen(8081)
        conn = yield listener.accept()
        line = yield sim.process(conn.read_until(b"\r\n\r\n"))
        lines.append(line)

    def client():
        conn = yield sim.process(alice.stack.tcp.connect(bob.address, 8081))
        conn.send(b"GET / HTTP/1.1\r\nHost: bob\r\n\r\nBODY")
        yield sim.timeout(0.01)

    sim.process(server())
    sim.process(client())
    sim.run(until=5.0)
    assert lines == [b"GET / HTTP/1.1\r\nHost: bob\r\n\r\n"]


def test_tun_read_write_roundtrip():
    sim = Simulator()
    host = Host(sim, "h")
    tun = host.add_tun("10.8.0.2", IPv4Network("10.8.0.0/24"))
    seen = []

    def app():
        # a packet routed into 10.8.0.0/24 shows up on the tun device
        host.stack.send_packet(IPv4Packet(src="10.8.0.2", dst="10.8.0.99", l4=b"data"))
        packet = yield tun.read()
        seen.append(str(packet.dst))

    sim.process(app())
    sim.run(until=1.0)
    assert seen == ["10.8.0.99"]


def test_forwarding_host_routes_between_subnets():
    sim = Simulator()
    topo = StarTopology(sim)
    client = class_a_host(sim, "client")
    gateway = class_a_host(sim, "gw", forwarding=True)
    server = class_b_host(sim, "server")
    topo.attach(client)
    topo.attach(gateway)
    topo.attach(server)
    # pretend 10.99.0.0/24 lives behind the gateway
    gw_tun = gateway.add_tun("10.99.0.1", IPv4Network("10.99.0.0/24"))
    topo.route_subnet("10.99.0.0/24", gateway)
    arrived = []

    def gw_app():
        packet = yield gw_tun.read()
        arrived.append((str(packet.src), str(packet.dst), packet.ttl))

    def sender():
        yield sim.timeout(0.001)
        client.stack.send_packet(
            IPv4Packet(src=client.address, dst="10.99.0.50", l4=UdpDatagram(1, 2, b"z"))
        )

    sim.process(gw_app())
    sim.process(sender())
    sim.run(until=1.0)
    assert arrived and arrived[0][1] == "10.99.0.50"
    assert arrived[0][2] == 63  # TTL decremented by the forwarding hop


def test_wan_latency_dominates_rtt():
    sim = Simulator()
    topo = StarTopology(sim)
    local = class_a_host(sim, "local")
    cloud = class_a_host(sim, "cloud")
    topo.attach(local)
    topo.attach_wan(cloud, one_way_latency_s=0.045)
    rtts = []

    def pinger():
        rtt = yield sim.process(local.stack.ping(cloud.address, timeout=2.0))
        rtts.append(rtt)

    sim.process(pinger())
    sim.run(until=5.0)
    assert rtts[0] == pytest.approx(2 * (0.045 + topo.latency_s), rel=0.05)
