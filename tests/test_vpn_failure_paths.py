"""VPN negative paths: unreachable server, tampered control messages."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaKeyPair
from repro.crypto.x25519 import X25519PrivateKey
from repro.netsim import StarTopology
from repro.netsim.host import class_a_host
from repro.sim import Simulator
from repro.vpn import OpenVpnClient, VpnError
from repro.vpn.handshake import issue_certificate


def make_client(sim, topo, server_addr):
    ca = RsaKeyPair(bits=1024, seed=b"fp-ca")
    host = class_a_host(sim, "lonely-client")
    topo.attach(host)
    key = X25519PrivateKey(HmacDrbg(b"fp").generate(32))
    cert = issue_certificate(ca, "client", key.public_bytes)
    return OpenVpnClient(host, server_addr, key, cert, ca.public_key)


def test_handshake_times_out_without_server():
    sim = Simulator()
    topo = StarTopology(sim)
    client = make_client(sim, topo, "10.0.0.200")  # nobody home
    client.start()
    sim.run(until=30.0)
    assert client.connected_event.triggered
    with pytest.raises(VpnError, match="timed out"):
        raise client.connected_event.exception


def test_client_cannot_start_twice():
    sim = Simulator()
    topo = StarTopology(sim)
    client = make_client(sim, topo, "10.0.0.200")
    client.start()
    with pytest.raises(VpnError):
        client.start()


def test_tampered_session_config_rejected():
    """A MITM rewriting the session-config message is caught by its MAC."""
    from tests.test_vpn_integration import VpnWorld

    world = VpnWorld(n_clients=1)
    client = world.clients[0]
    # intercept outgoing server datagrams and corrupt SESSION_CONFIG bodies
    original_sendto = world.server.sock.sendto
    from repro.vpn.openvpn import OP_SESSION_CONFIG
    from repro.vpn.protocol import VpnPacket

    def corrupting_sendto(payload, dst, dport, tos=0):
        packet = VpnPacket.parse(payload)
        if packet.opcode == OP_SESSION_CONFIG:
            body = bytearray(packet.body)
            body[5] ^= 0xFF
            packet.body = bytes(body)
            payload = packet.serialize()
        return original_sendto(payload, dst, dport, tos)

    world.server.sock.sendto = corrupting_sendto
    client.start()
    world.sim.run(until=10.0)
    assert client.connected_event.triggered
    with pytest.raises(VpnError, match="authentication"):
        raise client.connected_event.exception


def test_server_rejects_duplicate_start():
    from tests.test_vpn_integration import VpnWorld

    world = VpnWorld(n_clients=0)
    with pytest.raises(VpnError):
        world.server.start()


def test_announce_config_requires_increasing_versions():
    from tests.test_vpn_integration import VpnWorld

    world = VpnWorld(n_clients=0)
    world.server.announce_config(5, grace_period_s=1.0)
    with pytest.raises(VpnError, match="increase"):
        world.server.announce_config(5, grace_period_s=1.0)
    with pytest.raises(VpnError, match="increase"):
        world.server.announce_config(3, grace_period_s=1.0)


def test_await_control_wakes_on_arrival():
    """The control wait is event-driven: it returns at the put time."""
    from tests.test_vpn_integration import VpnWorld
    from repro.vpn.openvpn import OP_CONTROL_REPLY
    from repro.vpn.protocol import VpnPacket

    world = VpnWorld(n_clients=1)
    client = world.clients[0]
    sim = world.sim
    results = []

    def waiter():
        packet = yield from client._await_control((OP_CONTROL_REPLY,), timeout=5.0)
        results.append((sim.now, packet))

    def feeder():
        yield sim.timeout(0.3)
        client._control_inbox.put(VpnPacket(OP_CONTROL_REPLY, 0, 0, b"hi"))

    sim.process(waiter())
    sim.process(feeder())
    sim.run(until=1.0)
    assert results and results[0][0] == pytest.approx(0.3)
    assert results[0][1].body == b"hi"


def test_await_control_timeout_costs_constant_events_and_swallows_nothing():
    """Regression: the old 5 ms busy-poll burned ~200 events/second; the
    event-driven wait costs a handful, and the getter abandoned at
    timeout must not eat the next control packet."""
    from tests.test_vpn_integration import VpnWorld
    from repro.vpn.openvpn import OP_CONTROL_REPLY
    from repro.vpn.protocol import VpnPacket

    world = VpnWorld(n_clients=1)
    client = world.clients[0]
    sim = world.sim
    results = []

    def waiter():
        packet = yield from client._await_control((OP_CONTROL_REPLY,), timeout=10.0)
        results.append(packet)

    events_before = sim.telemetry.value("sim.engine.events")
    sim.process(waiter())
    sim.run(until=11.0)
    assert results == [None]
    # a 10 s wait under the old poll would be ~2000 events
    assert sim.telemetry.value("sim.engine.events") - events_before < 50
    # the withdrawn getter must not swallow a later packet
    client._control_inbox.put(VpnPacket(OP_CONTROL_REPLY, 0, 0, b"late"))
    assert client._control_inbox.try_get().body == b"late"


def test_rekey_drops_stale_queued_packets_without_wedging():
    """Regression: a data packet queued under the old keys and delivered
    after a mid-flight channel swap used to hit the fresh ReplayWindow
    with a high packet id, silently discarding subsequent traffic."""
    from tests.test_vpn_integration import VpnWorld
    from repro.netsim.traffic import UdpSink, UdpTrafficSource
    from repro.vpn.openvpn import OP_DATA
    from repro.vpn.protocol import VpnPacket

    world = VpnWorld(n_clients=1)
    world.connect_all()
    client = world.clients[0]
    sim = world.sim
    old_epoch = client.channel_epoch

    def rekey():
        yield from client._do_key_exchange(b"test-rekey")

    sim.process(rekey())
    sim.run(until=sim.now + 2.0)
    assert client.channel_epoch == old_epoch + 1
    # a packet protected under the superseded channels arrives late
    client._work_inbox.put(("rx", VpnPacket(OP_DATA, client.session_id, 999, b"stale"), old_epoch))
    sim.run(until=sim.now + 0.2)
    assert client.packets_dropped_stale == 1
    assert client.packets_rejected == 0  # dropped deliberately, not as a forgery
    # fresh downstream traffic still flows: replay window was not wedged
    sink = UdpSink(client.host, 7777)
    UdpTrafficSource(world.internal, client.tunnel_ip, 7777, rate_bps=1e6, packet_bytes=300).start()
    sim.run(until=sim.now + 0.5)
    assert sink.packets > 50


def test_dead_peer_detection_rehandshakes_after_server_restart():
    """Client survives a server state loss (OpenVPN's ping-restart)."""
    from tests.test_vpn_integration import VpnWorld

    world = VpnWorld(n_clients=1)
    world.connect_all()
    client = world.clients[0]
    client.dpd_timeout = 2.0
    received = []

    def internal_server():
        sock = world.internal.stack.udp_socket(5001)
        while True:
            payload, *_ = yield sock.recv()
            received.append((world.sim.now, payload))

    world.sim.process(internal_server())

    def app_traffic():
        sock = client.host.stack.udp_socket()
        while True:
            sock.sendto(b"heartbeat", world.internal.address, 5001)
            yield world.sim.timeout(0.5)

    world.sim.process(app_traffic())
    world.sim.run(until=world.sim.now + 2.0)
    before_crash = len(received)
    assert before_crash >= 3

    # the server "restarts": all session state evaporates
    crash_time = world.sim.now
    world.server.sessions_by_peer.clear()
    world.server.sessions_by_tunnel_ip.clear()
    world.sim.run(until=world.sim.now + 15.0)

    assert client.reconnects >= 1
    resumed = [t for t, _p in received if t > crash_time + 1.0]
    assert resumed, "traffic never resumed after the server restart"
    assert world.server.handshakes_completed >= 2


def test_suspended_client_drops_tunnel_input_and_server_keepalives():
    from tests.test_vpn_integration import VpnWorld
    from repro.netsim.traffic import UdpSink, UdpTrafficSource

    world = VpnWorld(n_clients=1)
    world.connect_all()
    client = world.clients[0]
    sim = world.sim
    sink = UdpSink(world.internal, 7001)
    UdpTrafficSource(client.host, world.internal.address, 7001, rate_bps=1e6, packet_bytes=200).start()
    sim.run(until=sim.now + 0.5)
    assert sink.packets > 0
    client.suspend()
    sim.run(until=sim.now + 0.01)  # let frames already on the wire land
    sent, delivered, heard = client.inner_bytes_sent, sink.packets, client.last_server_rx
    sim.run(until=sim.now + 3.0)  # several server keepalive intervals
    assert client.inner_bytes_sent == sent
    assert sink.packets == delivered
    assert client.last_server_rx == heard


def test_resumed_client_receives_on_its_new_socket():
    from tests.test_vpn_integration import VpnWorld
    from repro.netsim.traffic import UdpSink, UdpTrafficSource

    world = VpnWorld(n_clients=1)
    world.connect_all()
    client = world.clients[0]
    client.dpd_timeout = 2.0
    sim = world.sim
    client.suspend()
    old_sock = client.sock
    sim.run(until=sim.now + 1.0)
    client.resume()
    assert client.sock is not old_sock and old_sock.closed
    sim.run(until=sim.now + 3.0)  # the next DPD tick re-handshakes
    assert client.reconnects == 1
    assert client.last_server_rx > sim.now - 2.0
    sink = UdpSink(client.host, 7002)
    UdpTrafficSource(world.internal, client.tunnel_ip, 7002, rate_bps=1e6, packet_bytes=200).start()
    sim.run(until=sim.now + 0.5)
    assert sink.packets > 0
