"""Equivalence tests for the batched fast path.

Channel crypto, compiled Click dispatch, the burst-native
``process_packet`` ecall and the client's burst-draining worker are
asserted to be observably identical to their per-packet use (one burst
of N against N bursts of one), with one documented exception: a burst
of N packets pays one EENTER/EEXIT transition pair on the gateway
ledger where N bursts of one pay N.  The
default path (bursts of one) is pinned to its recorded modeled outcome.
"""

import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.click import Router, configs as click_configs
from repro.core.ca import CertificateAuthority
from repro.core.enclave_app import EndBoxEnclave, build_endbox_image
from repro.core.provisioning import provision_client
from repro.crypto import hmac as crypto_hmac
from repro.crypto.cachestate import HMAC_PAD_CACHE_ENTRIES, CryptoCaches, current_caches
from repro.faults import trace_digest
from repro.fleet import DeploymentSpec, DeploymentSpecError
from repro.costs import default_cost_model
from repro.netsim import IPv4Packet, UdpDatagram, parse_ipv4
from repro.netsim.packet import ENDBOX_PROCESSED_TOS
from repro.netsim.traffic import UdpSink, UdpTrafficSource, make_payload
from repro.perf.micro import CRITERIA
from repro.sgx import IntelAttestationService, SealedStorage, SgxPlatform
from repro.sgx.gateway import CostLedger, InterfaceViolation
from repro.sim import Simulator
from repro.telemetry.registry import fork_isolated
from repro.tlslib.record import RecordProtection, TYPE_APPLICATION_DATA, parse_records
from repro.vpn.channel import DataChannel, ProtectionMode
from repro.vpn.costing import crypto_cost
from repro.vpn.fragment import Fragmenter, Reassembler
from repro.vpn.protocol import OP_DATA, OP_PING, VpnPacket

MODE = ProtectionMode.ENCRYPT_AND_MAC.value


def udp_packet(payload=b"data", sport=40000, dport=5001, tos=0):
    return IPv4Packet(
        src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(sport, dport, payload), tos=tos
    )


def burst(count=8, payload_bytes=64):
    payload = make_payload(payload_bytes)
    return [udp_packet(payload, sport=40000 + i) for i in range(count)]


@pytest.fixture()
def endbox():
    """A provisioned EndBox enclave with the NOP graph loaded."""
    ias = IntelAttestationService()
    ca = CertificateAuthority(ias, seed=b"fastpath-ca")
    image = build_endbox_image(ca.public_key, default_cost_model())
    ca.whitelist_measurement(image.measure())
    platform = SgxPlatform(ias)
    box = EndBoxEnclave.create(image, platform)
    provision_client(box, platform, ca, SealedStorage(platform.platform_id))
    config = click_configs.nop_config()
    box.gateway.ecall("initialize", config, "", sim=Simulator(), payload_bytes=len(config))
    return box


# ----------------------------------------------------------------------
# data-channel batch crypto
# ----------------------------------------------------------------------
def channel_pair():
    return (
        DataChannel(b"cipher-key-cipher", b"hmac-key-hmac-key"),
        DataChannel(b"cipher-key-cipher", b"hmac-key-hmac-key"),
    )


def data_items(payloads, session_id=9):
    return [(VpnPacket(OP_DATA, session_id, pid), p) for pid, p in enumerate(payloads, start=1)]


def test_protect_batch_ciphertexts_identical():
    tx_single, _ = channel_pair()
    tx_burst, _ = channel_pair()
    payloads = [make_payload(n) for n in (1, 63, 64, 65, 700)]
    single_wire = [
        tx_single.protect_batch([item])[0].serialize() for item in data_items(payloads)
    ]
    burst_wire = [p.serialize() for p in tx_burst.protect_batch(data_items(payloads))]
    assert burst_wire == single_wire
    assert tx_burst.protected.value == tx_single.protected.value == len(payloads)
    assert tx_burst.bytes_protected.value == tx_single.bytes_protected.value


def test_protect_batch_rejects_non_data_opcode():
    tx, _ = channel_pair()
    from repro.vpn.channel import ChannelError

    with pytest.raises(ChannelError):
        tx.protect_batch([(VpnPacket(OP_PING, 9, 1), b"x")])


def test_unprotect_batch_isolates_forged_packet():
    tx, rx_burst = channel_pair()
    _, rx_single = channel_pair()
    packets = tx.protect_batch(data_items([b"first", b"second", b"third"]))
    packets[1].body = b"\x00" * len(packets[1].body)  # forge the middle one
    burst_out = rx_burst.unprotect_batch(packets)
    single_out = [rx_single.unprotect_batch([packet])[0] for packet in packets]
    assert burst_out == single_out == [b"first", None, b"third"]
    assert rx_burst.rejected.value == rx_single.rejected.value == 1
    assert rx_burst.bytes_unprotected.value == rx_single.bytes_unprotected.value


def test_unprotect_rejects_body_shorter_than_tag():
    from repro.vpn.channel import ChannelError

    _, rx = channel_pair()
    short = VpnPacket(OP_DATA, 9, 1, b"x" * 15)  # one byte short of a tag
    assert rx.unprotect_batch([short]) == [None]
    with pytest.raises(ChannelError):
        rx.unprotect(short)
    assert rx.rejected.value == 2


@pytest.mark.parametrize("mode", list(ProtectionMode), ids=lambda m: m.value)
def test_channels_in_separate_registries_roundtrip(mode):
    """Sender and receiver share no in-process state, as on two machines."""
    keys = (b"cipher-key-cipher", b"hmac-key-hmac-key")
    payloads = [random.Random(size).randbytes(size) for size in (0, 1, 64, 1473, 16384)]
    with fork_isolated():
        tx = DataChannel(*keys, mode)
        wire = [p.serialize() for p in tx.protect_batch(data_items(payloads, session_id=6))]
        caches = current_caches()
        # after traffic the sender keeps per-key state only
        populated = {name for name in CryptoCaches.__slots__ if getattr(caches, name)}
        assert populated <= {"aes_schedules", "hmac_pads"}
        assert list(caches.hmac_pads) == [keys[1]]
    with fork_isolated():
        rx = DataChannel(*keys, mode)
        assert [rx.unprotect(VpnPacket.parse(w)) for w in wire] == payloads
        assert rx.unprotect_batch([VpnPacket.parse(w) for w in wire]) == payloads
        assert rx.rejected.value == 0


# ----------------------------------------------------------------------
# compiled Click dispatch
# ----------------------------------------------------------------------
class RecordingLedger(CostLedger):
    """A ledger that remembers every individual charge, in order."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def add(self, seconds):
        self.charges.append(seconds)
        super().add(seconds)


@pytest.mark.parametrize(
    "config",
    [click_configs.nop_config(), click_configs.firewall_config()],
    ids=["nop", "firewall"],
)
def test_compiled_dispatch_matches_interpreter(config):
    model = default_cost_model()
    interp_ledger = RecordingLedger()
    interpreted = Router(config, model, interp_ledger)
    interpreted.uncompile()
    assert not interpreted.compiled
    compiled_ledger = RecordingLedger()
    compiled = Router(config, model, compiled_ledger)
    assert compiled.compiled

    packets = burst(6) + [udp_packet(b"telnet", dport=23)]
    interp_out = [interpreted.process(p) for p in packets]
    compiled_out = [compiled.process(p) for p in packets]
    assert [a for a, _ in interp_out] == [a for a, _ in compiled_out]
    assert [p.serialize() for _, p in interp_out] == [p.serialize() for _, p in compiled_out]
    for name, element in interpreted.elements.items():
        twin = compiled.elements[name]
        assert (element.packets_in, element.packets_out) == (twin.packets_in, twin.packets_out)
    # the compiler elides provably-zero charges (identity adds); every
    # real charge must match in value and order, and totals exactly
    assert [c for c in compiled_ledger.charges if c != 0.0] == [
        c for c in interp_ledger.charges if c != 0.0
    ]
    assert compiled_ledger.total == interp_ledger.total


def test_process_batch_matches_scalar_loop():
    model = default_cost_model()
    loop_ledger = RecordingLedger()
    loop_router = Router(click_configs.firewall_config(), model, loop_ledger)
    batch_ledger = RecordingLedger()
    batch_router = Router(click_configs.firewall_config(), model, batch_ledger)

    packets = burst(10)
    loop_out = [loop_router.process(p) for p in packets]
    batch_out = batch_router.process_batch(packets)
    assert loop_out == batch_out
    assert [c for c in batch_ledger.charges if c != 0.0] == [
        c for c in loop_ledger.charges if c != 0.0
    ]
    assert batch_ledger.total == loop_ledger.total
    assert batch_router.packets_processed == loop_router.packets_processed == len(packets)


def test_uncompiled_process_batch_falls_back_to_scalar():
    router = Router(click_configs.firewall_config(), default_cost_model(), CostLedger())
    router.uncompile()
    packets = burst(4)
    assert router.process_batch(packets) == [
        Router(click_configs.firewall_config(), default_cost_model(), CostLedger()).process(p)
        for p in packets
    ]


# ----------------------------------------------------------------------
# the process_packet ecall: a burst of N equals N bursts of one
# ----------------------------------------------------------------------
def cross(gateway, packets, direction="egress"):
    """One ``process_packet`` crossing for ``packets``."""
    return gateway.ecall(
        "process_packet",
        list(packets),
        direction,
        MODE,
        True,
        payload_bytes=sum(len(p) for p in packets),
    )


def cross_singly(gateway, packets, direction="egress"):
    """``len(packets)`` crossings, each a burst of one."""
    return [cross(gateway, [p], direction)[0] for p in packets]


@pytest.fixture()
def recording(endbox):
    """The enclave re-initialised over a ledger that keeps every charge."""
    gateway = endbox.gateway
    gateway.ledger = RecordingLedger()
    config = click_configs.nop_config()
    gateway.ecall("initialize", config, "", sim=Simulator(), payload_bytes=len(config))
    gateway.ledger.drain()
    gateway.ledger.charges.clear()
    return endbox


def assert_burst_equals_singles(gateway, singles, batched, singles_charges, batched_charges, n):
    """Same verdicts and bytes; the ledgers differ by exactly N-1 transition pairs."""
    assert [a for a, _ in singles] == [a for a, _ in batched]
    assert [p.serialize() for _, p in singles] == [p.serialize() for _, p in batched]
    saved = Counter(singles_charges) - Counter(batched_charges)
    assert saved == Counter({gateway.transition_cost: 2 * (n - 1)})
    assert not Counter(batched_charges) - Counter(singles_charges)


def test_ecall_batch_single_crossing_and_discount(recording):
    gateway = recording.gateway
    ledger = gateway.ledger
    packets = burst(8)

    before = gateway.ecalls.value
    singles = cross_singly(gateway, packets)
    single_crossings = gateway.ecalls.value - before
    singles_charges = list(ledger.charges)
    singles_cost = ledger.drain()
    ledger.charges.clear()

    before = gateway.ecalls.value
    batched = cross(gateway, packets)
    batch_crossings = gateway.ecalls.value - before
    batch_cost = ledger.drain()

    assert single_crossings == len(packets)
    assert batch_crossings == 1
    assert_burst_equals_singles(
        gateway, singles, batched, singles_charges, ledger.charges, len(packets)
    )
    discount = 2 * gateway.transition_cost * (len(packets) - 1)
    assert math.isclose(singles_cost - batch_cost, discount, rel_tol=1e-9)


def test_ecall_batch_validates_every_item_before_entering(endbox):
    gateway = endbox.gateway
    good = udp_packet()
    before = gateway.ecalls.value
    with pytest.raises(InterfaceViolation):
        gateway.ecall("process_packet", [good, b"not-a-packet", good], "egress", MODE, True)
    assert gateway.ecalls.value == before  # the enclave was never entered


def test_process_packet_batch_matches_scalar_egress(recording):
    gateway = recording.gateway
    ledger = gateway.ledger
    packets = burst(8)
    singles = cross_singly(gateway, packets)
    singles_charges = list(ledger.charges)
    ledger.charges.clear()
    batched = cross(gateway, packets)
    assert_burst_equals_singles(
        gateway, singles, batched, singles_charges, ledger.charges, len(packets)
    )
    assert all(p.tos == ENDBOX_PROCESSED_TOS for _, p in batched)


def test_process_packet_batch_firewall_verdicts(endbox):
    config = (
        "f :: FromDevice(); fw :: IPFilter(deny dst port 23, allow all); "
        "t :: ToDevice(); f -> fw -> t;"
    )
    endbox.gateway.ecall("initialize", config, "", sim=Simulator(), payload_bytes=len(config))
    fw = endbox.enclave.trusted_state["click"].router.element("fw")
    packets = [udp_packet(dport=23), udp_packet(dport=80), udp_packet(dport=23)]
    singles = cross_singly(endbox.gateway, packets)
    counts = (fw.packets_in, fw.packets_out)
    batched = cross(endbox.gateway, packets)
    assert [a for a, _ in batched] == [a for a, _ in singles] == [False, True, False]
    assert (fw.packets_in, fw.packets_out) == (2 * counts[0], 2 * counts[1])


def test_process_packet_batch_ingress_bypass_matches_scalar(recording):
    gateway = recording.gateway
    ledger = gateway.ledger
    router = recording.enclave.trusted_state["click"].router
    flagged = [udp_packet(tos=ENDBOX_PROCESSED_TOS) for _ in range(3)]
    unflagged = [udp_packet() for _ in range(2)]
    packets = [flagged[0], unflagged[0], flagged[1], unflagged[1], flagged[2]]

    before = router.packets_processed
    singles = cross_singly(gateway, packets, "ingress")
    singles_clicked = router.packets_processed - before
    singles_charges = list(ledger.charges)
    ledger.charges.clear()

    before = router.packets_processed
    batched = cross(gateway, packets, "ingress")
    batch_clicked = router.packets_processed - before

    assert_burst_equals_singles(
        gateway, singles, batched, singles_charges, ledger.charges, len(packets)
    )
    assert singles_clicked == batch_clicked == len(unflagged)  # flagged ones bypass Click
    assert [p.tos for _, p in batched] == [p.tos for p in packets]  # ingress never flags


def test_process_packet_batch_cost_matches_scalar_modulo_discount(recording):
    gateway = recording.gateway
    ledger = gateway.ledger
    packets = burst(16, payload_bytes=700)
    singles = cross_singly(gateway, packets)
    singles_charges = list(ledger.charges)
    singles_cost = ledger.drain()
    ledger.charges.clear()
    batched = cross(gateway, packets)
    batch_cost = ledger.drain()
    assert_burst_equals_singles(
        gateway, singles, batched, singles_charges, ledger.charges, len(packets)
    )
    discount = 2 * gateway.transition_cost * (len(packets) - 1)
    assert math.isclose(singles_cost - batch_cost, discount, rel_tol=1e-9)


def test_process_packet_batch_single_item_costs_exactly_scalar(recording):
    # a burst of one books what the paper's per-packet ecall books, as
    # separate ledger entries in the same order: EENTER, boundary
    # copies, EPC tax, data-channel crypto, Click, EEXIT
    gateway = recording.gateway
    model = recording.enclave.trusted_state["cost_model"]
    packet = udp_packet(make_payload(700))
    size = len(packet)
    cross(gateway, [packet])
    charges = gateway.ledger.charges
    assert charges[:4] == [
        gateway.transition_cost,
        2 * model.memcpy(size),
        size * model.epc_per_byte,
        crypto_cost(model, size, ProtectionMode.ENCRYPT_AND_MAC),
    ]
    assert charges[-1] == gateway.transition_cost
    total = 0.0
    for charge in charges:
        total += charge
    assert gateway.ledger.drain() == total


def test_process_packet_batch_validator_rejects(endbox):
    gateway = endbox.gateway
    good = udp_packet()
    for args in (
        (good, "egress", MODE, True),  # a bare packet is not a burst
        ("not-a-list", "egress", MODE, True),
        ([], "egress", MODE, True),
        ([good, b"junk"], "egress", MODE, True),
        ([good], "sideways", MODE, True),
        ([good], "egress", "rot13", True),
        ([good], "egress", MODE, 1),
        ([good] * 4097, "egress", MODE, True),
    ):
        with pytest.raises(InterfaceViolation):
            gateway.ecall("process_packet", *args)


# ----------------------------------------------------------------------
# the client: one burst-draining worker, ecall_batch_limit per crossing
# ----------------------------------------------------------------------
def modeled_outcome(spec, packet_bytes, rate_bps, denied_bps=0.0):
    """Modeled CPU seconds, clock and delivery counts of a short two-way run.

    One client sends to the internal host and the internal host sends
    back for 20 ms; ``denied_bps`` adds flows to port 23 both ways,
    which the FW graph rejects on egress and on ingress.
    """
    world = spec.build()
    world.connect_all()
    client = world.clients[0]
    up_sink = UdpSink(world.internal, 5201)
    down_sink = UdpSink(client.host, 5202)

    def flow(src, dst, port, rate):
        return UdpTrafficSource(src, dst, port, rate_bps=rate, packet_bytes=packet_bytes)

    flows = [
        flow(client.host, world.internal.address, 5201, rate_bps),
        flow(world.internal, client.tunnel_ip, 5202, rate_bps),
    ]
    if denied_bps:
        flows += [
            flow(client.host, world.internal.address, 23, denied_bps),
            flow(world.internal, client.tunnel_ip, 23, denied_bps),
        ]
    for source in flows:
        source.start()
    world.sim.run(until=world.sim.now + 0.02)
    for source in flows:
        source.stop()
    world.sim.run(until=world.sim.now + 0.05)  # drain
    return (
        client.host.cpu.busy_time.hex(),
        world.server_host.cpu.busy_time.hex(),
        world.sim.now.hex(),
        up_sink.packets,
        up_sink.inner_bytes,
        down_sink.packets,
        down_sink.inner_bytes,
        client.packets_dropped_by_click,
        client.endbox.gateway.ledger.total.hex(),
        client.endbox.gateway.ecalls.value,
    )


#: the default path's modeled outcome, recorded before the scalar and
#: burst data paths were merged into one; it must not move by one ulp
PINNED_OUTCOMES = {
    "fw_64": (
        "0x1.2b2ee4fe47a36p-5",
        "0x1.33b99c12a2ad0p-7",
        "0x1.423d70a3d70a4p+3",
        782,
        50048,
        782,
        50048,
        158,
        "0x1.df4aae4511656p-7",
        1729,
    ),
    "nop_16k": (
        "0x1.7c606475f6a9fp-7",
        "0x1.e3e849356c351p-8",
        "0x1.423d70a3d70a4p+3",
        77,
        1261568,
        77,
        1261568,
        0,
        "0x1.c4df3faf85274p-8",
        238,
    ),
}


def test_default_path_modeled_outcome_pinned():
    fw = DeploymentSpec(clients=1, use_case="FW", seed="pinned")
    nop = DeploymentSpec(clients=1, use_case="NOP", seed="pinned")
    assert modeled_outcome(fw, 64, 20e6, denied_bps=2e6) == PINNED_OUTCOMES["fw_64"]
    assert modeled_outcome(nop, 16384, 500e6) == PINNED_OUTCOMES["nop_16k"]


def test_batch_limit_one_builds_default_outcome():
    spec = DeploymentSpec(clients=1, use_case="FW", seed="pinned", ecall_batch_limit=1)
    world = spec.build()
    assert world.clients[0].ecall_batch_limit == 1
    assert modeled_outcome(spec, 64, 20e6, denied_bps=2e6) == PINNED_OUTCOMES["fw_64"]


def test_batch_limit_zero_rejected():
    with pytest.raises(DeploymentSpecError, match="ecall_batch_limit"):
        DeploymentSpec(ecall_batch_limit=0)


def test_batch_limit_requires_single_ecall_optimization():
    with pytest.raises(DeploymentSpecError, match="single_ecall_optimization"):
        DeploymentSpec(ecall_batch_limit=32, single_ecall_optimization=False)


def test_swap_window_counts_each_dropped_packet_once():
    world = DeploymentSpec(seed="swap-window").build()
    world.connect_all()
    client = world.clients[0]
    sim = world.sim
    sink = UdpSink(world.internal, 5201)
    sock = client.host.stack.udp_socket()
    client._swap_until = sim.now + 0.05  # the graph is mid-hot-swap for 50 ms
    dropped = client.packets_dropped_by_click
    busy = client.host.cpu.busy_time

    def sender():
        for _ in range(21):
            sock.sendto(b"x" * 64, world.internal.address, 5201)
            yield sim.timeout(0.002)

    sim.process(sender())
    sim.run(until=sim.now + 0.1)
    assert sink.packets == 0
    assert client.packets_dropped_by_click - dropped == 21
    # each refused packet still pays its partition overhead
    assert (client.host.cpu.busy_time - busy).hex() == "0x1.34d567559aaafp-12"


def test_batched_client_forms_bursts_and_delivers():
    world = DeploymentSpec(ecall_batch_limit=32, seed="fastpath").build()
    world.connect_all()
    client = world.clients[0]
    sink = UdpSink(world.internal, 5201)
    source = UdpTrafficSource(
        client.host, world.internal.address, 5201, rate_bps=900e6, packet_bytes=1500
    )
    source.start()
    world.sim.run(until=world.sim.now + 0.02)
    source.stop()
    world.sim.run(until=world.sim.now + 0.05)  # drain the backlog

    assert sink.packets > 0
    assert client.ecall_bursts > 0
    per_crossing = client.ecall_burst_packets / client.ecall_bursts
    assert per_crossing > 1.0  # saturating load must actually batch
    assert client.ecall_burst_packets <= client.ecall_bursts * client.ecall_batch_limit


# ----------------------------------------------------------------------
# zero-copy equivalence (ROADMAP item 4)
# ----------------------------------------------------------------------
def test_zero_copy_channel_equivalence_across_sizes():
    """Bursts of one and one burst agree on parsed views at edge sizes."""
    rng = random.Random(0xEB10)
    sizes = [0, 1, 16, 31, 32, 33, 1472, 1473, 8900]
    sizes += [rng.randrange(2, 4096) for _ in range(6)]
    payloads = [rng.randbytes(size) for size in sizes]
    tx_single, rx_single = channel_pair()
    tx_burst, rx_burst = channel_pair()
    wire = []
    for item, payload in zip(data_items(payloads, session_id=5), payloads):
        wire.append(tx_single.protect_batch([item])[0].serialize())
        parsed = VpnPacket.parse(wire[-1])
        # OP_DATA bodies are carved as views over the datagram buffer
        assert type(parsed.body) is memoryview
        assert rx_single.unprotect_batch([parsed]) == [payload]
    burst = tx_burst.protect_batch(data_items(payloads, session_id=5))
    assert [p.serialize() for p in burst] == wire
    assert rx_burst.unprotect_batch([VpnPacket.parse(w) for w in wire]) == payloads
    assert rx_burst.bytes_unprotected.value == rx_single.bytes_unprotected.value


def test_zero_copy_ip_parse_matches_serialize_across_sizes():
    rng = random.Random(7)
    for size in (0, 1, 8, 1471, 1472, 1473):
        payload = rng.randbytes(size)
        packet = udp_packet(payload)
        wire = packet.serialize()
        parsed = parse_ipv4(wire, verify_checksum=True)
        assert parsed.l4.payload == payload
        assert parsed.serialize() == wire


def test_fragmented_burst_roundtrips_through_reassembler():
    rng = random.Random(0xF0)
    inner = rng.randbytes(25_000)
    frag_id, pieces = Fragmenter(1400).split(inner)
    tx, rx = channel_pair()
    items = [
        (VpnPacket(OP_DATA, 3, index + 1, b"", frag_id, index, len(pieces)), piece)
        for index, piece in enumerate(pieces)
    ]
    protected = tx.protect_batch(items)
    reassembler = Reassembler()
    result = None
    for sealed in protected:
        parsed = VpnPacket.parse(sealed.serialize())
        plain = rx.unprotect(parsed)
        got = reassembler.add(
            parsed.session_id, parsed.frag_id, parsed.frag_index, parsed.frag_count, plain
        )
        if got is not None:
            result = got
    assert result == inner
    assert reassembler.completed == 1


def test_parsed_packet_does_not_alias_reused_wire_buffer():
    """HP705 semantics: parse output must survive receive-buffer reuse."""
    payload = random.Random(1).randbytes(512)
    wire = bytearray(udp_packet(payload).serialize())
    parsed = parse_ipv4(wire)
    snapshot = parsed.serialize()
    wire[:] = b"\xff" * len(wire)  # the NIC ring reuses the buffer
    assert parsed.l4.payload == payload
    assert parsed.serialize() == snapshot


def test_unprotect_plaintext_survives_wire_buffer_reuse():
    tx, rx = channel_pair()
    payload = b"sensitive-inner-packet"
    wire = bytearray(tx.protect(VpnPacket(OP_DATA, 4, 1), payload).serialize())
    parsed = VpnPacket.parse(wire)  # body is a view over ``wire``
    plain = rx.unprotect(parsed)
    wire[:] = b"\x00" * len(wire)  # the datagram buffer is reused
    assert plain == payload


def test_tls_record_zero_copy_framing_and_unprotect():
    key = bytes(range(32))
    tx = RecordProtection(key)
    rx = RecordProtection(key)
    plains = [b"", b"x", random.Random(2).randbytes(1000)]
    buf = b"".join(tx.protect(TYPE_APPLICATION_DATA, p) for p in plains)
    records, tail = parse_records(buf)
    assert tail == b""
    assert [rx.unprotect(r) for r in records] == plains
    # a buffer with no complete record is handed back uncopied
    incomplete = buf[:4]
    records, tail = parse_records(incomplete)
    assert records == []
    assert tail is incomplete


# ----------------------------------------------------------------------
# bounded crypto caches (deterministic FIFO eviction)
# ----------------------------------------------------------------------
def test_channel_caches_stay_bounded_under_churn():
    with fork_isolated():
        tx, rx = channel_pair()
        caches = current_caches()
        pid = 0
        for _round in range(6):
            items = []
            for _ in range(512):
                pid += 1
                items.append((VpnPacket(OP_DATA, 2, pid), b"churn-payload"))
            assert rx.unprotect_batch(tx.protect_batch(items)) == [b"churn-payload"] * 512
        # per-key state only: thousands of records, one pad-state entry
        assert len(caches.hmac_pads) == 1 <= HMAC_PAD_CACHE_ENTRIES


def _vpn_digest_run():
    world = DeploymentSpec(
        clients=1, setup="endbox_sgx", use_case="NOP", ping_interval=0.25, charge_cpu=False
    ).build()
    world.sim.telemetry.recording = True
    world.connect_all()
    sink = UdpSink(world.internal, 6003)
    UdpTrafficSource(
        world.clients[0].host, world.internal.address, 6003, rate_bps=4e5, packet_bytes=400
    ).start()
    world.sim.run(until=world.sim.now + 2.0)
    return trace_digest(world.sim.telemetry), sink.packets


def test_tiny_cache_caps_leave_trace_digest_unchanged(monkeypatch):
    """Eviction policy is invisible: every cached value is a pure
    function of its key, so starving the caches must not move a byte."""
    baseline_digest, baseline_packets = _vpn_digest_run()
    monkeypatch.setattr(crypto_hmac, "HMAC_PAD_CACHE_ENTRIES", 1)
    tiny_digest, tiny_packets = _vpn_digest_run()
    assert tiny_packets == baseline_packets > 0
    assert tiny_digest == baseline_digest


# ----------------------------------------------------------------------
# the committed perf baseline
# ----------------------------------------------------------------------
def test_committed_bench_baseline_meets_criteria():
    """``make check`` gate: BENCH_micro.json must satisfy every per-stage
    criterion (vpn_data_channel/channel_crypto >= 2x, end_to_end >= 3x)."""
    path = Path(__file__).resolve().parents[1] / "BENCH_micro.json"
    doc = json.loads(path.read_text())
    speedups = {stage["name"]: stage["speedup"] for stage in doc["stages"]}
    for stage_name, required in CRITERIA.items():
        assert speedups[stage_name] >= required, (
            f"{stage_name}: committed baseline {speedups[stage_name]}x "
            f"below the required {required}x"
        )
    assert all(entry["met"] for entry in doc["criteria"])
