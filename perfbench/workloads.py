"""The three benchmark workloads and the episode that drives one of them.

An episode builds a world from a ``DeploymentSpec`` (cold: the first
world in the process), connects every tunnel, and then runs an open
loop in modeled time: each client's ``UdpTrafficSource`` sends at a
fixed modeled rate below the modeled capacity, regardless of how fast
the pipeline drains.  The traffic crosses the simulated links in this
process (app -> TUN -> enclave Click -> protect -> link -> gateway
unprotect -> internal host); no real NIC or loopback is involved.

The traffic phase is cut into fixed modeled-time slices, one
``sim.run(until=...)`` call each, and the wall time of every slice is
recorded.  After the timed slices the sources stop and the pipeline
drains, so each offered datagram is either delivered or counted as a
failure.  The benchmark's own receiver compares every delivered payload
byte for byte with the payload the sources sent.

``--seconds`` sizes the modeled work: a workload runs
``seconds * modeled_per_wall_s`` modeled seconds, where the constant was
measured on a 2-core x86 host so the timed phase takes about
``seconds`` wall seconds there.  The same arguments always give the same
modeled work, so the modeled outcome (and its digest) repeats exactly.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

import calibrate

#: modeled-time slices in the timed phase; p95 has 12 slices beyond it
TIMED_SLICES = 240
#: untimed slices before the timed phase (lazy set-up, caches filling)
WARMUP_SLICES = 20
#: modeled seconds the pipeline drains after the sources stop; far
#: longer than any queueing delay below capacity
DRAIN_S = 0.5
#: reference-loop timings taken before and again after the set-up
SETUP_REFERENCES = 10
#: UDP port of the benchmark's receiver on the internal host
PORT = 5201
#: a client notices a rollout at the gateway's next ping and applies it
#: within a few modeled ms more; this margin past the ping interval keeps
#: every rollout applied before the timed phase ends
APPLY_MARGIN_S = 0.1
#: the second IDPS graph of the alternating rollouts: the stock graph
#: with a Counter behind the matcher
IDPS_COUNTED = (
    "// IDPS with a packet counter\n"
    "from :: FromDevice();\n"
    "ids :: IDSMatcher();\n"
    "count :: Counter();\n"
    "to :: ToDevice();\n"
    "from -> ids -> count -> to;\n"
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one ``DeploymentSpec`` shape."""

    name: str
    use_case: str
    clients: int
    gateways: int
    packet_bytes: int
    #: offered load per client, modeled bits per second
    rate_bps: float
    #: modeled seconds of traffic per wall second on the reference host
    modeled_per_wall_s: float
    #: modeled seconds between config rollouts; 0 means no rollouts
    rollout_every_s: float = 0.0
    #: keepalive interval; the server announces rollouts in its pings
    ping_interval_s: float = 1.0

    def spec(self, seed: int):
        """The world's spec; the benchmark seed becomes the spec seed."""
        from repro.fleet import DeploymentSpec

        return DeploymentSpec(
            setup="endbox_sgx",
            use_case=self.use_case,
            clients=self.clients,
            gateways=self.gateways,
            balancer="hash_ring",
            ping_interval=self.ping_interval_s,
            seed=f"perfbench-{seed}",
        )

    def modeled_duration(self, seconds: float) -> float:
        """Modeled length of the timed phase for a ``--seconds`` value."""
        return seconds * self.modeled_per_wall_s

    def rollout_offsets(self, seconds: float) -> List[float]:
        """Modeled offsets (from the timed phase's start) of the rollouts.

        Every rollout lands at least one ping interval plus
        :data:`APPLY_MARGIN_S` before the timed phase ends, so it is
        applied before the drain.  Rollouts are spaced more than a ping
        interval apart, so no client skips a version.
        """
        if not self.rollout_every_s:
            return []
        offsets = []
        at = self.rollout_every_s / 2
        while at + self.ping_interval_s + APPLY_MARGIN_S <= self.modeled_duration(seconds):
            offsets.append(at)
            at += self.rollout_every_s
        return offsets


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # per-packet cost: 64 B at 20 Mbps is ~80 % of the modeled
        # 64 B capacity (~25 Mbps for EndBox SGX)
        Workload("small_fw", "FW", 1, 1, 64, 20e6, 0.09),
        # bulk bytes: 16 KiB datagrams, fragmented to the tunnel MTU, at
        # half the modeled 16 KiB capacity (~2.1 Gbps)
        Workload("bulk_nop", "NOP", 1, 1, 16384, 1e9, 0.1),
        # many sessions, IDS scanning and a control plane of signed,
        # encrypted rollouts alternating between two IDPS graphs; every
        # client applies a rollout in the same slice (the gateways ping all
        # sessions at once), so rollouts come every 0.5 s modeled (a 0.25 s
        # keepalive, as in the chaos rollout scenario) to put one in more
        # than 5 % of the slices, where slice_ms.p95 sees the stall
        Workload(
            "fleet_rollout", "IDPS", 8, 2, 1500, 2e6, 1.0,
            rollout_every_s=0.5, ping_interval_s=0.25,
        ),
    )
}


class Receiver:
    """UDP sink that checks every delivered payload byte for byte."""

    def __init__(self, host, port: int, expected: bytes) -> None:
        self.expected = expected
        self.delivered = 0
        self.corrupt = 0
        self.per_source: Dict[str, int] = {}
        self._sock = host.stack.udp_socket(port)
        host.sim.process(self._run(), name="perfbench.receiver")

    def _run(self):
        while True:
            payload, src, _sport, _packet = yield self._sock.recv()
            if payload != self.expected:
                self.corrupt += 1
                continue
            self.delivered += 1
            key = str(src)
            self.per_source[key] = self.per_source.get(key, 0) + 1


@dataclass
class Episode:
    """Everything one run of a workload measured."""

    workload: str
    setup_build_s: float
    setup_connect_s: float
    #: median reference-loop time around the set-up
    setup_ref_s: float
    slices_s: List[float]
    #: reference-loop times bracketing the timed slices
    slice_refs_s: List[float]
    timed_delivered: int
    offered: int
    delivered: int
    expected_updates: int
    applied_updates: int
    events: int
    phase_wall_s: float
    #: median reference-loop time of the timed slices
    phase_ref_s: float
    outcome: dict
    problems: List[str]
    telemetry: Dict[str, int]

    @property
    def setup_s(self) -> float:
        """Wall seconds of ``build()`` + ``connect_all()``."""
        return self.setup_build_s + self.setup_connect_s

    @property
    def attempted(self) -> int:
        """Offered datagrams plus expected per-client config applications."""
        return self.offered + self.expected_updates

    @property
    def failed(self) -> int:
        """Datagrams not delivered plus config applications that did not happen."""
        return (self.offered - self.delivered) + (self.expected_updates - self.applied_updates)

    @property
    def digest(self) -> str:
        """SHA-256 of the modeled outcome (canonical JSON)."""
        text = json.dumps(self.outcome, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


#: telemetry counters read around the traffic phase (collector-backed
#: crypto memo stats and the data channel's reject count)
TELEMETRY_NAMES = (
    "crypto.stream.cache_hits",
    "crypto.stream.cache_misses",
    "crypto.hmac.cache_hits",
    "crypto.hmac.cache_misses",
    "vpn.channel.packets_rejected",
)


def _read_telemetry(registry) -> Dict[str, int]:
    """Current values of :data:`TELEMETRY_NAMES`; 0 for a name no longer registered."""
    from repro.telemetry import is_registered

    return {
        name: (registry.value(name) if is_registered(name) else 0) for name in TELEMETRY_NAMES
    }


def build_world(workload: Workload, seed: int):
    """Build and connect the workload's world, timing both steps.

    Returns ``(world, build_s, connect_s, reference_s)``, the last the
    median reference-loop time around the set-up (:mod:`calibrate`).
    """
    clock = time.perf_counter
    refs = calibrate.references(SETUP_REFERENCES)
    started = clock()
    world = workload.spec(seed).build()
    built = clock()
    world.connect_all()
    connected = clock()
    refs += calibrate.references(SETUP_REFERENCES)
    return world, built - started, connected - built, statistics.median(refs)


def run_episode(workload: Workload, seed: int, seconds: float, tracer=None) -> Episode:
    """Build, connect, drive and drain one world; check its outputs.

    With a ``tracer`` its spans record over the traffic phase only (the
    warm-up, the timed slices and the drain), the same interval
    ``phase_wall_s`` measures.  The reference loop of :mod:`calibrate`
    runs before the first timed slice and after every one, outside the
    slices' timing, ``phase_wall_s`` and the spans.
    """
    from repro.core.scenarios import use_case_configs
    from repro.netsim.traffic import UdpTrafficSource

    clock = time.perf_counter
    world, build_s, connect_s, setup_ref_s = build_world(workload, seed)
    sim = world.sim

    sources = [
        UdpTrafficSource(
            host, world.internal.address, PORT, rate_bps=workload.rate_bps,
            packet_bytes=workload.packet_bytes,
        )
        for host in world.client_hosts
    ]
    receiver = Receiver(world.internal, PORT, sources[0].payload)

    duration = workload.modeled_duration(seconds)
    slice_s = duration / TIMED_SLICES
    phase_start = sim.now
    timed_start = phase_start + WARMUP_SLICES * slice_s

    # the rollouts' bundles are inputs, signed and encrypted up front by
    # the administrator; consecutive versions alternate between two graphs
    offsets = workload.rollout_offsets(seconds)
    config, rules = use_case_configs(workload.use_case, server_side=False)
    graphs = (IDPS_COUNTED, config)
    bundles = [
        world.publisher.build_bundle(2 + index, graphs[index % 2], rules, encrypt=True)
        for index in range(len(offsets))
    ]
    grace_s = 3 * workload.rollout_every_s

    def rollouts():
        for offset, bundle in zip(offsets, bundles):
            yield sim.timeout(timed_start + offset - sim.now)
            world.publisher.publish(bundle, world.config_server, world, grace_s)

    if bundles:
        sim.process(rollouts(), name="perfbench.rollouts")

    def reference() -> float:
        # the reference loop is the benchmark's own work: outside the spans
        if tracer is None:
            return calibrate.reference_loop()
        tracer.pause()
        took = calibrate.reference_loop()
        tracer.resume()
        return took

    telemetry_before = _read_telemetry(sim.telemetry)
    events_before = sim.events_executed
    if tracer is not None:
        tracer.start()
    phase_clock = clock()
    for source in sources:
        source.start()
    for index in range(1, WARMUP_SLICES + 1):
        sim.run(until=phase_start + index * slice_s)
    delivered_before = receiver.delivered
    slices: List[float] = []
    refs: List[float] = [reference()]
    for index in range(1, TIMED_SLICES + 1):
        tick = clock()
        sim.run(until=timed_start + index * slice_s)
        slices.append(clock() - tick)
        refs.append(reference())
    timed_delivered = receiver.delivered - delivered_before
    for source in sources:
        source.stop()
    sim.run(until=sim.now + DRAIN_S)
    # the reference loops are the benchmark's, not the traffic phase's
    phase_wall_s = clock() - phase_clock - sum(refs)
    if tracer is not None:
        tracer.stop()
    events = sim.events_executed - events_before
    telemetry_after = _read_telemetry(sim.telemetry)
    telemetry = {name: telemetry_after[name] - telemetry_before[name] for name in TELEMETRY_NAMES}

    versions = [bundle.version for bundle in bundles]
    applied = [
        [timing.version for timing in client.update_timings] for client in world.clients
    ]
    sent = [source.packets_sent for source in sources]
    offered = sum(sent)
    problems: List[str] = []
    if receiver.corrupt:
        problems.append(f"{receiver.corrupt} delivered payload(s) differ from the sent payload")
    if receiver.delivered + receiver.corrupt > offered:
        problems.append(
            f"received {receiver.delivered + receiver.corrupt} datagrams, offered {offered}"
        )
    for index, client_versions in enumerate(applied):
        if client_versions != sorted(set(client_versions)) or not set(client_versions) <= set(versions):
            problems.append(f"client {index} applied versions {client_versions}, rollouts were {versions}")
    return Episode(
        workload=workload.name,
        setup_build_s=build_s,
        setup_connect_s=connect_s,
        setup_ref_s=setup_ref_s,
        slices_s=slices,
        slice_refs_s=refs,
        timed_delivered=timed_delivered,
        offered=offered,
        delivered=receiver.delivered,
        expected_updates=len(versions) * len(world.clients),
        applied_updates=sum(len(client_versions) for client_versions in applied),
        events=events,
        phase_wall_s=phase_wall_s,
        phase_ref_s=statistics.median(refs),
        outcome={
            "workload": workload.name,
            "seed": seed,
            "sent": sent,
            "delivered": sorted(receiver.per_source.items()),
            "corrupt": receiver.corrupt,
            "sim_now": repr(sim.now),
            "gateway_cpu_s": [repr(host.cpu.busy_time) for host in world.gateway_hosts],
            "config_versions": applied,
        },
        problems=problems,
        telemetry=telemetry,
    )
