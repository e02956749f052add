"""Fig 10: server-side aggregate throughput and CPU usage vs #clients.

Each client offers 200 Mbps of 1500 B packets.  Fig 10a compares four
deployments on the NOP function; Fig 10b runs the five use cases on
OpenVPN+Click vs EndBox.

Paper readings this experiment reproduces:

* vanilla OpenVPN and EndBox scale linearly and saturate at ~6.5 Gbps
  (the VPN server's en/decryption is the only bottleneck — client-side
  middleboxes add *zero* server load),
* standalone Click caps at 5.5 Gbps (one Click process),
* OpenVPN+Click caps around 2.5 Gbps and *decreases* with more clients
  (per-packet OpenVPN<->Click hand-offs under process oversubscription);
  with IDPS/DDoS it only reaches ~1.7 Gbps,
* at 60 clients EndBox delivers 2.6x (FW/LB) to 3.8x (IDPS/DDoS) the
  centralized throughput.

The paper series below are read off the published figure (the paper
prints no table); saturation plateaus are the quoted numbers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.fleet import DeploymentSpec
from repro.costs.model import default_cost_model
from repro.experiments.common import (
    SETUP_LABELS,
    ExperimentResult,
    format_table,
    measure_aggregate_throughput,
    relative_error,
)
from repro.netsim.addresses import IPv4Address
from repro.netsim.host import class_a_host, class_b_host
from repro.netsim.packet import IPv4Packet, UdpDatagram
from repro.netsim.topology import StarTopology
from repro.netsim.traffic import UdpSink, UdpTrafficSource
from repro.sim import FifoStore, Simulator
from repro.vpn.costing import standalone_click_cost

CLIENT_COUNTS = (1, 10, 20, 30, 40, 50, 60)
PER_CLIENT_BPS = 200e6
PACKET_BYTES = 1500


def _paper_curve(cap_gbps: float, counts: Sequence[int]) -> Dict[int, float]:
    return {n: min(0.2 * n, cap_gbps) for n in counts}


PAPER_FIG10A: Dict[str, Dict[int, float]] = {
    SETUP_LABELS["vanilla"]: _paper_curve(6.5, CLIENT_COUNTS),
    SETUP_LABELS["endbox_sgx"]: _paper_curve(6.5, CLIENT_COUNTS),
    SETUP_LABELS["vanilla_click"]: _paper_curve(5.5, CLIENT_COUNTS),
    SETUP_LABELS["openvpn_click"]: _paper_curve(2.5, CLIENT_COUNTS),
}

PAPER_FIG10B: Dict[str, Dict[int, float]] = {
    f"OpenVPN+Click {uc}": _paper_curve(cap, CLIENT_COUNTS)
    for uc, cap in (("LB", 2.5), ("FW", 2.5), ("IDPS", 1.7), ("DDoS", 1.7))
}
PAPER_FIG10B.update(
    {f"EndBox SGX {uc}": _paper_curve(6.5, CLIENT_COUNTS) for uc in ("LB", "FW", "IDPS", "DDoS")}
)


def _render(result: ExperimentResult) -> str:
    """Render throughput + server-CPU tables from a scalability result."""
    cpu_percent = result.metadata["cpu_percent"]
    blocks = [result.title]
    for series, points in result.series.items():
        rows = []
        for n, gbps in points.items():
            paper_value = result.paper.get(series, {}).get(n)
            rows.append(
                [
                    n,
                    f"{paper_value:.1f}" if paper_value is not None else "-",
                    f"{gbps:.2f}",
                    relative_error(gbps, paper_value) if paper_value else "n/a",
                    f"{cpu_percent[series][n]:.0f}%",
                ]
            )
        blocks.append(
            format_table(
                ["clients", "paper [Gbps]", "measured [Gbps]", "error", "server CPU"],
                rows,
                title=series,
            )
        )
    return "\n\n".join(blocks)


def _measure_vpn_setup(
    setup: str,
    use_case: str,
    n_clients: int,
    duration: float,
    warmup: float,
    seed: str,
) -> Tuple[float, float]:
    world = DeploymentSpec(
        clients=n_clients,
        setup=setup,
        use_case=use_case,
        seed=seed,
        with_config_server=False,
        ping_interval=5.0,
    ).build()
    world.connect_all(until=15.0)
    aggregate, cpu = measure_aggregate_throughput(
        world, n_clients, PER_CLIENT_BPS, PACKET_BYTES, duration=duration, warmup=warmup
    )
    return aggregate / 1e9, cpu * 100


class _StandaloneClickBox:
    """The "vanilla Click" deployment: one Click process, no VPN.

    Clients address the box directly; it processes each packet in a
    single worker (Click is single-threaded) and forwards it to the
    sink host, rewriting the destination — a simple L3 middlebox.
    """

    def __init__(self, sim: Simulator, topo: StarTopology, sink_addr: IPv4Address) -> None:
        self.host = class_b_host(sim, "clickbox")
        topo.attach(self.host)
        self.sim = sim
        self.sink_addr = sink_addr
        self.model = default_cost_model()
        self._queue = FifoStore(sim, name="clickbox.q")
        self.host.stack.add_raw_listener(self._on_packet)
        sim.process(self._worker(), name="clickbox.worker")

    def _on_packet(self, packet: IPv4Packet, _interface) -> bool:
        if self.host.stack.is_local(packet.dst) and isinstance(packet.l4, UdpDatagram):
            self._queue.put(packet)
            return True
        return False

    def _worker(self):
        while True:
            packet = yield self._queue.get()
            yield self.host.run(standalone_click_cost(self.model, len(packet)))
            forwarded = packet.copy(dst=self.sink_addr)
            self.host.stack.send_packet(forwarded)


def _measure_vanilla_click(
    n_clients: int, duration: float, warmup: float
) -> Tuple[float, float]:
    sim = Simulator()
    topo = StarTopology(sim)
    sink_host = class_b_host(sim, "sinkhost")
    topo.attach(sink_host)
    box = _StandaloneClickBox(sim, topo, sink_host.address)
    sinks = []
    for index in range(n_clients):
        client = class_a_host(sim, f"client-{index}")
        topo.attach(client)
        sinks.append(UdpSink(sink_host, 5300 + index))
        UdpTrafficSource(
            client, box.host.address, 5300 + index, rate_bps=PER_CLIENT_BPS, packet_bytes=PACKET_BYTES
        ).start()
    sim.run(until=warmup)
    for sink in sinks:
        sink.reset_window()
    box.host.cpu.reset_window()
    sim.run(until=warmup + duration)
    aggregate = sum(sink.window_throughput_bps() for sink in sinks)
    return aggregate / 1e9, box.host.cpu.utilisation() * 100


def run_fig10a(
    counts: Sequence[int] = CLIENT_COUNTS,
    setups: Sequence[str] = ("vanilla", "endbox_sgx", "vanilla_click", "openvpn_click"),
    duration: float = 0.02,
    warmup: float = 0.012,
    seed: str = "fig10a",
) -> ExperimentResult:
    """Run the Fig 10a sweep; returns an :class:`ExperimentResult`."""
    result = ExperimentResult(
        name="fig10a",
        title="Fig 10a: NOP scalability (throughput + server CPU)",
        x_label="clients",
        unit="Gbps",
        paper=PAPER_FIG10A,
        metadata={"cpu_percent": {}},
    )
    cpu_percent = result.metadata["cpu_percent"]
    for setup in setups:
        label = SETUP_LABELS[setup]
        result.series[label] = {}
        cpu_percent[label] = {}
        for n in counts:
            if setup == "vanilla_click":
                gbps, cpu = _measure_vanilla_click(n, duration, warmup)
            else:
                gbps, cpu = _measure_vpn_setup(setup, "NOP", n, duration, warmup, seed)
            result.series[label][n] = gbps
            cpu_percent[label][n] = cpu
    result.text = _render(result)
    return result


def run_fig10b(
    counts: Sequence[int] = CLIENT_COUNTS,
    use_cases: Sequence[str] = ("LB", "FW", "IDPS", "DDoS"),
    setups: Sequence[str] = ("endbox_sgx", "openvpn_click"),
    duration: float = 0.02,
    warmup: float = 0.012,
    seed: str = "fig10b",
) -> ExperimentResult:
    """Run the Fig 10b sweep; returns an :class:`ExperimentResult`."""
    result = ExperimentResult(
        name="fig10b",
        title="Fig 10b: per-use-case scalability (throughput + server CPU)",
        x_label="clients",
        unit="Gbps",
        paper=PAPER_FIG10B,
        metadata={"cpu_percent": {}},
    )
    cpu_percent = result.metadata["cpu_percent"]
    for setup in setups:
        for use_case in use_cases:
            label = f"{SETUP_LABELS[setup]} {use_case}"
            result.series[label] = {}
            cpu_percent[label] = {}
            for n in counts:
                gbps, cpu = _measure_vpn_setup(setup, use_case, n, duration, warmup, seed)
                result.series[label][n] = gbps
                cpu_percent[label][n] = cpu
    result.text = _render(result)
    return result


def speedup_at(result: ExperimentResult, n: int, use_case: str) -> Optional[float]:
    """EndBox / OpenVPN+Click throughput ratio at ``n`` clients."""
    endbox = result.series.get(f"EndBox SGX {use_case}", {}).get(n)
    central = result.series.get(f"OpenVPN+Click {use_case}", {}).get(n)
    if not endbox or not central:
        return None
    return endbox / central


if __name__ == "__main__":  # pragma: no cover
    a = run_fig10a(counts=(1, 10, 20, 30, 40, 50, 60))
    print(a.to_text())
    print()
    b = run_fig10b(counts=(30, 60))
    print(b.to_text())
    for uc in ("LB", "FW", "IDPS", "DDoS"):
        ratio = speedup_at(b, 60, uc)
        print(f"EndBox speedup at 60 clients, {uc}: {ratio:.1f}x")
