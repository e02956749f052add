"""§V-G: the three EndBox optimisation ablations.

1. **Enclave transitions** (§IV-A): batching all per-packet work behind a
   single ecall instead of ~13 ecalls/ocalls per packet.  Paper: +342 %
   throughput.
2. **Scenario-specific traffic protection**: in the ISP scenario the data
   channel drops AES encryption (integrity only).  Paper: +11 %
   throughput.
3. **Client-to-client communication**: flagged packets (QoS byte 0xEB)
   skip Click on the receiving client.  Paper: up to -13 % c2c latency
   for the IDPS use case.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.fleet import DeploymentSpec
from repro.experiments.common import ExperimentResult, format_table, measure_max_throughput

PACKET_BYTES = 1500

PAPER = {
    "single-ecall batching": "+342% throughput",
    "ISP no-encryption": "+11% throughput",
    "c2c flagging": "-13% client-to-client latency (IDPS)",
}


TITLE = "§V-G: optimisation ablations"


def _throughput(setup_kwargs: dict, offered: float, seed: str) -> float:
    world = DeploymentSpec(
        clients=1, with_config_server=False, seed=seed, **setup_kwargs
    ).build()
    world.connect_all()
    return measure_max_throughput(world, PACKET_BYTES, offered, duration=0.06)


def run_transition_batching(seed: str = "opt1") -> Tuple[float, float, float]:
    """Returns (unoptimised bps, optimised bps, improvement fraction)."""
    optimised = _throughput(
        dict(setup="endbox_sgx", use_case="NOP", single_ecall_optimization=True), 900e6, seed
    )
    unoptimised = _throughput(
        dict(setup="endbox_sgx", use_case="NOP", single_ecall_optimization=False), 900e6, seed
    )
    return unoptimised, optimised, optimised / unoptimised - 1.0


def run_burst_batching(seed: str = "opt1b") -> Tuple[float, float, float, float]:
    """One ecall per packet vs one ecall per burst (real code path).

    The batched arm raises ``ecall_batch_limit`` on the one data path:
    the client worker drains the run of queued data packets (up to 32)
    and crosses the boundary once for the whole burst, so the gateway's
    ecall counter — and the transition charges on its cost ledger —
    grow per *burst*, not per packet.

    Returns (single-ecall bps, burst-batched bps, improvement fraction,
    mean packets per crossing observed in the batched run).
    """
    single = _throughput(
        dict(setup="endbox_sgx", use_case="NOP", single_ecall_optimization=True), 900e6, seed
    )
    world = DeploymentSpec(
        clients=1,
        with_config_server=False,
        seed=seed,
        setup="endbox_sgx",
        use_case="NOP",
        single_ecall_optimization=True,
        ecall_batch_limit=32,
    ).build()
    world.connect_all()
    batched = measure_max_throughput(world, PACKET_BYTES, 900e6, duration=0.06)
    client = world.clients[0]
    if client.ecall_bursts == 0:
        raise RuntimeError("batched run never crossed into the enclave")
    packets_per_crossing = client.ecall_burst_packets / client.ecall_bursts
    return single, batched, batched / single - 1.0, packets_per_crossing


def run_isp_no_encryption(seed: str = "opt2") -> Tuple[float, float, float]:
    """Returns (encrypted bps, integrity-only bps, improvement fraction)."""
    encrypted = _throughput(
        dict(setup="endbox_sgx", use_case="NOP", scenario="isp", isp_no_encryption=False),
        900e6,
        seed,
    )
    mac_only = _throughput(
        dict(setup="endbox_sgx", use_case="NOP", scenario="isp", isp_no_encryption=True),
        900e6,
        seed,
    )
    return encrypted, mac_only, mac_only / encrypted - 1.0


def _c2c_latency(c2c_flagging: bool, seed: str, pings: int = 30) -> float:
    """Average client-to-client ping RTT under the IDPS use case."""
    world = DeploymentSpec(
        clients=2,
        setup="endbox_sgx",
        use_case="IDPS",
        c2c_flagging=c2c_flagging,
        with_config_server=False,
        seed=seed,
    ).build()
    world.connect_all()
    a, b = world.clients
    rtts: List[float] = []

    def pinger():
        for sequence in range(pings):
            rtt = yield world.sim.process(
                a.host.stack.ping(
                    b.tunnel_ip, identifier=5, sequence=sequence, size=1400, timeout=0.5
                )
            )
            if rtt is not None:
                rtts.append(rtt)
            # back-to-back-ish so the daemons stay warm (ping -f style)
            yield world.sim.timeout(0.002)

    proc = world.sim.process(pinger())
    world.sim.run(until=world.sim.now + pings * 1.0)
    if not proc.triggered or not rtts:
        raise RuntimeError("c2c pings failed")
    # skip the first (cold) sample
    return sum(rtts[1:]) / len(rtts[1:])


def run_c2c_flagging(seed: str = "opt3") -> Tuple[float, float, float]:
    """Returns (RTT without flagging, with flagging, latency reduction)."""
    without = _c2c_latency(False, seed)
    with_flag = _c2c_latency(True, seed)
    return without, with_flag, 1.0 - with_flag / without


def run(seed: str = "opts") -> ExperimentResult:
    """Run the experiment; returns an :class:`ExperimentResult`."""
    values = {}
    rows: List[Tuple[str, str, str]] = []  # (optimisation, paper, measured)

    unopt, opt, gain = run_transition_batching(seed + "1")
    values["batching_gain"] = gain
    rows.append(
        (
            "single-ecall batching",
            PAPER["single-ecall batching"],
            f"+{gain * 100:.0f}% ({unopt / 1e6:.0f} -> {opt / 1e6:.0f} Mbps)",
        )
    )

    single, burst, burst_gain, per_crossing = run_burst_batching(seed + "1b")
    values["burst_gain"] = burst_gain
    values["burst_packets_per_crossing"] = per_crossing
    rows.append(
        (
            "burst ecall batching",
            "(beyond paper)",
            f"+{burst_gain * 100:.0f}% ({single / 1e6:.0f} -> {burst / 1e6:.0f} Mbps, "
            f"{per_crossing:.1f} pkt/crossing)",
        )
    )

    enc, mac, gain = run_isp_no_encryption(seed + "2")
    values["isp_gain"] = gain
    rows.append(
        (
            "ISP no-encryption",
            PAPER["ISP no-encryption"],
            f"+{gain * 100:.0f}% ({enc / 1e6:.0f} -> {mac / 1e6:.0f} Mbps)",
        )
    )

    without, with_flag, reduction = run_c2c_flagging(seed + "3")
    values["c2c_reduction"] = reduction
    rows.append(
        (
            "c2c flagging",
            PAPER["c2c flagging"],
            f"-{reduction * 100:.0f}% latency ({without * 1e6:.0f} -> {with_flag * 1e6:.0f} us)",
        )
    )
    return ExperimentResult(
        name="optimizations",
        title=TITLE,
        x_label="optimisation",
        paper=dict(PAPER),
        metadata={"values": values, "rows": rows},
        text=format_table(
            ["optimisation", "paper", "measured"], [list(row) for row in rows], title=TITLE
        ),
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
