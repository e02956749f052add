"""Packet tracing: tcpdump for the simulated network.

A :class:`PacketTracer` taps interfaces (or whole hosts) and records one
:class:`TraceEntry` per frame with timestamp, direction, addresses,
protocol and size.  Filters use the same tiny pattern language as
``IPClassifier`` plus address matching, so traces stay small.  Traces
render as tcpdump-like text — the first tool to reach for when a
reproduction experiment misbehaves.

>>> tracer = PacketTracer(sim)
>>> tracer.tap(host.stack.interfaces[0])
>>> ...run traffic...
>>> print(tracer.format())           # doctest: +SKIP
0.000125 client-0.eth0 rx 10.8.0.2 -> 10.0.0.3 UDP 1500B
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.interface import Interface
from repro.netsim.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    parse_ipv4,
)
from repro.sim import Simulator

_PROTO_NAMES = {PROTO_TCP: "TCP", PROTO_UDP: "UDP", PROTO_ICMP: "ICMP"}


@dataclass
class TraceEntry:
    time: float
    interface: str
    direction: str  # "rx" | "tx"
    src: IPv4Address
    dst: IPv4Address
    protocol: int
    size: int
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    tos: int = 0

    def __str__(self) -> str:
        proto = _PROTO_NAMES.get(self.protocol, str(self.protocol))
        ports = ""
        if self.src_port is not None:
            ports = f":{self.src_port} -> {self.dst}:{self.dst_port}"
        else:
            ports = f" -> {self.dst}"
        tos = f" tos=0x{self.tos:02x}" if self.tos else ""
        return (
            f"{self.time:.6f} {self.interface} {self.direction} "
            f"{self.src}{ports} {proto} {self.size}B{tos}"
        )


class PacketTracer:
    """Records frames crossing tapped interfaces."""

    def __init__(self, sim: Simulator, max_entries: int = 100_000) -> None:
        self.sim = sim
        self.max_entries = max_entries
        self.entries: List[TraceEntry] = []
        self.dropped_entries = 0

    # ------------------------------------------------------------------
    def tap(self, interface: Interface) -> None:
        """Start recording rx and tx frames of ``interface``."""
        original_deliver = interface.deliver
        original_send = interface.send

        def traced_deliver(frame: bytes) -> None:
            self._record(frame, interface.name, "rx")
            original_deliver(frame)

        def traced_send(frame: bytes) -> bool:
            self._record(frame, interface.name, "tx")
            return original_send(frame)

        interface.deliver = traced_deliver  # type: ignore[method-assign]
        interface.send = traced_send  # type: ignore[method-assign]

    def tap_host(self, host) -> None:
        """Tap every interface of a host (NICs and TUN devices)."""
        for interface in host.stack.interfaces:
            self.tap(interface)

    def _record(self, frame: bytes, name: str, direction: str) -> None:
        if len(self.entries) >= self.max_entries:
            self.dropped_entries += 1
            return
        try:
            packet = parse_ipv4(frame)
        except ValueError:
            return
        l4 = packet.l4
        self.entries.append(
            TraceEntry(
                time=self.sim.now,
                interface=name,
                direction=direction,
                src=packet.src,
                dst=packet.dst,
                protocol=packet.protocol,
                size=len(frame),
                src_port=getattr(l4, "src_port", None),
                dst_port=getattr(l4, "dst_port", None),
                tos=packet.tos,
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def filter(
        self,
        protocol: Optional[int] = None,
        host: Optional[str] = None,
        network: Optional[str] = None,
        port: Optional[int] = None,
        direction: Optional[str] = None,
        predicate: Optional[Callable[[TraceEntry], bool]] = None,
    ) -> List[TraceEntry]:
        """Entries matching every given criterion."""
        net = IPv4Network(network) if network else None
        addr = IPv4Address(host) if host else None
        result = []
        for entry in self.entries:
            if protocol is not None and entry.protocol != protocol:
                continue
            if direction is not None and entry.direction != direction:
                continue
            if addr is not None and entry.src != addr and entry.dst != addr:
                continue
            if net is not None and entry.src not in net and entry.dst not in net:
                continue
            if port is not None and port not in (entry.src_port, entry.dst_port):
                continue
            if predicate is not None and not predicate(entry):
                continue
            result.append(entry)
        return result

    def bytes_between(self, src_net: str, dst_net: str) -> int:
        """Total frame bytes from one network to another."""
        src = IPv4Network(src_net)
        dst = IPv4Network(dst_net)
        return sum(e.size for e in self.entries if e.src in src and e.dst in dst)

    def format(self, entries: Optional[List[TraceEntry]] = None, limit: int = 50) -> str:
        """tcpdump-style rendering of (filtered) entries."""
        chosen = self.entries if entries is None else entries
        lines = [str(entry) for entry in chosen[:limit]]
        if len(chosen) > limit:
            lines.append(f"... {len(chosen) - limit} more entries")
        return "\n".join(lines)

    def clear(self) -> None:
        """Discard all recorded state."""
        self.entries.clear()
        self.dropped_entries = 0
