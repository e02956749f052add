"""A store-and-forward switch with IP-based forwarding.

The evaluation testbed connects every machine to one 10 Gbps switch.  We
model it as an output-queued switch that forwards on destination IP
(exact host match first, then longest-prefix routes, then an optional
default port).  Forwarding latency is the small, constant silicon delay
of a cut-through datacentre switch.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.interface import Interface
from repro.netsim.link import Link
from repro.netsim.packet import IPV4_HEADER_LEN
from repro.sim import Simulator

#: the destination-address field, read in place at byte 16 of the header
_DST_FIELD = struct.Struct(">I")


class Switch:
    """IP forwarding device with per-port links."""

    def __init__(self, sim: Simulator, name: str = "switch", forwarding_delay: float = 1e-6) -> None:
        self.sim = sim
        self.name = name
        self.forwarding_delay = forwarding_delay
        self.ports: List[Interface] = []
        self._host_routes: Dict[IPv4Address, Interface] = {}
        self._prefix_routes: List[Tuple[IPv4Network, Interface]] = []
        self.default_port: Optional[Interface] = None
        #: port-level ACLs: callables ``(frame, ingress, egress) -> bool``;
        #: any False vetoes the forwarding decision (the managed network's
        #: static "VPN only" firewall lives here)
        self.acls = []
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_denied = 0

    def new_port(self, link: Link) -> Interface:
        """Create a port and attach it to ``link``."""
        port = Interface(f"{self.name}.p{len(self.ports)}", on_receive=self._on_frame)
        self.ports.append(port)
        link.attach(port)
        return port

    def add_host_route(self, address: IPv4Address, port: Interface) -> None:
        """Route one address to a port."""
        self._host_routes[IPv4Address(address)] = port

    def add_prefix_route(self, network: IPv4Network, port: Interface) -> None:
        """Route a network prefix to a port."""
        self._prefix_routes.append((network, port))
        self._prefix_routes.sort(key=lambda item: -item[0].prefix_len)

    def _lookup(self, dst: IPv4Address) -> Optional[Interface]:
        port = self._host_routes.get(dst)
        if port is not None:
            return port
        for network, candidate in self._prefix_routes:
            if dst in network:
                return candidate
        return self.default_port

    def _on_frame(self, frame: bytes, ingress: Interface) -> None:
        if len(frame) < IPV4_HEADER_LEN:
            self.packets_dropped += 1
            return
        egress = self._lookup(IPv4Address.from_value(_DST_FIELD.unpack_from(frame, 16)[0]))
        if egress is None or egress is ingress:
            self.packets_dropped += 1
            return
        for acl in self.acls:
            if not acl(frame, ingress, egress):
                self.packets_denied += 1
                return
        self.packets_forwarded += 1
        self.sim.schedule(self.forwarding_delay, lambda: egress.send(frame))
