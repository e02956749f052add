"""iperf-like traffic generation and measurement.

``UdpTrafficSource`` emits UDP packets at a configured rate (or as fast
as a closed loop allows); ``UdpSink`` counts delivered payload bytes and
reports windowed throughput.  Payloads are printable ASCII so the
evaluation rule sets match nothing, exactly as in the paper (§V-B).
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.addresses import IPv4Address
from repro.netsim.host import Host

#: IP (20) + UDP (8) headers — "packet size" in the paper counts the
#: full inner IP packet, matching iperf's datagram accounting over tun.
HEADER_BYTES = 28


def make_payload(packet_bytes: int) -> bytes:
    """Printable-ASCII payload of the right size for a packet total."""
    payload_len = max(0, packet_bytes - HEADER_BYTES)
    return bytes(32 + (i % 95) for i in range(payload_len))


class UdpTrafficSource:
    """Open-loop UDP generator at a fixed offered load."""

    def __init__(
        self,
        host: Host,
        dst: IPv4Address,
        dst_port: int,
        rate_bps: float,
        packet_bytes: int = 1500,
        charge_cpu: bool = False,
        tos: int = 0,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.dst = IPv4Address(dst)
        self.dst_port = dst_port
        self.rate_bps = rate_bps
        # IPv4 caps a datagram at 65535 bytes; iperf's '64K' writes hit it
        self.packet_bytes = min(packet_bytes, 65535)
        self.charge_cpu = charge_cpu
        self.tos = tos
        self.payload = make_payload(self.packet_bytes)
        self.packets_sent = 0
        self.bytes_sent = 0
        self._stopped = False
        self._sock = None
        self._interval = 0.0

    def start(self) -> None:
        """Start sending (first datagram at the current time)."""
        self.sim.schedule(0.0, self._first_tick)

    def stop(self) -> None:
        """Stop the component."""
        self._stopped = True

    def _first_tick(self) -> None:
        self._sock = self.host.stack.udp_socket()
        self._interval = self.packet_bytes * 8 / self.rate_bps
        self._tick()

    def _tick(self) -> None:
        """Send one datagram and schedule the next, until stopped."""
        if self._stopped:
            return
        self._sock.sendto(self.payload, self.dst, self.dst_port, tos=self.tos)
        self.packets_sent += 1
        self.bytes_sent += self.packet_bytes
        self.sim.schedule(self._interval, self._tick)


class UdpSink:
    """Counts delivered datagrams; reports goodput over a window."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.sim = host.sim
        self.port = port
        self.packets = 0
        self.payload_bytes = 0
        self.inner_bytes = 0  # payload + IP/UDP headers (paper accounting)
        self._window_start = 0.0
        self._window_bytes = 0
        self.sim.process(self._run(), name=f"{host.name}.iperf-sink:{port}")

    def _run(self):
        sock = self.host.stack.udp_socket(self.port)
        while True:
            payload, _src, _sport, _pkt = yield sock.recv()
            self.packets += 1
            self.payload_bytes += len(payload)
            self.inner_bytes += len(payload) + HEADER_BYTES
            self._window_bytes += len(payload) + HEADER_BYTES

    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Start a fresh measurement window."""
        self._window_start = self.sim.now
        self._window_bytes = 0

    def window_throughput_bps(self) -> float:
        """Delivered bits/s since the last window reset."""
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._window_bytes * 8 / elapsed
