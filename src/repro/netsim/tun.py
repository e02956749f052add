"""TUN devices: user-space packet taps, as used by OpenVPN.

A TUN device looks like a routed interface to the stack: packets routed to
the VPN subnet land in its outbound queue, where the user-space VPN
process reads them (``read()``), or go straight to the handler it
installed with ``listen()``.  Packets the VPN decapsulates are written
back (``write()``) and re-enter the stack as if received from the wire —
exactly the Linux ``/dev/net/tun`` contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.addresses import IPv4Address
from repro.netsim.interface import Interface
from repro.netsim.packet import IPv4Packet
from repro.sim import FifoStore, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.stack import NetworkStack

#: TUN devices accept packets up to the IPv4 maximum; the paper's
#: throughput sweep writes up to 64 KiB packets into the tunnel.
TUN_MTU = 65535


class TunDevice(Interface):
    """A TUN interface owned by a user-space process."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: Optional[IPv4Address] = None,
        queue_packets: int = 1024,
    ) -> None:
        super().__init__(name, address)
        self.sim = sim
        self.mtu = TUN_MTU
        self._outbound = FifoStore(sim, name=f"{name}.out")
        self._handler: Optional[Callable[[IPv4Packet], None]] = None
        self.queue_packets = queue_packets
        self.stack: Optional["NetworkStack"] = None
        self.packets_dropped = 0

    def attach(self, stack: "NetworkStack") -> None:
        """Attach to the owning stack."""
        self.stack = stack

    # ------------------------------------------------------------------
    # stack side
    # ------------------------------------------------------------------
    def enqueue_outbound(self, packet: IPv4Packet) -> bool:
        """Called by the stack when it routes a packet into the tunnel."""
        if len(packet) > self.mtu:
            self.packets_dropped += 1
            return False
        if self._handler is not None:
            self._handler(packet)
            return True
        if len(self._outbound) >= self.queue_packets:
            self.packets_dropped += 1
            return False
        self._outbound.put(packet)
        return True

    # ------------------------------------------------------------------
    # user-space side
    # ------------------------------------------------------------------
    def read(self):
        """Event yielding the next outbound :class:`IPv4Packet`."""
        return self._outbound.get()

    def listen(self, handler: Callable[[IPv4Packet], None]) -> None:
        """Call ``handler(packet)`` on every later outbound packet, in
        place of queueing it for :meth:`read`.

        The handler runs inline, where a process parked in ``read()``
        would have been resumed.
        """
        self._handler = handler

    def try_read(self) -> Optional[IPv4Packet]:
        """Non-blocking read; returns None when empty."""
        return self._outbound.try_get()

    def pending(self) -> int:
        """Number of queued items."""
        return len(self._outbound)

    def write(self, packet: IPv4Packet) -> None:
        """Inject a decapsulated packet back into the host stack."""
        if self.stack is None:
            raise RuntimeError(f"{self.name}: TUN device not attached to a stack")
        self.stack.inject(packet, self)
