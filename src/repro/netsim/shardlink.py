"""Cross-shard link adapters: frame-granularity traffic across shards.

A :class:`~repro.netsim.link.Link` lives inside one simulator; when a
deployment is sharded (:mod:`repro.sim.parallel`) the two ends of a
client↔switch link land in different simulators.  This module splits the
link at the propagation boundary:

* :class:`CrossShardEgressLink` — the *sender* half.  It duck-types
  ``Link`` for a local :class:`~repro.netsim.interface.Interface`
  (``attach``/``transmit``), serialises through the same
  :class:`~repro.netsim.link.LinkDirection` departure FIFO as a local
  link (per-frame transmission delay, Ethernet overhead, bounded FIFO
  with drop-on-overflow), applies the same MTU + encapsulation headroom
  and ``netsim.link.*`` counters, and then, where a local link would
  schedule delivery, emits the frame onto a cross-shard channel with
  ``deliver_at = now + latency``.
* :class:`CrossShardIngressPort` — the *receiver* half.  It binds the
  channel to a local interface; the shard runner injects each frame at
  its timestamp and the frame arrives through the normal
  ``Interface.deliver`` path, indistinguishable from a local link.

The propagation latency doubles as the conservative lookahead: it must
be at least the :class:`~repro.sim.parallel.ShardPlan` lookahead, or
injection will (deliberately, loudly) fail the `schedule_external`
past-delivery check at the first barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.netsim.link import DEFAULT_MTU, LinkDirection
from repro.sim import Simulator
from repro.telemetry.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.interface import Interface
    from repro.sim.parallel import CrossShardFabric


class CrossShardEgressLink:
    """Sender half of a link whose far end lives on another shard.

    Mirrors the :class:`~repro.netsim.link.Link` contract for exactly one
    attached interface; the far endpoint is the channel.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: "CrossShardFabric",
        channel: str,
        dest_shard: int,
        bandwidth_bps: float = 10e9,
        latency_s: float = 20e-6,
        mtu: int = DEFAULT_MTU,
        queue_frames: int = 512,
        name: str = "xlink",
    ) -> None:
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.mtu = mtu
        self.queue_frames = queue_frames
        self.name = name
        self.channel = channel
        self._egress = fabric.open_egress(channel, dest_shard, batched=False)
        self.endpoint: "Interface | None" = None
        self._direction: LinkDirection | None = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.bytes_delivered = 0
        # identical accounting to a local Link so sharded and serial
        # topologies report through the same netsim.link.* names
        registry = Registry.current()
        self._tm_sent = registry.counter("netsim.link.frames_sent")
        self._tm_dropped = registry.counter("netsim.link.frames_dropped")
        self._tm_bytes = registry.counter("netsim.link.bytes_delivered")
        self._tm_occupancy = (
            registry.histogram("netsim.link.queue_depth") if registry.recording else None
        )

    def attach(self, interface: "Interface") -> None:
        """Attach the (single) local endpoint and open its direction."""
        if self.endpoint is not None:
            raise RuntimeError(f"{self.name}: egress link already has its endpoint")
        self.endpoint = interface
        interface.link = self
        self._direction = LinkDirection(self.sim, self, self._depart)

    def _depart(self, frame: bytes) -> None:
        """A frame left the wire: hand it to the channel, due after latency."""
        self._egress.emit(self.sim.now + self.latency_s, frame)
        self.bytes_delivered += len(frame)
        self._tm_bytes.inc(len(frame))

    def transmit(self, sender: "Interface", frame: bytes) -> bool:
        """Same checks, same drops, same counters as ``Link.transmit``."""
        direction = self._direction
        if direction is None:
            raise RuntimeError(f"{self.name}: egress link is not attached")
        if len(frame) > self.mtu + 60:  # headroom for encapsulation headers
            self.frames_dropped += 1
            self._tm_dropped.inc()
            return False
        waiting = len(direction.waiting)
        if waiting >= self.queue_frames:
            self.frames_dropped += 1
            self._tm_dropped.inc()
            return False
        self.frames_sent += 1
        self._tm_sent.inc()
        if self._tm_occupancy is not None:
            self._tm_occupancy.observe(waiting)
        direction.enqueue(frame)
        return True


class CrossShardIngressPort:
    """Receiver half: delivers channel frames into a local interface."""

    def __init__(self, fabric: "CrossShardFabric", channel: str, interface: "Interface") -> None:
        self.channel = channel
        self.interface = interface
        fabric.bind_ingress(channel, self._deliver, batched=False)

    def _deliver(self, frame: bytes) -> None:
        self.interface.deliver(frame)
