"""Full-duplex point-to-point links with bandwidth, latency and MTU.

Each direction serialises one frame at a time (transmission delay =
frame bits / bandwidth) and then applies propagation latency.  Frames are
queued FIFO per direction with a bounded queue; overflow drops the frame,
which is how the simulator expresses congestion loss.

A direction is a :class:`LinkDirection`: a FIFO of waiting frames plus a
busy flag, driven by plain scheduled callbacks (one departure entry per
frame, one arrival entry per delivered frame) rather than a pump
process.  Partition, random loss and propagation latency are decided at
departure, when the frame leaves the wire.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim import Simulator
from repro.telemetry.registry import Registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.interface import Interface

def _loss_rng_for(name: str):
    """Deterministic per-link loss RNG (stable across interpreter runs,
    unlike the built-in randomized str hash)."""
    import zlib

    from repro.sim import SeededRng

    return SeededRng(zlib.crc32(name.encode()) & 0xFFFF, f"loss:{name}")


#: Ethernet framing overhead added to every IP packet on the wire
#: (MACs + EtherType + FCS + preamble/IPG, rounded to the usual 38 bytes
#: that 10 GbE accounting uses; we use the L2 part only).
ETHERNET_OVERHEAD = 18

DEFAULT_MTU = 9000  # the paper configures jumbo frames (MTU 9000)


class LinkDirection:
    """One direction of a link: a FIFO of frames serialised one at a time.

    ``enqueue`` starts serialising at once when the direction is idle and
    queues the frame otherwise.  When a frame has been serialised
    (``len + ETHERNET_OVERHEAD`` bytes at the owner's ``bandwidth_bps``)
    ``on_departure(frame)`` runs, and the next waiting frame starts
    through a zero-delay entry, so a frame transmitted at the instant of
    a departure queues behind the ones already waiting.  ``waiting``
    holds the queued frames only, never the one on the wire.

    The direction starts busy until a zero-delay entry scheduled at
    construction settles it, so a frame enqueued before the simulator
    first runs starts serialising only after that entry; this keeps
    setup-time frames in the heap order the pinned digests were
    recorded with.
    """

    __slots__ = ("sim", "owner", "on_departure", "waiting", "busy", "_frame")

    def __init__(self, sim: Simulator, owner, on_departure: Callable[[bytes], None]) -> None:
        self.sim = sim
        #: the link whose ``bandwidth_bps`` paces this direction
        self.owner = owner
        self.on_departure = on_departure
        self.waiting: deque = deque()
        self.busy = True
        self._frame: Optional[bytes] = None
        sim.schedule(0.0, self._next)

    def enqueue(self, frame: bytes) -> None:
        """Serialise ``frame`` now when idle, else queue it."""
        if self.busy:
            self.waiting.append(frame)
            return
        self.busy = True
        self._frame = frame
        self._serialise()

    def _serialise(self) -> None:
        wire_bytes = len(self._frame) + ETHERNET_OVERHEAD
        self.sim.schedule(wire_bytes * 8 / self.owner.bandwidth_bps, self._depart)

    def _depart(self) -> None:
        self.on_departure(self._frame)
        self._next()

    def _next(self) -> None:
        if self.waiting:
            self._frame = self.waiting.popleft()
            self.sim.schedule(0.0, self._serialise)
        else:
            self._frame = None
            self.busy = False


class Link:
    """A duplex link between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 10e9,
        latency_s: float = 20e-6,
        mtu: int = DEFAULT_MTU,
        queue_frames: int = 512,
        loss_rate: float = 0.0,
        name: str = "link",
    ) -> None:
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.mtu = mtu
        self.name = name
        self.queue_frames = queue_frames
        #: random frame-loss probability (failure injection); uses a
        #: deterministic per-link RNG so lossy runs stay reproducible
        self.loss_rate = loss_rate
        #: administrative partition (failure injection): while down, every
        #: frame departing (finishing serialisation) is lost
        self.down = False
        self._loss_rng = None
        if loss_rate:
            self._loss_rng = _loss_rng_for(name)
        self.endpoint_a: Optional["Interface"] = None
        self.endpoint_b: Optional["Interface"] = None
        self._directions = {}
        self.frames_sent = 0
        self.frames_dropped = 0
        self.frames_lost = 0
        self.bytes_delivered = 0
        # shared netsim.link.* totals (per-link reads stay on the plain
        # attributes above); the occupancy histogram is recording-gated
        registry = Registry.current()
        self._tm_sent = registry.counter("netsim.link.frames_sent")
        self._tm_dropped = registry.counter("netsim.link.frames_dropped")
        self._tm_lost = registry.counter("netsim.link.frames_lost")
        self._tm_bytes = registry.counter("netsim.link.bytes_delivered")
        self._tm_occupancy = (
            registry.histogram("netsim.link.queue_depth") if registry.recording else None
        )

    def set_loss_rate(self, rate: float) -> None:
        """Enable/adjust random frame loss on an existing link."""
        self.loss_rate = rate
        if rate and self._loss_rng is None:
            self._loss_rng = _loss_rng_for(self.name)

    def set_down(self, down: bool) -> None:
        """Partition or restore the link (both directions).

        A partition drops frames *without* consuming the loss RNG, so
        injecting one does not perturb the deterministic loss stream of
        a concurrently lossy link.
        """
        self.down = bool(down)

    def set_latency(self, latency_s: float) -> None:
        """Adjust propagation latency (failure injection: latency spike)."""
        self.latency_s = latency_s

    def attach(self, interface: "Interface") -> None:
        """Attach an endpoint; a link accepts exactly two."""
        if self.endpoint_a is None:
            self.endpoint_a = interface
        elif self.endpoint_b is None:
            self.endpoint_b = interface
            self._start_directions()
        else:
            raise RuntimeError(f"{self.name}: link already has two endpoints")
        interface.link = self

    def _start_directions(self) -> None:
        for sender, receiver in (
            (self.endpoint_a, self.endpoint_b),
            (self.endpoint_b, self.endpoint_a),
        ):
            self._directions[id(sender)] = LinkDirection(
                self.sim, self, partial(self._depart, receiver)
            )

    def _depart(self, receiver: "Interface", frame: bytes) -> None:
        """A frame left the wire: partition and loss, then arrival."""
        if self.down:
            self.frames_lost += 1
            self._tm_lost.inc()
            return
        if self._loss_rng is not None and self._loss_rng.random() < self.loss_rate:
            self.frames_lost += 1
            self._tm_lost.inc()
            return
        self.sim.schedule(self.latency_s, partial(receiver.deliver, frame))
        self.bytes_delivered += len(frame)
        self._tm_bytes.inc(len(frame))

    def transmit(self, sender: "Interface", frame: bytes) -> bool:
        """Enqueue ``frame`` for transmission from ``sender``'s side.

        Returns False (and drops) when the frame exceeds the MTU or the
        egress queue is full.
        """
        if self.endpoint_b is None:
            raise RuntimeError(f"{self.name}: link is not fully attached")
        if len(frame) > self.mtu + 60:  # headroom for encapsulation headers
            self.frames_dropped += 1
            self._tm_dropped.inc()
            return False
        direction = self._directions[id(sender)]
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
