"""Link departure semantics: what is decided when a frame leaves the wire.

A link direction serialises one frame at a time.  Partition, random loss
and propagation latency are decided when a frame *departs* (finishes
serialisation), not when it is enqueued, and the bounded queue counts
the frames still waiting behind the one on the wire.
"""

import pytest

from repro.netsim.interface import Interface
from repro.netsim.link import ETHERNET_OVERHEAD, Link, _loss_rng_for
from repro.sim import Simulator

#: 100 wire bytes at 800 kb/s: one millisecond of serialisation per frame
FRAME = bytes(100 - ETHERNET_OVERHEAD)
BANDWIDTH = 800e3
SERIALISE = 1e-3
LATENCY = 1e-3


def make_link(**kwargs):
    sim = Simulator()
    link = Link(sim, bandwidth_bps=BANDWIDTH, latency_s=LATENCY, name="pin", **kwargs)
    a, b = Interface("a"), Interface("b")
    arrivals = []
    a.set_receiver(lambda frame, itf: arrivals.append(("a", sim.now, frame)))
    b.set_receiver(lambda frame, itf: arrivals.append(("b", sim.now, frame)))
    link.attach(a)
    link.attach(b)
    sim.run()  # settle the freshly attached link before the first frame
    return sim, link, a, b, arrivals


def at(sim, when, action):
    sim.schedule(when - sim.now, action)


def test_partition_loses_a_queued_frame_at_departure_not_at_enqueue():
    sim, link, a, _b, arrivals = make_link()
    first, second = b"1" + FRAME[1:], b"2" + FRAME[1:]
    assert link.transmit(a, first) and link.transmit(a, second)  # both while up
    # the partition starts after `first` departed, while `second` serialises
    at(sim, 1.5 * SERIALISE, lambda: link.set_down(True))
    sim.run()
    assert [(side, frame[:1]) for side, _t, frame in arrivals] == [("b", b"1")]
    assert arrivals[0][1] == pytest.approx(SERIALISE + LATENCY)
    assert link.frames_sent == 2 and link.frames_lost == 1


def test_frame_enqueued_during_partition_survives_if_restored_before_departure():
    sim, link, a, _b, arrivals = make_link()
    link.set_down(True)
    assert link.transmit(a, FRAME)
    at(sim, 0.5 * SERIALISE, lambda: link.set_down(False))
    sim.run()
    assert len(arrivals) == 1 and link.frames_lost == 0


def test_latency_change_before_departure_applies_to_that_frame():
    sim, link, a, _b, arrivals = make_link()
    assert link.transmit(a, FRAME)
    at(sim, 0.5 * SERIALISE, lambda: link.set_latency(5e-3))
    sim.run()
    assert arrivals[0][1] == pytest.approx(SERIALISE + 5e-3)


def test_loss_rng_draws_in_departure_order_across_both_directions():
    sim, link, a, b, arrivals = make_link(loss_rate=0.5)
    # enqueue order: one slow frame from a, then eight fast ones from b;
    # departure order: b's frames first (1 ms apart), a's at 9 ms
    slow = bytes(900 - ETHERNET_OVERHEAD)
    assert link.transmit(a, slow)
    fast = [bytes([index]) + FRAME[1:] for index in range(8)]
    for frame in fast:
        assert link.transmit(b, frame)
    sim.run()
    rng = _loss_rng_for("pin")
    departure_order = [("a", frame) for frame in fast] + [("b", slow)]
    expected = [item for item in departure_order if not rng.random() < 0.5]
    assert [(side, frame) for side, _t, frame in arrivals] == expected
    assert link.frames_lost == len(departure_order) - len(expected) > 0


def test_queue_bound_counts_waiting_frames_not_the_one_in_flight():
    sim, link, a, _b, _arrivals = make_link(queue_frames=2)
    # one on the wire plus two waiting fit; the fourth is dropped
    assert [link.transmit(a, FRAME) for _ in range(4)] == [True, True, True, False]
    accepted = []
    # at 1.5 ms the second frame is on the wire and the third waits alone
    at(sim, 1.5 * SERIALISE, lambda: accepted.extend(link.transmit(a, FRAME) for _ in range(2)))
    sim.run()
    assert accepted == [True, False]
    assert link.frames_sent == 4 and link.frames_dropped == 2
