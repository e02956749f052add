"""Shared resources: CPU cores and FIFO stores.

The CPU model is the part that matters for reproducing the paper's
throughput and scalability results: every host has a fixed number of
logical cores, single-threaded daemons (OpenVPN processes, Click instances)
occupy one runnable thread each, and when more threads are runnable than
cores exist, the scheduler charges a context-switch penalty per scheduling
quantum.  That penalty is what makes the paper's ``OpenVPN+Click`` curve
*decrease* as clients grow (Fig 10) while vanilla OpenVPN merely plateaus.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class CpuWork(Event):
    """Completion event of one :meth:`CpuCores.run` charge.

    Fires once the work has held a core for its charged time.  A process
    interrupted while waiting on it abandons the work: a running charge
    frees its core at once and is not billed, a queued one leaves the
    queue.
    """

    __slots__ = ("pool", "charged", "running")

    def __init__(self, pool: "CpuCores", charged: float) -> None:
        super().__init__(pool.sim)
        self.pool = pool
        self.charged = charged
        self.running = False

    def _complete(self) -> None:
        # accounting, then the next waiter's start, then the caller's
        # resume: the waiter's completion is scheduled before anything
        # the resumed caller schedules at the same instant
        if not self.running:
            return  # abandoned while it ran
        self.running = False
        pool = self.pool
        pool.busy_time += self.charged
        pool._window_busy += self.charged
        pool._release()
        self.succeed()

    def abandon(self) -> None:
        """Give the work up: free its core now, or leave the queue."""
        if self.running:
            self.running = False
            self.pool._release()
        elif not self.triggered:
            try:
                self.pool._waiters.remove(self)
            except ValueError:
                pass


class CpuCores:
    """A FIFO pool of CPU cores with utilisation accounting.

    Work is submitted as a *duration* of core time: :meth:`run` returns
    a :class:`CpuWork` event that fires when a core was free (at once,
    or in FIFO order behind earlier work) and the work has run.  Total
    busy time is tracked so experiments can report CPU usage exactly as
    the paper does (100 % = all cores busy).

    Parameters
    ----------
    cores:
        Number of physical cores.
    ht_factor:
        Hyper-threading uplift: effective capacity is
        ``cores * ht_factor``.  The evaluation machines run with
        hyper-threading enabled; 1.3 is a standard planning figure for
        SMT2 on packet-processing workloads.
    context_switch_cost:
        Seconds charged per scheduling grant *when the pool is
        oversubscribed* (more runnable threads than effective capacity).
    """

    def __init__(
        self,
        sim: Simulator,
        cores: int = 4,
        ht_factor: float = 1.3,
        context_switch_cost: float = 0.0,
        name: str = "cpu",
    ) -> None:
        self.sim = sim
        self.cores = cores
        self.ht_factor = ht_factor
        self.name = name
        self.context_switch_cost = context_switch_cost
        self.effective_cores = max(1, round(cores * ht_factor))
        #: cores currently held by running work
        self.in_use = 0
        self._waiters: Deque[CpuWork] = deque()
        self.busy_time = 0.0
        self._window_start = 0.0
        self._window_busy = 0.0

    # ------------------------------------------------------------------
    def run(self, duration: float) -> CpuWork:
        """Occupy one core for ``duration`` seconds; returns the completion event.

        A free core is granted at once.  The context-switch cost is added
        when the pool is oversubscribed at submission time.
        """
        if duration < 0:
            raise SimulationError(f"negative CPU duration {duration!r}")
        charged = duration
        if self.context_switch_cost and self.in_use + len(self._waiters) >= self.effective_cores:
            charged += self.context_switch_cost
        work = CpuWork(self, charged)  # endbox-lint: hotpath(HP702) the completion event is the scheduler's unit of work, as Event is in the engine
        if self.in_use < self.effective_cores:
            self.in_use += 1
            work.running = True
            self.sim.schedule(charged, work._complete)
        else:
            self._waiters.append(work)
        return work

    def execute(self, duration: float) -> Generator:
        """Process generator: occupy one core for ``duration`` seconds."""
        yield self.run(duration)

    def _release(self) -> None:
        """Hand a finished core to the next waiter, or free it."""
        if not self._waiters:
            self.in_use -= 1
            return
        work = self._waiters.popleft()
        work.running = True
        if work.charged > 0:
            self.sim.schedule(work.charged, work._complete)
        else:
            work._complete()

    # ------------------------------------------------------------------
    # utilisation reporting
    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Start a fresh utilisation measurement window."""
        self._window_start = self.sim.now
        self._window_busy = 0.0

    def utilisation(self) -> float:
        """Fraction of capacity used since the last :meth:`reset_window`.

        1.0 means every effective core was busy the whole window.
        """
        elapsed = self.sim.now - self._window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._window_busy / (elapsed * self.effective_cores))

    @property
    def runnable(self) -> int:
        return self.in_use + len(self._waiters)


#: Convenience alias used throughout the code base.
CPU = CpuCores


class StoreGet(Event):
    """The event of one :meth:`FifoStore.get`; fires with the item.

    A process interrupted while it waits on a parked get abandons it:
    the getter leaves the store, so the next ``put`` goes to a live
    consumer instead of the dead process.
    """

    __slots__ = ("store",)  # set by FifoStore.get, which skips an __init__ frame

    def abandon(self) -> None:
        """Withdraw the getter if it is still parked."""
        self.store.cancel_get(self)


class FifoStore:
    """Unbounded (or bounded) FIFO channel between processes.

    ``put()`` never blocks unless a ``capacity`` was given; ``get()``
    returns an event that fires with the next item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store") -> None:
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        # Event pool for non-blocking puts: every such put used to
        # allocate a fresh already-triggered Event that callers almost
        # always discard.  One shared triggered instance is semantically
        # identical (waiters see a deferred wake-up with value None,
        # exactly as before) and removes the dominant allocation in the
        # dispatch loops.
        self._put_done = sim.event(f"{name}.put")
        self._put_done.triggered = True

    def put(self, item: Any) -> Event:
        """Insert an item (event fires immediately unless bounded-full)."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return self._put_done
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return self._put_done
        event = self.sim.event(self.name)
        self._putters.append(event)
        event.value = item  # parked; delivered on next get
        return event

    def get(self) -> StoreGet:
        """Event yielding the next item."""
        event = StoreGet(self.sim, self.name)
        event.store = self
        if self._items:
            item = self._items.popleft()
            if self._putters:
                putter = self._putters.popleft()
                self._items.append(putter.value)
                putter.value = None
                putter.succeed(None)
            event.succeed(item)
        elif self._putters:
            putter = self._putters.popleft()
            item, putter.value = putter.value, None
            putter.succeed(None)
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a parked ``get()`` waiter that lost a race.

        A consumer that races ``get()`` against a timeout must withdraw
        the losing getter, otherwise the abandoned event silently
        swallows the next item put into the store.  Returns True when
        the waiter was still parked (and is now removed); False when it
        had already been granted an item or was never parked.
        """
        if event.triggered:
            return False
        try:
            self._getters.remove(event)
        except ValueError:
            return False
        return True

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def peek(self) -> Any:
        """The next item ``get``/``try_get`` would return, without
        removing it; None when empty.  Lets a consumer drain only a
        same-kind run of items (batched dispatch) without reordering."""
        if self._items:
            return self._items[0]
        if self._putters:
            return self._putters[0].value
        return None

    def __len__(self) -> int:
        return len(self._items)
