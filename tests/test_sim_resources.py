"""Unit tests for resources: the CPU core pool and the FIFO store."""

import pytest

from repro.sim import CpuCores, FifoStore, Simulator, SimulationError


def test_cpu_run_grants_up_to_capacity_immediately():
    sim = Simulator()
    cpu = CpuCores(sim, cores=2, ht_factor=1.0)
    done = []

    def worker(name):
        yield cpu.run(1.0)
        done.append((sim.now, name))

    for name in "abc":
        sim.process(worker(name))
    sim.run(until=0.0)
    # two cores: a and b hold one each at once, c waits for a core
    assert cpu.in_use == 2 and cpu.runnable == 3
    sim.run()
    assert done == [(1.0, "a"), (1.0, "b"), (2.0, "c")]


def test_cpu_run_grants_in_fifo_order():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    order = []

    def worker(name):
        yield cpu.run(1.0)
        order.append(name)

    for name in "abcd":
        sim.process(worker(name))
    sim.run()
    assert order == ["a", "b", "c", "d"]
    assert cpu.in_use == 0 and cpu.busy_time == 4.0


def test_cpu_executes_work_serially_on_one_core():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def job(name):
        yield sim.process(cpu.execute(2.0))
        done.append((sim.now, name))

    sim.process(job("a"))
    sim.process(job("b"))
    sim.run()
    assert done == [(2.0, "a"), (4.0, "b")]


def test_cpu_parallelism_matches_effective_cores():
    sim = Simulator()
    cpu = CpuCores(sim, cores=2, ht_factor=1.0)
    done = []

    def job():
        yield sim.process(cpu.execute(1.0))
        done.append(sim.now)

    for _ in range(4):
        sim.process(job())
    sim.run()
    assert done == [1.0, 1.0, 2.0, 2.0]


def test_cpu_ht_factor_increases_capacity():
    sim = Simulator()
    cpu = CpuCores(sim, cores=4, ht_factor=1.5)
    assert cpu.effective_cores == 6


def test_cpu_utilisation_accounting():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)

    def job():
        yield sim.process(cpu.execute(3.0))

    cpu.reset_window()
    sim.process(job())
    sim.run(until=6.0)
    assert cpu.utilisation() == pytest.approx(0.5)


def test_cpu_context_switch_penalty_when_oversubscribed():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0, context_switch_cost=0.5)
    done = []

    def job(name):
        yield sim.process(cpu.execute(1.0))
        done.append((sim.now, name))

    sim.process(job("a"))
    sim.process(job("b"))
    sim.run()
    # "a" saw a free pool (no penalty); "b" queued behind it (penalty).
    assert done == [(1.0, "a"), (2.5, "b")]


def test_cpu_rejects_negative_duration():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1)

    def job():
        yield sim.process(cpu.execute(-1.0))

    proc = sim.process(job())
    sim.run()
    assert isinstance(proc.exception, SimulationError)


def test_fifo_store_put_then_get():
    sim = Simulator()
    store = FifoStore(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    def producer():
        yield sim.timeout(1.0)
        store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == ["x"]


def test_fifo_store_preserves_order():
    sim = Simulator()
    store = FifoStore(sim)
    for item in [1, 2, 3]:
        store.put(item)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(consumer())
    sim.run()
    assert got == [1, 2, 3]


def test_fifo_store_bounded_blocks_putter():
    sim = Simulator()
    store = FifoStore(sim, capacity=1)
    timeline = []

    def producer():
        yield store.put("a")
        timeline.append(("put-a", sim.now))
        yield store.put("b")
        timeline.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(5.0)
        item = yield store.get()
        timeline.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put-a", 0.0) in timeline
    assert ("put-b", 5.0) in timeline


def test_fifo_try_get_nonblocking():
    sim = Simulator()
    store = FifoStore(sim)
    assert store.try_get() is None
    store.put(7)
    assert store.try_get() == 7
    assert len(store) == 0


def test_seeded_rng_deterministic_and_namespaced():
    from repro.sim import SeededRng

    a = SeededRng(1).child("x")
    b = SeededRng(1).child("x")
    c = SeededRng(1).child("y")
    seq_a = [a.random() for _ in range(5)]
    seq_b = [b.random() for _ in range(5)]
    seq_c = [c.random() for _ in range(5)]
    assert seq_a == seq_b
    assert seq_a != seq_c


# ----------------------------------------------------------------------
# CPU pool ordering: what the packet path's modeled outcomes rest on
# ----------------------------------------------------------------------
def test_cpu_oversubscribed_charge_includes_context_switch_cost():
    sim = Simulator()
    cpu = CpuCores(sim, cores=2, ht_factor=1.0, context_switch_cost=0.25)
    done = {}

    def job(name, duration):
        yield from cpu.execute(duration)
        done[name] = sim.now

    # a and b fill the pool; c arrives with two runnable threads on two
    # cores and pays the switch, d arrives later to a free pool and not
    sim.process(job("a", 1.0))
    sim.process(job("b", 2.0))
    sim.process(job("c", 1.0))

    def late():
        yield sim.timeout(5.0)
        yield from job("d", 1.0)

    sim.process(late())
    sim.run()
    assert done == {"a": 1.0, "b": 2.0, "c": 2.25, "d": 6.0}
    assert cpu.busy_time == 1.0 + 2.0 + 1.25 + 1.0


def test_cpu_next_waiter_is_scheduled_before_the_finishing_caller_resumes():
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    log = []

    def first():
        yield from cpu.execute(1.0)
        # resumes at t=1 and sleeps until t=2, the instant the waiter's
        # work completes: the waiter's completion was scheduled first
        yield sim.timeout(1.0)
        log.append("first-after")

    def waiter():
        yield from cpu.execute(1.0)
        log.append("waiter-done")

    sim.process(first())
    sim.process(waiter())
    sim.run()
    assert log == ["waiter-done", "first-after"]


def test_cpu_busy_time_sums_in_completion_order():
    sim = Simulator()
    cpu = CpuCores(sim, cores=3, ht_factor=1.0)

    def job(duration):
        yield from cpu.execute(duration)

    # started big-first, completed small-first: float addition is not
    # associative, so the two orders give different totals
    for duration in (1e16, 1.0, 1.0):
        sim.process(job(duration))
    sim.run()
    assert cpu.busy_time == (1.0 + 1.0) + 1e16
    assert cpu.busy_time != (1e16 + 1.0) + 1.0


def test_cpu_core_of_an_interrupted_process_frees_at_the_interrupt():
    # a killed daemon (server restart, session migration) stops using
    # its core at once: the next waiter starts then, and the killed
    # work is not billed
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def victim():
        yield from cpu.execute(10.0)
        done.append(("victim", sim.now))

    def waiter():
        yield from cpu.execute(1.0)
        done.append(("waiter", sim.now))

    proc = sim.process(victim())
    sim.process(waiter())
    sim.schedule(1.0, lambda: proc.interrupt("killed"))
    sim.run()
    assert done == [("waiter", 2.0)]
    assert cpu.busy_time == 1.0
    assert cpu.runnable == 0


def test_cpu_queued_work_of_an_interrupted_process_leaves_the_queue():
    # the core must not be granted to a dead waiter (it used to be, and
    # then stayed held for the rest of the run)
    sim = Simulator()
    cpu = CpuCores(sim, cores=1, ht_factor=1.0)
    done = []

    def job(name):
        yield from cpu.execute(1.0)
        done.append((name, sim.now))

    sim.process(job("a"))
    victim = sim.process(job("victim"))
    sim.process(job("c"))
    sim.schedule(0.5, lambda: victim.interrupt("killed"))
    sim.run()
    assert done == [("a", 1.0), ("c", 2.0)]
    assert cpu.busy_time == 2.0
    assert cpu.runnable == 0
