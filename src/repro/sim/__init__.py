"""Discrete-event simulation engine.

This package provides the substrate every other subsystem runs on: a
deterministic event loop (:class:`~repro.sim.engine.Simulator`),
generator-based processes, CPU-core pools with optional context-switch
penalties, and seeded randomness helpers.

The engine is deliberately small and dependency-free.  Processes are plain
Python generators that ``yield`` *commands*:

* ``yield sim.timeout(dt)`` — sleep for ``dt`` simulated seconds,
* ``yield event`` — wait until the event is triggered,
* ``yield sim.process(gen)`` — wait for a child process to finish,
* ``yield cpu.run(dt)`` — occupy one core of a :class:`CpuCores` pool.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker("b", 2.0))
>>> _ = sim.process(worker("a", 1.0))
>>> sim.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from repro.sim.engine import Event, Process, SimulationError, Simulator, Timeout
from repro.sim.resources import CPU, CpuCores, FifoStore
from repro.sim.randomness import SeededRng

__all__ = [
    "CPU",
    "CpuCores",
    "CrossShardFabric",
    "Event",
    "FifoStore",
    "Process",
    "SeededRng",
    "ShardContext",
    "ShardPlan",
    "ShardRunResult",
    "SimulationError",
    "Simulator",
    "Timeout",
    "run_serial",
    "run_sharded",
]

from repro.sim.parallel import (  # noqa: E402 - needs Simulator defined above
    CrossShardFabric,
    ShardContext,
    ShardPlan,
    ShardRunResult,
    run_serial,
    run_sharded,
)
