"""Wall-clock spans around the calls into each layer of ``repro``.

The tracer wraps public methods of the layer classes (class attributes,
so every instance built after :meth:`Tracer.install` goes through the
wrapper), and functions where the module that calls them looks them up,
and restores the original callables on :meth:`Tracer.restore`.
Nothing under ``src/`` changes: the spans live in the benchmark.

A span's *self time* is its wall duration minus the part covered by the
spans it encloses, so self times never count a second twice and the
self times of all spans plus the untraced remainder add up to the traced
wall time.  A span entered while a span of the same name is already open
(``process`` delegating to ``process_batch``, say) adds to the time but
not to ``calls`` or ``items``, so those count outermost calls only.

Spans record only while :attr:`Tracer.active` is set; the benchmark
turns it on for the traffic phase, so world construction (which also
builds routers and verifies signatures) stays out of the breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class SpanError(RuntimeError):
    """A span was declared on a missing attribute, or restoring failed."""


@dataclass
class SpanStat:
    """Accumulated numbers of one span name."""

    calls: int = 0
    self_s: float = 0.0
    items: int = 0
    depth: int = 0


@dataclass(frozen=True)
class SpanPoint:
    """One span declaration: the callables of one class or module it wraps.

    ``owner`` is a class (its methods are wrapped) or a module (a
    function it imported by name is wrapped where the module looks it
    up).  ``count`` maps the call's positional arguments to the work
    items it carries (packets, bytes; one by default); ``key`` maps them
    to a sub-span name, so one patch point can split its numbers by an
    argument (the ecall name).  Several points may share a span name.
    """

    name: str
    owner: object
    methods: Tuple[str, ...]
    count: Optional[Callable[[tuple], int]] = None
    key: Optional[Callable[[tuple], str]] = None


class Tracer:
    """Installs span wrappers, accumulates self times, restores originals."""

    def __init__(self, points: Sequence[SpanPoint]) -> None:
        self.points = list(points)
        self.active = False
        self.stats: Dict[str, SpanStat] = {}
        self._stack: List[List[float]] = []
        self._originals: List[Tuple[object, str, object]] = []
        self._started = 0.0
        self._paused_at = 0.0
        self._paused_s = 0.0
        self.wall_s = 0.0
        #: wall time inside outermost spans; equals the sum of all self times
        self.covered_s = 0.0

    # ------------------------------------------------------------------
    # installing and restoring
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every declared callable; must precede building the world.

        A declared name the owner does not define is skipped, so a span
        over alternatives (``process`` and ``process_batch``) survives
        the removal of one; a span none of whose names exist raises
        :class:`SpanError`.
        """
        if self._originals:
            raise SpanError("tracer already installed")
        wrapped = set()
        for point in self.points:
            for method in point.methods:
                if method not in vars(point.owner):
                    continue
                original = vars(point.owner)[method]
                self._originals.append((point.owner, method, original))
                setattr(point.owner, method, self._wrap(original, point))
                wrapped.add(point.name)
        missing = {point.name for point in self.points} - wrapped
        if missing:
            self.restore()
            raise SpanError(f"no callable to wrap for span(s) {sorted(missing)}")

    def restore(self) -> None:
        """Put every original callable back; raise :class:`SpanError` if one is not."""
        for owner, method, original in reversed(self._originals):
            setattr(owner, method, original)
        for owner, method, original in self._originals:
            if vars(owner).get(method) is not original:
                raise SpanError(f"{owner.__name__}.{method} was not restored")
        self._originals = []

    def installed(self) -> bool:
        """True while every wrapped callable is still the wrapper."""
        return bool(self._originals) and all(
            vars(owner).get(method) is not original for owner, method, original in self._originals
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin recording; the traced wall time runs from here."""
        self.active = True
        self._paused_s = 0.0
        self._started = time.perf_counter()

    def pause(self) -> None:
        """Stop recording until :meth:`resume`; the pause is not traced wall time."""
        if self._stack:
            raise SpanError("cannot pause inside a span")
        self.active = False
        self._paused_at = time.perf_counter()

    def resume(self) -> None:
        """Record again after :meth:`pause`."""
        self._paused_s += time.perf_counter() - self._paused_at
        self.active = True

    def stop(self) -> None:
        """Stop recording and fix the traced wall time."""
        self.wall_s = time.perf_counter() - self._started - self._paused_s
        self.active = False
        if self._stack:
            raise SpanError(f"{len(self._stack)} span(s) still open at stop")

    def _stat(self, name: str) -> SpanStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        return stat

    def _wrap(self, fn, point: SpanPoint):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        count = point.count
        key = point.key
        fixed = self._stat(point.name) if key is None else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat = fixed if key is None else tracer._stat(f"{point.name}.{key(args)}")
            child = [0.0]
            stack.append(child)
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.self_s += elapsed - child[0]
                if not stat.depth:
                    stat.calls += 1
                    stat.items += count(args) if count is not None else 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered_s += elapsed

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def span(self, name: str) -> SpanStat:
        """Numbers of one span (all zero if it never fired)."""
        return self.stats.get(name, SpanStat())

    def prefixed(self, prefix: str) -> List[Tuple[str, SpanStat]]:
        """Every recorded span whose name is ``prefix`` or starts with ``prefix.``."""
        return [
            (name, stat)
            for name, stat in sorted(self.stats.items())
            if name == prefix or name.startswith(prefix + ".")
        ]

    def unfired(self, names: Iterable[str]) -> List[str]:
        """The span names in ``names`` that never fired."""
        return [name for name in names if self.span(name).calls == 0]
