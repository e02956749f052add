"""Compile a wired element graph into a fused dispatch plan.

The interpreted fast path costs three generic frames per hop —
``Element.output`` (bounds check + port-table lookup) calls
``Element._receive`` (counter + ``router.charge`` indirection) calls
``element.push`` — plus a ledger lookup and a ``cost()`` method call for
every element a packet touches.  None of that work depends on the
packet: the port routing, the charge target and, for most elements, the
cost itself are fixed once the graph is wired.

:func:`compile_router` therefore flattens the validated graph into a
:class:`DispatchPlan`: for every connected output port it builds one
fused *edge* closure with the target's ``push``, the destination input
port, the ledger ``add`` and the cost classification prebound, and
installs a per-instance ``output`` that indexes a precomputed edge
table.  A hop is then a single closure call — no dict lookups, no
``_receive`` frame, no per-packet cost dispatch for fixed-cost
elements.  Cost classification:

``zero``
    ``FromDevice``/``ToDevice``/``Discard`` overrides returning a
    constant ``0.0`` — the ledger add is elided entirely (adding
    ``0.0`` to a non-negative float is the identity, so ledger totals
    stay byte-identical).
``fixed``
    the base :meth:`Element.cost` — charges
    ``cost_model.click_element_fixed``, read at call time so mid-run
    model mutation behaves exactly as interpreted dispatch.
``dynamic``
    any other override (IPFilter, IDSMatcher, token buckets, ...) —
    the bound ``cost(packet)`` is called per packet, preserving
    context-dependent pricing such as ``in_enclave`` factors.

Equivalence is exact, not approximate: traversal order, per-element
``packets_in``/``packets_out`` counters, verdict/callback timing and the
ledger's float accumulation order are all identical to interpreted
dispatch (the per-element ``ledger.add`` sequence is unchanged), which
``tests/test_fastpath.py`` asserts.  Python's call stack still carries
control flow for multi-output elements (Tee multicast, Queue's
post-``output`` bookkeeping are order-sensitive), but each hop is one
precompiled call instead of three generic method frames.

Hot swap needs no special handling: a swap builds a fresh
:class:`~repro.click.router.Router`, which recompiles on construction.

Telemetry is a *compile-time* decision, not a per-packet branch: when
the router's registry has ``recording`` enabled, :func:`compile_router`
emits edge closures that additionally count per-element-class packets
(``click.<element>.packets``) and simulated seconds charged
(``click.<element>.seconds`` — the same cost value handed to the
ledger, never the wall clock).  With recording off — the default — the
emitted closures are byte-for-byte the ones documented above, so the
disabled fast path carries zero instrumentation overhead
(:attr:`DispatchPlan.instrumented` records which variant was built).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.click.element import Element, Packet
from repro.telemetry import names as _tm_names
from repro.telemetry.registry import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.click.router import Router

def _zero_cost_fns():
    """cost() implementations known to be constant zero; their ledger
    adds are elided (identity on the accumulated float).

    Built per call rather than memoized in a module global: compile-time
    only (never on the packet path), and the lazy-init global was an
    SS605 non-reentrant pattern under the shard-safety rules.
    """
    from repro.click.elements.device import Discard, FromDevice, ToDevice

    return frozenset({FromDevice.cost, ToDevice.cost, Discard.cost})


def _classify_cost(element: Element) -> str:
    cost_fn = type(element).cost
    if cost_fn is Element.cost:
        return "fixed"
    if cost_fn in _zero_cost_fns():
        return "zero"
    return "dynamic"


def element_instruments(registry, element_type: type) -> Tuple[Counter, Counter]:
    """The ``(packets, seconds)`` telemetry counters for an element class.

    Registers ``click.<class>.packets`` / ``click.<class>.seconds`` on
    first use; shared by the compiled closures and the interpreted
    :meth:`~repro.click.router.Router.charge` path so both report into
    the same names.
    """
    class_key = element_type.__name__.lower()
    pkts_name = _tm_names.register(
        f"click.{class_key}.packets", "counter", "packets",
        f"packets dispatched through {element_type.__name__} elements",
    )
    secs_name = _tm_names.register(
        f"click.{class_key}.seconds", "counter", "seconds",
        f"simulated seconds charged by {element_type.__name__} elements",
    )
    return (registry.counter(pkts_name), registry.counter(secs_name))


@dataclass(frozen=True)
class CompiledEdge:
    """One fused hop of the dispatch plan (inspectable record)."""

    source: str
    port: int
    target: str
    in_port: int
    cost_kind: str  # "zero" | "fixed" | "dynamic"

    def __str__(self) -> str:
        return (
            f"{self.source}[{self.port}] -> [{self.in_port}]{self.target}"
            f"  (cost: {self.cost_kind})"
        )


class DispatchPlan:
    """The compiled form of a router's element graph.

    ``edges`` lists every fused hop in deterministic order (elements in
    declaration order, ports ascending); ``entry`` names the
    ``FromDevice`` ingress whose receive path was fused into
    :attr:`entry_receive`; ``instrumented`` records whether telemetry
    counting was compiled into the closures (it is never branch-checked
    per packet).
    """

    __slots__ = ("edges", "entry", "entry_receive", "instrumented", "_installed")

    def __init__(
        self,
        edges: List[CompiledEdge],
        entry: Optional[str],
        entry_receive: Optional[Callable[[Packet], None]],
        installed: List[Element],
        instrumented: bool = False,
    ) -> None:
        self.edges = edges
        self.entry = entry
        self.entry_receive = entry_receive
        self.instrumented = instrumented
        self._installed = installed

    def __len__(self) -> int:
        return len(self.edges)

    def uninstall(self) -> None:
        """Remove the compiled ``output`` closures, restoring the
        interpreted ``Element.output`` path (used by equivalence tests)."""
        for element in self._installed:
            try:
                del element.output
            except AttributeError:
                pass
        self._installed = []
        self.entry_receive = None


def _make_edge(
    source: Element,
    target: Element,
    in_port: int,
    ledger,
    model,
    instruments: Optional[Tuple[Counter, Counter]] = None,
) -> Callable[[Packet], None]:
    """Fuse ``source.output -> target._receive -> target.push`` into one
    closure.  The ledger add order matches interpreted dispatch exactly
    (charge before push), so float accumulation is byte-identical.

    With *instruments* (the target element-class's ``(packets, seconds)``
    telemetry counters) a counting variant is emitted instead; the
    seconds counter accumulates the exact cost value handed to the
    ledger, so instrumentation never perturbs packet bytes, verdicts or
    charge sequences."""
    push = target.push
    kind = _classify_cost(target)
    if ledger is None or kind == "zero" or (kind == "fixed" and model is None):
        if instruments is None:

            def edge(packet: Packet) -> None:
                source.packets_out += 1
                target.packets_in += 1
                push(in_port, packet)

        else:
            pkts_inc = instruments[0].inc

            def edge(packet: Packet) -> None:
                source.packets_out += 1
                target.packets_in += 1
                pkts_inc()
                push(in_port, packet)

    elif kind == "fixed":
        add = ledger.add
        if instruments is None:

            def edge(packet: Packet) -> None:
                source.packets_out += 1
                target.packets_in += 1
                add(model.click_element_fixed)
                push(in_port, packet)

        else:
            pkts_inc, secs_inc = instruments[0].inc, instruments[1].inc

            def edge(packet: Packet) -> None:
                source.packets_out += 1
                target.packets_in += 1
                charged = model.click_element_fixed
                add(charged)
                pkts_inc()
                secs_inc(charged)
                push(in_port, packet)

    else:
        add = ledger.add
        cost = target.cost
        if instruments is None:

            def edge(packet: Packet) -> None:
                source.packets_out += 1
                target.packets_in += 1
                add(cost(packet))
                push(in_port, packet)

        else:
            pkts_inc, secs_inc = instruments[0].inc, instruments[1].inc

            def edge(packet: Packet) -> None:
                source.packets_out += 1
                target.packets_in += 1
                charged = cost(packet)
                add(charged)
                pkts_inc()
                secs_inc(charged)
                push(in_port, packet)

    return edge


def _make_output(
    edges: List[Optional[Callable[[Packet], None]]],
) -> Callable[[int, Packet], None]:
    n_ports = len(edges)

    def compiled_output(port: int, packet: Packet) -> None:
        if port >= n_ports:
            # unconnected output behaves like Discard, as interpreted
            packet.verdict = packet.verdict or "reject"
            return
        edge = edges[port]
        if edge is None:
            packet.verdict = packet.verdict or "reject"
            return
        edge(packet)

    return compiled_output


def _make_entry_receive(
    entry: Element,
    ledger,
    model,
    instruments: Optional[Tuple[Counter, Counter]] = None,
) -> Callable[[Packet], None]:
    """Fuse the router's injection into the entry element (the
    ``_receive(0, packet)`` the interpreted ``Router.process`` performs).

    *instruments* behaves as in :func:`_make_edge`."""
    push = entry.push
    kind = _classify_cost(entry)
    if ledger is None or kind == "zero" or (kind == "fixed" and model is None):
        if instruments is None:

            def entry_receive(packet: Packet) -> None:
                entry.packets_in += 1
                push(0, packet)

        else:
            pkts_inc = instruments[0].inc

            def entry_receive(packet: Packet) -> None:
                entry.packets_in += 1
                pkts_inc()
                push(0, packet)

    elif kind == "fixed":
        add = ledger.add
        if instruments is None:

            def entry_receive(packet: Packet) -> None:
                entry.packets_in += 1
                add(model.click_element_fixed)
                push(0, packet)

        else:
            pkts_inc, secs_inc = instruments[0].inc, instruments[1].inc

            def entry_receive(packet: Packet) -> None:
                entry.packets_in += 1
                charged = model.click_element_fixed
                add(charged)
                pkts_inc()
                secs_inc(charged)
                push(0, packet)

    else:
        add = ledger.add
        cost = entry.cost
        if instruments is None:

            def entry_receive(packet: Packet) -> None:
                entry.packets_in += 1
                add(cost(packet))
                push(0, packet)

        else:
            pkts_inc, secs_inc = instruments[0].inc, instruments[1].inc

            def entry_receive(packet: Packet) -> None:
                entry.packets_in += 1
                charged = cost(packet)
                add(charged)
                pkts_inc()
                secs_inc(charged)
                push(0, packet)

    return entry_receive


def compile_router(router: "Router") -> DispatchPlan:
    """Flatten ``router``'s wired graph into a :class:`DispatchPlan` and
    install the fused per-instance ``output`` closures.

    Must be called after the graph is fully wired and initialised; the
    router calls it automatically at the end of construction (and hence
    after every hot swap, which builds a new router).
    """
    ledger = router.ledger
    model = router.cost_model
    registry = getattr(router, "telemetry", None)
    instrumented = registry is not None and registry.recording
    instrument_cache: Dict[str, Tuple[Counter, Counter]] = {}

    def _instruments_for(element: Element) -> Optional[Tuple[Counter, Counter]]:
        if not instrumented:
            return None
        class_key = type(element).__name__.lower()
        pair = instrument_cache.get(class_key)
        if pair is None:
            pair = element_instruments(registry, type(element))
            instrument_cache[class_key] = pair
        return pair

    records: List[CompiledEdge] = []
    installed: List[Element] = []
    for element in router.elements.values():
        edges: List[Optional[Callable[[Packet], None]]] = []
        for port, link in enumerate(element._outputs):
            if link is None:
                edges.append(None)
                continue
            target, in_port = link
            edges.append(
                _make_edge(element, target, in_port, ledger, model, _instruments_for(target))
            )
            records.append(
                CompiledEdge(
                    source=element.name,
                    port=port,
                    target=target.name,
                    in_port=in_port,
                    cost_kind=_classify_cost(target),
                )
            )
        # instance attribute shadows Element.output: every push inside
        # the graph now dispatches through the fused edge table
        element.output = _make_output(edges)  # type: ignore[method-assign]
        installed.append(element)
    entry = router._entry
    entry_receive = (
        _make_entry_receive(entry, ledger, model, _instruments_for(entry))
        if entry is not None
        else None
    )
    return DispatchPlan(
        edges=records,
        entry=entry.name if entry is not None else None,
        entry_receive=entry_receive,
        installed=installed,
        instrumented=instrumented,
    )
