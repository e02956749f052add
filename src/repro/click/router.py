"""The Click router: instantiate, wire and drive an element graph.

A router is built from a parsed configuration.  Packets enter through
the ``FromDevice`` element and leave through ``ToDevice`` (accepted) or
any dropping element (rejected); :meth:`Router.process` returns the
Click-level verdict plus the possibly transformed packet, which is what
the VPN layer consumes ("the ToDevice element is modified to signal
OpenVPN when a packet was accepted or rejected", §IV).

Per-element costs accumulate into an optional
:class:`~repro.sgx.gateway.CostLedger` so the enclosing pipeline can
charge simulated CPU time.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.click.config import ParsedConfig, parse_config
from repro.click.element import Element, ElementError, Packet
from repro.click.registry import lookup_element
from repro.netsim.packet import IPv4Packet
from repro.sgx.gateway import CostLedger
from repro.telemetry.registry import Registry


class Router:
    """An instantiated Click configuration.

    On construction the wired graph is compiled into a fused dispatch
    plan (see :mod:`repro.click.compiler`): per-instance ``output``
    closures with precomputed port routing and prebound charge calls
    replace the generic ``output``/``_receive`` interpreter.  Hot swaps
    build a new router and therefore recompile automatically.  The
    interpreted path stays available via :meth:`uncompile` for
    equivalence testing.
    """

    def __init__(
        self,
        config_text: str,
        cost_model=None,
        ledger: Optional[CostLedger] = None,
        context: Optional[dict] = None,
    ) -> None:
        self.config_text = config_text
        self.cost_model = cost_model
        self.ledger = ledger
        #: Host-environment objects elements may need (trusted time,
        #: TLS key registry, ...), injected by the embedding process.
        self.context = context or {}
        self.elements: Dict[str, Element] = {}
        self._entry: Optional[Element] = None
        self.packets_processed = 0
        #: the registry this router (and its compiled plan) reports into;
        #: fixed at construction so hot-swapped replacements built inside
        #: the same simulator attach to the same scope.
        self.telemetry = Registry.current()
        self._tm_packets = self.telemetry.counter("click.router.packets", private=True)
        # populated lazily, and only when recording: per-element-class
        # (packets, seconds) instrument pairs for the interpreted path
        self._tm_element_cache: Optional[Dict[str, tuple]] = (
            {} if self.telemetry.recording else None
        )
        self._plan = None
        self._build(parse_config(config_text))
        self.recompile()

    # ------------------------------------------------------------------
    def _build(self, parsed: ParsedConfig) -> None:
        for declaration in parsed.declarations:
            cls = lookup_element(declaration.class_name)
            self.elements[declaration.name] = cls(declaration.name, declaration.args)
        for connection in parsed.connections:
            src = self.elements[connection.src]
            dst = self.elements[connection.dst]
            src.connect_output(connection.src_port, dst, connection.dst_port)
        for element in self.elements.values():
            element.initialize(self)
        from repro.click.elements.device import FromDevice

        entries = [e for e in self.elements.values() if isinstance(e, FromDevice)]
        if len(entries) > 1:
            raise ElementError("configuration has multiple FromDevice elements")
        self._entry = entries[0] if entries else None

    # ------------------------------------------------------------------
    # compiled dispatch
    # ------------------------------------------------------------------
    def recompile(self) -> None:
        """(Re)build the fused dispatch plan for the current graph."""
        from repro.click.compiler import compile_router

        if self._plan is not None:
            self._plan.uninstall()
        self._plan = compile_router(self)

    def uncompile(self) -> None:
        """Drop the compiled plan; dispatch reverts to the interpreted
        ``output``/``_receive`` path (for equivalence testing)."""
        if self._plan is not None:
            self._plan.uninstall()
            self._plan = None

    @property
    def compiled(self) -> bool:
        return self._plan is not None

    @property
    def plan(self):
        """The current :class:`~repro.click.compiler.DispatchPlan`."""
        return self._plan

    # ------------------------------------------------------------------
    def charge(self, element: Element, packet: Packet) -> None:
        """Add an element's per-packet cost to the ledger.

        Interpreted-path telemetry hangs off this hook (the compiled
        path fuses its counting into the edge closures instead): when
        the router's registry is recording, the same per-element-class
        packet and simulated-second counters are incremented here.
        """
        cache = self._tm_element_cache
        if cache is None:
            if self.ledger is not None:
                self.ledger.add(element.cost(packet))
            return
        class_key = type(element).__name__
        pair = cache.get(class_key)
        if pair is None:
            from repro.click.compiler import element_instruments

            pair = element_instruments(self.telemetry, type(element))
            cache[class_key] = pair
        if self.ledger is not None:
            cost = element.cost(packet)
            self.ledger.add(cost)
            pair[0].inc()
            pair[1].inc(cost)
        else:
            pair[0].inc()

    def process(self, ip_packet: IPv4Packet) -> Tuple[bool, IPv4Packet]:
        """Run one packet through the graph (a burst of one).

        Returns ``(accepted, packet)`` where ``packet`` reflects any
        header/payload rewrites elements performed.
        """
        return self.process_batch((ip_packet,))[0]

    def process_batch(self, ip_packets) -> List[Tuple[bool, IPv4Packet]]:
        """Run a burst of packets through the graph, one dispatch each.

        The compiled plan's entry thunk (or, uncompiled, the interpreted
        ``FromDevice`` walk) and the packet wrapper are bound once per
        burst; results come back in order.
        """
        plan = self._plan
        if plan is not None and plan.entry_receive is not None:
            receive = plan.entry_receive
        elif self._entry is not None:
            receive = partial(self._entry._receive, 0)
        else:
            raise ElementError("configuration has no FromDevice entry point")
        wrap = Packet
        results: List[Tuple[bool, IPv4Packet]] = []
        append = results.append
        for ip_packet in ip_packets:
            packet = wrap(ip_packet)
            receive(packet)
            append((packet.verdict == "accept", packet.ip))
        self.packets_processed += len(results)
        self._tm_packets.inc(len(results))
        return results

    # ------------------------------------------------------------------
    def element(self, name: str) -> Element:
        """Look up an element by name; raises ElementError if missing."""
        try:
            return self.elements[name]
        except KeyError:
            raise ElementError(f"no element named {name!r}") from None

    def find_elements(self, cls) -> List[Element]:
        """Every element that is an instance of the class."""
        return [e for e in self.elements.values() if isinstance(e, cls)]

    def read_handler(self, element_name: str, handler: str) -> str:
        """Read a named statistic (Click's read-handler interface)."""
        return self.element(element_name).read_handler(handler)

    def write_handler(self, element_name: str, handler: str, value: str = "") -> None:
        """Write a named control (Click's write-handler interface)."""
        self.element(element_name).write_handler(handler, value)
