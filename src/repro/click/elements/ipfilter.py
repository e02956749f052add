"""IPFilter: rule-based firewall element (the FW use case, §V-B).

Each configuration argument is ``<action> <expression>`` where action is
``allow``, ``deny`` or ``drop`` and the expression is a conjunction
(``&&``) of:

* ``all``
* ``proto tcp|udp|icmp``
* ``src host A.B.C.D`` / ``dst host A.B.C.D``
* ``src net CIDR``      / ``dst net CIDR``
* ``src port N[-M]``    / ``dst port N[-M]`` (0-65535, ``N <= M``)

Rules are evaluated in order; the first match decides.  Allowed packets
leave on output 0, denied packets on output 1 (or are rejected if
output 1 is unconnected) — Click's IPFilter semantics.  A packet no rule
matches is rejected.  The paper's FW configuration uses 16 rules that
match no benchmark packet; see :func:`repro.click.configs.firewall_config`.

At configure time the rule list compiles into one
:class:`~repro.click.elements.headerindex.HeaderIndex`: each rule
becomes a row of per-field intervals (a host or CIDR is an address
interval, a port term a port interval, repeated terms on one field
intersect), and a packet is classified with one binary search per
constrained field and an AND of per-interval rule bitmasks.  The lowest
set bit is the first matching rule, so first-match order is exactly
that of evaluating the rules one by one.  A malformed term raises
:class:`~repro.click.element.ElementError` naming the element and the
term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.click.element import Element, ElementError, Packet
from repro.click.elements.headerindex import (
    DST,
    PORT_FIELDS,
    PROTO,
    PROTOCOLS,
    SRC,
    HeaderIndex,
    Row,
    host_interval,
    net_interval,
    port_range,
    restrict,
)
from repro.click.registry import register_element

_ADDRESS_FIELDS = {"src": SRC, "dst": DST}


@dataclass
class FilterRule:
    """One configured rule: its action and its source text."""

    allow: bool
    text: str


def _restrict_term(row: Row, tokens: List[str]) -> None:
    """Narrow ``row`` by one term; ``ValueError`` if it is malformed."""
    if tokens == ["all"]:
        return
    if len(tokens) == 2 and tokens[0] == "proto":
        proto = PROTOCOLS.get(tokens[1])
        if proto is None:
            raise ValueError(f"unknown protocol {tokens[1]!r}")
        restrict(row, PROTO, proto, proto)
        return
    if len(tokens) == 3 and tokens[0] in ("src", "dst"):
        side, kind, value = tokens
        if kind == "host":
            restrict(row, _ADDRESS_FIELDS[side], *host_interval(value))
            return
        if kind == "net":
            restrict(row, _ADDRESS_FIELDS[side], *net_interval(value))
            return
        if kind == "port":
            restrict(row, PORT_FIELDS[side], *port_range(value))
            return
    raise ValueError("unknown term")


@register_element("IPFilter")
class IPFilter(Element):
    PORT_COUNT = (1, None)

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ElementError(f"{self.name}: IPFilter needs at least one rule")
        self.rules: List[FilterRule] = []
        rows: List[Row] = []
        for arg in args:
            parts = arg.split(None, 1)
            if len(parts) != 2 or parts[0] not in ("allow", "deny", "drop"):
                raise ElementError(f"{self.name}: bad rule {arg!r}")
            action, expression = parts
            row: Row = {}
            for term in expression.split("&&"):
                try:
                    _restrict_term(row, term.split())
                except ValueError as exc:
                    raise ElementError(
                        f"{self.name}: cannot parse filter term {term.strip()!r}: {exc}"
                    ) from None
            self.rules.append(FilterRule(allow=(action == "allow"), text=arg))
            rows.append(row)
        self._index = HeaderIndex(rows)
        self.matched_counts = [0] * len(self.rules)

    def push(self, port: int, packet: Packet) -> None:
        index = self._index.first_match(packet.ip)
        if index < 0:
            # Click's IPFilter default: packets matching no rule are dropped.
            packet.verdict = packet.verdict or "reject"
            return
        self.matched_counts[index] += 1
        # unconnected output 1 rejects
        self.output(0 if self.rules[index].allow else 1, packet)

    def check_wiring(self) -> None:
        if not self._outputs or self._outputs[0] is None:
            raise ElementError(f"{self.name}: output 0 (allow) not connected")

    def cost(self, packet: Packet) -> float:
        model = self.router.cost_model if self.router else None
        if model is None:
            return 0.0
        base = model.click_element_fixed + len(self.rules) * model.ipfilter_per_rule
        if self.router.context.get("in_enclave"):
            base *= model.enclave_compute_factor
        return base

    def read_handler(self, name: str) -> str:
        """Read a named statistic (Click's read-handler interface)."""
        if name == "rule_count":
            return str(len(self.rules))
        if name == "matches":
            return ",".join(str(c) for c in self.matched_counts)
        return super().read_handler(name)
