"""IPClassifier: route packets to outputs by protocol/port patterns.

Supported patterns (one per output, comma-separated arguments)::

    tcp | udp | icmp            protocol match
    tcp dst port 443            protocol + destination port
    src port 1194               source port (0-65535)
    tos 0xeb                    TOS byte match (0-255, EndBox's c2c flag)
    -                           catch-all

Tokens of one pattern are a conjunction; the first matching pattern
picks the output, and a packet no pattern matches is rejected.  The
patterns compile at configure time into the same bit-vector
:class:`~repro.click.elements.headerindex.HeaderIndex` IPFilter uses:
one binary search per constrained field, an AND of per-interval pattern
bitmasks, and the lowest set bit as the output port.  Repeated terms on
one field intersect, so ``tcp udp`` never matches.  A malformed pattern
raises :class:`~repro.click.element.ElementError` naming the element
and the pattern.
"""

from __future__ import annotations

from typing import List

from repro.click.element import Element, ElementError, Packet
from repro.click.elements.headerindex import (
    PORT_FIELDS,
    PROTO,
    PROTOCOLS,
    TOS,
    HeaderIndex,
    Row,
    port_number,
    restrict,
    tos_byte,
)
from repro.click.registry import register_element


def _pattern_row(pattern: str) -> Row:
    """The rule row of one pattern; ``ValueError`` if it is malformed."""
    row: Row = {}
    if pattern == "-":
        return row
    tokens = pattern.split()
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token in PROTOCOLS:
            proto = PROTOCOLS[token]
            restrict(row, PROTO, proto, proto)
            index += 1
        elif token in PORT_FIELDS and index + 2 < len(tokens) and tokens[index + 1] == "port":
            port = port_number(tokens[index + 2])
            restrict(row, PORT_FIELDS[token], port, port)
            index += 3
        elif token == "tos" and index + 1 < len(tokens):
            tos = tos_byte(tokens[index + 1])
            restrict(row, TOS, tos, tos)
            index += 2
        else:
            raise ValueError(f"unexpected token {token!r}")
    return row


@register_element("IPClassifier")
class IPClassifier(Element):
    PORT_COUNT = (1, None)

    def configure(self, args: List[str]) -> None:
        if not args:
            raise ElementError(f"{self.name}: IPClassifier needs at least one pattern")
        rows: List[Row] = []
        for pattern in args:
            try:
                rows.append(_pattern_row(pattern.strip()))
            except ValueError as exc:
                raise ElementError(f"{self.name}: cannot parse pattern {pattern!r}: {exc}") from None
        self._index = HeaderIndex(rows)

    def push(self, port: int, packet: Packet) -> None:
        out_port = self._index.first_match(packet.ip)
        if out_port < 0:
            packet.verdict = packet.verdict or "reject"
            return
        self.output(out_port, packet)

    def check_wiring(self) -> None:
        for out_port in range(len(self.args)):
            if out_port >= len(self._outputs) or self._outputs[out_port] is None:
                raise ElementError(f"{self.name}: pattern output {out_port} not connected")
