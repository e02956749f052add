"""Bit-vector header classification shared by IPFilter and IPClassifier.

The scheme is Lakshman & Stiliadis, "High-speed policy-based packet
forwarding using efficient multi-dimensional range matching" (SIGCOMM
'98).  A rule list is compiled once, at configure time, into one
:class:`HeaderIndex`:

* Every rule is a *row*: a dict from header field (:data:`SRC`,
  :data:`DST`, :data:`PROTO`, :data:`SPORT`, :data:`DPORT`, :data:`TOS`)
  to an inclusive ``(low, high)`` interval.  A field the rule does not
  mention is absent from its row and matches any value.  Repeated terms
  on one field intersect (:func:`restrict`); a row with an empty
  intersection is in none of that field's masks, so it never matches.
* Per field, the interval endpoints are sorted once.  Each elementary
  interval between two consecutive endpoints stores the bitmask of the
  rules that accept it (bit *i* is rule *i*).
* A packet costs one ``bisect_right`` per field some rule constrains,
  then an AND of the masks.  The first matching rule is the lowest set
  bit; no set bit means no rule matches.

Port fields carry one more mask for packets without that port (ICMP,
and fragments whose ``l4`` is raw bytes): the rules with no term on the
field.  Nothing is cached per packet or per flow, so a hot swap simply
builds a new index with the new element.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP

#: header fields of a rule row
SRC, DST, PROTO, SPORT, DPORT, TOS = range(6)

#: protocol names both elements accept
PROTOCOLS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}
#: ``src``/``dst`` to the port field
PORT_FIELDS = {"src": SPORT, "dst": DPORT}

Row = Dict[int, Tuple[int, int]]


def restrict(row: Row, field: int, low: int, high: int) -> None:
    """Intersect ``row``'s interval on ``field`` with ``[low, high]``.

    An empty intersection is kept as ``low > high``; such a row never
    matches.
    """
    current = row.get(field)
    if current is not None:
        low, high = max(low, current[0]), min(high, current[1])
    row[field] = (low, high)


def port_number(text: str) -> int:
    """A port in 0-65535; ``ValueError`` otherwise."""
    port = int(text)
    if not 0 <= port <= 0xFFFF:
        raise ValueError(f"port {port} outside 0-65535")
    return port


def port_range(text: str) -> Tuple[int, int]:
    """``N`` or ``N-M`` as an inclusive interval; ``ValueError`` when a
    bound is malformed or out of range, or the range is inverted."""
    low_text, dash, high_text = text.partition("-")
    low = port_number(low_text)
    high = port_number(high_text) if dash else low
    if low > high:
        raise ValueError(f"inverted port range {text!r}")
    return low, high


def tos_byte(text: str) -> int:
    """A TOS value (any base ``int(text, 0)`` accepts) in 0-255."""
    tos = int(text, 0)
    if not 0 <= tos <= 0xFF:
        raise ValueError(f"TOS {tos} outside 0-255")
    return tos


def host_interval(text: str) -> Tuple[int, int]:
    """The one-address interval of a dotted-quad host."""
    value = IPv4Address(text).value
    return value, value


def net_interval(text: str) -> Tuple[int, int]:
    """The address interval a CIDR network covers."""
    network = IPv4Network(text)
    low = network.network.value
    return low, low + (1 << (32 - network.prefix_len)) - 1


def _field_index(rows: Sequence[Row], field: int) -> Tuple[List[int], List[int], int]:
    """``(bounds, masks, absent)`` of one field.

    ``masks[bisect_right(bounds, v)]`` is the set of rules accepting
    value ``v``; ``absent`` is the set of rules with no term on the
    field.  ``bounds`` is empty when no rule constrains the field.  An
    empty interval (``low > high``) covers no elementary interval, so
    its rule is in no mask of this field and can never match.
    """
    absent = 0
    spans = []
    for bit, row in enumerate(rows):
        span = row.get(field)
        if span is None:
            absent |= 1 << bit
        else:
            spans.append((span[0], span[1], 1 << bit))
    bounds = sorted({low for low, _, _ in spans} | {high + 1 for _, high, _ in spans})
    masks = [absent]  # values below the lowest endpoint
    for start in bounds:
        mask = absent
        for low, high, bit in spans:
            if low <= start <= high:
                mask |= bit
        masks.append(mask)
    return bounds, masks, absent


class HeaderIndex:
    """The first-match classifier of a list of rule rows."""

    __slots__ = (
        "every",
        "src_bounds",
        "src_masks",
        "dst_bounds",
        "dst_masks",
        "proto_bounds",
        "proto_masks",
        "tos_bounds",
        "tos_masks",
        "sport_bounds",
        "sport_masks",
        "sport_absent",
        "dport_bounds",
        "dport_masks",
        "dport_absent",
    )

    def __init__(self, rows: Sequence[Row]) -> None:
        #: every rule; a field's masks clear the rules it rejects
        self.every = (1 << len(rows)) - 1
        self.src_bounds, self.src_masks, _ = _field_index(rows, SRC)
        self.dst_bounds, self.dst_masks, _ = _field_index(rows, DST)
        self.proto_bounds, self.proto_masks, _ = _field_index(rows, PROTO)
        self.tos_bounds, self.tos_masks, _ = _field_index(rows, TOS)
        self.sport_bounds, self.sport_masks, self.sport_absent = _field_index(rows, SPORT)
        self.dport_bounds, self.dport_masks, self.dport_absent = _field_index(rows, DPORT)

    def first_match(self, ip) -> int:
        """Index of the first rule the IPv4 packet ``ip`` satisfies, or -1."""
        match = self.every
        bounds = self.src_bounds
        if bounds:
            match &= self.src_masks[bisect_right(bounds, ip.src.value)]
        bounds = self.dst_bounds
        if bounds:
            match &= self.dst_masks[bisect_right(bounds, ip.dst.value)]
        bounds = self.proto_bounds
        if bounds:
            match &= self.proto_masks[bisect_right(bounds, ip.protocol)]
        bounds = self.tos_bounds
        if bounds:
            match &= self.tos_masks[bisect_right(bounds, ip.tos)]
        bounds = self.sport_bounds
        if bounds:
            port = getattr(ip.l4, "src_port", None)
            if port is None:
                match &= self.sport_absent
            else:
                match &= self.sport_masks[bisect_right(bounds, port)]
        bounds = self.dport_bounds
        if bounds:
            port = getattr(ip.l4, "dst_port", None)
            if port is None:
                match &= self.dport_absent
            else:
                match &= self.dport_masks[bisect_right(bounds, port)]
        # lowest set bit; 0 (no match) gives -1
        return (match & -match).bit_length() - 1
