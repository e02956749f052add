"""Parser for the Snort rule grammar subset used by the evaluation.

Supported form::

    alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:"WEB attack"; \
        content:"/etc/passwd"; nocase; sid:1002; rev:3;)

* actions: ``alert``, ``drop``, ``log``, ``pass``
* protocols: ``tcp``, ``udp``, ``icmp``, ``ip``
* addresses: ``any``, CIDR, or ``$VARIABLES`` (resolved via a dict)
* ports: ``any``, a number, or a ``lo:hi`` range
* options: ``msg``, ``content`` (with ``|AA BB|`` hex escapes) plus its
  positional modifiers ``offset``/``depth``/``distance``/``within``,
  ``pcre`` ("/expr/flags", ``i`` and ``s`` flags), ``nocase``, ``sid``,
  ``rev``, ``classtype`` (parsed, semantically ignored)

Multiple ``content`` options per rule are supported; a rule matches a
packet when all its contents occur (in order, honouring the positional
modifiers), its ``pcre`` matches, and the header constraints hold.

:func:`parse_rules` makes one pass over the lines.  Within a call it
parses each distinct address and port token once, and every rule that
names the token shares the resulting frozen :class:`AddressSpec` or
:class:`PortSpec`; nothing is kept between calls.  :func:`parse_rule`
runs the same per-rule function with specs of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet

_PROTO_NUMBERS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP, "ip": None}
_ACTIONS = ("alert", "drop", "log", "pass")

_HEX_ESCAPE_RE = re.compile(r"\|([0-9A-Fa-f\s]+)\|")
_RULE_RE = re.compile(
    r"^(\w+)\s+(\w+)\s+(\S+)\s+(\S+)\s+->\s+(\S+)\s+(\S+)\s*\((.*)\)\s*$", re.S
)
# one option: a run of characters that are not ';', where a '"' opens a
# quoted string that runs to the next '"' (or, when unterminated, to the
# end of the text) and may contain ';'
_OPTION_RE = re.compile(r'(?:[^";]|"[^"]*"?)+')


class RuleSyntaxError(ValueError):
    """Malformed Snort rule text."""


@dataclass(frozen=True)
class AddressSpec:
    """``any``, a CIDR network, or negation of one.

    Frozen: every rule of one :func:`parse_rules` call that names the
    same address token shares one instance.
    """

    network: Optional[IPv4Network] = None  # None means "any"
    negated: bool = False

    def matches(self, address: IPv4Address) -> bool:
        """True when this spec matches the given value."""
        if self.network is None:
            return not self.negated
        inside = address in self.network
        return inside != self.negated


@dataclass(frozen=True)
class PortSpec:
    """``any`` (0-65535), one port, or an inclusive ``lo:hi`` range.

    Frozen and shared like :class:`AddressSpec`.
    """

    low: int = 0
    high: int = 65535

    def matches(self, port: Optional[int]) -> bool:
        """True when this spec matches the given value."""
        if self.low == 0 and self.high == 65535:
            return True
        if port is None:
            return False
        return self.low <= port <= self.high


@dataclass
class ContentMatch:
    """One ``content`` option plus its positional modifiers.

    Snort semantics: ``offset``/``depth`` constrain the search window in
    absolute payload coordinates (the match must *start* within
    ``offset .. offset+depth``); ``distance``/``within`` constrain it
    relative to the end of the previous content match.
    """

    pattern: bytes
    offset: Optional[int] = None
    depth: Optional[int] = None
    distance: Optional[int] = None
    within: Optional[int] = None

    def find(self, haystack: bytes, previous_end: int) -> int:
        """Earliest valid match end, or -1.

        The match must *start* within ``depth`` bytes of ``offset``
        (absolute form) or within ``within`` bytes of
        ``previous_end + distance`` (relative form) — a common
        simplification of Snort's byte-counting rules.
        """
        if self.distance is not None or self.within is not None:
            start = previous_end + (self.distance or 0)
            start_limit = start + self.within if self.within is not None else None
        else:
            start = self.offset or 0
            start_limit = start + self.depth if self.depth is not None else None
        index = haystack.find(self.pattern, start)
        if index < 0:
            return -1
        if start_limit is not None and index >= start_limit:
            return -1
        return index + len(self.pattern)


@dataclass
class SnortRule:
    """One parsed rule."""

    action: str
    protocol: str
    src: AddressSpec
    src_port: PortSpec
    dst: AddressSpec
    dst_port: PortSpec
    msg: str = ""
    contents: List[ContentMatch] = field(default_factory=list)
    pcre: Optional["re.Pattern"] = None
    nocase: bool = False
    sid: int = 0
    rev: int = 1

    @property
    def content_patterns(self) -> List[bytes]:
        return [content.pattern for content in self.contents]

    def header_matches(self, packet: IPv4Packet) -> bool:
        """True when the packet header satisfies the rule."""
        proto = _PROTO_NUMBERS[self.protocol]
        if proto is not None and packet.protocol != proto:
            return False
        if not self.src.matches(packet.src) or not self.dst.matches(packet.dst):
            return False
        src_port = getattr(packet.l4, "src_port", None)
        dst_port = getattr(packet.l4, "dst_port", None)
        return self.src_port.matches(src_port) and self.dst_port.matches(dst_port)

    def payload_matches(self, payload: bytes) -> bool:
        """True when the payload satisfies every content/pcre constraint."""
        if not self.contents and self.pcre is None:
            return True
        haystack = payload.lower() if self.nocase else payload
        if self.pcre is not None and not self.pcre.search(payload):
            return False
        previous_end = 0
        for content in self.contents:
            needle = (
                ContentMatch(
                    content.pattern.lower(),
                    content.offset,
                    content.depth,
                    content.distance,
                    content.within,
                )
                if self.nocase
                else content
            )
            end = needle.find(haystack, previous_end)
            if end < 0:
                return False
            previous_end = end
        return True

    def matches(self, packet: IPv4Packet) -> bool:
        """True when this spec matches the given value."""
        if not self.header_matches(packet):
            return False
        payload = getattr(packet.l4, "payload", packet.l4 if isinstance(packet.l4, bytes) else b"")
        return self.payload_matches(payload)


def _decode_content(text: str) -> bytes:
    """Decode a Snort content string with |hex| escapes."""
    if "|" not in text:
        out = text.encode("latin-1")
        if not out:
            raise RuleSyntaxError("empty content")
        return out
    whole = _HEX_ESCAPE_RE.fullmatch(text)
    if whole is not None:  # one escape spanning the string: no text runs
        out = _decode_hex(text, whole)
        if not out:  # whitespace only, e.g. "| |"
            raise RuleSyntaxError("empty content")
        return out
    out = bytearray()
    pos = 0
    for match in _HEX_ESCAPE_RE.finditer(text):
        out.extend(text[pos : match.start()].encode("latin-1"))
        out.extend(_decode_hex(text, match))
        pos = match.end()
    out.extend(text[pos:].encode("latin-1"))
    if not out:
        raise RuleSyntaxError("empty content")
    return bytes(out)


def _decode_hex(text: str, escape: "re.Match") -> bytes:
    """The bytes of one ``|AA BB|`` escape of the content ``text``."""
    hex_bytes = escape.group(1).replace(" ", "")
    if len(hex_bytes) % 2:
        raise RuleSyntaxError(f"odd-length hex escape in content {text!r}")
    return bytes.fromhex(hex_bytes)


def _parse_address(token: str, variables: Dict[str, str]) -> AddressSpec:
    negated = token.startswith("!")
    if negated:
        token = token[1:]
    if token.startswith("$"):
        token = variables.get(token[1:], "any")
    if token == "any":
        return AddressSpec(None, negated)
    if "/" not in token:
        token += "/32"
    return AddressSpec(IPv4Network(token), negated)


def _parse_port(token: str) -> PortSpec:
    if token == "any":
        return PortSpec()
    if ":" in token:
        low_text, high_text = token.split(":", 1)
        low = int(low_text) if low_text else 0
        high = int(high_text) if high_text else 65535
        return PortSpec(low, high)
    port = int(token)
    return PortSpec(port, port)


def _shared(specs: dict, token: str, parse, *args):
    """The spec ``parse(token, *args)`` gives, parsed once per ``specs``."""
    spec = specs.get(token)
    if spec is None:
        spec = specs[token] = parse(token, *args)
    return spec


def parse_rule(line: str, variables: Optional[Dict[str, str]] = None) -> SnortRule:
    """Parse one rule line."""
    return _parse_line(line.strip(), variables or {}, {}, {})


def _parse_line(
    line: str,
    variables: Dict[str, str],
    addresses: Dict[str, AddressSpec],
    ports: Dict[str, PortSpec],
) -> SnortRule:
    """Parse one stripped rule line.

    ``addresses`` and ``ports`` map the header tokens already parsed in
    this call to their (frozen, shareable) specs; a token seen for the
    first time is parsed and added.
    """
    match = _RULE_RE.match(line)
    if match is None:
        raise RuleSyntaxError(f"cannot parse rule: {line!r}")
    action, protocol, src, src_port, dst, dst_port, options_text = match.groups()
    if action not in _ACTIONS:
        raise RuleSyntaxError(f"unknown action {action!r}")
    if protocol not in _PROTO_NUMBERS:
        raise RuleSyntaxError(f"unknown protocol {protocol!r}")
    rule = SnortRule(
        action,
        protocol,
        _shared(addresses, src, _parse_address, variables),
        _shared(ports, src_port, _parse_port),
        _shared(addresses, dst, _parse_address, variables),
        _shared(ports, dst_port, _parse_port),
    )
    for raw_option in _split_options(options_text):
        key, _, value = raw_option.partition(":")
        key = key.strip()
        value = value.strip().strip('"')
        if key == "msg":
            rule.msg = value
        elif key == "content":
            rule.contents.append(ContentMatch(_decode_content(value)))
        elif key in ("offset", "depth", "distance", "within"):
            if not rule.contents:
                raise RuleSyntaxError(f"{key} modifier without a preceding content")
            setattr(rule.contents[-1], key, int(value))
        elif key == "pcre":
            rule.pcre = _compile_pcre(value)
        elif key == "nocase":
            rule.nocase = True
        elif key == "sid":
            rule.sid = int(value)
        elif key == "rev":
            rule.rev = int(value)
        elif key in ("classtype", "metadata", "reference", "flow"):
            pass  # parsed but not semantically used
        else:
            raise RuleSyntaxError(f"unsupported rule option {key!r}")
    return rule


def _compile_pcre(value: str) -> "re.Pattern":
    """Compile a Snort pcre option: "/expr/flags" (i and s supported)."""
    text = value.strip()
    if not text.startswith("/"):
        raise RuleSyntaxError(f"pcre must be /expr/flags, got {value!r}")
    try:
        end = text.rindex("/")
    except ValueError as exc:
        raise RuleSyntaxError(f"unterminated pcre {value!r}") from exc
    if end == 0:
        raise RuleSyntaxError(f"unterminated pcre {value!r}")
    expr, flag_text = text[1:end], text[end + 1 :]
    flags = 0
    for flag in flag_text:
        if flag == "i":
            flags |= re.IGNORECASE
        elif flag == "s":
            flags |= re.DOTALL
        else:
            raise RuleSyntaxError(f"unsupported pcre flag {flag!r}")
    try:
        return re.compile(expr.encode("latin-1"), flags)
    except re.error as exc:
        raise RuleSyntaxError(f"bad pcre {value!r}: {exc}") from exc


def _split_options(text: str) -> List[str]:
    """Split rule options on ';' outside quoted strings, dropping empty ones.

    An unterminated quote runs to the end of the text, so every ';'
    after it stays inside the last option.
    """
    return [option for option in map(str.strip, _OPTION_RE.findall(text)) if option]


def parse_rules(text: str, variables: Optional[Dict[str, str]] = None) -> List[SnortRule]:
    """Parse a rules file (one rule per line; '#' comments allowed).

    One pass over the lines: every distinct address or port token is
    parsed once per call, and the rules that use it share its spec.
    """
    variables = variables or {}
    addresses: Dict[str, AddressSpec] = {}
    ports: Dict[str, PortSpec] = {}
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if line and line[0] != "#":
            rules.append(_parse_line(line, variables, addresses, ports))
    return rules
