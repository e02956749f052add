"""One rule-set application against its oracles.

A config rollout makes every enclave parse the Snort rule text and
compile an :class:`~repro.click.elements.idsmatcher.IDSMatcher` over it.
Two references pin what that work must produce:

* the **parse oracle** is the per-line parse loop the one-pass parser
  replaced: every rule parses its own header tokens into fresh specs.
  Generated rule text, malformed lines included, must give the same
  ``repr`` or the same exception type and message;
* the **matcher oracle** checks every rule in index order with no
  prefilter at all.  The fast-pattern automaton must pick the same first
  matching rule, output port, counters and ledger total.

The speed bar holds one application (parse, compile, first scan) on the
stock rules to at least 1.3x the parent's path: the parse oracle plus an
automaton over the full content patterns.
"""

from __future__ import annotations

import re
import time
from dataclasses import FrozenInstanceError
from typing import Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.click import Router, configs
from repro.click.element import Packet
from repro.click.elements import idsmatcher
from repro.costs import default_cost_model
from repro.ids.community_rules import ruleset_text
from repro.ids.snort_rules import (
    _ACTIONS,
    _HEX_ESCAPE_RE,
    _PROTO_NUMBERS,
    _RULE_RE,
    AddressSpec,
    ContentMatch,
    PortSpec,
    RuleSyntaxError,
    SnortRule,
    _compile_pcre,
    _split_options,
    parse_rule,
    parse_rules,
)
from repro.netsim import IPv4Packet, TcpSegment, UdpDatagram
from repro.netsim.addresses import IPv4Network
from repro.netsim.traffic import make_payload
from repro.perf.micro import _race
from repro.sgx import CostLedger

HOME_NET_VARS = {"HOME_NET": "10.0.0.0/8", "EXTERNAL_NET": "any"}


# ----------------------------------------------------------------------
# the parse oracle: one rule at a time, fresh specs per rule
# ----------------------------------------------------------------------
def oracle_decode_content(text: str) -> bytes:
    out = bytearray()
    pos = 0
    for match in _HEX_ESCAPE_RE.finditer(text):
        out.extend(text[pos : match.start()].encode("latin-1"))
        hex_bytes = match.group(1).replace(" ", "")
        if len(hex_bytes) % 2:
            raise RuleSyntaxError(f"odd-length hex escape in content {text!r}")
        out.extend(bytes.fromhex(hex_bytes))
        pos = match.end()
    out.extend(text[pos:].encode("latin-1"))
    if not out:
        raise RuleSyntaxError("empty content")
    return bytes(out)


def oracle_address(token: str, variables: Dict[str, str]) -> AddressSpec:
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


def oracle_port(token: str) -> PortSpec:
    if token == "any":
        return PortSpec()
    if ":" in token:
        low_text, high_text = token.split(":", 1)
        low = int(low_text) if low_text else 0
        high = int(high_text) if high_text else 65535
        return PortSpec(low, high)
    port = int(token)
    return PortSpec(port, port)


def oracle_parse_rule(line: str, variables: Optional[Dict[str, str]] = None) -> SnortRule:
    variables = variables or {}
    line = line.strip()
    match = _RULE_RE.match(line)
    if match is None:
        raise RuleSyntaxError(f"cannot parse rule: {line!r}")
    action, protocol, src, src_port, dst, dst_port, options_text = match.groups()
    if action not in _ACTIONS:
        raise RuleSyntaxError(f"unknown action {action!r}")
    if protocol not in _PROTO_NUMBERS:
        raise RuleSyntaxError(f"unknown protocol {protocol!r}")
    rule = SnortRule(
        action=action,
        protocol=protocol,
        src=oracle_address(src, variables),
        src_port=oracle_port(src_port),
        dst=oracle_address(dst, variables),
        dst_port=oracle_port(dst_port),
    )
    for raw_option in _split_options(options_text):
        key, _, value = raw_option.partition(":")
        key = key.strip()
        value = value.strip().strip('"')
        if key == "msg":
            rule.msg = value
        elif key == "content":
            rule.contents.append(ContentMatch(oracle_decode_content(value)))
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
            pass
        else:
            raise RuleSyntaxError(f"unsupported rule option {key!r}")
    return rule


def oracle_parse_rules(text: str, variables: Optional[Dict[str, str]] = None) -> List[SnortRule]:
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rules.append(oracle_parse_rule(line, variables))
    return rules


def outcome(parse, *args):
    """``repr`` of the parse, or the exception's type and message."""
    try:
        return "ok", repr(parse(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


# ----------------------------------------------------------------------
# strategies: rule text, well-formed and not
# ----------------------------------------------------------------------
# each pool holds tokens that parse (first) and tokens that do not; most
# lines draw only the former, so several rules of one text reach the
# spec sharing, and a few break one part
_ADDRESSES = (
    ["any", "!any", "$HOME_NET", "!$HOME_NET", "$EXTERNAL_NET", "$UNSET", "$", "10.0.0.0/8",
     "!10.0.0.0/8", "1.2.3.4", "!1.2.3.4"],
    ["300.1.1.1", "1.2.3", "10.0.0.0/33", "x"],
)
_PORTS = (
    ["any", "80", "5001", "1024", "1024:", ":1024", "10:20", ":", "-1", "080"],
    ["x", "7:y", "0x50", "1-2", "!80"],
)
_MODIFIERS = [f"{key}:{value}" for key in ("offset", "depth", "distance", "within") for value in ("0", "3", "12")]
_OPTIONS = (
    ['content:"abc"', 'content:"|00 0F|"', 'content:"a|41 42|b"', 'content:"|zz|"', 'content:"x;y"',
     'content:"é"', 'content:"|61  62|"', 'content:"|61\t62|"', 'content:"|41|"', 'content:"a|"',
     'content:"un;closed', "content:bare", 'content :"k"', 'msg:"hello; world"', "msg:plain",
     'msg:""q""', "nocase", " nocase ", "sid:7", "sid :9", "rev:2", 'pcre:"/a.b/i"', 'pcre:"/x/s"',
     "classtype:misc", "flow:established", "", " "] + _MODIFIERS,
    ['content:"|0|"', 'content:""', 'content:"||"', 'content:"|4 1|"', 'content:"ā"', "sid:x",
     "rev:", 'content:"| |"', 'content:"|\t|"', 'content:"|\t\t|"', 'content:"|  |"',
     'content:"a| |b"', 'pcre:"/x/q"', 'pcre:"nope"', 'pcre:"/(/"', "frob:1", ":", " : ", "offset:x"],
)


@st.composite
def rule_lines(draw):
    """One line: a rule, with at most one broken part, or a comment or blank."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.sampled_from(["", "   ", "# comment", "  # indented", "gibberish"]))
    broken = draw(st.sampled_from(["action", "protocol", "address", "port", "option", "shape"])) if kind < 5 else None

    def pick(pools, part):
        return draw(st.sampled_from(pools[0] + pools[1] if broken == part else pools[0]))

    action = draw(st.sampled_from(["alert", "drop", "log", "pass"] + (["explode"] if broken == "action" else [])))
    protocol = draw(st.sampled_from(["tcp", "udp", "icmp", "ip"] + (["quic"] if broken == "protocol" else [])))
    src, dst = pick(_ADDRESSES, "address"), pick(_ADDRESSES, "address")
    sport, dport = pick(_PORTS, "port"), pick(_PORTS, "port")
    options = [pick(_OPTIONS, "option") for _ in range(draw(st.integers(0, 6)))]
    if draw(st.integers(0, 2)) and not any(option.startswith(("content", "offset")) for option in options[:1]):
        options.insert(0, 'content:"lead"')  # modifiers mostly follow a content
    separator = draw(st.sampled_from(["; ", ";", " ;  "]))
    body = separator.join(options) + draw(st.sampled_from([";", "", "; "]))
    arrow, close = "->", ")"
    if broken == "shape":
        arrow = draw(st.sampled_from(["->", "<-", "-> ->"]))
        close = draw(st.sampled_from([")", ") x", ""]))
    return f"{action} {protocol} {src} {sport} {arrow} {dst} {dport} ({body}{close}"


PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(st.lists(rule_lines(), min_size=1, max_size=8), st.sampled_from([None, HOME_NET_VARS]))
def test_parse_rules_agrees_with_per_line_oracle(lines, variables):
    text = "\n".join(lines)
    assert outcome(parse_rules, text, variables) == outcome(oracle_parse_rules, text, variables)


@PROPERTY
@given(rule_lines(), st.sampled_from([None, HOME_NET_VARS]))
def test_parse_rule_agrees_with_per_line_oracle(line, variables):
    assert outcome(parse_rule, line, variables) == outcome(oracle_parse_rule, line, variables)


def test_stock_rules_agree_with_oracle():
    text = ruleset_text()
    assert repr(parse_rules(text, HOME_NET_VARS)) == repr(oracle_parse_rules(text, HOME_NET_VARS))


@pytest.mark.parametrize(
    "content, message",
    [("| |", "empty content"), ("|  |", "empty content"), ("|\t\t|", "empty content"), ("|\t|", "odd-length")],
)
def test_whitespace_only_escape_is_rejected(content, message):
    line = f'alert tcp any any -> any any (content:"{content}"; sid:1;)'
    with pytest.raises(RuleSyntaxError, match=message):
        parse_rule(line)
    assert outcome(parse_rule, line) == outcome(oracle_parse_rule, line)


def test_header_specs_are_shared_and_frozen():
    rules = parse_rules(ruleset_text(), HOME_NET_VARS)
    addresses = [spec for rule in rules for spec in (rule.src, rule.dst)]
    ports = [spec for rule in rules for spec in (rule.src_port, rule.dst_port)]
    # one instance per distinct spec: the 754 specs of each kind come
    # from a handful of tokens
    assert len({id(spec) for spec in addresses}) == len(set(map(repr, addresses))) == 2
    assert len({id(spec) for spec in ports}) == len(set(map(repr, ports))) == 11
    assert rules[0].src is rules[1].src
    with pytest.raises(FrozenInstanceError):
        rules[0].src.negated = True
    with pytest.raises(FrozenInstanceError):
        rules[0].dst_port.low = 1


def test_specs_are_not_shared_across_calls():
    first = parse_rules("alert tcp 10.0.0.0/8 80 -> any any (sid:1;)")
    second = parse_rules("alert tcp 10.0.0.0/8 80 -> any any (sid:1;)")
    assert repr(first[0].src) == repr(second[0].src) and first[0].src is not second[0].src
    assert first[0].src_port is not second[0].src_port


# ----------------------------------------------------------------------
# the matcher oracle: every rule in index order, no prefilter
# ----------------------------------------------------------------------
def install_exhaustive_match(router: Router, name: str = "ids") -> None:
    """Replace the element's prefiltered ``_match`` with a check of every rule."""
    element = router.element(name)

    def match(packet: Packet, payload: bytes):
        for rule in element.rules:
            if rule.header_matches(packet.ip) and rule.payload_matches(payload):
                return rule
        return None

    element._match = match


_FRAGMENTS = [b"ab", b"abc", b"abcd", b"abcde", b"ABCdef", b"x", b"xy", b"\x00\xff", b"evil", b"EVILdoer", b"evil!", b"abx"]
_PCRES = [rb"ab.d", rb"(?i)evil", rb"x{2}", rb"^ab", rb"d$"]
_PORT_RANGES = [(0, 65535), (80, 80), (5001, 5001), (1, 1023), (5000, 6000)]
_NETWORK = IPv4Network("10.0.0.0/8")
fragments = st.one_of(
    st.sampled_from(_FRAGMENTS),
    st.binary(min_size=1, max_size=6),
    st.text(alphabet="abcdeABCDE", min_size=1, max_size=7).map(str.encode),
)
positions = st.one_of(st.none(), st.integers(0, 12))


@st.composite
def matcher_rules(draw, sid: int):
    contents = [
        ContentMatch(draw(fragments), draw(positions), draw(positions), draw(positions), draw(positions))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if contents:
        pcre = draw(st.sampled_from(_PCRES)) if draw(st.integers(0, 4)) == 0 else None
    else:  # pcre-only, or no payload constraint at all
        pcre = draw(st.sampled_from(_PCRES + [None]))
    low, high = draw(st.sampled_from(_PORT_RANGES))
    return SnortRule(
        action=draw(st.sampled_from(list(_ACTIONS))),
        protocol=draw(st.sampled_from(["tcp", "udp", "ip"])),
        src=AddressSpec(draw(st.sampled_from([None, _NETWORK])), draw(st.booleans())),
        src_port=PortSpec(),
        dst=AddressSpec(None, False),
        dst_port=PortSpec(low, high),
        msg=f"rule {sid}",
        contents=contents,
        pcre=re.compile(pcre) if pcre is not None else None,
        nocase=draw(st.booleans()),
        sid=sid,
    )


@st.composite
def payloads(draw, rules: List[SnortRule]):
    """Bytes assembled from pattern fragments, case flips and filler."""
    pieces = [bytes(content.pattern) for rule in rules for content in rule.contents] or [b"ab"]
    out = b""
    for _ in range(draw(st.integers(0, 6))):
        choice = draw(st.integers(0, 4))
        piece = draw(st.sampled_from(pieces))
        if choice == 0:
            piece = piece[: draw(st.integers(0, len(piece)))]
        elif choice == 1:
            piece = piece.swapcase()
        elif choice == 2:
            piece = draw(st.binary(max_size=5))
        out += piece
    return out


def _counters(router: Router):
    return {name: (e.packets_in, e.packets_out) for name, e in router.elements.items()}


MATCHER_PROPERTY = settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@MATCHER_PROPERTY
@given(data=st.data())
def test_prefiltered_matcher_agrees_with_exhaustive_oracle(data):
    rules = [data.draw(matcher_rules(sid)) for sid in range(1, data.draw(st.integers(1, 12)) + 1)]
    matched_wired = data.draw(st.booleans())
    config = (
        "from :: FromDevice(); ids :: IDSMatcher(); c0 :: Counter(); to :: ToDevice(); from -> ids; ids[0] -> c0 -> to;"
        + (" c1 :: Counter(); d :: Discard(); ids[1] -> c1 -> d;" if matched_wired else "")
    )
    model = default_cost_model()
    in_enclave = data.draw(st.booleans())
    fast_ledger, oracle_ledger = CostLedger(), CostLedger()
    fast = Router(config, model, fast_ledger, {"in_enclave": in_enclave, "ruleset": rules})
    oracle = Router(config, model, oracle_ledger, {"in_enclave": in_enclave, "ruleset": rules})
    install_exhaustive_match(oracle)
    fast_ids, oracle_ids = fast.element("ids"), oracle.element("ids")
    for _ in range(data.draw(st.integers(1, 6))):
        payload = data.draw(payloads(rules))
        src = data.draw(st.sampled_from(["10.1.2.3", "192.0.2.1"]))
        dport = data.draw(st.sampled_from([80, 443, 5001, 5500]))
        if data.draw(st.booleans()):
            ip = IPv4Packet(src=src, dst="10.0.0.9", l4=UdpDatagram(40000, dport, payload))
        else:
            ip = IPv4Packet(src=src, dst="10.0.0.9", l4=TcpSegment(40000, dport, payload=payload))
        expected = oracle_ids._match(Packet(ip), payload)
        assert fast_ids._match(Packet(ip), payload) is expected
        fast_result, oracle_result = fast.process(ip), oracle.process(ip)
        assert fast_result[0] == oracle_result[0]
        assert _counters(fast) == _counters(oracle)
        assert fast_ids.packets_matched == oracle_ids.packets_matched
        assert fast_ids.alerts == oracle_ids.alerts
    assert fast_ledger.total == oracle_ledger.total


def test_automaton_holds_fast_pattern_prefixes_only():
    rules = parse_rules(ruleset_text(), HOME_NET_VARS)
    router = Router(configs.idps_config(), default_cost_model(), CostLedger(), {"ruleset": rules})
    automaton = router.element("ids").automaton
    assert all(len(pattern) <= idsmatcher.FAST_PATTERN_BYTES for pattern in automaton.patterns)
    assert len(automaton._goto) == 1256


# ----------------------------------------------------------------------
# speed bar
# ----------------------------------------------------------------------
def test_rule_set_application_outruns_the_oracles(monkeypatch):
    """Parse, compile and first scan of the stock rules, against the
    per-line parse oracle plus a full-pattern automaton (the parent's
    application), best of 5 interleaved passes per side."""
    text = ruleset_text()
    model = default_cost_model()
    ip = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(40000, 5001, make_payload(1500)))
    count = 5
    verdicts = {}

    def timed(parse, fast_pattern_bytes):
        def run():
            monkeypatch.setattr(idsmatcher, "FAST_PATTERN_BYTES", fast_pattern_bytes)
            started = time.perf_counter()
            for _ in range(count):
                rules = parse(text, HOME_NET_VARS)
                router = Router(configs.idps_config(), model, CostLedger(), {"in_enclave": True, "ruleset": rules})
                accepted, _packet = router.process(ip)
            elapsed = time.perf_counter() - started
            verdicts[parse] = accepted
            return count, elapsed

        return run

    fast_rate, oracle_rate = _race(
        timed(parse_rules, idsmatcher.FAST_PATTERN_BYTES), timed(oracle_parse_rules, None)
    )
    assert verdicts[parse_rules] is verdicts[oracle_parse_rules] is True
    print(f"rule-set application: {fast_rate / oracle_rate:.2f}x the oracles")
    assert fast_rate >= 1.3 * oracle_rate, f"only {fast_rate / oracle_rate:.2f}x the oracles"
