"""IPFilter / IPClassifier bit-vector index against the closure matchers.

The reference below is the per-term closure matcher IPFilter and
IPClassifier used before the rule lists compiled into one
:class:`~repro.click.elements.headerindex.HeaderIndex`: every rule is a
conjunction of predicates, evaluated rule by rule until one matches.
The property tests run random rule lists and packets through both and
demand the same first match, output, counters and ledger total; the
speed bar holds the index to at least 3x the reference on the paper's
16-rule firewall.
"""

from __future__ import annotations

import re
import time
from typing import Callable, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.click import ElementError, Router, configs
from repro.click.element import Packet
from repro.costs import default_cost_model
from repro.netsim import IPv4Packet, TcpSegment, UdpDatagram
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IcmpMessage
from repro.perf.micro import _race
from repro.sgx import CostLedger

_PROTOS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}


# ----------------------------------------------------------------------
# the reference: closure-per-term matchers
# ----------------------------------------------------------------------
def _compile_term(tokens: List[str]) -> Callable[[Packet], bool]:
    if tokens == ["all"]:
        return lambda packet: True
    if len(tokens) == 2 and tokens[0] == "proto":
        proto = _PROTOS[tokens[1]]
        return lambda packet: packet.ip.protocol == proto
    if len(tokens) == 3 and tokens[0] in ("src", "dst"):
        side, kind, value = tokens
        if kind == "host":
            address = IPv4Address(value)
            if side == "src":
                return lambda packet: packet.ip.src == address
            return lambda packet: packet.ip.dst == address
        if kind == "net":
            network = IPv4Network(value)
            if side == "src":
                return lambda packet: packet.ip.src in network
            return lambda packet: packet.ip.dst in network
        if kind == "port":
            if "-" in value:
                low_text, high_text = value.split("-", 1)
                low, high = int(low_text), int(high_text)
            else:
                low = high = int(value)
            attr = "src_port" if side == "src" else "dst_port"

            def port_check(packet: Packet, attr=attr, low=low, high=high) -> bool:
                port = getattr(packet.ip.l4, attr, None)
                return port is not None and low <= port <= high

            return port_check
    raise ValueError(f"cannot parse filter term {' '.join(tokens)!r}")


def oracle_filter_rules(args):
    """(allow, predicate) per IPFilter rule."""
    rules = []
    for arg in args:
        action, expression = arg.split(None, 1)
        predicates = [_compile_term(term.strip().split()) for term in expression.split("&&")]
        rules.append((action == "allow", lambda p, preds=predicates: all(pred(p) for pred in preds)))
    return rules


def oracle_pattern(pattern: str) -> Callable[[Packet], bool]:
    """One IPClassifier pattern as a predicate."""
    if pattern == "-":
        return lambda packet: True
    tokens = pattern.split()
    checks: List[Callable[[Packet], bool]] = []
    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token in _PROTOS:
            proto = _PROTOS[token]
            checks.append(lambda p, proto=proto: p.ip.protocol == proto)
            index += 1
        elif token in ("src", "dst") and index + 2 < len(tokens) and tokens[index + 1] == "port":
            port = int(tokens[index + 2])
            attr = "src_port" if token == "src" else "dst_port"
            checks.append(lambda p, attr=attr, port=port: getattr(p.ip.l4, attr, None) == port)
            index += 3
        elif token == "tos" and index + 1 < len(tokens):
            tos = int(tokens[index + 1], 0)
            checks.append(lambda p, tos=tos: p.ip.tos == tos)
            index += 2
        else:
            raise ValueError(f"cannot parse pattern {pattern!r}")
    return lambda packet: all(check(packet) for check in checks)


def oracle_first_match(predicates, ip: IPv4Packet) -> int:
    packet = Packet(ip)
    for index, predicate in enumerate(predicates):
        if predicate(packet):
            return index
    return -1


def install_filter_oracle(router: Router, name: str):
    """Swap the element's push for the rule-by-rule reference and
    recompile the dispatch plan around it; returns the predicates."""
    element = router.element(name)
    rules = oracle_filter_rules(element.args)

    def push(port: int, packet: Packet) -> None:
        for index, (allow, predicate) in enumerate(rules):
            if predicate(packet):
                element.matched_counts[index] += 1
                element.output(0 if allow else 1, packet)
                return
        packet.verdict = packet.verdict or "reject"

    element.push = push
    router.recompile()
    return [predicate for _allow, predicate in rules]


def install_classifier_oracle(router: Router, name: str):
    """As :func:`install_filter_oracle`, for IPClassifier."""
    element = router.element(name)
    predicates = [oracle_pattern(pattern.strip()) for pattern in element.args]

    def push(port: int, packet: Packet) -> None:
        for out_port, predicate in enumerate(predicates):
            if predicate(packet):
                element.output(out_port, packet)
                return
        packet.verdict = packet.verdict or "reject"

    element.push = push
    router.recompile()
    return predicates


# ----------------------------------------------------------------------
# strategies: rules and packets that sit on each other's edges
# ----------------------------------------------------------------------
_BASES = [
    IPv4Address(text).value
    for text in ("0.0.0.0", "10.0.0.0", "10.0.0.128", "10.0.1.0", "10.8.0.0", "192.0.2.0", "192.0.2.16", "255.255.255.255")
]
_EDGE_PORTS = [0, 1, 23, 80, 443, 1023, 1024, 5001, 40000, 65534, 65535]

addresses = st.one_of(
    st.builds(lambda base, offset: min(base + offset, 0xFFFFFFFF), st.sampled_from(_BASES), st.integers(0, 300)),
    st.integers(0, 0xFFFFFFFF),
)
ports = st.one_of(st.sampled_from(_EDGE_PORTS), st.integers(0, 65535))


def _dotted(value: int) -> str:
    return str(IPv4Address(value))


@st.composite
def filter_terms(draw):
    """(text, address edges, port edges) of one IPFilter term."""
    kind = draw(st.sampled_from(["all", "proto", "host", "net", "port"]))
    side = draw(st.sampled_from(["src", "dst"]))
    if kind == "all":
        return "all", [], []
    if kind == "proto":
        return f"proto {draw(st.sampled_from(sorted(_PROTOS)))}", [], []
    if kind == "host":
        value = draw(addresses)
        return f"{side} host {_dotted(value)}", [value - 1, value, value + 1], []
    if kind == "net":
        value, prefix = draw(addresses), draw(st.integers(0, 32))
        network = IPv4Network(f"{_dotted(value)}/{prefix}")
        low = network.network.value
        high = low + (1 << (32 - prefix)) - 1
        return f"{side} net {_dotted(value)}/{prefix}", [low - 1, low, high, high + 1], []
    low, high = sorted((draw(ports), draw(ports)))
    text = str(low) if low == high and draw(st.booleans()) else f"{low}-{high}"
    return f"{side} port {text}", [], [low - 1, low, high, high + 1]


@st.composite
def filter_rule_lists(draw):
    """1-40 IPFilter rules, plus the address and port edges they define."""
    rules, address_edges, port_edges = [], [], []
    for _ in range(draw(st.integers(1, 40))):
        terms = draw(st.lists(filter_terms(), min_size=1, max_size=3))
        action = draw(st.sampled_from(["allow", "deny", "drop"]))
        rules.append(f"{action} " + " && ".join(text for text, _, _ in terms))
        for _text, address_edge, port_edge in terms:
            address_edges += address_edge
            port_edges += port_edge
    address_edges = [a for a in address_edges if 0 <= a <= 0xFFFFFFFF]
    port_edges = [p for p in port_edges if 0 <= p <= 65535]
    return rules, address_edges, port_edges


def _pick(draw, edges, fallback):
    if edges and draw(st.booleans()):
        return draw(st.sampled_from(edges))
    return draw(fallback)


def draw_packet(draw, address_edges, port_edges, tos_edges=()) -> IPv4Packet:
    """TCP, UDP, ICMP, a fragment (raw-bytes ``l4``) or an unknown protocol."""
    src = _pick(draw, address_edges, addresses)
    dst = _pick(draw, address_edges, addresses)
    sport = _pick(draw, port_edges, ports)
    dport = _pick(draw, port_edges, ports)
    tos = _pick(draw, list(tos_edges), st.sampled_from([0, 0xEB, 0xFF]))
    kind = draw(st.sampled_from(["udp", "tcp", "icmp", "frag_udp", "frag_tcp", "raw"]))
    if kind == "udp":
        return IPv4Packet(src=src, dst=dst, l4=UdpDatagram(sport, dport, b"u" * 8), tos=tos)
    if kind == "tcp":
        return IPv4Packet(src=src, dst=dst, l4=TcpSegment(sport, dport, payload=b"t"), tos=tos)
    if kind == "icmp":
        return IPv4Packet(src=src, dst=dst, l4=IcmpMessage(IcmpMessage.ECHO_REQUEST), tos=tos)
    if kind == "raw":
        return IPv4Packet(src=src, dst=dst, l4=b"\x00" * 16, tos=tos)
    proto = PROTO_UDP if kind == "frag_udp" else PROTO_TCP
    return IPv4Packet(
        src=src, dst=dst, l4=b"\x01" * 24, tos=tos, protocol=proto, frag_offset=draw(st.integers(0, 3)), more_fragments=True
    )


def _element_counters(router: Router):
    return {name: (e.packets_in, e.packets_out) for name, e in router.elements.items()}


def _twin_routers(config: str, in_enclave: bool):
    model = default_cost_model()
    index_ledger, oracle_ledger = CostLedger(), CostLedger()
    indexed = Router(config, model, index_ledger, {"in_enclave": in_enclave})
    reference = Router(config, model, oracle_ledger, {"in_enclave": in_enclave})
    return indexed, index_ledger, reference, oracle_ledger


PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------
@PROPERTY
@given(data=st.data())
def test_ipfilter_index_agrees_with_closure_oracle(data):
    rules, address_edges, port_edges = data.draw(filter_rule_lists())
    deny_wired = data.draw(st.booleans())
    config = (
        "f :: FromDevice(); fw :: IPFilter(" + ", ".join(rules) + "); t :: ToDevice(); f -> fw -> t;"
        + (" c :: Counter(); d :: Discard(); fw[1] -> c -> d;" if deny_wired else "")
    )
    indexed, index_ledger, reference, oracle_ledger = _twin_routers(config, data.draw(st.booleans()))
    predicates = install_filter_oracle(reference, "fw")
    fw, oracle_fw = indexed.element("fw"), reference.element("fw")
    assert len(fw.rules) == len(rules)
    for _ in range(data.draw(st.integers(1, 8))):
        ip = draw_packet(data.draw, address_edges, port_edges)
        assert fw._index.first_match(ip) == oracle_first_match(predicates, ip)
        assert indexed.process(ip)[0] == reference.process(ip)[0]
        assert fw.matched_counts == oracle_fw.matched_counts
        assert _element_counters(indexed) == _element_counters(reference)
    assert fw.read_handler("matches") == oracle_fw.read_handler("matches")
    assert index_ledger.total == oracle_ledger.total


@st.composite
def classifier_patterns(draw):
    """1-40 IPClassifier patterns, plus the port and TOS edges they use."""
    patterns, port_edges, tos_edges = [], [], []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 9)) == 0:
            patterns.append("-")
            continue
        tokens = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["proto", "port", "tos"]))
            if kind == "proto":
                tokens.append(draw(st.sampled_from(sorted(_PROTOS))))
            elif kind == "port":
                port = draw(ports)
                tokens.append(f"{draw(st.sampled_from(['src', 'dst']))} port {port}")
                port_edges += [port - 1, port, port + 1]
            else:
                tos = draw(st.sampled_from([0, 1, 0xEB, 0xFF]) | st.integers(0, 255))
                tokens.append(f"tos {draw(st.sampled_from([hex(tos), str(tos)]))}")
                tos_edges += [tos - 1, tos, tos + 1]
        patterns.append(" ".join(tokens))
    return patterns, [p for p in port_edges if 0 <= p <= 65535], [t for t in tos_edges if 0 <= t <= 255]


@PROPERTY
@given(data=st.data())
def test_ipclassifier_index_agrees_with_closure_oracle(data):
    patterns, port_edges, tos_edges = data.draw(classifier_patterns())
    wiring = " ".join(f"o{i} :: Counter(); cl[{i}] -> o{i} -> t;" for i in range(len(patterns)))
    config = (
        "f :: FromDevice(); cl :: IPClassifier(" + ", ".join(patterns) + "); t :: ToDevice(); f -> cl; " + wiring
    )
    indexed, index_ledger, reference, oracle_ledger = _twin_routers(config, data.draw(st.booleans()))
    predicates = install_classifier_oracle(reference, "cl")
    classifier = indexed.element("cl")
    for _ in range(data.draw(st.integers(1, 8))):
        ip = draw_packet(data.draw, [], port_edges, tos_edges)
        assert classifier._index.first_match(ip) == oracle_first_match(predicates, ip)
        assert indexed.process(ip)[0] == reference.process(ip)[0]
        assert _element_counters(indexed) == _element_counters(reference)
    assert index_ledger.total == oracle_ledger.total


def test_repeated_terms_intersect():
    config = (
        "f :: FromDevice(); fw :: IPFilter(allow dst port 80 && dst port 443, deny dst port 1-100 && dst port 50-200,"
        " allow src net 10.0.0.0/8 && src host 10.1.2.3, allow proto tcp && proto udp); t :: ToDevice(); f -> fw -> t;"
    )
    router = Router(config)
    fw = router.element("fw")
    udp = lambda src, dport: IPv4Packet(src=src, dst="10.0.0.9", l4=UdpDatagram(40000, dport, b""))  # noqa: E731
    assert fw._index.first_match(udp("10.9.9.9", 80)) == 1  # rule 0 is empty; 80 is in 50-100
    assert fw._index.first_match(udp("10.9.9.9", 443)) == -1
    assert fw._index.first_match(udp("10.1.2.3", 443)) == 2
    assert fw._index.first_match(udp("10.1.2.4", 443)) == -1
    classifier = Router(
        "f :: FromDevice(); cl :: IPClassifier(tcp udp, -); t :: ToDevice(); f -> cl; cl[0] -> t; cl[1] -> t;"
    ).element("cl")
    assert classifier._index.first_match(udp("10.9.9.9", 80)) == 1


def test_portless_packets_match_only_rules_without_port_terms():
    router = Router(
        "f :: FromDevice(); fw :: IPFilter(deny dst port 0-65535, deny src port 7, allow proto icmp);"
        " t :: ToDevice(); f -> fw -> t;"
    )
    fw = router.element("fw")
    icmp = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=IcmpMessage(IcmpMessage.ECHO_REQUEST))
    fragment = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=b"\x00" * 8, protocol=PROTO_UDP, more_fragments=True)
    assert fw._index.first_match(icmp) == 2
    assert fw._index.first_match(fragment) == -1
    assert router.process(icmp)[0]
    assert not router.process(fragment)[0]
    assert fw.matched_counts == [0, 0, 1]


# ----------------------------------------------------------------------
# malformed terms
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule, term",
    [
        ("deny dst port 80-", "dst port 80-"),
        ("deny src net 10.0.0.0/33", "src net 10.0.0.0/33"),
        ("deny src host 300.1.1.1", "src host 300.1.1.1"),
        ("deny dst port 70000", "dst port 70000"),
        ("deny dst port 90-80", "dst port 90-80"),
        ("deny src port x", "src port x"),
        ("deny proto sctp", "proto sctp"),
        ("deny src net 10.0.0.0", "src net 10.0.0.0"),
        ("allow all && ", ""),
    ],
)
def test_ipfilter_malformed_term_raises_element_error(rule, term):
    with pytest.raises(ElementError, match="^fw: .*" + re.escape(repr(term))):
        Router(f"f :: FromDevice(); fw :: IPFilter({rule}, allow all); t :: ToDevice(); f -> fw -> t;")


@pytest.mark.parametrize(
    "pattern",
    ["tcp dst port http", "dst port 65536", "src port -1", "tos 0xzz", "tos 256", "tos -1", "udp frob", "dst port"],
)
def test_ipclassifier_malformed_pattern_raises_element_error(pattern):
    with pytest.raises(ElementError, match="^cl: .*" + re.escape(repr(pattern))):
        Router(f"f :: FromDevice(); cl :: IPClassifier({pattern}, -); t :: ToDevice(); f -> cl; cl[0] -> t; cl[1] -> t;")


def test_port_and_tos_bounds_are_accepted():
    Router("f :: FromDevice(); fw :: IPFilter(deny dst port 0-65535, allow src port 0); t :: ToDevice(); f -> fw -> t;")
    Router("f :: FromDevice(); cl :: IPClassifier(tos 255, dst port 65535); t :: ToDevice(); f -> cl; cl[0] -> t; cl[1] -> t;")


# ----------------------------------------------------------------------
# speed bar
# ----------------------------------------------------------------------
def test_ipfilter_push_is_three_times_the_closure_oracle():
    """``IPFilter.push`` on the paper's 16 rules and a ``small_fw``-shaped
    64 B datagram, best of 5 interleaved passes per side."""
    model = default_cost_model()
    indexed = Router(configs.firewall_config(), model, CostLedger(), {"in_enclave": True})
    reference = Router(configs.firewall_config(), model, CostLedger(), {"in_enclave": True})
    install_filter_oracle(reference, "fw")
    ip = IPv4Packet(src="10.8.0.2", dst="10.0.0.9", l4=UdpDatagram(40000, 5001, b"x" * 64))
    count = 2000

    def timed(router):
        push, packet = router.element("fw").push, Packet(ip)

        def run():
            started = time.perf_counter()
            for _ in range(count):
                push(0, packet)
            return count, time.perf_counter() - started

        return run

    index_rate, oracle_rate = _race(timed(indexed), timed(reference))
    assert indexed.element("fw").matched_counts[-1] == reference.element("fw").matched_counts[-1]
    assert index_rate >= 3.0 * oracle_rate, f"only {index_rate / oracle_rate:.2f}x the oracle"
