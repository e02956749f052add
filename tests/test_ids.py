"""IDS substrate tests: Aho-Corasick, Snort rule parsing, community set."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import AhoCorasick, RuleSyntaxError, community_ruleset, parse_rules
from repro.ids.community_rules import COMMUNITY_RULE_COUNT, ruleset_text
from repro.ids.snort_rules import _split_options, parse_rule
from repro.netsim import IPv4Packet, TcpSegment, UdpDatagram


# ----------------------------------------------------------------------
# Aho-Corasick
# ----------------------------------------------------------------------
def test_single_pattern_match():
    ac = AhoCorasick([b"abc"])
    assert ac.scan(b"xxabcxx") == [(0, 5)]


def test_multiple_patterns_overlapping():
    ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
    matches = ac.scan(b"ushers")
    found = {(ac.patterns[pid], end) for pid, end in matches}
    assert found == {(b"she", 4), (b"he", 4), (b"hers", 6)}


def test_no_match():
    ac = AhoCorasick([b"virus", b"trojan"])
    assert ac.scan(b"perfectly clean payload") == []
    assert not ac.matches(b"clean")


def test_pattern_at_start_and_end():
    ac = AhoCorasick([b"start", b"end"])
    assert ac.matches(b"start middle end")
    assert ac.first_match(b"start middle end") == 0


def test_repeated_pattern_counts_every_occurrence():
    ac = AhoCorasick([b"ab"])
    assert len(ac.scan(b"ababab")) == 3


def test_case_insensitive_mode():
    ac = AhoCorasick([b"CMD.EXE"], case_insensitive=True)
    assert ac.matches(b"run cmd.exe now")
    assert ac.matches(b"run CMD.exe now")


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        AhoCorasick([b""])


def test_add_pattern_after_scan_rebuilds():
    ac = AhoCorasick([b"one"])
    assert ac.matches(b"one")
    ac.add_pattern(b"two")
    assert ac.matches(b"two")


def test_binary_patterns():
    ac = AhoCorasick([bytes([0xBE, 0xEF, 0xFA, 0xCE])])
    assert ac.matches(b"\x00\xbe\xef\xfa\xce\x00")


def naive_matches(ac, haystack):
    """Every occurrence by end offset, then longer pattern first, then lower id."""
    found = []
    for pid, pattern in enumerate(ac.patterns):
        start = 0
        while True:
            index = haystack.find(pattern, start)
            if index < 0:
                break
            found.append((index + len(pattern), -len(pattern), pid))
            start = index + 1
    return [(pid, end) for end, _neg_len, pid in sorted(found)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=10).flatmap(
        # re-draw some patterns so duplicates are common
        lambda pats: st.lists(st.sampled_from(pats), min_size=1, max_size=12)
    ),
    st.binary(max_size=300),
)
def test_aho_corasick_agrees_with_naive_search(patterns, haystack):
    ac = AhoCorasick(patterns)
    assert ac.scan(haystack) == naive_matches(ac, haystack)


def test_add_pattern_after_scan_keeps_order_and_no_duplicates():
    ac = AhoCorasick([b"he", b"she"])
    assert ac.scan(b"ushers") == [(1, 4), (0, 4)]
    ac.add_pattern(b"hers")
    ac.add_pattern(b"he")
    assert ac.scan(b"ushers") == naive_matches(ac, b"ushers")


class ConstantHashBytes(bytes):
    """Payload type whose hash collides for every value."""

    def __hash__(self):
        return 42


def test_scan_cache_never_returns_another_payloads_matches():
    ac = AhoCorasick([b"evil"])
    assert ac.scan(ConstantHashBytes(b"good")) == []
    assert ac.scan(ConstantHashBytes(b"evil")) == [(0, 4)]
    assert ac.scan(ConstantHashBytes(b"good")) == []


def test_scan_cache_is_bounded_and_returns_fresh_lists():
    ac = AhoCorasick([b"a"])
    for i in range(5000):
        ac.scan(b"a%d" % i)
    assert len(ac._cache) == 4096
    first = ac.scan(b"a0")
    first.append((9, 9))
    assert ac.scan(b"a0") == [(0, 1)]


# ----------------------------------------------------------------------
# Snort rule parsing
# ----------------------------------------------------------------------
def test_parse_full_rule():
    rule = parse_rule(
        'alert tcp $EXTERNAL_NET any -> $HOME_NET 80 '
        '(msg:"WEB attack"; content:"/etc/passwd"; nocase; sid:1002; rev:3;)',
        variables={"EXTERNAL_NET": "any", "HOME_NET": "10.8.0.0/16"},
    )
    assert rule.action == "alert"
    assert rule.protocol == "tcp"
    assert rule.content_patterns == [b"/etc/passwd"]
    assert rule.nocase and rule.sid == 1002 and rule.rev == 3


def test_hex_escape_content():
    rule = parse_rule('alert udp any any -> any 53 (content:"|00 00 FC|"; sid:1;)')
    assert rule.content_patterns == [b"\x00\x00\xfc"]


def test_mixed_text_and_hex_content():
    rule = parse_rule('alert tcp any any -> any 80 (content:"..|25|c0"; sid:2;)')
    assert rule.content_patterns == [b"..%c0"]


def test_port_range():
    rule = parse_rule("alert tcp any 1024: -> any :1023 (sid:3;)")
    assert rule.src_port.matches(5000) and not rule.src_port.matches(80)
    assert rule.dst_port.matches(80) and not rule.dst_port.matches(5000)


def test_negated_address():
    rule = parse_rule("alert tcp !10.0.0.0/8 any -> any any (sid:4;)")
    packet_out = IPv4Packet(src="192.168.1.1", dst="10.8.0.1", l4=TcpSegment(1, 2))
    packet_in = IPv4Packet(src="10.1.1.1", dst="10.8.0.1", l4=TcpSegment(1, 2))
    assert rule.header_matches(packet_out)
    assert not rule.header_matches(packet_in)


def test_protocol_constraint():
    rule = parse_rule('alert udp any any -> any any (content:"x"; sid:5;)')
    udp = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=UdpDatagram(1, 2, b"x"))
    tcp = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 2, payload=b"x"))
    assert rule.matches(udp)
    assert not rule.matches(tcp)


def test_multiple_contents_all_required():
    rule = parse_rule('alert tcp any any -> any any (content:"foo"; content:"bar"; sid:6;)')
    both = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 2, payload=b"foo ... bar"))
    one = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 2, payload=b"foo only"))
    assert rule.matches(both)
    assert not rule.matches(one)


def test_bad_rules_rejected():
    for bad in [
        "gibberish",
        "alert tcp any any -> any any (frob:1;)",
        "explode tcp any any -> any any (sid:1;)",
        "alert quic any any -> any any (sid:1;)",
        'alert tcp any any -> any any (content:"|0|"; sid:1;)',
    ]:
        with pytest.raises(RuleSyntaxError):
            parse_rule(bad)


#: SHA-256 of repr(parse_rules(ruleset_text(), HOME_NET_VARS)), taken
#: with the character-by-character option splitter it replaced
STOCK_RULESET_REPR_SHA256 = "ce0814a24e84c77ff1cd6d71ccf3771933256aa6fbe5491253c2f7041180fcdd"
HOME_NET_VARS = {"HOME_NET": "10.0.0.0/8", "EXTERNAL_NET": "any"}


def test_stock_ruleset_parse_is_pinned():
    rules = parse_rules(ruleset_text(), variables=HOME_NET_VARS)
    assert len(rules) == COMMUNITY_RULE_COUNT
    assert hashlib.sha256(repr(rules).encode()).hexdigest() == STOCK_RULESET_REPR_SHA256


def reference_split(text):
    """The character-by-character splitter, minus its empty options."""
    parts, current, in_quote = [], [], False
    for char in text:
        if char == '"':
            in_quote = not in_quote
            current.append(char)
        elif char == ";" and not in_quote:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    parts.append("".join(current).strip())
    return [part for part in parts if part]


@pytest.mark.parametrize(
    "text, expected",
    [
        ('msg:"a;b"; sid:1;', ['msg:"a;b"', "sid:1"]),
        ("sid:1;; rev:2;;", ["sid:1", "rev:2"]),
        (' ; ;sid:1', ["sid:1"]),
        ('msg:"open; sid:1; rev:2', ['msg:"open; sid:1; rev:2']),
        ('msg:"x"; content:"un;closed', ['msg:"x"', 'content:"un;closed']),
        ('content:"a""b;c"; nocase', ['content:"a""b;c"', "nocase"]),
        ("", []),
    ],
)
def test_split_options_cases(text, expected):
    assert _split_options(text) == expected == reference_split(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='ab ;:"', max_size=40))
def test_split_options_agrees_with_reference(text):
    assert _split_options(text) == reference_split(text)


def test_parse_rules_skips_comments_and_blanks():
    rules = parse_rules("# comment\n\nalert tcp any any -> any any (sid:1;)\n")
    assert len(rules) == 1


# ----------------------------------------------------------------------
# community rule set
# ----------------------------------------------------------------------
def test_community_ruleset_size_and_determinism():
    a = community_ruleset()
    b = community_ruleset()
    assert len(a) == COMMUNITY_RULE_COUNT == 377
    assert [r.sid for r in a] == [r.sid for r in b]


def test_community_ruleset_does_not_match_printable_traffic():
    rules = community_ruleset()
    payload = bytes((i % 95) + 32 for i in range(1500))  # printable ASCII
    packet = IPv4Packet(src="10.8.0.2", dst="10.8.0.3", l4=UdpDatagram(40000, 5001, payload))
    assert not any(rule.matches(packet) for rule in rules)


def test_community_ruleset_text_roundtrips_through_parser():
    text = ruleset_text(50)
    rules = parse_rules(text, variables={"HOME_NET": "10.8.0.0/16", "EXTERNAL_NET": "any"})
    assert len(rules) >= 50


# ----------------------------------------------------------------------
# content positional modifiers (offset/depth/distance/within)
# ----------------------------------------------------------------------
def tcp_packet(payload, dport=80):
    return IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, dport, payload=payload))


def test_offset_and_depth_constrain_absolute_position():
    rule = parse_rule('alert tcp any any -> any 80 (content:"EVIL"; offset:4; depth:4; sid:20;)')
    assert rule.matches(tcp_packet(b"xxxxEVILyyyy"))  # starts exactly at 4
    assert not rule.matches(tcp_packet(b"EVILxxxxyyyy"))  # too early
    assert not rule.matches(tcp_packet(b"xxxxxxxxEVIL"))  # too late


def test_distance_and_within_are_relative_to_previous_match():
    rule = parse_rule(
        'alert tcp any any -> any 80 '
        '(content:"HEAD"; content:"TAIL"; distance:2; within:4; sid:21;)'
    )
    assert rule.matches(tcp_packet(b"HEADxxTAILzz"))  # TAIL 2 bytes after HEAD
    assert not rule.matches(tcp_packet(b"HEADTAILzzzz"))  # too close (distance 2)
    assert not rule.matches(tcp_packet(b"HEADxxxxxxxxxxTAIL"))  # beyond within


def test_modifier_without_content_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("alert tcp any any -> any 80 (offset:4; sid:22;)")


def test_contents_must_match_in_order():
    rule = parse_rule(
        'alert tcp any any -> any 80 (content:"one"; content:"two"; distance:0; sid:23;)'
    )
    assert rule.matches(tcp_packet(b"one then two"))
    assert not rule.matches(tcp_packet(b"two then one"))


def test_modifiers_respect_nocase():
    rule = parse_rule(
        'alert tcp any any -> any 80 (content:"BOOM"; offset:2; depth:3; nocase; sid:24;)'
    )
    assert rule.matches(tcp_packet(b"xxboomyy"))
    assert not rule.matches(tcp_packet(b"boomxxyy"))


# ----------------------------------------------------------------------
# pcre option
# ----------------------------------------------------------------------
def test_pcre_rule_matches_regex():
    rule = parse_rule('alert tcp any any -> any 80 (pcre:"/etc\\/(passwd|shadow)/"; sid:30;)')
    assert rule.matches(tcp_packet(b"GET /etc/shadow"))
    assert rule.matches(tcp_packet(b"GET /etc/passwd"))
    assert not rule.matches(tcp_packet(b"GET /etc/hosts"))


def test_pcre_case_insensitive_flag():
    rule = parse_rule('alert tcp any any -> any 80 (pcre:"/select.+from/i"; sid:31;)')
    assert rule.matches(tcp_packet(b"SELECT name FROM users"))
    assert not rule.matches(tcp_packet(b"nothing here"))


def test_pcre_combined_with_content():
    rule = parse_rule(
        'alert tcp any any -> any 80 (content:"POST"; pcre:"/token=[0-9a-f]{8}/"; sid:32;)'
    )
    assert rule.matches(tcp_packet(b"POST /x token=deadbeef"))
    assert not rule.matches(tcp_packet(b"GET /x token=deadbeef"))  # content missing
    assert not rule.matches(tcp_packet(b"POST /x token=zzz"))  # pcre missing


def test_pcre_syntax_errors_rejected():
    for bad in ['pcre:"no-slashes"', 'pcre:"/unclosed"', 'pcre:"/a(/"', 'pcre:"/ok/q"']:
        with pytest.raises(RuleSyntaxError):
            parse_rule(f"alert tcp any any -> any 80 ({bad}; sid:33;)")
