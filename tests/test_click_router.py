"""Router + element behaviour tests."""

import pytest

from repro.click import ElementError, HotSwapManager, Router, configs
from repro.click.elements.idsmatcher import IDSMatcher
from repro.costs import default_cost_model
from repro.ids import community_ruleset, parse_rules
from repro.netsim import IPv4Packet, TcpSegment, UdpDatagram
from repro.sgx import CostLedger


def udp_packet(payload=b"x" * 100, src="10.8.0.2", dst="10.0.0.9", sport=40000, dport=5001, tos=0):
    return IPv4Packet(src=src, dst=dst, l4=UdpDatagram(sport, dport, payload), tos=tos)


def tcp_packet(payload=b"", dport=80, src="10.8.0.2", dst="10.0.0.9"):
    return IPv4Packet(src=src, dst=dst, l4=TcpSegment(41000, dport, payload=payload))


# ----------------------------------------------------------------------
# basic routing
# ----------------------------------------------------------------------
def test_nop_config_accepts_everything():
    router = Router(configs.nop_config())
    accepted, packet = router.process(udp_packet())
    assert accepted
    assert packet.l4.payload == b"x" * 100


def test_minimal_config_parses_and_runs():
    router = Router(configs.MINIMAL_CONFIG)
    accepted, _ = router.process(udp_packet())
    assert accepted


def test_missing_entry_point_raises():
    router = Router("c :: Counter(); d :: Discard(); c -> d;")
    with pytest.raises(ElementError):
        router.process(udp_packet())


def test_counter_counts_and_handlers():
    router = Router("f :: FromDevice(); c :: Counter(); t :: ToDevice(); f -> c -> t;")
    for _ in range(3):
        router.process(udp_packet())
    assert router.read_handler("c", "count") == "3"
    router.write_handler("c", "reset")
    assert router.read_handler("c", "count") == "0"


def test_discard_rejects():
    router = Router("f :: FromDevice(); d :: Discard(); f -> d;")
    accepted, _ = router.process(udp_packet())
    assert not accepted


def test_verdict_callback_invoked():
    verdicts = []
    router = Router(
        configs.nop_config(),
        context={"on_verdict": lambda packet, ok: verdicts.append(ok)},
    )
    router.process(udp_packet())
    assert verdicts == [True]


def test_settos_rewrites_qos_byte():
    router = Router("f :: FromDevice(); s :: SetTOS(0xeb); t :: ToDevice(); f -> s -> t;")
    accepted, packet = router.process(udp_packet())
    assert accepted and packet.tos == 0xEB


def test_cost_ledger_charged_per_element():
    model = default_cost_model()
    ledger = CostLedger()
    router = Router(configs.nop_config(), cost_model=model, ledger=ledger)
    router.process(udp_packet())
    # FromDevice and ToDevice are free; traversal itself charges nothing else
    assert ledger.total == 0.0
    router2 = Router(
        "f :: FromDevice(); c :: Counter(); t :: ToDevice(); f -> c -> t;",
        cost_model=model,
        ledger=ledger,
    )
    router2.process(udp_packet())
    assert ledger.total == pytest.approx(model.click_element_fixed)


# ----------------------------------------------------------------------
# classifier / round robin
# ----------------------------------------------------------------------
def test_ipclassifier_routes_by_protocol():
    router = Router(
        "f :: FromDevice();\n"
        "cl :: IPClassifier(tcp, udp, -);\n"
        "ctcp :: Counter(); cudp :: Counter(); crest :: Counter();\n"
        "t :: ToDevice();\n"
        "f -> cl; cl[0] -> ctcp -> t; cl[1] -> cudp -> t; cl[2] -> crest -> t;"
    )
    router.process(tcp_packet())
    router.process(udp_packet())
    router.process(IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=b"raw"))
    assert router.read_handler("ctcp", "count") == "1"
    assert router.read_handler("cudp", "count") == "1"
    assert router.read_handler("crest", "count") == "1"


def test_ipclassifier_tos_pattern():
    router = Router(
        "f :: FromDevice(); cl :: IPClassifier(tos 0xeb, -);\n"
        "flagged :: Counter(); t :: ToDevice();\n"
        "f -> cl; cl[0] -> flagged -> t; cl[1] -> t;"
    )
    router.process(udp_packet(tos=0xEB))
    router.process(udp_packet(tos=0))
    assert router.read_handler("flagged", "count") == "1"


def test_roundrobin_alternates():
    router = Router(
        "f :: FromDevice(); rr :: RoundRobinSwitch();\n"
        "c0 :: Counter(); c1 :: Counter(); t :: ToDevice();\n"
        "f -> rr; rr[0] -> c0 -> t; rr[1] -> c1 -> t;"
    )
    for _ in range(6):
        router.process(udp_packet())
    assert router.read_handler("c0", "count") == "3"
    assert router.read_handler("c1", "count") == "3"


def test_roundrobin_flow_mode_pins_flows():
    router = Router(
        "f :: FromDevice(); rr :: RoundRobinSwitch(FLOWS);\n"
        "c0 :: Counter(); c1 :: Counter(); t :: ToDevice();\n"
        "f -> rr; rr[0] -> c0 -> t; rr[1] -> c1 -> t;"
    )
    for _ in range(4):
        router.process(udp_packet(sport=1111))  # same flow every time
    assert router.read_handler("c0", "count") == "4"
    assert router.read_handler("c1", "count") == "0"


# ----------------------------------------------------------------------
# IPFilter
# ----------------------------------------------------------------------
def test_ipfilter_paper_ruleset_matches_nothing():
    router = Router(configs.firewall_config())
    accepted, _ = router.process(udp_packet())
    assert accepted
    fw = router.element("fw")
    assert len(fw.rules) == 16


def test_ipfilter_deny_port():
    router = Router(
        "f :: FromDevice(); fw :: IPFilter(deny dst port 23, allow all); t :: ToDevice(); f -> fw -> t;"
    )
    accepted, _ = router.process(udp_packet(dport=23))
    assert not accepted
    accepted, _ = router.process(udp_packet(dport=80))
    assert accepted


def test_ipfilter_deny_net_and_conjunction():
    router = Router(
        "f :: FromDevice();"
        "fw :: IPFilter(deny src net 10.8.0.0/24 && dst port 80, allow all);"
        "t :: ToDevice(); f -> fw -> t;"
    )
    assert not router.process(udp_packet(src="10.8.0.5", dport=80))[0]
    assert router.process(udp_packet(src="10.9.0.5", dport=80))[0]
    assert router.process(udp_packet(src="10.8.0.5", dport=81))[0]


def test_ipfilter_default_drop_when_no_rule_matches():
    router = Router(
        "f :: FromDevice(); fw :: IPFilter(allow dst port 443); t :: ToDevice(); f -> fw -> t;"
    )
    assert not router.process(udp_packet(dport=80))[0]
    assert router.process(udp_packet(dport=443))[0]


def test_ipfilter_bad_rule_rejected():
    with pytest.raises(ElementError):
        Router("f :: FromDevice(); fw :: IPFilter(frobnicate all); t :: ToDevice(); f -> fw -> t;")


# ----------------------------------------------------------------------
# IDSMatcher
# ----------------------------------------------------------------------
def test_idsmatcher_clean_traffic_passes():
    router = Router(configs.idps_config(), context={"ruleset": community_ruleset()})
    accepted, _ = router.process(udp_packet(payload=b"innocuous printable payload " * 10))
    assert accepted


def test_idsmatcher_drops_matching_payload():
    router = Router(configs.idps_config(), context={"ruleset": community_ruleset()})
    evil = udp_packet(payload=b"GET /../../etc/passwd HTTP/1.1", dst="10.8.0.7", dport=80)
    evil = IPv4Packet(src=evil.src, dst=evil.dst, l4=TcpSegment(40000, 80, payload=b"GET /etc/passwd"))
    accepted, _ = router.process(evil)
    assert not accepted
    ids = router.find_elements(IDSMatcher)[0]
    assert ids.packets_matched == 1
    assert ids.alerts == [1122]


def test_idsmatcher_nocase_rule():
    rules = parse_rules(
        'alert tcp any any -> any 80 (msg:"cmd"; content:"cmd.exe"; nocase; sid:9;)'
    )
    router = Router(configs.idps_config(), context={"ruleset": rules})
    packet = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 80, payload=b"run CMD.EXE now"))
    assert not router.process(packet)[0]


def test_idsmatcher_case_sensitive_rule_requires_exact_case():
    rules = parse_rules('alert tcp any any -> any 21 (msg:"se"; content:"SITE EXEC"; sid:8;)')
    router = Router(configs.idps_config(), context={"ruleset": rules})
    lower = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 21, payload=b"site exec"))
    upper = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 21, payload=b"SITE EXEC"))
    assert router.process(lower)[0]  # wrong case: no match
    assert not router.process(upper)[0]


def test_idsmatcher_header_constraints_respected():
    rules = parse_rules('alert tcp any any -> any 80 (msg:"p"; content:"/etc/passwd"; sid:5;)')
    router = Router(configs.idps_config(), context={"ruleset": rules})
    wrong_port = IPv4Packet(src="1.1.1.1", dst="2.2.2.2", l4=TcpSegment(1, 8080, payload=b"/etc/passwd"))
    assert router.process(wrong_port)[0]  # port 8080: rule does not apply


def test_idsmatcher_requires_ruleset():
    with pytest.raises(ElementError):
        Router(configs.idps_config())


# ----------------------------------------------------------------------
# splitters
# ----------------------------------------------------------------------
def test_untrusted_splitter_shapes_to_rate():
    clock = {"now": 0.0}
    router = Router(
        configs.ddos_config_untrusted(rate_bps=8000.0),  # 1000 B/s
        context={"ruleset": community_ruleset(10), "clock": lambda: clock["now"]},
    )
    shaped = 0
    for i in range(20):
        clock["now"] = i * 0.01  # 100 packets/s of 100 B = 10x the rate
        accepted, _ = router.process(udp_packet(payload=b"y" * 72))  # 100 B IP packet
        shaped += 0 if accepted else 1
    assert shaped > 5  # most packets exceed the budget after the burst


def test_trusted_splitter_needs_trusted_time():
    router = Router(configs.ddos_config(), context={"ruleset": community_ruleset(10)})
    with pytest.raises(ElementError):
        router.process(udp_packet())


def test_trusted_splitter_samples_clock_sparsely():
    from repro.sgx import TrustedTime
    from repro.sim import Simulator

    sim = Simulator()
    clock = TrustedTime(sim, None, granularity=1e-6)
    router = Router(
        configs.ddos_config(rate_bps=1e9, sample_every=10),
        context={"ruleset": community_ruleset(10), "trusted_time": clock},
    )
    for _ in range(35):
        router.process(udp_packet())
    # first packet reads the clock, then every 10th
    assert clock.reads == 1 + 3


# ----------------------------------------------------------------------
# hot swapping
# ----------------------------------------------------------------------
def test_hotswap_replaces_configuration():
    manager = HotSwapManager(configs.nop_config(), default_cost_model(), in_memory=True)
    accepted, _ = manager.router.process(udp_packet(dport=23))
    assert accepted
    manager.hotswap(
        "from :: FromDevice(); fw :: IPFilter(deny dst port 23, allow all);"
        "to :: ToDevice(); from -> fw -> to;"
    )
    accepted, _ = manager.router.process(udp_packet(dport=23))
    assert not accepted


def test_hotswap_transfers_element_state():
    base = "f :: FromDevice(); c :: Counter(); t :: ToDevice(); f -> c -> t;"
    manager = HotSwapManager(base, default_cost_model())
    manager.router.process(udp_packet())
    manager.router.process(udp_packet())
    manager.hotswap(base)
    assert manager.router.read_handler("c", "count") == "2"


def test_hotswap_cleans_up_the_retired_idsmatcher():
    rules = parse_rules('alert udp any any -> any 5001 (msg:"x"; content:"forbidden"; sid:1;)')
    manager = HotSwapManager(configs.idps_config(), default_cost_model(), context={"ruleset": rules})
    retired = manager.router.find_elements(IDSMatcher)[0]
    assert not manager.router.process(udp_packet(payload=b"forbidden"))[0]
    manager.hotswap(configs.idps_config())
    assert retired.automaton is None and retired.rules == []
    live = manager.router.find_elements(IDSMatcher)[0]
    assert live.packets_matched == 1  # state moved before the cleanup
    assert not manager.router.process(udp_packet(payload=b"forbidden"))[0]


def test_rejected_hotswap_cleans_up_nothing():
    rules = parse_rules('alert udp any any -> any 5001 (msg:"x"; content:"forbidden"; sid:1;)')
    manager = HotSwapManager(configs.idps_config(), default_cost_model(), context={"ruleset": rules})
    with pytest.raises(ElementError):
        manager.hotswap("f :: FromDevice(); x :: NoSuchElement(); t :: ToDevice(); f -> x -> t;")
    assert manager.router.find_elements(IDSMatcher)[0].automaton is not None
    assert not manager.router.process(udp_packet(payload=b"forbidden"))[0]


def test_hotswap_timings_in_memory_vs_device():
    model = default_cost_model()
    endbox = HotSwapManager(configs.MINIMAL_CONFIG, model, in_memory=True)
    vanilla = HotSwapManager(configs.MINIMAL_CONFIG, model, in_memory=False)
    t_endbox = endbox.hotswap(configs.MINIMAL_CONFIG)
    t_vanilla = vanilla.hotswap(configs.MINIMAL_CONFIG)
    assert t_vanilla.hotswap_s > t_endbox.hotswap_s
    # EndBox needs ~30% of vanilla's reconfiguration time (§V-F)
    assert 0.2 < t_endbox.hotswap_s / t_vanilla.hotswap_s < 0.45
