"""IDSMatcher: EndBox's custom IDPS element (§V-B).

Executes a Snort rule set the way Snort's fast-pattern matcher does: one
Aho–Corasick automaton holds the first :data:`FAST_PATTERN_BYTES` bytes
of every lowercased ``content`` pattern, a single pass over the
lowercased payload yields candidate rules, and each candidate is then
verified exactly, in rule order (header fields, every content with its
case mode and positional modifiers, ``pcre``).  A prefix occurs wherever
its pattern does, so the prefilter only ever adds candidates, and the
exact check returns the same first matching rule as checking every rule
would.

Outputs: 0 = clean packets, 1 = matched packets (drop/alert path; if
unconnected, matched packets are rejected, i.e. intrusion *prevention*).

The rule set comes either from the configuration argument (inline rules
text) or from the router context key ``ruleset`` (a list of
:class:`~repro.ids.snort_rules.SnortRule`).
"""

from __future__ import annotations

from typing import List

from repro.click.element import Element, ElementError, Packet
from repro.click.registry import register_element
from repro.ids.aho_corasick import AhoCorasick
from repro.ids.snort_rules import SnortRule, parse_rules

#: bytes of each content pattern the automaton holds; the exact check
#: verifies the rest.  Short prefixes keep the automaton small (1,256
#: nodes instead of 4,235 on the stock rules), which is what a rollout
#: rebuilds in every enclave.
FAST_PATTERN_BYTES = 4


@register_element("IDSMatcher")
class IDSMatcher(Element):
    PORT_COUNT = (1, None)

    def configure(self, args: List[str]) -> None:
        self._rules_arg = args[0] if args else None
        self.rules: List[SnortRule] = []
        self.automaton: AhoCorasick | None = None
        self._pattern_owner: List[int] = []  # pattern id -> rule index
        self._contentless: List[int] = []  # rules that are always candidates
        self.alerts: List[int] = []  # sids of matched rules
        self.packets_matched = 0

    def initialize(self, router) -> None:
        super().initialize(router)
        if self._rules_arg:
            self.rules = parse_rules(self._rules_arg.replace("\\n", "\n"))
        else:
            self.rules = list(router.context.get("ruleset", []))
        if not self.rules:
            raise ElementError(f"{self.name}: no rules configured")
        self._compile()

    def _compile(self) -> None:
        rules = self.rules
        self._pattern_owner = [index for index, rule in enumerate(rules) for _ in rule.contents]
        self._contentless = [index for index, rule in enumerate(rules) if not rule.contents]
        # Pattern prefixes enter the automaton lowercased and the scan runs
        # over a lowercased payload: that makes the automaton a *superset*
        # prefilter for both case modes (a case-sensitive match implies a
        # case-insensitive one, and a pattern's prefix occurs wherever it
        # does); the exact rule.payload_matches() check below restores
        # precision (including offset/depth/distance/within constraints).
        self.automaton = AhoCorasick(
            content.pattern[:FAST_PATTERN_BYTES].lower()
            for rule in rules
            for content in rule.contents
        )

    # ------------------------------------------------------------------
    def push(self, port: int, packet: Packet) -> None:
        # when an upstream TLSDecrypt recovered application plaintext,
        # inspect that instead of the (opaque) ciphertext bytes (§III-D)
        payload = packet.annotations.get("tls_plaintext", packet.payload_bytes)
        matched_rule = self._match(packet, payload)
        if matched_rule is None:
            self.output(0, packet)
            return
        self.packets_matched += 1
        self.alerts.append(matched_rule.sid)
        packet.annotations["ids_sid"] = matched_rule.sid
        packet.annotations["ids_msg"] = matched_rule.msg
        if matched_rule.action in ("drop", "alert"):
            self.output(1, packet)  # rejected when output 1 unconnected
        else:
            self.output(0, packet)

    def _match(self, packet: Packet, payload: bytes) -> SnortRule | None:
        """First rule that fully matches, or None."""
        candidate_rules = set(self._contentless)
        if payload:
            owner = self._pattern_owner
            for pattern_id, _offset in self.automaton.scan(payload.lower()):
                candidate_rules.add(owner[pattern_id])
        for rule_index in sorted(candidate_rules):
            rule = self.rules[rule_index]
            if not rule.header_matches(packet.ip):
                continue
            if rule.payload_matches(payload):
                return rule
        return None

    # ------------------------------------------------------------------
    def take_state(self, predecessor: "IDSMatcher") -> None:
        self.alerts = list(predecessor.alerts)
        self.packets_matched = predecessor.packets_matched

    def cleanup(self) -> None:
        """Drop the retired rule set and its automaton."""
        self.rules = []
        self.automaton = None
        self._pattern_owner = []
        self._contentless = []

    def cost(self, packet: Packet) -> float:
        model = self.router.cost_model if self.router else None
        if model is None:
            return 0.0
        base = model.idsmatcher_fixed + len(packet.payload_bytes) * model.idsmatcher_per_byte
        context = self.router.context
        if context.get("in_enclave"):
            base *= model.enclave_compute_factor
        base *= 1.0 + model.memory_bound_contention * context.get("oversubscription", 0.0)
        return base

    def read_handler(self, name: str) -> str:
        """Read a named statistic (Click's read-handler interface)."""
        if name == "rule_count":
            return str(len(self.rules))
        if name == "matched":
            return str(self.packets_matched)
        return super().read_handler(name)
