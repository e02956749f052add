"""The §V-A security evaluation as a test suite: every attack class the
paper discusses must be defeated by the reproduction."""

import pytest

from repro.attacks import (
    run_bypass_attacks,
    run_dos_attacks,
    run_downgrade_attack,
    run_failure_isolation,
    run_iago_attacks,
    run_replay_attack,
    run_rollback_attacks,
)
from repro.attacks.common import AttackOutcome, AttackReport, summarize


def assert_all_defeated(reports):
    failed = [r for r in reports if not r.defeated]
    assert not failed, "attacks succeeded: " + "; ".join(f"{r.name} ({r.details})" for r in failed)


def test_bypass_attacks_defeated():
    assert_all_defeated(run_bypass_attacks())


def test_rollback_attacks_defeated():
    assert_all_defeated(run_rollback_attacks())


def test_replay_attack_defeated():
    report = run_replay_attack()
    assert report.defeated, report.details
    assert "0 replayed packets delivered" in report.details


def test_dos_attacks_defeated():
    assert_all_defeated(run_dos_attacks())


def test_downgrade_attack_defeated():
    report = run_downgrade_attack()
    assert report.defeated
    assert "mitm_detected=True" in report.details
    assert "min_version_enforced=True" in report.details


def test_iago_attacks_defeated():
    reports = run_iago_attacks()
    assert len(reports) == 8
    assert_all_defeated(reports)


def test_failure_isolation_holds():
    report = run_failure_isolation()
    assert report.defeated, report.details


def test_summary_formatting():
    reports = [
        AttackReport("a", "g", AttackOutcome.DEFEATED, "d"),
        AttackReport("b", "g", AttackOutcome.SUCCEEDED, "d"),
    ]
    text = summarize(reports)
    assert "1 SUCCEEDED" in text
    assert "[defeated ] a" in text
