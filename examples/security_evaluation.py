#!/usr/bin/env python3
"""Run the §V-A security evaluation: 21 attacks against live deployments.

Every attack class the paper discusses — middlebox bypass, configuration
rollback, traffic replay, enclave denial of service, TLS downgrade,
Iago-style interface attacks, and the middlebox-failure scenario — is
mounted against freshly built simulated deployments.

Run:  python examples/security_evaluation.py
"""

from repro.attacks import run_all
from repro.attacks.common import summarize


def main() -> None:
    reports = run_all()
    print(summarize(reports))
    failed = [r for r in reports if not r.defeated]
    if failed:
        raise SystemExit(f"{len(failed)} attacks succeeded - reproduction bug!")
    print("\nAll attacks defeated, matching the paper's security argument.")


if __name__ == "__main__":
    main()
