"""The OpenVPN management interface.

A local control socket on the client machine.  EndBox uses it for the
custom TLS library's key forwarding (§III-D): the (untrusted)
application process pushes negotiated session keys, which the VPN client
relays into the enclave's key registry.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.sim import Simulator


class ManagementInterface:
    """An event channel into a running VPN client."""

    def __init__(self, sim: Simulator, cost_model=None, host=None) -> None:
        self.sim = sim
        self.cost_model = cost_model
        self.host = host
        self._key_listeners: List[Callable[[Any], None]] = []
        self.keys_forwarded = 0

    # ------------------------------------------------------------------
    # key forwarding (custom OpenSSL hook target)
    # ------------------------------------------------------------------
    def on_tls_keys(self, listener: Callable[[Any], None]) -> None:
        """Register a listener for forwarded TLS session keys."""
        self._key_listeners.append(listener)

    def forward_tls_keys(self, session) -> None:
        """Called by the custom TLS library after each handshake.

        Delivery is asynchronous with a small simulated cost (a local
        socket round trip), matching Table I's "custom OpenSSL without
        decryption" overhead.
        """
        self.keys_forwarded += 1
        delay = self.cost_model.mgmt_key_forward if self.cost_model else 0.0

        def deliver() -> None:
            for listener in self._key_listeners:
                listener(session)

        self.sim.schedule(delay, deliver)
