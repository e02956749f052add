"""Hosts: CPU cores + NICs + a protocol stack.

The paper's two machine classes are modelled as host presets:

* class A — SGX-capable 4-core Xeon v5, 32 GB RAM (clients, some servers),
* class B — non-SGX 4-core Xeon v2, 16 GB RAM (ENDBOX/iperf servers).

Both run with hyper-threading enabled and two 10 Gbps NICs.  CPU speed
differences between the classes are expressed through the cost model's
per-class scale factor rather than through core counts.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.interface import Interface
from repro.netsim.link import Link
from repro.netsim.stack import NetworkStack
from repro.netsim.tun import TunDevice
from repro.sim import CpuCores, Simulator


class Host:
    """A machine in the simulated testbed."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int = 4,
        ht_factor: float = 1.3,
        context_switch_cost: float = 0.0,
        cpu_scale: float = 1.0,
        forwarding: bool = False,
        sgx_capable: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.cpu = CpuCores(
            sim,
            cores=cores,
            ht_factor=ht_factor,
            context_switch_cost=context_switch_cost,
            name=f"{name}.cpu",
        )
        #: Multiplier on cost-model durations for this machine class
        #: (class B Xeon v2 machines are ~15 % slower per cycle).
        self.cpu_scale = cpu_scale
        self.sgx_capable = sgx_capable
        self.stack = NetworkStack(sim, name, forwarding=forwarding)

    # ------------------------------------------------------------------
    def add_nic(self, address: IPv4Address, network: IPv4Network, link: Link) -> Interface:
        """Create a NIC with ``address``, attach it to ``link``."""
        nic = Interface(f"{self.name}.eth{len(self.stack.interfaces)}", IPv4Address(address))
        link.attach(nic)
        self.stack.add_interface(nic, network)
        return nic

    def add_tun(self, address: IPv4Address, network: IPv4Network, name: Optional[str] = None) -> TunDevice:
        """Create a TUN device (for VPN endpoints) and install its route."""
        tun = TunDevice(self.sim, name or f"{self.name}.tun{len(self.stack.interfaces)}", IPv4Address(address))
        tun.attach(self.stack)
        self.stack.add_interface(tun, network)
        return tun

    def run(self, seconds: float):
        """Occupy a core for scaled CPU time; returns the completion event."""
        return self.cpu.run(seconds * self.cpu_scale)

    @property
    def address(self) -> IPv4Address:
        return self.stack.primary_address()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name}>"


def class_a_host(sim: Simulator, name: str, **kwargs) -> Host:
    """An SGX-capable evaluation machine (Xeon v5, 4 cores, 32 GB)."""
    kwargs.setdefault("cores", 4)
    kwargs.setdefault("ht_factor", 1.3)
    kwargs.setdefault("cpu_scale", 1.0)
    kwargs.setdefault("sgx_capable", True)
    return Host(sim, name, **kwargs)


def class_b_host(sim: Simulator, name: str, **kwargs) -> Host:
    """A non-SGX server machine (Xeon v2, 4 cores, 16 GB)."""
    kwargs.setdefault("cores", 4)
    kwargs.setdefault("ht_factor", 1.3)
    # class differences are already folded into the calibrated cost
    # constants (the server-side fits were made against class B hosts)
    kwargs.setdefault("cpu_scale", 1.0)
    kwargs.setdefault("sgx_capable", False)
    return Host(sim, name, **kwargs)
