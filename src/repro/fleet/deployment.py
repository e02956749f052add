"""The fleet builder: N gateways behind a balancer, from one spec.

:func:`build_fleet` assembles the world a
:class:`~repro.fleet.spec.DeploymentSpec` describes.  With
``gateways=1`` it builds one VPN gateway in a fixed construction order
(hosts, DRBG draws, attach order), so a spec always builds the
byte-identical world.  With ``gateways=N`` it builds N
VPN gateways (``vpn-gw-0`` … ``vpn-gw-(N-1)``), each with its own
tunnel subnet ``10.8.<g>.0/24``, and assigns every client a home
gateway through the spec's balancer policy.

The returned :class:`FleetDeployment` is a superset of
:class:`~repro.core.scenarios.EndBoxDeployment` and adds the fleet
operations the paper's scale-out story needs:

* **fleet-wide rollouts** — :meth:`FleetDeployment.announce_config`
  announces a version to *every* gateway at the same instant, so the
  per-version grace deadlines (§III-E) hold across the whole fleet; the
  deployment object duck-types as the ``vpn_server`` argument of
  :meth:`~repro.core.config_update.ConfigPublisher.publish`.
* **sealed-state migration** — :meth:`FleetDeployment.migrate_client`
  moves a client to another gateway through the §III-C restart path
  (enclave destroyed, re-created from the measured image, credentials
  unsealed — no new remote attestation) while the source gateway's
  session record travels ahead to the target so version/grace
  accounting never resets.
* **outage draining** — :meth:`FleetDeployment.on_gateway_outage` /
  :meth:`FleetDeployment.on_gateway_restored` are the hooks the fault
  injector's ``GatewayRestart`` event drives: clients are migrated off
  a gateway before its restart window and re-homed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.click.router import Router
from repro.core.ca import CertificateAuthority
from repro.core.config_update import ConfigFileServer, ConfigPublisher
from repro.core.enclave_app import EndBoxEnclave, build_endbox_image
from repro.core.endbox_client import EndBoxClient
from repro.core.endbox_server import EndBoxServer
from repro.core.provisioning import provision_client
from repro.core.scenarios import (
    MANAGED_NET,
    TUNNEL_NET,
    EndBoxDeployment,
    use_case_configs,
)
from repro.costs.model import default_cost_model
from repro.crypto.drbg import HmacDrbg
from repro.crypto.x25519 import X25519PrivateKey
from repro.ids.snort_rules import parse_rules
from repro.netsim.addresses import IPv4Network
from repro.netsim.host import Host, class_a_host, class_b_host
from repro.netsim.topology import StarTopology
from repro.sgx.attestation import IntelAttestationService, SgxPlatform
from repro.sgx.enclave import EnclaveMode
from repro.sgx.gateway import CostLedger
from repro.sgx.sealing import SealedStorage
from repro.sim import Simulator
from repro.vpn.channel import ProtectionMode
from repro.vpn.openvpn import OpenVpnClient, OpenVpnServer

from repro.fleet.balancer import Balancer, make_balancer
from repro.fleet.spec import DeploymentSpec


class FleetError(RuntimeError):
    """An invalid fleet operation (bad gateway index, no plan to arm, ...)."""


@dataclass
class FleetDeployment(EndBoxDeployment):
    """A built world with N gateways; superset of ``EndBoxDeployment``.

    The inherited ``server_host``/``server`` fields alias gateway 0, so
    every single-gateway experiment keeps working unchanged; fleet-aware
    code uses ``gateways``/``gateway_hosts``/``assignment`` instead.
    """

    #: the spec this world was built from (round-trips through JSON).
    spec: Optional[DeploymentSpec] = None
    #: gateway hosts, index-aligned with ``gateways``.
    gateway_hosts: List[Host] = field(default_factory=list)
    #: the VPN gateways; ``gateways[0] is server``.
    gateways: List[OpenVpnServer] = field(default_factory=list)
    #: per-gateway tunnel subnets (CIDR strings).
    tunnel_networks: List[str] = field(default_factory=list)
    #: the client→gateway balancer built from ``spec.balancer``.
    balancer: Optional[Balancer] = None
    #: current home gateway index per client (index-aligned with
    #: ``clients``); mutated by migrations.
    assignment: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Wire the fleet telemetry counters and the outage-tracking set."""
        registry = self.sim.telemetry
        self._tm_remaps = registry.counter("fleet.balancer.remaps")
        self._tm_migrations = registry.counter("fleet.balancer.migrations")
        #: gateway indices currently in an outage window (being drained).
        self.down_gateways: Set[int] = set()

    # ------------------------------------------------------------------
    # fleet introspection
    # ------------------------------------------------------------------
    @property
    def n_gateways(self) -> int:
        """Number of gateways in the fleet."""
        return len(self.gateways)

    # ------------------------------------------------------------------
    # fleet-wide configuration rollout
    # ------------------------------------------------------------------
    def announce_config(self, version: int, grace_period_s: float) -> None:
        """Announce a config version to *every* gateway, same instant.

        This is what makes the per-version grace deadlines (§III-E) hold
        fleet-wide: a stale client cannot dodge its deadline by
        migrating, because every gateway carries the identical deadline
        table.  The method signature matches
        ``OpenVpnServer.announce_config``, so a ``FleetDeployment``
        passes directly as the ``vpn_server`` argument of
        :meth:`~repro.core.config_update.ConfigPublisher.publish`.
        """
        for gateway in self.gateways:
            gateway.announce_config(version, grace_period_s)

    # ------------------------------------------------------------------
    # sealed-state client migration
    # ------------------------------------------------------------------
    def migrate_client(self, client_index: int, to_gateway: int) -> None:
        """Move a client to ``to_gateway`` via sealed-state resumption.

        The source gateway exports (and retires) the client's session
        record; the target adopts it so the client's config version —
        and with it the grace accounting — carries over.  EndBox clients
        go through the §III-C restart path: the enclave is destroyed, a
        fresh one is created from the same measured image on the same
        platform and the sealed credentials are unsealed (no new remote
        attestation).  The client then re-handshakes with the target via
        dead-peer detection.  Counted in ``fleet.balancer.migrations``.
        """
        if not 0 <= client_index < len(self.clients):
            raise FleetError(f"no client #{client_index} in this fleet")
        if not 0 <= to_gateway < self.n_gateways:
            raise FleetError(f"no gateway #{to_gateway} in this fleet")
        if self.assignment[client_index] == to_gateway:
            return
        from repro.core.provisioning import restore_client

        client = self.clients[client_index]
        source = self.gateways[self.assignment[client_index]]
        target = self.gateways[to_gateway]
        # sessions are keyed by the client's *physical* (pre-tunnel)
        # address — host.address would report the tunnel IP here
        outer_addr = self.client_hosts[client_index].stack.interfaces[0].address
        for record in source.export_sessions(outer_addr=outer_addr):
            target.resume_session(record)
        client.suspend()
        if self.setup.startswith("endbox"):
            platform = self.platforms[client_index]
            storage = self.storages[client_index]
            image = client.endbox.enclave.image
            mode = client.endbox.enclave.mode
            client.endbox.enclave.destroy()
            endbox = EndBoxEnclave.create(image, platform, mode=mode)
            restore_client(endbox, storage)
            client.rebuild_enclave(endbox)
        client.retarget(self.gateway_hosts[to_gateway].address)
        client.resume()
        self.assignment[client_index] = to_gateway
        self._tm_migrations.inc()

    # ------------------------------------------------------------------
    # outage draining (driven by faults.GatewayRestart)
    # ------------------------------------------------------------------
    def on_gateway_outage(self, gateway: int) -> None:
        """Drain a gateway about to restart: migrate its clients away.

        Each affected client is re-assigned through the balancer's
        fallback policy (the hash ring walks past the down gateway's
        arcs) and migrated with its session record; each re-assignment
        counts into ``fleet.balancer.remaps``.
        """
        if not 0 <= gateway < self.n_gateways:
            raise FleetError(f"no gateway #{gateway} in this fleet")
        self.down_gateways.add(gateway)
        if len(self.down_gateways) >= self.n_gateways:
            return  # nowhere to drain to; clients ride out the outage
        for client_index, assigned in enumerate(self.assignment):
            if assigned == gateway:
                fallback = self.balancer.fallback(
                    f"client-{client_index}", self.down_gateways
                )
                self._tm_remaps.inc()
                self.migrate_client(client_index, fallback)

    def on_gateway_restored(self, gateway: int) -> None:
        """Re-home clients onto a restarted gateway.

        Every client whose balancer pick is an up gateway other than its
        current assignment migrates back — this returns the fleet to the
        canonical (ring-derived) assignment after a rolling restart.
        """
        self.down_gateways.discard(gateway)
        for client_index in range(len(self.assignment)):
            home = self.balancer.pick(f"client-{client_index}")
            if home in self.down_gateways:
                continue
            if home != self.assignment[client_index]:
                self._tm_remaps.inc()
                self.migrate_client(client_index, home)

    # ------------------------------------------------------------------
    # fault-plan arming
    # ------------------------------------------------------------------
    def arm_faults(self, plan=None, registry=None):
        """Arm a fault plan (default: the spec's) against this world.

        Returns the armed :class:`~repro.faults.injector.FaultInjector`.
        Imported lazily to keep ``repro.fleet`` importable without
        ``repro.faults`` (mirrors ``run_chaos_rollout``).
        """
        from repro.faults import FaultInjector

        if plan is None:
            plan = self.spec.fault_plan if self.spec is not None else None
        if plan is None:
            raise FleetError("no fault plan: none passed and the spec embeds none")
        return FaultInjector.from_deployment(self, registry=registry).arm(plan)


def build_fleet(spec: DeploymentSpec, cost_model=None) -> FleetDeployment:
    """Build the full simulated world a spec describes (not yet connected).

    The construction order (host creation, attach order, DRBG draw
    order) is fixed, which is what keeps the same spec's worlds
    byte-identical.
    """
    if not isinstance(spec, DeploymentSpec):
        raise FleetError(f"build_fleet needs a DeploymentSpec, got {spec!r}")
    model = cost_model or default_cost_model()
    sim = Simulator()
    sim.telemetry.recording = spec.telemetry_recording
    topo = StarTopology(sim, network=MANAGED_NET)
    ias = IntelAttestationService()
    ca = CertificateAuthority(ias, seed=spec.seed_bytes + b"-ca")
    image = build_endbox_image(ca.public_key, model)
    ca.whitelist_measurement(image.measure())

    mode = ProtectionMode.ENCRYPT_AND_MAC
    if spec.scenario == "isp" and spec.isp_no_encryption:
        mode = ProtectionMode.MAC_ONLY

    # --- balancer + static assignment ----------------------------------
    balancer = make_balancer(spec.balancer, spec.gateways)
    assignment = [balancer.pick(f"client-{index}") for index in range(spec.clients)]

    # --- gateways -------------------------------------------------------
    drbg = HmacDrbg(spec.seed_bytes)
    single = spec.gateways == 1
    gateway_hosts: List[Host] = []
    gateways: List[OpenVpnServer] = []
    tunnel_networks: List[str] = []
    server_cls = EndBoxServer if spec.setup.startswith("endbox") else OpenVpnServer
    for g in range(spec.gateways):
        server_host = class_b_host(
            sim, "vpn-gw" if single else f"vpn-gw-{g}", forwarding=True
        )
        topo.attach(server_host)
        tunnel_net = TUNNEL_NET if single else f"10.8.{g}.0/24"
        server_key = X25519PrivateKey(drbg.generate(32))
        # every gateway shares the fleet's server identity name, so a
        # migrating client's certificate pinning keeps working
        server_cert = ca.issue_server_certificate("vpn-server", server_key.public_bytes)
        server_kwargs = dict(
            host=server_host,
            identity_key=server_key,
            certificate=server_cert,
            ca_public_key=ca.public_key,
            tunnel_network=tunnel_net,
            cost_model=model,
            protection_mode=mode,
            ping_interval=spec.ping_interval,
            charge_cpu=spec.charge_cpu,
            seed=b"vpn-server" if single else f"vpn-server-{g}".encode(),
        )
        if spec.setup == "openvpn_click":
            server = _ClickAttachedServer(use_case=spec.use_case, **server_kwargs)
            # two daemons per assigned client (OpenVPN + Click) contend
            # for this gateway's cores
            server.oversubscription = max(
                0.0, 2 * assignment.count(g) - server_host.cpu.effective_cores
            )
        else:
            server = server_cls(**server_kwargs)
        server.start()
        topo.route_subnet(tunnel_net, server_host)
        gateway_hosts.append(server_host)
        gateways.append(server)
        tunnel_networks.append(tunnel_net)

    # --- internal hosts --------------------------------------------------
    internal_hosts = []
    for index in range(spec.internal_hosts):
        internal = class_b_host(sim, f"internal-{index}")
        topo.attach(internal)
        if spec.protect_internal:
            _install_vpn_only_firewall(internal, tunnel_networks)
        internal_hosts.append(internal)

    # --- configuration file server ---------------------------------------
    publisher = ConfigPublisher(ca)
    config_server = None
    config_server_endpoint = None
    if spec.with_config_server:
        config_host = class_b_host(sim, "config-server")
        topo.attach(config_host)
        config_server = ConfigFileServer(config_host, cost_model=model)
        config_server.start()
        config_server_endpoint = (config_host.address, config_server.port)

    deployment = FleetDeployment(
        sim=sim,
        topo=topo,
        model=model,
        setup=spec.setup,
        use_case=spec.use_case,
        scenario=spec.scenario,
        ias=ias,
        ca=ca,
        server_host=gateway_hosts[0],
        server=gateways[0],
        config_server=config_server,
        publisher=publisher,
        internal_hosts=internal_hosts,
        connect_timeout_s=spec.connect_timeout_s,
        spec=spec,
        gateway_hosts=gateway_hosts,
        gateways=gateways,
        tunnel_networks=tunnel_networks,
        balancer=balancer,
        assignment=assignment,
    )

    # --- clients ---------------------------------------------------------
    client_config, rules = use_case_configs(spec.use_case, server_side=False)
    for index in range(spec.clients):
        host = class_a_host(sim, f"client-{index}")
        topo.attach(host, address=f"10.0.1.{index + 1}")
        deployment.client_hosts.append(host)
        home_addr = gateway_hosts[assignment[index]].address
        if spec.setup.startswith("endbox"):
            enclave_mode = (
                EnclaveMode.HARDWARE if spec.setup == "endbox_sgx" else EnclaveMode.SIMULATION
            )
            platform = SgxPlatform(ias, name=f"platform-{index}")
            endbox = EndBoxEnclave.create(image, platform, mode=enclave_mode)
            storage = SealedStorage(platform.platform_id)
            provision_client(endbox, platform, ca, storage)
            client = EndBoxClient(
                host=host,
                server_addr=home_addr,
                endbox=endbox,
                ca_public_key=ca.public_key,
                click_config=client_config,
                ruleset_text=rules,
                config_server=config_server_endpoint,
                single_ecall_optimization=spec.single_ecall_optimization,
                c2c_flagging=spec.c2c_flagging,
                ecall_batch_limit=spec.ecall_batch_limit,
                server_name="vpn-server",
                cost_model=model,
                protection_mode=mode,
                ping_interval=spec.ping_interval,
                charge_cpu=spec.charge_cpu,
                tunnel_routes=[MANAGED_NET],
            )
            deployment.enclaves.append(endbox)
            deployment.storages.append(storage)
            deployment.platforms.append(platform)
        else:
            key = X25519PrivateKey(drbg.child(f"client-{index}".encode()).generate(32))
            cert = ca.issue_server_certificate(f"vanilla-client-{index}", key.public_bytes)
            client = OpenVpnClient(
                host=host,
                server_addr=home_addr,
                identity_key=key,
                certificate=cert,
                ca_public_key=ca.public_key,
                server_name="vpn-server",
                cost_model=model,
                protection_mode=mode,
                ping_interval=spec.ping_interval,
                charge_cpu=spec.charge_cpu,
                tunnel_routes=[MANAGED_NET],
            )
        deployment.clients.append(client)

    if spec.protect_internal:
        _install_switch_acl(topo, deployment)
    return deployment


def _install_switch_acl(topo: StarTopology, deployment: FleetDeployment) -> None:
    """The managed network's static firewall (§V-A, bypass defence).

    Traffic entering the switch from a *client* port may only reach a
    VPN gateway or the (public) configuration server — everything else,
    including spoofed tunnel sources, is dropped in the fabric.
    """
    switch = topo.switch
    client_ports = set()
    for host in deployment.client_hosts:
        nic = host.stack.interfaces[0]
        client_ports.add(id(switch._host_routes[nic.address]))
    allowed_ports = set()
    for gateway_host in deployment.gateway_hosts:
        allowed_ports.add(id(switch._host_routes[gateway_host.stack.interfaces[0].address]))
    if deployment.config_server is not None:
        config_nic = deployment.config_server.host.stack.interfaces[0]
        allowed_ports.add(id(switch._host_routes[config_nic.address]))

    def vpn_only_acl(frame: bytes, ingress, egress) -> bool:
        if ingress is None or id(ingress) not in client_ports:
            return True
        return id(egress) in allowed_ports

    switch.acls.append(vpn_only_acl)


def _install_vpn_only_firewall(host: Host, tunnel_networks: List[str]) -> None:
    """The managed network's static firewall: only tunnel traffic enters.

    Internal hosts accept packets whose source is inside one of the
    fleet's VPN subnets (decrypted by a gateway) or the infrastructure
    subnet used by servers themselves; anything else — e.g. a client
    trying to bypass its middlebox by sending directly — is dropped
    (§V-A).
    """
    tunnels = [IPv4Network(net) for net in tunnel_networks]
    infra = IPv4Network("10.0.0.0/24")

    def firewall(packet):
        if packet.src in infra or any(packet.src in tunnel for tunnel in tunnels):
            return packet
        return None

    host.stack.ingress_hooks.append(firewall)


class _ClickAttachedServer(OpenVpnServer):
    """OpenVPN+Click: one server-side Click instance per session."""

    def __init__(self, *args, use_case: str = "NOP", **kwargs) -> None:
        self._use_case = use_case
        super().__init__(*args, **kwargs)
        config, rules = use_case_configs(use_case, server_side=True)
        self._click_config = config
        self._ruleset = (
            parse_rules(rules, variables={"HOME_NET": "10.0.0.0/8", "EXTERNAL_NET": "any"})
            if rules
            else []
        )

    def on_session_created(self, session) -> None:
        """Attach a fresh Click router (with its cost ledger) to the session."""
        ledger = CostLedger()
        context = {
            "ruleset": self._ruleset,
            "clock": lambda: self.sim.now,
            "oversubscription": self.oversubscription,
        }
        router = Router(self._click_config, self.model, ledger, context)
        session.middlebox = (router, ledger)

    def session_packet_hook(self, session, packet, inbound: bool):
        """Drop packets while a vanilla hot-swap has the path down."""
        if self.sim.now < getattr(self, "_swap_until", 0.0):
            # vanilla Click hot-swap in progress: the packet path is down
            return False, packet, self.model.vpn_server_fixed
        return super().session_packet_hook(session, packet, inbound)

    def reconfigure(self, new_config: str) -> float:
        """Hot-swap every per-session Click instance (vanilla mechanism).

        Returns the simulated swap duration; packets arriving within it
        are dropped (Fig 11 / Table II's vanilla baseline, including the
        FromDevice/ToDevice file-descriptor setup EndBox avoids).
        """
        swap_s = (
            self.model.click_hotswap_fixed
            + len(new_config) * self.model.click_parse_per_byte
            + self.model.click_device_setup
        )
        self._click_config = new_config
        for session in self.sessions_by_peer.values():
            if session.middlebox is not None:
                router, ledger = session.middlebox
                new_router = Router(
                    new_config, self.model, ledger, dict(router.context)
                )
                for name, element in new_router.elements.items():
                    old = router.elements.get(name)
                    if old is not None and type(old) is type(element):
                        element.take_state(old)
                session.middlebox = (new_router, ledger)
        self._swap_until = self.sim.now + swap_s
        return swap_s
