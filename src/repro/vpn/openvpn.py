"""OpenVPN-like client and server daemons over the simulated network.

The client owns a TUN device: packets the host routes into the tunnel
are read, protected on the data channel, fragmented to the MTU and sent
as UDP datagrams; inbound datagrams take the reverse path.  The server
terminates many sessions, enforces certificate-based admission, replay
windows and (for EndBox) configuration-version policy, and routes inner
packets via its host stack — including hairpin client-to-client
forwarding.

Threading model: OpenVPN is single-threaded, and the paper runs *one
server process per client*.  Each client has one worker process doing
all per-packet work, and the server has one worker per session; workers
charge calibrated CPU costs (``repro.vpn.costing``) against their host's
core pool, which is how throughput saturation, CPU-usage curves and
multi-process contention emerge.  The socket and TUN dispatch steps in
front of the workers are handlers the devices call inline on delivery
(``UdpSocket.listen`` / ``TunDevice.listen``); they only demultiplex.

Subclass hooks (used by EndBox in :mod:`repro.core`):

* ``process_egress(packets)`` / ``process_ingress(packets)`` on the
  client take a burst and return ``([(accept, packet)], cpu_seconds)``;
  the worker forms bursts of at most ``ecall_batch_limit`` packets (1,
  one packet per call, unless EndBox raises it),
* ``session_packet_hook(session, packet, inbound)`` on the server allows
  per-session middlebox attachment (the OpenVPN+Click baseline),
* ``admit_session(cert, version)`` / ``data_policy(session)`` on the
  server implement admission and grace-period enforcement (§III-E).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.costs.model import CostModel, default_cost_model
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import hmac_sha256, hmac_verify
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.x25519 import X25519PrivateKey
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.host import Host
from repro.netsim.packet import IPv4Packet, parse_ipv4
from repro.netsim.tun import TunDevice
from repro.sim import FifoStore
from repro.vpn.channel import ChannelError, DataChannel, ProtectionMode
from repro.vpn.costing import (
    client_egress_cost,
    client_ingress_completion_cost,
    ingress_fragment_cost,
    server_click_attach_cost,
    server_completion_cost,
    server_egress_cost,
)
from repro.vpn.fragment import Fragmenter, Reassembler
from repro.vpn.handshake import (
    Certificate,
    ClientKeyExchange,
    HandshakeError,
    ServerKeyExchange,
    SessionSecrets,
)
from repro.vpn.management import ManagementInterface
from repro.vpn.ping import PingError, PingMessage
from repro.telemetry.registry import Registry
from repro.vpn.protocol import (
    OP_CONTROL_HELLO,
    OP_CONTROL_REPLY,
    OP_DATA,
    OP_PING,
    OP_REJECT,
    ProtocolError,
    VpnPacket,
    new_data_packet,
)
from repro.vpn.replay import ReplayWindow

OP_SESSION_CONFIG = 6

VPN_PORT = 1194


class VpnError(RuntimeError):
    """Connection-level VPN failure."""


class VpnSession:
    """Server-side state for one connected client."""

    def __init__(
        self,
        server: "OpenVpnServer",
        session_id: int,
        secrets: SessionSecrets,
        certificate: Certificate,
        outer_addr: IPv4Address,
        outer_port: int,
        tunnel_ip: IPv4Address,
        mode: ProtectionMode,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.secrets = secrets
        self.certificate = certificate
        self.outer_addr = outer_addr
        self.outer_port = outer_port
        self.tunnel_ip = tunnel_ip
        self.rx_channel = DataChannel(secrets.client_cipher, secrets.client_hmac, mode)
        self.tx_channel = DataChannel(secrets.server_cipher, secrets.server_hmac, mode)
        self.replay = ReplayWindow()
        self.reassembler = Reassembler()
        self.fragmenter = Fragmenter()
        self.established = False
        self.client_version = 0
        self.last_ping_time = 0.0
        self.next_packet_id = 1
        self.inner_bytes_in = 0  # decrypted payload bytes from the client
        self.inner_bytes_out = 0
        self.packets_dropped_policy = 0
        #: (router, ledger) of an attached Click (OpenVPN+Click baseline)
        self.middlebox = None
        #: the per-session "OpenVPN process" work queue
        self.inbox = FifoStore(server.sim, name=f"session-{session_id}.inbox")
        self.worker = server.sim.process(server._session_worker(self), name=f"session-{session_id}")

    def take_packet_id(self) -> int:
        """Allocate the next data-channel packet id."""
        packet_id = self.next_packet_id
        self.next_packet_id += 1
        return packet_id


class OpenVpnServer:
    """The VPN concentrator at the edge of the managed network."""

    def __init__(
        self,
        host: Host,
        identity_key: X25519PrivateKey,
        certificate: Certificate,
        ca_public_key: RsaPublicKey,
        tunnel_network: str = "10.8.0.0/24",
        port: int = VPN_PORT,
        cost_model: Optional[CostModel] = None,
        protection_mode: ProtectionMode = ProtectionMode.ENCRYPT_AND_MAC,
        ping_interval: float = 1.0,
        charge_cpu: bool = True,
        seed: bytes = b"vpn-server",
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.identity_key = identity_key
        self.certificate = certificate
        self.ca_public_key = ca_public_key
        self.port = port
        self.model = cost_model or default_cost_model()
        self.mode = protection_mode
        self.ping_interval = ping_interval
        self.charge_cpu = charge_cpu
        self._drbg = HmacDrbg(seed)
        self.tunnel_network = IPv4Network(tunnel_network)
        self._next_host_index = 2  # .1 is the server's tunnel address
        self.server_tunnel_ip = self.tunnel_network.host(1)
        self.tun: Optional[TunDevice] = None
        self.sock = None
        self.sessions_by_peer: Dict[Tuple[IPv4Address, int], VpnSession] = {}
        self.sessions_by_tunnel_ip: Dict[IPv4Address, VpnSession] = {}
        self._next_session = 1
        _registry = Registry.current()
        self._tm_ctrl_packets = _registry.counter("vpn.control.packets_sent")
        self._tm_ctrl_bytes = _registry.counter("vpn.control.bytes_sent")
        self._tm_sessions_resumed = _registry.counter("fleet.gateway.sessions_resumed")
        self._tm_stale_rejected = _registry.counter("fleet.gateway.stale_rejected")
        #: exported session records awaiting adoption (fleet migration),
        #: keyed by the client certificate subject; consumed at the
        #: migrated client's next handshake
        self._resumed_sessions: Dict[str, dict] = {}
        self.sessions_resumed = 0
        # EndBox configuration enforcement state (§III-E)
        self.current_config_version = 1
        self.grace_deadline: Optional[float] = None
        self.grace_period_s = 0.0
        #: per-announcement grace deadlines: announced version -> absolute
        #: deadline.  A client stuck below version v is bound by the
        #: *earliest* deadline among announcements newer than its version,
        #: so a later rollout can never re-admit a client whose earlier
        #: grace already expired.
        self._grace_deadlines: Dict[int, float] = {}
        #: tripwire for chaos experiments: data packets admitted from a
        #: client whose applicable grace deadline had already passed
        #: (must stay zero; see run_chaos_rollout)
        self.stale_admitted_after_grace = 0
        #: fault-injection state: a "restarted" server loses its session
        #: tables and ignores traffic while down
        self.down = False
        self.restarts = 0
        self.packets_dropped_down = 0
        #: oversubscription input for the OpenVPN+Click hand-off penalty:
        #: runnable daemon processes beyond the effective core count
        self.oversubscription = 0.0
        self.packets_rejected = 0
        self.handshakes_completed = 0
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the component's simulation processes."""
        if self._running:
            raise VpnError("server already started")
        self._running = True
        if self.tun is None:
            self.tun = self.host.add_tun(
                self.server_tunnel_ip, self.tunnel_network, name=f"{self.host.name}.tun0"
            )
        self.sock = self.host.stack.udp_socket(self.port)
        self.sock.listen(self._rx_dispatch)
        self.tun.listen(self._tx_dispatch)
        self.sim.process(self._ping_loop(), name="vpn-server-ping")

    def _charge(self, seconds: float):
        if self.charge_cpu and seconds > 0:
            yield self.host.run(seconds)

    # ------------------------------------------------------------------
    # admission & policy hooks
    # ------------------------------------------------------------------
    def admit_session(self, certificate: Certificate, client_version: int) -> bool:
        """Admission control; EndBox adds attestation/version gating."""
        return True

    def grace_deadline_for(self, client_version: int) -> Optional[float]:
        """Effective grace deadline for a client stuck on ``client_version``.

        The client is bound by every announcement newer than its version,
        so the *minimum* of those deadlines applies; ``None`` means the
        client is current (or no grace was ever announced) and is always
        admitted.
        """
        earliest: Optional[float] = None
        for version, deadline in self._grace_deadlines.items():
            if version > client_version and (earliest is None or deadline < earliest):
                earliest = deadline
        return earliest

    def data_policy(self, session: VpnSession) -> bool:
        """Per-packet policy: enforce the configuration grace period."""
        if session.client_version >= self.current_config_version:
            return True
        deadline = self.grace_deadline_for(session.client_version)
        if deadline is None or self.sim.now < deadline:
            return True
        return False

    def session_packet_hook(
        self, session: VpnSession, packet: IPv4Packet, inbound: bool
    ) -> Tuple[bool, IPv4Packet, float]:
        """Optional per-session middlebox (the OpenVPN+Click baseline)."""
        if session.middlebox is None:
            return True, packet, 0.0
        router, ledger = session.middlebox
        accepted, packet = router.process(packet)
        cost = ledger.drain() + server_click_attach_cost(
            self.model, len(packet), self.oversubscription
        )
        return accepted, packet, cost

    def announce_config(self, version: int, grace_period_s: float) -> None:
        """Management entry point for the administrator (Fig 5, step 2).

        Each announcement starts its *own* grace clock; it never extends
        the clock of a previous rollout.  ``grace_deadline`` keeps the
        latest announcement's deadline for observability, but admission
        decisions use :meth:`grace_deadline_for`.
        """
        if version <= self.current_config_version:
            raise VpnError(
                f"config versions must increase (current {self.current_config_version}, got {version})"
            )
        self.current_config_version = version
        self.grace_period_s = grace_period_s
        self.grace_deadline = self.sim.now + grace_period_s
        self._grace_deadlines[version] = self.grace_deadline

    # ------------------------------------------------------------------
    # fault injection: crash-restart with session-table loss
    # ------------------------------------------------------------------
    def begin_outage(self) -> None:
        """Crash the server process: sessions are lost, traffic ignored.

        Models a VPN-concentrator restart (repro.faults ServerRestart):
        per-session workers are killed and both session tables cleared —
        clients recover through dead-peer detection.  Configuration
        state (version, grace deadlines) is management-plane state and
        survives, as it would in a config store.
        """
        if self.down:
            return
        self.down = True
        for session in list(self.sessions_by_peer.values()):
            session.worker.interrupt("server restart")
        self.sessions_by_peer.clear()
        self.sessions_by_tunnel_ip.clear()

    def end_outage(self) -> None:
        """Bring the restarted server back up (empty session tables)."""
        if not self.down:
            return
        self.down = False
        self.restarts += 1

    # ------------------------------------------------------------------
    # fleet migration: session export / resumption
    # ------------------------------------------------------------------
    def export_session(self, session: VpnSession) -> dict:
        """Retire *session* and return its plain-data migration record.

        The per-session worker is killed and both lookup tables drop the
        session — the gateway will not accept further traffic for it.
        The record carries only management-plane state (certificate
        subject, config version, establishment flag): channel keys are
        deliberately *not* exported, because the migrated client
        re-handshakes with the target gateway and derives fresh secrets.
        """
        session.worker.interrupt("migrated")
        self.sessions_by_peer.pop((session.outer_addr, session.outer_port), None)
        self.sessions_by_tunnel_ip.pop(session.tunnel_ip, None)
        return {
            "subject": session.certificate.subject,
            "client_version": session.client_version,
            "established": session.established,
        }

    def export_sessions(self, outer_addr=None) -> List[dict]:
        """Export (and retire) sessions, oldest first.

        With ``outer_addr`` only that peer address's sessions are
        exported — the form fleet migration uses to move one client.
        """
        if outer_addr is not None:
            outer_addr = IPv4Address(outer_addr)
        records = []
        for session in sorted(
            self.sessions_by_peer.values(), key=lambda s: s.session_id
        ):
            if outer_addr is not None and session.outer_addr != outer_addr:
                continue
            records.append(self.export_session(session))
        return records

    def resume_session(self, record: dict) -> None:
        """Accept a migrated client's exported record.

        The record is adopted at the client's next handshake: its config
        version carries over (so the fleet-wide grace accounting never
        resets mid-migration) and the adoption is counted into
        ``fleet.gateway.sessions_resumed``.
        """
        self._resumed_sessions[str(record["subject"])] = dict(record)

    # ------------------------------------------------------------------
    # dispatch handlers (cheap demux; CPU work happens in session workers),
    # called inline by the socket and the TUN device on delivery
    # ------------------------------------------------------------------
    def _rx_dispatch(self, payload: bytes, src: IPv4Address, src_port: int, _packet) -> None:
        if self.down:
            self.packets_dropped_down += 1
            return
        try:
            packet = VpnPacket.parse(payload)
        except ProtocolError:
            return
        if packet.opcode == OP_CONTROL_HELLO:
            self.sim.process(self._handle_hello(packet, src, src_port))
            return
        session = self.sessions_by_peer.get((src, src_port))
        if session is None:
            self.packets_rejected += 1
            return
        session.inbox.put(("rx", packet))

    def _tx_dispatch(self, inner: IPv4Packet) -> None:
        if self.down:
            self.packets_dropped_down += 1
            return
        session = self.sessions_by_tunnel_ip.get(inner.dst)
        if session is None or not session.established:
            return
        session.inbox.put(("tx", inner))

    def _ping_loop(self):
        while True:
            yield self.sim.timeout(self.ping_interval)
            if self.down:
                continue
            for session in list(self.sessions_by_peer.values()):
                if session.established:
                    self._send_ping(session)

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------
    def _handle_hello(self, packet: VpnPacket, src: IPv4Address, src_port: int):
        yield from self._charge(self.model.asymmetric_op)
        exchange = ServerKeyExchange(self.identity_key, self.certificate, self.ca_public_key, self._drbg)
        try:
            reply, secrets, client_cert, client_version = exchange.process_hello(packet.body)
        except HandshakeError:
            self.packets_rejected += 1
            return
        if not self.admit_session(client_cert, client_version):
            self.packets_rejected += 1
            self.sock.sendto(
                VpnPacket(OP_REJECT, 0, 0, b"admission denied").serialize(), src, src_port
            )
            return
        existing = self.sessions_by_peer.get((src, src_port))
        if existing is not None:
            existing.worker.interrupt("superseded")
            self.sessions_by_tunnel_ip.pop(existing.tunnel_ip, None)
            tunnel_ip = existing.tunnel_ip
        else:
            tunnel_ip = self.tunnel_network.host(self._next_host_index)
            self._next_host_index += 1
        session = VpnSession(
            server=self,
            session_id=self._next_session,
            secrets=secrets,
            certificate=client_cert,
            outer_addr=src,
            outer_port=src_port,
            tunnel_ip=tunnel_ip,
            mode=self.mode,
        )
        self._next_session += 1
        session.client_version = client_version
        record = self._resumed_sessions.pop(client_cert.subject, None)
        if record is not None:
            # a migrated client resumes: its exported config version
            # carries over so grace accounting stays continuous even if
            # the client restarted at version 1 on the way here
            session.client_version = max(client_version, int(record["client_version"]))
            self.sessions_resumed += 1
            self._tm_sessions_resumed.inc()
        self.sessions_by_peer[(src, src_port)] = session
        self.sessions_by_tunnel_ip[tunnel_ip] = session
        self.handshakes_completed += 1
        self.on_session_created(session)
        wire = VpnPacket(OP_CONTROL_REPLY, session.session_id, 0, reply).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self.sock.sendto(wire, src, src_port)

    def on_session_created(self, session: VpnSession) -> None:
        """Hook: subclasses attach middleboxes / record state here."""

    # ------------------------------------------------------------------
    # per-session worker ("one OpenVPN process per client")
    # ------------------------------------------------------------------
    def _session_worker(self, session: VpnSession):
        while True:
            kind, item = yield session.inbox.get()
            if kind == "rx":
                yield from self._session_rx(session, item)
            else:
                yield from self._session_tx(session, item)

    def _session_rx(self, session: VpnSession, packet: VpnPacket):
        if packet.opcode == OP_PING:
            yield from self._session_ping(session, packet)
            return
        if packet.opcode != OP_DATA:
            return
        if not session.established:
            self.packets_rejected += 1
            return
        if not session.replay.check_and_update(packet.packet_id):
            self.packets_rejected += 1
            return
        try:
            plaintext = session.rx_channel.unprotect(packet)
        except ChannelError:
            self.packets_rejected += 1
            return
        # per-datagram work: socket recv, copy, verify+decrypt
        yield from self._charge(ingress_fragment_cost(self.model, len(plaintext), self.mode))
        inner_bytes = session.reassembler.add(
            packet.session_id, packet.frag_id, packet.frag_index, packet.frag_count, plaintext
        )
        if inner_bytes is None:
            return
        try:
            inner = parse_ipv4(inner_bytes)
        except ValueError:
            self.packets_rejected += 1
            return
        if not self.data_policy(session):
            session.packets_dropped_policy += 1
            self.packets_rejected += 1
            self._tm_stale_rejected.inc()
            yield from self._charge(self.model.vpn_server_fixed)
            return
        deadline = self.grace_deadline_for(session.client_version)
        if deadline is not None and self.sim.now >= deadline:
            # tripwire: a (possibly overridden) data_policy admitted a
            # stale client past its grace deadline — chaos experiments
            # assert this stays zero
            self.stale_admitted_after_grace += 1
        accepted, inner, middlebox_cost = self.session_packet_hook(session, inner, inbound=True)
        yield from self._charge(
            server_completion_cost(self.model, len(inner_bytes)) + middlebox_cost
        )
        if not accepted:
            return
        session.inner_bytes_in += len(inner_bytes)
        self.deliver_inner(session, inner)

    def deliver_inner(self, session: VpnSession, inner: IPv4Packet) -> None:
        """Route a decrypted inner packet into the managed network."""
        self.host.stack.inject(inner, self.tun)

    def _session_tx(self, session: VpnSession, inner: IPv4Packet):
        accepted, inner, middlebox_cost = self.session_packet_hook(session, inner, inbound=False)
        inner_bytes = inner.serialize()
        yield from self._charge(
            server_egress_cost(self.model, len(inner_bytes), self.mode) + middlebox_cost
        )
        if not accepted:
            return
        session.inner_bytes_out += len(inner_bytes)
        self._send_data(session, inner_bytes)

    def _session_ping(self, session: VpnSession, packet: VpnPacket):
        try:
            ping = PingMessage.parse(packet.body, session.secrets.client_hmac)
        except PingError:
            self.packets_rejected += 1
            return
        yield from self._charge(self.model.vpn_server_fixed)
        session.client_version = max(session.client_version, ping.config_version)
        session.last_ping_time = self.sim.now
        if not session.established:
            session.established = True
            self._send_session_config(session)
            self.on_session_established(session)
        self._send_ping(session)

    def on_session_established(self, session: VpnSession) -> None:
        """Hook: called once the client confirmed the handshake."""

    # ------------------------------------------------------------------
    # sending helpers
    # ------------------------------------------------------------------
    def _send_session_config(self, session: VpnSession) -> None:
        body = json.dumps(
            {  # endbox-lint: hotpath(HP702) one config body per session establishment, control channel
                "tunnel_ip": str(session.tunnel_ip),
                "server_tunnel_ip": str(self.server_tunnel_ip),
                "subnet": str(self.tunnel_network),
                "config_version": self.current_config_version,
            }
        ).encode()
        tag = hmac_sha256(session.secrets.server_hmac, b"session-config", body)[:16]
        wire = VpnPacket(  # endbox-lint: hotpath(HP702) one packet per session establishment, control channel
            OP_SESSION_CONFIG, session.session_id, 0, body + tag
        ).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self.sock.sendto(wire, session.outer_addr, session.outer_port)

    def _send_ping(self, session: VpnSession) -> None:
        ping = PingMessage(  # endbox-lint: hotpath(HP702) one announcement per keepalive interval, not per packet
            config_version=self.current_config_version,
            grace_period_s=self.grace_period_s,
            timestamp_ns=int(self.sim.now * 1e9),
        )
        wire = VpnPacket(  # endbox-lint: hotpath(HP702) one packet per keepalive interval, control channel
            OP_PING, session.session_id, 0, ping.serialize(session.secrets.server_hmac)
        ).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self.sock.sendto(wire, session.outer_addr, session.outer_port)

    def _send_data(self, session: VpnSession, inner_bytes: bytes) -> None:
        frag_id, pieces = session.fragmenter.split(inner_bytes)
        count = len(pieces)
        protect = session.tx_channel.protect
        sendto = self.sock.sendto
        for index, piece in enumerate(pieces):
            packet = new_data_packet(
                session.session_id, session.take_packet_id(), frag_id, index, count
            )
            protect(packet, piece)
            wire = packet.serialize()
            sendto(wire, session.outer_addr, session.outer_port)


class OpenVpnClient:
    """The vanilla VPN client (one per client machine)."""

    #: most same-kind work items :meth:`_worker` hands to one handler
    #: call; the vanilla client always takes them one at a time
    ecall_batch_limit = 1

    def __init__(
        self,
        host: Host,
        server_addr: IPv4Address,
        identity_key: X25519PrivateKey,
        certificate: Certificate,
        ca_public_key: RsaPublicKey,
        server_port: int = VPN_PORT,
        server_name: str = "",
        cost_model: Optional[CostModel] = None,
        protection_mode: ProtectionMode = ProtectionMode.ENCRYPT_AND_MAC,
        ping_interval: float = 1.0,
        charge_cpu: bool = True,
        config_version: int = 1,
        tunnel_routes: Optional[List[str]] = None,
        seed: bytes = b"vpn-client",
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.server_addr = IPv4Address(server_addr)
        self.server_port = server_port
        self.server_name = server_name
        self.identity_key = identity_key
        self.certificate = certificate
        self.ca_public_key = ca_public_key
        self.model = cost_model or default_cost_model()
        self.mode = protection_mode
        self.ping_interval = ping_interval
        self.charge_cpu = charge_cpu
        self.config_version = config_version
        self.tunnel_routes = list(tunnel_routes or [])
        self._drbg = HmacDrbg(seed + host.name.encode())
        self.management = ManagementInterface(self.sim, self.model, host)
        self.tun: Optional[TunDevice] = None
        self.tunnel_ip: Optional[IPv4Address] = None
        self.sock = None
        self.session_id = 0
        self.tx_channel: Optional[DataChannel] = None
        self.rx_channel: Optional[DataChannel] = None
        self.secrets: Optional[SessionSecrets] = None
        self.replay = ReplayWindow()
        self.reassembler = Reassembler()
        self.fragmenter = Fragmenter()
        self._next_packet_id = 1
        self._control_inbox = FifoStore(self.sim, name=f"{host.name}.vpn-control")
        _registry = Registry.current()
        self._tm_ctrl_packets = _registry.counter("vpn.control.packets_sent")
        self._tm_ctrl_bytes = _registry.counter("vpn.control.bytes_sent")
        self._work_inbox = FifoStore(self.sim, name=f"{host.name}.vpn-work")
        self.connected_event = self.sim.event("vpn-connected")
        self.inner_bytes_sent = 0
        self.inner_bytes_received = 0
        self.packets_rejected = 0
        self.pings_received = 0
        #: monotone data-channel generation: bumped each time a key
        #: exchange installs fresh channels; queued work items tagged
        #: with an older epoch are dropped deliberately instead of being
        #: fed to the new replay window/keys
        self.channel_epoch = 0
        self.packets_dropped_stale = 0
        #: fault-injection state: a "crashed" client stops reading its
        #: sockets/TUN and skips keepalive/DPD until resumed
        self.suspended = False
        self.crashes = 0
        self.on_server_announcement: Optional[Callable[[PingMessage], None]] = None
        self._started = False
        # dead-peer detection (OpenVPN's keepalive/ping-restart behaviour)
        self.dpd_timeout: float = 6.0 * ping_interval
        self.last_server_rx: float = 0.0
        self.reconnects = 0
        self._reconnecting = False
        #: the physical (pre-tunnel) route toward the server, kept so a
        #: fleet migration can pin a host route for a *new* gateway
        self._physical_route = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin connecting; processes run until the simulation ends."""
        if self._started:
            raise VpnError("client already started")
        self._started = True
        self.sock = self.host.stack.udp_socket()
        self.sock.listen(self._rx_dispatch)
        self.sim.process(self._connect_loop(), name=f"{self.host.name}.vpn-connect")

    def _charge(self, seconds: float):
        if self.charge_cpu and seconds > 0:
            yield self.host.run(seconds)

    # ------------------------------------------------------------------
    # dispatch: one socket handler feeding control + worker queues
    # ------------------------------------------------------------------
    def _rx_dispatch(self, payload: bytes, _src, _port, _packet) -> None:
        if self.suspended:
            return
        try:
            packet = VpnPacket.parse(payload)
        except ProtocolError:
            return
        self.last_server_rx = self.sim.now
        if packet.opcode in (OP_CONTROL_REPLY, OP_REJECT, OP_SESSION_CONFIG):
            self._control_inbox.put(packet)
        elif packet.opcode in (OP_DATA, OP_PING):
            self._work_inbox.put(("rx", packet, self.channel_epoch))

    def _await_control(self, opcodes, timeout: float):
        """Event-driven wait for a control packet, raced against a timeout.

        Blocks on the control :class:`FifoStore` instead of polling it,
        so a long outage costs two events per wait rather than one every
        5 ms (which used to flood the event queue and distort
        event-count telemetry).  A getter that loses the race is
        withdrawn via :meth:`FifoStore.cancel_get` so it cannot swallow
        a later control packet.
        """
        deadline = self.sim.now + timeout
        while True:
            packet = self._control_inbox.try_get()
            while packet is not None:
                if packet.opcode in opcodes:
                    return packet
                packet = self._control_inbox.try_get()  # discard stale
            remaining = deadline - self.sim.now
            if remaining <= 0:
                return None
            get_event = self._control_inbox.get()
            yield self.sim.any_of([get_event, self.sim.timeout(remaining)])
            if not get_event.triggered:
                self._control_inbox.cancel_get(get_event)
                return None
            packet = get_event.value
            if packet.opcode in opcodes:
                return packet
            # stale control message: discard and keep waiting

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def _do_key_exchange(self, attempt_label: bytes):
        """Process generator: run the control-channel handshake.

        On success, installs fresh secrets/channels/windows and returns
        the authenticated session-config dict; raises VpnError otherwise.
        """
        exchange = ClientKeyExchange(
            self.identity_key,
            self.certificate,
            self.ca_public_key,
            self._drbg.child(b"handshake-" + attempt_label),
            server_name=self.server_name,
        )
        hello = exchange.hello(self.config_version)
        reply = None
        for _attempt in range(10):
            yield from self._charge(self.model.asymmetric_op)
            wire = VpnPacket(OP_CONTROL_HELLO, 0, 0, hello).serialize()
            self._tm_ctrl_packets.inc()
            self._tm_ctrl_bytes.inc(len(wire))
            self.sock.sendto(wire, self.server_addr, self.server_port)
            reply = yield from self._await_control((OP_CONTROL_REPLY, OP_REJECT), timeout=1.0)
            if reply is not None:
                break
        if reply is None:
            raise VpnError("handshake timed out")
        if reply.opcode == OP_REJECT:
            raise VpnError(f"server rejected session: {reply.body.decode()}")
        try:
            exchange.process_reply(reply.body)
        except HandshakeError as exc:
            raise VpnError(str(exc)) from exc
        self.secrets = exchange.secrets
        self.session_id = reply.session_id
        self.tx_channel = DataChannel(self.secrets.client_cipher, self.secrets.client_hmac, self.mode)
        self.rx_channel = DataChannel(self.secrets.server_cipher, self.secrets.server_hmac, self.mode)
        self.replay = ReplayWindow()
        self.reassembler = Reassembler()
        self._next_packet_id = 1
        # any data packet still queued for the worker belongs to the
        # previous keys/window; bump the epoch so it is dropped (and
        # counted) instead of polluting the fresh replay window
        self.channel_epoch += 1
        # the key-confirmation ping doubles as the client Finished message
        self._send_ping()
        config = yield from self._await_control((OP_SESSION_CONFIG,), timeout=2.0)
        if config is None:
            raise VpnError("no session config received")
        body, tag = config.body[:-16], config.body[-16:]
        if not hmac_verify(self.secrets.server_hmac, b"session-config", body, tag):
            raise VpnError("session config failed authentication")
        return json.loads(body.decode())

    def _connect_loop(self):
        try:
            settings = yield from self._do_key_exchange(b"initial")
        except VpnError as exc:
            self.connected_event.fail(exc)
            return
        self.tunnel_ip = IPv4Address(settings["tunnel_ip"])
        subnet = IPv4Network(settings["subnet"])
        # Pin a host route for the VPN server itself before any tunnel
        # routes shadow the LAN (otherwise outer datagrams would loop
        # into the tunnel) — what OpenVPN's redirect-gateway does.
        physical = self.host.stack.route_for(self.server_addr)
        self._physical_route = physical
        self.tun = self.host.add_tun(self.tunnel_ip, subnet, name=f"{self.host.name}.tun0")
        if physical is not None:
            self.host.stack.add_route(f"{self.server_addr}/32", physical)
        for route in self.tunnel_routes:
            self.host.stack.add_route(route, self.tun)
        self.host.stack.set_preferred_source(self.tunnel_ip)
        self.on_connected(settings)
        self.last_server_rx = self.sim.now
        self.tun.listen(self._tun_dispatch)
        self.sim.process(self._worker(), name=f"{self.host.name}.vpn-worker")
        self.sim.process(self._ping_loop(), name=f"{self.host.name}.vpn-ping")
        self.sim.process(self._dpd_loop(), name=f"{self.host.name}.vpn-dpd")
        self.connected_event.succeed(self)

    # ------------------------------------------------------------------
    # dead-peer detection (keepalive/ping-restart)
    # ------------------------------------------------------------------
    def _dpd_loop(self):
        """Re-handshake when the server has been silent too long."""
        while True:
            yield self.sim.timeout(self.ping_interval)
            if self.suspended:
                continue
            silent_for = self.sim.now - self.last_server_rx
            if silent_for < self.dpd_timeout or self._reconnecting:
                continue
            self._reconnecting = True
            self.reconnects += 1
            try:
                settings = yield from self._do_key_exchange(
                    b"reconnect-%d" % self.reconnects
                )
            except VpnError as exc:
                self.on_reconnect_failed(exc)
                continue  # retry at the next DPD tick
            finally:
                self._reconnecting = False
            new_ip = IPv4Address(settings["tunnel_ip"])
            if new_ip != self.tunnel_ip and self.tun is not None:
                # same peer endpoint normally keeps its address; if the
                # server handed out a new one, re-home the TUN device
                self.tunnel_ip = new_ip
                self.tun.address = new_ip
                self.host.stack.set_preferred_source(new_ip)
            self.last_server_rx = self.sim.now
            self.on_reconnected(settings)

    def on_reconnected(self, settings: dict) -> None:
        """Hook: called after a successful DPD-triggered re-handshake."""

    def on_reconnect_failed(self, exc: VpnError) -> None:
        """Hook: a DPD re-handshake attempt failed (will retry later).

        EndBox uses this to recover from post-grace lockout: a rejected
        client fetches the latest configuration out-of-band and retries
        with a current version number.
        """

    def on_connected(self, settings: dict) -> None:
        """Hook: subclasses install extra routes / state."""

    # ------------------------------------------------------------------
    # fault injection: crash / restart of the client process
    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """Crash the client process: stop reading sockets, TUN and DPD.

        Used by repro.faults ClientCrash.  The VPN socket is closed —
        a dead process releases its port, so the server's keepalives to
        the old session fall on the floor instead of counting as
        liveness after restart.  Already-queued work items drain (they
        model packets in kernel buffers); no new I/O is accepted until
        :meth:`resume`.
        """
        if self.suspended:
            return
        self.suspended = True
        self.crashes += 1
        if self.sock is not None:
            self.sock.close()

    def resume(self, rehandshake: bool = True) -> None:
        """Restart after :meth:`suspend`.

        The restarted process binds a fresh socket (new source port, as
        a real restart would) and, with ``rehandshake`` (the default),
        the last-activity clock is rewound so dead-peer detection
        re-handshakes at its next tick — a restarted OpenVPN process
        always renegotiates.
        """
        if not self.suspended:
            return
        self.suspended = False
        # bind explicitly to the address facing the server: the stack's
        # preferred source is still the tunnel address at this point, and
        # a VPN socket bound there would have its handshake replies
        # routed into the (dead) tunnel by the server
        self.sock = self.host.stack.udp_socket(
            address=self.host.stack.source_address_for(self.server_addr)
        )
        self.sock.listen(self._rx_dispatch)
        if rehandshake:
            self.last_server_rx = self.sim.now - 2.0 * self.dpd_timeout

    def retarget(self, server_addr) -> None:
        """Point the client at a different gateway (fleet migration).

        Pins a host route for the new gateway over the physical uplink
        (the installed tunnel routes would otherwise swallow the outer
        datagrams) and rewinds dead-peer detection so the next tick
        re-handshakes with the new endpoint.
        """
        self.server_addr = IPv4Address(server_addr)
        if self._physical_route is not None:
            self.host.stack.add_route(f"{self.server_addr}/32", self._physical_route)
        self.last_server_rx = self.sim.now - 2.0 * self.dpd_timeout

    # ------------------------------------------------------------------
    # pipeline hooks (EndBox overrides these)
    # ------------------------------------------------------------------
    def process_egress(
        self, packets: List[IPv4Packet]
    ) -> Tuple[List[Tuple[bool, IPv4Packet]], float]:
        """Egress hook for a burst; returns ``([(accept, packet)], cpu_seconds)``."""
        model, mode = self.model, self.mode
        results = []
        cost = 0.0
        for packet in packets:
            cost += client_egress_cost(model, len(packet), mode)
            results.append((True, packet))
        return results, cost

    def process_ingress(
        self, packets: List[IPv4Packet]
    ) -> Tuple[List[Tuple[bool, IPv4Packet]], float]:
        """Completion work for a burst of reassembled inner packets.

        Per-datagram costs (recv, copy, crypto) were already charged as
        the fragments arrived; this adds the packet-level remainder.
        """
        model = self.model
        results = []
        cost = 0.0
        for packet in packets:
            cost += client_ingress_completion_cost(model, len(packet))
            results.append((True, packet))
        return results, cost

    def fragment_crypto_mode(self):
        """Protection mode charged per received datagram.

        The vanilla client decrypts each datagram as it arrives;
        EndBox returns None here because decryption happens inside the
        enclave within the single per-packet ecall.
        """
        return self.mode

    # ------------------------------------------------------------------
    # data paths (single worker = single-threaded OpenVPN)
    # ------------------------------------------------------------------
    def _tun_dispatch(self, inner: IPv4Packet) -> None:
        if self.suspended:
            return
        self._work_inbox.put(("tx", inner, self.channel_epoch))

    def _worker(self):
        """Drain the work queue in bursts of same-kind items.

        After waking up for one item, the worker takes the contiguous run
        of same-kind items already queued behind it, up to
        :attr:`ecall_batch_limit`, and hands the run to one handler call.
        Peeking keeps mixed bursts in arrival order: a ping never jumps
        ahead of the data burst queued before it.
        """
        inbox = self._work_inbox
        while True:
            kind, item, epoch = yield inbox.get()
            if kind == "tx":
                # egress packets are not bound to a key generation: they
                # are protected with whatever channel is current
                yield from self._handle_egress(self._drain_burst(item, self._joins_egress))
                continue
            if epoch != self.channel_epoch:
                # queued under superseded keys: dropping deliberately
                # keeps the old high packet ids out of the new replay
                # window (which they would otherwise wedge)
                self.packets_dropped_stale += 1
                continue
            if isinstance(item, VpnPacket) and item.opcode == OP_DATA:
                yield from self._handle_data(self._drain_burst(item, self._joins_data))
            else:
                self._handle_ping(item)

    def _drain_burst(self, first, joins) -> list:
        """``first`` plus the queued items ``joins`` accepts, in order."""
        burst = [first]  # endbox-lint: hotpath(HP702) the burst container, one per handler call
        inbox = self._work_inbox
        while len(burst) < self.ecall_batch_limit:
            pending = inbox.peek()
            if pending is None or not joins(pending):
                break
            burst.append(inbox.try_get()[1])
        return burst

    @staticmethod
    def _joins_egress(pending) -> bool:
        return pending[0] == "tx"

    def _joins_data(self, pending) -> bool:
        kind, item, epoch = pending
        return (
            kind == "rx"
            and epoch == self.channel_epoch
            and isinstance(item, VpnPacket)
            and item.opcode == OP_DATA
        )

    def _handle_egress(self, inners: List[IPv4Packet]):
        results, cost = self.process_egress(inners)
        yield from self._charge(cost)
        protect = self.tx_channel.protect
        sendto = self.sock.sendto
        for accepted, inner in results:
            if not accepted:
                continue
            inner_bytes = inner.serialize()
            self.inner_bytes_sent += len(inner_bytes)
            frag_id, pieces = self.fragmenter.split(inner_bytes)
            count = len(pieces)
            for index, piece in enumerate(pieces):
                packet = new_data_packet(
                    self.session_id, self._take_packet_id(), frag_id, index, count
                )
                protect(packet, piece)
                wire = packet.serialize()
                sendto(wire, self.server_addr, self.server_port)

    def _take_packet_id(self) -> int:
        packet_id = self._next_packet_id
        self._next_packet_id += 1
        return packet_id

    def _handle_data(self, packets: List[VpnPacket]):
        """Authenticate a burst of data datagrams, then complete its packets.

        Two charges, as in OpenVPN's loop: the per-datagram receive work
        once the burst is authenticated, and the packet-level completion
        work (EndBox: the enclave crossing) once fragments reassemble.
        """
        opened = []
        fragment_cost = 0.0
        for packet in packets:
            if not self.replay.check_and_update(packet.packet_id):
                self.packets_rejected += 1
                continue
            try:
                plaintext = self.rx_channel.unprotect(packet)
            except ChannelError:
                self.packets_rejected += 1
                continue
            fragment_cost += ingress_fragment_cost(
                self.model, len(plaintext), self.fragment_crypto_mode()
            )
            opened.append((packet, plaintext))
        yield from self._charge(fragment_cost)
        inners = []
        sizes = []
        for packet, plaintext in opened:
            inner_bytes = self.reassembler.add(
                packet.session_id, packet.frag_id, packet.frag_index, packet.frag_count, plaintext
            )
            if inner_bytes is None:
                continue
            try:
                inners.append(parse_ipv4(inner_bytes))
            except ValueError:
                self.packets_rejected += 1
                continue
            sizes.append(len(inner_bytes))
        if not inners:
            return
        results, cost = self.process_ingress(inners)
        yield from self._charge(cost)
        for (accepted, inner), size in zip(results, sizes):
            if not accepted:
                continue
            self.inner_bytes_received += size
            self.tun.write(inner)

    def _handle_ping(self, packet: VpnPacket) -> None:
        try:
            ping = PingMessage.parse(packet.body, self.secrets.server_hmac)
        except PingError:
            self.packets_rejected += 1
            return
        self.pings_received += 1
        if self.on_server_announcement is not None:
            self.on_server_announcement(ping)

    def _send_ping(self) -> None:
        ping = PingMessage(  # endbox-lint: hotpath(HP702) one keepalive per ping interval, not per packet
            config_version=self.config_version,
            grace_period_s=0.0,
            timestamp_ns=int(self.sim.now * 1e9),
        )
        wire = VpnPacket(  # endbox-lint: hotpath(HP702) one packet per ping interval, control channel
            OP_PING, self.session_id, 0, ping.serialize(self.secrets.client_hmac)
        ).serialize()
        self._tm_ctrl_packets.inc()
        self._tm_ctrl_bytes.inc(len(wire))
        self.sock.sendto(wire, self.server_addr, self.server_port)

    def _ping_loop(self):
        while True:
            yield self.sim.timeout(self.ping_interval)
            if self.suspended:
                continue
            self._send_ping()
