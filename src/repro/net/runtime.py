"""NodeRuntime: one OS process hosting one real ActorSpace node.

The simulator's :class:`~repro.runtime.system.ActorSpaceSystem` plays
every node from a single process; a :class:`NodeRuntime` is the same
wiring diagram collapsed to *one* node plus stand-ins for the others:

* one real :class:`~repro.runtime.coordinator.Coordinator` — actors,
  directory replica, resolution cache, parked messages: all unchanged;
* a :class:`RemoteNodeProxy` per peer, satisfying exactly the slice of
  the coordinator interface the runtime reaches for on *other* nodes
  (``_deliver`` becomes "serialize and send", ``crashed`` consults the
  failure detector's verdicts);
* a :class:`~repro.net.remote.RemoteSequencerBus` ordering visibility
  ops in frames instead of simulated latency draws;
* the PR-3 :class:`~repro.runtime.failure.DeadLetterQueue` and
  :class:`~repro.net.remote.NetFailureDetector`, unchanged in logic but
  driven by wall-clock heartbeats;
* a wall clock and an asyncio event pump replacing virtual time — the
  event queue is the same heap, it just waits for real time to pass.

Address determinism is preserved on purpose: node ``k``'s address
factory mints the same ``(node, serial)`` sequence as the simulator's
node ``k`` given the same creation order, and node 0 consumes serial 0
for the root space exactly like ``ActorSpaceSystem`` does.  That is what
lets ``python -m repro check --transport tcp`` diff a real cluster
against the single-process oracle.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import time
from typing import Any

from repro.core.actorspace import SpaceRecord
from repro.core.addresses import ActorAddress, SpaceAddress
from repro.core.capabilities import CapabilityIssuer
from repro.core.mailbox import DEFAULT_MAILBOX_CAPACITY, ShedPolicy
from repro.core.manager import SpaceManager
from repro.core.matching import resolve_actors
from repro.core.messages import (
    Destination,
    Envelope,
    Message,
    Mode,
    Port,
    parse_destination,
)
from repro.runtime.admission import AdmissionControl
from repro.runtime.context import RuntimeContext
from repro.runtime.coordinator import Coordinator
from repro.runtime.eventlog import EventLog, JsonlSink
from repro.runtime.events import EventQueue
from repro.runtime.failure import DeadLetterQueue
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.network import Topology
from repro.runtime.rng import RngHub
from repro.runtime.tracing import Tracer

from . import registry
from .codec import FrameKind, WireError, encode_value
from .peer import PeerHub, PeerLink
from .remote import NetFailureDetector, RemoteSequencerBus, TcpTransport

#: Detectors on a server run effectively forever; the PR-3 horizon only
#: exists so the *simulator* can quiesce.
_FOREVER = 1e12


def maybe_install_uvloop() -> bool:
    """Install uvloop as the event-loop policy when available.

    Purely optional: the wire path is stdlib-asyncio correct, uvloop
    just makes the same sockets cheaper.  Gated by ``REPRO_UVLOOP``
    (set to ``0`` to force stdlib asyncio); returns whether uvloop is
    active so callers can report it.
    """
    import os

    if os.environ.get("REPRO_UVLOOP", "1") == "0":
        return False
    try:
        import uvloop
    except ImportError:
        return False
    uvloop.install()
    return True


def rebase_wire_counters(node_id: int) -> None:
    """Give this process a collision-free id block for envelopes/messages/ops.

    The module-global counters mint ids dense from 0; with one process
    per node, two nodes would mint the same envelope id and the
    in-flight / dead-letter bookkeeping keyed on it would collide.
    Rebasing each process to ``node_id << 44`` leaves ~17.6e12 ids per
    node — decoded objects carry their ids explicitly, so only local
    minting consumes the block.
    """
    from repro.core import messages as messages_mod
    from repro.runtime import bus as bus_mod

    base = node_id << 44
    messages_mod._envelope_ids = itertools.count(base)
    messages_mod._message_ids = itertools.count(base)
    bus_mod._op_ids = itertools.count(base)


class WallClock:
    """Real elapsed time behind the ``clock.now`` interface.

    ``now`` can be *pinned* while one event executes.  The simulator's
    virtual clock never advances during a turn, and behaviors lean on
    that — e.g. computing ``deadline - ctx.now`` twice and scheduling
    the difference must not come out negative.  The pump pins before
    dispatching each event and unpins after, so actor code observes the
    same frozen-time-per-turn contract in both runtimes.
    """

    __slots__ = ("_t0", "_pinned")

    def __init__(self):
        self._t0 = time.monotonic()
        self._pinned: float | None = None

    @property
    def now(self) -> float:
        if self._pinned is not None:
            return self._pinned
        return time.monotonic() - self._t0

    def pin(self) -> None:
        self._pinned = time.monotonic() - self._t0

    def unpin(self) -> None:
        self._pinned = None

    def advance_to(self, t: float) -> None:
        """No-op: wall time advances itself (the pump waits instead)."""


class _WakingEventQueue(EventQueue):
    """The simulator's event heap, poking the async pump on schedule."""

    def __init__(self, wake):
        super().__init__()
        self._wake = wake

    def schedule(self, time, action, priority=0, tag=None):
        handle = super().schedule(time, action, priority=priority, tag=tag)
        self._wake()
        return handle


class RemoteNodeProxy:
    """The slice of a peer's coordinator the local runtime touches.

    * ``_deliver`` — the simulator's "arrival at the destination node"
      hook; here it means *put the envelope on the wire*.
    * ``_route`` — the dead-letter queue redelivers via the destination
      node's coordinator; remotely that is just a local re-route.
    * ``actors`` — arbitration's load probe reads peer queue depths; a
      real deployment would need the paper's §8 monitoring daemons for
      remote load, so remote actors report load 0 (empty mapping).
    * ``crashed`` — the detector's verdict, read by the DLQ.
    """

    __slots__ = ("runtime", "node_id", "actors")

    def __init__(self, runtime: "NodeRuntime", node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.actors: dict = {}

    @property
    def crashed(self) -> bool:
        return self.runtime.transport.node_is_down(self.node_id)

    def _deliver(self, envelope: Envelope) -> None:
        self.runtime.forward_envelope(envelope)

    def _route(self, envelope: Envelope, target: ActorAddress) -> None:
        self.runtime.coordinator._route(envelope, target)

    def __repr__(self):
        return f"<RemoteNodeProxy n{self.node_id}>"


class NodeRuntime:
    """One process's ActorSpace node (see module docstring).

    Duck-types the ``ActorSpaceSystem`` surface the runtime classes
    reach for (``clock``, ``events``, ``coordinators``, ``transport``,
    ``bus``, ``dead_letters``, ``tracer``, ``in_flight``, ...), so
    ``Coordinator``, ``DeadLetterQueue``, ``FailureDetector``, and
    ``RuntimeContext`` run here unmodified.
    """

    def __init__(
        self,
        node_id: int,
        ports: dict[int, int],
        *,
        host: str = "127.0.0.1",
        cluster_id: str = "actorspace",
        seed: int = 0,
        heartbeat_interval: float = 0.2,
        suspect_after: int = 2,
        confirm_after: int = 4,
        trace: bool = True,
        trace_jsonl: str | None = None,
        quiet: bool = True,
        mailbox_capacity: int | None = DEFAULT_MAILBOX_CAPACITY,
        mailbox_policy: ShedPolicy | str = ShedPolicy.DROP_OLDEST,
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        breaker_threshold: int | None = None,
        breaker_window: float = 1.0,
        breaker_cooldown: float = 0.5,
        credit_window: int | None = None,
        data_dir: str | None = None,
        fsync: str = "commit",
        snapshot_interval: float = 30.0,
        shards: int = 1,
        shard_sequencer: int | None = None,
    ):
        rebase_wire_counters(node_id)
        self.node_id = node_id
        self.nodes = sorted(ports)
        self.quiet = quiet
        self.topology = Topology.lan(len(self.nodes))
        self.clock = WallClock()
        self.events: EventQueue = _WakingEventQueue(self._kick)
        self.event_log = EventLog(enabled=trace)
        if trace_jsonl and trace:
            # Flush-on-write sink: a SIGKILLed node (the fault drills)
            # still leaves its flight recording on disk.
            self.event_log.add_sink(JsonlSink(trace_jsonl))
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(keep_samples=256, registry=self.metrics,
                             log=self.event_log)
        self.heartbeat_interval = heartbeat_interval
        self.transport = TcpTransport(
            self, heartbeat_window=heartbeat_interval * 2.5)
        self.rng = RngHub(seed)
        self.capabilities = CapabilityIssuer(
            self.rng.stream(f"capabilities-node{node_id}"))
        self.rng_arbitration = self.rng.stream(f"arbitration-node{node_id}")
        self.processing_delay = 0.0
        self.in_flight: dict[int, Envelope] = {}
        self._held_roots: set = set()
        #: Overload knobs, read by the coordinator exactly like the
        #: simulator's (bounded mailboxes at creation, admission in
        #: ``_route``).  TCP nodes default to bounded-but-roomy.
        self.mailbox_capacity = mailbox_capacity
        self.mailbox_policy = ShedPolicy.parse(mailbox_policy)
        if admission_rate is not None or breaker_threshold is not None:
            self.admission = AdmissionControl(
                self, rate=admission_rate, burst=admission_burst,
                breaker_threshold=breaker_threshold,
                breaker_window=breaker_window,
                breaker_cooldown=breaker_cooldown)
        else:
            self.admission = None

        self.coordinator = Coordinator(node_id, self)
        self.coordinators: list = [
            self.coordinator if n == self.node_id else RemoteNodeProxy(self, n)
            for n in self.nodes
        ]
        #: Visibility-plane partition count.  1 = the historical single
        #: global sequencer; >1 = one sequencer per shard, routed by the
        #: space's root attribute atom (repro.shard).
        self.shards = shards
        self.shard_map = None
        if shards > 1:
            from repro.shard import ShardMap, ShardRouter

            from .remote import ShardedRemoteBus

            # Co-located seats (``shard_sequencer``, conformance mode):
            # one node orders every shard, so all replicas see one
            # arrival order.
            self.shard_map = ShardMap(
                shards, self.nodes,
                assignment=None if shard_sequencer is None
                else dict.fromkeys(range(shards), shard_sequencer))
            self.bus = ShardedRemoteBus(self, self.shard_map)
            self.coordinator.router = ShardRouter(self.shard_map)
            self.coordinator.directory.sharded = True
        else:
            self.bus = RemoteSequencerBus(self)
        self.dead_letters = DeadLetterQueue(self)
        self.failure_detector = NetFailureDetector(
            self, interval=heartbeat_interval,
            suspect_after=suspect_after, confirm_after=confirm_after)

        # Root-space bootstrap, byte-identical to the simulator: the root
        # is SpaceAddress(0, 0) everywhere, and node 0's factory consumes
        # serial 0 for it (other factories start untouched at 0).
        if node_id == 0:
            self.root_space = self.coordinator.addresses.new_space_address()
        else:
            self.root_space = SpaceAddress(0, 0)
        self.coordinator.directory.add_space(SpaceRecord(self.root_space, None, 0))
        self.coordinator.managers[self.root_space] = SpaceManager()
        self._held_roots.add(self.root_space)

        hub_kw = {} if credit_window is None else {"credit_window": credit_window}
        self.hub = PeerHub(
            node_id, ports, self._on_frame, host=host, cluster_id=cluster_id,
            on_peer_up=self._on_peer_up, log=self._log,
            metrics=self.metrics, clock=lambda: self.clock.now, **hub_kw)
        self._wake: asyncio.Event | None = None
        self._stopping = False
        self.heartbeats_suppressed = 0
        self._seen_peers: set[int] = set()
        self._detector_armed = False
        self._retry_scheduled: set[int] = set()
        self._control_handlers = {
            "ping": self._ctl_ping,
            "status": self._ctl_status,
            "create_space": self._ctl_create_space,
            "create_actor": self._ctl_create_actor,
            "make_visible": self._ctl_make_visible,
            "make_invisible": self._ctl_make_invisible,
            "send": self._ctl_send,
            "broadcast": self._ctl_broadcast,
            "send_to": self._ctl_send_to,
            "resolve": self._ctl_resolve,
            "has_space": self._ctl_has_space,
            "visible_attributes": self._ctl_visible_attributes,
            "actor_state": self._ctl_actor_state,
            "directory": self._ctl_directory,
            "vis_burst": self._ctl_vis_burst,
            "shard_map": self._ctl_shard_map,
            "rebalance": self._ctl_rebalance,
            "snapshot": self._ctl_snapshot,
            "dlq": self._ctl_dlq,
            "telemetry": self._ctl_telemetry,
            "shutdown": self._ctl_shutdown,
        }

        # Durability: open the data directory, recover the previous
        # incarnation's state, then attach the store as a transactional
        # outbox (attachment happens *after* recovery so the replayed
        # suffix is not re-persisted as fresh records).
        self.data_dir = data_dir
        self.snapshot_interval = snapshot_interval
        self.store = None
        self.shard_stores: dict[int, Any] = {}
        self.recovery: dict | None = None
        if data_dir is not None and shards > 1:
            self._init_sharded_stores(data_dir, fsync)
        elif data_dir is not None:
            from repro.store import NodeStore
            from repro.store.recovery import restore_node

            self.store = NodeStore(data_dir, fsync=fsync)
            recovered = self.store.load()
            if not recovered.empty:
                self.recovery = restore_node(
                    self.node_id, self.coordinator, self.dead_letters,
                    recovered, store=self.store)
                core = self.bus.core
                core.restore_log(recovered.ops)
                # The log may be truncated below the snapshot; the
                # persisted per-origin watermarks keep wire dedup exact
                # even for origins whose every op predates the snapshot.
                snap = recovered.snapshot or {}
                for origin, floor in snap.get("expected", {}).items():
                    core.expected[origin] = max(
                        core.expected.get(origin, 0), floor)
                self.event_log.emit(
                    "node_recovered", self.clock.now, self.node_id,
                    **self.recovery)
                self._log(f"recovered from {data_dir}: {self.recovery}")
            self.bus.store = self.store
            self.dead_letters.store = self.store
            # A fresh snapshot caps the recovery cost of the *next*
            # restart even if this process dies before the first
            # periodic snapshot fires.
            if self.recovery is not None:
                self.write_snapshot_now()

    # -- durability --------------------------------------------------------------

    def _init_sharded_stores(self, data_dir: str, fsync: str) -> None:
        """One outbox store per shard at ``data_dir/shard-K``.

        Each shard recovers independently: a shard whose store is
        unreadable is skipped (it re-syncs from its sequencer's log over
        the wire) and never blocks replay of the healthy shards.  The
        top-level store keeps the dead-letter namespace.  Snapshots are
        per-plane state and stay disabled in sharded mode — recovery is
        per-shard log replay, merged in tick order across shards.
        """
        from pathlib import Path

        from repro.store import NodeStore

        self.store = NodeStore(data_dir, fsync=fsync)
        self.store.load()
        self.dead_letters.store = self.store
        replayable: list[tuple[int, int, int, Any]] = []
        shard_recovery: dict[int, int] = {}
        for k, bus in sorted(self.bus.shards.items()):
            shard_dir = str(Path(data_dir) / f"shard-{k}")
            try:
                store = NodeStore(shard_dir, fsync=fsync)
                recovered = store.load()
            except Exception as exc:  # noqa: BLE001 - scoped recovery
                self._log(f"shard {k} store unreadable ({exc!r}); "
                          f"will re-sync over the wire")
                continue
            if not recovered.empty and recovered.ops:
                bus.core.restore_log(recovered.ops)
                shard_recovery[k] = len(recovered.ops)
                for seq, op in recovered.ops.items():
                    tick = op.tick if op.tick is not None else seq
                    replayable.append((tick, k, seq, op))
            bus.store = store
            self.shard_stores[k] = store
        if replayable:
            # Tick order is a linear extension of every per-shard order
            # (repro.shard.merge); dependency parking in the coordinator
            # absorbs any cross-shard ADD-before-vis races regardless.
            replayable.sort()
            for _tick, k, seq, op in replayable:
                self.coordinator.on_bus_delivery(seq, op)
                self.coordinator.note_own_op(op)
            self.recovery = {"shards": shard_recovery,
                             "ops_replayed": len(replayable)}
            self.event_log.emit("node_recovered", self.clock.now,
                                self.node_id, **self.recovery)
            self._log(f"recovered from {data_dir}: {self.recovery}")

    def write_snapshot_now(self) -> str | None:
        """Write a directory snapshot and truncate superseded segments."""
        if self.store is None or self.shards > 1:
            return None
        from repro.store.recovery import snapshot_state

        state = snapshot_state(
            self.node_id, self.coordinator, self.dead_letters,
            extra={"expected": dict(self.bus.core.expected)})
        path = self.store.write_snapshot(
            self.coordinator._next_apply_seq, state)
        self.event_log.emit(
            "snapshot_written", self.clock.now, self.node_id,
            applied_seq=self.coordinator._next_apply_seq)
        return path

    async def _snapshot_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.snapshot_interval)
            if self._stopping:
                return
            try:
                self.write_snapshot_now()
            except Exception as exc:  # noqa: BLE001 - keep serving
                self._log(f"snapshot failed: {exc!r}")

    # -- system-facade duck typing ----------------------------------------------

    def make_context(self, record, cause=None) -> RuntimeContext:
        return RuntimeContext(self, record, cause=cause)  # type: ignore[arg-type]

    def _log(self, text: str) -> None:
        if not self.quiet:
            print(f"[node {self.node_id} t={self.clock.now:8.3f}] {text}",
                  file=sys.stderr, flush=True)

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # -- failure handling --------------------------------------------------------

    def _on_node_confirmed_down(self, node: int) -> None:
        """First local confirmation: quarantine + bus failover.

        The simulator quarantines the dead node on every live replica in
        one call; here each process runs this independently when its own
        detector confirms — same global outcome, reached per-replica.
        """
        self.transport.crash_node(node)
        masked = self.coordinator.directory.quarantine_node(node)
        self.tracer.on_quarantine("quarantined", self.node_id, self.clock.now,
                                  target_node=node, masked=masked)
        self.bus.on_node_down(node)
        self._log(f"confirmed node {node} down (masked {masked} entries)")

    def on_peer_recovered(self, node: int) -> None:
        """Real bytes arrived from a peer we had confirmed down.

        The detector cannot see this transition (a confirmed-down peer
        reads as down in the transport forever), so the frame-receive
        path calls in here: lift the verdict and the quarantine mask,
        reconsider parked messages the mask was hiding matches from,
        re-elect the bus leadership, and flush dead letters.
        """
        if node not in self.transport.crashed:
            return
        self.transport.recover_node(node)
        self.failure_detector.on_node_recovered(node)
        directory = self.coordinator.directory
        if node in directory.quarantined_nodes:
            directory.unquarantine_node(node)
            self.tracer.on_quarantine("unquarantined", self.node_id,
                                      self.clock.now, target_node=node)
            self.coordinator._recheck_parked()
        self.bus.on_node_recovered(node)
        self.dead_letters.flush(node)
        self._log(f"node {node} recovered")

    # -- outbound envelopes ------------------------------------------------------

    def forward_envelope(self, envelope: Envelope) -> None:
        """Ship a routed envelope to its target's home node.

        The local ``_route`` already did hop accounting and registered
        the envelope in-flight; it leaves this process's authority the
        moment it hits the socket buffer, so it is popped from in-flight
        here (the receiving node re-tracks it).  An unreachable peer
        (link down but not yet confirmed dead) parks the envelope in the
        dead-letter queue; reconnection flushes it.
        """
        target = envelope.target
        assert target is not None
        self.in_flight.pop(envelope.envelope_id, None)
        if self.hub.send(target.node, FrameKind.ENVELOPE, {"envelope": envelope}):
            # The envelope left this node's authority: any dead-letter
            # attempt record for it is finished business (the receiving
            # node starts its own accounting from zero).
            self.dead_letters.note_delivered(envelope.envelope_id)
            return
        self.tracer.on_dropped("node_down", envelope, node=self.node_id,
                               t=self.clock.now)
        self.dead_letters.capture(envelope, target.node, "node_unreachable")
        self._schedule_unreachable_retry(target.node)

    def _schedule_unreachable_retry(self, node: int) -> None:
        """Keep retrying dead letters parked for a *transiently* down link.

        Peer-up and recovery events flush the queue, but a send can also
        fail mid-reconnect with no later edge to ride (the link was never
        lost from the hub's perspective) — so poll until the link is back
        or the failure detector upgrades the outage to confirmed-down
        (whose recovery path owns the flush from then on).
        """
        if node in self._retry_scheduled:
            return
        self._retry_scheduled.add(node)
        self.events.schedule(self.clock.now + self.heartbeat_interval,
                             lambda: self._retry_unreachable(node))

    def _retry_unreachable(self, node: int) -> None:
        self._retry_scheduled.discard(node)
        if node in self.transport.crashed:
            return
        if self.dead_letters.pending(node) == 0:
            return
        if node in self.hub.links:
            self.dead_letters.flush(node)
        if self.dead_letters.pending(node):
            self._schedule_unreachable_retry(node)

    # -- inbound frames ----------------------------------------------------------

    def _on_frame(self, src: int, kind: FrameKind, payload: Any,
                  link: PeerLink) -> None:
        if link.role == "node" and src in self.transport.crashed:
            self.on_peer_recovered(src)
        if kind == FrameKind.HEARTBEAT:
            # The hub already refreshed last_heard; the beacon's payload
            # additionally feeds the per-peer clock-offset estimate.
            self.transport.on_heartbeat(src, payload)
            return
        if kind == FrameKind.ENVELOPE:
            self.coordinator._deliver(payload["envelope"])
        elif kind == FrameKind.BUS_SUBMIT:
            op = payload["op"]
            self._stream(op.shard).on_submit(op)
        elif kind == FrameKind.BUS_OP:
            op = payload["op"]
            self._stream(op.shard).on_op(payload["seq"], op)
        elif kind == FrameKind.SYNC_REQ:
            self._stream(payload["shard"]).on_sync_req(
                payload["node"], payload["from_seq"])
        elif kind == FrameKind.CONTROL:
            self._on_control(payload, link)

    def _stream(self, shard: int) -> RemoteSequencerBus:
        """The sequencer driver ordering ``shard``'s stream."""
        return self.bus if self.shards == 1 else self.bus.shards[shard]

    def _on_peer_up(self, node: int) -> None:
        """A node link registered (first connect or reconnect)."""
        self.on_peer_recovered(node)  # no-op unless it was confirmed down
        self._seen_peers.add(node)
        self.dead_letters.flush(node)
        # Catch up on any visibility ops sequenced before we joined (or
        # while we were partitioned/restarted) — per shard, each bus
        # syncs iff the newly linked peer holds its sequencer seat.
        self.bus.on_peer_up(node)
        peers = {n for n in self.nodes if n != self.node_id}
        if not self._detector_armed and self._seen_peers >= peers:
            self._detector_armed = True
            self.failure_detector.start(_FOREVER)
            self._log("failure detector armed")

    # -- serving -----------------------------------------------------------------

    async def serve(self, ready: asyncio.Event | None = None) -> None:
        """Run the node until a control ``shutdown`` (or cancellation)."""
        self._wake = asyncio.Event()
        await self.hub.start()
        self._log(f"listening on {self.hub.host}:{self.hub.ports[self.node_id]} "
                  f"peers={[n for n in self.nodes if n != self.node_id]}")
        heartbeats = asyncio.ensure_future(self._heartbeat_loop())
        snapshots = None
        if self.store is not None and self.snapshot_interval > 0 \
                and self.shards == 1:
            snapshots = asyncio.ensure_future(self._snapshot_loop())
        if ready is not None:
            ready.set()
        try:
            await self._pump()
        finally:
            for task in (heartbeats, snapshots):
                if task is None:
                    continue
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            await self.hub.stop(drain=True)
            if self.store is not None:
                # Orderly exit: fold everything into a final snapshot so
                # the next start replays nothing.  A SIGKILL skips this,
                # which is exactly what the recovery path is for.
                try:
                    self.write_snapshot_now()
                finally:
                    self.store.close()
                    for store in self.shard_stores.values():
                        store.close()
            self.event_log.close()

    def request_shutdown(self) -> None:
        self._stopping = True
        self._kick()

    async def _heartbeat_loop(self) -> None:
        """Beacon liveness — but only where data is not already doing it.

        Any frame we send refreshes the peer's last-heard oracle, so a
        link that carried data within the last interval needs no
        explicit HEARTBEAT: under sustained load the beacons disappear
        entirely (piggybacked liveness), and they resume the moment a
        link goes quiet.
        """
        while not self._stopping:
            idle = self.hub.idle_peers(self.heartbeat_interval)
            self.heartbeats_suppressed += len(self.hub.links) - len(idle)
            for node in idle:
                self.hub.send(node, FrameKind.HEARTBEAT,
                              self.transport.heartbeat_payload(node))
            await asyncio.sleep(self.heartbeat_interval)

    async def _pump(self) -> None:
        """Drive the event heap against the wall clock.

        Due events run back-to-back (yielding every batch so socket
        readers stay live); otherwise sleep until the next deadline or a
        ``schedule`` wake-up, whichever comes first.
        """
        assert self._wake is not None
        processed = 0
        while not self._stopping:
            due = self.events.peek_time()
            now = self.clock.now
            if due is not None and due <= now:
                popped = self.events.pop()
                if popped is not None:
                    _when, action = popped
                    self.clock.pin()
                    try:
                        action()
                    except Exception as exc:  # noqa: BLE001 - isolate events
                        self._log(f"event raised: {exc!r}")
                    finally:
                        self.clock.unpin()
                    processed += 1
                    if processed % 64 == 0:
                        await asyncio.sleep(0)
                continue
            wait = self.heartbeat_interval if due is None \
                else min(max(due - now, 0.0) + 0.001, self.heartbeat_interval)
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), wait)
            except asyncio.TimeoutError:
                pass

    # -- control plane -----------------------------------------------------------

    def _on_control(self, payload: Any, link: PeerLink) -> None:
        request_id = payload.get("id") if isinstance(payload, dict) else None
        reply: dict[str, Any]
        try:
            if not isinstance(payload, dict):
                raise WireError("control payload must be a mapping")
            handler = self._control_handlers.get(payload.get("cmd"))
            if handler is None:
                raise WireError(f"unknown control command {payload.get('cmd')!r}")
            value = handler(**(payload.get("args") or {}))
            reply = {"id": request_id, "ok": True, "value": value}
        except Exception as exc:  # noqa: BLE001 - fault back to the launcher
            reply = {"id": request_id, "ok": False,
                     "error": f"{type(exc).__name__}: {exc}"}
        if not self.hub.send_link(link, FrameKind.REPLY, reply):
            self.hub.send_link(link, FrameKind.REPLY, {
                "id": request_id, "ok": False,
                "error": "reply was not wire-encodable",
            })

    @staticmethod
    def _wire_safe(value: Any) -> Any:
        try:
            encode_value(value)
            return value
        except WireError:
            return repr(value)

    def _ctl_ping(self) -> dict:
        return {"node": self.node_id, "t": self.clock.now}

    def _shard_status(self) -> dict | None:
        if self.shards == 1:
            return None
        return {
            k: {
                "sequencer": bus.core.sequencer_node,
                "home": bus.core.home_node,
                "applied": self.coordinator.applied_cursor(k),
                "ops_sequenced": bus.core.ops_sequenced,
                "log": len(bus.core.log),
                "unacked": len(bus.core.unacked),
            }
            for k, bus in sorted(self.bus.shards.items())
        }

    def _applied_total(self) -> int:
        return sum(map(self.coordinator.applied_cursor, range(self.shards)))

    def _ctl_status(self) -> dict:
        return {
            "node": self.node_id,
            "applied_seq": self._applied_total(),
            "shards": self._shard_status(),
            "shard_map_version": (self.shard_map.version
                                  if self.shard_map is not None else None),
            "actors": len(self.coordinator.actors),
            "events_pending": len(self.events),
            "in_flight": len(self.in_flight),
            "links": sorted(self.hub.links),
            "seen_peers": sorted(self._seen_peers),
            "detector_armed": self._detector_armed,
            "confirmed_down": sorted(self.transport.crashed),
            "quarantined": sorted(self.coordinator.directory.quarantined_nodes),
            "suspended": len(self.coordinator.suspended),
            "persistent": len(self.coordinator.persistent),
            "dlq_pending": self.dead_letters.pending(),
            "frames_shed": self.hub.frames_shed,
            "batches_in": self.hub.batches_in,
            "batches_out": self.hub.batches_out,
            "heartbeats_suppressed": self.heartbeats_suppressed,
            "mailbox_shed": sum(r.mailbox.shed_count
                                for r in self.coordinator.actors.values()),
            "mailbox_suspended": sum(r.mailbox.suspended
                                     for r in self.coordinator.actors.values()),
            "credit_stalls": self.hub.credit_stalls,
            "credit_grants_in": self.hub.credit_grants_in,
            "credit_grants_out": self.hub.credit_grants_out,
            "admission": self.admission.metrics()
                         if self.admission is not None else None,
            "clock": self.hub.clock_sync.snapshot(),
            "bus": self.bus.metrics_snapshot(),
            "store": self.store.metrics_snapshot()
                     if self.store is not None else None,
            "recovery": self.recovery,
            "dlq_recovered": self.dead_letters.recovered_total,
        }

    def _ctl_create_space(self, attributes=None, parent=None, capability=None):
        # Forward the placement hints: the coordinator homes a new space's
        # visibility shard by hashing its root attribute atom (falling back
        # to the parent's shard, then the address).  Dropping them here
        # would silently hash the address instead — spaces would land on
        # arbitrary shards and every affine submit would cross the wire to
        # a remote seat.
        address = self.coordinator.create_space(
            capability, attributes=attributes, parent=parent)
        self._held_roots.add(address)
        if attributes is not None:
            self.coordinator.make_visible(
                address, attributes,
                parent if parent is not None else self.root_space, capability)
        return {"address": address}

    def _ctl_create_actor(self, behavior: str, params=None, space=None,
                          visible=None, capability=None):
        built = registry.build_behavior(behavior, params)
        address = self.coordinator.create_actor(
            built, host_space=space if space is not None else self.root_space,
            capability=capability)
        self._held_roots.add(address)
        if visible is not None:
            self.coordinator.make_visible(
                address, visible["attributes"],
                visible.get("space") or self.root_space, capability)
        return {"address": address}

    def _ctl_make_visible(self, target, attributes, space=None, capability=None):
        self.coordinator.make_visible(
            target, attributes,
            space if space is not None else self.root_space, capability)
        return True

    def _ctl_make_invisible(self, target, space=None, capability=None):
        self.coordinator.make_invisible(
            target, space if space is not None else self.root_space, capability)
        return True

    def _external_envelope(self, mode: Mode, payload, *, destination=None,
                           target=None, reply_to=None, headers=None) -> Envelope:
        return Envelope(
            message=Message(payload, reply_to=reply_to, headers=headers or {}),
            sender=None, mode=mode, target=target, destination=destination,
            port=Port.INVOCATION, sent_at=self.clock.now,
            origin_space=self.root_space,
        )

    @staticmethod
    def _as_destination(destination) -> Destination:
        if isinstance(destination, Destination):
            return destination
        return parse_destination(destination)

    def _ctl_send(self, destination, payload, reply_to=None):
        self.coordinator.send_pattern(self._external_envelope(
            Mode.SEND, payload, destination=self._as_destination(destination),
            reply_to=reply_to))
        return True

    def _ctl_broadcast(self, destination, payload, reply_to=None):
        self.coordinator.broadcast_pattern(self._external_envelope(
            Mode.BROADCAST, payload,
            destination=self._as_destination(destination), reply_to=reply_to))
        return True

    def _ctl_send_to(self, target, payload, reply_to=None):
        self.coordinator.send_direct(self._external_envelope(
            Mode.DIRECT, payload, target=target, reply_to=reply_to))
        return True

    def _ctl_resolve(self, pattern, space=None):
        scope = space if space is not None else self.root_space
        return list(resolve_actors(
            self.coordinator.directory, pattern, scope,
            cache=self.coordinator.resolution_cache, ordered=True))

    def _ctl_has_space(self, address):
        return self.coordinator.directory.has_space(address)

    def _ctl_visible_attributes(self, target, space=None):
        scope = space if space is not None else self.root_space
        directory = self.coordinator.directory
        if not directory.has_space(scope):
            return frozenset()
        entry = directory.space(scope).lookup(target)
        return entry.attributes if entry is not None else frozenset()

    def _ctl_actor_state(self, address, attrs):
        record = self.coordinator.actors.get(address)
        if record is None:
            raise WireError(f"no such actor on node {self.node_id}: {address!r}")
        return {name: self._wire_safe(getattr(record.behavior, name, None))
                for name in attrs}

    def _ctl_directory(self):
        return {"snapshot": self.coordinator.directory.snapshot(),
                "quarantined": sorted(self.coordinator.directory.quarantined_nodes)}

    def _ctl_vis_burst(self, target, space=None, count=1, prefix="burst",
                       capability=None):
        """Issue ``count`` visibility ops on one space (bench workload).

        Each op rebinds ``target``'s attributes in ``space`` — a full
        sequencer round trip per op on whatever shard owns the space, so
        the launcher can aim load at a specific shard.
        """
        scope = space if space is not None else self.root_space
        for index in range(int(count)):
            self.coordinator.make_visible(
                target, f"{prefix}/v{index & 7}", scope, capability)
        return {"submitted": int(count)}

    def _ctl_shard_map(self, manifest=None):
        """Read the shard map, or adopt a gossiped newer assignment."""
        if self.shard_map is None:
            raise WireError("node is not sharded")
        applied = False
        if manifest is not None:
            applied = self.bus.apply_map(manifest)
        return {"map": self.shard_map.to_manifest(), "applied": applied}

    def _ctl_rebalance(self, shard, seat):
        """Move ``shard``'s sequencer seat to node ``seat``, live."""
        if self.shard_map is None:
            raise WireError("node is not sharded")
        version = self.bus.rebalance(int(shard), int(seat))
        return {"version": version,
                "sequencer": self.bus.shards[int(shard)].sequencer_node}

    def _ctl_snapshot(self, events: bool = True):
        return {
            "node": self.node_id,
            "metrics": self.metrics_snapshot(),
            "transport": self.transport.metrics_snapshot(),
            "hub": self.hub.metrics_snapshot(),
            "bus": self.bus.metrics_snapshot(),
            "events": [self._wire_safe(e.to_dict()) for e in self.event_log]
                      if events else [],
        }

    def _ctl_telemetry(self, since_seq: int = 0, max_events: int = 2000):
        """One telemetry pull: every snapshot + an incremental event window.

        ``since_seq`` is the caller's high-water mark (the ``next_seq``
        of its previous pull); only events at or past it are returned,
        capped at ``max_events``.  ``events_missed`` counts ring-buffer
        evictions the caller can never see — an honest collector reports
        them instead of pretending the window was complete.
        """
        buffered = list(self.event_log.events)
        oldest = buffered[0].seq if buffered else self.event_log.next_seq
        missed = max(0, oldest - since_seq)
        window = [e for e in buffered if e.seq >= since_seq][:max_events]
        if window:
            next_seq = window[-1].seq + 1
        else:
            next_seq = max(since_seq, self.event_log.next_seq)
        return {
            "node": self.node_id,
            "t": self.clock.now,
            "metrics": self.metrics_snapshot(),
            "hub": self.hub.metrics_snapshot(),
            "bus": self.bus.metrics_snapshot(),
            "transport": self.transport.metrics_snapshot(),
            "clock": self.hub.clock_sync.snapshot(),
            "heartbeats_suppressed": self.heartbeats_suppressed,
            "events": [self._wire_safe(e.to_dict()) for e in window],
            "next_seq": next_seq,
            "events_missed": missed,
            "events_total": self.event_log.emitted_count,
        }

    def _ctl_dlq(self):
        return {
            "pending": self.dead_letters.pending(),
            "queued": self.dead_letters.queued_total,
            "redelivered": self.dead_letters.redelivered_total,
            "expired": self.dead_letters.expired_total,
            "recovered": self.dead_letters.recovered_total,
        }

    def _ctl_shutdown(self):
        self._log("shutdown requested")
        # Reply first (returning schedules the REPLY write), stop on the
        # next pump turn.
        self.events.schedule(self.clock.now + 0.05, self.request_shutdown)
        return True

    # -- observability -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        depth = sum(r.mailbox.pending for r in self.coordinator.actors.values()
                    if not r.terminated)
        self.metrics.gauge(f"queue_depth_node_{self.node_id}").set(depth)
        self.metrics.gauge(f"parked_node_{self.node_id}").set(
            len(self.coordinator.suspended) + len(self.coordinator.persistent))
        self.metrics.gauge("in_flight").set(len(self.in_flight))
        self.metrics.gauge("heartbeats_suppressed").set(
            self.heartbeats_suppressed)
        for name, value in self.transport.metrics_snapshot().items():
            if not isinstance(value, dict):
                self.metrics.gauge(f"transport_{name}").set(value)
        return self.metrics.snapshot()

    def __repr__(self):
        return (f"<NodeRuntime n{self.node_id}/{len(self.nodes)} "
                f"actors={len(self.coordinator.actors)} t={self.clock.now:.3f}>")
