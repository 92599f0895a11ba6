"""The system facade: boot a simulated ActorSpace world and drive it.

:class:`ActorSpaceSystem` wires together the whole architecture of
section 7 — one coordinator per node (Fig. 2), a virtual coordinator bus
(Fig. 3), a globally visible root actorSpace (section 7.1) — over the
deterministic discrete-event substrate.  The application driver plays the
paper's *manager* role: it holds capabilities, creates actors and spaces,
injects external messages, and can run privileged operations such as
garbage collection or node crashes (failure injection).

Typical use::

    system = ActorSpaceSystem(topology=Topology.lan(4), seed=7)
    worker = system.create_actor(WorkerBehavior(), node=1)
    system.make_visible(worker, "workers/w1", system.root_space)
    system.send("workers/*", payload={"job": 42})
    system.run()

``run()`` executes events until the queue drains (quiescence) or a limit
is hit; virtual time then tells you how long the computation "took".
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.actor import ActorRecord, Behavior
from repro.core.addresses import ActorAddress, MailAddress, SpaceAddress
from repro.core.capabilities import Capability, CapabilityIssuer
from repro.core.gc import GarbageCollector, GcReport, scan_addresses
from repro.core.mailbox import ShedPolicy
from repro.core.manager import SpaceManager
from repro.core.messages import Destination, Envelope, Message, Mode, Port, parse_destination
from repro.core.visibility import Directory

from .admission import AdmissionControl
from .bus import Bus, SequencerBus, TokenRingBus
from .clock import VirtualClock
from .context import RuntimeContext
from .coordinator import Coordinator
from .eventlog import EventLog, export_chrome_trace
from .events import EventQueue
from .failure import DeadLetterQueue, FailureDetector
from .metrics import MetricsRegistry
from .network import LatencyModel, Network, Topology
from .rng import RngHub
from .tracing import Tracer
from .transport import LossyTransport, NetworkTransport, Transport


class ActorSpaceSystem:
    """A complete simulated ActorSpace deployment.

    Parameters
    ----------
    topology:
        Node/cluster layout (default: a single node).
    seed:
        Master seed for every random stream in the run.
    latency_model:
        Link-class latencies (default :class:`LatencyModel`).
    bus:
        ``"sequencer"`` (default) or ``"token-ring"`` — the total-order
        protocol for visibility changes (section 7.3; ablated in E9).
    processing_delay:
        Virtual time consumed scheduling each behavior invocation; zero
        keeps semantics-only tests instantaneous.
    loss:
        Per-attempt message loss probability (failure injection); the
        transport retransmits, preserving eventual delivery.
    keep_samples:
        Record per-delivery latency samples: ``True`` keeps all,
        ``False`` none, an integer ``N`` a uniform reservoir of ``N``
        (bounded memory on long runs).
    root_manager_factory:
        Manager policies for the root space (default: paper defaults).
    dlq_capacity / dlq_max_redeliveries:
        Bounds of the per-destination :class:`DeadLetterQueue` capturing
        envelopes dropped because their destination was down (or their
        target dead); queued letters are redelivered with capped
        exponential backoff when the destination recovers.
    trace:
        The causal flight recorder.  ``False`` (default) disables it —
        the hot path pays one attribute check per hook.  ``True``
        enables an in-memory :class:`~repro.runtime.eventlog.EventLog`
        ring buffer; an :class:`EventLog` instance is used as-is (bring
        your own capacity/sinks).
    mailbox_capacity / mailbox_policy:
        Overload protection for actors: bound every mailbox's
        INVOCATION port at ``mailbox_capacity`` envelopes and shed the
        overflow per :class:`~repro.core.mailbox.ShedPolicy`
        (``drop-oldest`` / ``drop-newest`` / ``suspend-sender``).  Shed
        mail flows into the dead-letter queue with backoff redelivery —
        counted, never vanished.  ``None`` (default) keeps mailboxes
        unbounded.
    admission_rate / admission_burst / breaker_*:
        Admission control at the routing door: a per-route token bucket
        (``admission_rate`` msgs/s, ``admission_burst`` capacity) and a
        per-destination circuit breaker that opens after
        ``breaker_threshold`` mailbox sheds within ``breaker_window``
        seconds (or a saturated DLQ) and re-closes after
        ``breaker_cooldown`` quiet seconds.  Both default to off.
    """

    def __init__(
        self,
        topology: Topology | None = None,
        seed: int = 0,
        latency_model: LatencyModel | None = None,
        bus: str = "sequencer",
        processing_delay: float = 0.0,
        loss: float = 0.0,
        keep_samples: "bool | int" = True,
        root_manager_factory: Callable[[], SpaceManager] | None = None,
        dlq_capacity: int = 256,
        dlq_max_redeliveries: int = 4,
        trace: "bool | EventLog" = False,
        mailbox_capacity: int | None = None,
        mailbox_policy: str = "drop-oldest",
        admission_rate: float | None = None,
        admission_burst: float | None = None,
        breaker_threshold: int | None = None,
        breaker_window: float = 1.0,
        breaker_cooldown: float = 0.5,
        shards: int = 1,
        sequencer_service_time: float = 0.0,
        shard_sequencer: int | None = None,
    ):
        self.topology = topology or Topology.single()
        self.rng = RngHub(seed)
        self.clock = VirtualClock()
        self.events = EventQueue()
        if isinstance(trace, EventLog):
            self.event_log = trace
        else:
            self.event_log = EventLog(enabled=bool(trace))
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(keep_samples=keep_samples,
                             registry=self.metrics, log=self.event_log)
        self.network = Network(self.topology, latency_model, self.rng.stream("latency"))
        base_transport: Transport = NetworkTransport(self.network)
        self._network_transport = base_transport
        if loss > 0.0:
            base_transport = LossyTransport(base_transport, loss, self.rng.stream("loss"))
        self.transport: Transport = base_transport
        self.capabilities = CapabilityIssuer(self.rng.stream("capabilities"))
        self.rng_arbitration = self.rng.stream("arbitration")
        self.processing_delay = processing_delay
        #: Envelopes scheduled but not yet delivered (pins GC roots).
        self.in_flight: dict[int, Envelope] = {}
        #: External handles pinned as GC roots by the driver.
        self._held_roots: set[MailAddress] = set()

        self.coordinators: list[Coordinator] = [
            Coordinator(n, self) for n in self.topology.nodes
        ]
        nodes = list(self.topology.nodes)
        #: Partitioned visibility plane (``shards > 1``): shard map,
        #: router, and one sequencer per shard behind a bus facade.  At
        #: ``shards == 1`` (default) every code path below is untouched.
        self.shards = shards
        self.shard_map = None
        self.shard_router = None
        if shards > 1:
            if bus != "sequencer":
                raise ValueError("a partitioned plane requires bus='sequencer'")
            from repro.shard import ShardedBus, ShardMap, ShardRouter

            self.shard_map = ShardMap(
                shards, nodes,
                assignment=None if shard_sequencer is None
                else dict.fromkeys(range(shards), shard_sequencer))
            self.shard_router = ShardRouter(self.shard_map)
            self.bus = ShardedBus(
                nodes, self.events, self.clock, self.transport,
                self.shard_map, service_time=sequencer_service_time,
            )
        elif bus == "sequencer":
            self.bus: Bus = SequencerBus(nodes, self.events, self.clock,
                                         self.transport,
                                         service_time=sequencer_service_time)
        elif bus == "token-ring":
            self.bus = TokenRingBus(nodes, self.events, self.clock, self.transport)
        else:
            raise ValueError(f"unknown bus protocol {bus!r}")
        self.bus.wire(
            lambda node, seq, op: self.coordinators[node].on_bus_delivery(seq, op),
            self.event_log, self.tracer)
        if self.shard_router is not None:
            for coordinator in self.coordinators:
                coordinator.router = self.shard_router
                coordinator.directory.sharded = True

        #: Bounded capture of undeliverable envelopes, redelivered on
        #: recovery (self-healing delivery).
        self.dead_letters = DeadLetterQueue(
            self, capacity=dlq_capacity, max_redeliveries=dlq_max_redeliveries
        )
        #: Overload protection: bounded mailboxes for every actor created
        #: from here on (``None`` = unbounded, the historical default)...
        self.mailbox_capacity = mailbox_capacity
        self.mailbox_policy = ShedPolicy.parse(mailbox_policy)
        #: ...plus optional admission control consulted by ``_route``.
        self.admission: AdmissionControl | None = None
        if admission_rate is not None or breaker_threshold is not None:
            self.admission = AdmissionControl(
                self, rate=admission_rate, burst=admission_burst,
                breaker_threshold=breaker_threshold,
                breaker_window=breaker_window,
                breaker_cooldown=breaker_cooldown,
            )
        #: Heartbeat-based failure detector; armed on demand via
        #: :meth:`start_failure_detector`.
        self.failure_detector: FailureDetector | None = None

        # Bootstrap the globally visible root actorSpace (section 7.1)
        # identically in every replica, outside the bus: it must exist
        # before the first operation can be ordered.
        from repro.core.actorspace import SpaceRecord

        self.root_space: SpaceAddress = self.coordinators[0].addresses.new_space_address()
        factory = root_manager_factory or SpaceManager
        for coordinator in self.coordinators:
            coordinator.directory.add_space(SpaceRecord(self.root_space, None, 0))
            coordinator.managers[self.root_space] = factory()
        # The root is globally visible by construction; it is therefore a
        # permanent GC root (which is exactly why section 7.1 adds explicit
        # space destruction).
        self._held_roots.add(self.root_space)

    # ------------------------------------------------------------------
    # Driver-level (manager-role) API
    # ------------------------------------------------------------------

    def new_capability(self) -> Capability:
        """Mint a fresh unforgeable capability."""
        return self.capabilities.new_capability()

    def create_actor(
        self,
        behavior: "Behavior | Callable",
        *args: Any,
        node: int = 0,
        space: SpaceAddress | None = None,
        capability: Capability | None = None,
        **kwargs: Any,
    ) -> ActorAddress:
        """Create an actor from outside the system (driver/manager role)."""
        address = self.coordinators[node].create_actor(
            behavior, args, kwargs,
            host_space=space if space is not None else self.root_space,
            capability=capability,
        )
        self._held_roots.add(address)
        return address

    def create_space(
        self,
        capability: Capability | None = None,
        node: int = 0,
        manager_factory: Callable[[], SpaceManager] | None = None,
        attributes=None,
        parent: SpaceAddress | None = None,
    ) -> SpaceAddress:
        """Create an actorSpace; optionally make it visible under ``attributes``."""
        address = self.coordinators[node].create_space(
            capability, manager_factory, attributes=attributes,
            parent=parent,
        )
        self._held_roots.add(address)
        if attributes is not None:
            self.coordinators[node].make_visible(
                address, attributes, parent if parent is not None else self.root_space,
                capability,
            )
        return address

    def destroy_space(self, address: SpaceAddress, node: int = 0) -> None:
        """Explicitly destroy a space (section 7.1)."""
        self.coordinators[node].destroy_space(address)

    def make_visible(self, target, attributes, space: SpaceAddress | None = None,
                     capability: Capability | None = None, node: int = 0) -> None:
        self.coordinators[node].make_visible(
            target, attributes, space if space is not None else self.root_space, capability
        )

    def make_invisible(self, target, space: SpaceAddress | None = None,
                       capability: Capability | None = None, node: int = 0) -> None:
        self.coordinators[node].make_invisible(
            target, space if space is not None else self.root_space, capability
        )

    def change_attributes(self, target, attributes, space: SpaceAddress | None = None,
                          capability: Capability | None = None, node: int = 0) -> None:
        self.coordinators[node].change_attributes(
            target, attributes, space if space is not None else self.root_space, capability
        )

    # -- external messaging --------------------------------------------------------

    def send_to(self, target: ActorAddress, payload: Any, *,
                reply_to: ActorAddress | None = None, node: int = 0,
                headers: dict | None = None) -> None:
        """Direct external send (e.g. the initial job injection)."""
        envelope = Envelope(
            message=Message(payload, reply_to=reply_to, headers=headers or {}),
            sender=None, mode=Mode.DIRECT, target=target,
            port=Port.INVOCATION, sent_at=self.clock.now,
            origin_space=self.root_space,
        )
        self.coordinators[node].send_direct(envelope)

    def send(self, destination: "Destination | str", payload: Any, *,
             reply_to: ActorAddress | None = None, node: int = 0,
             headers: dict | None = None) -> None:
        """External pattern-directed send resolved at ``node``'s replica."""
        dest = destination if isinstance(destination, Destination) else parse_destination(destination)
        envelope = Envelope(
            message=Message(payload, reply_to=reply_to, headers=headers or {}),
            sender=None, mode=Mode.SEND, destination=dest,
            port=Port.INVOCATION, sent_at=self.clock.now,
            origin_space=self.root_space,
        )
        self.coordinators[node].send_pattern(envelope)

    def broadcast(self, destination: "Destination | str", payload: Any, *,
                  reply_to: ActorAddress | None = None, node: int = 0,
                  headers: dict | None = None) -> None:
        """External pattern-directed broadcast."""
        dest = destination if isinstance(destination, Destination) else parse_destination(destination)
        envelope = Envelope(
            message=Message(payload, reply_to=reply_to, headers=headers or {}),
            sender=None, mode=Mode.BROADCAST, destination=dest,
            port=Port.INVOCATION, sent_at=self.clock.now,
            origin_space=self.root_space,
        )
        self.coordinators[node].broadcast_pattern(envelope)

    # ------------------------------------------------------------------
    # Simulation control
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until quiescence, ``until``, or ``max_events``.

        Returns the virtual time at which the run stopped.
        """
        executed = 0
        while self.events:
            next_time = self.events.peek_time()
            if until is not None and next_time is not None and next_time > until:
                if until > self.clock.now:
                    self.clock.advance_to(until)
                break
            if max_events is not None and executed >= max_events:
                break
            popped = self.events.pop()
            if popped is None:  # pragma: no cover - guarded by `while`
                break
            time, action = popped
            if time > self.clock.now:
                self.clock.advance_to(time)
            # An event scheduled in the (virtual) past — e.g. a driver
            # hook armed after the clock already passed its time — fires
            # immediately at the current instant.
            action()
            executed += 1
        return self.clock.now

    def step(self) -> bool:
        """Execute a single event; returns False when the queue is empty."""
        popped = self.events.pop()
        if popped is None:
            return False
        time, action = popped
        if time > self.clock.now:
            self.clock.advance_to(time)
        action()
        return True

    @property
    def idle(self) -> bool:
        """True when no events remain (the system is quiescent)."""
        return not self.events

    # -- failure injection -------------------------------------------------------

    def crash_node(self, node: int) -> None:
        """Hard-crash a node: its actors stop, messages to it are lost.

        The bus is notified immediately (a crashed sequencer or token
        holder must not kill the protocol), but the directory is *not*
        quarantined here — dead replicas stay visible until the failure
        detector confirms them down, preserving E11's baseline blast
        radius for runs without a detector.
        """
        self.coordinators[node].crashed = True
        self._network_transport.crash_node(node)  # type: ignore[attr-defined]
        self.bus.on_node_down(node)

    def recover_node(self, node: int) -> None:
        """Bring a crashed node back; its actors resume where they stopped.

        Recovery is the self-healing hinge: the bus replays the missed
        visibility ops from its log (state transfer), every replica
        lifts its quarantine mask for the node and reconsiders parked
        messages the mask was hiding matches from, the failure detector
        forgets its verdicts, the bus resumes work parked on the node,
        dead letters captured for it are redelivered with backoff, and
        mailbox backlogs accepted before the crash restart processing.
        """
        recovered = self.coordinators[node]
        recovered.crashed = False
        self._network_transport.recover_node(node)  # type: ignore[attr-defined]
        if self.shard_router is not None:
            # Per-shard state transfer: each shard replays from this
            # replica's own cursor into that shard's stream.
            self.bus.replay_to(node, dict(recovered._shard_cursors))
        else:
            self.bus.replay_to(node, recovered._next_apply_seq)
        unmasked: list[Coordinator] = []
        for coordinator in self.coordinators:
            if node in coordinator.directory.quarantined_nodes:
                coordinator.directory.unquarantine_node(node)
                self.tracer.on_quarantine(
                    "unquarantined", coordinator.node_id, self.clock.now,
                    target_node=node,
                )
                unmasked.append(coordinator)
        # The recovering replica may itself hold stale masks for peers
        # that came back while it was down.
        own = recovered.directory
        for peer in list(own.quarantined_nodes):
            if not self.transport.node_is_down(peer):
                own.unquarantine_node(peer)
                if recovered not in unmasked:
                    unmasked.append(recovered)
        # Lifting a mask can make a parked message matchable again (§5.6):
        # the node's actors were only hidden, not unregistered, so every
        # coordinator that unmasked must reconsider what it parked.
        # (Masks change outside the bus, so the op-apply recheck never
        # sees this transition.)
        for coordinator in unmasked:
            if not coordinator.crashed:
                coordinator._recheck_parked()
        if self.failure_detector is not None:
            self.failure_detector.on_node_recovered(node)
        self.bus.on_node_recovered(node)
        self.dead_letters.flush(node)
        # Mail accepted before the crash is still queued; processing
        # events were swallowed while ``crashed`` was set, so restart the
        # pump for every actor with a backlog.
        for record in recovered.actors.values():
            if not record.terminated and not record.mailbox.is_empty:
                recovered._schedule_processing(record)

    def rebalance_shard(self, shard: int, node: int) -> int:
        """Move one shard's sequencer role to ``node``, live (driver op).

        Returns the new shard-map version.  Only meaningful under a
        partitioned plane (``shards > 1``).
        """
        if self.shard_map is None:
            raise ValueError("rebalance_shard requires shards > 1")
        return self.bus.rebalance(shard, node)

    def start_failure_detector(
        self,
        duration: float,
        interval: float = 0.5,
        suspect_after: int = 2,
        confirm_after: int = 4,
    ) -> FailureDetector:
        """Arm (or extend) heartbeat-based peer monitoring.

        ``duration`` bounds the detector in virtual time — an unbounded
        periodic timer would keep :meth:`run` from ever reaching
        quiescence.  Returns the detector for introspection.
        """
        if self.failure_detector is None:
            self.failure_detector = FailureDetector(
                self, interval=interval,
                suspect_after=suspect_after, confirm_after=confirm_after,
            )
        return self.failure_detector.start(duration)

    def _on_node_confirmed_down(self, node: int) -> None:
        """First detector confirmation: quarantine and fail over.

        Every live replica masks the dead node's actor entries (bumping
        the epochs of the spaces that hosted them, so resolution caches
        invalidate), and the bus gets a failure notification.
        ``Directory.snapshot()`` ignores masks, so replica coherence
        checks are unaffected; only *resolution* stops returning actors
        that can no longer answer.
        """
        for coordinator in self.coordinators:
            if coordinator.crashed:
                continue
            masked = coordinator.directory.quarantine_node(node)
            self.tracer.on_quarantine(
                "quarantined", coordinator.node_id, self.clock.now,
                target_node=node, masked=masked,
            )
        self.bus.on_node_down(node)

    # -- introspection -------------------------------------------------------------

    def actor_record(self, address: ActorAddress) -> ActorRecord | None:
        return self.coordinators[address.node].actors.get(address)

    def directory_of(self, node: int = 0) -> Directory:
        """One node's visibility replica (node 0 by convention)."""
        return self.coordinators[node].directory

    def resolve(self, pattern, space: SpaceAddress | None = None,
                node: int = 0) -> list[ActorAddress]:
        """Who would ``send(pattern@space)`` currently consider? (sorted)

        Pure introspection against ``node``'s replica — no message moves.
        Useful for assertions, monitoring dashboards, and the examples.
        Goes through the node's resolution cache, exactly like a real
        dispatch would.
        """
        from repro.core.matching import resolve_actors

        coordinator = self.coordinators[node]
        scope = space if space is not None else self.root_space
        return list(
            resolve_actors(coordinator.directory, pattern, scope,
                           cache=coordinator.resolution_cache, ordered=True)
        )

    def resolution_cache_stats(self, node: int | None = None) -> dict:
        """Resolution-cache counters, per node or summed across nodes."""
        if node is not None:
            return self.coordinators[node].resolution_cache.stats()
        total: dict = {}
        for coordinator in self.coordinators:
            for key, value in coordinator.resolution_cache.stats().items():
                total[key] = total.get(key, 0) + value
        return total

    def visible_attributes(self, target: MailAddress,
                           space: SpaceAddress | None = None,
                           node: int = 0) -> frozenset:
        """The attributes ``target`` is visible under in ``space`` (or empty)."""
        scope = space if space is not None else self.root_space
        directory = self.coordinators[node].directory
        if not directory.has_space(scope):
            return frozenset()
        entry = directory.space(scope).lookup(target)
        return entry.attributes if entry is not None else frozenset()

    def replicas_coherent(self) -> bool:
        """Do all directory replicas currently agree?  (Run to quiescence first.)"""
        snapshots = [c.directory.snapshot() for c in self.coordinators if not c.crashed]
        return all(s == snapshots[0] for s in snapshots[1:])

    def make_context(self, record: ActorRecord, cause=None) -> RuntimeContext:
        return RuntimeContext(self, record, cause=cause)

    # -- observability ----------------------------------------------------------

    def trace_events(self, kind: str | None = None) -> list:
        """The flight recorder's buffered events (optionally one kind)."""
        if kind is None:
            return list(self.event_log)
        return self.event_log.by_kind(kind)

    def export_trace(self, path: str) -> dict:
        """Write the buffered events as a Chrome ``trace_event`` file.

        The result opens directly in ``chrome://tracing`` / Perfetto
        with one track per node; returns the trace dict.
        """
        return export_chrome_trace(self.event_log, path)

    def export_observables(self) -> dict:
        """One coherent dump of the observable state the paper specifies.

        Consumed by the conformance oracle (``repro.check``) at trace
        boundaries; everything here is defined by §5 semantics, not by
        implementation detail: per-replica directory snapshots and
        quarantine masks, per-origin park sets (§5.6), parked dead
        letters, and which nodes are crashed.
        """
        return {
            "directories": {
                c.node_id: c.directory.snapshot() for c in self.coordinators
            },
            "masks": {
                c.node_id: c.directory.quarantined_nodes for c in self.coordinators
            },
            "parked": {c.node_id: c.export_parked() for c in self.coordinators},
            "dead_letters": self.dead_letters.export_pending(),
            "crashed": {c.node_id for c in self.coordinators if c.crashed},
        }

    def metrics_snapshot(self) -> dict:
        """Plain-data dump of every registered metric, plus live gauges."""
        for coordinator in self.coordinators:
            depth = sum(r.mailbox.pending for r in coordinator.actors.values()
                        if not r.terminated)
            self.metrics.gauge(f"queue_depth_node_{coordinator.node_id}").set(depth)
            self.metrics.gauge(f"parked_node_{coordinator.node_id}").set(
                len(coordinator.suspended) + len(coordinator.persistent))
        self.metrics.gauge("in_flight").set(len(self.in_flight))
        if self.admission is not None:
            for name, value in self.admission.metrics().items():
                self.metrics.gauge(f"admission_{name}").set(value)
        # Transport accounting rides along as gauges (nested counters of a
        # wrapped transport — e.g. LossyTransport's inner — are flattened).
        for name, value in self.transport.metrics_snapshot().items():
            if isinstance(value, dict):
                for inner_name, inner_value in value.items():
                    if not isinstance(inner_value, dict):
                        self.metrics.gauge(
                            f"transport_{name}_{inner_name}").set(inner_value)
            else:
                self.metrics.gauge(f"transport_{name}").set(value)
        return self.metrics.snapshot()

    # -- GC ---------------------------------------------------------------------------

    def hold(self, address: MailAddress) -> None:
        """Pin ``address`` as an external GC root."""
        self._held_roots.add(address)

    def release(self, address: MailAddress) -> None:
        """Drop the external root pin on ``address``."""
        self._held_roots.discard(address)

    def collect_garbage(self, delete: bool = True) -> GcReport:
        """Run a collection cycle over the whole system (driver privilege).

        Marks from the held roots and every *pending* message, per
        section 5.5: "an actor may be garbage collected if ... no
        messages containing its mail address are pending."  Pending
        covers more than the in-flight map — suspended and persistent
        envelopes parked at their origin coordinator (§5.6) and dead
        letters awaiting redelivery are all still undelivered messages,
        so the addresses they carry pin their referents too.  With
        ``delete=True`` collected actors are terminated and purged from
        every registry, and collected spaces destroyed.
        """
        acquaintances: dict[ActorAddress, set[MailAddress]] = {}
        all_actors: list[ActorAddress] = []
        active: list[ActorAddress] = []
        for coordinator in self.coordinators:
            for address, record in coordinator.actors.items():
                if record.terminated:
                    continue
                all_actors.append(address)
                if not record.mailbox.is_empty:
                    active.append(address)
            acquaintances.update(coordinator.acquaintances)

        def pin(envelope: Envelope) -> None:
            if envelope.target is not None:
                in_flight.add(envelope.target)
            if envelope.sender is not None:
                in_flight.add(envelope.sender)
            in_flight.update(scan_addresses(envelope.message.payload))
            if envelope.message.reply_to is not None:
                in_flight.add(envelope.message.reply_to)

        in_flight: set[MailAddress] = set()
        for envelope in self.in_flight.values():
            pin(envelope)
        for coordinator in self.coordinators:
            for envelope in coordinator.suspended:
                pin(envelope)
            for envelope, _delivered in coordinator.persistent:
                pin(envelope)
        for letter in self.dead_letters.letters():
            pin(letter.envelope)

        directory = self.coordinators[0].directory
        collector = GarbageCollector(directory, acquaintances)
        report = collector.collect(
            roots=set(self._held_roots),
            all_actors=all_actors,
            active_actors=active,
            in_flight=in_flight,
        )
        self.tracer.on_gc(0, self.clock.now, report)
        if delete:
            for address in report.collected_actors:
                self.coordinators[address.node].terminate_actor(address)
            for space in report.collected_spaces:
                if space != self.root_space:
                    self.coordinators[0].destroy_space(space)
        return report

    def __repr__(self):
        total = sum(len(c.actors) for c in self.coordinators)
        return (
            f"<ActorSpaceSystem nodes={self.topology.node_count} actors={total} "
            f"t={self.clock.now:.4f}>"
        )
