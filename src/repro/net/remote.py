"""The distribution seam: Transport, FailureDetector, and bus over TCP.

Three pieces make a node process a full ActorSpace replica:

* :class:`TcpTransport` — the existing
  :class:`~repro.runtime.transport.Transport` interface backed by real
  links.  Latency is real, so ``try_deliver`` answers 0.0 ("send now")
  or ``None`` ("cannot send"), and doubles as the failure detector's
  heartbeat oracle: probing *peer -> me* consults how recently the hub
  heard real bytes from the peer.  This is what lets the PR-3
  :class:`~repro.runtime.failure.FailureDetector` run unmodified — its
  suspect/confirm path is now driven by genuinely missed heartbeats.
* :class:`NetFailureDetector` — the simulator's detector narrowed to a
  single observer (this process's node); every process runs its own.
* :class:`RemoteSequencerBus` — the sequencer protocol
  (:class:`~repro.runtime.sequencer.SequencerCore`, shared with the
  simulator) spoken in BUS_SUBMIT/BUS_OP/SYNC_REQ frames: submissions
  travel to the seat, get stamped into one order with per-origin FIFO
  holdback, and fan out to every replica.  On sequencer death each
  replica independently re-elects by the core's rule (home seat while
  live, else the lowest live node) and re-drives its unacked
  submissions; dedup by (origin, origin_seq) keeps re-driven ops
  idempotent.  A recovering replica catches up by SYNC_REQ log replay.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.runtime.bus import BUS_PRIORITY, VisibilityOp
from repro.runtime.failure import FailureDetector
from repro.runtime.sequencer import CoreBacked, SequencerCore
from repro.runtime.transport import Transport
from repro.shard.bus import ShardFacade

from .codec import FrameKind

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import NodeRuntime


class TcpTransport(Transport):
    """Link liveness + heartbeat-recency oracle over the peer hub.

    The simulator's transports *decide* a latency and let the event queue
    enact it; over real sockets the latency just happens.  So this
    transport answers the two questions the runtime actually asks:

    * ``deliver_latency(me, dst)`` / ``try_deliver(me, dst)`` — may I
      route to ``dst`` right now?  ``NodeDownError`` / ``None`` when
      ``dst`` is confirmed down (terminal, feeds the dead-letter queue).
    * ``try_deliver(peer, me)`` — the detector's heartbeat probe:
      did real bytes from ``peer`` arrive within the recency window?
    """

    def __init__(self, runtime: "NodeRuntime", heartbeat_window: float):
        super().__init__()
        self.runtime = runtime
        #: How recently (wall seconds) a peer must have been heard for a
        #: heartbeat probe to succeed; > one heartbeat interval so a
        #: single delayed beacon is not a miss.
        self.heartbeat_window = heartbeat_window
        #: Nodes confirmed down by this process's detector.
        self.crashed: set[int] = set()
        #: Last HEARTBEAT received per peer: (peer clock stamp, local
        #: clock at receipt).  Echoed back in our next beacon so the
        #: peer can close an NTP-style four-timestamp exchange.
        self._hb_seen: dict[int, tuple[float, float]] = {}

    # -- heartbeat clock exchange ------------------------------------------------

    def on_heartbeat(self, src: int, payload) -> None:
        """Fold an inbound HEARTBEAT into the clock-offset estimate.

        Each beacon carries the sender's clock (``t``) plus an echo of
        the last beacon *we* sent it (``echo_t``, our clock when it
        left) and the hold time between receiving and echoing it
        (``echo_dt``).  That completes the four timestamps of one
        NTP-style sample — the periodic liveness traffic doubles as a
        free, continuously refreshing clock-sync stream.
        """
        if not isinstance(payload, dict):
            return
        t_peer = payload.get("t")
        if not isinstance(t_peer, (int, float)):
            return
        now = self.runtime.clock.now
        self._hb_seen[src] = (t_peer, now)
        echo_t = payload.get("echo_t")
        echo_dt = payload.get("echo_dt")
        if isinstance(echo_t, (int, float)) and isinstance(echo_dt, (int, float)):
            # Our beacon left at echo_t, reached the peer at
            # (t_peer - echo_dt) on its clock, and its reply left at
            # t_peer, arriving now.
            self.runtime.hub.clock_sync.add_sample(
                src, echo_t, t_peer - echo_dt, t_peer, now)

    def heartbeat_payload(self, dst: int) -> dict:
        """The beacon body for ``dst``: our clock + echo of its last one."""
        now = self.runtime.clock.now
        payload = {"node": self.runtime.node_id, "t": now}
        seen = self._hb_seen.get(dst)
        if seen is not None:
            t_peer, heard_at = seen
            payload["echo_t"] = t_peer
            payload["echo_dt"] = now - heard_at
        return payload

    def node_is_down(self, node: int) -> bool:
        return node in self.crashed

    def crash_node(self, node: int) -> None:
        self.crashed.add(node)

    def recover_node(self, node: int) -> None:
        self.crashed.discard(node)

    def recency(self, node: int) -> float | None:
        """Seconds since *any* frame arrived from ``node`` (None: never).

        This is the piggybacked-liveness oracle: every inbound frame —
        envelope, bus op, batch member — refreshes the hub's last-heard
        table, so a peer too busy to slot explicit HEARTBEATs into its
        write stream still reads as alive as long as its data flows.
        The sender-side complement lives in the runtime's heartbeat
        loop, which suppresses explicit beacons on links that carried
        data within the last interval.
        """
        heard_at = self.runtime.hub.last_heard.get(node)
        if heard_at is None:
            return None
        return time.monotonic() - heard_at

    def try_deliver(self, src_node: int, dst_node: int) -> float | None:
        self.attempts += 1
        me = self.runtime.node_id
        if dst_node == me and src_node != me:
            # Heartbeat probe: has src been heard within the window?
            since = self.recency(src_node)
            if since is None or since > self.heartbeat_window:
                self.drops += 1
                return None
            return 0.0
        if dst_node in self.crashed or src_node in self.crashed:
            self.drops += 1
            return None
        if dst_node != me and not self.runtime.hub.connected(dst_node):
            self.drops += 1
            return None
        return 0.0

    def deliver_latency(self, src_node: int, dst_node: int,
                        max_retries: int = 100) -> float:
        # Confirmed crashes are terminal, never retried (matches
        # NetworkTransport): the router turns this into a DLQ capture.
        if dst_node in self.crashed or src_node in self.crashed:
            self.attempts += 1
            self.drops += 1
            from repro.core.errors import NodeDownError

            down = dst_node if dst_node in self.crashed else src_node
            raise NodeDownError(f"node {down} is down")
        self.attempts += 1
        return 0.0

    def timeout_interval(self, src_node: int, dst_node: int) -> float:
        return self.heartbeat_window


class NetFailureDetector(FailureDetector):
    """The PR-3 detector with one real vantage point: this process.

    ``_tick`` runs on the node's wall-clock event pump; the heartbeat
    probe consults the hub's last-heard table through
    :meth:`TcpTransport.try_deliver`.  Suspicion and confirmation
    therefore reflect genuinely missing bytes, not a model.  Recovery is
    *not* detected here — a confirmed-down peer reads as down forever in
    the transport — the frame-receive path notices returning peers and
    calls ``runtime.on_peer_recovered`` instead.
    """

    def __init__(self, runtime: "NodeRuntime", interval: float = 0.2,
                 suspect_after: int = 2, confirm_after: int = 4):
        super().__init__(runtime, interval=interval,
                         suspect_after=suspect_after,
                         confirm_after=confirm_after)
        self.observers = [runtime.node_id]


class RemoteSequencerBus(CoreBacked):
    """The sequencer total-order protocol over BUS_* frames.

    The TCP driver over a per-process
    :class:`~repro.runtime.sequencer.SequencerCore`: a submission travels
    to the seat as BUS_SUBMIT (or is sequenced in place when this node
    holds the seat), the seat fans each sequenced op out as BUS_OP, and
    the origin retires its unacked op when the BUS_OP echo arrives.  The
    driver adds what only the wire needs: SYNC_REQ state transfer, gap
    sync, re-drive timers and failover reporting.

    Origin-side callbacks (``on_applied``/``on_rejected``) cannot cross
    the wire; the origin keeps its local op object in the core's unacked
    set and substitutes it when the sequenced copy comes back, so
    apply-time validation still reports to the caller that issued the op.
    """

    FAILOVER_DELAY = 0.05

    def __init__(self, runtime: "NodeRuntime", shard_id: int = 0,
                 home_node: int | None = None):
        self.runtime = runtime
        self.core = SequencerCore(runtime.nodes, home_node)
        self.core.shard_id = shard_id
        self._redrive_scheduled = False
        self._gap_sync_scheduled = False
        self.protocol_messages = 0
        self.failovers = 0

    def _applied_cursor(self) -> int:
        return self.runtime.coordinator.applied_cursor(self.core.shard_id)

    # -- origin side -------------------------------------------------------------

    def submit(self, op: VisibilityOp) -> None:
        """Accept a local op for global ordering (never raises)."""
        self.core.track(op)
        self._send_submit(op)

    def _send_submit(self, op: VisibilityOp) -> None:
        if self.core.is_sequenced(op):
            return
        seat = self.core.sequencer_node
        if seat == self.runtime.node_id:
            self._sequence(op)
            return
        # An unreachable sequencer is fine: the op stays unacked and the
        # failover/reconnect paths re-drive it.
        self.protocol_messages += 1
        self.runtime.hub.send(seat, FrameKind.BUS_SUBMIT, {"op": op})

    # -- sequencer side ----------------------------------------------------------

    def on_submit(self, op: VisibilityOp) -> None:
        """BUS_SUBMIT arrived; only meaningful if we are the sequencer."""
        if self.runtime.node_id == self.core.sequencer_node:
            # A stale submit aimed at a deposed sequencer is dropped; the
            # origin re-elects and re-drives on its own.
            self._sequence(op)

    def _sequence(self, op: VisibilityOp) -> None:
        me = self.runtime.node_id
        event_log = self.runtime.event_log
        for seq, ready in self.core.sequence(op):
            if event_log is not None and event_log.enabled:
                event_log.emit(
                    "bus_sequenced", self.runtime.clock.now, me, None,
                    global_seq=seq, op=ready.kind.value,
                    origin_node=ready.origin_node,
                    origin_seq=ready.origin_seq,
                )
            for node in self.core.nodes:
                if node == me:
                    self._deliver_local(seq, ready)
                else:
                    self.protocol_messages += 1
                    self.runtime.hub.send(node, FrameKind.BUS_OP,
                                          {"seq": seq, "op": ready})

    # -- replica side ------------------------------------------------------------

    def on_op(self, seq: int, op: VisibilityOp) -> None:
        """A globally sequenced op arrived (fan-out or SYNC replay)."""
        local = self.core.record(seq, op)
        self.runtime.coordinator.note_own_op(op)
        self._deliver_local(seq, local if local is not None else op)
        if self._applied_cursor() <= seq:
            # This op landed beyond the applied cursor: some earlier seq
            # is missing (lost frame, or fan-out raced a failover).  Ask
            # the sequencer to replay the hole after a debounce — the
            # stream self-heals instead of stalling at the gap forever.
            self._schedule_gap_sync()

    def _deliver_local(self, seq: int, op: VisibilityOp) -> None:
        if seq < self._applied_cursor():
            return  # SYNC replay overlap: already applied here
        self.runtime.coordinator.on_bus_delivery(seq, op)

    # -- state transfer ----------------------------------------------------------

    def _send_sync_req(self, node: int) -> None:
        self.protocol_messages += 1
        self.runtime.hub.send(
            node, FrameKind.SYNC_REQ,
            {"node": self.runtime.node_id, "from_seq": self._applied_cursor(),
             "shard": self.core.shard_id})

    def request_sync(self) -> None:
        """Ask the current sequencer to replay the log we have not applied."""
        if self.core.sequencer_node != self.runtime.node_id:
            self._send_sync_req(self.core.sequencer_node)

    def on_sync_req(self, node: int, from_seq: int) -> None:
        """Replay every logged op >= ``from_seq`` back to ``node``."""
        log = self.core.log
        for seq in sorted(s for s in log if s >= from_seq):
            self.protocol_messages += 1
            self.runtime.hub.send(node, FrameKind.BUS_OP,
                                  {"seq": seq, "op": log[seq]})

    def on_peer_up(self, node: int) -> None:
        """A peer link registered; catch up if it holds our sequencer role."""
        if node == self.core.sequencer_node:
            self.request_sync()
        elif self.core.sequencer_node == self.runtime.node_id:
            # We hold the seat.  A (re)starting seat-holder must adopt
            # the existing stream before sequencing over it — otherwise
            # it would re-mint seq numbers replicas have already applied
            # and those ops would be silently skipped.  Every replica
            # mirrors the log, so the newly linked peer can serve the
            # replay; a current seat-holder gets an empty reply.
            self._send_sync_req(node)

    # -- failover ----------------------------------------------------------------

    def on_node_down(self, node: int) -> None:
        if node == self.core.sequencer_node:
            self._elect("sequencer_down")
        elif self.core.unacked:
            self._schedule_redrive()

    def on_node_recovered(self, node: int) -> None:
        # Every replica re-evaluates the core's rule against its own
        # liveness view, so all converge on the same seat.
        self._elect("sequencer_recovered")

    def rebalance(self, node: int) -> None:
        """Move this shard's home seat to ``node`` and re-elect, live."""
        self.core.home_node = node
        self._elect("rebalance")

    def _elect(self, reason: str) -> None:
        if self.core.elect(self.runtime.transport.node_is_down):
            seat = self.core.sequencer_node
            self.failovers += 1
            tracer = self.runtime.tracer
            if tracer is not None:
                tracer.on_failover(node=seat, t=self.runtime.clock.now,
                                   protocol="sequencer-tcp", reason=reason,
                                   new_leader=seat)
        if self.core.unacked:
            self._schedule_redrive()

    def _schedule_redrive(self) -> None:
        if self._redrive_scheduled:
            return
        self._redrive_scheduled = True
        self.runtime.events.schedule(
            self.runtime.clock.now + self.FAILOVER_DELAY, self._redrive,
            priority=BUS_PRIORITY, tag=("bus_ctl",))

    def _redrive(self) -> None:
        self._redrive_scheduled = False
        for op in self.core.redrive_order():
            self._send_submit(op)

    def _schedule_gap_sync(self) -> None:
        if self._gap_sync_scheduled:
            return
        self._gap_sync_scheduled = True
        self.runtime.events.schedule(
            self.runtime.clock.now + self.FAILOVER_DELAY, self._gap_sync,
            priority=BUS_PRIORITY, tag=("bus_ctl",))

    def _gap_sync(self) -> None:
        self._gap_sync_scheduled = False
        if (self.core.sequencer_node == self.runtime.node_id
                or self._applied_cursor() > self.core.log_high):
            return  # gap closed (or we hold the seat: nothing to ask)
        self.request_sync()
        # Re-arm: the replay itself rides the wire and can be lost too.
        self._schedule_gap_sync()

    # -- introspection -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        core = self.core
        return {
            "shard": core.shard_id,
            "sequencer_node": core.sequencer_node,
            "home_node": core.home_node,
            "ops_sequenced": core.ops_sequenced,
            "protocol_messages": self.protocol_messages,
            "failovers": self.failovers,
            "log_length": len(core.log),
            "unacked": len(core.unacked),
        }

    def __repr__(self):
        return (f"<RemoteSequencerBus shard={self.core.shard_id} "
                f"@n{self.core.sequencer_node} "
                f"log={len(self.core.log)} unacked={len(self.core.unacked)}>")


class ShardedRemoteBus(ShardFacade):
    """N per-shard :class:`RemoteSequencerBus` instances, one facade.

    Frames carry the shard on the op (``op.shard``, stamped by the
    submitting coordinator's router) or, for SYNC_REQ, in the payload;
    the node routes each to its shard's driver.  Every shard elects and
    re-drives independently, and a recovering replica catches up per
    shard.
    """

    def __init__(self, runtime: "NodeRuntime", shard_map):
        super().__init__(shard_map, lambda k, home: RemoteSequencerBus(
            runtime, shard_id=k, home_node=home))

    def on_peer_up(self, node: int) -> None:
        for bus in self.shards.values():
            bus.on_peer_up(node)

    def request_sync(self) -> None:
        for bus in self.shards.values():
            bus.request_sync()

    def apply_map(self, manifest: dict) -> bool:
        """Adopt a gossiped shard map if its version is newer."""
        if not self.map.apply_if_newer(manifest):
            return False
        for k, bus in self.shards.items():
            seat = self.map.sequencer_for(k)
            if seat != bus.core.home_node:
                bus.rebalance(seat)
        return True

    # -- introspection -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return {
            "shards": {k: b.metrics_snapshot()
                       for k, b in sorted(self.shards.items())},
            "map_version": self.map.version,
            "ops_sequenced": self.ops_sequenced,
            "protocol_messages": self.protocol_messages,
            "failovers": self.failovers,
            "unacked": sum(len(b.core.unacked) for b in self.shards.values()),
        }
