"""Per-shard sequencers behind one bus-shaped facade.

The partitioned visibility plane runs one sequencer driver per shard —
:class:`~repro.runtime.bus.SequencerBus` in the simulator,
:class:`~repro.net.remote.RemoteSequencerBus` over TCP — each over its
own :class:`~repro.runtime.sequencer.SequencerCore`.  Each shard carries
a gap-free sequence of its own; there is no global sequence number.
Cross-shard order is reconstructed three ways:

* **online, per replica** — coordinators apply each shard's stream through
  its own hold-back cursor, parking ops whose containing space is not yet
  known (see ``Coordinator``); end states converge even though transient
  interleavings may differ between replicas;
* **online, for conformance** — the simulator's shared *journal* of
  ``(shard, seq)`` pairs records the exact sequencing order; when all
  shard sequencers are co-located (check mode) every replica observes
  precisely this order and the oracle replays it;
* **offline** — every sequenced op is stamped with a node-local monotonic
  *tick* from a counter shared by the node's shard cores, persisted with
  the op, and ``repro.shard.merge`` sorts by ``(tick, shard, seq)`` — a
  valid linear extension of all per-shard orders.

:class:`ShardFacade` is the part both transports share: routing by
``op.shard`` (stamped by the submitting coordinator), liveness fan-out,
seat moves and aggregate accounting.  :class:`ShardedBus` adds the
simulator's wiring and state transfer; ``ShardedRemoteBus`` adds frame
dispatch.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.bus import SequencerBus, VisibilityOp
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue
from repro.runtime.sequencer import TickCounter
from repro.runtime.transport import Transport

from .map import ShardMap


class ShardFacade:
    """One sequencer driver per shard, built by ``make_bus(shard, home)``."""

    def __init__(self, shard_map: ShardMap, make_bus: Callable):
        self.map = shard_map
        self.ticks = TickCounter()
        self.shards = {}
        for k in range(shard_map.n_shards):
            bus = make_bus(k, shard_map.sequencer_for(k))
            bus.core.shard_id = k
            bus.core.ticks = self.ticks
            self.shards[k] = bus

    def submit(self, op: VisibilityOp) -> None:
        """Route ``op`` to its home shard's sequencer (``op.shard``)."""
        self.shards[op.shard].submit(op)

    def on_node_down(self, node: int) -> None:
        for bus in self.shards.values():
            bus.on_node_down(node)

    def on_node_recovered(self, node: int) -> None:
        for bus in self.shards.values():
            bus.on_node_recovered(node)

    def rebalance(self, shard: int, node: int) -> int:
        """Move ``shard``'s home seat to ``node``, live; new map version."""
        self.shards[shard].rebalance(node)
        return self.map.assign(shard, node)

    # -- aggregate accounting ----------------------------------------------------

    @property
    def protocol_messages(self) -> int:
        return sum(b.protocol_messages for b in self.shards.values())

    @property
    def ops_sequenced(self) -> int:
        return sum(b.ops_sequenced for b in self.shards.values())

    @property
    def failovers(self) -> int:
        return sum(b.failovers for b in self.shards.values())

    def sequencer_nodes(self) -> dict[int, int]:
        """shard -> node currently holding that shard's sequencer role."""
        return {k: b.sequencer_node for k, b in self.shards.items()}

    def __repr__(self):
        seats = ",".join(
            f"{k}@n{b.sequencer_node}" for k, b in sorted(self.shards.items())
        )
        return f"<{type(self).__name__} {seats}>"


class ShardedBus(ShardFacade):
    """The simulator's facade: one :class:`SequencerBus` per shard."""

    def __init__(
        self,
        nodes: list[int],
        events: EventQueue,
        clock: VirtualClock,
        transport: Transport,
        shard_map: ShardMap,
        service_time: float = 0.0,
    ):
        super().__init__(shard_map, lambda _k, home: SequencerBus(
            nodes, events, clock, transport,
            sequencer_node=home, service_time=service_time))
        #: Cross-shard sequencing journal: (shard, per-shard seq) in the
        #: order ops were sequenced.  With co-located sequencers this is
        #: the exact order every replica applies, which is what the
        #: conformance oracle replays.
        self.journal: list[tuple[int, int]] = []
        for bus in self.shards.values():
            bus.core.journal = self.journal

    def wire(self, deliver, event_log, tracer) -> None:
        for inner in self.shards.values():
            inner.wire(deliver, event_log, tracer)

    def attach_store(self, make_store) -> None:
        """Attach one store per shard.

        ``make_store`` is a callable ``shard -> NodeStore`` so the caller
        chooses the on-disk layout (``data_dir/shard-K`` by convention —
        ``repro.shard.merge.shard_dirs`` discovers it).
        """
        for k, inner in self.shards.items():
            inner.store = make_store(k)

    def replay_to(self, node: int, cursors: dict[int, int]) -> int:
        """State transfer for a recovering replica, one shard at a time.

        ``cursors`` maps shard -> first per-shard sequence number the
        replica has *not* applied.  Each shard replays independently from
        its own log (or its own store namespace when no live replica can
        source the transfer) — a corrupted shard store never blocks
        recovery of the others.
        """
        total = 0
        for k, inner in self.shards.items():
            total += inner.replay_to(node, cursors.get(k, 0))
        return total

    @property
    def disk_replays(self) -> int:
        return sum(b.disk_replays for b in self.shards.values())
