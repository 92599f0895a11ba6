"""The sequencer protocol core: one stream's total order, free of IO.

Section 7.3 orders visibility changes through "a centralized broadcaster
and sequencer".  :class:`SequencerCore` holds that protocol's state for
one stream (the whole plane, or one shard) with no clock, event queue,
hub or transport: its inputs are ops and liveness, its outputs the
``(seq, op)`` pairs the caller must fan out.  It owns, exactly once:
per-origin FIFO holdback; dedup by ``(origin_node, origin_seq)`` (the
identity that survives re-drives, the wire and restarts) against the
holdback's per-origin watermark; the log with its O(1) high watermark
and ``next_seq``; the unacked set and its re-drive order; the
transactional-outbox persist; tick/journal stamping; and the election
rule.  The drivers add transport:
:class:`~repro.runtime.bus.SequencerBus` (simulator),
:class:`~repro.net.remote.RemoteSequencerBus` (TCP), and
:class:`~repro.runtime.bus.TokenRingBus`, which uses the holdback and
the log while its token decides who stamps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .bus import VisibilityOp


class TickCounter:
    """Node-local monotonic sequencing tick shared by a node's shard cores.

    The sequencing node stamps each op it orders; a node that logs an op
    stamped elsewhere (fan-in, SYNC replay, disk restore) moves its own
    counter past that tick, so the ticks of one shard's log keep rising
    with ``seq`` across failovers and restarts.
    """

    __slots__ = ("next",)

    def __init__(self):
        self.next = 0

    def observe(self, op: VisibilityOp) -> None:
        if op.tick is None:
            op.tick = self.next
            self.next += 1
        elif op.tick >= self.next:
            self.next = op.tick + 1


class SequencerCore:
    """Protocol state of one sequenced stream (see module docstring)."""

    def __init__(self, nodes: Iterable[int], home_node: int | None = None):
        self.nodes = sorted(nodes)
        if not self.nodes:
            raise ValueError("a sequencer needs at least one node")
        #: Which visibility-plane shard this stream orders (0 = the whole
        #: plane when unsharded).
        self.shard_id = 0
        #: Preferred seat (the shard map's assignment); see :meth:`elect`.
        self.home_node = self.nodes[0] if home_node is None else home_node
        self.sequencer_node = self.home_node
        #: The sequenced log: seq -> op (state-transfer source).
        self.log: dict[int, VisibilityOp] = {}
        #: Highest seq present in ``log``.
        self.log_high = -1
        self.next_seq = 0
        self.ops_sequenced = 0
        #: Per-origin FIFO: the next ``origin_seq`` each origin may release.
        #: Release is contiguous per origin, so everything below the
        #: watermark is in the order: this is also the dedup set.
        self.expected: dict[int, int] = {}
        #: Ops waiting for an earlier ``origin_seq`` of the same origin.
        self.holdback: dict[tuple[int, int], VisibilityOp] = {}
        #: Submissions not yet seen in the order, re-driven after failover.
        self.unacked: dict[tuple[int, int], VisibilityOp] = {}
        #: Optional :class:`repro.store.NodeStore` (transactional outbox).
        self.store = None
        #: Shared per-node tick counter (sharded planes only).
        self.ticks: TickCounter | None = None
        #: Shared cross-shard ``(shard, seq)`` journal (simulator only).
        self.journal: list[tuple[int, int]] | None = None

    # -- origin side -------------------------------------------------------------

    def track(self, op: VisibilityOp) -> None:
        """Hold ``op`` as unacked until its sequenced copy is recorded."""
        self.unacked[(op.origin_node, op.origin_seq)] = op

    def untrack(self, op: VisibilityOp) -> None:
        self.unacked.pop((op.origin_node, op.origin_seq), None)

    def is_sequenced(self, op: VisibilityOp) -> bool:
        return op.origin_seq < self.expected.get(op.origin_node, 0)

    def redrive_order(self) -> list[VisibilityOp]:
        """Unacked submissions in per-origin FIFO order."""
        return [self.unacked[key] for key in sorted(self.unacked)]

    # -- sequencer side ----------------------------------------------------------

    def hold(self, op: VisibilityOp) -> list[VisibilityOp]:
        """Per-origin FIFO holdback: the contiguous run ``op`` releases."""
        origin = op.origin_node
        holdback = self.holdback
        holdback[(origin, op.origin_seq)] = op
        expected = self.expected.get(origin, 0)
        released = []
        while (origin, expected) in holdback:
            released.append(holdback.pop((origin, expected)))
            expected += 1
        self.expected[origin] = expected
        return released

    def append(self, op: VisibilityOp) -> int:
        """Give ``op`` the next seq after everything logged; record it."""
        seq = max(self.next_seq, self.log_high + 1)
        self.next_seq = seq + 1
        self.ops_sequenced += 1
        self.record(seq, op)
        return seq

    def sequence(self, op: VisibilityOp) -> list[tuple[int, VisibilityOp]]:
        """Sequencer role: accept ``op``; return the pairs it releases.

        A duplicate of an op already in the order (a re-drive that raced
        the original) releases nothing.
        """
        if self.is_sequenced(op):
            return []
        return [(self.append(ready), ready) for ready in self.hold(op)]

    # -- every replica -----------------------------------------------------------

    def record(self, seq: int, op: VisibilityOp) -> VisibilityOp | None:
        """Log a sequenced op (stamped here, fanned in, or replayed).

        On first sight of ``seq`` the op is tick-stamped, journaled and
        persisted before the caller may deliver it.  Returns this
        origin's own unacked copy of the op (the one carrying callbacks),
        or ``None``.
        """
        first_sight = seq not in self.log
        self._remember(seq, op)
        if first_sight:
            if self.journal is not None:
                self.journal.append((self.shard_id, seq))
            if self.store is not None:
                self.store.append_op(seq, op, tick=op.tick)
                self.store.commit()
        return self.unacked.pop((op.origin_node, op.origin_seq), None)

    def restore_log(self, ops: dict[int, VisibilityOp]) -> None:
        """Rebuild the log, dedup set, FIFO watermarks and ``next_seq``
        from persisted ops, without persisting or delivering anything."""
        for seq in sorted(ops):
            if seq not in self.log:
                self._remember(seq, ops[seq])
        self.next_seq = max(self.next_seq, self.log_high + 1)

    def _remember(self, seq: int, op: VisibilityOp) -> None:
        self.log[seq] = op
        if seq > self.log_high:
            self.log_high = seq
        origin = op.origin_node
        if op.origin_seq >= self.expected.get(origin, 0):
            self.expected[origin] = op.origin_seq + 1
        if self.ticks is not None:
            self.ticks.observe(op)

    # -- election ----------------------------------------------------------------

    def elect(self, is_down: Callable[[int], bool]) -> bool:
        """Seat the home node while it is live, else the lowest live node.

        Every replica applying this rule to the same liveness view picks
        the same seat.  Returns whether the seat moved; with no live node
        the seat stays put.
        """
        live = [n for n in self.nodes if not is_down(n)]
        if not live:
            return False
        seat = self.home_node if self.home_node in live else live[0]
        if seat == self.sequencer_node:
            return False
        self.sequencer_node = seat
        return True


class CoreBacked:
    """The bus attributes every driver exposes as views of its core."""

    core: SequencerCore

    @property
    def log(self) -> dict[int, VisibilityOp]:
        return self.core.log

    @property
    def store(self):
        return self.core.store

    @store.setter
    def store(self, store) -> None:
        self.core.store = store

    @property
    def ops_sequenced(self) -> int:
        return self.core.ops_sequenced

    @property
    def sequencer_node(self) -> int:
        return self.core.sequencer_node
