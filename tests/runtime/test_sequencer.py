"""The sequencer core, its tick counter, and sim/TCP driver equivalence.

The core is pure protocol state, so most of these tests drive it by hand.
The equivalence test runs one submission script — including a sequencer
crash with submissions in flight — through the simulator's
``SequencerBus`` and through N ``RemoteSequencerBus`` drivers joined by an
in-memory hub that pushes every payload through the wire codec.  Both
drivers share the core, so both must produce the same log.
"""

from types import SimpleNamespace

from repro.core.errors import NodeDownError
from repro.net.codec import FrameKind, decode_value, encode_value
from repro.net.remote import RemoteSequencerBus, ShardedRemoteBus
from repro.runtime.bus import BUS_PRIORITY, OpKind, SequencerBus, VisibilityOp
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventQueue
from repro.runtime.sequencer import SequencerCore, TickCounter
from repro.runtime.transport import Transport
from repro.shard.map import ShardMap


def op(origin, origin_seq, shard=0):
    return VisibilityOp(OpKind.MAKE_VISIBLE, {}, origin, origin_seq,
                        shard=shard)


def keys(pairs):
    return [(seq, o.origin_node, o.origin_seq) for seq, o in pairs]


class RecordingStore:
    def __init__(self):
        self.records = []
        self.commits = 0

    def append_op(self, seq, op, tick=None):
        self.records.append((seq, op.origin_node, op.origin_seq, tick))

    def commit(self):
        self.commits += 1


class TestCore:
    def test_out_of_order_origin_is_released_in_fifo_order(self):
        core = SequencerCore([0, 1, 2])
        assert core.sequence(op(1, 2)) == []
        assert core.sequence(op(1, 1)) == []
        assert keys(core.sequence(op(2, 0))) == [(0, 2, 0)]
        assert keys(core.sequence(op(1, 0))) == [(1, 1, 0), (2, 1, 1),
                                                 (3, 1, 2)]
        assert not core.holdback
        assert core.expected == {1: 3, 2: 1}
        assert core.ops_sequenced == 4

    def test_redriven_duplicate_is_dropped(self):
        core = SequencerCore([0, 1])
        assert keys(core.sequence(op(1, 0))) == [(0, 1, 0)]
        # A re-drive is a different object (it crossed the wire again)
        # with the same identity.
        assert core.sequence(op(1, 0)) == []
        assert core.ops_sequenced == 1
        # An op this core only saw fanned in is a duplicate too.
        core.record(1, op(2, 0))
        assert core.sequence(op(2, 0)) == []
        assert core.log_high == 1

    def test_elected_core_continues_past_the_log_watermark(self):
        replica = SequencerCore([0, 1, 2])
        for seq in range(5):
            replica.record(seq, op(0, seq))
        replica.record(7, op(2, 0))  # fan-in ahead of a hole
        assert replica.next_seq == 0 and replica.log_high == 7
        assert replica.elect(lambda n: n == 0)
        assert replica.sequencer_node == 1
        assert keys(replica.sequence(op(1, 0))) == [(8, 1, 0)]
        assert keys(replica.sequence(op(1, 1))) == [(9, 1, 1)]
        # FIFO watermarks came from the fanned-in ops: origin 0's next
        # op releases at once.
        assert keys(replica.sequence(op(0, 5))) == [(10, 0, 5)]

    def test_home_seat_returns_on_recovery(self):
        core = SequencerCore([0, 1, 2, 3], home_node=2)
        assert core.sequencer_node == 2
        assert not core.elect(lambda n: False)
        assert core.elect(lambda n: n == 2)
        assert core.sequencer_node == 0  # lowest live stands in
        assert core.elect(lambda n: n in (0, 2))
        assert core.sequencer_node == 1
        assert core.elect(lambda n: False)
        assert core.sequencer_node == 2  # home again
        assert not core.elect(lambda n: True)  # total outage: seat stays
        assert core.sequencer_node == 2

    def test_restore_log_rebuilds_watermarks(self):
        core = SequencerCore([0, 1])
        core.restore_log({3: op(0, 1), 0: op(0, 0), 1: op(1, 0)})
        assert core.log_high == 3 and core.next_seq == 4
        assert core.expected == {0: 2, 1: 1}
        assert core.ops_sequenced == 0
        assert core.is_sequenced(op(0, 1))
        assert core.sequence(op(0, 1)) == []
        assert keys(core.sequence(op(0, 2))) == [(4, 0, 2)]
        assert keys(core.sequence(op(1, 1))) == [(5, 1, 1)]

    def test_outbox_persists_first_sight_once(self):
        core = SequencerCore([0, 1])
        core.store = RecordingStore()
        core.sequence(op(0, 0))
        core.record(0, op(0, 0))  # the same seq replayed
        core.record(1, op(1, 0))
        assert core.store.records == [(0, 0, 0, None), (1, 1, 0, None)]
        assert core.store.commits == 2
        core.restore_log({2: op(1, 1)})  # restore never re-persists
        assert len(core.store.records) == 2

    def test_unacked_retires_on_record_and_redrives_in_fifo_order(self):
        core = SequencerCore([0, 1, 2])
        mine = [op(2, 1), op(2, 0), op(1, 0)]
        for o in mine:
            core.track(o)
        assert core.redrive_order() == [mine[2], mine[1], mine[0]]
        echo = op(2, 0)  # the sequenced copy fanned back to the origin
        assert core.record(0, echo) is mine[1]
        assert core.record(1, op(0, 0)) is None
        assert core.redrive_order() == [mine[2], mine[0]]

    def test_shared_ticks_rise_with_seq_and_witness_foreign_stamps(self):
        ticks = TickCounter()
        a, b = SequencerCore([0, 1]), SequencerCore([0, 1])
        a.ticks = b.ticks = ticks
        stamped = [a.sequence(op(0, 0)), b.sequence(op(0, 0)),
                   a.sequence(op(0, 1))]
        assert [pairs[0][1].tick for pairs in stamped] == [0, 1, 2]
        foreign = op(1, 0)
        foreign.tick = 40
        b.record(1, foreign)  # stamped by another node's sequencer
        assert foreign.tick == 40
        assert b.sequence(op(0, 1))[0][1].tick == 41


class TestCoordinatorSeam:
    """``applied_cursor``/``note_own_op``: one seam for both plane kinds."""

    def test_unsharded(self):
        from repro.runtime.system import ActorSpaceSystem

        coordinator = ActorSpaceSystem().coordinators[0]
        assert coordinator.applied_cursor() == 0
        coordinator.note_own_op(op(0, 7))
        coordinator.note_own_op(op(0, 3))  # never moves backwards
        coordinator.note_own_op(op(1, 50))  # another origin's op
        assert coordinator._next_origin_seq == 8

    def test_sharded(self):
        from repro.runtime.network import Topology
        from repro.runtime.system import ActorSpaceSystem

        system = ActorSpaceSystem(topology=Topology.lan(2), shards=4)
        coordinator = system.coordinators[1]
        coordinator.note_own_op(op(1, 4, shard=2))
        assert coordinator._origin_seqs == {2: 5}
        system.create_space(attributes="x", node=0)
        system.run()
        # Space topology rides shard 0; every sequenced op applied here.
        assert coordinator.applied_cursor(0) == system.bus.ops_sequenced > 0
        assert coordinator.applied_cursor(3) == 0


# -- cross-driver equivalence ----------------------------------------------------

LATENCY = 0.001


class CrashableTransport(Transport):
    """Constant latency; crashed nodes are unreachable."""

    def __init__(self):
        super().__init__()
        self.crashed: set[int] = set()

    def node_is_down(self, node):
        return node in self.crashed

    def try_deliver(self, src_node, dst_node):
        return LATENCY

    def deliver_latency(self, src_node, dst_node, max_retries=100):
        if src_node in self.crashed or dst_node in self.crashed:
            raise NodeDownError(f"link {src_node}->{dst_node} is down")
        return LATENCY


class FakeCoordinator:
    """Applies one stream in seq order, like the real hold-back."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.cursor = 0
        self.held = {}
        self.applied = []

    def applied_cursor(self, shard=0):
        return self.cursor

    def note_own_op(self, op):
        pass

    def on_bus_delivery(self, seq, op):
        self.held[seq] = op
        while self.cursor in self.held:
            self.applied.append((self.cursor, self.held.pop(self.cursor)))
            self.cursor += 1


class FakeCluster:
    """N node runtimes on one virtual timeline, joined by an in-memory hub.

    Every frame payload is encoded and decoded, so each node holds its
    own copies of the ops exactly as over TCP.  A crashed node neither
    sends nor receives.
    """

    def __init__(self, n, shards=1):
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.crashed: set[int] = set()
        self.nodes = list(range(n))
        self.runtimes = {}
        for node in self.nodes:
            rt = SimpleNamespace(
                node_id=node, nodes=self.nodes, clock=self.clock,
                events=self.events, event_log=None, tracer=None,
                transport=SimpleNamespace(down=set()),
                coordinator=FakeCoordinator(node))
            rt.transport.node_is_down = rt.transport.down.__contains__
            rt.hub = SimpleNamespace(
                send=lambda dst, kind, payload, src=node:
                self.send(src, dst, kind, payload))
            if shards == 1:
                rt.bus = RemoteSequencerBus(rt)
                rt.stream = lambda _k, rt=rt: rt.bus
            else:
                rt.bus = ShardedRemoteBus(rt, ShardMap(shards, self.nodes))
                rt.stream = lambda k, rt=rt: rt.bus.shards[k]
            self.runtimes[node] = rt

    def send(self, src, dst, kind, payload):
        if src in self.crashed:
            return
        data = encode_value(payload)
        self.events.schedule(
            self.clock.now + LATENCY,
            lambda: self.on_frame(dst, kind, decode_value(data)),
            priority=BUS_PRIORITY, tag=("bus", dst))

    def on_frame(self, dst, kind, payload):
        if dst in self.crashed:
            return  # lost with the node
        rt = self.runtimes[dst]
        if kind == FrameKind.BUS_SUBMIT:
            rt.stream(payload["op"].shard).on_submit(payload["op"])
        elif kind == FrameKind.BUS_OP:
            rt.stream(payload["op"].shard).on_op(payload["seq"], payload["op"])
        elif kind == FrameKind.SYNC_REQ:
            rt.stream(payload["shard"]).on_sync_req(payload["node"],
                                                    payload["from_seq"])
        else:  # pragma: no cover - the bus sends nothing else
            raise AssertionError(kind)

    def submit(self, o):
        self.runtimes[o.origin_node].bus.submit(o)

    def crash(self, node):
        self.crashed.add(node)
        for other, rt in self.runtimes.items():
            if other not in self.crashed:
                rt.transport.down.add(node)
                rt.bus.on_node_down(node)

    def run(self):
        while self.events:
            t, action = self.events.pop()
            self.clock.advance_to(t)
            action()


class SimDriver:
    def __init__(self, n):
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.transport = CrashableTransport()
        self.bus = SequencerBus(list(range(n)), self.events, self.clock,
                                self.transport)
        self.applied = {node: FakeCoordinator(node) for node in range(n)}
        self.bus.deliver = (
            lambda node, seq, o: self.applied[node].on_bus_delivery(seq, o))

    def submit(self, o):
        self.bus.submit(o)

    def crash(self, node):
        self.transport.crashed.add(node)
        self.bus.on_node_down(node)

    def run(self):
        while self.events:
            t, action = self.events.pop()
            self.clock.advance_to(t)
            action()


def script(driver):
    """Submissions from every origin, then a seat crash mid-flight."""
    counters = {}

    def submit(origin):
        seq = counters.get(origin, 0)
        counters[origin] = seq + 1
        driver.submit(op(origin, seq))

    for origin in (2, 1, 3, 0, 3, 3, 1, 2):
        submit(origin)
        driver.run()
    # Two submissions are in flight to seat 0 when it dies: both must be
    # re-driven at the replacement seat, in per-origin FIFO order.
    submit(3)
    submit(2)
    submit(3)
    driver.crash(0)
    driver.run()
    for origin in (1, 2, 3, 1):
        submit(origin)
        driver.run()


def log_keys(log):
    return [(seq, o.origin_node, o.origin_seq) for seq, o in sorted(log.items())]


def test_sim_and_tcp_drivers_produce_the_same_log():
    sim = SimDriver(4)
    script(sim)
    tcp = FakeCluster(4)
    script(tcp)

    expected = log_keys(sim.bus.log)
    assert len(expected) == 15
    assert [s for s, _o, _q in expected] == list(range(15))
    assert sim.bus.sequencer_node == 1
    for node in (1, 2, 3):
        rt = tcp.runtimes[node]
        assert rt.bus.sequencer_node == 1
        assert log_keys(rt.bus.log) == expected
        assert not rt.bus.core.unacked
        applied = [(s, o.origin_node, o.origin_seq)
                   for s, o in rt.coordinator.applied]
        assert applied == expected
        sim_applied = [(s, o.origin_node, o.origin_seq)
                       for s, o in sim.applied[node].applied]
        assert sim_applied == expected


def test_sharded_tcp_core_persists_rising_ticks(tmp_path):
    """Each node's shard cores share one tick counter; the sequencing
    node stamps it, so persisted records carry ``tick`` and it rises
    with ``seq`` within every shard."""
    from repro.store import NodeStore
    from repro.store.node_store import segment_paths
    from repro.store.segment import ReadReport, scan_segment

    n_shards = 2
    cluster = FakeCluster(2, shards=n_shards)
    stores = {}
    for node, rt in cluster.runtimes.items():
        for k, bus in rt.bus.shards.items():
            path = tmp_path / f"n{node}" / f"shard-{k}"
            bus.store = stores[node, k] = NodeStore(str(path))
    counters = {}
    for i in range(12):
        origin, shard = i % 2, (i // 2) % n_shards
        seq = counters.get((origin, shard), 0)
        counters[origin, shard] = seq + 1
        cluster.submit(op(origin, seq, shard=shard))
        if i % 3 == 2:
            cluster.run()
    cluster.run()
    for store in stores.values():
        store.close()

    for (node, k), store in stores.items():
        records = [rec for path in segment_paths(str(tmp_path / f"n{node}" / f"shard-{k}"))
                   for rec in scan_segment(path, ReadReport())
                   if isinstance(rec, dict) and rec.get("rec") == "op"]
        assert len(records) == 6, (node, k)
        assert all("tick" in rec for rec in records)
        by_seq = sorted((rec["seq"], rec["tick"]) for rec in records)
        ticks = [tick for _seq, tick in by_seq]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)
