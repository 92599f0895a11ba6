"""Tests: the causal flight recorder (event log, metrics, trace export)."""

import io
import json

import pytest

from repro.core.daemons import install_event_daemon, threshold_rule
from repro.core.matching import MatchStats
from repro.core.messages import Mode
from repro.runtime.eventlog import (
    EventLog,
    JsonlSink,
    TraceEvent,
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.runtime.metrics import HistogramMetric, MetricsRegistry
from repro.runtime.network import Topology
from repro.runtime.node import Node
from repro.runtime.system import ActorSpaceSystem
from repro.runtime.tracing import HISTOGRAM_RESERVOIR, Tracer


def traced_system(nodes=3, **kw):
    kw.setdefault("trace", True)
    return ActorSpaceSystem(topology=Topology.lan(nodes), seed=0, **kw)


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit("sent", 0.5, 1, None, mode="send")
        log.emit("delivered", 1.0, 2, None)
        assert len(log) == 2
        assert [e.kind for e in log.by_kind("sent")] == ["sent"]
        assert log.by_kind("delivered")[0].node == 2

    def test_ring_buffer_evicts_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("sent", float(i), 0, None, i=i)
        assert len(log) == 3
        assert [e.data["i"] for e in log] == [2, 3, 4]
        assert log.emitted_count == 5

    def test_disabled_emits_nothing(self):
        log = EventLog(enabled=False)
        assert log.emit("sent", 0.0, 0, None) is None
        assert len(log) == 0 and log.emitted_count == 0

    def test_subscriber_sees_events_and_unsubscribes(self):
        log = EventLog()
        seen = []
        unsubscribe = log.subscribe(seen.append)
        log.emit("sent", 0.0, 0, None)
        unsubscribe()
        log.emit("sent", 1.0, 0, None)
        assert len(seen) == 1

    def test_clear_keeps_sinks_and_subscribers(self):
        log = EventLog()
        sink = JsonlSink(io.StringIO())
        log.add_sink(sink)
        unsub = log.subscribe(lambda e: None)
        log.emit("sent", 0.0, 0, None)
        log.clear()
        assert len(log) == 0
        assert sink in log.sinks and len(log.subscribers) == 1
        unsub()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_jsonl_sink_round_trips(self):
        buffer = io.StringIO()
        log = EventLog()
        log.add_sink(JsonlSink(buffer))
        log.emit("dropped", 1.25, 2, None, reason="dead_letter")
        record = json.loads(buffer.getvalue())
        assert record["kind"] == "dropped"
        assert record["data"]["reason"] == "dead_letter"
        assert record["t"] == 1.25


class TestCausality:
    def test_envelopes_carry_trace_ids(self):
        system = traced_system()
        echo = system.create_actor(lambda ctx, m: ctx.send_to(m.reply_to, "pong")
                                   if m.reply_to else None, node=1)
        probe = system.create_actor(lambda ctx, m: None, node=0)
        system.send_to(echo, "ping", reply_to=probe)
        system.run()
        sent = system.trace_events("sent")
        assert all(e.trace_id is not None for e in sent)
        # The reply's trace id is the original send's envelope id.
        roots = [e for e in sent if e.parent_id is None]
        replies = [e for e in sent if e.parent_id is not None]
        assert replies and replies[0].trace_id == roots[0].envelope_id

    def test_every_delivery_chains_back_to_a_sent_event(self):
        """Acceptance: each delivered envelope has a causal chain whose
        root has a ``sent`` event."""
        system = traced_system()

        def relay(ctx, m):
            hops_left = m.payload
            if hops_left > 0:
                ctx.send("ring/*", hops_left - 1)

        for i in range(3):
            addr = system.create_actor(relay, node=i)
            system.make_visible(addr, f"ring/r{i}")
        system.run()
        system.send("ring/*", 5)
        system.run()
        system.broadcast("ring/**", 0)
        system.run()

        log = system.event_log
        sent_ids = {e.envelope_id for e in log.by_kind("sent")}
        delivered = log.by_kind("delivered")
        assert delivered, "workload should deliver messages"
        for event in delivered:
            chain = log.causal_chain(event.envelope_id)
            assert chain[0] == event.envelope_id
            assert chain[-1] in sent_ids, (
                f"delivery of envelope {event.envelope_id} has no causal "
                f"chain back to a sent event (chain: {chain})"
            )

    def test_scheduled_self_messages_are_rooted(self):
        system = traced_system()

        def ticker(ctx, m):
            if m.payload < 2:
                ctx.schedule(0.1, m.payload + 1)

        addr = system.create_actor(ticker, node=0)
        system.send_to(addr, 0)
        system.run()
        scheduled = [e for e in system.trace_events("sent")
                     if e.data.get("scheduled")]
        assert len(scheduled) == 2
        assert all(e.parent_id is not None for e in scheduled)

    def test_suspension_release_events(self):
        system = traced_system()
        system.send("later/*", "wait-for-me")
        system.run()
        assert len(system.trace_events("suspended")) == 1
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(addr, "later/now")
        system.run()
        released = system.trace_events("released")
        assert len(released) == 1
        assert released[0].data["parked_age"] >= 0
        assert len(system.trace_events("delivered")) == 1

    def test_visibility_and_bus_events(self):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(addr, "x/y")
        system.run()
        ops = system.trace_events("visibility_op")
        # Every one of the 3 replicas applied the single MAKE_VISIBLE op.
        assert {e.node for e in ops} == {0, 1, 2}
        sequenced = system.trace_events("bus_sequenced")
        assert len(sequenced) == 1
        assert sequenced[0].data["op"] == "make_visible"

    def test_resolution_events_carry_cache_stats(self):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=0)
        system.make_visible(addr, "svc/a")
        system.run()
        system.send("svc/*", 1)
        system.send("svc/*", 2)
        system.run()
        resolved = system.trace_events("resolved")
        assert resolved
        assert any(e.data["cache_misses"] for e in resolved)
        assert all("entries_examined" in e.data for e in resolved)

    def test_tracing_disabled_by_default(self):
        system = ActorSpaceSystem(seed=0)
        addr = system.create_actor(lambda ctx, m: None)
        system.send_to(addr, "x")
        system.run()
        assert not system.event_log.enabled
        assert system.event_log.emitted_count == 0
        assert system.tracer.invocations == 1  # counters still work


class TestChromeTrace:
    def test_export_opens_as_valid_trace(self, tmp_path):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=2)
        system.make_visible(addr, "t/a")
        system.run()
        system.send("t/*", "hello")
        system.run()
        path = tmp_path / "run.trace.json"
        trace = system.export_trace(str(path))
        assert validate_chrome_trace(trace) == []
        reloaded = json.loads(path.read_text())
        phases = {r["ph"] for r in reloaded["traceEvents"]}
        assert {"M", "i", "X", "s", "f"} <= phases
        # One process-name track per node that emitted events.
        names = [r for r in reloaded["traceEvents"] if r["ph"] == "M"]
        assert {n["args"]["name"] for n in names} >= {"node 0", "node 2"}

    def test_in_flight_slices_span_latency(self):
        events = [
            TraceEvent(0, 1.0, "sent", 0, envelope_id=7, trace_id=7),
            TraceEvent(1, 3.0, "delivered", 1, envelope_id=7, trace_id=7,
                       data={"sent_at": 1.0, "mode": "send"}),
        ]
        trace = chrome_trace(events)
        slices = [r for r in trace["traceEvents"] if r["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["ts"] == pytest.approx(1000.0)
        assert slices[0]["dur"] == pytest.approx(2000.0)

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "ts": 0}]}
        assert any("phase" in p for p in validate_chrome_trace(bad))

    def test_export_helper_writes_file(self, tmp_path):
        path = tmp_path / "t.json"
        trace = export_chrome_trace(
            [TraceEvent(0, 0.0, "sent", 0, envelope_id=1, trace_id=1)],
            str(path))
        assert json.loads(path.read_text()) == trace


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        for v in [1.0, 2.0, 3.0, 4.0]:
            reg.histogram("h").observe(v)
        assert reg.counter("c").value == 3
        assert reg.gauge("g").value == 1.5
        assert reg.histogram("h").count == 4
        assert reg.histogram("h").percentile(50) == pytest.approx(2.5, abs=1.0)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_reservoir_bounded(self):
        h = HistogramMetric("h", cap=100)
        for i in range(10_000):
            h.observe(float(i))
        assert h.count == 10_000
        assert len(h.samples) == 100
        # A uniform reservoir's median should land near the true median.
        assert 2000 < h.percentile(50) < 8000

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")
        counter.inc(5)
        reg.labeled("by_kind")["a"] += 2
        snap = reg.snapshot()
        assert snap["n"] == 5
        assert snap["by_kind"] == {"a": 2}
        reg.reset()
        assert counter.value == 0  # zeroed in place, same object
        assert reg.counter("n") is counter


class TestTracerFacade:
    def test_legacy_counters_are_registry_views(self):
        tracer = Tracer()
        tracer.on_sent(Mode.SEND)
        tracer.invocations += 1
        snap = tracer.metrics_snapshot()
        assert snap["messages_sent_total"] == {str(Mode.SEND): 1}
        assert snap["behavior_invocations_total"] == 1
        assert tracer.sent[Mode.SEND] == 1

    def test_reset_preserves_sinks_and_subscribers(self):
        """Regression: reset() used to re-run __init__, dropping sinks."""
        log = EventLog()
        tracer = Tracer(log=log)
        sink = JsonlSink(io.StringIO())
        log.add_sink(sink)
        seen = []
        log.subscribe(seen.append)
        tracer.on_sent(Mode.SEND, t=1.0)
        tracer.reset()
        assert sink in tracer.log.sinks
        tracer.on_sent(Mode.SEND, t=2.0)
        assert sink.written == 2  # sink saw events on both sides of reset
        assert len(seen) == 2
        assert tracer.sent[Mode.SEND] == 1  # but counters were cleared
        # The hooks' held counters still count after the reset.
        stats = MatchStats()
        stats.cache_hits, stats.cache_misses, stats.cache_invalidations = 3, 2, 1
        tracer.on_resolution(stats)
        tracer.on_invocation()
        tracer.on_suspended()
        tracer.on_released(n=2)
        snap = tracer.metrics_snapshot()
        assert snap["resolution_cache_hits_total"] == 3
        assert snap["resolution_cache_misses_total"] == 2
        assert snap["resolution_cache_invalidations_total"] == 1
        assert snap["behavior_invocations_total"] == 1
        assert snap["messages_suspended_total"] == 1
        assert snap["messages_released_total"] == 2
        assert (tracer.suspended_count, tracer.released_count) == (1, 2)

    def test_keep_samples_reservoir_cap(self):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0,
                                  keep_samples=16)
        sink = system.create_actor(lambda ctx, m: None, node=1)
        for i in range(200):
            system.send_to(sink, i)
        system.run()
        tracer = system.tracer
        assert len(tracer.samples) == 16
        assert tracer._samples_seen == 200
        assert sum(tracer.delivered.values()) == 200
        # Latency stats still computable from the reservoir.
        assert tracer.latency_stats()["count"] == 16

    def test_keep_samples_bool_behavior_unchanged(self):
        assert Tracer(keep_samples=True).keep_samples is True
        assert Tracer(keep_samples=False).keep_samples is False
        with pytest.raises(ValueError):
            Tracer(keep_samples=-1)
        with pytest.raises(ValueError):
            Tracer(keep_samples=2.5)

    @staticmethod
    def _pattern_sends(keep, deliveries):
        system = ActorSpaceSystem(topology=Topology.lan(2), seed=0,
                                  keep_samples=keep)
        sink = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(sink, "sink", node=1)
        system.run()
        for i in range(deliveries):
            system.send("sink", i)
        system.run()
        return system.tracer

    @pytest.mark.parametrize("keep, bound", [
        (False, HISTOGRAM_RESERVOIR), (0, HISTOGRAM_RESERVOIR), (64, 64)])
    def test_histograms_bounded_unless_keeping_everything(self, keep, bound):
        deliveries = 3 * HISTOGRAM_RESERVOIR
        everything = self._pattern_sends(True, deliveries)
        tracer = self._pattern_sends(keep, deliveries)
        for name in ("latency_hist", "resolution_hist"):
            hist, full = getattr(tracer, name), getattr(everything, name)
            assert len(full.samples) == deliveries
            assert len(hist.samples) == bound
            assert hist.count == full.count == deliveries
            assert hist.total == full.total
            assert hist.summary()["count"] == deliveries
        assert not hasattr(tracer, "match_examined")


class TestEventDrivenDaemon:
    def _loaded_system(self):
        system = traced_system(nodes=2)
        space = system.create_space()
        workers = []
        for i in range(3):
            addr = system.create_actor(lambda ctx, m: None, node=i % 2)
            system.make_visible(addr, f"w{i}", space=space)
            workers.append(addr)
        system.run()
        return system, space, workers

    def test_requires_enabled_log(self):
        system = ActorSpaceSystem(seed=0)
        space = system.create_space()
        system.run()
        with pytest.raises(ValueError):
            install_event_daemon(system, space,
                                 [threshold_rule("load", "queue", 0)])

    def test_reacts_to_mailbox_edges(self):
        system, space, workers = self._loaded_system()
        daemon = install_event_daemon(
            system, space, [threshold_rule("load", "queue", 0)])
        for _ in range(4):
            system.send_to(workers[0], "job")
        system.run()
        assert daemon.reactions > 0
        assert daemon.updates > 0
        fired = system.trace_events("daemon_fired")
        assert any(e.data["trigger"] == "event" for e in fired)
        # After the queue drained, the daemon re-derived load/low.
        entry = system.coordinators[0].directory.space(space).lookup(workers[0])
        assert any(str(a) == "load/low" for a in entry.attributes)
        daemon.close()

    def test_close_detaches(self):
        system, space, workers = self._loaded_system()
        daemon = install_event_daemon(
            system, space, [threshold_rule("load", "queue", 0)])
        daemon.close()
        daemon.close()  # idempotent
        before = daemon.reactions
        system.send_to(workers[0], "job")
        system.run()
        assert daemon.reactions == before


class TestNodeTelemetry:
    def test_telemetry_snapshot(self):
        system = traced_system()
        addr = system.create_actor(lambda ctx, m: None, node=1)
        system.make_visible(addr, "a/b")
        system.run()
        view = Node(system, 1).telemetry()
        assert view["node"] == 1
        assert view["actors"] == 1
        assert view["queue_depth"] == 0
        assert view["visibility_ops_applied"] >= 1

    def test_system_metrics_snapshot_includes_gauges(self):
        system = traced_system()
        snap = system.metrics_snapshot()
        assert "queue_depth_node_0" in snap
        assert "in_flight" in snap
