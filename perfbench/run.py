#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim_send --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with every layer running
unmodified.  ``--trace 1`` is the separate traced run: it first measures
an untraced half window, then wraps the layers (:mod:`layers`) for a
traced half window and reports the per-layer metrics, their accounting
against the traced wall time, and the tracing overhead.  The metric
names and units come from ``BENCHMARK.json`` at the checkout root.

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it records the host fingerprint, a calibration-loop
score, the window's latency percentiles, slice rates and CPU steal, the
output-check findings and drops by reason; they are reported, never
gated.  The exit code is 0 only when every output check passed.
``perfbench/README.md`` describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_send", "sim_churn", "tcp_send", "tcp_churn")
#: A timed window is cut into this many slices (see ``window_rate``).
SLICES = {"sim": 40, "tcp": 10}
#: TCP set-ups per untraced run, made before the window.  The simulator
#: times one set-up of a second world before every slice instead.  The
#: reported ``setup_s`` is the median set-up.
TCP_SETUPS = 3
WARMUP_S = 1.0
CALIBRATION_LOOPS = 200_000

#: Traced-run spans and the per-layer metric each one's self time is
#: reported under.
SPAN_METRIC = {
    "runtime.coordinator.send": "runtime.coordinator.send_self_s",
    "runtime.coordinator.submit": "runtime.coordinator.submit_s",
    "runtime.coordinator.apply": "runtime.coordinator.apply_s",
    "runtime.context.call": "runtime.context.call_s",
    "runtime.events.schedule": "runtime.events.queue_s",
    "runtime.events.pop": "runtime.events.queue_s",
    "runtime.events.deliver": "runtime.events.deliver_s",
    "runtime.events.process": "runtime.events.process_s",
    "runtime.events.bus": "runtime.events.bus_s",
    "runtime.events.other": "runtime.events.other_s",
    "runtime.bus.submit": "runtime.bus.submit_s",
    "core.matching.resolve_actors": "core.matching.resolve_s",
    "core.matching.resolve_spaces": "core.matching.resolve_s",
    "core.manager.choose": "core.manager.choose_s",
    "core.mailbox.deliver": "core.mailbox.deliver_s",
    "core.mailbox.next_ready": "core.mailbox.next_ready_s",
    "core.gc.scan": "core.gc.scan_s",
    "core.visibility.op": "core.visibility.op_s",
    "shard.router.route": "shard.router.route_s",
    "app.receive": "app.receive_s",
    "bench.load": "bench.load_s",
    "launcher.control": "launcher.control_s",
    "launcher.idle": "launcher.idle_s",
}

#: Event-queue tags (``EventQueue.schedule(..., tag=(kind, ...))``) and
#: the span their actions run in.
EVENT_SPAN = {
    "deliver": "runtime.events.deliver",
    "process": "runtime.events.process",
    "bus": "runtime.events.bus",
    "bus_seq": "runtime.events.bus",
    "bus_ctl": "runtime.events.bus",
    "bus_token": "runtime.events.bus",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, bad spec)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text())


def host_fingerprint() -> dict:
    """What the numbers were measured on; reported next to every result."""
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem_mb = 0
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_mb,
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole host so far (``/proc/stat``).

    Steal is time the hypervisor ran someone else on our CPUs; it slows
    every wall-clock figure without any change in the program.
    """
    with open("/proc/stat") as handle:
        fields = [int(f) for f in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def calibration_score() -> float:
    """Iterations per second of a fixed pure-Python loop (median of 3).

    A slower host lowers this and the workload figures together; a
    regression lowers only the latter.
    """
    def loop() -> int:
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        return acc

    times = []
    for _ in range(3):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return CALIBRATION_LOOPS / statistics.median(times)


# -- measuring -------------------------------------------------------------------


def measure(workload, seconds: float, slices: int,
            between=None) -> list[dict]:
    """Drive ``workload`` for ``seconds`` cut into ``slices`` slices.

    Each slice reports the ops completed, its wall time and the CPU the
    program under test used in it.  ``between``, if given, runs before
    every slice, outside its timing.
    """
    per = seconds / slices
    out = []
    for _ in range(slices):
        if between is not None:
            between()
        ops0, cpu0 = workload.ops(), workload.cpu_seconds()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= per or not workload.advance(per - elapsed):
                break
        wall = time.perf_counter() - start
        out.append({"ops": workload.ops() - ops0, "wall": wall,
                    "cpu": workload.cpu_seconds() - cpu0})
    return out


def warm_up(workload, seconds: float) -> None:
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if not workload.advance(seconds):
            break


def rate(slice_: dict, key: str) -> float:
    return slice_["ops"] / slice_[key] if slice_[key] > 0 else 0.0


def window_rate(kind: str, rates: list[float]) -> float:
    """One rate for a window from its slice rates.

    The simulator is one CPU-bound thread, and the host's speed has a
    steady base with fast spells of a few seconds that lift some slices
    by up to a third.  The median slice moves with the share of fast
    spells in the window; the first quartile, the rate the window held
    for three quarters of its time, stays on the base.  On TCP the
    disturbances go the other way (CPU steal dips a slice), so there
    it takes the median.
    """
    if kind == "sim":
        return statistics.quantiles(rates, n=4)[0]
    return statistics.median(rates)


def make_workload(name: str, seed: int, fault: bool, workdir: Path):
    if name.startswith("sim_"):
        from sim import SimChurn, SimSend

        cls = SimSend if name == "sim_send" else SimChurn
        return cls(seed, fault=fault)
    from tcp import TcpChurn, TcpSend

    cls = TcpSend if name == "tcp_send" else TcpChurn
    return cls(seed, workdir)


def latency_summary(samples: list[float]) -> dict:
    """Sample count and percentiles (ms) of one window's op latencies.

    Reported beside the result, not gated.  Every workload is a closed
    loop, so mean latency is the window divided by ``ops_per_s`` and adds
    nothing to it; on the simulator, latency in host time is only queue
    length over rate and its median jumps between the modes of a
    seed-dependent bimodal distribution.  A percentile also needs ten or
    more samples beyond it, which the burst workloads do not always reach.
    """
    if len(samples) < 2:
        return {"samples": len(samples)}
    cuts = statistics.quantiles(samples, n=100)
    return {"samples": len(samples), "p50_ms": cuts[49] * 1e3,
            "p95_ms": cuts[94] * 1e3, "p99_ms": cuts[98] * 1e3}


def end_to_end(workload, kind: str, seconds: float,
               probe=None) -> tuple[dict, dict]:
    """The untraced run: set-up times and one timed window.

    TCP set-ups run before the window.  On the simulator ``probe``, a
    second world, is set up again before every slice, so the set-ups
    sample the host over the whole window, not one moment of it.

    Returns the end-to-end metrics and what is reported beside them:
    the window's latencies, its slice rates and the host's CPU steal.
    """
    setups = []

    def set_up(target) -> None:
        target.close()
        start = time.perf_counter()
        target.setup()
        setups.append(time.perf_counter() - start)

    for _ in range(TCP_SETUPS if kind == "tcp" else 1):
        set_up(workload)
    workload.start()
    warm_up(workload, min(WARMUP_S, seconds / 10))
    first = len(workload.latencies_s)
    steal0, total0 = cpu_ticks()
    slices = measure(workload, seconds, SLICES[kind],
                     None if probe is None else lambda: set_up(probe))
    steal1, total1 = cpu_ticks()
    window = workload.latencies_s[first:]
    if kind == "sim":
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_mb = workload.peak_rss_mb()
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": window_rate(kind, [rate(s, "wall") for s in slices]),
        "ops_per_cpu_s": window_rate(kind, [rate(s, "cpu") for s in slices]),
        "peak_rss_mb": peak_mb,
    }, {"latency": latency_summary(window),
        "slice_ops_per_s": [rate(s, "wall") for s in slices],
        "host_steal_frac": ratio(steal1 - steal0, total1 - total0)}


# -- the traced run ------------------------------------------------------------------


def install_sim_spans(spans, workload, depth: list) -> None:
    """Wrap every runtime layer the simulator workloads cross."""
    from repro.core.mailbox import Mailbox
    from repro.core.manager import SpaceManager
    from repro.core.visibility import Directory
    from repro.runtime import coordinator as coordinator_module
    from repro.runtime.bus import SequencerBus
    from repro.runtime.context import RuntimeContext
    from repro.runtime.coordinator import Coordinator
    from repro.runtime.events import EventQueue
    from repro.shard.router import ShardRouter

    for attr in ("send_pattern", "broadcast_pattern", "send_direct"):
        spans.patch(Coordinator, attr, "runtime.coordinator.send")
    for attr in ("make_visible", "make_invisible", "change_attributes",
                 "submit_op"):
        spans.patch(Coordinator, attr, "runtime.coordinator.submit")
    spans.patch(Coordinator, "on_bus_delivery", "runtime.coordinator.apply")
    for attr in ("send", "broadcast", "send_to"):
        spans.patch(RuntimeContext, attr, "runtime.context.call")
    spans.patch(coordinator_module, "resolve_actors",
                "core.matching.resolve_actors")
    spans.patch(coordinator_module, "resolve_destination_spaces",
                "core.matching.resolve_spaces")
    spans.patch(coordinator_module, "scan_addresses", "core.gc.scan",
                iterator=True)
    spans.patch(SpaceManager, "choose_receiver", "core.manager.choose")
    spans.patch(Mailbox, "next_ready", "core.mailbox.next_ready")

    def deepest(deliver):
        timed = spans.wrap("core.mailbox.deliver", deliver)

        def observed(self, envelope):
            shed = timed(self, envelope)
            if self.pending > depth[0]:
                depth[0] = self.pending
            return shed
        return observed

    spans.patch_with(Mailbox, "deliver", deepest)
    for attr in ("make_visible", "make_invisible", "change_attributes",
                 "add_space", "destroy_space", "bind_capability",
                 "purge_target", "would_cycle"):
        spans.patch(Directory, attr, "core.visibility.op")
    for attr in ("shard_for_op", "home_shard_for_new_space", "is_fanned"):
        spans.patch(ShardRouter, attr, "shard.router.route")
    spans.patch(SequencerBus, "submit", "runtime.bus.submit")
    spans.patch(EventQueue, "pop", "runtime.events.pop")

    def tagged(schedule):
        timed = spans.wrap("runtime.events.schedule", schedule)

        def schedule_in_span(self, time_, action, priority=0, tag=None):
            kind = tag[0] if isinstance(tag, tuple) and tag else None
            name = EVENT_SPAN.get(kind, "runtime.events.other")
            return timed(self, time_, spans.wrap(name, action), priority, tag)
        return schedule_in_span

    spans.patch_with(EventQueue, "schedule", tagged)
    for cls in workload.behaviours:
        spans.patch(cls, "receive", "app.receive")
    if hasattr(type(workload), "submit_group"):
        spans.patch(type(workload), "submit_group", "bench.load")


def install_tcp_spans(spans, workload) -> None:
    """The launcher's own time: driving, control calls, waiting."""
    import tcp
    from repro.net.cluster import LocalCluster

    spans.patch(type(workload), "advance", "bench.load")
    spans.patch(LocalCluster, "call", "launcher.control")
    spans.patch(tcp, "sleep", "launcher.idle")


#: Per-layer metrics that start at zero and are set where the layer runs.
PER_LAYER_ZERO = (
    "core.manager.choose_calls", "core.matching.resolve_calls",
    "core.matching.cache_hit_ratio", "core.matching.invalidations",
    "core.mailbox.depth_max", "core.gc.scan_calls",
    "runtime.events.scheduled", "runtime.bus.submit_calls",
    "runtime.bus.protocol_messages", "runtime.bus.msgs_per_op",
    "runtime.coordinator.parked_max", "runtime.coordinator.released",
    "node.cpu_s.busiest", "node.cpu_util.busiest",
    "net.peer.send_queue_p50_ms", "net.peer.send_queue_p95_ms",
    "net.peer.decode_p50_ms", "net.peer.deliver_p50_ms",
    "net.peer.frames_per_write", "net.peer.bytes_per_frame",
    "net.peer.credit_stalls", "net.remote.ops_sequenced",
    "net.remote.msgs_per_op", "net.remote.unacked_max",
    "store.ops_per_commit", "store.bytes_per_op",
)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced(workload, kind: str, seconds: float) -> dict:
    """The traced run: an untraced and a traced half window."""
    from layers import Spans, accounting

    workload.setup()
    workload.start()
    warm_up(workload, min(WARMUP_S, seconds / 10))
    (plain,) = measure(workload, seconds / 2, 1)
    before = workload.counters()
    if kind == "sim":
        workload.parked_max = 0
    else:
        workload.unacked_max = 0
        cpu_before = workload.node_cpu()
    spans = Spans()
    depth = [0]
    if kind == "sim":
        install_sim_spans(spans, workload, depth)
    else:
        install_tcp_spans(spans, workload)
    try:
        (timed,) = measure(workload, seconds / 2, 1)
    finally:
        spans.restore()
    if kind == "tcp":
        busiest = max(after - start for after, start
                      in zip(workload.node_cpu(), cpu_before))
        unacked_max = workload.unacked_max
    after = workload.counters()
    delta = {key: after[key] - before[key] for key in before
             if isinstance(before[key], (int, float))}
    drops = {reason: n - before["drops"].get(reason, 0)
             for reason, n in after["drops"].items()
             if n != before["drops"].get(reason, 0)}
    metrics = dict.fromkeys(PER_LAYER_ZERO, 0.0)
    metrics.update(accounting(spans, timed["wall"], SPAN_METRIC))
    metrics["trace_overhead_frac"] = ratio(rate(plain, "wall"),
                                           rate(timed, "wall")) - 1.0
    metrics["runtime.dlq.queued"] = delta["dlq_queued"]
    metrics["runtime.dlq.expired"] = delta["dlq_expired"]
    metrics["runtime.drops"] = sum(drops.values())
    calls = spans.calls
    if kind == "sim":
        lookups = delta["cache_hits"] + delta["cache_misses"]
        metrics.update({
            "core.manager.choose_calls": calls["core.manager.choose"],
            "core.matching.resolve_calls":
                calls["core.matching.resolve_actors"],
            "core.matching.cache_hit_ratio":
                ratio(delta["cache_hits"], lookups),
            "core.matching.invalidations": delta["invalidations"],
            "core.mailbox.depth_max": depth[0],
            "core.gc.scan_calls": calls["core.gc.scan"],
            "runtime.events.scheduled": calls["runtime.events.schedule"],
            "runtime.bus.submit_calls": calls["runtime.bus.submit"],
            "runtime.bus.protocol_messages": delta["protocol_messages"],
            "runtime.bus.msgs_per_op": ratio(delta["protocol_messages"],
                                             delta["ops_sequenced"]),
            "runtime.coordinator.parked_max": workload.parked_max,
            "runtime.coordinator.released": delta["released"],
        })
    else:
        stages = after["stage_latency"]
        metrics.update({
            "node.cpu_s.busiest": busiest,
            "node.cpu_util.busiest": ratio(busiest, timed["wall"]),
            "net.peer.send_queue_p50_ms": stages["send_queue"]["p50"] * 1e3,
            "net.peer.send_queue_p95_ms": stages["send_queue"]["p95"] * 1e3,
            "net.peer.decode_p50_ms": stages["decode"]["p50"] * 1e3,
            "net.peer.deliver_p50_ms": stages["deliver"]["p50"] * 1e3,
            "net.peer.frames_per_write": ratio(delta["frames_out"],
                                               delta["writes"]),
            "net.peer.bytes_per_frame": ratio(delta["bytes_out"],
                                              delta["frames_out"]),
            "net.peer.credit_stalls": delta["credit_stalls"],
            "net.remote.ops_sequenced": delta["ops_sequenced"],
            "net.remote.msgs_per_op": ratio(delta["protocol_messages"],
                                            delta["ops_sequenced"]),
            "net.remote.unacked_max": unacked_max,
            "store.ops_per_commit": ratio(delta["ops_appended"],
                                          delta["commits"]),
            "store.bytes_per_op": ratio(delta["store_bytes"],
                                        delta["ops_appended"]),
        })
    return metrics


# -- entry point -------------------------------------------------------------------


def run(args) -> int:
    spec = load_spec()
    group = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in spec[group]}
    kind = args.workload.split("_", 1)[0]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, args.fault, workdir)
    window: dict = {}
    try:
        if args.trace == 0:
            probe = (make_workload(args.workload, args.seed, args.fault,
                                   workdir) if kind == "sim" else None)
            values, window = end_to_end(workload, kind, args.seconds, probe)
        else:
            values = traced(workload, kind, args.seconds)
        attempted, failed, problems = workload.finish()
        drops = workload.counters()["drops"]
    finally:
        workload.close()
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    calibration = calibration_score()
    if args.trace == 1:
        values["failed_frac"] = ratio(failed, attempted)
        values["host.calibration_per_s"] = calibration
        if values["unattributed_s"] < 0:
            problems.append("layer self times exceed the traced wall: "
                            "two spans counted the same time")
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} differ from "
            f"BENCHMARK.json's {group}")
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
    correct = failed == 0 and not problems
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host_fingerprint(),
                      "calibration_per_s": calibration,
                      "window": window, "problems": problems,
                      "drops_by_reason": drops}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", action="store_true",
                        help="sim_send only: workers drop every 100th ack "
                             "(the self-test's injected fault)")
    args = parser.parse_args(argv)
    if args.fault and args.workload != "sim_send":
        parser.error("--fault applies to sim_send only")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops the node processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
