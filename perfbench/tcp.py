"""TCP workloads: ``tcp_send`` and ``tcp_churn``.

Both drive a 2-node :class:`LocalCluster` (one ``repro serve`` process
per node) on the host loopback with no injected delay.  The benchmark
process is only the launcher: the program under test runs in the node
processes, so layer figures are read from outside — through the nodes'
``status``/``snapshot``/``dlq`` control commands and ``/proc/<pid>``.

* ``tcp_send`` — the registered ``load_pump`` on node 0 keeps 64 direct
  sends outstanding to ``load_sink`` on node 1 (closed loop, node event
  logs off).  No resolution and no bus: this isolates the wire (codec,
  batching, send queue, credit).  64 saturates the busiest node; a
  window of 8 measured the scheduler more than the wire.
* ``tcp_churn`` — the same cluster with ``--data-dir`` and
  ``--fsync batch``.  The launcher sends fixed-size ``vis_burst``s,
  alternating between the nodes, over 4 spaces.  Each burst is closed
  loop: the next starts only once every node applied the previous one.
  This is the only workload with the TCP sequencer (``net.remote``) and
  the durable outbox (``store``) on the blocking path.  ``batch`` is
  used because ``commit`` mostly measured the disk.

An *op* is a completed round trip on ``tcp_send`` and a visibility op
applied at both nodes on ``tcp_churn``.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

from repro.net.cluster import LocalCluster

NODES = 2
WINDOW = 64
#: Round trips of the pump that sizes the timed pumps.
CALIBRATION_TRIPS = 2000
MIN_TRIPS = 500
#: A pump's round-trip times come back in one ``actor_state`` reply, which
#: must fit the node's 256 KiB control-frame budget (about 9 bytes per
#: RTT); a longer slice runs several pumps.
MAX_TRIPS = 16000
CHURN_SPACES = 4
BURST = 64
#: Pause between two ``status`` polls of a node that has not caught up.
POLL_S = 0.001
#: How long one pump or one burst may take before the run gives up.
STEP_TIMEOUT_S = 60.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")
sleep = time.sleep


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of ``pid`` (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class TcpWorkload:
    """A cluster per setup; subclasses add the load."""

    durable = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.cluster: LocalCluster | None = None
        self.latencies_s: list[float] = []
        self._setups = 0
        self.unacked_max = 0

    def _new_cluster(self) -> LocalCluster:
        self._setups += 1
        kwargs = {}
        if self.durable:
            kwargs["data_dir"] = self.workdir / f"data{self._setups}"
            kwargs["node_args"] = ["--fsync", "batch"]
        cluster = LocalCluster(NODES, seed=self.seed, trace=False, **kwargs)
        self.cluster = cluster
        cluster.start()
        return cluster

    def close(self) -> None:
        """Stop the node processes and wait for them to exit."""
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None

    def pids(self) -> list[int]:
        return [self.cluster.procs[n].pid for n in range(NODES)]

    def cpu_seconds(self) -> float:
        return sum(proc_cpu_s(pid) for pid in self.pids())

    def node_cpu(self) -> list[float]:
        return [proc_cpu_s(pid) for pid in self.pids()]

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest node process."""
        return max(proc_peak_rss_mb(pid) for pid in self.pids())

    def status(self, node: int) -> dict:
        status = self.cluster.call(node, "status")
        unacked = status["bus"].get("unacked", 0)
        if unacked > self.unacked_max:
            self.unacked_max = unacked
        return status

    def counters(self) -> dict:
        """Cumulative node counters; the traced run reports deltas."""
        out = {"frames_out": 0, "writes": 0, "bytes_out": 0,
               "credit_stalls": 0, "protocol_messages": 0,
               "ops_sequenced": 0, "ops_appended": 0, "commits": 0,
               "store_bytes": 0, "dlq_queued": 0,
               "dlq_expired": 0, "drops": {}}
        for node in range(NODES):
            snap = self.cluster.call(node, "snapshot", events=False)
            hub, bus = snap["hub"], snap["bus"]
            out["frames_out"] += hub["frames_out"]
            out["writes"] += hub["writes"]
            out["bytes_out"] += hub["bytes_out"]
            out["credit_stalls"] += hub["credit"]["stalls"]
            out["protocol_messages"] += bus["protocol_messages"]
            out["ops_sequenced"] += bus["ops_sequenced"]
            if node == 0:
                out["stage_latency"] = hub["stage_latency"]
            for reason, n in snap["metrics"].get(
                    "messages_dropped_total", {}).items():
                out["drops"][reason] = out["drops"].get(reason, 0) + n
            store = self.status(node)["store"]
            if store is not None:
                out["ops_appended"] += store["ops_appended"]
                out["commits"] += store["commits"]
                out["store_bytes"] += store["bytes_written"]
            dlq = self.cluster.call(node, "dlq")
            out["dlq_queued"] += dlq["queued"]
            out["dlq_expired"] += dlq["expired"]
        return out


class TcpSend(TcpWorkload):
    name = "tcp_send"

    def setup(self) -> None:
        cluster = self._new_cluster()
        self.sink = cluster.call(1, "create_actor", behavior="load_sink",
                                 params={})["address"]
        self.sent = 0
        self.received = 0
        self.problems: list[str] = []
        #: Round trips per second: a guess until the first pump measures it.
        self.rate = float(CALIBRATION_TRIPS)

    def start(self) -> None:
        """Size the timed pumps from one pump of fixed length."""
        self._pump(CALIBRATION_TRIPS)
        self.latencies_s = []

    def _pump(self, trips: int) -> None:
        """One closed-loop pump of ``trips`` round trips, waited for.

        The launcher sleeps through half the pump's expected run before
        it polls, so its control calls touch node 0 less; a pump more than
        twice as fast as the last one would leave the launcher idle.
        """
        cluster = self.cluster
        pump = cluster.call(0, "create_actor", behavior="load_pump", params={
            "target": self.sink, "total": trips, "window": WINDOW})["address"]
        cluster.call(0, "send_to", target=pump, payload=("go",))
        sleep(0.5 * trips / self.rate)
        deadline = time.monotonic() + STEP_TIMEOUT_S
        while not cluster.call(0, "actor_state", address=pump,
                               attrs=["done"])["done"]:
            if time.monotonic() > deadline:
                raise TimeoutError(f"pump of {trips} trips did not finish")
            sleep(0.005)
        state = cluster.call(0, "actor_state", address=pump, attrs=[
            "sent", "received", "elapsed_s", "_rtts_ms"])
        self.sent += trips
        self.received += state["received"]
        if state["received"] != trips or state["sent"] != trips:
            self.problems.append(
                f"pump sent {state['sent']} received {state['received']} "
                f"of {trips}")
        self.latencies_s.extend(ms / 1000.0 for ms in state["_rtts_ms"])
        self.rate = trips / state["elapsed_s"]

    def advance(self, budget_s: float) -> bool:
        self._pump(min(MAX_TRIPS, max(MIN_TRIPS, int(self.rate * budget_s))))
        return True

    def ops(self) -> int:
        return self.received

    def finish(self) -> tuple[int, int, list[str]]:
        """``received == total`` at every pump and at the sink."""
        sink_count = self.cluster.call(1, "actor_state", address=self.sink,
                                       attrs=["count"])["count"]
        problems = list(self.problems)
        failed = self.sent - self.received
        if sink_count != self.sent:
            problems.append(f"sink saw {sink_count} requests, pumps sent "
                            f"{self.sent}")
            failed = max(failed, abs(self.sent - sink_count))
        return self.sent, failed, problems


class TcpChurn(TcpWorkload):
    name = "tcp_churn"
    durable = True

    def setup(self) -> None:
        cluster = self._new_cluster()
        self.spaces = [cluster.call(0, "create_space",
                                    attributes=f"churn{k}")["address"]
                       for k in range(CHURN_SPACES)]
        # Each space is an ADD_SPACE plus its make_visible in the root.
        # Targets join only once both nodes know the spaces: an op
        # sequenced ahead of its space's creation is rightly rejected.
        self._applied_everywhere(2 * CHURN_SPACES)
        self.targets = []
        for k, space in enumerate(self.spaces):
            target = cluster.call(k % NODES, "create_actor",
                                  behavior="echo", params={})["address"]
            cluster.call(k % NODES, "make_visible", target=target,
                         attributes="burst/v0", space=space)
            self.targets.append(target)
        self.base = self._applied_everywhere(3 * CHURN_SPACES)
        self.bursts = 0
        self.submitted = 0

    def _applied_everywhere(self, expected: int) -> int:
        """Poll each node until it applied ``expected`` ops; return the least."""
        deadline = time.monotonic() + STEP_TIMEOUT_S
        applied = []
        for node in range(NODES):
            while True:
                count = self.status(node)["applied_seq"]
                if count >= expected:
                    applied.append(count)
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"node {node} applied {count} ops, wanted {expected}")
                sleep(POLL_S)
        return min(applied)

    def start(self) -> None:
        self.latencies_s = []

    def advance(self, budget_s: float) -> bool:
        """One burst from the next node into the next space, closed loop."""
        k = self.bursts % CHURN_SPACES
        node = self.bursts % NODES
        started = time.perf_counter()
        self.cluster.call(node, "vis_burst", target=self.targets[k],
                          space=self.spaces[k], count=BURST,
                          prefix=f"burst{self.bursts % 3}")
        self.bursts += 1
        self.submitted += BURST
        self._applied_everywhere(self.base + self.submitted)
        self.latencies_s.append(time.perf_counter() - started)
        return True

    def ops(self) -> int:
        return self.submitted

    def finish(self) -> tuple[int, int, list[str]]:
        """Identical directories, and applied == submitted on every node."""
        problems = []
        failed = 0
        applied = [self.status(n)["applied_seq"] - self.base
                   for n in range(NODES)]
        for node, count in enumerate(applied):
            if count != self.submitted:
                problems.append(f"node {node} applied {count} of "
                                f"{self.submitted} ops")
                failed = max(failed, abs(self.submitted - count))
        snapshots = [self.cluster.call(n, "directory")["snapshot"]
                     for n in range(NODES)]
        if any(s != snapshots[0] for s in snapshots[1:]):
            problems.append("directory snapshots differ between nodes")
            failed = max(failed, 1)
        return self.submitted, failed, problems

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.workdir, ignore_errors=True)
