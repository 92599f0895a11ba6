"""Simulator workloads: ``sim_send`` and ``sim_churn``.

Both run the single-process runtime (:class:`ActorSpaceSystem`) on a
4-node LAN inside the benchmark process, so every layer below the
application is in reach of the traced run's spans.

* ``sim_send`` — the paper's §5 primitive on its steady-state path.  One
  space holds a 64-member group ``workers/w<i>`` spread over the nodes.
  A pump on node 0 keeps 64 requests outstanding (closed loop); every
  16th request is a ``broadcast`` to an 8-member subgroup, the rest are
  pattern ``send``s to the whole group.  Workers ack straight to
  ``reply_to``.  No visibility op runs after setup, so resolution always
  hits the cache while arbitration (a 64-wide group) and per-delivery
  work dominate; the bus and the shard router stay idle.
* ``sim_churn`` — the write side of the same resolution layer.  Four
  shards, 8 spaces of 8 pooled actors, 4 of them visible at a time under
  one of four colours.  Each step swaps one member out and one in
  (``make_invisible`` + ``make_visible`` from a rotating node) and sends
  one pattern message for a random colour into the same space from
  another node.  A colour nobody shows suspends the send (§5.6) until a
  later join shows it.  Every space is touched once per group of 8
  steps, then the run quiesces, so no two ops of a group race on the
  same actor.  Every op crosses its space's shard sequencer and applies
  at all four replicas; every send misses the resolution cache.

An *op* — the unit of ``ops_per_s`` — is a completed request (its last
ack arrived) on ``sim_send`` and a visibility op applied at every
replica on ``sim_churn``.
"""

from __future__ import annotations

import random
import time

from repro.core.actor import Behavior
from repro.core.messages import Destination
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem

NODES = 4
GROUP = 64
WINDOW = 64
BROADCAST_EVERY = 16
SUBGROUPS = 8
#: Events executed between wall-clock checks on ``sim_send``.
CHUNK_EVENTS = 2000

CHURN_SPACES = 8
CHURN_POOL = 8
CHURN_MEMBERS = 4
CHURN_COLOURS = 4
CHURN_SHARDS = 4


class Worker(Behavior):
    """Acks every request to its ``reply_to``, naming itself.

    ``drop_every=N`` drops every N-th ack: the injected fault the
    self-test uses to prove that lost replies are reported as failures.
    """

    def __init__(self, index: int, drop_every: int = 0):
        self.index = index
        self.drop_every = drop_every
        self.requests = 0

    def receive(self, ctx, message) -> None:
        self.requests += 1
        if self.drop_every and self.requests % self.drop_every == 0:
            return
        ctx.send_to(message.reply_to, ("ack", message.payload[1], self.index))


class Pump(Behavior):
    """Closed loop: keep ``WINDOW`` requests outstanding until stopped.

    Checks every ack: a ``send`` wants exactly one, from any worker; a
    ``broadcast`` wants exactly one from each member of its subgroup.
    Anything else (an extra, a duplicate, an outsider) counts in
    ``errors``; requests still outstanding after the final drain are
    missing acks.
    """

    def __init__(self, space, seed: int):
        self.rng = random.Random(seed)
        self.group = Destination("workers/*", space)
        #: Subgroup k is every worker with ``index % SUBGROUPS == k``.
        self.subgroups = [
            frozenset(range(k, GROUP, SUBGROUPS)) for k in range(SUBGROUPS)]
        self.subgroup_dests = [
            Destination("workers/~w(" + "|".join(map(str, sorted(members)))
                        + ")", space)
            for members in self.subgroups]
        self.sent = 0
        self.completed = 0
        self.errors = 0
        self.stopped = False
        #: request id -> [acks still wanted, send time, allowed responders]
        self.outstanding: dict[int, list] = {}
        self.rtts_s: list[float] = []

    def receive(self, ctx, message) -> None:
        payload = message.payload
        if payload[0] == "go":
            for _ in range(WINDOW):
                self._launch(ctx)
            return
        _kind, rid, responder = payload
        entry = self.outstanding.get(rid)
        if entry is None:
            self.errors += 1
            return
        allowed = entry[2]
        if allowed is not None:
            if responder not in allowed:
                self.errors += 1
                return
            allowed.discard(responder)
        entry[0] -= 1
        if entry[0] == 0:
            del self.outstanding[rid]
            self.completed += 1
            self.rtts_s.append(time.perf_counter() - entry[1])
            if not self.stopped:
                self._launch(ctx)

    def _launch(self, ctx) -> None:
        rid = self.sent
        self.sent += 1
        me = ctx.self_address
        if rid % BROADCAST_EVERY == BROADCAST_EVERY - 1:
            k = self.rng.randrange(SUBGROUPS)
            self.outstanding[rid] = [len(self.subgroups[k]),
                                     time.perf_counter(),
                                     set(self.subgroups[k])]
            ctx.broadcast(self.subgroup_dests[k], ("req", rid), reply_to=me)
        else:
            self.outstanding[rid] = [1, time.perf_counter(), None]
            ctx.send(self.group, ("req", rid), reply_to=me)


class Member(Behavior):
    """A churned actor: records the ids of the jobs it receives."""

    def __init__(self):
        self.jobs: list[int] = []

    def receive(self, ctx, message) -> None:
        self.jobs.append(message.payload[1])


class SimWorkload:
    """Shared workload surface; subclasses build the world and the load."""

    behaviours: tuple = ()

    def __init__(self, seed: int, fault: bool = False):
        self.seed = seed
        self.fault = fault
        self.system: ActorSpaceSystem | None = None
        self.latencies_s: list[float] = []
        self.parked_max = 0

    def cpu_seconds(self) -> float:
        return time.process_time()

    def close(self) -> None:
        """Nothing to stop: the world lives in this process."""

    def counters(self) -> dict:
        """Runtime counters the traced run reports as deltas."""
        system = self.system
        cache = system.resolution_cache_stats()
        return {
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "invalidations": cache["invalidations"],
            "protocol_messages": system.bus.protocol_messages,
            "ops_sequenced": system.bus.ops_sequenced,
            "released": system.tracer.released_count,
            "dlq_queued": system.dead_letters.queued_total,
            "dlq_expired": system.dead_letters.expired_total,
            "drops": dict(system.tracer.dropped),
        }

    def parked(self) -> int:
        return sum(len(c.suspended) + len(c.persistent)
                   for c in self.system.coordinators)


class SimSend(SimWorkload):
    name = "sim_send"
    behaviours = (Worker, Pump)

    def setup(self) -> None:
        system = ActorSpaceSystem(topology=Topology.lan(NODES), seed=self.seed,
                                  keep_samples=False)
        space = system.create_space(attributes="pool")
        drop_every = 100 if self.fault else 0
        for i in range(GROUP):
            node = i % NODES
            worker = system.create_actor(Worker(i, drop_every), node=node)
            system.make_visible(worker, f"workers/w{i}", space, node=node)
        system.run()
        self.pump = Pump(space, self.seed)
        self.pump_address = system.create_actor(self.pump, node=0)
        self.system = system

    def start(self) -> None:
        self.system.send_to(self.pump_address, ("go",))
        self.latencies_s = self.pump.rtts_s

    def advance(self, budget_s: float) -> bool:
        """Run a chunk of events; ``False`` once nothing is left to run."""
        self.system.run(max_events=CHUNK_EVENTS)
        self.parked_max = max(self.parked_max, self.parked())
        return not self.system.idle

    def ops(self) -> int:
        return self.pump.completed

    def finish(self) -> tuple[int, int, list[str]]:
        """Stop the load, drain, and check every request's acks."""
        self.pump.stopped = True
        self.system.run()
        pump = self.pump
        missing = len(pump.outstanding)
        problems = []
        if missing:
            problems.append(f"{missing} requests never got all their acks")
        if pump.errors:
            problems.append(f"{pump.errors} acks were extra or from outsiders")
        if pump.completed + missing != pump.sent:
            problems.append("completed + outstanding != sent")
        return pump.sent, missing + pump.errors, problems


class SimChurn(SimWorkload):
    name = "sim_churn"
    behaviours = (Member,)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        system = ActorSpaceSystem(topology=Topology.lan(NODES), seed=self.seed,
                                  keep_samples=False, shards=CHURN_SHARDS)
        self.pool = []
        self.members: list[dict] = []
        self.members_of: dict = {}
        spaces = [system.create_space(attributes=f"s{k}", node=k % NODES)
                  for k in range(CHURN_SPACES)]
        # Members join only once every replica knows their space: an op
        # sequenced ahead of its space's creation is rightly rejected.
        system.run()
        for k, space in enumerate(spaces):
            actors = []
            for j in range(CHURN_POOL):
                member = Member()
                address = system.create_actor(member, node=(k + j) % NODES)
                self.members_of[address] = member
                actors.append(address)
            visible = {}
            for address in rng.sample(actors, CHURN_MEMBERS):
                colour = rng.randrange(CHURN_COLOURS)
                system.make_visible(address, f"m/c{colour}", space,
                                    node=address.node)
                visible[address] = colour
            self.pool.append(actors)
            self.members.append(visible)
        system.run()
        self.spaces = spaces
        self.dests = [[Destination(f"m/c{c}", space)
                       for c in range(CHURN_COLOURS)] for space in self.spaces]
        self.rng = rng
        self.system = system
        self.steps = 0
        self.sent = 0
        self.applied_ops = 0

    def start(self) -> None:
        self.latencies_s = []

    def submit_group(self) -> None:
        """One step per space, in a seeded order: swap a member, send a job."""
        rng = self.rng
        system = self.system
        for k in rng.sample(range(CHURN_SPACES), CHURN_SPACES):
            space = self.spaces[k]
            visible = self.members[k]
            node = self.steps % NODES
            self.steps += 1
            leaver = rng.choice(sorted(visible))
            joiner = rng.choice(sorted(a for a in self.pool[k]
                                       if a not in visible))
            colour = rng.randrange(CHURN_COLOURS)
            system.make_invisible(leaver, space, node=node)
            system.make_visible(joiner, f"m/c{colour}", space, node=node)
            del visible[leaver]
            visible[joiner] = colour
            sender = (node + 1 + rng.randrange(NODES - 1)) % NODES
            system.send(self.dests[k][rng.randrange(CHURN_COLOURS)],
                        ("job", self.sent), node=sender)
            self.sent += 1

    def advance(self, budget_s: float) -> bool:
        """Submit one group of steps and run it to quiescence."""
        started = time.perf_counter()
        self.submit_group()
        parked = self.parked()
        if parked > self.parked_max:
            self.parked_max = parked
        self.system.run()
        self.applied_ops += 2 * CHURN_SPACES
        self.latencies_s.append(time.perf_counter() - started)
        return True

    def ops(self) -> int:
        return self.applied_ops

    def finish(self) -> tuple[int, int, list[str]]:
        """Check replicas, membership, and that no job was lost or doubled."""
        system = self.system
        system.run()
        problems = []
        failed = 0
        rejected = sum(n for reason, n in system.tracer.dropped.items()
                       if reason.startswith("op_rejected"))
        if rejected:
            problems.append(f"{rejected} visibility ops were rejected")
            failed += rejected
        if not system.replicas_coherent():
            problems.append("directory replicas disagree")
            failed += 1
        for k, space in enumerate(self.spaces):
            want = {a: frozenset({f"m/c{c}"})
                    for a, c in self.members[k].items()}
            for node in range(NODES):
                got = system.resolve("**", space, node=node)
                if set(got) != set(want):
                    problems.append(f"space {k} members differ at node {node}")
                    failed += 1
            for address, attrs in want.items():
                shown = frozenset(str(p) for p in
                                  system.visible_attributes(address, space))
                if shown != attrs:
                    problems.append(f"space {k}: {address} shows {set(shown)}")
                    failed += 1
        delivered: list[int] = []
        for member in self.members_of.values():
            delivered.extend(member.jobs)
        suspended = self.parked()
        if len(set(delivered)) != len(delivered):
            dup = len(delivered) - len(set(delivered))
            problems.append(f"{dup} jobs delivered twice")
            failed += dup
        if len(delivered) + suspended != self.sent:
            lost = self.sent - len(delivered) - suspended
            problems.append(f"delivered {len(delivered)} + suspended "
                            f"{suspended} != sent {self.sent}")
            failed += abs(lost)
        return self.applied_ops + self.sent, failed, problems
