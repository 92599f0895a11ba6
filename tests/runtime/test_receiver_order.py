"""Determinism guard: seeded receiver choices and fan-out order are pinned.

A seeded world with a 64-member group runs every arbitration policy,
broadcasts, a suspended send released by a join, a ``PERSISTENT``
broadcast, a send whose ``@space`` pattern spans two scope spaces, and
a ``LEAST_LOADED`` sequence under real queue load.  The digest of the
(receiver, payload) sequence, in processing order, is the value the
runtime produced before the receiver group became a product of
resolution (sorted once at cache fill instead of twice per send).  Any
change to which member a seeded ``send`` picks, or to the order a
broadcast fans out in, changes the digest.
"""

import hashlib

from repro.core.manager import Arbitration, SpaceManager, UnmatchedPolicy
from repro.core.messages import Destination
from repro.runtime.network import Topology
from repro.runtime.system import ActorSpaceSystem

GROUP = 64
NODES = 4

#: sha256 of the processing-order log below, recorded on the runtime
#: that sorted the group at every dispatch.
EXPECTED_DIGEST = (
    "a899aa74595d3a06b2e3ac8c025669e36670fc379256ab801a25b8880937d503")

#: sha256 of the ``LEAST_LOADED`` picks of :func:`least_loaded_picks`.
EXPECTED_LEAST_LOADED_DIGEST = (
    "bec6d9375e9005f972d32a042f84e6c108243597bcfb887261c2c02edfd454ca")


def _recorder(log):
    def receive(ctx, message):
        log.append((str(ctx.self_address), message.payload))
    return receive


def _group(system, space, log, prefix, n):
    for i in range(n):
        actor = system.create_actor(_recorder(log), node=i % NODES)
        system.make_visible(actor, f"{prefix}/m{i}", space, node=i % NODES)


def run_scenario() -> list:
    system = ActorSpaceSystem(topology=Topology.lan(NODES), seed=7,
                              processing_delay=0.0005, keep_samples=False)
    log: list = []
    spaces = {}
    for arbitration in Arbitration:
        space = system.create_space(
            attributes=f"pool/{arbitration.value}",
            manager_factory=lambda a=arbitration: SpaceManager(arbitration=a),
        )
        _group(system, space, log, "w", GROUP)
        spaces[arbitration] = space
    system.run()

    # Pattern sends under every arbitration policy, from every node, with
    # a subgroup broadcast every 8th request.
    for step in range(96):
        for arbitration, space in spaces.items():
            node = step % NODES
            if step % 8 == 7:
                system.broadcast(Destination("w/m1*", space),
                                 ("bcast", arbitration.value, step), node=node)
            else:
                system.send(Destination("w/*", space),
                            ("send", arbitration.value, step), node=node)
        if step % 16 == 15:
            system.run()
    system.run()

    # A @space pattern that resolves to two scope spaces: the union of
    # both groups is arbitrated (and fanned out) as one.
    for step in range(12):
        system.send(Destination("w/m2*", "pool/r*"), ("union", step),
                    node=step % NODES)
    system.broadcast(Destination("w/m3", "pool/r*"), ("union-bcast",))
    system.run()

    # A send that finds nobody is suspended; a whole subgroup arriving in
    # one visibility op (a nested space made visible) releases it.
    pending = spaces[Arbitration.RANDOM]
    for step in range(3):
        system.send(Destination("late/**", pending), ("parked", step),
                    node=step % NODES)
        system.broadcast(Destination("late/**", pending),
                         ("parked-bcast", step), node=step % NODES)
    system.run()
    joiners = system.create_space()
    _group(system, joiners, log, "x", 9)
    system.run()
    system.make_visible(joiners, "late", pending)
    system.run()

    # A persistent broadcast reaches the present members, then each
    # later arrival exactly once, in address order.
    persistent = system.create_space(
        attributes="pool/persistent",
        manager_factory=lambda: SpaceManager(
            unmatched=UnmatchedPolicy.PERSISTENT),
    )
    _group(system, persistent, log, "p", 5)
    system.run()
    system.broadcast(Destination("p/**", persistent), ("persist",), node=1)
    system.run()
    _group(system, persistent, log, "p", 12)
    system.run()
    late = system.create_space()
    _group(system, late, log, "q", 6)
    system.run()
    system.make_visible(late, "p", persistent)
    system.run()
    return log


def least_loaded_picks() -> list:
    """Who ``LEAST_LOADED`` picks while sends pile up faster than service."""
    system = ActorSpaceSystem(topology=Topology.lan(NODES), seed=3,
                              processing_delay=0.002, keep_samples=False)
    log: list = []
    space = system.create_space(
        manager_factory=lambda: SpaceManager(
            arbitration=Arbitration.LEAST_LOADED))
    _group(system, space, log, "w", 16)
    system.run()
    for step in range(200):
        system.send(Destination("w/*", space), step, node=step % NODES)
        if step % 25 == 24:
            system.run(max_events=40)
    system.run()
    by_payload = {payload: receiver for receiver, payload in log}
    return [(by_payload[step], step) for step in range(200)]


def digest(log: list) -> str:
    lines = "\n".join(f"{receiver} {payload!r}" for receiver, payload in log)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_seeded_receiver_sequence_is_pinned():
    log = run_scenario()
    phases = {payload[0] for _, payload in log}
    assert phases == {"send", "bcast", "union", "union-bcast", "parked",
                      "parked-bcast", "persist"}  # every phase delivered
    assert digest(log) == EXPECTED_DIGEST


def test_least_loaded_sequence_is_pinned():
    picks = least_loaded_picks()
    assert len({receiver for receiver, _ in picks}) == 16  # load spread it
    assert digest(picks) == EXPECTED_LEAST_LOADED_DIGEST
