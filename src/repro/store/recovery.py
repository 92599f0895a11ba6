"""Node recovery: snapshot + log suffix replay onto a live runtime.

``snapshot_state`` projects a node's applied state into a plain
codec-encodable dict; ``restore_node`` is its inverse plus a replay of
every persisted op at or past the snapshot's applied seq through the
coordinator's ordinary hold-back path — the same code that applied them
the first time, so replica determinism carries over to recovery for
free.

The directory rebuild uses :meth:`Directory.restore_entry`, which skips
capability and cycle checks — both were validated when each op
originally applied, and the presented capabilities are deliberately not
persisted.  Bindings (the keys needed to validate *future* ops) are
restored afterwards via ``bind_capability``.

What recovery resyncs besides the directory:

* ``coordinator._next_apply_seq`` — so suffix replay starts exactly at
  the snapshot boundary and earlier ops are ignored as duplicates;
* ``coordinator._next_origin_seq`` — from the snapshot plus any of the
  node's own persisted ops (``Coordinator.note_own_op``), so the
  restarted node keeps minting origin seqs where its previous
  incarnation stopped (ghost re-registration with colliding origin seqs
  is what this prevents);
* ``addresses._next_serial`` — so fresh actors/spaces cannot collide
  with persisted addresses;
* the dead-letter queue — pending letters re-adopted with their attempt
  counts and lifetime counters restored;
* the bus's log/dedup state (handled by the caller, which knows which
  bus implementation it is driving).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core.actorspace import SpaceRecord
from ..core.manager import default_manager

if TYPE_CHECKING:  # pragma: no cover
    from .node_store import RecoveredState

#: Version stamp for the snapshot state shape below.
SNAPSHOT_VERSION = 1


def snapshot_state(node_id: int, coordinator: Any, dead_letters: Any,
                   extra: dict | None = None) -> dict:
    """Project applied node state into a codec-encodable snapshot dict.

    ``extra`` lets the caller fold in bus-specific state (e.g. the
    remote bus's per-origin dedup watermarks).  Quarantine overlays and
    parked pattern messages are transient and deliberately excluded.
    """
    directory = coordinator.directory
    spaces = []
    entries = []
    for rec in directory.spaces():
        spaces.append({
            "address": rec.address,
            "capability": rec.capability,
            "node": rec.node,
            "created_at": rec.created_at,
        })
        for entry in rec.entries():
            entries.append({
                "space": rec.address,
                "target": entry.target,
                "attributes": sorted(entry.attributes, key=str),
                "registered_at": entry.registered_at,
            })
    caps = [
        {"target": target, "capability": cap}
        for target, cap in directory.capability_bindings()
    ]
    letters = []
    for dst_node, queue in dead_letters.queues().items():
        for letter in queue:
            letters.append({
                "envelope": letter.envelope,
                "dst": letter.dst_node,
                "reason": letter.reason,
                "queued_at": letter.queued_at,
                "attempts": letter.attempts,
            })
    state = {
        "version": SNAPSHOT_VERSION,
        "node": node_id,
        "applied_seq": coordinator._next_apply_seq,
        "origin_seq": coordinator._next_origin_seq,
        "addr_serial": coordinator.addresses._next_serial,
        "spaces": spaces,
        "entries": entries,
        "caps": caps,
        "dlq": letters,
        "dlq_counters": {
            "queued_total": dead_letters.queued_total,
            "redelivered_total": dead_letters.redelivered_total,
            "expired_total": dead_letters.expired_total,
        },
    }
    if extra:
        state.update(extra)
    return state


def _restore_directory(coordinator: Any, state: dict) -> None:
    directory = coordinator.directory
    for s in state.get("spaces", ()):
        record = SpaceRecord(s["address"], s.get("capability"),
                             s.get("node", 0), created_at=s.get("created_at", 0.0))
        try:
            directory.add_space(record)
        except ValueError:
            record = directory.space(s["address"])  # pre-bootstrapped root
        coordinator.managers.setdefault(s["address"], default_manager())
    for e in state.get("entries", ()):
        directory.restore_entry(
            e["target"], e["attributes"], e["space"],
            now=e.get("registered_at", 0.0),
        )
    for c in state.get("caps", ()):
        directory.bind_capability(c["target"], c.get("capability"))


def _restore_dead_letters(dead_letters: Any, store: Any, state: dict,
                          dlq_events: list[dict]) -> int:
    """Re-adopt snapshot letters, fold in the journal suffix; returns
    the number of letters pending after restoration."""
    counters = dict(state.get("dlq_counters", {}))
    pending: dict[int, dict] = {}
    for letter in state.get("dlq", ()):
        pending[letter["envelope"].envelope_id] = dict(letter)
    for event in dlq_events:
        kind = event.get("kind")
        if kind in ("capture", "retry"):
            pending[event["envelope"].envelope_id] = event
            if kind == "capture":
                counters["queued_total"] = counters.get("queued_total", 0) + 1
        elif kind == "resolve":
            if pending.pop(event["id"], None) is not None:
                counters["redelivered_total"] = (
                    counters.get("redelivered_total", 0) + 1)
        elif kind == "expire":
            if pending.pop(event["id"], None) is not None:
                counters["expired_total"] = counters.get("expired_total", 0) + 1
    for letter in pending.values():
        dead_letters.adopt(
            letter["envelope"], letter["dst"], letter["reason"],
            queued_at=letter.get("queued_at", 0.0),
            attempts=letter.get("attempts", 0),
        )
    dead_letters.queued_total = counters.get("queued_total", 0)
    dead_letters.redelivered_total = counters.get("redelivered_total", 0)
    dead_letters.expired_total = counters.get("expired_total", 0)
    if store is not None:
        store.adopt_pending(pending.keys())
    return len(pending)


def restore_node(node_id: int, coordinator: Any, dead_letters: Any,
                 recovered: "RecoveredState", store: Any = None) -> dict:
    """Rebuild a node from a :class:`RecoveredState`.

    Returns a summary dict (snapshot seq, ops replayed, letters
    re-adopted, max origin seq) for logs and control-plane status.  The
    caller is responsible for bus-level state (log/dedup rebuild) and
    for writing a fresh snapshot afterwards.
    """
    state = recovered.snapshot or {}
    applied_floor = state.get("applied_seq", 0) if recovered.snapshot else 0
    if recovered.snapshot is not None:
        _restore_directory(coordinator, state)
        coordinator._next_apply_seq = applied_floor
        coordinator._next_origin_seq = max(
            coordinator._next_origin_seq, state.get("origin_seq", 0))
        coordinator.addresses._next_serial = max(
            coordinator.addresses._next_serial, state.get("addr_serial", 0))
    letters_pending = _restore_dead_letters(
        dead_letters, store, state, recovered.dlq_events)
    # Replay the op suffix through the ordinary hold-back path.  Ops
    # below the floor are already folded into the snapshot; the
    # hold-back ignores them because _next_apply_seq is past them.
    replayed = 0
    for seq in sorted(recovered.ops):
        if seq < applied_floor:
            continue
        op = recovered.ops[seq]
        coordinator.on_bus_delivery(seq, op)
        coordinator.note_own_op(op)
        replayed += 1
    # Address serials are embedded in op args (ADD_SPACE addresses,
    # MAKE_VISIBLE targets minted here); walk them so a snapshot-less
    # recovery still resyncs the factory.
    serial_floor = _max_serial_in_ops(node_id, recovered.ops.values())
    coordinator.addresses._next_serial = max(
        coordinator.addresses._next_serial, serial_floor + 1)
    return {
        "snapshot_seq": recovered.snapshot_seq,
        "applied_seq": coordinator._next_apply_seq,
        "ops_replayed": replayed,
        "dlq_recovered": letters_pending,
        "origin_seq": coordinator._next_origin_seq,
        "records_dropped": recovered.report.records_dropped,
        "corrupt_segments": len(recovered.report.corrupt_segments),
    }


def _max_serial_in_ops(node_id: int, ops) -> int:
    best = -1
    for op in ops:
        for value in op.args.values():
            serial = getattr(value, "serial", None)
            if serial is not None and getattr(value, "node", None) == node_id:
                best = max(best, serial)
    return best
