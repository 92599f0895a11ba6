"""Property test: ``scan_addresses`` finds what the recursive scanner found.

The delivery-time scanner has an exact-type fast path for atoms and an
append-based walk.  :func:`reference_scan` is the straightforward
recursive generator it replaced; on random nested payloads both must
yield the same multiset of addresses.
"""

from collections import Counter, namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addresses import ActorAddress, MailAddress, SpaceAddress
from repro.core.gc import scan_addresses


def reference_scan(payload, _depth=0):
    """The original recursive scanner, kept as the specification."""
    if _depth > 32:
        return
    if isinstance(payload, MailAddress):
        yield payload
        return
    if isinstance(payload, Mapping):
        for k, v in payload.items():
            yield from reference_scan(k, _depth + 1)
            yield from reference_scan(v, _depth + 1)
        return
    if isinstance(payload, (list, tuple, set, frozenset)):
        for item in payload:
            yield from reference_scan(item, _depth + 1)
        return
    if is_dataclass(payload) and not isinstance(payload, type):
        for f in fields(payload):
            yield from reference_scan(getattr(payload, f.name), _depth + 1)
        return
    hook = getattr(payload, "__addresses__", None)
    if callable(hook):
        for item in hook():
            if isinstance(item, MailAddress):
                yield item


Pair = namedtuple("Pair", "left right")


@dataclass
class Box:
    first: Any
    second: Any


class FrozenMap(Mapping):
    """A ``Mapping`` that is not a ``dict``."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class Hooked:
    """Opaque state exposing its addresses through the hook."""

    def __init__(self, items):
        self._items = items

    def __addresses__(self):
        return self._items


class Tag(str):
    """An atom subclass that carries an address: not on the fast path."""

    def __new__(cls, text, address):
        tag = super().__new__(cls, text)
        tag.address = address
        return tag

    def __addresses__(self):
        return [self.address]


class Tally(dict):
    pass


class Stack(list):
    pass


addresses = st.builds(
    lambda kind, node, serial: kind(node, serial),
    st.sampled_from([ActorAddress, SpaceAddress]),
    st.integers(0, 3), st.integers(0, 5),
)
atoms = st.one_of(
    st.text(max_size=3), st.integers(), st.floats(allow_nan=False),
    st.booleans(), st.binary(max_size=3), st.none(),
)
hashables = st.recursive(
    st.one_of(atoms, addresses),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=8,
)


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4),
        st.builds(Stack, st.lists(inner, max_size=3)),
        st.tuples(inner, inner, inner),
        st.sets(hashables, max_size=3),
        st.dictionaries(hashables, inner, max_size=3),
        st.builds(Tally, st.dictionaries(hashables, inner, max_size=3)),
        st.builds(FrozenMap, st.dictionaries(hashables, inner, max_size=3)),
        st.builds(Pair, inner, inner),
        st.builds(Box, inner, inner),
        st.builds(Hooked, st.lists(st.one_of(addresses, atoms, inner),
                                   max_size=3)),
        st.builds(Tag, st.text(max_size=2), addresses),
    )


payloads = st.recursive(st.one_of(atoms, addresses, hashables), _containers,
                        max_leaves=24)

_WRAPPERS = [
    lambda p: [p],
    lambda p: (p, 1),
    lambda p: {"k": p},
    lambda p: FrozenMap({0: p}),
    lambda p: Box(p, "x"),
    lambda p: Pair(p, None),
]


@st.composite
def deep_payloads(draw):
    """A payload buried 25..45 levels deep, around the depth bound."""
    payload = draw(payloads)
    for _ in range(draw(st.integers(25, 45))):
        payload = draw(st.sampled_from(_WRAPPERS))(payload)
        if draw(st.booleans()):
            payload = [payload, draw(addresses)]
    return payload


def assert_same_multiset(payload):
    got = scan_addresses(payload)
    assert Counter(got) == Counter(reference_scan(payload))


class TestScanEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(payloads)
    def test_random_payloads(self, payload):
        assert_same_multiset(payload)

    @settings(max_examples=200, deadline=None)
    @given(deep_payloads())
    def test_nesting_around_depth_bound(self, payload):
        assert_same_multiset(payload)

    @settings(max_examples=100, deadline=None)
    @given(atoms)
    def test_atoms_hold_nothing(self, atom):
        assert list(scan_addresses(atom)) == []

    def test_exact_depth_bound(self):
        a = ActorAddress(0, 1)
        for levels in (31, 32, 33, 34):
            nested = a
            for _ in range(levels):
                nested = [nested]
            expected = list(reference_scan(nested))
            assert list(scan_addresses(nested)) == expected
            assert expected == ([a] if levels <= 32 else [])

    def test_result_is_reiterable(self):
        a = ActorAddress(0, 1)
        found = scan_addresses({"to": a, "n": (1, 2)})
        assert list(found) == list(found) == [a]
