"""Unit tests: mail addresses and the per-node factory."""

from repro.core.addresses import (
    ActorAddress,
    AddressFactory,
    SpaceAddress,
    address_key,
    is_actor_address,
    is_space_address,
)


class TestAddresses:
    def test_equality_and_hash(self):
        assert ActorAddress(1, 2) == ActorAddress(1, 2)
        assert ActorAddress(1, 2) != ActorAddress(1, 3)
        assert ActorAddress(1, 2) != ActorAddress(2, 2)
        assert hash(ActorAddress(1, 2)) == hash(ActorAddress(1, 2))

    def test_actor_and_space_addresses_never_equal(self):
        """Section 5.7: type information distinguishes the two kinds."""
        assert ActorAddress(0, 0) != SpaceAddress(0, 0)
        assert hash(ActorAddress(0, 0)) != hash(SpaceAddress(0, 0))

    def test_kind_predicates(self):
        assert is_actor_address(ActorAddress(0, 1))
        assert not is_actor_address(SpaceAddress(0, 1))
        assert is_space_address(SpaceAddress(0, 1))
        assert not is_space_address("not an address")

    def test_ordering_is_total_and_stable(self):
        addrs = [ActorAddress(1, 0), ActorAddress(0, 1), SpaceAddress(0, 0)]
        ordered = sorted(addrs)
        assert sorted(reversed(ordered)) == ordered

    def test_canonical_order_is_kind_node_serial(self):
        """``address_key`` sorts exactly like the comparison operators."""
        addrs = [kind(node, serial) for kind in (SpaceAddress, ActorAddress)
                 for node in (2, 0, 1) for serial in (5, 0, 3)]
        by_key = sorted(addrs, key=address_key)
        assert by_key == sorted(addrs)
        assert by_key == sorted(
            addrs, key=lambda a: (a.kind, a.node, a.serial))
        assert all(a < b and not b < a and a <= b and b > a
                   for a, b in zip(by_key, by_key[1:]))

    def test_repr_mentions_kind(self):
        assert "actor" in repr(ActorAddress(3, 4))
        assert "space" in repr(SpaceAddress(3, 4))


class TestFactory:
    def test_serials_increase_across_kinds(self):
        f = AddressFactory(2)
        a = f.new_actor_address()
        s = f.new_space_address()
        b = f.new_actor_address()
        assert (a.serial, s.serial, b.serial) == (0, 1, 2)
        assert a.node == s.node == b.node == 2

    def test_two_factories_never_collide_across_nodes(self):
        f0, f1 = AddressFactory(0), AddressFactory(1)
        made = [f0.new_actor_address() for _ in range(10)]
        made += [f1.new_actor_address() for _ in range(10)]
        assert len(set(made)) == 20
