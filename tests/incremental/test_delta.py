"""Delta apply/revert round-trips against real topologies (no solver)."""

import pytest

from repro.incremental import (
    AddHost,
    AddMiddlebox,
    DeltaError,
    DeltaSequence,
    EditPolicyRules,
    LinkDown,
    LinkUp,
    RemoveHost,
    RemoveMiddlebox,
    ReplaceMiddlebox,
    SetChain,
)
from repro.mboxes import AclFirewall, Gateway, LearningFirewall
from repro.network import SteeringPolicy, Topology


def small_network():
    topo = Topology()
    topo.add_switch("sw")
    topo.add_host("a", policy_group="g1")
    topo.add_host("b", policy_group="g2")
    topo.add_middlebox(LearningFirewall("fw", deny=[("a", "b")],
                                        default_allow=True))
    topo.add_link("a", "sw")
    topo.add_link("b", "sw")
    topo.add_link("fw", "sw")
    return topo, SteeringPolicy(chains={"a": ("fw",), "b": ("fw",)})


def snapshot(topo, steering):
    """Everything a delta may change, in comparable form."""
    return {
        "nodes": {
            n: (topo.node(n).kind, topo.node(n).policy_group)
            for n in sorted(topo.node_names)
        },
        "links": {tuple(sorted(e)) for e in topo.links},
        "configs": {
            mb.name: (type(mb.model).__name__, tuple(mb.model.config_pairs()))
            for mb in topo.middleboxes
        },
        "chains": dict(steering.chains),
    }


DELTAS = [
    AddHost("c", links=("sw",), policy_group="g1", chain=("fw",)),
    RemoveHost("b"),
    AddMiddlebox(AclFirewall("fw2", acl=[("a", "b")]), links=("sw",)),
    RemoveMiddlebox("fw"),
    ReplaceMiddlebox(LearningFirewall("fw", deny=[("b", "a")],
                                      default_allow=True)),
    EditPolicyRules("fw", add=(("b", "a"),), remove=(("a", "b"),)),
    SetChain("a", ("fw", "fw")),
    SetChain("b", None),
    LinkDown("a", "sw"),
]


class TestRoundTrip:
    @pytest.mark.parametrize("delta", DELTAS, ids=lambda d: d.describe())
    def test_inverse_restores_network(self, delta):
        topo, steering = small_network()
        before = snapshot(topo, steering)
        new_steering, inverse = delta.apply(topo, steering)
        assert snapshot(topo, new_steering) != before  # it did something
        restored, _ = inverse.apply(topo, new_steering)
        assert snapshot(topo, restored) == before

    def test_link_up_down_chain(self):
        topo, steering = small_network()
        steering, inv = LinkDown("a", "sw").apply(topo, steering)
        assert not topo.has_link("a", "sw")
        assert isinstance(inv, LinkUp)
        steering, inv2 = inv.apply(topo, steering)
        assert topo.has_link("a", "sw")
        assert isinstance(inv2, LinkDown)

    def test_edit_rules_overlap_is_exactly_invertible(self):
        """Adding a pair that already exists must not delete it on revert."""
        topo, steering = small_network()
        delta = EditPolicyRules("fw", add=(("a", "b"), ("b", "a")))
        steering, inverse = delta.apply(topo, steering)
        # ("a","b") was already present: only ("b","a") is undone.
        assert inverse.remove == (("b", "a"),)
        assert inverse.add == ()
        inverse.apply(topo, steering)
        assert {(a, b) for _, a, b in topo.node("fw").model.config_pairs()} == {
            ("a", "b")
        }


class TestErrors:
    def test_duplicate_host(self):
        topo, steering = small_network()
        with pytest.raises(DeltaError):
            AddHost("a").apply(topo, steering)

    def test_remove_unknown_host(self):
        topo, steering = small_network()
        with pytest.raises(DeltaError):
            RemoveHost("nope").apply(topo, steering)

    def test_remove_host_is_not_remove_middlebox(self):
        topo, steering = small_network()
        with pytest.raises(DeltaError):
            RemoveHost("fw").apply(topo, steering)
        with pytest.raises(DeltaError):
            RemoveMiddlebox("a").apply(topo, steering)

    def test_replace_unknown_middlebox(self):
        topo, steering = small_network()
        with pytest.raises(DeltaError):
            ReplaceMiddlebox(AclFirewall("ghost", acl=())).apply(topo, steering)

    def test_edit_rules_unsupported_model(self):
        topo, steering = small_network()
        topo.add_middlebox(Gateway("gw"))
        topo.add_link("gw", "sw")
        with pytest.raises(DeltaError):
            EditPolicyRules("gw", add=(("a", "b"),)).apply(topo, steering)

    def test_link_already_up(self):
        topo, steering = small_network()
        with pytest.raises(DeltaError):
            LinkUp("a", "sw").apply(topo, steering)

    def test_link_down_unknown(self):
        topo, steering = small_network()
        with pytest.raises(DeltaError):
            LinkDown("a", "b").apply(topo, steering)


class TestTouchedNodes:
    def test_add_host_excludes_chain(self):
        delta = AddHost("c", links=("sw",), chain=("fw", "gw"))
        assert delta.touched_nodes() == {"c", "sw"}

    def test_set_chain_touches_destination_only(self):
        assert SetChain("a", ("fw",)).touched_nodes() == {"a"}

    def test_add_middlebox_includes_linked_nodes(self):
        class Linked(AclFirewall):
            def linked_nodes(self):
                return ("backend",)

        delta = AddMiddlebox(Linked("lb", acl=()), links=("sw",))
        assert delta.touched_nodes() == {"lb", "sw", "backend"}


class TestReconfiguredNodes:
    """Which touched nodes a delta only pushes a configuration to (the
    impact index projects those; everything else is conservative)."""

    def test_structural_deltas_reconfigure_nothing(self):
        for delta in (
            AddHost("c", links=("sw",)),
            RemoveHost("a"),
            AddMiddlebox(AclFirewall("fw9", acl=()), links=("sw",)),
            RemoveMiddlebox("fw"),
            SetChain("a", ("fw",)),
            LinkDown("a", "sw"),
            LinkUp("a", "sw"),
        ):
            assert delta.reconfigured_nodes() == frozenset(), delta

    def test_config_pushes_name_their_box(self):
        assert EditPolicyRules("fw", add=(("a", "b"),)).reconfigured_nodes() == {"fw"}

        class Linked(AclFirewall):
            def linked_nodes(self):
                return ("backend",)

        delta = ReplaceMiddlebox(Linked("fw", acl=()))
        assert delta.touched_nodes() == {"fw", "backend"}
        assert delta.reconfigured_nodes() == {"fw"}

    def test_sequence_drops_boxes_touched_for_any_other_reason(self):
        push = EditPolicyRules("fw", add=(("a", "b"),))
        assert DeltaSequence((push, push)).reconfigured_nodes() == {"fw"}
        for other in (LinkDown("fw", "sw"), SetChain("fw", ("fw2",)),
                      RemoveMiddlebox("fw")):
            assert DeltaSequence((push, other)).reconfigured_nodes() == frozenset()
            assert DeltaSequence((other, push)).reconfigured_nodes() == frozenset()
        # A box of its own, edited beside a structural change elsewhere.
        mixed = DeltaSequence((push, LinkDown("a", "sw")))
        assert mixed.reconfigured_nodes() == {"fw"}
