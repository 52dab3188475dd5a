"""Change-impact index semantics (pure set arithmetic, no solver)."""

from types import SimpleNamespace

from repro.core.slicing import Slice
from repro.incremental import (
    ChangeImpactIndex,
    ChangeSummary,
    EditPolicyRules,
    ImpactEntry,
    ReplaceMiddlebox,
)
from repro.incremental.impact import middlebox_models, shared_state_boxes
from repro.mboxes import AclFirewall, ContentCache, LearningFirewall
from repro.netmodel import HeaderMatch, TransferRule, VerificationNetwork
from repro.network import Topology


def rule(dst, to, frm=None):
    return TransferRule.of(HeaderMatch.of(dst=dst), to=to, from_nodes=frm)


def entry(nodes, reps=False):
    return ImpactEntry(nodes=frozenset(nodes), used_representatives=reps)


def summary(touched=(), old=(), new=(), reps=False, shared=False,
            reconfigured=None):
    return ChangeSummary(
        touched=frozenset(touched),
        old_rules=tuple(old),
        new_rules=tuple(new),
        representatives_changed=reps,
        shared_boxes_changed=shared,
        reconfigured=reconfigured or {},
    )


def firewall(*deny):
    return LearningFirewall("fw", deny=deny, default_allow=True)


class TestAffects:
    def test_whole_network_always_invalidated(self):
        assert summary().affects(ImpactEntry(nodes=None))

    def test_disjoint_touch_and_identical_rules_is_safe(self):
        rules = [rule({"a"}, "fw", {"b"})]
        change = summary(touched={"x"}, old=rules, new=rules)
        assert not change.affects(entry({"a", "b", "fw"}))

    def test_touched_slice_node_invalidates(self):
        change = summary(touched={"fw"})
        assert change.affects(entry({"a", "fw"}))
        assert not change.affects(entry({"a", "b"}))

    def test_shared_box_change_invalidates_everything(self):
        change = summary(shared=True)
        assert change.affects(entry({"a"}))

    def test_representative_change_hits_representative_slices_only(self):
        change = summary(reps=True)
        assert change.affects(entry({"a"}, reps=True))
        assert not change.affects(entry({"a"}, reps=False))

    def test_rule_regrouping_outside_slice_is_invisible(self):
        """A new ingress node joining from_nodes, and dst-group splits,
        are invisible to slices that exclude the new node."""
        old = [rule({"a", "b"}, "fw", {"a", "b"})]
        new = [rule({"a"}, "fw", {"a", "b", "h"}),
               rule({"b"}, "fw", {"a", "b", "h"}),
               rule({"h"}, "fw", {"a", "b"})]
        change = summary(touched={"h"}, old=old, new=new)
        assert not change.affects(entry({"a", "b", "fw"}))

    def test_rule_change_inside_slice_invalidates(self):
        old = [rule({"a"}, "fw", {"b"})]
        new = [rule({"a"}, "fw", {"b", "c"})]  # new ingress c IS in slice
        change = summary(touched={"x"}, old=old, new=new)
        assert change.affects(entry({"a", "b", "c", "fw"}))

    def test_closure_breaking_rule_invalidates(self):
        old = [rule({"a"}, "fw", {"b"})]
        new = [rule({"a"}, "outsider", {"b"})]  # delivers outside the slice
        change = summary(touched={"x"}, old=old, new=new)
        assert change.affects(entry({"a", "b", "fw"}))


class TestProjectedConfigs:
    """A reconfigured box invalidates a slice only when its config
    *restricted to the slice* changed."""

    def test_rule_about_outside_addresses_is_invisible(self):
        change = summary(reconfigured={
            "fw": (firewall(("a", "b")), firewall(("a", "b"), ("x", "a")))})
        assert not change.affects(entry({"a", "b", "fw"}))
        assert change.affects(entry({"a", "x", "fw"}))

    def test_slices_without_the_box_are_untouched(self):
        change = summary(reconfigured={
            "fw": (firewall(("a", "b")), firewall())})
        assert not change.affects(entry({"a", "b"}))
        assert change.affects(entry({"a", "b", "fw"}))

    def test_rule_projection_still_applies(self):
        same = firewall(("a", "b"))
        change = summary(
            reconfigured={"fw": (same, same)},
            old=[rule({"a"}, "fw", {"b"})], new=[rule({"a"}, "fw", {"b", "c"})],
        )
        assert change.affects(entry({"a", "b", "c", "fw"}))

    def test_unfingerprintable_model_invalidates(self):
        class Opaque(LearningFirewall):
            def restricted(self, addresses):
                model = Opaque(self.name, deny=self.deny, default_allow=True)
                model.hook = lambda: None  # canon cannot serialise this
                return model

        old = Opaque("fw", deny=[("a", "b")], default_allow=True)
        change = summary(reconfigured={"fw": (old, old)})
        assert change.affects(entry({"a", "fw"}))


class TestBetween:
    """Which touched boxes ``between`` projects, and which fall back to
    the conservative rule."""

    def network(self, model):
        topo = Topology()
        topo.add_switch("sw")
        for host in ("a", "b", "x"):
            topo.add_host(host)
            topo.add_link(host, "sw")
        topo.add_middlebox(model)
        topo.add_link(model.name, "sw")
        return topo

    def facade(self, topo):
        """What ``between`` reads off a VMN, rules and classes held equal."""
        return SimpleNamespace(
            topology=topo, rules=(),
            policy_classes=SimpleNamespace(representatives=lambda: []),
        )

    def change(self, topo, delta):
        """Apply ``delta`` the way a session does: snapshot, mutate,
        summarise."""
        vmn = self.facade(topo)
        old_shared = shared_state_boxes(topo)
        old_models = middlebox_models(topo, delta.reconfigured_nodes())
        delta.apply(topo, None)
        return ChangeSummary.between(vmn, vmn, delta, old_shared, old_models)

    def test_rule_edit_is_projected(self):
        topo = self.network(firewall(("a", "b")))
        change = self.change(topo, EditPolicyRules("fw", add=(("x", "a"),)))
        assert change.touched == frozenset()
        assert set(change.reconfigured) == {"fw"}
        assert not change.affects(entry({"a", "b", "fw"}))
        assert change.affects(entry({"a", "x", "fw"}))

    def test_same_class_replacement_is_projected(self):
        topo = self.network(firewall(("a", "b")))
        change = self.change(topo, ReplaceMiddlebox(firewall(("a", "b"), ("x", "b"))))
        assert not change.affects(entry({"a", "b", "fw"}))
        assert change.affects(entry({"b", "x", "fw"}))

    def test_retyped_box_falls_back(self):
        topo = self.network(firewall(("a", "b")))
        change = self.change(topo, ReplaceMiddlebox(AclFirewall("fw", acl=[("a", "b")])))
        assert change.reconfigured == {}
        assert change.touched == {"fw"}
        assert change.affects(entry({"a", "b", "fw"}))

    def test_relinked_box_falls_back(self):
        class Linked(LearningFirewall):
            def __init__(self, name, backend):
                super().__init__(name, deny=[("a", "b")], default_allow=True)
                self.backend = backend

            def linked_nodes(self):
                return (self.backend,)

        topo = self.network(Linked("fw", backend="x"))
        change = self.change(topo, ReplaceMiddlebox(Linked("fw", backend="b")))
        assert change.reconfigured == {}
        assert change.touched == {"fw", "b"}

    def test_state_sharing_flag_change_falls_back(self):
        topo = self.network(ContentCache("fw", deny=[]))
        new = ContentCache("fw", deny=[("a", "b")])
        new.origin_agnostic = False
        change = self.change(topo, ReplaceMiddlebox(new))
        assert change.reconfigured == {}
        assert change.affects(entry({"a", "fw"}))

    def test_without_a_snapshot_everything_is_conservative(self):
        topo = self.network(firewall(("a", "b")))
        delta = EditPolicyRules("fw", add=(("x", "a"),))
        vmn = self.facade(topo)
        delta.apply(topo, None)
        change = ChangeSummary.between(vmn, vmn, delta, shared_state_boxes(topo))
        assert change.touched == {"fw"}
        assert change.affects(entry({"a", "b", "fw"}))


class TestIndex:
    def _slice(self, nodes, reps=False):
        return Slice(
            network=VerificationNetwork(hosts=tuple(sorted(nodes))),
            nodes=frozenset(nodes),
            used_representatives=reps,
        )

    def test_record_and_invalidate(self):
        index = ChangeImpactIndex()
        index.record(0, self._slice({"a", "fw"}))
        index.record(1, self._slice({"b", "fw"}))
        index.record(2, None)  # whole-network fallback
        hit = index.invalidated(summary(touched={"a"}))
        assert sorted(hit) == [0, 2]

    def test_unknown_keys_always_invalidated(self):
        index = ChangeImpactIndex()
        assert index.invalidated(summary(), keys=[7]) == [7]

    def test_forget(self):
        index = ChangeImpactIndex()
        index.record(0, self._slice({"a"}))
        index.forget(0)
        assert 0 not in index
        assert len(index) == 0
