"""Tests for forwarding tables, walks and the VeriFlow-style collapse."""

import pytest

from repro.mboxes import AclFirewall, LearningFirewall
from repro.network import (
    FailureScenario,
    ForwardingLoopError,
    SteeringPolicy,
    Topology,
    build_verification_network,
    compute_transfer_rules,
    forwarding_equivalence_classes,
    shortest_path_tables,
    single_failures,
    walk,
)


def line_topology():
    """h1 - s1 - s2 - h2, with a middlebox fw hanging off s1."""
    topo = Topology()
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_switch("s1")
    topo.add_switch("s2")
    fw = LearningFirewall("fw", allow=[("h1", "h2")])
    topo.add_middlebox(fw)
    topo.add_link("h1", "s1")
    topo.add_link("s1", "s2")
    topo.add_link("s2", "h2")
    topo.add_link("fw", "s1")
    return topo, fw


class TestTopology:
    def test_node_kinds(self):
        topo, fw = line_topology()
        assert {n.name for n in topo.hosts} == {"h1", "h2"}
        assert {n.name for n in topo.switches} == {"s1", "s2"}
        assert [n.name for n in topo.middleboxes] == ["fw"]
        assert topo.node("fw").model is fw

    def test_duplicate_rejected(self):
        topo = Topology()
        topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_switch("x")

    def test_unknown_link_endpoint(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(KeyError):
            topo.add_link("a", "nope")

    def test_revision_counts_structure_edits_only(self):
        """Every mutator that can move a path bumps ``revision``; a
        config push (and a rejected edit) leaves it alone."""
        topo, _ = line_topology()
        seen = [topo.revision]

        def bumped():
            seen.append(topo.revision)
            return seen[-1] > seen[-2]

        topo.add_host("h3", policy_group="g")
        assert bumped()
        topo.add_switch("s3")
        assert bumped()
        topo.add_middlebox(AclFirewall("fw2", acl=()))
        assert bumped()
        topo.add_link("h3", "s3")
        assert bumped()
        topo.remove_link("h3", "s3")
        assert bumped()
        topo.remove_node("h3")
        assert bumped()

        settled = topo.revision
        topo.replace_middlebox(LearningFirewall("fw", allow=[("h2", "h1")]))
        with pytest.raises(ValueError):
            topo.add_switch("s1")
        with pytest.raises(KeyError):
            topo.remove_link("h1", "h2")
        assert topo.revision == settled

    def test_policy_groups(self):
        topo = Topology()
        topo.add_host("a", policy_group="g1")
        topo.add_host("b", policy_group="g1")
        topo.add_host("c", policy_group="g2")
        assert topo.policy_groups == ["g1", "g2"]
        assert topo.hosts_in_group("g1") == ["a", "b"]


class TestShortestPathTables:
    def test_next_hops_follow_shortest_paths(self):
        topo, _ = line_topology()
        state = shortest_path_tables(topo)
        assert state.next_hop("s1", "h2") == "s2"
        assert state.next_hop("s2", "h2") == "h2"
        assert state.next_hop("s2", "h1") == "s1"
        assert state.next_hop("s1", "fw") == "fw"

    def test_paths_do_not_cut_through_hosts(self):
        """h1 - s1 - h2 - s2 - h3: s1 must not reach h3 "through" h2."""
        topo = Topology()
        for h in ("h1", "h2", "h3"):
            topo.add_host(h)
        topo.add_switch("s1")
        topo.add_switch("s2")
        topo.add_link("h1", "s1")
        topo.add_link("s1", "h2")
        topo.add_link("h2", "s2")
        topo.add_link("s2", "h3")
        state = shortest_path_tables(topo)
        assert state.next_hop("s1", "h3") is None

    def test_failure_reroutes(self):
        """Redundant paths: s1 - {s2|s3} - s4; failing s2 reroutes."""
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        for s in ("s1", "s2", "s3", "s4"):
            topo.add_switch(s)
        topo.add_link("a", "s1")
        topo.add_link("s1", "s2")
        topo.add_link("s1", "s3")
        topo.add_link("s2", "s4")
        topo.add_link("s3", "s4")
        topo.add_link("s4", "b")
        healthy = shortest_path_tables(topo)
        assert healthy.next_hop("s1", "b") in ("s2", "s3")
        broken = shortest_path_tables(topo, FailureScenario.of("f", nodes=["s2"]))
        assert broken.next_hop("s1", "b") == "s3"

    def test_partition_drops_traffic(self):
        topo, _ = line_topology()
        state = shortest_path_tables(
            topo, FailureScenario.of("cut", links=[("s1", "s2")])
        )
        assert state.next_hop("s1", "h2") is None


class TestWalk:
    def test_simple_walk(self):
        topo, _ = line_topology()
        state = shortest_path_tables(topo)
        assert walk(topo, state, "h1", "h2") == ["h2"]
        assert walk(topo, state, "h1", "fw") == ["fw"]
        assert walk(topo, state, "fw", "h2") == ["h2"]

    def test_walk_dropped_on_miss(self):
        topo, _ = line_topology()
        state = shortest_path_tables(topo)
        state.tables["s2"] = []  # wipe s2
        assert walk(topo, state, "h1", "h2") == []

    def test_loop_detection(self):
        topo, _ = line_topology()
        state = shortest_path_tables(topo)
        # Make s1 and s2 point at each other for h2.
        state.tables["s1"] = []
        state.tables["s2"] = []
        state.prepend("s1", ["h2"], "s2")
        state.prepend("s2", ["h2"], "s1")
        with pytest.raises(ForwardingLoopError):
            walk(topo, state, "h1", "h2")

    def test_direct_link_tunnel(self):
        """An edge-to-edge link (IDS tunnel) is walkable."""
        topo = Topology()
        topo.add_host("a")
        fw = AclFirewall("box", acl=[])
        topo.add_middlebox(fw)
        topo.add_link("a", "box")
        state = shortest_path_tables(topo)
        assert walk(topo, state, "a", "box") == ["box"]


class TestTransferRules:
    def test_steering_builds_pipeline(self):
        topo, _ = line_topology()
        state = shortest_path_tables(topo)
        steering = SteeringPolicy(chains={"h2": ("fw",)})
        rules = compute_transfer_rules(topo, state, steering)
        # Traffic to h2 from h1 goes to the firewall first...
        to_fw = [r for r in rules if r.to == "fw" and "h2" in (r.match.dst or ())]
        assert to_fw and "h1" in to_fw[0].from_nodes
        # ...and reaches h2 only from the firewall.
        to_h2 = [r for r in rules if r.to == "h2"]
        assert to_h2 and all(r.from_nodes == frozenset({"fw"}) for r in to_h2)

    def test_no_steering_direct_delivery(self):
        topo, _ = line_topology()
        state = shortest_path_tables(topo)
        rules = compute_transfer_rules(topo, state)
        to_h2 = [r for r in rules if r.to == "h2"]
        assert to_h2
        assert any("h1" in (r.from_nodes or ()) for r in to_h2)

    def test_failed_chain_stage_drops_traffic(self):
        topo, _ = line_topology()
        scenario = FailureScenario.of("fw-down", nodes=["fw"])
        state = shortest_path_tables(topo, scenario)
        steering = SteeringPolicy(chains={"h2": ("fw",)})
        rules = compute_transfer_rules(topo, state, steering, scenario)
        assert not [r for r in rules if r.to == "h2"]

    def test_equivalence_classes(self):
        """Hosts treated identically share a forwarding class."""
        topo = Topology()
        topo.add_switch("s")
        for h in ("a", "b", "c"):
            topo.add_host(h)
            topo.add_link(h, "s")
        state = shortest_path_tables(topo)
        rules = compute_transfer_rules(topo, state)
        classes = forwarding_equivalence_classes(rules)
        # a, b, c all: reachable from the two others directly -> the
        # ingress sets differ per destination, so three classes.
        assert len(classes) == 3

    def test_single_failures_enumeration(self):
        topo, _ = line_topology()
        names = {s.name for s in single_failures(topo)}
        assert names == {"fail:fw", "fail:s1", "fail:s2"}


class TestEndToEndCollapse:
    def test_firewalled_line_verifies(self):
        """Full path: topology -> tables -> rules -> SMT check."""
        from repro.core import CanReach, FlowIsolation
        from repro.netmodel import HOLDS, VIOLATED, check

        topo, _ = line_topology()
        state = shortest_path_tables(topo)
        steering = SteeringPolicy(chains={"h1": ("fw",), "h2": ("fw",)})
        net = build_verification_network(topo, state, steering)
        # The ACL permits h1 -> h2, so h2 is reachable; h1 itself only
        # receives return traffic on flows it opened.
        assert check(net, FlowIsolation("h1", "h2")).status == HOLDS
        assert check(net, CanReach("h2", "h1"), n_packets=2).status == VIOLATED

    def test_firewall_failure_scenario_blocks_everything(self):
        from repro.core import CanReach
        from repro.netmodel import HOLDS, check

        topo, _ = line_topology()
        scenario = FailureScenario.of("fw-down", nodes=["fw"])
        state = shortest_path_tables(topo, scenario)
        steering = SteeringPolicy(chains={"h1": ("fw",), "h2": ("fw",)})
        net = build_verification_network(topo, state, steering, scenario)
        assert check(net, CanReach("h2", "h1"), n_packets=2).status == HOLDS
