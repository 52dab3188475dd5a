"""The collapse's fast paths against the algorithms they replaced.

Two references live here, both the previous function bodies verbatim:

* :func:`linear_next_hop` — the first-match scan of a switch's table
  that ``ForwardingState.next_hop`` performed per lookup before it
  became a per-switch ``dst -> hop`` index.  Generated tables have
  overlapping destination sets and a default route in the middle, and
  lookups are interleaved with every way a table can change
  (``prepend``, ``remove_entries_to``, ``copy()``, assigning to
  ``tables`` directly), so an index that outlives its table shows.
* :func:`reference_transfer_rules` — ``compute_transfer_rules`` with
  one ``walk`` per (destination, ingress) pair, over the linear scan.
  The memoised collapse must return the identical rule *tuple*, order
  included: rule order reaches the encoding and every ``--stable-json``
  byte downstream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netmodel.rules import HeaderMatch, TransferRule
from repro.network import (
    ForwardingEntry,
    ForwardingState,
    compute_transfer_rules,
    shortest_path_tables,
)
from repro.network.topology import SWITCH
from repro.network.transfer import ForwardingLoopError, SteeringPolicy
from repro.scenarios import SCENARIOS, build_scenario


def linear_next_hop(tables, switch, dst):
    for entry in tables.get(switch, ()):
        if entry.dsts is None or dst in entry.dsts:
            return entry.next_hop
    return None


# ----------------------------------------------------------------------
# Indexed next_hop == linear first match
# ----------------------------------------------------------------------
SWITCHES = ["s0", "s1", "s2"]
DSTS = ["d0", "d1", "d2", "d3", "d4"]
HOPS = ["n0", "n1", "n2"]

dst_sets = st.one_of(
    st.none(),  # a default route, wherever it lands in the table
    st.frozensets(st.sampled_from(DSTS), min_size=1, max_size=3),
)
entries = st.builds(ForwardingEntry, dst_sets, st.sampled_from(HOPS))
table_maps = st.dictionaries(
    st.sampled_from(SWITCHES), st.lists(entries, max_size=6), max_size=3
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.sampled_from(SWITCHES + ["nowhere"]),
                  st.sampled_from(DSTS + ["unknown"])),
        st.tuples(st.just("prepend"), st.sampled_from(SWITCHES), dst_sets,
                  st.sampled_from(HOPS)),
        st.tuples(st.just("remove"), st.sampled_from(SWITCHES),
                  st.sampled_from(HOPS)),
        st.tuples(st.just("assign"), st.sampled_from(SWITCHES),
                  st.lists(entries, max_size=4)),
        st.tuples(st.just("copy")),
    ),
    max_size=12,
)


def assert_index_matches_scan(state):
    for switch in SWITCHES + ["nowhere"]:
        for dst in DSTS + ["unknown"]:
            assert state.next_hop(switch, dst) == linear_next_hop(
                state.tables, switch, dst), (switch, dst, state.tables)


@settings(max_examples=300, deadline=None)
@given(table_maps, ops)
def test_indexed_next_hop_is_first_match(tables, script):
    state = ForwardingState({s: list(t) for s, t in tables.items()})
    assert_index_matches_scan(state)  # every index is built from here on
    for op, *args in script:
        if op == "lookup":
            switch, dst = args
            assert state.next_hop(switch, dst) == linear_next_hop(
                state.tables, switch, dst)
            continue
        if op == "prepend":
            state.prepend(*args)
        elif op == "remove":
            switch, hop = args
            before = len(state.tables.get(switch, []))
            removed = state.remove_entries_to(switch, hop)
            assert removed == before - len(state.tables[switch])
        elif op == "assign":
            switch, table = args
            state.tables[switch] = list(table)
        else:  # copy: the original keeps answering, the copy diverges
            original, state = state, state.copy()
            state.prepend("s0", ["d0"], "copied")
            assert original.next_hop("s0", "d0") == linear_next_hop(
                original.tables, "s0", "d0")
        assert_index_matches_scan(state)


def test_default_route_shadows_everything_after_it():
    state = ForwardingState({"s": [
        ForwardingEntry(frozenset({"a"}), "first"),
        ForwardingEntry(None, "default"),
        ForwardingEntry(frozenset({"a", "b"}), "never"),
    ]})
    assert state.next_hop("s", "a") == "first"
    assert state.next_hop("s", "b") == "default"
    state.remove_entries_to("s", "default")
    assert state.next_hop("s", "b") == "never"
    assert state.next_hop("s", "c") is None


# ----------------------------------------------------------------------
# Memoised collapse == one walk per (destination, ingress)
# ----------------------------------------------------------------------
def reference_walk(topology, state, src, target, scenario):
    reached = []
    for attach in topology.neighbors(src):
        if topology.node(attach).kind != SWITCH:
            if attach == target and scenario.node_ok(attach):
                reached.append(attach)
            continue
        if not scenario.node_ok(attach) or not scenario.link_ok(src, attach):
            continue
        visited = []
        cur = attach
        while True:
            if cur in visited:
                raise ForwardingLoopError(visited + [cur], target)
            visited.append(cur)
            nxt = linear_next_hop(state.tables, cur, target)
            if nxt is None:
                break
            if not scenario.node_ok(nxt) or not scenario.link_ok(cur, nxt):
                break
            if topology.node(nxt).kind != SWITCH:
                if nxt != src:
                    reached.append(nxt)
                break
            cur = nxt
    return sorted(set(reached))


def reference_transfer_rules(topology, state, steering, scenario):
    steering = steering or SteeringPolicy()
    edge = [n.name for n in topology.edge_nodes if scenario.node_ok(n.name)]
    destinations = [n.name for n in topology.hosts if scenario.node_ok(n.name)]
    destinations += [n.name for n in topology.middleboxes
                     if scenario.node_ok(n.name)]
    raw = {}
    for dst in destinations:
        for src in edge:
            if src == dst:
                continue
            stage = steering.next_stage(src, dst)
            if stage is None or not scenario.node_ok(stage):
                continue
            for hit in reference_walk(topology, state, src, stage, scenario):
                raw.setdefault((dst, hit), set()).add(src)
    grouped = {}
    for (dst, to), srcs in raw.items():
        grouped.setdefault((frozenset(srcs), to), set()).add(dst)
    return tuple(
        TransferRule.of(HeaderMatch.of(dst=dsts), to=to, from_nodes=srcs)
        for (srcs, to), dsts in sorted(
            grouped.items(), key=lambda kv: (kv[0][1], sorted(kv[1]))
        )
    )


def registered_cases():
    """Every registered scenario at sizes 2-6, healthy and with its
    misconfiguration injected where it has one at that size."""
    for name in sorted(SCENARIOS):
        for size in range(2, 7):
            yield name, size, False
            # multitenant has no injector; two enterprise subnets have
            # no quarantined host to misconfigure.
            if name != "multitenant" and (name, size) != ("enterprise", 2):
                yield name, size, True


@pytest.mark.parametrize("name,size,misconfig", list(registered_cases()))
def test_registered_scenarios_collapse_to_the_same_rule_tuple(name, size, misconfig):
    bundle = build_scenario(name, size=size, misconfig=misconfig)
    tables = shortest_path_tables(bundle.topology, bundle.scenario)
    got = compute_transfer_rules(
        bundle.topology, tables, bundle.steering, bundle.scenario)
    want = reference_transfer_rules(
        bundle.topology, tables, bundle.steering, bundle.scenario)
    assert got == want
    # The facade collapses through the same function.
    assert bundle.vmn().rules == want
