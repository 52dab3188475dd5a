"""``shortest_path_tables`` against the networkx implementation it replaced.

The reference below is the previous function body, verbatim, over the
``networkx.Graph`` the previous ``Topology`` maintained.  Every
``Topology`` built in this module keeps such a graph on the side,
through the same sequence of calls (see :func:`_mirror`), so the two
implementations see what they would have seen in the program — node
order, adjacency order and all.  Tables must be *identical*: same
switches in the same order, same entries in the same order.  Equal-cost
ties are where they could differ, and every trace and ``--stable-json``
byte downstream depends on which tie wins.

Skipped without networkx: the package itself no longer needs it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import (
    NO_FAILURE,
    FailureScenario,
    ForwardingEntry,
    ForwardingState,
    Topology,
    shortest_path_tables,
)
from repro.network.topology import SWITCH
from repro.scenarios import SCENARIOS, build_scenario

nx = pytest.importorskip("networkx")


@pytest.fixture(autouse=True)
def _mirror(monkeypatch):
    """Make every ``Topology`` also apply its mutations to
    ``self.graph``, an ``nx.Graph``, exactly as the parent commit did."""
    init, add = Topology.__init__, Topology._add
    add_link, remove_link = Topology.add_link, Topology.remove_link
    remove_node = Topology.remove_node

    def mirrored_init(self):
        init(self)
        self.graph = nx.Graph()

    def mirrored_add(self, node):
        added = add(self, node)
        self.graph.add_node(node.name)
        return added

    def mirrored_add_link(self, a, b):
        add_link(self, a, b)
        self.graph.add_edge(a, b)

    def mirrored_remove_link(self, a, b):
        remove_link(self, a, b)
        self.graph.remove_edge(a, b)

    def mirrored_remove_node(self, name):
        removed = remove_node(self, name)
        self.graph.remove_node(name)
        return removed

    monkeypatch.setattr(Topology, "__init__", mirrored_init)
    monkeypatch.setattr(Topology, "_add", mirrored_add)
    monkeypatch.setattr(Topology, "add_link", mirrored_add_link)
    monkeypatch.setattr(Topology, "remove_link", mirrored_remove_link)
    monkeypatch.setattr(Topology, "remove_node", mirrored_remove_node)


def reference_tables(topology, scenario=NO_FAILURE) -> ForwardingState:
    alive = nx.Graph()
    for node in topology.graph.nodes:
        if scenario.node_ok(node):
            alive.add_node(node)
    for a, b in topology.graph.edges:
        if scenario.node_ok(a) and scenario.node_ok(b) and scenario.link_ok(a, b):
            alive.add_edge(a, b)

    non_switch = [n for n in alive.nodes if topology.node(n).kind != SWITCH]
    tables = {
        n.name: [] for n in topology.switches if scenario.node_ok(n.name)
    }

    for dst in non_switch:
        # Shortest paths to dst that do not route through other edge nodes.
        pruned = alive.copy()
        for n in non_switch:
            if n != dst:
                pruned.remove_node(n)
        if dst not in pruned:
            continue
        paths = nx.single_source_shortest_path(pruned, dst)
        for switch in tables:
            path = paths.get(switch)
            if path is None or len(path) < 2:
                continue
            next_hop = path[-2]  # path is dst -> ... -> switch
            tables[switch].append(ForwardingEntry(frozenset({dst}), next_hop))

    return ForwardingState(tables)


def assert_same_tables(topology, scenario):
    got = shortest_path_tables(topology, scenario).tables
    want = reference_tables(topology, scenario).tables
    assert list(got) == list(want), f"switch order under {scenario}"
    for switch in want:
        assert got[switch] == want[switch], f"table of {switch} under {scenario}"


def single_failures(topology):
    """Every single-node and every single-link failure."""
    for node in topology.node_names:
        yield FailureScenario.of(f"fail:{node}", nodes=[node])
    for a, b in topology.links:
        yield FailureScenario.of(f"cut:{a}-{b}", links=[(a, b)])


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registered_scenarios(name, size):
    topology = build_scenario(name, size=size).topology
    assert topology.node_names == list(topology.graph.nodes)
    assert topology.links == list(topology.graph.edges)
    assert_same_tables(topology, NO_FAILURE)
    for scenario in single_failures(topology):
        assert_same_tables(topology, scenario)


# ----------------------------------------------------------------------
# Generated meshes: a switch grid (equal-cost ties everywhere) plus a
# detached switch pair (disconnected parts), edge nodes hung off random
# switches — some dual-homed, some linked to each other — then a few
# removals and re-additions, which reorder adjacency.
# ----------------------------------------------------------------------
@st.composite
def meshes(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    n_hosts = draw(st.integers(2, 5))
    grid = [f"s{r}{c}" for r in range(rows) for c in range(cols)]
    switches = grid + ["island0", "island1"]
    hosts = [f"h{i}" for i in range(n_hosts)]
    build = [("host" if name in hosts else "switch", name)
             for name in draw(st.permutations(switches + hosts))]
    wires = [(f"s{r}{c}", f"s{r}{c + 1}")
             for r in range(rows) for c in range(cols - 1)]
    wires += [(f"s{r}{c}", f"s{r + 1}{c}")
              for r in range(rows - 1) for c in range(cols)]
    wires.append(("island0", "island1"))
    for host in hosts:
        homes = draw(st.lists(st.sampled_from(switches), min_size=0,
                              max_size=2, unique=True))
        wires += [(host, home) for home in homes]
    if draw(st.booleans()):
        wires.append((hosts[0], hosts[1]))
    wires = [pair if draw(st.booleans()) else pair[::-1]
             for pair in draw(st.permutations(wires))]
    build += [("link", pair) for pair in wires]
    names = switches + hosts
    edits = draw(st.lists(
        st.one_of(
            st.tuples(st.just("relink"), st.sampled_from(wires)),
            st.tuples(st.just("unlink"), st.sampled_from(wires)),
            st.tuples(st.just("readd"), st.sampled_from(names)),
        ),
        max_size=4,
    ))
    failed_nodes = draw(st.lists(st.sampled_from(names), max_size=2))
    failed_links = draw(st.lists(st.sampled_from(wires), max_size=2))
    return build + edits, FailureScenario.of(
        "generated", nodes=failed_nodes, links=failed_links)


def apply_ops(ops) -> Topology:
    topology = Topology()
    for op, arg in ops:
        if op == "switch":
            topology.add_switch(arg)
        elif op == "host":
            topology.add_host(arg)
        elif op == "link":
            topology.add_link(*arg)
        elif op in ("relink", "unlink"):
            if topology.has_link(*arg):
                topology.remove_link(*arg)
            if op == "relink":
                topology.add_link(*arg)  # now last in both adjacencies
        else:  # readd: the node moves to the end, keeping its links
            kind, neighbors = topology.node(arg).kind, topology.neighbors(arg)
            topology.remove_node(arg)
            (topology.add_switch if kind == SWITCH else topology.add_host)(arg)
            for neighbor in reversed(neighbors):
                topology.add_link(neighbor, arg)
    return topology


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(meshes())
def test_generated_meshes(mesh):
    ops, scenario = mesh
    topology = apply_ops(ops)
    assert topology.node_names == list(topology.graph.nodes)
    assert topology.links == list(topology.graph.edges)
    assert_same_tables(topology, NO_FAILURE)
    assert_same_tables(topology, scenario)
