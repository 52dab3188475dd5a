"""Concrete network topologies: hosts, switches, middleboxes, links.

This is the input side of the static-datapath substrate (paper §2.3,
§3.5): scenarios build a physical topology with switches and forwarding
tables, and :mod:`repro.network.transfer` collapses it VeriFlow-style
into the transfer rules the SMT model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["HOST", "SWITCH", "MIDDLEBOX", "Node", "Topology"]

HOST = "host"
SWITCH = "switch"
MIDDLEBOX = "middlebox"


@dataclass
class Node:
    """A topology node.  ``model`` is the middlebox model instance for
    middlebox nodes; ``policy_group`` is the operator-assigned group a
    host belongs to (paper §5.1's policy groups)."""

    name: str
    kind: str
    model: Optional[object] = None
    policy_group: Optional[str] = None


class Topology:
    """An undirected physical topology with typed nodes.

    Nodes and each node's neighbours are kept in insertion order
    (:attr:`node_names`, :attr:`links`): shortest-path tie-breaking in
    :func:`repro.network.forwarding.shortest_path_tables` follows that
    order, so two topologies built by the same sequence of calls route
    identically.

    :attr:`revision` counts the edits that can move a packet's path:
    every mutator of nodes, kinds, links or policy groups bumps it,
    :meth:`replace_middlebox` (a config push) does not — so one
    topology object at one revision has one set of forwarding tables.
    """

    def __init__(self):
        self._nodes: Dict[str, Node] = {}
        self._adj: Dict[str, Dict[str, None]] = {}
        self.revision = 0

    # ------------------------------------------------------------------
    def _add(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adj[node.name] = {}
        self.revision += 1
        return node

    def add_host(self, name: str, policy_group: Optional[str] = None) -> Node:
        return self._add(Node(name, HOST, policy_group=policy_group))

    def add_switch(self, name: str) -> Node:
        return self._add(Node(name, SWITCH))

    def add_middlebox(self, model) -> Node:
        """Register a middlebox by its model instance (name from model)."""
        return self._add(Node(model.name, MIDDLEBOX, model=model))

    def add_link(self, a: str, b: str) -> None:
        for n in (a, b):
            if n not in self._nodes:
                raise KeyError(f"unknown node {n!r}")
        if a == b:
            raise ValueError("self-links are not allowed")
        self._adj[a][b] = None
        self._adj[b][a] = None
        self.revision += 1

    # ------------------------------------------------------------------
    # Mutation API (incremental verification applies NetworkDeltas here)
    # ------------------------------------------------------------------
    def remove_node(self, name: str) -> Node:
        """Remove a node and every link attached to it."""
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        node = self._nodes.pop(name)
        for neighbor in self._adj.pop(name):
            del self._adj[neighbor][name]
        self.revision += 1
        return node

    def remove_link(self, a: str, b: str) -> None:
        if not self.has_link(a, b):
            raise KeyError(f"no link between {a!r} and {b!r}")
        del self._adj[a][b]
        del self._adj[b][a]
        self.revision += 1

    def has_link(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    def replace_middlebox(self, model) -> object:
        """Swap the model of the middlebox named ``model.name``; links
        and position (and :attr:`revision`) are unchanged.  Returns the
        previous model (so the caller can build the inverse edit)."""
        node = self._nodes.get(model.name)
        if node is None or node.kind != MIDDLEBOX:
            raise KeyError(f"no middlebox named {model.name!r}")
        old = node.model
        node.model = model
        return old

    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def node_names(self) -> List[str]:
        """Every node name, in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> List[Tuple[str, str]]:
        """Every link once, grouped by its earlier-inserted end (in
        node order), each group in the order the links were added."""
        links = []
        listed = set()
        for a, neighbors in self._adj.items():
            links.extend((a, b) for b in neighbors if b not in listed)
            listed.add(a)
        return links

    def neighbors(self, name: str) -> List[str]:
        return sorted(self._adj[name])

    def _of_kind(self, kind: str) -> List[Node]:
        return [n for n in self._nodes.values() if n.kind == kind]

    @property
    def hosts(self) -> List[Node]:
        return self._of_kind(HOST)

    @property
    def switches(self) -> List[Node]:
        return self._of_kind(SWITCH)

    @property
    def middleboxes(self) -> List[Node]:
        return self._of_kind(MIDDLEBOX)

    @property
    def edge_nodes(self) -> List[Node]:
        """Hosts and middleboxes — the nodes that survive the collapse."""
        return [n for n in self._nodes.values() if n.kind != SWITCH]

    def middlebox_models(self) -> Tuple[object, ...]:
        return tuple(n.model for n in self.middleboxes)

    def policy_group_of(self, host: str) -> Optional[str]:
        return self._nodes[host].policy_group

    def hosts_in_group(self, group: str) -> List[str]:
        return sorted(
            n.name for n in self.hosts if n.policy_group == group
        )

    @property
    def policy_groups(self) -> List[str]:
        return sorted({n.policy_group for n in self.hosts if n.policy_group})

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"Topology({len(self.hosts)} hosts, {len(self.switches)} switches, "
            f"{len(self.middleboxes)} middleboxes, {len(self.links)} links)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
