"""Failure scenarios for the static datapath (paper §3.5).

The paper does not model routing reconvergence; instead it accepts "a
topology and forwarding table corresponding to each failure scenario"
and verifies each.  A :class:`FailureScenario` names the failed nodes
and links; forwarding tables are (re)computed against the surviving
topology, and middlebox-level failures additionally surface as FAIL
events in the dynamic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple

__all__ = ["FailureScenario", "NO_FAILURE", "single_failures"]


@dataclass(frozen=True)
class FailureScenario:
    """A set of failed nodes and failed links (as sorted name pairs)."""

    name: str
    failed_nodes: FrozenSet[str] = frozenset()
    failed_links: FrozenSet[Tuple[str, str]] = frozenset()

    @staticmethod
    def of(name: str, nodes=(), links=()) -> "FailureScenario":
        return FailureScenario(
            name=name,
            failed_nodes=frozenset(nodes),
            failed_links=frozenset(tuple(sorted(link)) for link in links),
        )

    def node_ok(self, node: str) -> bool:
        return node not in self.failed_nodes

    def link_ok(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) not in self.failed_links

    def __str__(self) -> str:
        return self.name


#: The steady-state scenario.
NO_FAILURE = FailureScenario.of("no-failure")


def single_failures(topology, kinds=("middlebox", "switch")) -> Iterator[FailureScenario]:
    """All single-node failure scenarios for the given node kinds."""
    for node in sorted(topology.node_names):
        if topology.node(node).kind in kinds:
            yield FailureScenario.of(f"fail:{node}", nodes=[node])
