"""VeriFlow-style transfer-function computation (paper §3.5).

VMN does not model switches in the solver.  Instead, for each failure
scenario, the static datapath (switches + forwarding tables) is
collapsed into the transfer function of the pseudo-node Ω: an edge-node
to edge-node delivery relation.  The paper uses VeriFlow for this; here
:func:`compute_transfer_rules` performs the same computation:

* For each (ingress edge node, destination) pair, walk the switch
  fabric following first-match forwarding tables until another edge
  node is reached; a static forwarding loop raises
  :class:`ForwardingLoopError`, exactly as the paper prescribes ("VMN
  therefore throws an exception when a static forwarding loop is
  encountered").
* Middlebox *service chains* are applied at this level, in the style of
  segment routing: a :class:`SteeringPolicy` maps each destination to
  the ordered chain of middleboxes its traffic must traverse, and the
  walk targets the next chain stage for the given ingress.  Scenario
  builders express pipelines here; per-failure-scenario chains model
  backup paths, and the §5.1 "Traversal" misconfiguration is a chain
  that drops the IDPS stage after a failure.
* Rules are compacted by merging identical behaviour — the analogue of
  VeriFlow's packet equivalence classes — and
  :func:`forwarding_equivalence_classes` reports the resulting classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..netmodel.rules import HeaderMatch, TransferRule
from ..netmodel.system import VerificationNetwork
from .failures import NO_FAILURE, FailureScenario
from .forwarding import ForwardingState
from .topology import SWITCH, Topology

__all__ = [
    "ForwardingLoopError",
    "SteeringPolicy",
    "walk",
    "compute_transfer_rules",
    "forwarding_equivalence_classes",
    "build_verification_network",
]


class ForwardingLoopError(Exception):
    """A static forwarding loop was encountered during the collapse."""

    def __init__(self, switches: Sequence[str], target: str):
        self.switches = tuple(switches)
        self.target = target
        super().__init__(
            f"forwarding loop towards {target!r} through switches "
            f"{' -> '.join(switches)}"
        )


@dataclass(frozen=True)
class SteeringPolicy:
    """Destination -> ordered middlebox chain (service chaining).

    ``chains[dst] = (m1, m2)`` means traffic for ``dst`` must traverse
    ``m1`` then ``m2``.  The chain consulted may depend on the failure
    scenario — callers hand in per-scenario policies (paper §3.5's
    failure-condition-to-transfer-function mapping).

    ``joins`` handles boxes that inject traffic into the middle of other
    destinations' chains — the ISP scenario's scrubber (§5.3.3), whose
    output should *resume* the destination's pipeline at the stateful
    firewall.  ``joins[node][dst]`` names the next stage for traffic
    ``node`` emits towards ``dst`` (the destination itself to deliver
    directly — which is exactly the paper's bypass misconfiguration).
    """

    chains: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    joins: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def next_stage(self, ingress: str, dst: str) -> Optional[str]:
        """Where a packet for ``dst`` entering from ``ingress`` goes next.

        Hosts and off-chain middleboxes send to the first chain stage;
        stage ``i`` sends to stage ``i+1``; the last stage sends to the
        destination itself; ``joins`` overrides take precedence.
        """
        override = self.joins.get(ingress)
        if override and dst in override:
            return override[dst]
        chain = self.chains.get(dst, ())
        if ingress in chain:
            i = chain.index(ingress)
            return chain[i + 1] if i + 1 < len(chain) else dst
        return chain[0] if chain else dst


def walk(
    topology: Topology,
    state: ForwardingState,
    src: str,
    target: str,
    scenario: FailureScenario = NO_FAILURE,
) -> List[str]:
    """Follow the forwarding tables from edge node ``src`` towards
    ``target``; return the edge nodes actually reached (usually one).

    Each switch attachment of ``src`` is tried; attachments whose first
    hop immediately bounces back to ``src`` are skipped (they are the
    "wrong side" of a bump-in-the-wire middlebox).  Loops raise
    :class:`ForwardingLoopError`.
    """
    reached: List[str] = []
    for attach in topology.neighbors(src):
        if topology.node(attach).kind != SWITCH:
            if attach == target and scenario.node_ok(attach):
                reached.append(attach)  # direct link (e.g. IDS tunnel)
            continue
        if not scenario.node_ok(attach) or not scenario.link_ok(src, attach):
            continue
        visited = []
        cur = attach
        while True:
            if cur in visited:
                raise ForwardingLoopError(visited + [cur], target)
            visited.append(cur)
            nxt = state.next_hop(cur, target)
            if nxt is None:
                break  # table miss: dropped
            if not scenario.node_ok(nxt) or not scenario.link_ok(cur, nxt):
                break  # next hop is dead: dropped
            if topology.node(nxt).kind != SWITCH:
                if nxt != src:
                    reached.append(nxt)
                # A first-hop bounce back to src means this attachment
                # faces away from the target; either way we are done.
                break
            cur = nxt
    return sorted(set(reached))


def compute_transfer_rules(
    topology: Topology,
    state: ForwardingState,
    steering: Optional[SteeringPolicy] = None,
    scenario: FailureScenario = NO_FAILURE,
) -> Tuple[TransferRule, ...]:
    """Collapse the static datapath into Ω's transfer rules."""
    steering = steering or SteeringPolicy()
    edge = [n.name for n in topology.edge_nodes if scenario.node_ok(n.name)]
    destinations = [n.name for n in topology.hosts if scenario.node_ok(n.name)]
    # Middleboxes are legitimate destinations too (caches, NAT public
    # addresses, VIPs): traffic addressed *to* them is steered directly.
    destinations += [n.name for n in topology.middleboxes if scenario.node_ok(n.name)]

    # A walk depends on (ingress, stage) only, and steering sends most
    # destinations through the same few stages: walk each pair once.
    walks: Dict[Tuple[str, str], List[str]] = {}
    # raw[(dst, to)] = set of ingress nodes delivered from.
    raw: Dict[Tuple[str, str], set] = {}
    for dst in destinations:
        for src in edge:
            if src == dst:
                continue
            stage = steering.next_stage(src, dst)
            if stage is None or not scenario.node_ok(stage):
                continue  # chain stage dead and no backup: dropped
            hits = walks.get((src, stage))
            if hits is None:
                hits = walks[src, stage] = walk(
                    topology, state, src, stage, scenario)
            for hit in hits:
                raw.setdefault((dst, hit), set()).add(src)

    # Compaction pass (VeriFlow-style equivalence classes): merge
    # destinations with identical (ingress-set, target) behaviour.
    grouped: Dict[Tuple[FrozenSet[str], str], set] = {}
    for (dst, to), srcs in raw.items():
        grouped.setdefault((frozenset(srcs), to), set()).add(dst)

    rules = [
        TransferRule.of(HeaderMatch.of(dst=dsts), to=to, from_nodes=srcs)
        for (srcs, to), dsts in sorted(
            grouped.items(), key=lambda kv: (kv[0][1], sorted(kv[1]))
        )
    ]
    return tuple(rules)


def forwarding_equivalence_classes(
    rules: Sequence[TransferRule],
) -> List[FrozenSet[str]]:
    """Group destination addresses with identical forwarding behaviour.

    This is the reporting view of VeriFlow's packet equivalence classes:
    two destinations are equivalent when every rule treats them alike.
    """
    behaviour: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
    for rule in rules:
        for dst in sorted(rule.match.dst or ()):
            behaviour.setdefault(dst, []).append(
                (rule.to, rule.from_nodes or frozenset())
            )
    classes: Dict[tuple, set] = {}
    for dst, acts in behaviour.items():
        classes.setdefault(tuple(sorted(acts)), set()).add(dst)
    return [frozenset(c) for c in classes.values()]


def build_verification_network(
    topology: Topology,
    state: ForwardingState,
    steering: Optional[SteeringPolicy] = None,
    scenario: FailureScenario = NO_FAILURE,
    allow_spoofing: bool = False,
) -> VerificationNetwork:
    """The full collapse: topology + tables + steering -> SMT input."""
    rules = compute_transfer_rules(topology, state, steering, scenario)
    hosts = tuple(
        sorted(n.name for n in topology.hosts if scenario.node_ok(n.name))
    )
    middleboxes = tuple(
        n.model
        for n in topology.middleboxes
        if scenario.node_ok(n.name)
    )
    return VerificationNetwork(
        hosts=hosts,
        middleboxes=middleboxes,
        rules=rules,
        allow_spoofing=allow_spoofing,
    )
