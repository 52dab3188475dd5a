"""Policy equivalence classes (paper §4.1 condition (b), §4.2).

Two hosts are in the same policy equivalence class when all packets
they send and receive traverse the same middlebox *types* and are
treated according to the same policy.  The signature computed here
captures exactly that, abstracting peer hosts by their operator-
assigned policy group:

* the host's own policy group (how the operator grouped it),
* the types of the middleboxes on its steering chain,
* every configuration entry mentioning the host, with the peer address
  replaced by the peer's policy group.

Misconfiguration breaks symmetry — deleting a firewall rule for one
host gives it a different signature and therefore its own class — which
is why, in the paper's Fig. 3, the number of invariants to verify
equals the number of policy equivalence classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..network.topology import Topology
from ..network.transfer import SteeringPolicy

__all__ = ["policy_equivalence_classes", "PolicyClasses"]


class PolicyClasses:
    """The partition of hosts into policy equivalence classes."""

    def __init__(self, class_of: Dict[str, tuple]):
        # Canonicalise signatures to small integer ids, deterministically.
        signatures = sorted({sig for sig in class_of.values()}, key=repr)
        ids = {sig: i for i, sig in enumerate(signatures)}
        self.class_of: Dict[str, int] = {
            host: ids[sig] for host, sig in class_of.items()
        }

    def __getitem__(self, host: str) -> int:
        return self.class_of[host]

    def get(self, node: str, default=None):
        """Class of ``node``; middleboxes get a per-name singleton class."""
        if node in self.class_of:
            return self.class_of[node]
        return ("mbox", node) if default is None else default

    @property
    def count(self) -> int:
        return len(set(self.class_of.values()))

    def members(self, class_id: int) -> List[str]:
        return sorted(h for h, c in self.class_of.items() if c == class_id)

    def representative(self, class_id: int) -> str:
        return self.members(class_id)[0]

    def representatives(self) -> List[str]:
        return [self.representative(c) for c in sorted(set(self.class_of.values()))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolicyClasses({self.count} classes, {len(self.class_of)} hosts)"


def policy_equivalence_classes(
    topology: Topology,
    steering: Optional[SteeringPolicy] = None,
) -> PolicyClasses:
    """Partition the topology's hosts by policy signature."""
    steering = steering or SteeringPolicy()
    group_of = {h.name: (h.policy_group or h.name) for h in topology.hosts}

    def peer_group(addr: str) -> object:
        # Peer may be a middlebox address; abstract it by its name
        # (middlebox instances are policy-relevant individually).
        return group_of.get(addr, ("mbox", addr))

    # One pass over every model's entries, bucketed by the host each
    # one mentions (entries are sorted per host below, so the bucket
    # order is immaterial).
    entries: Dict[str, List[tuple]] = {host: [] for host in group_of}
    for model in topology.middlebox_models():
        box_type = type(model).__name__
        for kind, a, b in model.config_pairs():
            if a in entries:
                entries[a].append((box_type, kind, "src", peer_group(b)))
            if b in entries:
                entries[b].append((box_type, kind, "dst", peer_group(a)))

    signatures: Dict[str, tuple] = {}
    for host in sorted(group_of):
        chain = steering.chains.get(host, ())
        chain_types = tuple(
            type(topology.node(m).model).__name__ for m in chain if m in topology
        )
        signatures[host] = (
            group_of[host],
            chain_types,
            tuple(sorted(entries[host], key=repr)),
        )
    return PolicyClasses(signatures)
