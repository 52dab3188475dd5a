"""Network deltas: the change vocabulary of incremental verification.

A production network is never re-built from scratch — it *churns*:
operators add and drain hosts, install and delete policy rules, swap
middlebox configurations, and links flap.  Each :class:`NetworkDelta`
subclass models one such change as a reversible edit against a
:class:`repro.network.topology.Topology` plus its
:class:`repro.network.transfer.SteeringPolicy`.

``apply(topology, steering)`` mutates the topology in place and returns
``(new_steering, inverse)`` where ``inverse`` is the delta that undoes
the edit — apply it to get byte-identical topology state back.  Deltas
capture whatever pre-state they need (an evicted host's links and
policy group, a replaced middlebox's old model) at apply time, so a
delta stream can be replayed forwards and backwards.

``touched_nodes()`` names the nodes a delta directly edits and
``reconfigured_nodes()`` those among them it only pushes a new
configuration to; the change-impact index
(:mod:`repro.incremental.impact`) combines them with a transfer-rule
diff to decide which invariants must be re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..netmodel.canon import network_fingerprint
from ..network.topology import HOST, MIDDLEBOX, Topology
from ..network.transfer import SteeringPolicy

__all__ = [
    "DeltaError",
    "NetworkDelta",
    "AddHost",
    "RemoveHost",
    "AddMiddlebox",
    "RemoveMiddlebox",
    "ReplaceMiddlebox",
    "EditPolicyRules",
    "SetChain",
    "LinkDown",
    "LinkUp",
    "DeltaSequence",
    "network_fingerprint",
]


class DeltaError(Exception):
    """The delta cannot be applied to the current network version."""


def _with_chain(steering: SteeringPolicy, dst: str,
                chain: Optional[Tuple[str, ...]]) -> SteeringPolicy:
    """A steering policy with ``dst``'s chain set (or dropped if None)."""
    chains = dict(steering.chains)
    if chain is None:
        chains.pop(dst, None)
    else:
        chains[dst] = tuple(chain)
    return SteeringPolicy(chains=chains, joins=steering.joins)


class NetworkDelta:
    """One reversible edit to a network version."""

    def apply(self, topology: Topology,
              steering: SteeringPolicy) -> Tuple[SteeringPolicy, "NetworkDelta"]:
        """Mutate ``topology``; return ``(new_steering, inverse_delta)``."""
        raise NotImplementedError

    def touched_nodes(self) -> FrozenSet[str]:
        """Nodes this delta directly edits (impact-index seed set)."""
        raise NotImplementedError

    def reconfigured_nodes(self) -> FrozenSet[str]:
        """Those of :meth:`touched_nodes` whose *only* edit is a model
        swap in place (a config push): the impact index compares their
        configuration per slice.  The default, none, is the
        conservative rule — every slice containing them re-verifies."""
        return frozenset()

    def describe(self) -> str:
        return type(self).__name__

    def __str__(self) -> str:
        return self.describe()


@dataclass
class AddHost(NetworkDelta):
    """Attach a new host: links to existing nodes, an optional policy
    group, and an optional steering chain for traffic addressed to it."""

    name: str
    links: Tuple[str, ...] = ()
    policy_group: Optional[str] = None
    chain: Optional[Tuple[str, ...]] = None

    def apply(self, topology, steering):
        if self.name in topology:
            raise DeltaError(f"node {self.name!r} already exists")
        topology.add_host(self.name, policy_group=self.policy_group)
        for peer in self.links:
            topology.add_link(self.name, peer)
        if self.chain is not None:
            steering = _with_chain(steering, self.name, self.chain)
        return steering, RemoveHost(self.name)

    def touched_nodes(self):
        # The chain steers traffic addressed to the *new* host only, and
        # other slices consult only their own members' chains, so chain
        # stages are not touched; forwarding changes are caught by the
        # impact index's rule projection.
        return frozenset({self.name, *self.links})

    def describe(self):
        return f"add-host {self.name} ({self.policy_group or 'no group'})"


@dataclass
class RemoveHost(NetworkDelta):
    """Drain a host: the node, its links, and its steering chain go."""

    name: str

    def apply(self, topology, steering):
        if self.name not in topology or topology.node(self.name).kind != HOST:
            raise DeltaError(f"no host named {self.name!r}")
        links = tuple(topology.neighbors(self.name))
        group = topology.node(self.name).policy_group
        chain = steering.chains.get(self.name)
        topology.remove_node(self.name)
        steering = _with_chain(steering, self.name, None)
        inverse = AddHost(self.name, links=links, policy_group=group, chain=chain)
        return steering, inverse

    def touched_nodes(self):
        return frozenset({self.name})

    def describe(self):
        return f"remove-host {self.name}"


@dataclass
class AddMiddlebox(NetworkDelta):
    """Deploy a middlebox instance at the given attachment points."""

    model: object
    links: Tuple[str, ...] = ()
    chain: Optional[Tuple[str, ...]] = None  # chain for traffic *to* the box

    def apply(self, topology, steering):
        name = self.model.name
        if name in topology:
            raise DeltaError(f"node {name!r} already exists")
        topology.add_middlebox(self.model)
        for peer in self.links:
            topology.add_link(name, peer)
        if self.chain is not None:
            steering = _with_chain(steering, name, self.chain)
        return steering, RemoveMiddlebox(name)

    def touched_nodes(self):
        # linked_nodes matter: a box structurally tied to a node inside
        # an existing slice joins that slice (see build_slice), so those
        # slices must be re-verified.
        return frozenset(
            {self.model.name, *self.links, *self.model.linked_nodes()}
        )

    def describe(self):
        return f"add-middlebox {self.model.name}"


@dataclass
class RemoveMiddlebox(NetworkDelta):
    """Decommission a middlebox (its links and chain entry with it)."""

    name: str

    def apply(self, topology, steering):
        if self.name not in topology or topology.node(self.name).kind != MIDDLEBOX:
            raise DeltaError(f"no middlebox named {self.name!r}")
        links = tuple(topology.neighbors(self.name))
        chain = steering.chains.get(self.name)
        model = topology.node(self.name).model
        topology.remove_node(self.name)
        steering = _with_chain(steering, self.name, None)
        return steering, AddMiddlebox(model, links=links, chain=chain)

    def touched_nodes(self):
        return frozenset({self.name})

    def describe(self):
        return f"remove-middlebox {self.name}"


@dataclass
class ReplaceMiddlebox(NetworkDelta):
    """Swap a middlebox's model (a wholesale configuration push);
    position and links are unchanged."""

    model: object

    def apply(self, topology, steering):
        try:
            old = topology.replace_middlebox(self.model)
        except KeyError as err:
            raise DeltaError(str(err)) from err
        return steering, ReplaceMiddlebox(old)

    def touched_nodes(self):
        # Slices the box already belonged to contain its name; slices it
        # *newly* joins are reached through the new model's linked_nodes.
        return frozenset({self.model.name, *self.model.linked_nodes()})

    def reconfigured_nodes(self):
        return frozenset({self.model.name})

    def describe(self):
        return f"replace-middlebox {self.model.name}"


@dataclass
class EditPolicyRules(NetworkDelta):
    """Add/remove ``(src, dst)`` entries in a middlebox's active rule
    list (firewall ACL, cache deny list) via the model's
    ``edit_rules`` hook.  The inverse swaps the *effective* additions
    and removals, so editing in a pair that was already present does
    not delete it on revert."""

    middlebox: str
    add: Tuple[Tuple[str, str], ...] = ()
    remove: Tuple[Tuple[str, str], ...] = ()

    def apply(self, topology, steering):
        if self.middlebox not in topology or \
                topology.node(self.middlebox).kind != MIDDLEBOX:
            raise DeltaError(f"no middlebox named {self.middlebox!r}")
        old = topology.node(self.middlebox).model
        try:
            new = old.edit_rules(add=self.add, remove=self.remove)
        except NotImplementedError as err:
            raise DeltaError(str(err)) from err
        before = {(a, b) for _, a, b in old.config_pairs()}
        after = {(a, b) for _, a, b in new.config_pairs()}
        topology.replace_middlebox(new)
        inverse = EditPolicyRules(
            self.middlebox,
            add=tuple(sorted(before - after)),
            remove=tuple(sorted(after - before)),
        )
        return steering, inverse

    def touched_nodes(self):
        return frozenset({self.middlebox})

    reconfigured_nodes = touched_nodes  # a rule edit is nothing but a push

    def describe(self):
        return (f"edit-rules {self.middlebox} "
                f"(+{len(self.add)}/-{len(self.remove)})")


@dataclass
class SetChain(NetworkDelta):
    """Re-steer traffic for one destination through a new middlebox
    chain (``None`` removes the chain: traffic goes direct)."""

    dst: str
    chain: Optional[Tuple[str, ...]] = None

    def apply(self, topology, steering):
        if self.dst not in topology:
            raise DeltaError(f"no node named {self.dst!r}")
        old = steering.chains.get(self.dst)
        steering = _with_chain(steering, self.dst, self.chain)
        return steering, SetChain(self.dst, old)

    def touched_nodes(self):
        # Only slices containing ``dst`` consult its chain; everyone
        # else sees the change (if at all) through the transfer rules,
        # which the impact index compares per slice.
        return frozenset({self.dst})

    def describe(self):
        chain = "direct" if self.chain is None else "->".join(self.chain)
        return f"set-chain {self.dst} via {chain}"


@dataclass
class LinkDown(NetworkDelta):
    """Take a physical link out of service."""

    a: str
    b: str

    def apply(self, topology, steering):
        try:
            topology.remove_link(self.a, self.b)
        except KeyError as err:
            raise DeltaError(str(err)) from err
        return steering, LinkUp(self.a, self.b)

    def touched_nodes(self):
        return frozenset({self.a, self.b})

    def describe(self):
        return f"link-down {self.a}<->{self.b}"


@dataclass
class LinkUp(NetworkDelta):
    """Bring a physical link (back) into service."""

    a: str
    b: str

    def apply(self, topology, steering):
        if topology.has_link(self.a, self.b):
            raise DeltaError(f"link {self.a!r}<->{self.b!r} already up")
        try:
            topology.add_link(self.a, self.b)
        except KeyError as err:
            raise DeltaError(str(err)) from err
        return steering, LinkDown(self.a, self.b)

    def touched_nodes(self):
        return frozenset({self.a, self.b})

    def describe(self):
        return f"link-up {self.a}<->{self.b}"


@dataclass
class DeltaSequence(NetworkDelta):
    """Several edits applied atomically, as one version step.

    This is the shape of a repair patch (and of any batched config
    push): sub-deltas apply in order, and the inverse is the reversed
    sequence of sub-inverses, so a :class:`DeltaSequence` composes with
    :meth:`repro.incremental.IncrementalSession.apply` /
    ``revert()`` exactly like a primitive delta — one history entry,
    one re-verification pass over the union of what the members touch.

    ``apply`` is atomic: if a member fails mid-sequence, the
    already-applied prefix is rolled back before the
    :class:`DeltaError` propagates, so the network is never left
    between versions.
    """

    deltas: Tuple[NetworkDelta, ...]

    def apply(self, topology, steering):
        inverses = []
        try:
            for delta in self.deltas:
                steering, inverse = delta.apply(topology, steering)
                inverses.append(inverse)
        except DeltaError:
            for inverse in reversed(inverses):
                steering, _ = inverse.apply(topology, steering)
            raise
        return steering, DeltaSequence(tuple(reversed(inverses)))

    def touched_nodes(self):
        # Union over members: over-approximate (a node added then
        # removed within the sequence still invalidates slices that saw
        # it), which is the sound direction for impact filtering.
        out = set()
        for delta in self.deltas:
            out.update(delta.touched_nodes())
        return frozenset(out)

    def reconfigured_nodes(self):
        # A box one member reconfigures and another touches for any
        # other reason (re-linked, newly linked to, re-steered) is not
        # reconfigured *only*.
        swapped, otherwise = set(), set()
        for delta in self.deltas:
            config_only = delta.reconfigured_nodes()
            swapped.update(config_only)
            otherwise.update(delta.touched_nodes() - config_only)
        return frozenset(swapped - otherwise)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)

    def describe(self):
        return " + ".join(d.describe() for d in self.deltas) or "no-op"
