"""The change-impact index: which invariants can a delta affect?

The paper's slicing theorem (§4.1) says an invariant's verdict is a
function of its *slice* — a subnetwork closed under forwarding and
state.  The contrapositive is what makes re-verification incremental:
a change that provably leaves an invariant's slice identical cannot
change its verdict, so the previous verdict carries forward without
touching the solver, the fingerprint, or even the slice builder.

:class:`ChangeImpactIndex` keeps, per invariant, the node set of the
slice used for its last verification (or a whole-network marker when
slicing fell back).  After a delta, :meth:`invalidated` re-checks each
entry against a :class:`ChangeSummary` of the two network versions.
The solver is handed the slice's node set, the transfer rules
*projected* onto it and each member middlebox's configuration
*restricted* to it (``build_slice``), so an entry is invalidated when
one of those can differ:

* a transfer rule *as seen from inside the slice* changed — the rule
  sets of both versions are projected onto the slice's node set with
  :func:`repro.core.slicing.restrict_rules` and compared.  Projection
  (rather than a raw rule diff) is what keeps host churn cheap: a new
  host joins the ``from_nodes`` of many rules, but slices that exclude
  it see identical projections;
* a middlebox the delta reconfigures in place reads differently *from
  inside the slice* — the old and the new model are both
  ``restricted`` to the slice's node set and compared by exact
  canonical form (``canon(model, {})``, the identity
  :func:`repro.incremental.delta.network_fingerprint` uses), so a rule
  about addresses the slice does not contain leaves it alone.  This
  needs a box that sits in the same slices before and after: present
  in both versions with the same class, ``linked_nodes()``,
  ``origin_agnostic`` and ``flow_parallel``;
* the slice contains a node the delta touches in any other way (a
  host; a box added, removed, re-linked, re-steered, retyped, or one
  the canonicalizer cannot serialise) — the conservative fallback:
  membership itself may have moved;
* the set of shared-state (non-flow-parallel) middleboxes changed —
  **invalidate everything** (such boxes join every slice);
* the policy-class representatives changed and the slice was built
  with representatives (§4.1 closure under state depends on one
  representative per class);
* the invariant was verified on the whole network (there is no slice
  to bound the blast radius).

Everything here is set arithmetic over node names, hashable rule
tuples and canonical config tuples: deciding impact costs microseconds
per invariant, against solver calls that cost seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from ..core.slicing import Slice, SliceClosureError, restrict_rules
from ..netmodel.canon import Unfingerprintable, canon
from ..netmodel.rules import TransferRule
from ..network.topology import MIDDLEBOX
from .delta import NetworkDelta

__all__ = ["ImpactEntry", "ChangeSummary", "ChangeImpactIndex", "shared_state_boxes"]


@dataclass(frozen=True)
class ImpactEntry:
    """What the index remembers about one invariant's last verification."""

    #: Slice node set; ``None`` means whole-network fallback.
    nodes: Optional[FrozenSet[str]]
    #: The slice pulled in policy-class representatives (§4.1 state closure).
    used_representatives: bool = False

    @property
    def whole_network(self) -> bool:
        return self.nodes is None


def shared_state_boxes(topology) -> FrozenSet[str]:
    """Middleboxes that join every slice (origin-agnostic / shared state)."""
    return frozenset(
        mb.name
        for mb in topology.middleboxes
        if mb.model.origin_agnostic or not mb.model.flow_parallel
    )


def _atoms(rules: Iterable[TransferRule]) -> FrozenSet[tuple]:
    """Rule sets in a canonical semantic form.

    Ω consumes rules as a *union* relation (any matching rule may
    deliver — see ``NetworkSMTModel._omega_axiom``), so rule order is
    irrelevant and a rule matching destination set ``{a, b}`` is
    equivalent to two single-destination rules.  The VeriFlow-style
    compaction regroups destinations freely as ingress sets shift, so
    comparing per-destination atoms (instead of the packed rules) keeps
    that regrouping invisible to the impact decision."""
    out = set()
    for r in rules:
        dsts: Iterable[Optional[str]] = (
            (None,) if r.match.dst is None else r.match.dst
        )
        for d in dsts:
            out.add((
                r.match.src, d, r.match.sport, r.match.dport,
                r.match.origin, r.to, r.from_nodes,
            ))
    return frozenset(out)


def middlebox_models(topology, names: Iterable[str]) -> Dict[str, object]:
    """``name -> model`` for those of ``names`` that are middleboxes of
    ``topology`` right now.  Models are never edited in place (config
    deltas swap them), so the dict is a snapshot."""
    return {
        name: topology.node(name).model
        for name in names
        if name in topology and topology.node(name).kind == MIDDLEBOX
    }


def _sits_in_same_slices(old, new) -> bool:
    """Everything ``build_slice`` reads off a model besides its
    restricted configuration is equal."""
    return (
        type(old) is type(new)
        and set(old.linked_nodes()) == set(new.linked_nodes())
        and old.origin_agnostic == new.origin_agnostic
        and old.flow_parallel == new.flow_parallel
    )


@dataclass
class ChangeSummary:
    """Everything :meth:`ChangeImpactIndex.invalidated` needs to know
    about the difference between two consecutive network versions."""

    #: Nodes under the conservative rule (any slice containing one).
    touched: FrozenSet[str]
    old_rules: Tuple[TransferRule, ...]
    new_rules: Tuple[TransferRule, ...]
    representatives_changed: bool = False
    shared_boxes_changed: bool = False
    #: Boxes reconfigured in place, ``name -> (old model, new model)``,
    #: compared per slice.
    reconfigured: Dict[str, Tuple[object, object]] = field(default_factory=dict)

    @staticmethod
    def between(old_vmn, new_vmn, delta: NetworkDelta,
                old_shared_boxes: FrozenSet[str],
                old_models: Optional[Dict[str, object]] = None,
                ) -> "ChangeSummary":
        """Summarize ``delta`` taking the network from ``old_vmn``'s
        version to ``new_vmn``'s (both fully-constructed VMN facades).

        ``old_shared_boxes`` is the :func:`shared_state_boxes` snapshot
        and ``old_models`` the :func:`middlebox_models` snapshot of
        ``delta.reconfigured_nodes()`` (omitted: every touched node gets
        the conservative rule), both taken **before** the delta was
        applied.  They must be snapshots: deltas mutate the topology in
        place and both VMNs alias it, so ``old_vmn.topology`` already
        reflects the new version.  (Rules and policy classes are value
        snapshots computed at VMN construction, so reading them off
        ``old_vmn`` is safe.)"""
        old_models = old_models or {}
        reconfigured = {
            name: (old_models[name], new)
            for name, new in middlebox_models(new_vmn.topology, old_models).items()
            if _sits_in_same_slices(old_models[name], new)
        }
        return ChangeSummary(
            touched=delta.touched_nodes() - frozenset(reconfigured),
            old_rules=old_vmn.rules,
            new_rules=new_vmn.rules,
            representatives_changed=(
                sorted(old_vmn.policy_classes.representatives())
                != sorted(new_vmn.policy_classes.representatives())
            ),
            shared_boxes_changed=(
                old_shared_boxes != shared_state_boxes(new_vmn.topology)
            ),
            reconfigured=reconfigured,
        )

    def affects(self, entry: ImpactEntry) -> bool:
        """Can this change alter the verdict recorded under ``entry``?"""
        if entry.whole_network or self.shared_boxes_changed:
            return True
        if entry.used_representatives and self.representatives_changed:
            return True
        if entry.nodes & self.touched:
            return True
        return (self._projected_configs_changed(entry.nodes)
                or self._projected_rules_changed(entry.nodes))

    def _projected_configs_changed(self, nodes: FrozenSet[str]) -> bool:
        """Does a reconfigured member box differ as the slice sees it —
        in the configuration ``build_slice`` hands the solver?"""
        try:
            return any(
                name in nodes
                and canon(old.restricted(nodes), {}) != canon(new.restricted(nodes), {})
                for name, (old, new) in self.reconfigured.items()
            )
        except Unfingerprintable:
            return True

    def _projected_rules_changed(self, nodes: FrozenSet[str]) -> bool:
        if self.old_rules == self.new_rules:
            return False
        try:
            old = restrict_rules(self.old_rules, set(nodes))
            new = restrict_rules(self.new_rules, set(nodes))
        except SliceClosureError:
            return True  # the slice stopped (or started) being closed
        return _atoms(old) != _atoms(new)


class ChangeImpactIndex:
    """Per-invariant slice provenance, queried after every delta.

    Keys are caller-chosen hashables (the session uses positions in its
    check list — invariant dataclasses themselves are not hashable).
    """

    def __init__(self):
        self._entries: Dict[Hashable, ImpactEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def entry(self, key: Hashable) -> ImpactEntry:
        return self._entries[key]

    def record(self, key: Hashable, sl: Optional[Slice]) -> None:
        """Remember the slice an invariant was just verified on
        (``None`` = whole-network fallback)."""
        if sl is None:
            self._entries[key] = ImpactEntry(nodes=None)
        else:
            self._entries[key] = ImpactEntry(
                nodes=sl.nodes, used_representatives=sl.used_representatives
            )

    def forget(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def invalidated(self, change: ChangeSummary,
                    keys: Optional[Iterable[Hashable]] = None) -> List[Hashable]:
        """Keys whose invariants must be re-verified after ``change``.

        Unknown keys (never recorded) are always invalidated."""
        if keys is None:
            keys = list(self._entries)
        out = []
        for key in keys:
            entry = self._entries.get(key)
            if entry is None or change.affects(entry):
                out.append(key)
        return out
