"""Explicit-state reachability baseline (finite-state model checking).

The paper's §6 contrasts VMN's SMT approach with finite-state model
checking; this module implements the latter for the failure-free
fragment of our semantics, and the test suite uses it to *differentially
test* the SMT encoding: both engines must agree on every verdict.

The key observation making this cheap: without failures, every history
predicate in the model is **monotone** — the set of packets a node has
received, the firewall's ``established`` set, the cache contents only
grow, and forwarding justifications never expire.  The set of derivable
facts therefore has a least fixpoint that is *schedule-independent*:

* ``sent(n, p)`` — node ``n`` has handed concrete packet ``p`` to Ω,
* ``delivered(n, p)`` — Ω has delivered ``p`` to ``n``,

computed by iterating host emission (with data-provenance), Ω's
transfer rules (with ingress justification) and concrete middlebox
semantics until nothing new derives.  An invariant violation exists in
*some* schedule iff the corresponding fact pattern is in the fixpoint.

Concrete middlebox semantics are implemented here independently of the
symbolic models (type-dispatched), precisely so the two
implementations check each other.  NATs and load balancers are not
supported: their behaviour quantifies over oracle functions (port
mappings, backend choices) rather than booleans.  Abstract packet
classes are explored as constant oracles (``oracle_true`` /
``oracle_false``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..mboxes import (
    IDPS,
    AclFirewall,
    ApplicationFirewall,
    ContentCache,
    Gateway,
    LearningFirewall,
    Proxy,
    Scrubber,
    WanOptimizer,
)
from ..netmodel.packets import REQUEST_TAG
from ..netmodel.system import VerificationNetwork

__all__ = ["ConcretePacket", "FixpointChecker", "explicit_verdict"]


@dataclass(frozen=True)
class ConcretePacket:
    src: str
    dst: str
    sport: int
    dport: int
    origin: str
    tag: str

    @property
    def is_request(self) -> bool:
        return self.tag == REQUEST_TAG

    def same_flow(self, other: "ConcretePacket") -> bool:
        forward = (self.src, self.dst, self.sport, self.dport) == (
            other.src, other.dst, other.sport, other.dport
        )
        reverse = (self.src, self.dst, self.sport, self.dport) == (
            other.dst, other.src, other.dport, other.sport
        )
        return forward or reverse


class FixpointChecker:
    """Schedule-independent reachability over concrete packets."""

    def __init__(
        self,
        net: VerificationNetwork,
        n_ports: int = 2,
        n_data_tags: int = 1,
        oracle_value: bool = False,
        max_iterations: int = 100,
    ):
        self.net = net
        self.oracle_value = oracle_value
        self.max_iterations = max_iterations
        for m in net.middleboxes:
            self._check_supported(m)
        addresses = list(net.addresses)
        ports = list(range(n_ports))
        tags = [REQUEST_TAG] + [f"data{i}" for i in range(n_data_tags)]
        self.universe: List[ConcretePacket] = [
            ConcretePacket(*fields)
            for fields in product(addresses, addresses, ports, ports, addresses, tags)
        ]

    @staticmethod
    def _check_supported(model) -> None:
        supported = (
            AclFirewall,
            LearningFirewall,
            ContentCache,
            Gateway,
            IDPS,
            Scrubber,
            ApplicationFirewall,
            WanOptimizer,
            Proxy,
        )
        if not isinstance(model, supported):
            raise NotImplementedError(
                f"explicit baseline has no concrete semantics for "
                f"{type(model).__name__}"
            )

    # ------------------------------------------------------------------
    # Fixpoint computation
    # ------------------------------------------------------------------
    def reachable(
        self,
        mute_hosts: Iterable[str] = (),
        forbid_sends: Iterable[Tuple[str, ConcretePacket]] = (),
    ) -> Tuple[Set[Tuple[str, ConcretePacket]], Set[Tuple[str, ConcretePacket]]]:
        """The least fixpoint of (sent, delivered) facts.

        ``mute_hosts`` never emit (used for flow isolation: a violation
        must not rely on the victim's own sends); ``forbid_sends``
        removes specific (node, packet) emissions (used for traversal:
        can the packet arrive while the middlebox never forwards it?).
        """
        mute = set(mute_hosts)
        forbidden = set(forbid_sends)
        sent: Set[Tuple[str, ConcretePacket]] = set()
        delivered: Set[Tuple[str, ConcretePacket]] = set()

        for _ in range(self.max_iterations):
            new_facts = False
            new_facts |= self._host_emissions(sent, delivered, mute, forbidden)
            new_facts |= self._omega_deliveries(sent, delivered)
            new_facts |= self._mbox_emissions(sent, delivered, forbidden)
            if not new_facts:
                return sent, delivered
        raise RuntimeError("fixpoint did not converge")  # pragma: no cover

    def _host_emissions(self, sent, delivered, mute, forbidden) -> bool:
        changed = False
        for h in self.net.hosts:
            if h in mute:
                continue
            received_origins = {
                p.origin
                for node, p in delivered
                if node == h and not p.is_request
            }
            for p in self.universe:
                if p.src != h and not self.net.allow_spoofing:
                    continue
                if not p.is_request and p.origin != h and p.origin not in received_origins:
                    continue  # data provenance
                fact = (h, p)
                if fact in sent or fact in forbidden:
                    continue
                sent.add(fact)
                changed = True
        return changed

    def _omega_deliveries(self, sent, delivered) -> bool:
        changed = False
        senders_of: Dict[ConcretePacket, Set[str]] = {}
        for node, p in sent:
            senders_of.setdefault(p, set()).add(node)
        for p, senders in senders_of.items():
            fields = {
                "src": p.src, "dst": p.dst, "sport": p.sport,
                "dport": p.dport, "origin": p.origin,
            }
            for rule in self.net.rules:
                if not rule.match.matches_concrete(fields):
                    continue
                if rule.from_nodes is not None and not (senders & rule.from_nodes):
                    continue
                fact = (rule.to, p)
                if fact not in delivered:
                    delivered.add(fact)
                    changed = True
        return changed

    def _mbox_emissions(self, sent, delivered, forbidden) -> bool:
        changed = False
        for m in self.net.middleboxes:
            inbox = [p for node, p in delivered if node == m.name]
            for p_in in inbox:
                for p_out, target in self._concrete_outputs(m, p_in, delivered):
                    fact = (m.name, p_out)
                    if fact in forbidden:
                        continue
                    if target is None:  # via Ω
                        if fact not in sent:
                            sent.add(fact)
                            changed = True
                    else:  # direct link (IDS tunnel)
                        dfact = (target, p_out)
                        if dfact not in delivered:
                            delivered.add(dfact)
                            changed = True
        return changed

    # ------------------------------------------------------------------
    # Concrete middlebox semantics (independent of the symbolic models)
    # ------------------------------------------------------------------
    def _concrete_outputs(
        self, m, p: ConcretePacket, delivered
    ) -> List[Tuple[ConcretePacket, Optional[str]]]:
        """(output packet, direct-link target or None) pairs."""
        if isinstance(m, Gateway):
            return [(p, None)]

        if isinstance(m, WanOptimizer):
            tags = {q.tag for q in self.universe if q.is_request == p.is_request}
            return [
                (ConcretePacket(p.src, p.dst, p.sport, p.dport, p.origin, t), None)
                for t in tags
            ]

        if isinstance(m, AclFirewall):
            return [(p, None)] if (p.src, p.dst) in m.acl else []

        if isinstance(m, LearningFirewall):
            permitted = self._fw_permits(m, p)
            if permitted:
                return [(p, None)]
            established = any(
                q.same_flow(p) and self._fw_permits(m, q)
                for node, q in delivered
                if node == m.name
            )
            return [(p, None)] if established else []

        if isinstance(m, (IDPS, Scrubber)):
            # The abstract class is a constant oracle in this baseline.
            return [] if self.oracle_value else [(p, None)]

        if isinstance(m, ApplicationFirewall):
            blocked = self.oracle_value and bool(m.blocked_classes)
            return [] if blocked else [(p, None)]

        if isinstance(m, ContentCache):
            return self._cache_outputs(m, p, delivered)

        if isinstance(m, Proxy):
            return self._proxy_outputs(m, p, delivered)

        raise NotImplementedError(type(m).__name__)  # pragma: no cover

    @staticmethod
    def _fw_permits(m: LearningFirewall, p: ConcretePacket) -> bool:
        if m.default_allow:
            return (p.src, p.dst) not in m.deny
        return (p.src, p.dst) in m.allow

    def _cache_outputs(self, m: ContentCache, p, delivered):
        out = []
        if p.is_request and p.dst == m.name:
            cached = any(
                node == m.name and not q.is_request and q.origin == p.origin
                for node, q in delivered
            )
            allowed = (p.src, p.origin) not in m.deny
            if cached and allowed:
                # The symbolic serve relation leaves the data tag free;
                # enumerate every data tag here to match.
                data_tags = {q.tag for q in self.universe if not q.is_request}
                for tag in data_tags:
                    served = ConcretePacket(
                        src=m.name, dst=p.src, sport=p.dport, dport=p.sport,
                        origin=p.origin, tag=tag,
                    )
                    out.append((served, None))
            else:
                fetch = ConcretePacket(
                    src=m.name, dst=p.origin, sport=p.sport, dport=p.dport,
                    origin=p.origin, tag=REQUEST_TAG,
                )
                out.append((fetch, None))
        return out

    def _proxy_outputs(self, m: Proxy, p, delivered):
        out = []
        if p.is_request and p.dst == m.name:
            out.append(
                (
                    ConcretePacket(
                        src=m.name, dst=p.origin, sport=p.sport, dport=p.dport,
                        origin=p.origin, tag=REQUEST_TAG,
                    ),
                    None,
                )
            )
        elif not p.is_request and p.dst == m.name:
            for node, q in delivered:
                if node == m.name and q.is_request and q.dst == m.name \
                        and q.origin == p.origin:
                    # The symbolic relay relation leaves sport free.
                    sports = {r.sport for r in self.universe}
                    for sport in sports:
                        out.append(
                            (
                                ConcretePacket(
                                    src=m.name, dst=q.src, sport=sport,
                                    dport=q.sport, origin=p.origin, tag=p.tag,
                                ),
                                None,
                            )
                        )
        return out

    # ------------------------------------------------------------------
    # Invariant queries (mirroring repro.core.invariants)
    # ------------------------------------------------------------------
    def node_isolation_violated(self, dst: str, src: str) -> bool:
        _, delivered = self.reachable()
        return any(n == dst and p.src == src for n, p in delivered)

    def can_reach(self, dst: str, src: str) -> bool:
        return self.node_isolation_violated(dst, src)

    def flow_isolation_violated(self, dst: str, src: str) -> bool:
        """A packet from ``src`` reaches ``dst`` on a flow ``dst`` never
        opened — schedules where ``dst`` stays silent cover exactly the
        violating cases (monotonicity)."""
        _, delivered = self.reachable(mute_hosts=[dst])
        return any(n == dst and p.src == src for n, p in delivered)

    def traversal_violated(self, dst: str, through: str,
                           from_sources: Optional[Iterable[str]] = None) -> bool:
        sources = None if from_sources is None else set(from_sources)
        for p in self.universe:
            if sources is not None and p.src not in sources:
                continue
            forbidden = [(through, p)]
            _, delivered = self.reachable(forbid_sends=forbidden)
            if (dst, p) in delivered:
                return True
        return False

    def data_isolation_violated(self, dst: str, origin: str) -> bool:
        sent, delivered = self.reachable()
        emitters = {origin} | {
            m.name
            for m in self.net.middleboxes
            if m.origin_agnostic or not m.flow_parallel
        }
        for n, p in delivered:
            if n != dst or p.origin != origin or p.is_request:
                continue
            if any((e, p) in sent for e in emitters):
                return True
        return False


def explicit_verdict(net: VerificationNetwork, invariant, n_ports: int) -> Optional[bool]:
    """The fixpoint's verdict on a :mod:`repro.core.invariants`
    invariant, over both constant oracles: True = violated, False =
    holds, None = not decidable explicitly."""
    # Imported here: repro.core imports this module (core/prove.py).
    from ..core.invariants import (
        CanReach,
        DataIsolation,
        FlowIsolation,
        NodeIsolation,
        Traversal,
    )

    if invariant.failure_budget:
        return None
    try:
        checkers = [
            FixpointChecker(net, n_ports=n_ports, oracle_value=v)
            for v in (False, True)
        ]
    except NotImplementedError:
        return None

    def any_violated(call) -> bool:
        return any(call(fx) for fx in checkers)

    if isinstance(invariant, NodeIsolation):
        return any_violated(
            lambda fx: fx.node_isolation_violated(invariant.dst, invariant.src)
        )
    if isinstance(invariant, CanReach):
        return any_violated(lambda fx: fx.can_reach(invariant.dst, invariant.src))
    if isinstance(invariant, FlowIsolation):
        return any_violated(
            lambda fx: fx.flow_isolation_violated(invariant.dst, invariant.src)
        )
    if isinstance(invariant, Traversal):
        return any_violated(
            lambda fx: fx.traversal_violated(
                invariant.dst, invariant.through, invariant.from_sources
            )
        )
    if isinstance(invariant, DataIsolation):
        return any_violated(
            lambda fx: fx.data_isolation_violated(invariant.dst, invariant.origin)
        )
    return None
