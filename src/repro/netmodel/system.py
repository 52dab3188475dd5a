"""The VMN network encoding: nodes, events, axioms.

This module turns a :class:`VerificationNetwork` — end hosts, middlebox
instances, and the transfer rules of the collapsed static datapath —
into the logical formula the paper describes in §3: quantified axioms
for middlebox and network behaviour, grounded over a bounded number of
discrete timesteps, with the classification and scheduling oracles left
as free variables for the solver.

Key design points, mirroring the paper:

* **History-defined state.**  The paper's firewall axiom defines
  ``established(flow(p))`` as "a permitted packet of the flow was
  received since the last failure" — state is a predicate over event
  history, not a mutable cell.  We encode all middlebox state this way:
  each history predicate is one boolean *state variable* per timestep
  (:meth:`ModelContext.history_at`), and its value after an event is a
  function of the state and the event before it
  (:meth:`ModelContext.next_state`).  The transition relation is
  therefore the same formula at every timestep, up to renaming the
  step's variables — which is what lets the drivers encode it once
  (:meth:`NetworkSMTModel.generic_step`).

* **Pseudo-node Ω.**  All sends go to Ω; Ω delivers per the transfer
  rules, and only with justification ("Ω previously received this
  packet from one of the rule's ingress nodes"), which is exactly the
  paper's Ω axiom shape and what enforces middlebox pipelines.

* **Oracles as variables.**  The scheduling oracle is the per-timestep
  event variables; the classification oracle is a family of
  uninterpreted functions over packet fields (:meth:`ModelContext.classify`).

* **Failures.**  ``FAIL``/``RECOVER`` events for middleboxes, bounded by
  a failure budget; static-datapath failures are modelled by verifying
  against a different set of transfer rules (paper §3.5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..smt import (
    BOOL,
    And,
    BoolVar,
    EnumConst,
    EnumSort,
    Eq,
    Iff,
    Implies,
    Not,
    Or,
    Term,
    UFunc,
    at_most_k,
    substitute,
)
from .events import EventKind, EventVars, make_events, make_kind_sort
from .packets import PacketSchema, SymPacket
from .rules import TransferRule

__all__ = [
    "OMEGA",
    "VerificationNetwork",
    "ModelContext",
    "NetworkSMTModel",
    "RuleGuards",
    "TimeDependentModelError",
    "fresh_ns",
]

#: Name of the pseudo-node representing the static datapath (paper's Ω).
OMEGA = "<net>"

_ns_counter = itertools.count()


def fresh_ns(prefix: str = "vmn") -> str:
    """A unique namespace for one verification problem's declarations."""
    return f"{prefix}{next(_ns_counter)}"


class TimeDependentModelError(ValueError):
    """The transition relation is not the same formula at every
    timestep (a middlebox model's ``branches`` made its terms depend on
    ``t``), so a step template would silently encode the wrong system."""


@dataclass(frozen=True)
class VerificationNetwork:
    """The collapsed network a single verification run reasons about.

    ``middleboxes`` hold objects implementing the middlebox-model
    protocol (see :mod:`repro.mboxes.base`): a ``name``, an
    ``emission_axiom(ctx, ev)`` constraining the steps where the box
    sends, and ``global_axioms(ctx)``.
    """

    hosts: Tuple[str, ...]
    middleboxes: Tuple[object, ...] = ()
    rules: Tuple[TransferRule, ...] = ()
    extra_addresses: Tuple[str, ...] = ()
    allow_spoofing: bool = False

    @property
    def mbox_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.middleboxes)

    @property
    def node_names(self) -> Tuple[str, ...]:
        return self.hosts + self.mbox_names + (OMEGA,)

    @property
    def addresses(self) -> Tuple[str, ...]:
        return self.hosts + self.mbox_names + self.extra_addresses

    def mbox(self, name: str):
        for m in self.middleboxes:
            if m.name == name:
                return m
        raise KeyError(f"no middlebox named {name!r}")


class RuleGuards:
    """Assumption guards over a network's protective configuration units.

    The unsat-core blame probe (:mod:`repro.provenance.blame`) builds a
    network model where every unit of *protection* — a deny-list pair,
    a whitelist policy, the steering path towards a destination — is
    conditioned on a fresh boolean guard.  Assuming every guard **true**
    reproduces the original semantics exactly; leaving a guard free
    *relaxes* its unit (the deny pair is deleted, the whitelist permits
    everything, Ω may bypass the destination's chain).  The unsat core
    of "violation + all guards" then names exactly the protections the
    verdict depends on.

    Guards are created lazily, keyed by a deterministic label, so the
    guard set — and with it the blame output — is a pure function of
    the network configuration.  Labels:

    * ``rule:<box>:deny:<a>-><b>`` — one deny-list pair,
    * ``policy:<box>:whitelist``   — a box's entire allow-list,
    * ``path:<dest>``              — the steering path protecting
      ``dest`` (relaxed: Ω may deliver to ``dest`` from any sender).

    Guarded models exist only inside dedicated blame probes — they are
    never pooled, cached, or fingerprinted — so production encodings
    pay nothing.
    """

    def __init__(self, ns: Optional[str] = None):
        self.ns = ns if ns is not None else fresh_ns("guard")
        self._by_label: "Dict[str, Term]" = {}
        self._labels: "Dict[int, str]" = {}

    def guard(self, label: str) -> Term:
        term = self._by_label.get(label)
        if term is None:
            term = BoolVar(f"{self.ns}:guard:{label}")
            self._by_label[label] = term
            self._labels[id(term)] = label
        return term

    def rule_guard(self, owner: str, kind: str, a: str, b: str) -> Term:
        return self.guard(f"rule:{owner}:{kind}:{a}->{b}")

    def policy_guard(self, owner: str) -> Term:
        return self.guard(f"policy:{owner}:whitelist")

    def path_guard(self, dest: str) -> Term:
        return self.guard(f"path:{dest}")

    def assumptions(self) -> List[Term]:
        """Every guard created so far, in sorted-label order (the
        deterministic candidate order the core minimizer scans)."""
        return [self._by_label[label] for label in sorted(self._by_label)]

    def label_of(self, term: Term) -> str:
        return self._labels[id(term)]

    def labels(self) -> List[str]:
        return sorted(self._by_label)

    def __len__(self) -> int:
        return len(self._by_label)


class ModelContext:
    """Shared helpers middlebox models and invariants build axioms from.

    History predicates are explicit state: one boolean variable per
    (state atom, timestep), for timesteps ``0..depth``.  Atoms are
    named by structural keys — ``("rcv", node, p, since_fail)``,
    ``("snt", node, p)``, ``("failed", node)`` — that are stable across
    rebuilds of the same network, which is what lets proof certificates
    be re-checked on an independent encoding.  The atom set is total
    and fixed at construction (:attr:`state_keys`), so the per-step
    formula never depends on which predicates an invariant asks for.
    """

    def __init__(self, net: VerificationNetwork, schema: PacketSchema,
                 events: List[EventVars], node_sort: EnumSort, ns: str,
                 rule_guards: Optional[RuleGuards] = None):
        self.net = net
        self.schema = schema
        self.events = events
        self.node_sort = node_sort
        self.ns = ns
        self.depth = len(events)
        self.packets: List[SymPacket] = schema.packets
        #: Blame-probe guards (``None`` outside dedicated probes).
        #: Middlebox models read this duck-typed via
        #: ``getattr(ctx, "rule_guards", None)`` — see
        #: :func:`repro.mboxes.base.acl_pairs_term`.
        self.rule_guards = rule_guards
        #: The state vector: atom key -> its variable per timestep, in
        #: the order proof cubes list the atoms.
        self.state_keys: Dict[tuple, Dict[int, Term]] = {}
        mboxes = set(net.mbox_names)
        for n in net.node_names:
            if n == OMEGA:
                continue
            for p in self.packets:
                self.state_keys[("rcv", n, p.index, False)] = {}
                self.state_keys[("snt", n, p.index)] = {}
                if n in mboxes:
                    self.state_keys[("rcv", n, p.index, True)] = {}
            if n in mboxes:
                self.state_keys[("failed", n)] = {}
        self._oracles: Dict[str, UFunc] = {}
        self.extra_axioms: List[Term] = []

    # ------------------------------------------------------------------
    # Sorts and constants
    # ------------------------------------------------------------------
    def addr(self, name: str) -> Term:
        return self.schema.addr(name)

    def node(self, name: str) -> Term:
        return EnumConst(self.node_sort, name)

    # ------------------------------------------------------------------
    # Event history predicates
    # ------------------------------------------------------------------
    def history_at(self, key: tuple, t: int) -> Term:
        """The state variable of atom ``key`` at time ``t``: the history
        predicate's value over the events strictly before ``t``."""
        at = self.state_keys[key]  # KeyError: not a state atom of this network
        atom = at.get(t)
        if atom is None:
            atom = at[t] = BoolVar(f"{self.ns}:s{t}:" + ":".join(map(str, key)))
        return atom

    def next_state(self, key: tuple, t: int) -> Term:
        """``history_at(key, t + 1)`` as a function of the state and the
        event at ``t`` — the next-state function of one state atom."""
        prev = self.history_at(key, t)
        ev = self.events[t]
        kind, node = key[0], key[1]
        if kind == "failed":
            return And(Or(prev, ev.fail_of(node)), Not(ev.recover_of(node)))
        if kind == "snt":
            return Or(prev, ev.snd(node, OMEGA, key[2]))
        got = self.rcv_at(node, key[2], t)
        if not key[3]:
            return Or(prev, got)
        # Received since the last failure: a failure clears it, and a
        # packet delivered to a node that is down does not count.
        got = And(got, Not(self.failed_at(node, t)))
        return Or(And(prev, Not(ev.fail_of(node))), got)

    def rcv_at(self, node: str, p_index: int, t: int) -> Term:
        """Event ``t`` delivers packet ``p_index`` to ``node``."""
        ev = self.events[t]
        return And(ev.is_send, ev.to_is(node), ev.pkt_is(p_index))

    def rcv_before(self, node: str, p_index: int, t: int,
                   since_fail: bool = False) -> Term:
        """``node`` received packet ``p_index`` at some step before ``t``.

        With ``since_fail=True`` the receive must have happened while the
        node was up, with no failure of the node since — the predicate to
        use for middlebox *state* (which failure clears), per the paper's
        ``established`` axiom.
        """
        return self.history_at(("rcv", node, p_index, since_fail), t)

    def sent_to_net_before(self, node: str, p_index: int, t: int) -> Term:
        """``node`` handed packet ``p_index`` to Ω at some step before ``t``."""
        return self.history_at(("snt", node, p_index), t)

    def failed_at(self, node: str, t: int) -> Term:
        """``node`` is down at step ``t`` (events strictly before ``t``)."""
        return self.history_at(("failed", node), t)

    def delivered_to_before(self, node: str, p_index: int, t: int) -> Term:
        """Alias of :meth:`rcv_before` kept for invariant readability."""
        return self.rcv_before(node, p_index, t)

    # ------------------------------------------------------------------
    # Classification oracle
    # ------------------------------------------------------------------
    def classify(self, class_name: str, p: SymPacket) -> Term:
        """Abstract packet class ``class_name`` applied to packet ``p``.

        The oracle is an uninterpreted predicate over all packet fields:
        the solver picks its value freely (that is the point — we verify
        the configuration for *every* behaviour of the classifier),
        subject to congruence (field-identical packets classify alike)
        and any output constraints a model adds via :meth:`add_axiom`.
        """
        fn = self._oracle(class_name, range_sort=BOOL)
        return fn(p.src, p.dst, p.sport, p.dport, p.origin, p.tag)

    def oracle_fn(self, name: str, range_sort) -> UFunc:
        """An oracle function over the 4-tuple flow key (NATs, LBs)."""
        key = f"flow:{name}"
        fn = self._oracles.get(key)
        if fn is None:
            s = self.schema
            fn = UFunc(
                f"{self.ns}:{name}",
                (s.addr_sort, s.addr_sort, s.port_sort, s.port_sort),
                range_sort,
            )
            self._oracles[key] = fn
        return fn

    def _oracle(self, name: str, range_sort) -> UFunc:
        fn = self._oracles.get(name)
        if fn is None:
            s = self.schema
            fn = UFunc(
                f"{self.ns}:{name}",
                (s.addr_sort, s.addr_sort, s.port_sort, s.port_sort,
                 s.addr_sort, s.tag_sort),
                range_sort,
            )
            self._oracles[name] = fn
        return fn

    def add_axiom(self, term: Term) -> None:
        """Register an additional global axiom (oracle output constraints,
        NAT port-injectivity, ...)."""
        self.extra_axioms.append(term)

    def oracle_axioms(self) -> List[Term]:
        axioms: List[Term] = []
        for fn in self._oracles.values():
            axioms.extend(fn.congruence_axioms())
        return axioms

    def at_depth(self, depth: int) -> "ModelContext":
        """A read-through view of this context clamped to ``depth``.

        Invariants ground their violation over ``range(ctx.depth)``;
        handing them a clamped view builds "violated within the first
        ``depth`` steps" against the *same* event variables and caches,
        which is how the warm BMC driver re-asks the property per depth
        without re-encoding anything.
        """
        if depth == self.depth:
            return self
        if not 0 <= depth <= self.depth:
            raise ValueError(f"depth {depth} outside [0, {self.depth}]")
        return _DepthView(self, depth)


class _DepthView:
    """A shallow proxy of :class:`ModelContext` with a smaller depth.

    Everything except ``depth`` delegates to the underlying context, so
    history-predicate caches, oracles, and extra axioms stay shared.
    """

    def __init__(self, ctx: ModelContext, depth: int):
        self._ctx = ctx
        self.depth = depth

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def at_depth(self, depth: int) -> "ModelContext":
        return self._ctx.at_depth(depth)


class NetworkSMTModel:
    """Builds the grounded formula for one (network, depth) pair.

    The model is a transition system over the explicit state of
    :class:`ModelContext`: :meth:`step_axioms` constrain one step's
    event against the state before it, ``ctx.next_state`` gives the
    state after it, :meth:`init_axioms` pin the empty start (the proof
    engines leave it arbitrary) and :meth:`base_axioms` hold whatever
    is not tied to one step.
    """

    def __init__(
        self,
        net: VerificationNetwork,
        n_packets: int,
        depth: int,
        failure_budget: int = 0,
        n_ports: int = 6,
        n_tags: int = 4,
        ns: Optional[str] = None,
        rule_guards: Optional[RuleGuards] = None,
    ):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.net = net
        self.depth = depth
        self.failure_budget = failure_budget
        self.ns = ns if ns is not None else fresh_ns()
        self.schema = PacketSchema(
            self.ns, net.addresses, n_packets, n_ports=n_ports, n_tags=n_tags
        )
        self.node_sort = EnumSort(f"{self.ns}:node", net.node_names)
        kind_sort = make_kind_sort(self.ns)
        self.events = make_events(
            self.ns, depth, kind_sort, self.node_sort, self.schema.pkt_sort
        )
        self.ctx = ModelContext(net, self.schema, self.events, self.node_sort,
                                self.ns, rule_guards=rule_guards)
        self._step_cache: Dict[int, List[Term]] = {}
        self._base_cache: Optional[List[Term]] = None

    # ------------------------------------------------------------------
    def step_axioms(self, t: int) -> List[Term]:
        """The transition relation of timestep ``t`` (memoized): what
        event ``t`` may be, given the state at ``t``."""
        cached = self._step_cache.get(t)
        if cached is not None:
            return cached
        ev = self.events[t]
        out: List[Term] = []
        out.extend(self._failure_axioms(ev, t, list(self.net.mbox_names)))
        out.extend(self._host_axioms(ev, t))
        out.extend(self._mbox_axioms(ev, t))
        out.append(self._omega_axiom(ev, t))
        out = [a for a in out if a is not None]
        self._step_cache[t] = out
        return out

    def step_variables(self, t: int) -> Tuple[List[Term], List[Term]]:
        """(inputs, outputs) of step ``t``: the state and the four event
        variables it reads, and the state variables it defines."""
        keys = self.ctx.state_keys
        ev = self.events[t]
        inputs = [self.ctx.history_at(key, t) for key in keys]
        inputs += [ev.kind, ev.frm, ev.to, ev.pkt]
        return inputs, [self.ctx.history_at(key, t + 1) for key in keys]

    def generic_step(self) -> Tuple[List[Term], List[Tuple[Term, Term]], List[Term]]:
        """Step 0 as the generic transition relation T(state, event,
        rigid): ``(asserted, defined, inputs)`` where ``defined`` pairs
        each state variable at time 1 with its next-state function.

        Substituting :meth:`step_variables` of any other step for those
        of step 0 gives that step — *provided* the model is
        time-homogeneous, which nothing in the middlebox protocol
        enforces (``branches`` receives ``t``).  So step 1 is built
        too and must be step 0 up to that renaming, and must register
        no oracle application, guard or extra axiom step 0 did not;
        anything else raises :class:`TimeDependentModelError`.
        """
        ctx = self.ctx

        def step(t: int):
            inputs, outputs = self.step_variables(t)
            defined = [
                (out, ctx.next_state(key, t))
                for key, out in zip(ctx.state_keys, outputs)
            ]
            formula = And(*self.step_axioms(t),
                          *(Implies(out, nxt) for out, nxt in defined))
            return inputs, outputs, defined, formula

        def registered() -> tuple:
            return (
                [(name, len(fn.applications)) for name, fn in ctx._oracles.items()],
                len(ctx.extra_axioms),
                len(ctx.rule_guards or ()),
            )

        inputs, outputs, defined, generic = step(0)
        if self.depth > 1:
            before = registered()
            later_in, later_out, _, later = step(1)
            shift = dict(zip(later_in + later_out, inputs + outputs))
            if substitute(later, shift) is not generic or registered() != before:
                raise TimeDependentModelError(
                    f"{self.ns}: the transition relation at t=1 is not the "
                    "one at t=0 renamed; a middlebox model depends on t"
                )
        return self.step_axioms(0), defined, inputs

    def init_axioms(self) -> List[Term]:
        """The empty start: every history predicate false at time 0."""
        return [Not(self.ctx.history_at(key, 0)) for key in self.ctx.state_keys]

    def base_axioms(self) -> List[Term]:
        """The axioms not tied to one step (memoized).

        Noop-suffix links, failure budget, middlebox global axioms,
        extra axioms and oracle congruence.  The last three range over
        oracle applications registered while a step is built, so this
        builds step 0 first (every other step registers the same ones —
        :meth:`generic_step` checks); the result is valid for any
        asserted prefix (future steps are satisfied by extending with
        noops).
        """
        if self._base_cache is None:
            self.step_axioms(0)
            # Canonical schedules: noops form a suffix.  Sound because a
            # noop changes nothing; it only prunes the oracle's search.
            out: List[Term] = [
                Implies(ev.is_noop, nxt.is_noop)
                for ev, nxt in zip(self.events, self.events[1:])
            ]
            out.extend(self._failure_budget_axioms())
            for m in self.net.middleboxes:
                out.extend(m.global_axioms(self.ctx))
            out.extend(self.ctx.extra_axioms)
            out.extend(self.ctx.oracle_axioms())
            self._base_cache = [a for a in out if a is not None]
        return self._base_cache

    def axioms(self) -> List[Term]:
        """All axioms of the network model (start state and invariant
        not included), every step built and unrolled as terms — the
        slow reference the templated drivers are tested against."""
        ctx = self.ctx
        out: List[Term] = []
        for t in range(self.depth):
            out.extend(self.step_axioms(t))
            out.extend(
                Iff(ctx.history_at(key, t + 1), ctx.next_state(key, t))
                for key in ctx.state_keys
            )
        out.extend(self.base_axioms())
        return out

    # ------------------------------------------------------------------
    def _failure_axioms(self, ev: EventVars, t: int, failable: List[str]) -> List[Term]:
        ctx = self.ctx
        out: List[Term] = []
        is_fail = ev.is_kind(EventKind.FAIL)
        is_recover = ev.is_kind(EventKind.RECOVER)
        if not failable or self.failure_budget == 0:
            out.append(Not(is_fail))
            out.append(Not(is_recover))
            return out
        out.append(Implies(is_fail, Or(*(ev.frm_is(n) for n in failable))))
        out.append(Implies(is_recover, Or(*(ev.frm_is(n) for n in failable))))
        for n in failable:
            # No double-failures, no spontaneous recoveries.
            out.append(Implies(And(is_fail, ev.frm_is(n)), Not(ctx.failed_at(n, t))))
            out.append(Implies(And(is_recover, ev.frm_is(n)), ctx.failed_at(n, t)))
        return out

    def _failure_budget_axioms(self) -> List[Term]:
        if self.failure_budget == 0 or not self.net.mbox_names:
            return []
        fails = [ev.is_kind(EventKind.FAIL) for ev in self.events]
        return [at_most_k(fails, self.failure_budget)]

    # ------------------------------------------------------------------
    def _host_axioms(self, ev: EventVars, t: int) -> List[Term]:
        ctx = self.ctx
        out: List[Term] = []
        for h in self.net.hosts:
            sending = And(ev.is_send, ev.frm_is(h))
            per_pkt: List[Term] = []
            for p in ctx.packets:
                constraints: List[Term] = []
                if not self.net.allow_spoofing:
                    constraints.append(Eq(p.src, ctx.addr(h)))
                constraints.append(self._origin_provenance(h, p, t))
                per_pkt.append(Implies(ev.pkt_is(p.index), And(*constraints)))
            out.append(Implies(sending, And(ev.to_is(OMEGA), *per_pkt)))
        return out

    def _origin_provenance(self, h: str, p: SymPacket, t: int) -> Term:
        """A host can only emit data it owns or previously received.

        Requests are free (asking for content does not require having
        it); data-bearing packets must carry the host's own data or data
        from a packet the host received earlier.  This is what makes the
        data-isolation invariants of §5.2 meaningful.
        """
        ctx = self.ctx
        received_origin = [
            And(
                ctx.rcv_before(h, q.index, t),
                Eq(q.origin, p.origin),
                Not(q.is_request),
            )
            for q in ctx.packets
        ]
        return Or(
            p.is_request,
            Eq(p.origin, ctx.addr(h)),
            *received_origin,
        )

    # ------------------------------------------------------------------
    def _mbox_axioms(self, ev: EventVars, t: int) -> List[Term]:
        out: List[Term] = []
        for m in self.net.middleboxes:
            sending = And(ev.is_send, ev.frm_is(m.name))
            # The emission axiom constrains ev.to itself: Ω by default,
            # or a direct-link next hop for tunnelling branches.
            out.append(Implies(sending, m.emission_axiom(self.ctx, ev)))
        return out

    # ------------------------------------------------------------------
    def _omega_axiom(self, ev: EventVars, t: int) -> Term:
        """Ω forwards per the transfer rules, with ingress justification."""
        ctx = self.ctx
        acting = ev.frm_is(OMEGA)
        per_pkt: List[Term] = []
        senders = [n for n in self.net.node_names if n != OMEGA]
        for p in ctx.packets:
            branches: List[Term] = []
            for rule in self.net.rules:
                # Rules are a union relation: any rule whose header match
                # and ingress justification hold may deliver.  Producers
                # of rule sets (the VeriFlow-style transfer computation,
                # the scenario builders) keep (ingress, header) matches
                # disjoint, so delivery is deterministic in practice;
                # overlapping rules mean nondeterministic delivery, a
                # sound over-approximation for violation finding.
                match = rule.match.term(p)
                ingress = senders if rule.from_nodes is None else sorted(rule.from_nodes)
                justification = Or(
                    *(ctx.sent_to_net_before(n, p.index, t) for n in ingress)
                )
                branches.append(And(match, ev.to_is(rule.to), justification))
            guards = ctx.rule_guards
            if guards is not None:
                # Blame-probe path relaxation: with ``path:<d>`` relaxed
                # (guard free), Ω may deliver any packet to ``d`` given
                # any-sender justification — the "steering towards d was
                # deleted/bypassed" hypothesis the unsat core tests.
                any_sender = Or(
                    *(ctx.sent_to_net_before(n, p.index, t) for n in senders)
                )
                for d in self.net.hosts:
                    branches.append(
                        And(Not(guards.path_guard(d)), ev.to_is(d), any_sender)
                    )
            per_pkt.append(Implies(ev.pkt_is(p.index), Or(*branches)))
        return Implies(acting, And(ev.is_send, *per_pkt))
