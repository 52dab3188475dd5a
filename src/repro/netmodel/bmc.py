"""The bounded model-checking driver.

The paper hands Z3 a formula whose satisfying assignments are invariant
violations; we do the same against :mod:`repro.smt`, grounding time to
a bounded unrolling depth.  The default depth comes from the structural
bound argued in the README ("Solver internals", *The depth bound*): a
violation needs at most one emission of each symbolic packet by each
node on its path, because middlebox state in our model only ever
*enables* more behaviour between failures (hole-punching, cache fills,
NAT mappings); failure events add a constant per failure allowed.

Since the solver stack went incremental, every check runs through a
:class:`IncrementalBMC` driver that owns one *warm* solver per network
encoding (the machinery is :class:`repro.netmodel.unrolling.Unrolling`,
shared with the proof engines' transition system):

* the step-independent axioms and the empty start are asserted once at
  construction, where the transition relation is also encoded — once,
  as a step template,
* each timestep is then asserted by instantiating that template over
  the step's variables (:meth:`IncrementalBMC.extend_to` — steps
  ``0..k-1`` are never re-encoded when deepening to ``k``, and no
  step's terms are ever built again),
* the property is **assumed**, not asserted
  (``check(assumptions=[violation@k])``), so one solver instance
  answers any invariant at any depth while retaining learned clauses
  across calls.

:class:`SolverPool` keeps warm drivers keyed by the *shape* of the
encoding (:func:`encoding_key`: the slice with every node named by its
tuple position, which is its enum code — so slices of one shape are
one integer problem under different name tables).  The batch engine
leases one driver per shape: :func:`lease` renames the invariant into
the driver's names and the decoded trace back out, and all invariants
on all slices of a shape share one encoding and its learned clauses.

``check`` returns :data:`VIOLATED` with a decoded counterexample trace,
:data:`HOLDS` when the formula is unsatisfiable at the chosen depth, or
:data:`UNKNOWN` when a conflict budget was exhausted (mirroring the
paper's reliance on Z3 timeouts, §3.1).  A caller that wants the
shallowest violation walks :meth:`IncrementalBMC.check_at` over depths
``1..depth`` on the warm solver; verdicts per depth equal what a
from-scratch solve at that depth concludes.  ``canonical_trace=True``
replaces the raw model decode with the lexicographically-least
violating schedule (computed by bitwise minimization under guarded
pins), which is identical no matter which solver state produced the
verdict — that is what lets the equivalence tests demand
byte-identical traces from the warm and cold paths.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..obs import SOLVER_COUNTER_KEYS, get_registry, get_tracer
from ..smt import SAT, UNSAT, Term
from .canon import Unfingerprintable, canon, placeholders, rename
from .events import EventKind
from .system import VerificationNetwork
from .trace import Trace, decode_trace
from .unrolling import Unrolling

__all__ = [
    "VIOLATED",
    "HOLDS",
    "UNKNOWN",
    "CheckResult",
    "IncrementalBMC",
    "SolverPool",
    "SOLVER_COUNTERS",
    "encoding_key",
    "Lease",
    "lease",
    "check",
    "default_depth",
]

VIOLATED = "violated"
HOLDS = "holds"
UNKNOWN = "unknown"


@dataclass
class CheckResult:
    """Outcome of one invariant check."""

    status: str
    invariant: object
    depth: int
    n_packets: int
    solve_seconds: float
    trace: Optional[Trace] = None
    stats: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def cache_hit(self) -> bool:
        """True when this verdict was served from a result cache."""
        return bool(self.stats.get("cache_hit"))

    def __str__(self) -> str:
        head = f"{self.status.upper()} (depth={self.depth}, {self.solve_seconds:.3f}s)"
        if self.trace is not None:
            return f"{head}\n{self.trace}"
        return head


def default_depth(net: VerificationNetwork, n_packets: int, failure_budget: int) -> int:
    """The structural depth bound (README, "Solver internals").

    Per packet: one host emission, plus two events (Ω delivery + re-
    emission) per middlebox it can traverse, plus the final delivery.
    Failures and recoveries add two events per allowed failure.
    """
    n_mboxes = len(net.middleboxes)
    return n_packets * (2 * n_mboxes + 2) + 2 * failure_budget + 1


# ----------------------------------------------------------------------
# Warm incremental driver
# ----------------------------------------------------------------------
#: The solver's cumulative work counters, as reported by
#: :meth:`repro.smt.Solver.stats`; per-check stats carry their deltas
#: and ``repro audit --json`` totals them.  The canonical definition
#: lives in :data:`repro.obs.SOLVER_COUNTER_KEYS` (one source of truth
#: for every layer that diffs snapshots — re-exported here for the
#: historical import path); a contract test keeps it in sync with
#: ``SatSolver.stats()``.
SOLVER_COUNTERS = SOLVER_COUNTER_KEYS
_COUNTER_KEYS = SOLVER_COUNTERS


class IncrementalBMC(Unrolling):
    """One warm solver over one network encoding, from the empty start.

    The model's events exist for all ``depth`` timesteps from the
    start; the base (step-independent) axioms are asserted at
    construction and the transition relation is asserted step by step
    as :meth:`check_at` deepens.  Unasserted suffix steps are assumed
    to be noops during each check, so a partial assertion prefix
    decides exactly the ``depth=k`` problem — and since a bounded
    schedule always extends with noops, verdicts match a from-scratch
    encode at that depth.
    """

    def assumptions_at(self, invariant, k: int) -> List[Term]:
        """The assumption set deciding ``invariant`` at depth ``k``:
        the violation grounded over the first ``k`` steps, plus noops
        for every deeper timestep (which also keeps decoded traces
        identical to a ``depth=k`` model's)."""
        out = [invariant.violation_term(self.model.ctx.at_depth(k))]
        out.extend(
            self.model.events[t].is_noop for t in range(k, self.model.depth)
        )
        return out

    def check_at(
        self, invariant, k: int, max_conflicts: Optional[int] = None
    ) -> str:
        """Decide ``invariant`` at depth ``k`` on the warm solver."""
        if not 0 <= k <= self.model.depth:
            raise ValueError(f"depth {k} outside [0, {self.model.depth}]")
        self.extend_to(k)
        self.checks += 1
        with get_tracer().span("check-at", cat="bmc", depth=k) as span:
            result = self.solver.check(
                assumptions=self.assumptions_at(invariant, k),
                max_conflicts=max_conflicts,
            )
            span.tag(result=result)
        return result

    def decode(self) -> Trace:
        """The counterexample of the last ``sat`` answer."""
        return decode_trace(self.solver.model(), self.model)

    # ------------------------------------------------------------------
    def canonical_trace(self, invariant, k: int, presolved: bool = False) -> Trace:
        """The lexicographically-least violating schedule at depth ``k``.

        Works by greedy minimization: fields are fixed in schedule
        order (kind, sender, receiver, packet per step; then the fields
        of each sent packet), each to the least sort value still
        satisfiable together with the violation and the pins so far —
        found bit by bit, in at most ``nbits`` queries per field.  The
        result depends only on the encoded problem — not on learned
        clauses, activities, or any other solver state — so warm and
        cold solvers produce byte-identical traces.

        ``presolved=True`` promises the solver's last answer was
        ``sat`` for exactly this ``(invariant, k)`` assumption set,
        letting the minimization start from that model instead of
        re-solving it.
        """
        solver = self.solver
        if not presolved and self.check_at(invariant, k) != SAT:
            raise RuntimeError(f"no violation at depth {k} to canonicalize")
        model = solver.model()
        # Pins are clauses under one guard, not assumptions: a query
        # then costs the violation plus two literals, however long the
        # schedule, and retiring the guard retracts them all.
        guard = solver.new_literal()
        base = [guard, *self.assumptions_at(invariant, k)]

        def pin(var: Term):
            # Value order is code order, so the least value is the least
            # code: clear its bits MSB first, asking the solver only
            # about bits the witness has set (out-of-range codes are
            # excluded by the sort's domain constraint).
            nonlocal model
            for bit in reversed(solver.bits_of(var)):
                lit = solver.literal(bit)
                if model[bit]:
                    if solver.check(assumptions=base + [-lit]) != SAT:
                        solver.add_clause([lit, -guard])
                        continue
                    model = solver.model()
                solver.add_clause([-lit, -guard])
            return model[var]

        try:
            sent: List[int] = []
            for t in range(k):
                ev = self.model.events[t]
                kind = pin(ev.kind)
                if kind == EventKind.NOOP:
                    break  # noops are a canonical suffix; nothing else prints
                pin(ev.frm)
                if kind == EventKind.SEND:
                    pin(ev.to)
                    sent.append(pin(ev.pkt))
            for index in sorted(set(sent)):
                p = self.model.schema.packets[index]
                for var in (p.src, p.dst, p.sport, p.dport, p.origin, p.tag):
                    pin(var)
            # ``model`` is the last sat answer and satisfies every pin.
            return decode_trace(model, self.model)
        finally:
            solver.add_clause([-guard])
            solver.simplify()


# ----------------------------------------------------------------------
# Warm solver pool
# ----------------------------------------------------------------------
def encoding_key(net: VerificationNetwork, params: dict) -> Optional[str]:
    """The shape key of one network encoding.

    The slice with hosts, middleboxes and extra addresses numbered by
    tuple position — the enum code ``node_sort`` / ``addr_sort`` give
    them — and rules as a set: networks with equal keys encode to the
    same integer problem, whatever their nodes are called, so they may
    share a warm solver (and their lexicographically-least traces are
    the same code sequence).  ``None`` means positions do not name
    nodes (a name held twice) or the network holds state the
    canonicalizer cannot serialize — skip the pool.
    """
    names = net.addresses
    if len(set(names)) < len(names):
        return None
    at = placeholders(names)
    try:
        return repr(
            (
                "enc",
                canon(net.hosts, at),
                canon(net.middleboxes, at),
                canon(frozenset(net.rules), at),
                canon(net.extra_addresses, at),
                net.allow_spoofing,
                canon(dict(params), {}),
            )
        )
    except Unfingerprintable:
        return None


class SolverPool:
    """Warm :class:`IncrementalBMC` drivers keyed by encoding shape.

    One pool per :class:`repro.core.vmn.VMN` (or per
    :class:`repro.incremental.IncrementalSession`, shared across
    versions): every invariant whose check resolves to a slice of the
    same shape and BMC parameters leases the same driver, so the network
    axioms are encoded once and learned clauses accumulate across the
    whole invariant set.  Bounded LRU, since long-running sessions
    retire slices as the network churns.
    """

    def __init__(self, max_entries: int = 8):
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, IncrementalBMC]" = OrderedDict()
        self.hits = self.shared = self.misses = 0

    def lease(
        self, key: str, depth: int, factory: Callable[[], IncrementalBMC],
        names: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[IncrementalBMC, bool]:
        """(driver, was_warm) for ``key``; rebuilds when the cached
        driver's unrolling is too shallow for ``depth``.  A warm driver
        built for other names than the lessee's ``names`` counts as
        ``shared``, not as a hit."""
        driver = self._entries.get(key)
        if driver is None or driver.model_depth < depth:
            outcome = "miss"
            self.misses += 1
            driver = self._entries[key] = factory()
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        elif names is None or names == driver.net.addresses:
            outcome = "hit"
            self.hits += 1
        else:
            outcome = "shared"
            self.shared += 1
        self._entries.move_to_end(key)
        get_registry().counter(
            "repro_solver_pool_leases_total",
            "warm-solver leases: hit, shared (other names), miss (built)",
        ).inc(outcome=outcome)
        return driver, outcome != "miss"

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.shared = self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverPool({len(self._entries)} warm solvers, {self.hits} hits, "
            f"{self.shared} shared, {self.misses} misses)"
        )


@dataclass
class Lease:
    """A driver for one check, with the lessee's side of the name table."""

    driver: Unrolling
    warm: bool
    invariant: object  #: the check's invariant, in the driver's names
    back: Optional[dict] = None  #: driver's names -> lessee's, when they differ

    def out(self, value):
        """``value`` (a trace, a certificate) in the lessee's names."""
        return rename(value, self.back) if self.back else value


def lease(
    pool: Optional[SolverPool], key: Optional[str], net: VerificationNetwork,
    invariant, depth: int, build: Callable[[], Unrolling],
) -> Lease:
    """Lease the driver for ``net``'s shape ``key`` from ``pool``.

    A driver built for another slice of the shape is the same problem
    in other names: the invariant is renamed in, position by position,
    and what the check decodes comes back through :meth:`Lease.out`.
    Without a pool or a key — or when the invariant does not survive
    the renaming as ``canon`` reads it (it holds names in state
    ``rename`` cannot rebuild) — the check gets a private ``build()``.
    """
    if pool is not None and key is not None:
        names = net.addresses
        driver, warm = pool.lease(key, depth, build, names)
        theirs = driver.net.addresses
        if theirs == names:
            return Lease(driver, warm, invariant)
        into = dict(zip(names, theirs))
        try:
            renamed = rename(invariant, into)
            if canon(renamed, {}) == canon(invariant, into):
                return Lease(driver, warm, renamed, dict(zip(theirs, names)))
        except (Unfingerprintable, TypeError, ValueError):
            pass
    return Lease(build(), False, invariant)


# ----------------------------------------------------------------------
# The check entry point
# ----------------------------------------------------------------------
def check(
    net: VerificationNetwork,
    invariant,
    depth: Optional[int] = None,
    n_packets: Optional[int] = None,
    failure_budget: Optional[int] = None,
    max_conflicts: Optional[int] = None,
    n_ports: int = 6,
    n_tags: int = 4,
    warm: Optional[SolverPool] = None,
    warm_key: Optional[str] = None,
    canonical_trace: bool = False,
) -> CheckResult:
    """Check one reachability invariant against one network.

    ``invariant`` is any object with ``violation_term(ctx) -> Term``;
    optional hints ``n_packets_hint`` and ``failure_budget`` on the
    invariant are honoured when the keyword arguments are left ``None``.

    ``warm`` names a :class:`SolverPool` to lease the solver from (the
    batch engine passes the per-VMN pool so checks on slices of one
    shape share an encoding, see :func:`lease`); ``warm_key`` skips
    recomputing the shape key.  ``canonical_trace=True`` canonicalizes
    the reported counterexample (see
    :meth:`IncrementalBMC.canonical_trace`).
    """
    if n_packets is None:
        n_packets = getattr(invariant, "n_packets_hint", 2)
    if failure_budget is None:
        failure_budget = getattr(invariant, "failure_budget", 0)
    if depth is None:
        depth = default_depth(net, n_packets, failure_budget)

    started = time.perf_counter()

    encoding = dict(
        n_packets=n_packets, failure_budget=failure_budget,
        n_ports=n_ports, n_tags=n_tags,
    )

    def build() -> IncrementalBMC:
        return IncrementalBMC(net, depth=depth, **encoding)

    with get_tracer().span(
        "check",
        cat="bmc",
        invariant=type(invariant).__name__,
        depth=depth,
        n_packets=n_packets,
    ) as span:
        if warm is not None and warm_key is None:
            warm_key = encoding_key(net, encoding)
        held = lease(warm, warm_key, net, invariant, depth, build)
        driver, was_warm = held.driver, held.warm

        before = driver.counters()
        encode_before = driver.encode_seconds
        trace: Optional[Trace] = None
        result = driver.check_at(held.invariant, depth, max_conflicts=max_conflicts)
        if result == SAT:
            status = VIOLATED
            trace = held.out(
                driver.canonical_trace(held.invariant, depth, presolved=True)
                if canonical_trace
                else driver.decode()
            )
        else:
            status = HOLDS if result == UNSAT else UNKNOWN
        span.tag(status=status, warm=was_warm, shared=held.back is not None)
    get_registry().counter(
        "repro_bmc_checks_total", "BMC invariant checks by status"
    ).inc(status=status, warm=str(was_warm).lower())
    elapsed = time.perf_counter() - started

    after = driver.counters()
    stats = {k: after[k] - before[k] for k in _COUNTER_KEYS}
    solver_stats = driver.solver.stats()
    stats.update(
        vars=solver_stats["vars"],
        clauses=solver_stats["clauses"],
        learnts=solver_stats["learnts"],
        warm=was_warm,
        checks=driver.checks,
        asserted_depth=driver.asserted_depth,
        encode_seconds=driver.encode_seconds - (encode_before if was_warm else 0.0),
        cumulative=after,
    )
    return CheckResult(
        status=status,
        invariant=invariant,
        depth=depth,
        n_packets=n_packets,
        solve_seconds=elapsed,
        trace=trace,
        stats=stats,
    )
