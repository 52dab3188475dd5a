"""Proof certificates and their independent re-check.

A proof engine's "holds, unbounded" answer is only as trustworthy as
the engine's implementation, so every certificate is re-validated by a
**cold, independent solver** before anything downstream reports it:
fresh :class:`repro.proof.transition.TransitionSystem` (and, for
k-induction, a fresh :class:`repro.netmodel.bmc.IncrementalBMC`), no
shared learned clauses, no shared frames — just the certificate's
defining conditions as a handful of UNSAT queries.

Two certificate kinds:

* ``kinduction`` — records the induction depth ``k``.  Valid iff
  (1) *base*: no violating schedule of length ``≤ k`` exists from the
  real (empty) initial state, and (2) *step*: no length-``k+1``
  simple path from an arbitrary consistent state has the property
  clean for ``k`` steps and violated at step ``k``.  ``k=0`` is the
  degenerate (strongest) case: the violating event is impossible from
  *any* consistent state.

* ``ic3`` — records the inductive strengthening as blocked cubes over
  the state vocabulary (atom keys + rigid field pins; see
  :data:`repro.proof.transition.Lit`).  Valid iff the conjunction
  ``Inv`` of the blocking clauses satisfies (1) *initiation*:
  ``Init ⊨ Inv``, (2) *consecution*: ``Inv ∧ T ⊨ Inv'``, and
  (3) *property*: no violating event is possible from an ``Inv``
  state.

Certificates are plain picklable data keyed by *structural* names
(node, packet index, field), so they survive the result cache, worker
pools, and — the payoff — network deltas: an
:class:`repro.incremental.IncrementalSession` re-checks a cached
invariant against the re-built encoding of the changed network (three
queries) before it ever considers re-running a full proof search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..netmodel.bmc import IncrementalBMC, VerificationNetwork
from ..smt import SAT, UNSAT, And, Not
from .transition import Cube, TransitionSystem, clause_term

__all__ = [
    "ProofCertificate",
    "RecheckReport",
    "recheck_certificate",
    "MinimizeReport",
    "minimize_certificate",
]

KINDUCTION = "kinduction"
IC3 = "ic3"


@dataclass(frozen=True)
class ProofCertificate:
    """A checkable witness that an invariant holds unboundedly."""

    kind: str  # "kinduction" | "ic3"
    k: int = 0  # induction depth (kinduction only)
    clauses: Tuple[Cube, ...] = ()  # blocked cubes (ic3 only)
    #: Named configuration units (see :mod:`repro.provenance.blame`)
    #: whose protection the certificate's core queries rest on — the
    #: "why" carried alongside the proof.  Certificates pickled before
    #: this field existed lack the attribute entirely, so readers use
    #: ``getattr(cert, "blame", ())``.
    blame: Tuple[str, ...] = ()

    def summary(self) -> str:
        if self.kind == KINDUCTION:
            return f"{self.kind}(k={self.k})"
        lits = sum(len(c) for c in self.clauses)
        return f"{self.kind}({len(self.clauses)} clauses, {lits} literals)"

    def to_json(self) -> dict:
        """A JSON-serializable rendering (tuples become lists)."""
        out = {"kind": self.kind}
        if self.kind == KINDUCTION:
            out["k"] = self.k
        else:
            out["clauses"] = [
                [[list(key), value] for key, value in cube]
                for cube in self.clauses
            ]
            out["n_clauses"] = len(self.clauses)
        blame = getattr(self, "blame", ())
        if blame:
            out["blame"] = list(blame)
        return out

    @classmethod
    def from_json(cls, payload: dict) -> "ProofCertificate":
        blame = tuple(payload.get("blame", ()))
        if payload["kind"] == KINDUCTION:
            return cls(kind=KINDUCTION, k=int(payload["k"]), blame=blame)
        clauses = tuple(
            tuple((tuple(key), value) for key, value in cube)
            for cube in payload["clauses"]
        )
        return cls(kind=IC3, clauses=clauses, blame=blame)


@dataclass
class RecheckReport:
    """Outcome of one independent certificate validation."""

    ok: bool
    solver_checks: int
    reason: str = ""
    certificate: Optional[ProofCertificate] = field(default=None, repr=False)


def _simple_path_assumptions(ts: TransitionSystem, k: int):
    return [
        ts.distinct_states(t1, t2)
        for t1 in range(k + 1)
        for t2 in range(t1 + 1, k + 1)
    ]


def _recheck_kinduction(
    net: VerificationNetwork, invariant, cert: ProofCertificate, params: dict
) -> RecheckReport:
    checks = 0
    k = cert.k
    if k > 0:
        # Base: no violating schedule of length <= k from the real start.
        bmc = IncrementalBMC(
            net,
            n_packets=params["n_packets"],
            depth=k,
            failure_budget=params["failure_budget"],
            n_ports=params["n_ports"],
            n_tags=params["n_tags"],
        )
        checks += 1
        if bmc.check_at(invariant, k) != UNSAT:
            return RecheckReport(False, checks, f"base case fails at depth {k}")
    # Step: clean for k steps then violated, from an arbitrary state,
    # along a simple path — must be impossible.
    ts = TransitionSystem(
        net,
        n_packets=params["n_packets"],
        depth=k + 1,
        failure_budget=params["failure_budget"],
        n_ports=params["n_ports"],
        n_tags=params["n_tags"],
    )
    ts.extend_to(k + 1)
    assumptions = [ts.violation_prefix(invariant, k + 1)]
    if k > 0:
        assumptions.append(Not(ts.violation_prefix(invariant, k)))
        assumptions.extend(_simple_path_assumptions(ts, k))
    checks += 1
    if ts.check(assumptions) != UNSAT:
        return RecheckReport(False, checks, f"inductive step fails at k={k}")
    return RecheckReport(True, checks, f"k-induction certificate valid (k={k})")


def _recheck_ic3(
    net: VerificationNetwork, invariant, cert: ProofCertificate, params: dict
) -> RecheckReport:
    ts = TransitionSystem(
        net,
        n_packets=params["n_packets"],
        depth=1,
        failure_budget=params["failure_budget"],
        n_ports=params["n_ports"],
        n_tags=params["n_tags"],
    )
    for cube in cert.clauses:
        for key, _ in cube:
            if not ts.has_atom(key):
                return RecheckReport(
                    False, 0, f"certificate names unknown state {key!r}"
                )
    ts.extend_to(1)
    try:
        clauses0 = [clause_term(ts, cube, 0) for cube in cert.clauses]
        clauses1 = [clause_term(ts, cube, 1) for cube in cert.clauses]
    except ValueError as err:
        # The atom *keys* all exist, but a literal's value may still be
        # outside this encoding's enum domain (e.g. a certificate from
        # another network version naming an address its slice no longer
        # carries).  That is a failed validation, not an error.
        return RecheckReport(False, 0, f"certificate vocabulary mismatch: {err}")
    checks = 0
    # (1) Initiation: the empty start satisfies every clause.
    if clauses0:
        checks += 1
        if ts.check(ts.init_units() + [Not(And(*clauses0))]) != UNSAT:
            return RecheckReport(False, checks, "initiation fails")
    for clause in clauses0:
        ts.solver.add(clause)
    # (2) Consecution: Inv is closed under one transition.
    if clauses1:
        checks += 1
        if ts.check([Not(And(*clauses1))]) != UNSAT:
            return RecheckReport(False, checks, "consecution fails")
    # (3) Property: no violating event fires from an Inv state.
    checks += 1
    if ts.check([ts.violation_prefix(invariant, 1)]) != UNSAT:
        return RecheckReport(False, checks, "property implication fails")
    return RecheckReport(
        True, checks, f"ic3 certificate valid ({len(cert.clauses)} clauses)"
    )


@dataclass
class MinimizeReport:
    """Outcome of one greedy certificate shrink pass."""

    certificate: Optional[ProofCertificate] = field(repr=False, default=None)
    clauses_before: int = 0
    clauses_after: int = 0
    literals_before: int = 0
    literals_after: int = 0
    solver_checks: int = 0
    budget_exhausted: bool = False

    @property
    def shrink_ratio(self) -> float:
        """How many times smaller the clause set got (1.0 = no shrink)."""
        if self.clauses_after == 0:
            return float(self.clauses_before) if self.clauses_before else 1.0
        return self.clauses_before / self.clauses_after

    def to_json(self) -> dict:
        return {
            "clauses_before": self.clauses_before,
            "clauses_after": self.clauses_after,
            "literals_before": self.literals_before,
            "literals_after": self.literals_after,
            "shrink_ratio": round(self.shrink_ratio, 2),
            "solver_checks": self.solver_checks,
            "budget_exhausted": self.budget_exhausted,
        }


def minimize_certificate(
    net: VerificationNetwork,
    invariant,
    cert: ProofCertificate,
    params: dict,
    ts: Optional[TransitionSystem] = None,
    max_queries: Optional[int] = None,
    max_conflicts_per_query: int = 4000,
) -> MinimizeReport:
    """Greedy drop-a-clause shrink of an IC3 certificate.

    IC3 ships its whole inductive strengthening — every clause its
    frames converged with — but the fixpoint is usually far from
    minimal.  Dropping a clause keeps *initiation* valid for free (the
    invariant only gets weaker), so each candidate drop needs exactly
    the two remaining conditions re-established: **consecution**
    (``Inv ∧ T ⊨ Inv′``, which dropping can break because the
    antecedent weakens too) and **property implication**.  A drop whose
    two queries both come back UNSAT is kept; anything else — SAT,
    or an inconclusive budgeted query — keeps the clause.

    Clauses are attempted largest-first (big cubes block the least and
    are the likeliest dead weight).  ``max_queries`` bounds the pass;
    on exhaustion the shrink so far is returned with
    ``budget_exhausted`` set.  K-induction certificates have nothing to
    drop and return unchanged.

    ``ts`` reuses a live transition system over the *same* network and
    parameters (the portfolio hands in the one its provers ran on).
    Sound because everything engine-specific in that solver is guarded
    by activation/assumption literals the queries here never set, and
    everything asserted here is guarded by activation literals of its
    own, retired before returning.  The pass talks to the solver in SAT
    literals (:meth:`TransitionSystem.cube_lits`): each clause is
    emitted once, each candidate set is a list of integers.

    The result is *not* self-certifying: callers re-validate the shrunk
    certificate with :func:`recheck_certificate` (cold solver) before
    caching or reporting it, exactly as for a fresh proof.
    """
    lits = sum(len(c) for c in cert.clauses)
    report = MinimizeReport(
        certificate=cert,
        clauses_before=len(cert.clauses),
        clauses_after=len(cert.clauses),
        literals_before=lits,
        literals_after=lits,
    )
    if cert.kind != IC3 or not cert.clauses:
        return report

    if ts is None:
        ts = TransitionSystem(
            net,
            n_packets=params["n_packets"],
            depth=1,
            failure_budget=params["failure_budget"],
            n_ports=params["n_ports"],
            n_tags=params["n_tags"],
        )
    ts.extend_to(1)
    solver = ts.solver
    violation = solver.literal(ts.violation_prefix(invariant, 1))

    kept = list(cert.clauses)
    # Each clause enters the solver once, behind two activation
    # literals: guard ``a_i -> ¬cube_i`` over the state at time 0 and
    # indicator ``b_i -> cube_i`` over the state at time 1.  A candidate
    # set is then a list of integers — nothing is encoded per query.
    guards: List[int] = []
    indicators: List[int] = []
    for cube in kept:
        guard, indicator = solver.new_literal(), solver.new_literal()
        solver.add_clause([-guard] + [-lit for lit in ts.cube_lits(cube, 0)])
        for lit in ts.cube_lits(cube, 1):
            solver.add_clause([-indicator, lit])
        guards.append(guard)
        indicators.append(indicator)
    # Largest cubes first; index tie-break keeps the pass deterministic.
    order = sorted(range(len(kept)), key=lambda i: (-len(kept[i]), i))
    dropped = set()

    def survives_without(skip: int) -> Optional[bool]:
        """Whether the certificate minus clause ``skip`` still proves
        the property (None = a query budget ran out: inconclusive)."""
        active = [
            i for i in range(len(kept)) if i != skip and i not in dropped
        ]
        now = [guards[i] for i in active]
        if active:
            # Some active cube holds after one step: ¬Inv' as one
            # clause over the indicators, alive for this query only.
            report.solver_checks += 1
            status = ts.check(
                now,
                max_conflicts=max_conflicts_per_query,
                clause=[indicators[i] for i in active],
            )
            if status != UNSAT:
                return None if status != SAT else False
        report.solver_checks += 1
        status = ts.check(
            now + [violation], max_conflicts=max_conflicts_per_query
        )
        if status != UNSAT:
            return None if status != SAT else False
        return True

    for i in order:
        if max_queries is not None and report.solver_checks >= max_queries:
            report.budget_exhausted = True
            break
        if survives_without(i):
            dropped.add(i)
    # The transition system goes back to the pool: switch the
    # certificate's clauses off for good, so the SAT core's next
    # simplification collects them.
    for lit in guards + indicators:
        solver.add_clause([-lit])

    if dropped:
        clauses = tuple(c for i, c in enumerate(kept) if i not in dropped)
        report.certificate = ProofCertificate(kind=IC3, clauses=clauses)
        report.clauses_after = len(clauses)
        report.literals_after = sum(len(c) for c in clauses)
    return report


def recheck_certificate(
    net: VerificationNetwork, invariant, cert: ProofCertificate, params: dict
) -> RecheckReport:
    """Validate ``cert`` for ``invariant`` on ``net`` with cold solvers.

    ``params`` are the resolved BMC parameters (``n_packets``,
    ``failure_budget``, ``n_ports``, ``n_tags``) the proof ran with —
    the certificate is relative to that packet schema.  Returns a
    :class:`RecheckReport`; ``solver_checks`` is the number of solver
    queries spent, the quantity certificate *reuse* is measured by.
    """
    if params.get("failure_budget"):
        return RecheckReport(False, 0, "failure budgets have no unbounded proofs")
    try:
        if cert.kind == KINDUCTION:
            report = _recheck_kinduction(net, invariant, cert, params)
        elif cert.kind == IC3:
            report = _recheck_ic3(net, invariant, cert, params)
        else:
            return RecheckReport(False, 0, f"unknown certificate kind {cert.kind!r}")
    except KeyError as err:  # structural mismatch against the new network
        return RecheckReport(False, 0, f"certificate does not map: {err}")
    report.certificate = cert
    return report
