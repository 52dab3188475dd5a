"""The proof portfolio: BMC for bugs, k-induction and IC3 for proofs.

Bounded model checking is complete for *finding* violations but can
only ever bound a ``holds``; the induction engines prove ``holds``
outright but cannot exhibit schedules.  :func:`prove_portfolio` runs
all three concurrently — cooperative round-robin over one thread,
each engine advancing a chunk of work per turn under a **shared
conflict budget** — and stops at the first conclusive answer:

* the BMC engine walks depths on the warm per-shape
  :class:`repro.netmodel.bmc.IncrementalBMC` (leased from the caller's
  :class:`repro.netmodel.bmc.SolverPool` when given, so the bug hunt
  reuses the audit's learned clauses); a violation is final — a
  counterexample schedule is an unbounded verdict by itself;
* k-induction and IC3 share one warm
  :class:`repro.proof.transition.TransitionSystem` (pooled under a
  derived key); a proof is only trusted after
  :func:`repro.proof.certificate.recheck_certificate` validates the
  certificate on an independent cold solver — a failed re-check
  demotes the engine to *stalled* and the portfolio keeps going;
* either may have been built for another slice of the same shape
  (:func:`repro.netmodel.bmc.lease`): search and minimisation then run
  in the driver's names, and trace and certificate are renamed out
  before the cold re-check — on this check's *own* network, so it is
  the independent check of the renaming too;
* when every prover stalls and BMC exhausts the structural depth
  clean, the verdict stays ``holds`` with a **bounded** guarantee and
  the limiting engines' reasons in the note.

:func:`prove_check` wraps the portfolio as a
:class:`repro.netmodel.bmc.CheckResult`, with the guarantee strength,
engine, certificate and re-check outcome riding in ``stats`` — that is
what the batch engine's ``prove`` mode, the result cache, audit rows
and the incremental session consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..netmodel.bmc import (
    HOLDS,
    SOLVER_COUNTERS,
    UNKNOWN,
    VIOLATED,
    CheckResult,
    IncrementalBMC,
    SolverPool,
    check,
    default_depth,
    encoding_key,
    lease,
)
from ..netmodel.system import VerificationNetwork
from ..netmodel.trace import Trace
from ..obs import get_registry, get_tracer
from ..smt import SAT, UNSAT
from .certificate import (
    MinimizeReport,
    ProofCertificate,
    RecheckReport,
    minimize_certificate,
    recheck_certificate,
)
from .ic3 import IC3Engine
from .kinduction import CEX, EngineOutcome, KInductionEngine
from .kinduction import HOLDS as ENGINE_HOLDS
from .transition import TransitionSystem

__all__ = [
    "UNBOUNDED",
    "BOUNDED",
    "PortfolioResult",
    "prove_portfolio",
    "prove_check",
]

UNBOUNDED = "unbounded"
BOUNDED = "bounded"

_COUNTER_KEYS = SOLVER_COUNTERS


@dataclass
class PortfolioResult:
    """Verdict, guarantee strength, and the artifacts backing them."""

    status: str  # "holds" / "violated" / "unknown"
    guarantee: str  # UNBOUNDED or BOUNDED
    engine: str  # which engine concluded ("bmc"/"kinduction"/"ic3")
    note: str
    depth: int
    n_packets: int
    trace: Optional[Trace] = None
    certificate: Optional[ProofCertificate] = None
    recheck: Optional[RecheckReport] = None
    minimize: Optional[MinimizeReport] = None
    solve_seconds: float = 0.0
    solver_checks: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED


class _BMCEngine:
    """Depth-walking bug hunt on the warm incremental BMC driver."""

    name = "bmc"

    def __init__(self, driver: IncrementalBMC, invariant, target_depth: int,
                 canonical_trace: bool = False):
        self.driver = driver
        self.invariant = invariant
        self.target = min(target_depth, driver.model_depth)
        self.canonical_trace = canonical_trace
        self.clean = 0  # deepest depth known violation-free
        self.cex_depth: Optional[int] = None
        self.trace: Optional[Trace] = None
        self.outcome: Optional[EngineOutcome] = None

    def request_depth(self, k: int) -> None:
        """Extend the walk (k-induction base cases may need deeper
        clean prefixes than the bug hunt has reached)."""
        k = min(k, self.driver.model_depth)
        if k > self.target:
            self.target = k
            if self.outcome is not None and self.outcome.status == "exhausted":
                self.outcome = None

    def step(self, max_conflicts: Optional[int] = None) -> Optional[EngineOutcome]:
        if self.outcome is not None:
            return self.outcome
        spent_from = self.driver.counters()["conflicts"]
        while True:
            budget = None
            if max_conflicts is not None:
                used = self.driver.counters()["conflicts"] - spent_from
                budget = max(0, max_conflicts - used)
                if budget == 0 and self.clean < self.target:
                    return None
            k = self.clean + 1
            result = self.driver.check_at(self.invariant, k, max_conflicts=budget)
            if result == SAT:
                self.cex_depth = k
                self.trace = (
                    self.driver.canonical_trace(self.invariant, k, presolved=True)
                    if self.canonical_trace
                    else self.driver.decode()
                )
                self.outcome = EngineOutcome(
                    status=VIOLATED, reason=f"counterexample at depth {k}"
                )
                return self.outcome
            if result != UNSAT:
                return None  # budget exhausted mid-depth; resume warm
            self.clean = k
            if self.clean >= self.target:
                self.outcome = EngineOutcome(
                    status="exhausted",
                    reason=f"no violation within depth {self.target}",
                )
                return self.outcome


def _resolve(net: VerificationNetwork, invariant, depth, n_packets,
             failure_budget) -> tuple:
    if n_packets is None:
        n_packets = getattr(invariant, "n_packets_hint", 2)
    if failure_budget is None:
        failure_budget = getattr(invariant, "failure_budget", 0)
    if depth is None:
        depth = default_depth(net, n_packets, failure_budget)
    return depth, n_packets, failure_budget


def prove_portfolio(net: VerificationNetwork, invariant, *args, **kwargs
                    ) -> PortfolioResult:
    """Decide ``invariant`` on ``net`` with an unbounded-proof attempt.

    ``max_conflicts`` is the *shared* conflict budget across all three
    engines (``None`` = run to completion); ``max_checks`` additionally
    caps the total solver queries — induction queries are often
    conflict-free, so this is the bound that reliably limits wall
    clock (tested between queries and wired into each engine's turn, so
    a run may overshoot the cap by at most a few queries).
    ``chunk_conflicts`` is the slice each engine advances by per
    round-robin turn.  ``warm`` /
    ``warm_key`` plug into the caller's solver pool exactly like
    :func:`repro.netmodel.bmc.check`, keeping both the BMC driver and
    the transition system warm across invariants and versions.

    ``minimize`` shrinks IC3 certificates with the greedy
    drop-a-clause pass (:func:`repro.proof.certificate.minimize_certificate`)
    *before* the verdict leaves the portfolio — so the result cache,
    the incremental session's certificate store, and repair results all
    carry the small certificate.  The shrunk set is only trusted after
    its own cold re-check; on failure the original certificate stands.

    See :func:`_prove_portfolio` for the full parameter list; this
    wrapper adds the ``prove`` root span and verdict counters when
    observability is enabled.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _prove_portfolio(net, invariant, *args, **kwargs)
    with tracer.span(
        "prove", cat="proof", invariant=type(invariant).__name__
    ) as span:
        result = _prove_portfolio(net, invariant, *args, **kwargs)
        span.tag(
            status=result.status,
            guarantee=result.guarantee,
            engine=result.engine,
            depth=result.depth,
            shared=result.stats.get("shared", False),
        )
    get_registry().counter(
        "repro_proof_verdicts_total",
        "portfolio verdicts by engine, status, and guarantee strength",
    ).inc(engine=result.engine, status=result.status, guarantee=result.guarantee)
    return result


def _prove_portfolio(
    net: VerificationNetwork,
    invariant,
    depth: Optional[int] = None,
    n_packets: Optional[int] = None,
    failure_budget: Optional[int] = None,
    n_ports: int = 6,
    n_tags: int = 4,
    max_conflicts: Optional[int] = None,
    max_checks: Optional[int] = None,
    chunk_conflicts: int = 2000,
    max_k: int = 4,
    warm: Optional[SolverPool] = None,
    warm_key: Optional[str] = None,
    recheck: bool = True,
    minimize: bool = True,
    canonical_trace: bool = False,
) -> PortfolioResult:
    """The portfolio round-robin itself (see :func:`prove_portfolio`)."""
    started = time.perf_counter()
    tracer = get_tracer()
    registry = get_registry()
    depth, n_packets, failure_budget = _resolve(
        net, invariant, depth, n_packets, failure_budget
    )
    params = {
        "n_packets": n_packets,
        "failure_budget": failure_budget,
        "n_ports": n_ports,
        "n_tags": n_tags,
    }

    if failure_budget > 0:
        # The failure budget is a bounded-schedule notion (at-most-k
        # failure events per unrolling); the induction engines have no
        # steady state to reason from.  Fall back to plain BMC.
        bmc = check(
            net, invariant, depth=depth, max_conflicts=max_conflicts,
            warm=warm, warm_key=warm_key, canonical_trace=canonical_trace,
            **params,
        )
        return PortfolioResult(
            status=bmc.status,
            guarantee=UNBOUNDED if bmc.status == VIOLATED else BOUNDED,
            engine="bmc",
            note=(
                "counterexample schedule"
                if bmc.status == VIOLATED
                else "failure budgets have no unbounded engines "
                     f"(bounded to depth {bmc.depth})"
            ),
            depth=bmc.depth,
            n_packets=n_packets,
            trace=bmc.trace,
            solve_seconds=bmc.solve_seconds,
            solver_checks=bmc.stats.get("checks", 0),
            stats=dict(bmc.stats),
        )

    # ------------------------------------------------------------------
    # Warm engines (pooled per encoding when a pool is supplied).
    # ------------------------------------------------------------------
    if warm is not None and warm_key is None:
        warm_key = encoding_key(net, params)

    def build_bmc() -> IncrementalBMC:
        return IncrementalBMC(net, depth=depth, **params)

    ts_depth = max_k + 1

    def build_ts() -> TransitionSystem:
        return TransitionSystem(net, depth=ts_depth, **params)

    held = lease(warm, warm_key, net, invariant, depth, build_bmc)
    held_ts = lease(
        warm, warm_key and warm_key + "|transition", net, invariant,
        ts_depth, build_ts,
    )
    driver, bmc_warm = held.driver, held.warm
    ts, ts_warm = held_ts.driver, held_ts.warm

    counters_before = {
        k: driver.counters()[k] + ts.counters()[k] for k in _COUNTER_KEYS
    }
    checks_before = driver.checks + ts.checks

    bmc_engine = _BMCEngine(driver, held.invariant, depth, canonical_trace)
    kind_engine = KInductionEngine(
        ts, held_ts.invariant, max_k=max_k, base_clean=lambda: bmc_engine.clean
    )
    ic3_engine = IC3Engine(ts, held_ts.invariant)
    provers = [kind_engine, ic3_engine]

    def spent() -> int:
        now = {k: driver.counters()[k] + ts.counters()[k] for k in _COUNTER_KEYS}
        return now["conflicts"] - counters_before["conflicts"]

    def chunk() -> Optional[int]:
        if max_conflicts is None:
            return chunk_conflicts
        return max(0, min(chunk_conflicts, max_conflicts - spent()))

    winner: Optional[tuple] = None  # (engine_name, EngineOutcome)
    winner_cert: Optional[ProofCertificate] = None
    stalled: dict = {}
    budget_out = False
    recheck_report: Optional[RecheckReport] = None
    minimize_report: Optional[MinimizeReport] = None

    def spent_checks() -> int:
        return driver.checks + ts.checks - checks_before

    tagged = [checks_before, ts.temp_clauses]  # queries / clauses reported

    def tag_queries(span) -> None:
        """What the solvers were asked since the last tagged span (every
        query is inside one), and how: queries issued, how many carried
        a single-query clause, the compiled state vocabulary's size."""
        queries, temp_clauses = driver.checks + ts.checks, ts.temp_clauses
        issued = temp_clauses - tagged[1]
        span.tag(queries=queries - tagged[0], temp_clauses=issued,
                 vocab_lits=ts.vocab_lits)
        tagged[:] = queries, temp_clauses
        if issued:
            registry.counter(
                "repro_proof_temp_clauses_total",
                "single-query clauses (activation literal, retired after "
                "the query) issued by the proof engines",
            ).inc(issued)

    def turn_queries() -> int:
        # Per-turn query allowance, clamped so an engine's turn cannot
        # blow far past the shared cap (the cap is still only tested
        # between queries, so a turn may overshoot by a few).
        if max_checks is None:
            return 64
        return max(1, min(64, max_checks - spent_checks()))

    while winner is None:
        if max_conflicts is not None and spent() >= max_conflicts:
            budget_out = True
            break
        if max_checks is not None and spent_checks() >= max_checks:
            budget_out = True
            break
        with tracer.span("engine-round", cat="proof", engine="bmc") as rspan:
            bmc_outcome = bmc_engine.step(chunk())
            rspan.tag(clean=bmc_engine.clean)
            tag_queries(rspan)
        registry.counter(
            "repro_proof_rounds_total", "portfolio round-robin turns per engine"
        ).inc(engine="bmc")
        if bmc_outcome is not None and bmc_outcome.status == VIOLATED:
            winner = ("bmc", bmc_outcome)
            break
        for prover in list(provers):
            with tracer.span(
                "engine-round", cat="proof", engine=prover.name
            ) as rspan:
                if isinstance(prover, IC3Engine):
                    outcome = prover.step(chunk(), max_queries=turn_queries())
                else:
                    outcome = prover.step(chunk())
                if outcome is not None:
                    rspan.tag(outcome=outcome.status)
                tag_queries(rspan)
            registry.counter(
                "repro_proof_rounds_total",
                "portfolio round-robin turns per engine",
            ).inc(engine=prover.name)
            if outcome is None:
                continue
            if outcome.status == ENGINE_HOLDS:
                report = None
                own_cert = held_ts.out(outcome.certificate)
                if recheck:
                    with tracer.span(
                        "recheck", cat="proof", engine=prover.name
                    ) as cspan:
                        report = recheck_certificate(
                            net, invariant, own_cert, params
                        )
                        cspan.tag(ok=report.ok)
                    registry.counter(
                        "repro_proof_rechecks_total",
                        "independent cold certificate re-checks",
                    ).inc(engine=prover.name, ok=str(report.ok).lower())
                if report is None or report.ok:
                    winner = (prover.name, outcome)
                    winner_cert = own_cert
                    recheck_report = report
                    if minimize and winner_cert is not None \
                            and winner_cert.clauses:
                        remaining = (
                            None
                            if max_checks is None
                            else max(0, max_checks - spent_checks())
                        )
                        if remaining is None or remaining > 0:
                            with tracer.span(
                                "minimize", cat="proof", engine=prover.name
                            ) as mspan:
                                # On the pooled system, in its names.
                                shrink = minimize_certificate(
                                    ts.net, held_ts.invariant,
                                    outcome.certificate, params,
                                    ts=ts, max_queries=remaining,
                                )
                                mspan.tag(
                                    kept=len(shrink.certificate.clauses),
                                    dropped=len(winner_cert.clauses)
                                    - len(shrink.certificate.clauses),
                                )
                                tag_queries(mspan)
                            minimize_report = shrink
                            if shrink.certificate is outcome.certificate:
                                shrink.certificate = winner_cert
                            else:
                                shrunk = shrink.certificate = held_ts.out(
                                    shrink.certificate
                                )
                                with tracer.span(
                                    "recheck", cat="proof",
                                    engine=prover.name, shrunk=True,
                                ):
                                    shrunk_report = (
                                        recheck_certificate(
                                            net, invariant, shrunk, params,
                                        )
                                        if recheck
                                        else None
                                    )
                                if shrunk_report is not None:
                                    registry.counter(
                                        "repro_proof_rechecks_total",
                                        "independent cold certificate "
                                        "re-checks",
                                    ).inc(
                                        engine=prover.name,
                                        ok=str(shrunk_report.ok).lower(),
                                    )
                                if shrunk_report is None or shrunk_report.ok:
                                    winner_cert = shrunk
                                    recheck_report = shrunk_report or report
                                else:
                                    # Never ship a shrink the cold solver
                                    # rejects; the full certificate stands.
                                    minimize_report = None
                    break
                # A certificate that fails its independent re-check is
                # never trusted: demote the engine and keep going.
                stalled[prover.name] = (
                    f"certificate re-check failed ({report.reason})"
                )
                provers.remove(prover)
            else:  # stalled or advisory counterexample
                reason = outcome.reason
                if outcome.status == CEX:
                    reason += " (unconfirmed; awaiting BMC)"
                stalled[prover.name] = reason
                provers.remove(prover)
        if winner is not None:
            break
        # A proven-but-unconfirmed induction step may need a deeper
        # base case than the bug hunt targeted.
        if kind_engine.pending_k is not None:
            bmc_engine.request_depth(kind_engine.pending_k)
            if (
                kind_engine.pending_k > driver.model_depth
                and kind_engine in provers
            ):
                stalled[kind_engine.name] = (
                    f"base case k={kind_engine.pending_k} exceeds the "
                    f"bounded model depth {driver.model_depth}"
                )
                provers.remove(kind_engine)
        if not provers and bmc_engine.outcome is not None:
            break  # everyone is done or stalled

    # The transition system goes back to the pool: switch this search's
    # frame clauses off and collect everything it retired, so the next
    # invariant starts from the encoding, not from this one's leftovers.
    ic3_engine.retire()
    ts.solver.simplify()
    elapsed = time.perf_counter() - started
    counters_after = {
        k: driver.counters()[k] + ts.counters()[k] for k in _COUNTER_KEYS
    }
    stats = {k: counters_after[k] - counters_before[k] for k in _COUNTER_KEYS}
    solver_stats = driver.solver.stats()
    stats.update(
        vars=solver_stats["vars"],
        clauses=solver_stats["clauses"],
        learnts=solver_stats["learnts"],
        warm=bmc_warm,
        transition_warm=ts_warm,
        shared=bool(held.back or held_ts.back),
        checks=driver.checks + ts.checks,
        asserted_depth=driver.asserted_depth,
        encode_seconds=driver.encode_seconds + ts.encode_seconds,
        cumulative=counters_after,
    )
    solver_checks = driver.checks + ts.checks - checks_before

    def result(status, guarantee, engine, note, trace=None, certificate=None):
        return PortfolioResult(
            status=status, guarantee=guarantee, engine=engine, note=note,
            depth=(
                bmc_engine.cex_depth
                if bmc_engine.cex_depth is not None
                else depth
            ),
            n_packets=n_packets, trace=trace, certificate=certificate,
            recheck=recheck_report, minimize=minimize_report,
            solve_seconds=elapsed,
            solver_checks=solver_checks, stats=stats,
        )

    if winner is not None:
        engine_name, outcome = winner
        if outcome.status == VIOLATED:
            return result(
                VIOLATED, UNBOUNDED, engine_name, "counterexample schedule",
                trace=held.out(bmc_engine.trace),
            )
        return result(
            HOLDS, UNBOUNDED, engine_name, outcome.reason,
            certificate=winner_cert,
        )
    limits = "; ".join(f"{name}: {reason}" for name, reason in sorted(stalled.items()))
    if budget_out:
        exhausted = (
            bmc_engine.outcome is not None
            and bmc_engine.outcome.status == "exhausted"
        )
        return result(
            HOLDS if exhausted else UNKNOWN,
            BOUNDED,
            "bmc" if exhausted else "portfolio",
            f"shared portfolio budget exhausted "
            f"(conflicts={spent()}, checks={spent_checks()})"
            + (f"; {limits}" if limits else ""),
        )
    return result(
        HOLDS, BOUNDED, "bmc",
        f"no violation within depth {depth}; " + (limits or "provers inconclusive"),
    )


def prove_check(
    net: VerificationNetwork,
    invariant,
    prove: str = "portfolio",
    warm: Optional[SolverPool] = None,
    warm_key: Optional[str] = None,
    **params,
) -> CheckResult:
    """Run the portfolio and package it as a :class:`CheckResult`.

    This is the entry point the batch engine's ``prove`` mode calls in
    place of :func:`repro.netmodel.bmc.check`: the verdict, depth and
    trace land in the usual fields, while the proof artifacts ride in
    ``stats`` (``guarantee``, ``proof_engine``, ``proof_note``,
    ``certificate``, ``recheck_ok``, ``solver_checks``) — which is how
    guarantee strength flows through the :class:`ResultCache`, audit
    rows, and the incremental session unchanged.
    """
    if prove != "portfolio":
        raise ValueError(f"unknown prove mode {prove!r} (expected 'portfolio')")
    pr = prove_portfolio(net, invariant, warm=warm, warm_key=warm_key, **params)
    stats = dict(pr.stats)
    stats.update(
        guarantee=pr.guarantee,
        proof_engine=pr.engine,
        proof_note=pr.note,
        certificate=pr.certificate,
        recheck_ok=None if pr.recheck is None else pr.recheck.ok,
        recheck_checks=0 if pr.recheck is None else pr.recheck.solver_checks,
        solver_checks=pr.solver_checks,
    )
    if pr.minimize is not None:
        stats["certificate_minimized"] = pr.minimize.to_json()
    return CheckResult(
        status=pr.status,
        invariant=invariant,
        depth=pr.depth,
        n_packets=pr.n_packets,
        solve_seconds=pr.solve_seconds,
        trace=pr.trace,
        stats=stats,
    )
