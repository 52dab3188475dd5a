"""Unbounded proofs for BMC ``holds`` verdicts.

The BMC driver's ``holds`` is relative to the structural depth bound
(README, "Solver internals", *The depth bound*).  :func:`prove` upgrades
it through the unbounded proof subsystem (:mod:`repro.proof`): a
portfolio runs BMC-for-bugs alongside k-induction and IC3/PDR under a
shared conflict budget, and a prover verdict is only trusted after its
inductive certificate passes an independent cold-solver re-check.

Where the invariant falls in the boolean-oracle, failure-free fragment,
the explicit-state fixpoint of :mod:`repro.baselines.explicit` decides
reachability for *all* schedule lengths at once (monotonicity); it is
kept as a **consistency oracle**: its verdict is compared against the
portfolio's, agreement is recorded on the result, and a violation the
bounded engines missed still forces the verdict (exactly the original
cross-check contract).  ``method="explicit"`` restores the legacy
behaviour — BMC plus the fixpoint only, no induction engines.

:func:`prove` returns a :class:`ProofResult` recording the verdict, the
strength of its guarantee, the engine that established it, and the
certificate (with its re-check outcome) when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines.explicit import FixpointChecker
from ..netmodel.bmc import HOLDS, VIOLATED, CheckResult, check
from ..netmodel.system import VerificationNetwork
from ..proof.certificate import ProofCertificate, RecheckReport
from ..proof.portfolio import BOUNDED, UNBOUNDED, prove_portfolio
from .invariants import (
    CanReach,
    DataIsolation,
    FlowIsolation,
    Invariant,
    NodeIsolation,
    Traversal,
)

__all__ = ["ProofResult", "prove", "UNBOUNDED", "BOUNDED"]


@dataclass
class ProofResult:
    """A verdict plus the strength of its guarantee."""

    status: str  # "holds" / "violated" / "unknown"
    guarantee: str  # UNBOUNDED or BOUNDED
    bmc: CheckResult
    explicit_agrees: Optional[bool] = None
    note: str = ""
    engine: str = ""  # what established the verdict ("bmc"/"kinduction"/"ic3"/...)
    certificate: Optional[ProofCertificate] = None
    recheck: Optional[RecheckReport] = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED

    def __str__(self) -> str:
        return f"{self.status} ({self.guarantee}{': ' + self.note if self.note else ''})"


def _explicit_verdict(net: VerificationNetwork, invariant: Invariant,
                      n_ports: int) -> Optional[bool]:
    """True = violated, False = holds, None = not decidable explicitly."""
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


def _prove_explicit(
    net: VerificationNetwork,
    invariant: Invariant,
    n_ports: int,
    solver_pool,
    **bmc_kwargs,
) -> ProofResult:
    """The legacy engine pair: BMC plus the explicit-state fixpoint."""
    bmc = check(net, invariant, n_ports=n_ports, warm=solver_pool, **bmc_kwargs)
    if bmc.status == VIOLATED:
        # A counterexample is a proof regardless of depth.
        return ProofResult(
            status=VIOLATED, guarantee=UNBOUNDED, bmc=bmc, engine="bmc",
            note="counterexample schedule",
        )

    explicit = _explicit_verdict(net, invariant, n_ports)
    if explicit is None:
        return ProofResult(
            status=bmc.status, guarantee=BOUNDED, bmc=bmc, engine="bmc",
            note=f"depth {bmc.depth}; explicit engine not applicable",
        )
    if explicit:  # explicit sees a violation BMC missed: bound too small
        return ProofResult(
            status=VIOLATED, guarantee=UNBOUNDED, bmc=bmc,
            explicit_agrees=False, engine="explicit",
            note="explicit fixpoint found a deeper violation; "
                 "increase depth/n_packets to obtain a schedule",
        )
    return ProofResult(
        status=HOLDS, guarantee=UNBOUNDED, bmc=bmc, explicit_agrees=True,
        engine="explicit", note="confirmed by schedule-independent fixpoint",
    )


def prove(
    net: VerificationNetwork,
    invariant: Invariant,
    n_ports: int = 4,
    solver_pool=None,
    method: str = "portfolio",
    **bmc_kwargs,
) -> ProofResult:
    """BMC verdict, upgraded to an unbounded proof when possible.

    ``method="portfolio"`` (default) runs the k-induction + IC3 + BMC
    portfolio of :mod:`repro.proof`; ``method="explicit"`` restores the
    legacy explicit-fixpoint upgrade path.  ``solver_pool`` (a
    :class:`repro.netmodel.bmc.SolverPool`) lets a caller proving
    several invariants on the same network keep one warm solver (and
    one warm transition system) per encoding across ``prove`` calls.
    """
    if method == "explicit":
        return _prove_explicit(net, invariant, n_ports, solver_pool, **bmc_kwargs)
    if method != "portfolio":
        raise ValueError(f"unknown prove method {method!r}")

    pr = prove_portfolio(
        net, invariant, n_ports=n_ports, warm=solver_pool, **bmc_kwargs
    )
    bmc = CheckResult(
        status=pr.status, invariant=invariant, depth=pr.depth,
        n_packets=pr.n_packets, solve_seconds=pr.solve_seconds,
        trace=pr.trace, stats=dict(pr.stats),
    )
    if pr.status == VIOLATED:
        # A counterexample schedule is conclusive; don't pay for the
        # fixpoint enumeration (the legacy path skipped it here too).
        return ProofResult(
            status=VIOLATED, guarantee=UNBOUNDED, bmc=bmc, engine=pr.engine,
            note=pr.note,
        )
    explicit = _explicit_verdict(net, invariant, n_ports)
    if explicit is True:
        # The consistency oracle contradicts a holds/unknown verdict:
        # surface the violation exactly as the legacy path did.
        return ProofResult(
            status=VIOLATED, guarantee=UNBOUNDED, bmc=bmc,
            explicit_agrees=False, engine="explicit",
            note="explicit fixpoint found a deeper violation; "
                 "increase depth/n_packets to obtain a schedule",
        )
    agrees = None if explicit is None else (pr.status == HOLDS)
    if pr.guarantee == UNBOUNDED:
        return ProofResult(
            status=pr.status, guarantee=UNBOUNDED, bmc=bmc,
            explicit_agrees=agrees, engine=pr.engine, note=pr.note,
            certificate=pr.certificate, recheck=pr.recheck,
        )
    if explicit is False and pr.status == HOLDS:
        # The portfolio stalled but the fixpoint fragment applies: the
        # legacy upgrade still holds (schedule-independent argument).
        return ProofResult(
            status=HOLDS, guarantee=UNBOUNDED, bmc=bmc, explicit_agrees=True,
            engine="explicit",
            note="confirmed by schedule-independent fixpoint; " + pr.note,
        )
    return ProofResult(
        status=pr.status, guarantee=BOUNDED, bmc=bmc,
        explicit_agrees=agrees, engine=pr.engine, note=pr.note,
    )
