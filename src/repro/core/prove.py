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
cross-check contract).

:func:`prove` returns a :class:`ProofResult` recording the verdict, the
strength of its guarantee, the engine that established it, and the
certificate (with its re-check outcome) when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines.explicit import explicit_verdict
from ..netmodel.bmc import HOLDS, VIOLATED, CheckResult
from ..netmodel.system import VerificationNetwork
from ..proof.certificate import ProofCertificate, RecheckReport
from ..proof.portfolio import BOUNDED, UNBOUNDED, prove_portfolio
from .invariants import Invariant

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


def prove(
    net: VerificationNetwork,
    invariant: Invariant,
    n_ports: int = 4,
    solver_pool=None,
    **bmc_kwargs,
) -> ProofResult:
    """BMC verdict, upgraded to an unbounded proof when possible.

    Runs the k-induction + IC3 + BMC portfolio of :mod:`repro.proof`,
    with the explicit fixpoint as consistency oracle.  ``solver_pool`` (a
    :class:`repro.netmodel.bmc.SolverPool`) lets a caller proving
    several invariants on the same network keep one warm solver (and
    one warm transition system) per encoding across ``prove`` calls.
    """
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
        # fixpoint enumeration.
        return ProofResult(
            status=VIOLATED, guarantee=UNBOUNDED, bmc=bmc, engine=pr.engine,
            note=pr.note,
        )
    explicit = explicit_verdict(net, invariant, n_ports)
    if explicit is True:
        # The consistency oracle contradicts a holds/unknown verdict:
        # surface the violation.
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
        # The portfolio stalled but the fixpoint fragment applies: its
        # upgrade still holds (schedule-independent argument).
        return ProofResult(
            status=HOLDS, guarantee=UNBOUNDED, bmc=bmc, explicit_agrees=True,
            engine="explicit",
            note="confirmed by schedule-independent fixpoint; " + pr.note,
        )
    return ProofResult(
        status=pr.status, guarantee=BOUNDED, bmc=bmc,
        explicit_agrees=agrees, engine=pr.engine, note=pr.note,
    )
