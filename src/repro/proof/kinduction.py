"""k-induction with simple-path strengthening.

The classic Sheeran–Singh–Stålmarck recipe, re-grounded on the event
encoding: the property "no violating event, ever" is ``k``-inductive
when

* **base**: no violating schedule of length ``≤ k`` exists from the
  real (empty) start — exactly the warm BMC driver's depth-``k``
  question, so the portfolio shares one :class:`IncrementalBMC`
  between bug hunting and base cases; and
* **step**: no schedule of ``k+1`` events from an *arbitrary
  consistent state* (see
  :meth:`repro.proof.transition.TransitionSystem.consistency_axioms`)
  keeps the property clean for ``k`` steps and violates it at step
  ``k``.

The step query is strengthened with **simple-path** constraints: the
``k+1`` states along the unrolling must be pairwise distinct.  State
atoms only ever accrete (history predicates are monotone in the
steady state), so a simple path cannot be longer than the atom count —
the iteration is complete, not just sound, given a large enough
``max_k``.  In practice small ``k`` already discharges the invariants
whose slices simply contain no delivery path, and IC3 covers the rest;
``max_k`` caps the quadratic growth of the distinctness constraints.

All queries run as *assumptions* on the shared warm transition system,
so walking ``k`` upward never re-encodes a prefix and learned clauses
carry over — the same incremental-SAT usage pattern the BMC driver
established.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..obs import get_registry
from ..smt import UNSAT, SAT
from .certificate import ProofCertificate
from .transition import TransitionSystem

__all__ = ["KInductionEngine"]


@dataclass
class EngineOutcome:
    """What one engine concluded (``status`` in holds/cex/stalled)."""

    status: str
    certificate: Optional[ProofCertificate] = None
    reason: str = ""


HOLDS = "holds"
CEX = "cex"
STALLED = "stalled"


class KInductionEngine:
    """Iterative k-induction over one warm transition system.

    ``base_clean`` reports the deepest depth the base case is known
    clean to (the portfolio wires it to its BMC engine's progress); a
    step-query success at ``k`` only concludes once the base has
    caught up, so the engine can be interleaved with the bug hunt.
    """

    name = "kinduction"

    def __init__(
        self,
        ts: TransitionSystem,
        invariant,
        max_k: Optional[int] = None,
        base_clean: Optional[Callable[[], int]] = None,
    ):
        self.ts = ts
        self.invariant = invariant
        ceiling = ts.model_depth - 1  # step k needs k+1 unrolled events
        self.max_k = ceiling if max_k is None else min(max_k, ceiling)
        self.base_clean = base_clean if base_clean is not None else (lambda: 0)
        self.k = 0
        self.pending_k: Optional[int] = None  # step passed, base not caught up
        self.outcome: Optional[EngineOutcome] = None
        # SAT literals, encoded once: the simple-path constraint per
        # pair of steps, and the whole assumption list per depth (a
        # budgeted step query is retried warm with the same list).
        self._distinct: Dict[tuple, int] = {}
        self._assumed: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def _assumptions(self, k: int) -> List[int]:
        out = self._assumed.get(k)
        if out is not None:
            return out
        ts = self.ts
        literal = ts.solver.literal
        out = self._assumed[k] = [
            literal(ts.violation_prefix(self.invariant, k + 1))
        ]
        if k > 0:
            out.append(-literal(ts.violation_prefix(self.invariant, k)))
        for t1 in range(k + 1):
            for t2 in range(t1 + 1, k + 1):
                key = (t1, t2)
                if key not in self._distinct:
                    self._distinct[key] = literal(ts.distinct_states(t1, t2))
                out.append(self._distinct[key])
        out.extend(map(literal, ts.noop_assumptions(k + 1)))
        return out

    def _conclude(self, k: int) -> EngineOutcome:
        self.outcome = EngineOutcome(
            status=HOLDS,
            certificate=ProofCertificate(kind="kinduction", k=k),
            reason=f"{k}-inductive (simple-path)",
        )
        return self.outcome

    # ------------------------------------------------------------------
    def step(self, max_conflicts: Optional[int] = None) -> Optional[EngineOutcome]:
        """Advance one induction depth (or settle a pending base case).

        Returns the final outcome once reached, else ``None`` (call
        again).  A ``max_conflicts`` budget may leave the current ``k``
        unresolved; the warm solver resumes it on the next call.
        """
        if self.outcome is not None:
            return self.outcome
        if self.pending_k is not None:
            # Step case proven; wait for the bug hunt to certify the base.
            if self.base_clean() >= self.pending_k:
                return self._conclude(self.pending_k)
            return None
        if self.k > self.max_k:
            self.outcome = EngineOutcome(
                status=STALLED, reason=f"not k-inductive for k<={self.max_k}"
            )
            return self.outcome
        k = self.k
        ts = self.ts
        ts.extend_to(k + 1)
        result = ts.check(self._assumptions(k), max_conflicts=max_conflicts)
        if result == UNSAT:
            if k == 0 or self.base_clean() >= k:
                return self._conclude(k)
            self.pending_k = k
            return None
        if result == SAT:
            self.k += 1  # counterexample-to-induction: deepen
            get_registry().counter(
                "repro_kinduction_deepenings_total",
                "k-induction counterexamples-to-induction (k increments)",
            ).inc()
        return None  # unknown: budget exhausted, retry this k warm
