"""IC3/PDR over the incremental solver.

Bradley's IC3 (a.k.a. property-directed reachability), instantiated on
the free-initial-state transition system of
:mod:`repro.proof.transition`:

* **frames** ``F_1 ⊆ F_2 ⊆ …`` over-approximate the states reachable
  in at most ``i`` steps; each is a set of *blocked cubes* over the
  state vocabulary (history atoms plus rigid packet-field pins), stored
  at the highest frame where the blocking clause is known to hold;
* the **bad** predicate is the invariant's violating event fired from
  the frame's states (one transition of the shared warm unrolling,
  deeper steps pinned to noops);
* a **proof-obligation queue** drives blocking: a counterexample-to-
  induction state is extracted as a full-state cube, its predecessors
  are enumerated lowest-frame-first, and every successfully blocked
  cube is **generalized** by the solver's final-conflict unsat core
  (``analyzeFinal``): only the literals the UNSAT proof actually used
  survive, re-anchored by a positive history literal so the clause
  keeps excluding the empty initial state;
* **clause pushing** promotes clauses whose consecution holds one
  frame further after each round; when a frame empties, the clauses
  above it form an inductive invariant, returned as an
  :class:`repro.proof.certificate.ProofCertificate` for independent
  re-checking.

Every query is an assumption call on the shared warm solver, in SAT
literals end to end: cubes go through the transition system's compiled
vocabulary (:meth:`TransitionSystem.cube_lits`), a frame clause is
**one** SAT clause guarded by its level's activation literal, a query
"against F_i" assumes the selectors of levels ``>= i`` plus the cube's
next-state image, the cube's negation rides along as a clause that
lives for that query only, and a model comes back as a cube straight
from the model bytes.  The engine builds, interns and encodes no term
after construction, so a search leaves behind exactly the clauses it
stored — not one Tseitin definition per cube per query, which is what
used to pile up in the pooled solver the next invariant inherits.
Learned clauses — selector-tagged or not — persist for the whole run:
the incremental-SAT usage pattern IC3 was designed around.

A counterexample answer is *advisory* here: cubes pin the rigid packet
fields but not the oracle choices, so a trace through the abstraction
may not be schedulable; the portfolio driver confirms real violations
with the BMC engine, which is complete for bug finding.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from ..obs import get_registry
from ..smt import SAT, UNSAT
from .certificate import ProofCertificate
from .kinduction import CEX, HOLDS, STALLED, EngineOutcome
from .transition import Cube, TransitionSystem, is_history_lit

__all__ = ["IC3Engine"]


class IC3Engine:
    """Property-directed reachability over one warm transition system."""

    name = "ic3"

    def __init__(
        self,
        ts: TransitionSystem,
        invariant,
        max_frames: Optional[int] = None,
    ):
        self.ts = ts
        self.invariant = invariant
        ts.extend_to(1)
        # frames[i] = cubes whose blocking clause is established for
        # F_1..F_i and stored here (frames[0] is the concrete Init);
        # dicts as insertion-ordered sets.
        self.frames: List[Dict[Cube, None]] = [{}, {}]
        self.N = 1
        # A simple path cannot revisit a state (atoms only accrete), so
        # the atom count bounds the frames any proof can need.
        self.max_frames = (
            len(ts.atoms) + 2 if max_frames is None else max_frames
        )
        self.outcome: Optional[EngineOutcome] = None
        self._obligations: List[Tuple[int, int, Cube]] = []
        self._seq = itertools.count()
        # Everything a query assumes, as SAT literals, encoded here once.
        literal = ts.solver.literal
        self._noops = [literal(noop) for noop in ts.noop_assumptions(1)]
        self._bad = literal(ts.violation_prefix(invariant, 1))
        self._init_units = [ts.lit_at((key, False), 0) for key in ts.atoms]
        # Frame clauses are asserted once, permanently, guarded by a
        # per-level activation literal (selector → clause); a query
        # "against F_i" just assumes the selectors of levels >= i.
        # This is the incremental-SAT shape IC3 is built around: no
        # clause is ever re-asserted, and learned clauses that resolve
        # through a frame clause carry its selector and keep working
        # for every later query that assumes it.
        self._selectors: List[int] = [0]  # F0 unused

    # ------------------------------------------------------------------
    # Query plumbing
    # ------------------------------------------------------------------
    def _clauses_at(self, level: int) -> List[Cube]:
        return [
            cube
            for j in range(level, len(self.frames))
            for cube in self.frames[j]
        ]

    def _selector(self, level: int) -> int:
        while len(self._selectors) <= level:
            self._selectors.append(self.ts.solver.new_literal())
        return self._selectors[level]

    def _store_clause(self, level: int, cube: Cube) -> None:
        """Record ``¬cube`` at ``level``: bookkeeping for certificates
        and propagation, plus the selector-guarded solver clause.
        (A clause promoted upward is simply re-guarded by the higher
        selector; the stale lower-level copy is subsumed, never wrong.)
        """
        if cube in self.frames[level]:
            return
        self.frames[level][cube] = None
        clause = [-self._selector(level)]
        clause.extend(-lit for lit in self.ts.cube_lits(cube, 0))
        self.ts.solver.add_clause(clause)

    def _query(
        self,
        level: int,
        assumptions: List[int],
        max_conflicts: Optional[int],
        clause: Optional[List[int]] = None,
    ):
        """SAT query against frame ``level`` (0 = the concrete Init),
        with ``clause`` holding for this query only.

        Returns ``(result, payload)``: the full-state cube of the model
        on ``sat``, the failed assumption literals on ``unsat``.
        """
        ts = self.ts
        if level == 0:
            context = self._init_units
        else:
            context = [
                self._selector(j) for j in range(level, len(self.frames))
            ]
        result = ts.check(
            context + assumptions + self._noops,
            max_conflicts=max_conflicts,
            clause=clause,
        )
        if result == SAT:
            return result, ts.state_cube(ts.solver.model())
        if result == UNSAT:
            return result, ts.solver.unsat_core()
        return result, None

    def _consecution(self, level: int, cube: Cube,
                     max_conflicts: Optional[int]):
        """Is ``cube`` unreachable in one step from ``F_level ∧ ¬cube``?
        ``(result, payload, primed)``: :meth:`_query`'s answer plus the
        cube's next-state literals, position by position."""
        ts = self.ts
        primed = ts.cube_lits(cube, 1)
        result, payload = self._query(
            level,
            primed,
            max_conflicts,
            clause=[-lit for lit in ts.cube_lits(cube, 0)],
        )
        return result, payload, primed

    # ------------------------------------------------------------------
    # Blocking
    # ------------------------------------------------------------------
    @staticmethod
    def _touches_init(cube: Cube) -> bool:
        """True when no literal separates the cube from the empty
        initial state (rigid pins never do — Init allows any fields)."""
        return not any(is_history_lit(lit) for lit in cube)

    def _generalize(self, cube: Cube, core: List[int],
                    primed: List[int]) -> Cube:
        """Keep only the literals the UNSAT proof used (``primed[i]``
        is what the query assumed for ``cube[i]``), re-anchored so the
        clause still excludes the initial state."""
        used = set(core)
        kept = tuple(lit for lit, code in zip(cube, primed) if code in used)
        if self._touches_init(kept):
            anchor = next(lit for lit in cube if is_history_lit(lit))
            kept = kept + (anchor,)
        return kept

    def _attempt_block(
        self, level: int, cube: Cube, max_conflicts: Optional[int]
    ) -> Optional[Cube]:
        """Re-run the consecution query for a candidate cube; on
        success return it, core-trimmed further.  ``None`` = not
        blockable (or budget ran out)."""
        result, payload, primed = self._consecution(
            level - 1, cube, max_conflicts
        )
        if result != UNSAT:
            return None
        return self._generalize(cube, payload, primed)

    def _shrink(
        self, level: int, cube: Cube, max_conflicts: Optional[int]
    ) -> Cube:
        """Drop rigid field pins the block does not actually need.

        Unsat cores alone tend to keep one incidental field value per
        cube, splintering a structural fact ("the firewall never
        forwarded packet 0") into one clause per port/tag combination.
        Each candidate drop is certified by its own consecution query,
        so this only ever widens a clause the solver has proven."""
        fields = [lit for lit in cube if lit[0][0] == "field"]
        if not fields:
            return cube
        # Cheapest first: most blocks are purely structural.
        bare = tuple(lit for lit in cube if lit[0][0] != "field")
        if bare and not self._touches_init(bare):
            widened = self._attempt_block(level, bare, max_conflicts)
            if widened is not None:
                return widened
        for lit in fields:
            if lit not in cube:
                continue  # an earlier drop's core already removed it
            candidate = tuple(other for other in cube if other != lit)
            widened = self._attempt_block(level, candidate, max_conflicts)
            if widened is not None:
                cube = widened
        return cube

    def _enqueue(self, level: int, cube: Cube) -> None:
        heapq.heappush(self._obligations, (level, next(self._seq), cube))

    def _process_obligation(self, max_conflicts: Optional[int]) -> bool:
        """Handle the lowest-frame obligation; False when the budget ran
        out (the obligation stays queued)."""
        level, seq, cube = self._obligations[0]
        if level == 0 or self._touches_init(cube):
            self.outcome = EngineOutcome(
                status=CEX,
                reason=f"abstract counterexample within {self.N} steps",
            )
            return True
        result, payload, primed = self._consecution(
            level - 1, cube, max_conflicts
        )
        if result == UNSAT:
            heapq.heappop(self._obligations)
            blocked = self._generalize(cube, payload, primed)
            blocked = self._shrink(level, blocked, max_conflicts)
            self._store_clause(level, blocked)
            if level < self.N:
                # Chase the cube at the next frame too: keeps the
                # frontier honest without waiting for a new bad state.
                self._enqueue(level + 1, cube)
            return True
        if result == SAT:
            self._enqueue(level - 1, payload)
            return True
        return False  # budget exhausted

    # ------------------------------------------------------------------
    # Propagation / convergence
    # ------------------------------------------------------------------
    def _propagate(self, max_conflicts: Optional[int]) -> bool:
        """One clause-pushing sweep; False when the budget ran out."""
        ts = self.ts
        for i in range(1, self.N):
            for cube in list(self.frames[i]):
                result, _ = self._query(
                    i, ts.cube_lits(cube, 1), max_conflicts
                )
                if result == UNSAT:
                    del self.frames[i][cube]
                    self._store_clause(i + 1, cube)
                    get_registry().counter(
                        "repro_ic3_clause_pushes_total",
                        "IC3 blocking clauses pushed to a higher frame",
                    ).inc()
                elif result != SAT:
                    return False
            if not self.frames[i]:
                invariant_clauses = tuple(self._clauses_at(i + 1))
                self.outcome = EngineOutcome(
                    status=HOLDS,
                    certificate=ProofCertificate(
                        kind="ic3", clauses=invariant_clauses
                    ),
                    reason=(
                        f"inductive invariant with "
                        f"{len(invariant_clauses)} clauses at frame {i + 1}"
                    ),
                )
                return True
        return True

    def retire(self) -> None:
        """Switch every frame clause off for good (the engine is done):
        the shared solver's next simplification collects them, so the
        next invariant on this transition system starts clean."""
        for selector in self._selectors[1:]:
            self.ts.solver.add_clause([-selector])
        del self._selectors[1:]

    # ------------------------------------------------------------------
    def step(
        self,
        max_conflicts: Optional[int] = None,
        max_queries: int = 64,
    ) -> Optional[EngineOutcome]:
        """Advance the search by a bounded slice of work.

        Returns the final outcome once reached, else ``None``.  The
        slice ends after ``max_conflicts`` conflicts or ``max_queries``
        solver queries, whichever first — IC3 queries are often
        conflict-free, so the query cap is what keeps a turn short and
        the portfolio's round-robin responsive.  The engine parks
        mid-search and resumes warm on the next call.
        """
        if self.outcome is not None:
            return self.outcome
        spent_from = self.ts.counters()["conflicts"]
        queries_from = self.ts.checks

        def remaining() -> Optional[int]:
            if max_conflicts is None:
                return None
            return max(0, max_conflicts - (self.ts.counters()["conflicts"] - spent_from))

        def exhausted() -> bool:
            if self.ts.checks - queries_from >= max_queries:
                return True
            budget = remaining()
            return budget is not None and budget <= 0

        while self.outcome is None and not exhausted():
            if self._obligations:
                if not self._process_obligation(remaining()):
                    break
                continue
            result, payload = self._query(self.N, [self._bad], remaining())
            if result == SAT:
                self._enqueue(self.N, payload)
            elif result == UNSAT:
                if not self._propagate(remaining()):
                    break
                if self.outcome is None:
                    self.N += 1
                    self.frames.append({})
                    registry = get_registry()
                    registry.counter(
                        "repro_ic3_frame_extensions_total",
                        "new IC3 frames opened",
                    ).inc()
                    registry.gauge(
                        "repro_ic3_frames", "current IC3 frame count"
                    ).set(self.N)
                    if self.N > self.max_frames:
                        self.outcome = EngineOutcome(
                            status=STALLED,
                            reason=f"no convergence within {self.max_frames} frames",
                        )
            else:
                break
        return self.outcome
