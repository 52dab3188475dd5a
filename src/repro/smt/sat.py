"""A CDCL SAT solver over an int-encoded clause arena.

This is the propositional core of the SMT substrate that replaces Z3 in
this reproduction (Z3 is unavailable offline).  It is a conventional
conflict-driven clause-learning solver, rewritten for raw single-core
speed — every subsystem (slicing, warm BMC, the k-induction/IC3
portfolio, CEGIS repair screening) bottoms out in this loop:

* **clause arena** — all clauses live in one flat Python list of ints;
  a clause reference is the index of its first literal, the word before
  it packs ``size << 1 | learnt``.  No clause objects, no attribute
  dispatch on the hot path;
* **two-watched-literal propagation** with *blocker literals*: watch
  entries are ``(cref, blocker)`` pairs, and a satisfied blocker skips
  the clause without touching the arena at all;
* **dedicated binary-clause watch lists** (``(other, cref)`` pairs):
  two-literal clauses — the bulk of a Tseitin encoding — propagate with
  a single per-literal value lookup and never move watches;
* **per-literal value array** (``lvals[lit]`` is 1/0/-1 for
  true/false/unassigned), so truth tests are one index instead of a
  shift-and-xor on a per-variable array;
* first-UIP conflict analysis with recursive clause minimisation over a
  persistent ``seen`` byte array (no per-conflict allocation) and
  abstract-level pruning;
* VSIDS branching (lazy heap) with phase saving, Luby restarts,
  activity-driven learned-clause database reduction;
* incremental solving under assumptions (MiniSat-style
  ``solve(assumps)``) with complete failed-assumption cores;
* **budget-capped inprocessing** between incremental calls: clauses
  satisfied at level 0 are dropped, false literals are stripped, and a
  forward pass of subsumption + self-subsuming resolution shrinks the
  permanent clause database retained across calls (see
  :meth:`SatSolver._simplify`).

Every clause is permanent.  A caller that wants one back guards it:
allocate a fresh variable ``g``, add ``C ∨ ¬g``, assume ``g`` while the
clause should be in force, and retire it with the unit ``¬g``
(:meth:`SatSolver.simplify` then collects what the unit satisfied).
``g`` occurs in clauses only negatively, so every resolvent of a
guarded clause — learned or produced by inprocessing — still carries
``¬g`` and dies with the guard; clauses learned without it survive and
keep pruning later calls.

Literal encoding: variable ``v`` (1-based) has positive literal ``2*v``
and negative literal ``2*v + 1``; ``lit ^ 1`` negates.  DIMACS-style
signed integers are accepted at the API boundary (:meth:`Solver.add_clause`
takes ``+v`` / ``-v``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence

__all__ = ["SatSolver", "SAT", "UNSAT", "UNKNOWN", "luby"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    if i < 1:
        raise ValueError("luby is 1-based")
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SatSolver:
    """Incremental CDCL solver over integer variables.

    Usage::

        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a])
        assert s.solve() == "sat"
        assert s.value(b) is True
    """

    def __init__(self):
        self.nvars = 0
        # Clause arena: clause ref = index of the first literal;
        # arena[ref - 1] packs ``size << 1 | learnt``.  Index 0 is a
        # sentinel so 0 can mean "no clause" in reason slots.
        self._arena: List[int] = [0]
        self._clause_refs: List[int] = []
        self._learnt_refs: List[int] = []
        self._cla_act: dict = {}  # learnt cref -> activity
        self._garbage = 0  # dead arena words; compacted when > half
        self._watches: List[list] = [[], []]  # lit -> [(cref, blocker)]
        self._bwatches: List[list] = [[], []]  # lit -> [(other, cref)]
        self._lvals: List[int] = [-1, -1]  # lit -> 1 true / 0 false / -1
        self._levels: List[int] = [0]  # indexed by var (1-based)
        self._reasons: List[int] = [0]  # var -> cref (0 = none)
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._seen = bytearray(1)  # persistent conflict-analysis marks
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._order: List[tuple] = []  # lazy max-heap of (-activity, var)
        self._ok = True
        #: The last ``sat`` answer, one 0/1 byte per variable (index 0
        #: unused) — the C core's model buffer, same type and layout.
        self.model: bytes = b""
        self.core: List[int] = []  # failed-assumption literals (signed)
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_total = 0  # clauses ever learned (DB reduction ignores it)
        self.subsumed_total = 0  # clauses removed by inprocessing subsumption
        self.strengthened_total = 0  # literals removed by inprocessing
        # Inprocessing schedule: run when the permanent DB grew past the
        # threshold, spending at most `_simplify_ticks` literal visits.
        self._simplify_at = 2000
        self._simplify_ticks = 400_000
        # Optional telemetry sink (repro.obs.SolverEventSink): restart
        # and inprocessing moments are reported when set.  ``None`` by
        # default — the hot paths pay one predicate test at restart
        # granularity, nothing per conflict or propagation.
        self.events = None

    # ------------------------------------------------------------------
    # Variable and clause management
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable, returning its positive DIMACS id."""
        self.nvars += 1
        self._levels.append(0)
        self._reasons.append(0)
        self._activity.append(0.0)
        self._phase.append(False)
        self._lvals.extend((-1, -1))
        self._watches.append([])
        self._watches.append([])
        self._bwatches.append([])
        self._bwatches.append([])
        self._seen.append(0)
        heappush(self._order, (-0.0, self.nvars))
        return self.nvars

    def new_vars(self, n: int) -> int:
        """Allocate ``n`` consecutive fresh variables; returns the first
        (``first .. first + n - 1``).  Equivalent to ``n`` calls of
        :meth:`new_var`; the C core does it in one FFI call."""
        first = self.nvars + 1
        for _ in range(n):
            self.new_var()
        return first

    def _lit(self, signed: int) -> int:
        v = abs(signed)
        if v == 0 or v > self.nvars:
            raise ValueError(f"unknown variable in literal {signed}")
        return (v << 1) | (1 if signed < 0 else 0)

    def add_clause(self, signed_lits: Iterable[int]) -> bool:
        """Add a clause of signed literals.  Returns False if the solver
        becomes trivially unsatisfiable."""
        if not self._ok:
            return False
        if self._trail_lim:
            raise RuntimeError("add_clause only at decision level 0")
        lvals = self._lvals
        lits: List[int] = []
        seen = set()
        for signed in signed_lits:
            lit = self._lit(signed)
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = lvals[lit]
            if val > 0:
                return True  # already satisfied at level 0
            if val == 0:
                continue  # falsified at level 0: drop the literal
            seen.add(lit)
            lits.append(lit)
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], 0):
                self._ok = False
                return False
            self._ok = self.propagate() is None
            return self._ok
        cref = self._new_clause(lits, 0)
        self._clause_refs.append(cref)
        self._attach(cref)
        return True

    def add_clauses(self, buf: Sequence[int]) -> bool:
        """Add a batch of ``[len, lit, ...]`` records in order.

        Returns False once the solver is trivially unsatisfiable; a
        malformed record or unknown literal raises ``ValueError`` after
        the records before it were added.
        """
        i, n = 0, len(buf)
        while i < n:
            end = i + 1 + buf[i]
            if buf[i] < 0 or end > n:
                raise ValueError(f"malformed clause record at offset {i}")
            self.add_clause(buf[i + 1:end])
            i = end
        return self._ok

    def _new_clause(self, lits: List[int], learnt: int) -> int:
        arena = self._arena
        arena.append((len(lits) << 1) | learnt)
        cref = len(arena)
        arena.extend(lits)
        return cref

    def _attach(self, cref: int) -> None:
        arena = self._arena
        size = arena[cref - 1] >> 1
        l0 = arena[cref]
        l1 = arena[cref + 1]
        if size == 2:
            self._bwatches[l0 ^ 1].append((l1, cref))
            self._bwatches[l1 ^ 1].append((l0, cref))
        else:
            self._watches[l0 ^ 1].append((cref, l1))
            self._watches[l1 ^ 1].append((cref, l0))

    def _compact_arena(self) -> None:
        """Rebuild the arena without dead words, remapping every ref.

        Only sound at decision level 0 (reasons are dropped; level-0
        facts need none).
        """
        arena = self._arena
        new_arena = [0]
        remap: dict = {}
        for refs in (self._clause_refs, self._learnt_refs):
            for cref in refs:
                header = arena[cref - 1]
                size = header >> 1
                new_arena.append(header)
                remap[cref] = len(new_arena)
                new_arena.extend(arena[cref:cref + size])
            refs[:] = [remap[c] for c in refs]
        self._arena = new_arena
        self._cla_act = {
            remap[c]: a for c, a in self._cla_act.items() if c in remap
        }
        for wl in self._watches:
            wl[:] = [(remap[p[0]], p[1]) for p in wl]
        for bl in self._bwatches:
            bl[:] = [(p[0], remap[p[1]]) for p in bl]
        self._reasons = [0] * (self.nvars + 1)
        self._garbage = 0

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> Optional[bool]:
        v = self._lvals[lit]
        if v < 0:
            return None
        return v > 0

    def _enqueue(self, lit: int, reason: int = 0) -> bool:
        lvals = self._lvals
        v = lvals[lit]
        if v >= 0:
            return v > 0
        lvals[lit] = 1
        lvals[lit ^ 1] = 0
        var = lit >> 1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(lit)
        return True

    def propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause ref or None.

        This is the solver's hot loop: binary clauses propagate off
        their own watch lists with one value lookup each, and long
        clauses are only inspected when their blocker literal is not
        already satisfied.
        """
        watches = self._watches
        bwatches = self._bwatches
        lvals = self._lvals
        arena = self._arena
        trail = self._trail
        levels = self._levels
        reasons = self._reasons
        level = len(self._trail_lim)
        qhead = self._qhead
        nprops = 0
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            nprops += 1
            for other, bcref in bwatches[lit]:
                v = lvals[other]
                if v > 0:
                    continue
                if v == 0:  # conflict
                    self._qhead = len(trail)
                    self.propagations += nprops
                    return bcref
                lvals[other] = 1
                lvals[other ^ 1] = 0
                bvar = other >> 1
                levels[bvar] = level
                reasons[bvar] = bcref
                trail.append(other)
            wl = watches[lit]
            if not wl:
                continue
            falsified = lit ^ 1
            i = 0
            j = 0
            n = len(wl)
            while i < n:
                pair = wl[i]
                i += 1
                if lvals[pair[1]] > 0:  # blocker satisfies the clause
                    wl[j] = pair
                    j += 1
                    continue
                cref = pair[0]
                # Ensure the falsified literal sits in the second slot.
                first = arena[cref]
                if first == falsified:
                    first = arena[cref + 1]
                    arena[cref] = first
                    arena[cref + 1] = falsified
                v = lvals[first]
                if v > 0:  # the other watch is already true
                    wl[j] = (cref, first)
                    j += 1
                    continue
                # Look for a new literal to watch.
                end = cref + (arena[cref - 1] >> 1)
                k = cref + 2
                while k < end:
                    if lvals[arena[k]] != 0:  # unassigned or true
                        break
                    k += 1
                if k < end:
                    lk = arena[k]
                    arena[cref + 1] = lk
                    arena[k] = falsified
                    watches[lk ^ 1].append((cref, first))
                    continue
                # Clause is unit or conflicting.
                wl[j] = (cref, first)
                j += 1
                if v == 0:  # first is false: conflict
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    self._qhead = len(trail)
                    self.propagations += nprops
                    return cref
                # Enqueue `first` (currently unassigned).
                lvals[first] = 1
                lvals[first ^ 1] = 0
                fvar = first >> 1
                levels[fvar] = level
                reasons[fvar] = cref
                trail.append(first)
            del wl[j:]
        self._qhead = qhead
        self.propagations += nprops
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> tuple:
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        seen = self._seen
        activity = self._activity
        var_inc = self._var_inc
        cla_act = self._cla_act
        learnt: List[int] = [0]  # placeholder for the asserting literal
        to_clear: List[int] = []
        counter = 0
        lit = -1
        cref = conflict
        index = len(trail)
        cur_level = len(self._trail_lim)

        while True:
            header = arena[cref - 1]
            if header & 1:  # bump learnt-clause activity
                act = cla_act.get(cref, 0.0) + self._cla_inc
                cla_act[cref] = act
                if act > 1e20:
                    self._rescale_clause_activity()
            size = header >> 1
            skip_var = lit >> 1  # -1 on the first (conflict) round
            for k in range(cref, cref + size):
                q = arena[k]
                var = q >> 1
                if var == skip_var or seen[var]:
                    continue
                lv = levels[var]
                if lv > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_var_activity()
                        var_inc = self._var_inc
                    if lv == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find next literal on the trail to resolve on.
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            cref = reasons[lit >> 1]
            seen[lit >> 1] = 0
        learnt[0] = lit ^ 1

        # Recursive minimisation: drop literals implied by the rest.
        if len(learnt) > 1:
            level_set = {levels[q >> 1] for q in learnt[1:]}
            keep = [learnt[0]]
            for q in learnt[1:]:
                if not self._redundant(q, level_set, to_clear):
                    keep.append(q)
            learnt = keep

        for v in to_clear:
            seen[v] = 0

        # Backtrack level = second-highest level in the learnt clause.
        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if levels[learnt[i] >> 1] > levels[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = levels[learnt[1] >> 1]
        return learnt, bt_level

    def _redundant(self, lit: int, level_set: set, to_clear: List[int]) -> bool:
        """Is ``lit`` implied by other marked literals (clause minimisation)?

        Expansion prunes on abstract levels: a variable assigned at a
        decision level absent from the learnt clause can never be
        resolved away, so the walk aborts early.
        """
        reasons = self._reasons
        if not reasons[lit >> 1]:
            return False
        arena = self._arena
        levels = self._levels
        seen = self._seen
        stack = [lit]
        marked: List[int] = []
        while stack:
            p = stack.pop()
            cref = reasons[p >> 1]
            if not cref:
                for v in marked:
                    seen[v] = 0
                return False
            pvar = p >> 1
            size = arena[cref - 1] >> 1
            for k in range(cref, cref + size):
                q = arena[k]
                var = q >> 1
                if var == pvar or seen[var]:
                    continue
                lv = levels[var]
                if lv > 0:
                    if lv not in level_set:
                        for v in marked:
                            seen[v] = 0
                        return False
                    seen[var] = 1
                    marked.append(var)
                    stack.append(q)
        to_clear.extend(marked)
        return True

    def _analyze_final(self, failed_lit: int, assume_lits: List[int]) -> None:
        """Compute the subset of assumptions implying ``failed_lit``'s
        negation (MiniSat's analyzeFinal): walk the implication graph
        from the conflicting assumption back to assumption decisions."""
        self._final_core([failed_lit >> 1], assume_lits)

    def _final_core(self, seed_vars: Iterable[int], assume_lits: List[int]) -> None:
        """The assumptions implying the (falsified) seed variables'
        current values: walk the implication graph from the seeds back
        to assumption decisions.  Covers both final-conflict shapes —
        an assumption found false at placement, and a learnt clause
        falsified at the assumption levels during search."""
        arena = self._arena
        levels = self._levels
        assumption_vars = {lit >> 1 for lit in assume_lits}
        seen = set(seed_vars)
        # A seed that is itself an assumption contributes directly.
        core_vars = seen & assumption_vars
        for lit in reversed(self._trail):
            var = lit >> 1
            if var not in seen:
                continue
            cref = self._reasons[var]
            if not cref:
                if var in assumption_vars:
                    core_vars.add(var)
            else:
                size = arena[cref - 1] >> 1
                for k in range(cref, cref + size):
                    q = arena[k]
                    if levels[q >> 1] > 0:
                        seen.add(q >> 1)
        # Signed DIMACS form of the implicated assumptions.
        self.core = [
            (lit >> 1) if (lit & 1) == 0 else -(lit >> 1)
            for lit in assume_lits
            if (lit >> 1) in core_vars
        ]

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        trail = self._trail
        lvals = self._lvals
        phase = self._phase
        activity = self._activity
        reasons = self._reasons
        order = self._order
        for idx in range(len(trail) - 1, bound - 1, -1):
            lit = trail[idx]
            var = lit >> 1
            phase[var] = not (lit & 1)
            lvals[lit] = -1
            lvals[lit ^ 1] = -1
            reasons[var] = 0
            heappush(order, (-activity[var], var))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound

    # ------------------------------------------------------------------
    # VSIDS
    # ------------------------------------------------------------------
    def _rescale_var_activity(self) -> None:
        activity = self._activity
        for v in range(1, self.nvars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100

    def _rescale_clause_activity(self) -> None:
        act = self._cla_act
        for c in act:
            act[c] *= 1e-20
        self._cla_inc *= 1e-20

    def _pick_branch_var(self) -> int:
        # Entries may carry stale (lower) activities; accepting them
        # costs a slightly suboptimal pick but avoids rebuilding the
        # heap on every activity bump.
        order = self._order
        lvals = self._lvals
        while order:
            var = heappop(order)[1]
            if lvals[var << 1] < 0:
                return var
        for var in range(1, self.nvars + 1):
            if lvals[var << 1] < 0:
                return var
        return 0

    # ------------------------------------------------------------------
    # Learned-clause database reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        arena = self._arena
        act = self._cla_act
        learnts = self._learnt_refs
        learnts.sort(key=lambda c: act.get(c, 0.0))
        locked = set()
        reasons = self._reasons
        for lit in self._trail:
            cref = reasons[lit >> 1]
            if cref and arena[cref - 1] & 1:
                locked.add(cref)
        half = len(learnts) // 2
        kept: List[int] = []
        removed = set()
        for i, cref in enumerate(learnts):
            size = arena[cref - 1] >> 1
            if i < half and cref not in locked and size > 2:
                removed.add(cref)
                self._garbage += size + 1
                act.pop(cref, None)
            else:
                kept.append(cref)
        if not removed:
            return
        self._learnt_refs = kept
        # Binaries are never reduced, so their watch lists are untouched.
        for wl in self._watches:
            wl[:] = [p for p in wl if p[0] not in removed]

    # ------------------------------------------------------------------
    # Inprocessing (between incremental calls, at decision level 0)
    # ------------------------------------------------------------------
    def _simplify(self) -> None:
        """Budget-capped inprocessing over the retained clause database.

        Three sound transformations, all performed at decision level 0:

        1. clauses satisfied by a level-0 fact are dropped and false
           literals are stripped (originals and learnts alike);
        2. forward *subsumption*: a clause ``C ⊆ D`` deletes ``D``;
        3. *self-subsuming resolution*: ``C = A ∪ {l}`` against
           ``D ⊇ A ∪ {¬l}`` strengthens ``D`` by removing ``¬l``.

        The pair scan is capped by ``_simplify_ticks`` literal visits,
        which bounds the pause this pass can add to any single
        ``solve()``.
        """
        arena = self._arena
        lvals = self._lvals
        # Level-0 facts need no justification, and clause refs are about
        # to be invalidated wholesale.
        self._reasons = [0] * (self.nvars + 1)
        units: List[int] = []

        # ---- Phase 1: drop satisfied clauses, strip false literals.
        for refs in (self._clause_refs, self._learnt_refs):
            live = []
            for cref in refs:
                header = arena[cref - 1]
                size = header >> 1
                end = cref + size
                satisfied = False
                nfalse = 0
                for k in range(cref, end):
                    v = lvals[arena[k]]
                    if v > 0:
                        satisfied = True
                        break
                    if v == 0:
                        nfalse += 1
                if satisfied:
                    self._garbage += size + 1
                    self._cla_act.pop(cref, None)
                    continue
                if nfalse:
                    new_lits = [
                        arena[k] for k in range(cref, end) if lvals[arena[k]] < 0
                    ]
                    self.strengthened_total += nfalse
                    if not new_lits:
                        self._ok = False
                        return
                    if len(new_lits) == 1:
                        units.append(new_lits[0])
                        self._garbage += size + 1
                        self._cla_act.pop(cref, None)
                        continue
                    arena[cref - 1] = (len(new_lits) << 1) | (header & 1)
                    arena[cref:cref + len(new_lits)] = new_lits
                    self._garbage += nfalse
                elif size == 1:
                    # An unattached unit learnt (created under pinned
                    # assumption levels): promote it to a level-0 fact.
                    units.append(arena[cref])
                    self._garbage += 2
                    self._cla_act.pop(cref, None)
                    continue
                live.append(cref)
            refs[:] = live

        # ---- Phase 2: forward subsumption + self-subsuming resolution
        # over the permanent (original) clause database.
        refs = self._clause_refs
        deleted: set = set()
        occ: dict = {}
        sig: dict = {}
        for cref in refs:
            size = arena[cref - 1] >> 1
            s = 0
            for k in range(cref, cref + size):
                q = arena[k]
                occ.setdefault(q, []).append(cref)
                s |= 1 << ((q >> 1) & 63)
            sig[cref] = s
        ticks = self._simplify_ticks
        for cref in sorted(refs, key=lambda c: arena[c - 1] >> 1):
            if ticks <= 0:
                break
            if cref in deleted:
                continue
            size = arena[cref - 1] >> 1
            lits = arena[cref:cref + size]
            cset = set(lits)
            csig = sig[cref]
            best = min(lits, key=lambda q: len(occ.get(q, ())))
            # occ[best] catches every subsumption and every
            # strengthening whose flipped literal is not `best`;
            # occ[best ^ 1] catches the remaining flipped-on-best case.
            for cand_list in (occ.get(best, ()), occ.get(best ^ 1, ())):
                for d in cand_list:
                    if ticks <= 0:
                        break
                    if d == cref or d in deleted:
                        continue
                    if csig & ~sig[d]:
                        continue
                    dheader = arena[d - 1]
                    dsize = dheader >> 1
                    if dsize < size:
                        continue
                    ticks -= dsize
                    pos = 0
                    nflip = 0
                    flipped = 0
                    for k in range(d, d + dsize):
                        q = arena[k]
                        if q in cset:
                            pos += 1
                        elif q ^ 1 in cset:
                            nflip += 1
                            if nflip > 1:
                                break
                            flipped = q
                    if nflip > 1:
                        continue
                    if pos == size:
                        deleted.add(d)
                        self._garbage += dsize + 1
                        self.subsumed_total += 1
                    elif pos == size - 1 and nflip == 1:
                        new_lits = [
                            arena[k]
                            for k in range(d, d + dsize)
                            if arena[k] != flipped
                        ]
                        self.strengthened_total += 1
                        if len(new_lits) == 1:
                            units.append(new_lits[0])
                            deleted.add(d)
                            self._garbage += dsize + 1
                        else:
                            arena[d - 1] = (len(new_lits) << 1) | (dheader & 1)
                            arena[d:d + len(new_lits)] = new_lits
                            self._garbage += 1
                            # sig[d] is now a superset signature — still
                            # sound for the subset test, only less sharp.
        if deleted:
            refs[:] = [c for c in refs if c not in deleted]

        # ---- Rebuild watches, replay units, restore invariants.
        nlits = 2 * self.nvars + 2
        self._watches = [[] for _ in range(nlits)]
        self._bwatches = [[] for _ in range(nlits)]
        for store in (self._clause_refs, self._learnt_refs):
            for cref in store:
                if arena[cref - 1] >> 1 >= 2:
                    self._attach(cref)
        for u in units:
            if not self._enqueue(u, 0):
                self._ok = False
                return
        if self.propagate() is not None:
            self._ok = False
            return
        if self._garbage * 2 > len(self._arena):
            self._compact_arena()

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> str:
        """Search for a model under the given assumptions.

        Conflict backtracking never pops assumption levels, and learned
        clauses are retained for the next call.  ``max_conflicts``
        budgets *this call* (the cumulative :attr:`conflicts` counter
        keeps growing across calls).

        Returns ``"sat"`` (model in :attr:`model`), ``"unsat"``, or
        ``"unknown"`` if ``max_conflicts`` was exhausted.
        """
        self.core = []
        self.simplify(now=False)
        if not self._ok:
            return UNSAT

        assume_lits = [self._lit(a) for a in assumptions]
        self._n_assumptions = len(assume_lits)
        try:
            return self._search(assume_lits, max_conflicts)
        finally:
            self._n_assumptions = 0
            self._backtrack(0)

    def simplify(self, now: bool = True) -> None:
        """Level-0 simplification (:meth:`_simplify`): right away, for
        a caller that just retired many clauses with units and wants
        them collected, or (``now=False``, what every :meth:`solve`
        asks) only once the clause database has outgrown its schedule."""
        if not self._ok:
            return
        self._backtrack(0)
        if self.propagate() is not None:
            self._ok = False
            return
        if now or len(self._clause_refs) >= self._simplify_at:
            sub0, str0 = self.subsumed_total, self.strengthened_total
            self._simplify()
            if self.events is not None:
                self.events.inprocessing(
                    self.subsumed_total - sub0,
                    self.strengthened_total - str0,
                )
            if not self._ok:
                return
            self._simplify_at = max(2000, len(self._clause_refs) * 3 // 2)
        if self._garbage * 2 > len(self._arena):
            self._compact_arena()

    def _search(self, assume_lits: List[int], max_conflicts: Optional[int]) -> str:
        restart_count = 0
        conflicts_this_run = 0
        budget = luby(restart_count + 1) * 128
        stop_at = None if max_conflicts is None else self.conflicts + max_conflicts
        max_learnts = max(len(self._clause_refs) // 3, 1000)

        while True:
            conflict = self.propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_this_run += 1
                if not self._trail_lim:
                    self._ok = False
                    return UNSAT
                learnt, bt_level = self._analyze(conflict)
                # Never backtrack past the assumptions.
                self._backtrack(max(bt_level, self._assumption_level))
                if len(learnt) == 1 and not self._trail_lim:
                    self.learned_total += 1  # a level-0 fact, kept forever
                    if not self._enqueue(learnt[0], 0):
                        self._ok = False
                        return UNSAT
                else:
                    cref = self._new_clause(learnt, 1)
                    self._learnt_refs.append(cref)
                    self.learned_total += 1
                    if len(learnt) >= 2:
                        self._attach(cref)
                    if not self._enqueue(learnt[0], cref):
                        # The learnt clause is falsified at the pinned
                        # assumption levels: the assumptions themselves
                        # are inconsistent with the formula.
                        self._final_core([q >> 1 for q in learnt], assume_lits)
                        return UNSAT
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if stop_at is not None and self.conflicts >= stop_at:
                    self._backtrack(0)
                    return UNKNOWN
                if len(self._learnt_refs) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue

            if conflicts_this_run >= budget:
                restart_count += 1
                self.restarts += 1
                if self.events is not None:
                    self.events.restart()
                conflicts_this_run = 0
                budget = luby(restart_count + 1) * 128
                self._backtrack(self._assumption_level)
                continue

            # Place assumptions as pseudo-decisions in order.
            next_lit = None
            if len(self._trail_lim) < len(assume_lits):
                lit = assume_lits[len(self._trail_lim)]
                val = self._lvals[lit]
                if val > 0:
                    # Already implied: open an empty decision level.
                    self._trail_lim.append(len(self._trail))
                    continue
                if val == 0:
                    self._analyze_final(lit, assume_lits)
                    self._backtrack(0)
                    return UNSAT  # assumptions are inconsistent
                next_lit = lit
            else:
                var = self._pick_branch_var()
                if var == 0:
                    self._extract_model()
                    self._backtrack(0)
                    return SAT
                self.decisions += 1
                next_lit = (var << 1) | (0 if self._phase[var] else 1)
            self._trail_lim.append(len(self._trail))
            self._enqueue(next_lit, 0)

    @property
    def _assumption_level(self) -> int:
        # During _search() the first len(assumptions) decision levels
        # are immovable.
        return getattr(self, "_n_assumptions", 0)

    def solve_with(self, assumptions: Sequence[int] = (), **kw) -> str:
        """Historical alias of :meth:`solve` (which now always pins
        assumption levels and restores decision level 0 on return)."""
        return self.solve(assumptions, **kw)

    def _extract_model(self) -> None:
        lvals = self._lvals
        phase = self._phase
        self.model = b"\0" + bytes(
            (lvals[var << 1] > 0) if lvals[var << 1] >= 0 else phase[var]
            for var in range(1, self.nvars + 1)
        )

    def value(self, var: int) -> Optional[bool]:
        """Model value of ``var`` after a ``sat`` answer (``None`` for a
        variable allocated since: that answer does not constrain it)."""
        var = abs(var)
        return bool(self.model[var]) if var < len(self.model) else None

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Search statistics for benchmarking and debugging.

        ``conflicts``/``decisions``/``propagations``/``restarts``,
        ``learned``, ``subsumed`` and ``strengthened`` are *cumulative*
        across every :meth:`solve` call on this instance (incremental
        calls never reset them); ``clauses`` and ``learnts`` are the
        current database sizes (they shrink on DB reduction and
        inprocessing).
        """
        return {
            "vars": self.nvars,
            "clauses": len(self._clause_refs),
            "learnts": len(self._learnt_refs),
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": self.learned_total,
            "subsumed": self.subsumed_total,
            "strengthened": self.strengthened_total,
        }


# ---------------------------------------------------------------------------
# Native acceleration
# ---------------------------------------------------------------------------
# satcore.c implements this exact solver in C; _native.py compiles it on
# demand with the system C compiler and wraps it in the same public API.
# When a compiler is available the module exports the native solver as
# ``SatSolver``; otherwise (or with ``REPRO_SAT_NATIVE=0``) the
# pure-Python arena solver above runs, with identical semantics.  The
# Python implementation stays importable as ``PySatSolver`` either way.
PySatSolver = SatSolver
NATIVE_ENABLED = False


def _load_native_solver():
    import os

    if os.environ.get("REPRO_SAT_NATIVE", "").strip().lower() in {"0", "false", "off", "no"}:
        return None
    try:
        from ._native import NativeSatSolver
    except Exception:
        return None
    try:
        if NativeSatSolver.available():
            return NativeSatSolver
    except Exception:
        return None
    return None


_native_cls = _load_native_solver()
if _native_cls is not None:
    SatSolver = _native_cls
    NATIVE_ENABLED = True
del _native_cls

__all__ += ["PySatSolver", "NATIVE_ENABLED"]
