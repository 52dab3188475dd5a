"""The benchmark's own span recorder, wrapped round the program from outside.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
the public callables named in :data:`LAYERS` (and the handful of
counting hooks below it) with timing wrappers, so one traced round
decomposes into a budget per layer of ``src/repro/``:

* every wrapped call is a span ``[name, start, end, parent]``; spans of
  hot leaf callables (one per CNF clause) are only aggregated, never
  stored, so a traced audit stays within a few percent of an untraced
  one and its memory does not grow with the clause count;
* a span's *self* time is its duration minus the part its child spans
  cover, accumulated online per name — that is the ``*_s`` per-layer
  number; the stored spans are written out as JSON when the process
  exits (:meth:`Recorder.dump`) for anyone who wants the tree;
* counts are taken at the same boundaries (clauses handed to the SAT
  core, solver conflicts, cache and pool hits), so ratios are measured
  where the work happens.

State is per thread (the daemon serves requests on handler threads);
threads are merged when the recorder is dumped.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import threading
import time

perf_counter = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "totals", "counts")

    def __init__(self):
        self.stack = []    # frames: [seconds covered by children, enclosing stored span]
        self.totals = {}   # name -> [calls, self seconds]
        self.counts = {}   # name -> number


class Recorder:
    def __init__(self):
        self.spans = []    # stored spans: [name, start, end, parent span or None]
        self._states = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, n=1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def wrap(self, name: str, fn, store: bool = True, after=None):
        """``fn`` timed under ``name``.  ``store=False`` aggregates
        only (hot leaves).  ``after(recorder, result, args)`` runs
        outside the timed region, for counts."""
        recorder = self
        spans = self.spans

        def wrapper(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span = parent[1] if parent is not None else None
            start = perf_counter()
            if store:
                span = [name, start, start, span]
                spans.append(span)
            frame = [0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if store:
                    span[2] = end
                duration = end - start
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0]
                total[0] += 1
                total[1] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
            if after is not None:
                after(recorder, result, args)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def merged(self) -> dict:
        """``{"totals": {name: {"calls", "self_s"}}, "counts": {...}}``
        summed over every thread that recorded anything."""
        totals, counts = {}, {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, self_s) in state.totals.items():
                row = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
                row["calls"] += calls
                row["self_s"] += self_s
            for name, n in state.counts.items():
                counts[name] = counts.get(name, 0) + n
        return {"totals": totals, "counts": counts}

    def dump(self, path: str, extra: dict) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        payload = dict(extra)
        payload.update(self.merged())
        payload["spans"] = [
            [name, round(start, 6), round(end, 6),
             index[id(parent)] if parent is not None else -1]
            for name, start, end, parent in self.spans
        ]
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# What is wrapped: (module, dotted attribute, span name, stored?)
# ----------------------------------------------------------------------
#: The span name is the per-layer metric it feeds (``<name>_s`` is its
#: summed self time, ``<name>_calls`` its call count); several
#: callables may share a name.  ``bench.py`` turns names into metrics.
LAYERS = [
    ("repro.cli", "main", "cli.main_self", True),
    ("repro.scenarios.registry", "build_scenario", "scenarios.build", True),
    ("repro.network.forwarding", "shortest_path_tables", "network.paths", True),
    ("repro.network.transfer", "compute_transfer_rules", "network.transfer", True),
    ("repro.network.transfer", "build_verification_network", "network.transfer", True),
    ("repro.core.vmn", "VMN.__init__", "core.vmn", True),
    ("repro.core.vmn", "VMN.job_for", "core.vmn", True),
    ("repro.core.vmn", "VMN.slice_for", "core.slice", True),
    ("repro.core.symmetry", "group_invariants", "core.symmetry", True),
    ("repro.core.engine", "execute_jobs", "core.engine_self", True),
    ("repro.core.engine", "fingerprint", "netmodel.canon", True),
    ("repro.netmodel.bmc", "encoding_key", "netmodel.canon", True),
    ("repro.netmodel.canon", "invariant_fingerprint", "netmodel.canon", True),
    ("repro.incremental.delta", "network_fingerprint", "netmodel.canon", True),
    ("repro.netmodel.system", "NetworkSMTModel.__init__", "netmodel.model", True),
    ("repro.netmodel.system", "NetworkSMTModel.base_axioms", "netmodel.model", True),
    ("repro.netmodel.system", "NetworkSMTModel.step_axioms", "netmodel.model", True),
    ("repro.netmodel.bmc", "check", "netmodel.bmc_self", True),
    ("repro.netmodel.bmc", "IncrementalBMC.__init__", "netmodel.bmc_self", True),
    ("repro.netmodel.bmc", "IncrementalBMC.extend_to", "netmodel.bmc_self", True),
    ("repro.netmodel.bmc", "IncrementalBMC.check_at", "netmodel.bmc_self", True),
    ("repro.netmodel.trace", "decode_trace", "netmodel.decode", True),
    ("repro.netmodel.bmc", "IncrementalBMC.canonical_trace", "netmodel.decode", True),
    ("repro.smt.solver", "Solver.add", "smt.add", False),
    ("repro.smt.sat", "SatSolver.add_clause", "smt.transfer", False),
    ("repro.proof.portfolio", "prove_check", "proof.portfolio_self", True),
    ("repro.proof.transition", "TransitionSystem.__init__", "proof.transition", True),
    ("repro.proof.transition", "TransitionSystem.extend_to", "proof.transition", True),
    ("repro.proof.transition", "TransitionSystem.check", "proof.query", True),
    ("repro.proof.kinduction", "KInductionEngine.step", "proof.kind", True),
    ("repro.proof.ic3", "IC3Engine.step", "proof.ic3", True),
    ("repro.proof.certificate", "minimize_certificate", "proof.minimize", True),
    ("repro.proof.certificate", "recheck_certificate", "proof.recheck", True),
    ("repro.incremental.impact", "ChangeSummary.between", "incremental.impact", True),
    ("repro.incremental.impact", "ChangeImpactIndex.record", "incremental.impact", True),
    ("repro.incremental.impact", "ChangeImpactIndex.invalidated", "incremental.impact", True),
    ("repro.incremental.session", "IncrementalSession.apply", "incremental.apply_self", True),
    ("repro.provenance.blame", "blame_bundle", "provenance.blame", True),
    ("repro.store.filestore", "VerdictStore.open", "store.open", True),
    ("repro.store.filestore", "VerdictStore.preload_cache", "store.open", True),
    ("repro.store.filestore", "VerdictStore.flush", "store.flush", True),
    ("repro.serve.service", "VerificationService.handle", "serve.handle", True),
    ("repro.serve.server", "_Handler.do_POST", "serve.http", True),
    ("repro.serve.server", "_Handler.do_GET", "serve.http", True),
]


def _rebind(original, replacement) -> None:
    """Point every ``from x import name`` alias of ``original`` inside
    the program at ``replacement`` (modules import each other's
    functions by name, so patching the defining module is not enough)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(recorder: Recorder, module_name: str, path: str, name: str,
           store: bool, after=None) -> None:
    module = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    owner = module
    for part in owner_path.split(".") if owner_path else ():
        owner = getattr(owner, part)
    if owner is module:
        original = getattr(module, attr)
        _rebind(original, recorder.wrap(name, original, store, after))
        return
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        wrapped = classmethod(recorder.wrap(name, raw.__func__, store, after))
    else:
        wrapped = recorder.wrap(name, raw, store, after)
    setattr(owner, attr, wrapped)


# -- counting hooks -----------------------------------------------------
_SOLVER_COUNTERS = ("conflicts", "decisions", "propagations")


def _after_check(recorder, _result, args) -> None:
    """Solver work of one ``Solver.check``: the cumulative counters of
    ``Solver.stats()`` minus what this solver showed last time (all
    search happens inside ``check``, so the difference is this call)."""
    solver = args[0]
    stats = solver.stats()
    seen = solver.__dict__.setdefault("_e2e_seen", {})
    for key in _SOLVER_COUNTERS + ("vars",):
        now = stats.get(key, 0)
        recorder.count(f"smt.{key}", now - seen.get(key, 0))
        seen[key] = now


def _after_add(recorder, _result, args) -> None:
    recorder.count("netmodel.axioms", len(args) - 1)


def _after_lease(recorder, result, _args) -> None:
    recorder.count("netmodel.pool_hits" if result[1] else "netmodel.pool_misses")


def _after_cache_get(recorder, result, _args) -> None:
    recorder.count("core.cache_misses" if result is None else "core.cache_hits")


def install(recorder: Recorder) -> None:
    """Wrap every callable in :data:`LAYERS` plus the counting hooks.
    Call after ``import repro.cli`` has been timed: the lazily imported
    packages (proof, provenance, serve) are loaded here, untimed."""
    after = {"Solver.add": _after_add}
    for module_name, path, name, store in LAYERS:
        _patch(recorder, module_name, path, name, store, after.get(path))
    # Each delta kind overrides ``apply``; wrap them all.
    delta = importlib.import_module("repro.incremental.delta")
    for cls in vars(delta).values():
        if inspect.isclass(cls) and issubclass(cls, delta.NetworkDelta) \
                and "apply" in vars(cls):
            _patch(recorder, "repro.incremental.delta",
                   f"{cls.__name__}.apply", "incremental.delta_apply", True)
    _patch(recorder, "repro.smt.solver", "Solver.check", "smt.solve", True,
           _after_check)
    _patch(recorder, "repro.netmodel.bmc", "SolverPool.lease",
           "netmodel.pool", False, _after_lease)
    _patch(recorder, "repro.core.engine", "ResultCache.get",
           "core.cache", False, _after_cache_get)


def native_core() -> int:
    """1 when the compiled C SAT core serves this process."""
    sat = importlib.import_module("repro.smt.sat")
    return int(sat.SatSolver.__name__ == "NativeSatSolver")
