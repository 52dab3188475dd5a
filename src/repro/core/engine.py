"""The parallel batch-verification engine.

The paper's slicing and symmetry optimizations make each check small;
this module adds the orthogonal axis they leave on the table: running
independent checks *concurrently*, and never running the same check
twice.

Three pieces:

* :class:`VerificationJob` — one symmetry-group check turned into a
  picklable work item: the (sliced) :class:`VerificationNetwork`, the
  representative invariant, and fully-resolved BMC parameters.

* a **structural fingerprint** (:func:`fingerprint`) of
  ``(network, invariant, bmc params)`` that is canonical under renaming
  of hosts and middleboxes: two checks that are isomorphic — the same
  slice shape, the same middlebox configurations, the same invariant up
  to a consistent renaming of nodes — get the same fingerprint.  This
  is what lets symmetric checks and repeated checks across failure
  scenarios hit the :class:`ResultCache` instead of the solver.

* :func:`execute_jobs` — dispatches jobs across a ``multiprocessing``
  pool (``workers=N``), deduplicates jobs with equal fingerprints
  within a batch, consults/fills the cache, and returns results in job
  order so callers can merge them into a :class:`repro.core.results.Report`
  deterministically: the same ordering and verdicts as the sequential
  path, regardless of worker count.

* a **warm solver pool** (:class:`repro.netmodel.bmc.SolverPool`,
  threaded through by the sequential path): jobs carry the shape key
  of their SMT encoding (:func:`encoding_key` — nodes numbered by
  tuple position, the invariant left out, unlike the fingerprint), and
  jobs with equal keys lease the same live
  :class:`repro.netmodel.bmc.IncrementalBMC`, so every invariant
  verified on a slice *of that shape* reuses its network axioms' CNF
  and the learned clauses of all previous checks on it.

Soundness of cache reuse rests on the same argument as the paper's
symmetry optimization (§4.2): the SMT encoding mentions node names only
through the structures fingerprinted here, so isomorphic problems have
isomorphic formulas and therefore equal verdicts.  A result carries the
node order its fingerprint numbered, so a cached counterexample trace
is renamed through that isomorphism into the names of the check it is
handed to.
"""

from __future__ import annotations

import dataclasses
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..provenance import record as provenance
from ..netmodel.bmc import CheckResult, SolverPool, check, default_depth, encoding_key
from ..netmodel.canon import Unfingerprintable, placeholders, rename
from ..netmodel.canon import canon as _canon
from ..netmodel.canon import collect_names as _collect_names
from ..netmodel.canon import field_values as _field_values
from ..netmodel.system import VerificationNetwork

__all__ = [
    "Unfingerprintable",
    "fingerprint",
    "ResultCache",
    "SolverPool",
    "encoding_key",
    "VerificationJob",
    "resolve_bmc_params",
    "execute_jobs",
    "default_workers",
]


def default_workers() -> int:
    """Worker count when the caller does not specify one."""
    return os.cpu_count() or 1


def _node_order(net: VerificationNetwork, invariant) -> List[str]:
    """The node numbering of a fingerprint: nodes the invariant mentions
    in order of appearance in its (stable) field serialization, the rest
    sorted — symmetric invariants on one network canonicalize alike, and
    checks with equal fingerprints are isomorphic position by position."""
    known = frozenset(net.addresses)
    order: List[str] = []
    for _, value in _field_values(invariant):
        _collect_names(value, known, order)
    order.extend(name for name in sorted(known) if name not in order)
    return order


def fingerprint(
    net: VerificationNetwork,
    invariant,
    params: Optional[dict] = None,
) -> Optional[str]:
    """A canonical key for ``(network, invariant, bmc params)``.

    Equal fingerprints mean the two verification problems are isomorphic
    (identical up to a consistent renaming of nodes), so their verdicts
    are interchangeable.  Returns ``None`` when the problem holds state
    the canonicalizer does not understand — such checks simply skip the
    cache rather than risk an unsound hit.
    """
    at = placeholders(_node_order(net, invariant))
    try:
        canon = (
            "check",
            (
                "net",
                ("hosts", _canon(frozenset(net.hosts), at)),
                ("mboxes", _canon(frozenset(net.middleboxes), at)),
                ("rules", _canon(frozenset(net.rules), at)),
                ("extra", _canon(frozenset(net.extra_addresses), at)),
                ("spoof", net.allow_spoofing),
            ),
            (
                "inv",
                type(invariant).__module__,
                type(invariant).__qualname__,
                tuple((n, _canon(v, at)) for n, v in _field_values(invariant)),
            ),
            ("params", _canon(dict(params or {}), at)),
        )
    except Unfingerprintable:
        return None
    return repr(canon)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Fingerprint-keyed store of :class:`CheckResult` verdicts.

    One instance is owned by each :class:`repro.core.vmn.VMN` by
    default; share an instance across VMNs (e.g. across failure
    scenarios) to reuse verdicts between them.

    ``max_entries`` bounds the cache LRU-style (mirroring
    :class:`repro.netmodel.bmc.SolverPool`): when set, inserting past
    the bound evicts the least-recently-*used* entry — ``get`` and
    ``put`` both refresh recency, ``contains`` peeks without touching
    it.  The default (``None``) is unbounded, which is right for
    one-shot audits; long-lived owners — incremental sessions and the
    ``repro serve`` daemon — pass a bound so memory stays flat as the
    network churns through versions.
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        self._store: "OrderedDict[str, CheckResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[CheckResult]:
        result = self._store.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            self._store.move_to_end(key)
        return result

    def contains(self, key: str) -> bool:
        """Peek without touching the hit/miss counters or LRU order
        (used by callers deciding whether a solver-free path is even
        worth trying)."""
        return key in self._store

    def put(self, key: str, result: CheckResult) -> None:
        self._store[key] = result
        self._store.move_to_end(key)
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1

    def items(self) -> List[Tuple[str, CheckResult]]:
        """Current (fingerprint, result) pairs, LRU-oldest first —
        what a persistent store absorbs on checkpoint."""
        return list(self._store.items())

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({len(self._store)} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
def resolve_bmc_params(net: VerificationNetwork, invariant, kwargs: dict) -> dict:
    """Resolve BMC keyword defaults exactly as :func:`repro.netmodel.bmc.check`
    would, so a job carries the concrete parameters it will run with
    (and so the fingerprint covers them)."""
    params = dict(kwargs)
    if params.get("n_packets") is None:
        params["n_packets"] = getattr(invariant, "n_packets_hint", 2)
    if params.get("failure_budget") is None:
        params["failure_budget"] = getattr(invariant, "failure_budget", 0)
    if params.get("depth") is None:
        params["depth"] = default_depth(
            net, params["n_packets"], params["failure_budget"]
        )
    params.setdefault("max_conflicts", None)
    params.setdefault("n_ports", 6)
    params.setdefault("n_tags", 4)
    return params


@dataclass
class VerificationJob:
    """One check, self-contained and picklable: ship it to any worker.

    ``warm_key`` is the slice's shape key (:func:`encoding_key`) used
    to lease a warm solver when the job runs in-process — possibly one
    built for another slice's names, which the check renames through;
    worker processes ignore it (a live solver cannot cross a pickle
    boundary), so parallel dispatch stays cold per job.

    ``prove`` switches the job from plain bounded model checking to the
    unbounded proof portfolio (``"portfolio"``): the verdict comes back
    as the same :class:`CheckResult` shape, with the guarantee
    strength, winning engine and certificate in ``stats`` — so the
    result cache, report merging and audit rows carry proof results
    without any special casing.
    """

    index: int
    network: VerificationNetwork
    invariant: object
    params: dict = field(default_factory=dict)
    fingerprint: Optional[str] = None
    slice_size: Optional[int] = None  # None = whole-network verification
    warm_key: Optional[str] = None
    prove: Optional[str] = None
    #: Digest of the network version the job was cut from (the whole
    #: topology + steering, not just this job's slice); rides into the
    #: result's provenance record.
    config_hash: Optional[str] = None

    def run(self, warm: Optional[SolverPool] = None) -> CheckResult:
        if self.prove:
            from ..proof.portfolio import prove_check

            return prove_check(
                self.network,
                self.invariant,
                prove=self.prove,
                warm=warm,
                warm_key=self.warm_key,
                **self.params,
            )
        return check(
            self.network,
            self.invariant,
            warm=warm,
            warm_key=self.warm_key,
            **self.params,
        )


def _execute_job(job: VerificationJob) -> Tuple[int, CheckResult, Optional[dict]]:
    """Pool worker entry point (top-level so it pickles under spawn).

    Under ``fork`` the worker inherits the parent's *enabled* tracer,
    but spans recorded into that inherited copy would die with the
    process — so an observed worker builds a fresh tracer/registry
    pair, runs the job under them, and ships the picklable span
    records and metric series back for the parent to merge
    (:meth:`repro.obs.Tracer.adopt` in job-index order, so the merged
    trace is deterministic regardless of pool scheduling).  Under
    ``spawn`` the worker starts with observability disabled and ships
    nothing.
    """
    if not obs.enabled():
        return job.index, job.run(), None
    tracer = obs.Tracer(meta={"job": job.index})
    registry = obs.MetricsRegistry()
    with obs.observe(tracer=tracer, registry=registry):
        with tracer.span(
            "job",
            cat="engine",
            job=job.index,
            invariant=type(job.invariant).__name__,
            slice_size=job.slice_size,
        ):
            result = job.run()
    ship = {
        "records": tracer.records(),
        "wall_epoch": tracer.wall_epoch,
        "metrics": registry.dump(),
        "pid": tracer.pid,
    }
    return job.index, result, ship


def _rebind(result: CheckResult, job: VerificationJob, cached: bool) -> CheckResult:
    """A copy of ``result`` attached to ``job``'s own invariant object,
    marked as a cache hit when it did not come from a fresh solver run.

    Every result passes through here exactly once on its way to the
    caller, which makes it the universal attach point for the verdict's
    provenance record (how the verdict was obtained — engine, lineage,
    solver work, config version)."""
    stats = dict(result.stats)
    trace = result.trace
    if trace is not None and job.fingerprint is not None and (
        not cached or "node_order" in stats
    ):
        # The trace travels with its fingerprint's node order; one taken
        # from another check is renamed through the isomorphism (an
        # entry stored before orders were kept stays as it is).
        order = _node_order(job.network, job.invariant)
        if cached and order != stats["node_order"]:
            trace = rename(trace, dict(zip(stats["node_order"], order)))
        stats["node_order"] = order
    if cached:
        stats["cache_hit"] = True
    if provenance.enabled():
        stats["provenance"] = provenance.provenance_record(
            stats,
            fingerprint=job.fingerprint,
            config_hash=job.config_hash,
            cached=cached,
        )
    return dataclasses.replace(
        result, invariant=job.invariant, trace=trace, stats=stats
    )


def _pool_context():
    import multiprocessing  # only a batch that really fans out pays for it

    # fork is cheapest and inherits the interned term tables; fall back
    # to the platform default (spawn) where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def execute_jobs(
    jobs: Sequence[VerificationJob],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    solver_pool: Optional[SolverPool] = None,
    known: Optional[Mapping[str, CheckResult]] = None,
) -> List[CheckResult]:
    """Run a batch of jobs and return their results **in job order**.

    ``workers`` > 1 dispatches across a process pool; 1 runs inline
    (byte-for-byte the sequential path); ``None`` uses
    :func:`default_workers`.  Jobs whose fingerprint is already in
    ``cache`` — or equals an earlier job's in the same batch — reuse the
    stored verdict instead of running the solver.  Which job of a
    duplicate set runs is decided by batch order, not scheduling, so the
    outcome is deterministic for any worker count.

    ``solver_pool`` supplies warm solvers to the inline path: jobs with
    equal ``warm_key`` (same slice shape, same BMC parameters) share
    one live encoding and its learned clauses.  The pool only affects how
    fast a verdict is reached, never which verdict — pool workers
    ignore it.

    ``known`` maps fingerprints to verdicts the caller still holds for
    checks *outside* this batch (a session's carried outcomes): a job
    isomorphic to one is its follower, as if that check had been re-run
    at the head of the batch (§4.2 symmetry), with or without ``cache``.
    """
    if workers is None:
        workers = default_workers()
    results: Dict[int, CheckResult] = {}
    to_run: List[VerificationJob] = []
    leaders: Dict[str, int] = {}  # fingerprint -> index of the job that runs
    followers: List[Tuple[VerificationJob, int]] = []

    tracer = obs.get_tracer()
    registry = obs.get_registry()
    with tracer.span(
        "execute-jobs", cat="engine", jobs=len(jobs), workers=workers
    ) as batch_span:
        for job in jobs:
            fp = job.fingerprint
            if fp is not None:
                hit = cache.get(fp) if cache is not None else None
                if hit is None and known is not None:
                    hit = known.get(fp)
                if hit is not None:
                    results[job.index] = _rebind(hit, job, cached=True)
                    continue
                leader = leaders.get(fp)
                if leader is not None:
                    followers.append((job, leader))
                    if cache is not None:
                        cache.hits += 1  # same-batch reuse is a cache hit too
                    continue
                leaders[fp] = job.index
            to_run.append(job)

        cached_hits = len(jobs) - len(to_run)
        if cached_hits:
            registry.counter(
                "repro_engine_cache_hits_total",
                "verification jobs answered from the result cache",
            ).inc(cached_hits)
        if to_run:
            registry.counter(
                "repro_engine_jobs_total", "verification jobs dispatched"
            ).inc(len(to_run))

        ships: Dict[int, dict] = {}
        if len(to_run) > 1 and workers > 1:
            ctx = _pool_context()
            with ctx.Pool(processes=min(workers, len(to_run))) as pool:
                for index, result, ship in pool.imap_unordered(
                    _execute_job, to_run
                ):
                    results[index] = result
                    if ship is not None:
                        ships[index] = ship
                pool.close()
                pool.join()
            # Merge worker telemetry in job-index order — a
            # deterministic id remapping no matter how the pool
            # scheduled the jobs.
            for job in to_run:
                ship = ships.get(job.index)
                if ship is None:
                    continue
                tracer.adopt(
                    ship["records"],
                    wall_epoch=ship["wall_epoch"],
                    parent=getattr(batch_span, "id", None),
                    tid=ship["pid"],
                )
                registry.merge(ship["metrics"])
        else:
            for job in to_run:
                with tracer.span(
                    "job",
                    cat="engine",
                    job=job.index,
                    invariant=type(job.invariant).__name__,
                    slice_size=job.slice_size,
                ):
                    results[job.index] = job.run(solver_pool)

        batch_span.tag(cache_hits=cached_hits, ran=len(to_run))

    for job in to_run:
        # Reattach the caller's invariant object (pool results carry an
        # unpickled copy) and fill the cache.
        results[job.index] = _rebind(results[job.index], job, cached=False)
        if cache is not None and job.fingerprint is not None:
            cache.put(job.fingerprint, results[job.index])
    for job, leader in followers:
        results[job.index] = _rebind(results[leader], job, cached=True)

    return [results[job.index] for job in jobs]
