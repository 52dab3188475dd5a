"""Warm-cache re-verification across network versions.

An :class:`IncrementalSession` is the long-running counterpart of the
one-shot audit: it holds a network version (topology + steering), a set
of tracked invariant checks, one :class:`repro.core.engine.ResultCache`
that stays **warm across versions**, and a
:class:`repro.incremental.impact.ChangeImpactIndex` of the slices each
check was last verified on.

``apply(delta)`` advances the network one version and re-establishes
every tracked verdict at a cost proportional to what the delta
changes: forwarding tables and transfer rules are re-derived only when
topology structure, steering or failure scenario changed (a config
push keeps them), and then three nested shortcuts apply:

1. **impact filtering** — checks whose slices the delta provably cannot
   affect carry their verdict forward without any work at all;
2. **symmetry and the warm fingerprint cache** — invalidated checks
   whose re-built slice is structurally identical (up to node renaming)
   to a carried check's, or to anything verified in *any* earlier
   version, reuse that verdict;
3. **the parallel engine** — the checks that truly need the solver go
   through :func:`repro.core.engine.execute_jobs`, so they run across
   worker processes like any batch.

Every ``apply`` returns a :class:`DeltaReport` with the per-version
cost split (carried / cache hits / solver runs) — the quantities
``repro watch`` and ``benchmarks/bench_incremental.py`` report.
``revert()`` undoes the most recent delta using its recorded inverse.

Verdict fidelity is the contract: after every delta, each tracked
check's status equals what a from-scratch audit of the new version
would produce (property-tested in
``tests/property/test_incremental_equivalence.py``).
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.engine import ResultCache, SolverPool, execute_jobs, resolve_bmc_params
from ..obs import get_logger, get_registry, get_tracer
from ..provenance import record as provenance
from ..core.slicing import SliceClosureError
from ..core.vmn import VMN
from ..netmodel.bmc import HOLDS, CheckResult
from ..netmodel.canon import Unfingerprintable, invariant_fingerprint
from ..proof.certificate import RecheckReport, recheck_certificate
from ..network.failures import NO_FAILURE, FailureScenario
from ..network.topology import Topology
from ..network.transfer import SteeringPolicy
from .delta import NetworkDelta
from .impact import (
    ChangeImpactIndex,
    ChangeSummary,
    middlebox_models,
    shared_state_boxes,
)

__all__ = ["TrackedCheck", "CheckOutcome", "DeltaReport", "IncrementalSession"]


@dataclass
class TrackedCheck:
    """One invariant the session keeps continuously verified."""

    key: int
    invariant: object
    label: str = ""
    expected: Optional[str] = None  # "holds"/"violated" when known

    def describe(self) -> str:
        return self.label or getattr(
            self.invariant, "describe", lambda: repr(self.invariant)
        )()


@dataclass
class CheckOutcome:
    """A tracked check's verdict at the current version, with how it
    was (re-)established."""

    check: TrackedCheck
    result: CheckResult
    carried: bool  # verdict carried forward by the impact index
    #: Fingerprint of the problem ``result`` answers; a carried outcome
    #: is unchanged on the current version, so it still is that.
    fingerprint: Optional[str] = None

    @property
    def status(self) -> str:
        return self.result.status

    @property
    def cached(self) -> bool:
        return self.result.cache_hit

    @property
    def ok(self) -> Optional[bool]:
        if self.check.expected is None:
            return None
        return self.status == self.check.expected


@dataclass
class DeltaReport:
    """Cost and outcome of re-verifying one network version."""

    version: int
    delta: Optional[str]  # None for the initial full verification
    outcomes: List[CheckOutcome] = field(default_factory=list)
    retired: List[TrackedCheck] = field(default_factory=list)
    added: int = 0
    seconds: float = 0.0
    #: Per-delta registry attribution — the delta of every ``repro_*``
    #: metric series over this version's re-verification (empty when
    #: observability is disabled).  ``repro watch --metrics`` prints it.
    metrics: Dict[str, float] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def carried(self) -> int:
        return sum(1 for o in self.outcomes if o.carried)

    @property
    def invalidated(self) -> int:
        return len(self.outcomes) - self.carried

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if not o.carried and o.cached)

    @property
    def solver_runs(self) -> int:
        return sum(1 for o in self.outcomes if not o.carried and not o.cached)

    @property
    def certificates_reused(self) -> int:
        """Checks whose cached inductive certificate re-validated on
        this version (three solver queries instead of a proof search).
        Carried outcomes are excluded: they wrap an older version's
        result object, whose reuse flag belongs to that version."""
        return sum(
            1
            for o in self.outcomes
            if not o.carried and o.result.stats.get("certificate_reused")
        )

    @property
    def mismatches(self) -> int:
        return sum(1 for o in self.outcomes if o.ok is False)

    def statuses(self) -> Dict[str, str]:
        """label/description -> verdict, for cross-version comparison."""
        return {o.check.describe(): o.status for o in self.outcomes}

    def summary(self) -> str:
        what = self.delta if self.delta is not None else "initial verification"
        return (
            f"v{self.version} [{what}]: {len(self.outcomes)} checks — "
            f"{self.carried} carried, {self.cache_hits} cache hits, "
            f"{self.solver_runs} solver runs"
            f"{f', {self.certificates_reused} certs reused' if self.certificates_reused else ''}"
            f"{f', {len(self.retired)} retired' if self.retired else ''}"
            f" ({self.seconds:.2f}s)"
        )


class IncrementalSession:
    """Keep an invariant set continuously verified under network churn.

    ``use_cache=False`` turns off the cross-version
    :class:`~repro.core.engine.ResultCache` only: every invalidated
    check whose problem no *current* verdict answers goes to the
    solver, even if an earlier version solved it.  Impact filtering
    and symmetry inside the tracked set are always on — an isomorphic
    check in the same batch was always answered once, and one that is
    carried answers it the same way."""

    def __init__(
        self,
        topology: Topology,
        steering: Optional[SteeringPolicy] = None,
        scenario: FailureScenario = NO_FAILURE,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        prove: Optional[str] = None,
        bmc_kwargs: Optional[dict] = None,
        store=None,
        solver_pool: Optional[SolverPool] = None,
        cache_entries: Optional[int] = 4096,
        **vmn_kwargs,
    ):
        self.topology = topology
        self.steering = steering or SteeringPolicy()
        self.scenario = scenario
        self.jobs = jobs
        #: Extra BMC/portfolio parameters applied to every check this
        #: session runs (e.g. ``max_conflicts`` — the repair loop's
        #: per-candidate screening budget).  Job fingerprints cover
        #: them, so budgeted and unbudgeted verdicts never alias.
        self.bmc_kwargs = dict(bmc_kwargs or {})
        #: ``"portfolio"`` keeps every tracked check continuously
        #: *proven* (not just bounded-checked): verdicts carry
        #: guarantee strength, and each holds-certificate is cached so
        #: a later delta can re-validate it — three cold solver
        #: queries — instead of re-running the proof search.
        self.prove = prove
        self._certificates: Dict[int, object] = {}
        self.vmn_kwargs = dict(vmn_kwargs)
        self.vmn_kwargs.pop("cache", None)
        self.vmn_kwargs.setdefault("use_cache", True)
        # Sessions live long, so their cache is LRU-bounded by default
        # (cache_entries; None = unbounded) — one-shot VMN audits keep
        # the unbounded default of ResultCache itself.
        self.cache = cache if cache is not None else (
            ResultCache(max_entries=cache_entries)
            if self.vmn_kwargs["use_cache"] else None
        )
        #: Warm solvers shared across versions: slices a delta does not
        #: rebuild keep their live encodings, so re-verification after
        #: a delta reuses both learned clauses and CNF.  Pass
        #: ``solver_pool=`` to share one pool across sessions (the
        #: serve daemon's per-network shard does).
        self.solver_pool: Optional[SolverPool] = (
            solver_pool
            if solver_pool is not None
            else (SolverPool() if self.vmn_kwargs.pop("use_warm", True) else None)
        )
        self.vmn_kwargs.pop("use_warm", None)
        #: Optional :class:`repro.store.VerdictStore`: verdicts persisted
        #: by an earlier process preload the warm cache, stored proof
        #: certificates seed certificate reuse, and :meth:`checkpoint`
        #: flushes the session's accumulated state back to disk.
        self.store = store
        if store is not None and self.cache is not None:
            store.preload_cache(self.cache)
        self.index = ChangeImpactIndex()
        self.version = 0
        self._keys = itertools.count()
        self._checks: Dict[int, TrackedCheck] = {}
        self._outcomes: Dict[int, CheckOutcome] = {}
        #: invariant fingerprint -> last observed status, for drift
        #: detection (seeded from the store's history on first sight,
        #: so a verdict flip across a daemon restart still fires).
        self._last_status: Dict[str, str] = {}
        self._history: List[Tuple[NetworkDelta, List[int], List[TrackedCheck]]] = []
        self.reports: List[DeltaReport] = []
        self.vmn = self._build_vmn()

    # ------------------------------------------------------------------
    # Check management
    # ------------------------------------------------------------------
    def track(self, invariant, label: str = "",
              expected: Optional[str] = None) -> TrackedCheck:
        """Add an invariant to the tracked set (verified on the next
        :meth:`verify_pending` / :meth:`apply` / :meth:`baseline`)."""
        check = TrackedCheck(
            key=next(self._keys), invariant=invariant,
            label=label, expected=expected,
        )
        self._checks[check.key] = check
        return check

    @classmethod
    def from_bundle(cls, bundle, **kwargs) -> "IncrementalSession":
        """A session over a scenario bundle's topology, steering, and
        expected-verdict check list (see :mod:`repro.scenarios`)."""
        kwargs.setdefault("scenario", bundle.scenario)
        session = cls(bundle.topology, bundle.steering, **kwargs)
        for check in bundle.checks:
            session.track(check.invariant, label=check.label,
                          expected=check.expected)
        return session

    @property
    def checks(self) -> List[TrackedCheck]:
        return [self._checks[k] for k in sorted(self._checks)]

    @property
    def outcomes(self) -> List[CheckOutcome]:
        """Current verdicts, in tracked order."""
        return [self._outcomes[k] for k in sorted(self._outcomes)]

    # ------------------------------------------------------------------
    # Verification plumbing
    # ------------------------------------------------------------------
    def _build_vmn(self, previous: Optional[VMN] = None) -> VMN:
        """The facade of the current version.  Forwarding tables and
        transfer rules are a function of topology structure, steering
        and failure scenario only, so ``previous``'s are carried over
        while none of the three has changed."""
        kwargs = dict(self.vmn_kwargs)
        if (
            previous is not None
            and previous.topology is self.topology
            and previous.revision == self.topology.revision
            and previous.steering == self.steering
            and previous.scenario == self.scenario
        ):
            kwargs.update(tables=previous.tables, rules=previous.rules)
            get_registry().counter(
                "repro_session_datapath_reused_total",
                "session versions that kept the previous collapsed datapath",
            ).inc()
        return VMN(
            self.topology,
            self.steering,
            scenario=self.scenario,
            cache=self.cache,
            solver_pool=self.solver_pool,
            use_warm=self.solver_pool is not None,
            **kwargs,
        )

    def _verify_keys(self, keys: Sequence[int]) -> None:
        """Re-verify the given checks on the current version, recording
        fresh slices in the impact index and results in the cache.

        In prove mode, a check with a cached inductive certificate is
        re-validated against the current version's encoding (initiation
        / consecution / property implication on a cold solver) before
        any proof search; only when the certificate breaks does the
        check fall back to a fresh portfolio proof.  The warm
        fingerprint cache still comes first — a verdict the session has
        already proven on a structurally identical version costs
        nothing at all."""
        # Invalidate first: if anything below dies (worker death,
        # interrupt) these checks are unknown, and the next delta
        # re-verifies them — never the previous version's verdict.
        for key in keys:
            self.index.forget(key)
            self._outcomes.pop(key, None)
        # What is left is carried and valid on this version: checks
        # isomorphic to one of those take its verdict (symmetry, §4.2).
        known = {
            o.fingerprint: o.result
            for o in self._outcomes.values()
            if o.fingerprint is not None
        }
        jobs = []
        pending = []  # (key, slice) per job
        for key in keys:
            inv = self._checks[key].invariant
            sl = None
            if self.vmn.use_slicing:
                try:
                    sl = self.vmn.slice_for(inv)
                except SliceClosureError:
                    sl = None
            job = self.vmn.job_for(inv, index=len(jobs),
                                   with_fingerprint=True,
                                   prove=self.prove,
                                   **self.bmc_kwargs)
            cache_hit = job.fingerprint is not None and (
                job.fingerprint in known
                or (self.cache is not None
                    and self.cache.contains(job.fingerprint))
            )
            if not cache_hit:
                reused = self._reuse_certificate(key, inv, job=job)
                if reused is not None:
                    self._land(key, sl, reused, job.fingerprint)
                    continue
            jobs.append(job)
            pending.append((key, sl))
        results = execute_jobs(jobs, workers=self.jobs or 1, cache=self.cache,
                               solver_pool=self.solver_pool, known=known)
        for (key, sl), job, result in zip(pending, jobs, results):
            self._land(key, sl, result, job.fingerprint)
            if self.prove:
                cert = result.stats.get("certificate")
                if result.status == HOLDS and cert is not None:
                    self._certificates[key] = cert
                    self._store_certificate(self._checks[key].invariant, cert)
                else:
                    self._certificates.pop(key, None)
        # Every re-established verdict passes through drift detection:
        # a status flip against the last recorded one fires an event
        # and a counter, and (with a store) extends the invariant's
        # persisted timeline.
        for key in keys:
            outcome = self._outcomes.get(key)
            if outcome is not None:
                self._record_history(self._checks[key], outcome.result)

    def _land(self, key: int, sl, result: CheckResult,
              fingerprint: Optional[str]) -> None:
        """Record a fresh verdict with the slice it was established on."""
        self.index.record(key, sl)
        self._outcomes[key] = CheckOutcome(
            check=self._checks[key], result=result, carried=False,
            fingerprint=fingerprint,
        )

    def _record_history(self, check: TrackedCheck, result: CheckResult) -> None:
        """Drift detection + persistent verdict timeline for one
        freshly (re-)established verdict."""
        inv_key = self._invariant_key(check.invariant)
        if inv_key is None:
            return
        status = result.status
        digest = self.vmn.config_hash()
        rows = self.store.history_for(inv_key) if self.store is not None else []
        prev = self._last_status.get(inv_key)
        if prev is None and rows:
            prev = rows[-1].get("status")
        if prev is not None and prev != status:
            get_logger().info(
                "verdict-changed",
                check=check.describe(),
                version=self.version,
                previous=prev,
                status=status,
                network=digest,
            )
            get_registry().counter(
                "repro_verdict_drift_total",
                "tracked verdicts flipped by network churn",
            ).inc(status=status)
        self._last_status[inv_key] = status
        if self.store is None:
            return
        last = rows[-1] if rows else None
        if (
            last is None
            or last.get("network") != digest
            or last.get("status") != status
        ):
            prov = result.stats.get("provenance") or {}
            self.store.append_history(
                inv_key,
                {
                    "version": self.version,
                    "label": check.describe(),
                    "status": status,
                    "network": digest,
                    "lineage": prov.get("lineage"),
                    "engine": prov.get("engine"),
                    "guarantee": prov.get("guarantee"),
                },
            )

    def _invariant_key(self, invariant) -> Optional[str]:
        try:
            return invariant_fingerprint(invariant)
        except Unfingerprintable:
            return None

    def _store_certificate(self, invariant, cert) -> None:
        if self.store is None:
            return
        inv_key = self._invariant_key(invariant)
        if inv_key is None:
            return
        self.store.put_certificate(inv_key, cert)

    def _blame_certificates(self) -> None:
        """Stamp each persisted certificate with its blame set — the
        configuration units the proof's core queries rest on — so a
        later ``repro history`` / certificate reuse can say *why* the
        proof held without re-probing.  Runs at checkpoint time, not
        per proof: under churn an invariant may be re-proven every
        version, but only the certificate that actually persists is
        worth a guard-core probe.  Runtime import: the blame module
        imports the verification layers."""
        if not provenance.enabled():
            return
        from ..provenance.blame import certificate_blame

        for check in self.checks:
            inv_key = self._invariant_key(check.invariant)
            if inv_key is None:
                continue
            cert = self.store.certificate_for(inv_key)
            if cert is None or getattr(cert, "blame", ()):
                continue
            net, _ = self.vmn.network_for(check.invariant)
            params = resolve_bmc_params(net, check.invariant, {})
            try:
                blame = certificate_blame(net, check.invariant, cert, params)
            except Exception:
                blame = ()
            if blame:
                self.store.put_certificate(
                    inv_key, dataclasses.replace(cert, blame=blame)
                )

    def _reuse_certificate(self, key: int, invariant,
                           job=None) -> Optional[CheckResult]:
        """Try the cached certificate against the current version;
        ``None`` when there is none or it no longer validates."""
        if not self.prove:
            return None
        cert = self._certificates.get(key)
        if cert is None and self.store is not None:
            # A certificate persisted by an earlier process: file it
            # under this session's check key and re-validate it below
            # exactly like a certificate this session proved itself.
            inv_key = self._invariant_key(invariant)
            if inv_key is not None:
                cert = self.store.certificate_for(inv_key)
                if cert is not None:
                    self._certificates[key] = cert
        if cert is None:
            return None
        started = time.perf_counter()
        net, _ = self.vmn.network_for(invariant)
        params = resolve_bmc_params(net, invariant, {})
        with get_tracer().span(
            "certificate-reuse", cat="incremental", check=key
        ) as span:
            try:
                report = recheck_certificate(
                    net, invariant, cert,
                    {k: params[k] for k in
                     ("n_packets", "failure_budget", "n_ports", "n_tags")},
                )
            except (KeyError, ValueError):
                # A certificate that cannot even be expressed against
                # this version's encoding (stale vocabulary from a
                # persisted store) is simply not reusable — fall back
                # to a fresh proof, never poison the verdict.
                report = RecheckReport(False, 0, "certificate unencodable")
            span.tag(ok=report.ok)
        if not report.ok:
            self._certificates.pop(key, None)
            get_logger().info(
                "certificate-fallback", check=key, kind=cert.kind,
                reason=report.reason,
            )
            return None
        get_logger().debug(
            "certificate-reused", check=key, kind=cert.kind,
            solver_checks=report.solver_checks,
        )
        stats = {
            "guarantee": "unbounded",
            "proof_engine": cert.kind,
            "proof_note": "cached certificate re-validated "
                          "on the current version",
            "certificate": cert,
            "certificate_reused": True,
            "recheck_ok": True,
            "solver_checks": report.solver_checks,
        }
        # This path bypasses the engine's _rebind attach point, so the
        # provenance record is attached inline.
        if provenance.enabled():
            stats["provenance"] = provenance.provenance_record(
                stats,
                fingerprint=getattr(job, "fingerprint", None),
                config_hash=self.vmn.config_hash(),
            )
        return CheckResult(
            status=HOLDS,
            invariant=invariant,
            depth=params["depth"],
            n_packets=params["n_packets"],
            solve_seconds=time.perf_counter() - started,
            stats=stats,
        )

    def _report(self, delta: Optional[str], verified: Sequence[int],
                retired: List[TrackedCheck], added: int,
                seconds: float) -> DeltaReport:
        verified_set = set(verified)
        outcomes = []
        for key in sorted(self._outcomes):
            prev = self._outcomes[key]
            outcome = (
                prev if key in verified_set or prev.carried
                else dataclasses.replace(prev, carried=True)
            )
            self._outcomes[key] = outcome
            outcomes.append(outcome)
        report = DeltaReport(
            version=self.version, delta=delta, outcomes=outcomes,
            retired=retired, added=added, seconds=seconds,
        )
        self.reports.append(report)
        return report

    def _publish(self, report: DeltaReport) -> None:
        """Fold one report's cost split into the metrics registry —
        the series ``repro watch --metrics`` and a future ``repro
        serve`` ``/metrics`` endpoint read."""
        registry = get_registry()
        if not registry.enabled:
            return
        counts = {
            "carried": report.carried,
            "invalidated": report.invalidated,
            "cache_hits": report.cache_hits,
            "solver_runs": report.solver_runs,
            "certificates_reused": report.certificates_reused,
        }
        for name, n in counts.items():
            if n:
                registry.counter(
                    f"repro_session_{name}_total",
                    f"incremental session: {name.replace('_', ' ')} "
                    "summed across deltas",
                ).inc(n)
        registry.gauge(
            "repro_session_version", "current session version"
        ).set(self.version)

    def baseline(self) -> DeltaReport:
        """Version 0: verify every tracked check from scratch (this is
        the one unavoidable full audit; it also warms the cache)."""
        started = time.perf_counter()
        registry = get_registry()
        before = registry.snapshot()
        keys = sorted(self._checks)
        with get_tracer().span("baseline", cat="incremental", checks=len(keys)):
            self._verify_keys(keys)
        report = self._report(None, keys, [], len(keys),
                              time.perf_counter() - started)
        self._publish(report)
        report.metrics = registry.delta_since(before)
        return report

    # ------------------------------------------------------------------
    # The delta loop
    # ------------------------------------------------------------------
    def apply(self, delta: NetworkDelta,
              new_checks: Sequence[Tuple[object, str, Optional[str]]] = ()
              ) -> DeltaReport:
        """Advance one version: apply ``delta``, re-verify exactly the
        checks it can affect, carry every other verdict forward.

        ``new_checks`` are ``(invariant, label, expected)`` triples to
        start tracking at this version (e.g. the invariants of a newly
        provisioned tenant)."""
        return self._apply(delta, new_checks, record=True)

    def _apply(self, delta: NetworkDelta,
               new_checks: Sequence[Tuple[object, str, Optional[str]]],
               record: bool) -> DeltaReport:
        registry = get_registry()
        before = registry.snapshot()
        with get_tracer().span(
            "apply-delta", cat="incremental",
            delta=delta.describe(), version=self.version + 1,
        ) as span:
            report = self._apply_impl(delta, new_checks, record)
            span.tag(
                carried=report.carried,
                invalidated=report.invalidated,
                cache_hits=report.cache_hits,
                solver_runs=report.solver_runs,
                certificates_reused=report.certificates_reused,
            )
        self._publish(report)
        report.metrics = registry.delta_since(before)
        return report

    def _apply_impl(self, delta: NetworkDelta,
                    new_checks: Sequence[Tuple[object, str, Optional[str]]],
                    record: bool) -> DeltaReport:
        started = time.perf_counter()
        old_vmn = self.vmn
        # Snapshot before the in-place mutation: both VMNs alias the
        # topology, so this is the only way to see the old box set.
        old_shared = shared_state_boxes(self.topology)
        old_models = middlebox_models(self.topology, delta.reconfigured_nodes())
        self.steering, inverse = delta.apply(self.topology, self.steering)
        self.version += 1
        self.vmn = self._build_vmn(previous=old_vmn)

        # Checks whose invariants mention nodes that no longer exist
        # cannot be verified (or hold vacuously); they retire.
        retired: List[TrackedCheck] = []
        for key in sorted(self._checks):
            check = self._checks[key]
            mentions = getattr(check.invariant, "mentions", frozenset())
            if any(n not in self.topology for n in mentions):
                retired.append(self._checks.pop(key))
                self._outcomes.pop(key, None)
                self._certificates.pop(key, None)
                self.index.forget(key)

        added_keys = [
            self.track(inv, label=label, expected=expected).key
            for inv, label, expected in new_checks
        ]
        if record:
            self._history.append((inverse, added_keys, retired))

        with get_tracer().span("impact", cat="incremental") as span:
            change = ChangeSummary.between(
                old_vmn, self.vmn, delta, old_shared, old_models)
            invalidated = self.index.invalidated(
                change, [k for k in sorted(self._checks) if k not in added_keys]
            )
            span.tag(invalidated=len(invalidated))
        self._verify_keys(invalidated + added_keys)
        return self._report(delta.describe(), invalidated + added_keys,
                            retired, len(added_keys),
                            time.perf_counter() - started)

    def revert(self) -> DeltaReport:
        """Undo the most recent not-yet-reverted delta (re-tracking any
        checks it retired).  Successive calls unwind the delta stack
        version by version; the warm cache makes returning to a
        previously seen version cheap.  A revert consumes its history
        entry rather than recording one — it rewinds the stack, it does
        not grow it."""
        if not self._history:
            raise ValueError("nothing to revert")
        inverse, added_keys, retired = self._history.pop()
        for key in added_keys:
            self._checks.pop(key, None)
            self._outcomes.pop(key, None)
            self._certificates.pop(key, None)
            self.index.forget(key)
        return self._apply(
            inverse,
            new_checks=[(c.invariant, c.label, c.expected) for c in retired],
            record=False,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def checkpoint(self) -> Optional[dict]:
        """Flush the session's warm state to its persistent store:
        absorb every cached verdict (certificates are filed as they are
        proven), stamp persisting certificates with their blame sets,
        and atomically rewrite the store file.  No-op without a store.
        Returns the store's stats, or ``None``."""
        if self.store is None:
            return None
        if self.cache is not None:
            self.store.absorb_cache(self.cache)
        self._blame_certificates()
        self.store.flush()
        return self.store.stats()

    # ------------------------------------------------------------------
    # Cross-checking
    # ------------------------------------------------------------------
    def audit_from_scratch(self, jobs: Optional[int] = None) -> DeltaReport:
        """What a cold, from-scratch audit of the *current* version
        costs and concludes: fresh VMN, fresh cache, no carried
        verdicts.  Does not touch the session's own state — use it to
        cross-check incremental verdicts or benchmark the saving."""
        started = time.perf_counter()
        vmn = VMN(
            self.topology,
            self.steering,
            scenario=self.scenario,
            cache=ResultCache(),
            # Fresh pool, but honour the session's use_warm choice: a
            # cold session's cross-check must stay cold too.
            use_warm=self.solver_pool is not None,
            **self.vmn_kwargs,
        )
        checks = self.checks
        jobs_list = [
            vmn.job_for(c.invariant, index=i, with_fingerprint=True,
                        prove=self.prove, **self.bmc_kwargs)
            for i, c in enumerate(checks)
        ]
        results = execute_jobs(jobs_list, workers=jobs or self.jobs or 1,
                               cache=vmn.result_cache,
                               solver_pool=vmn.solver_pool)
        outcomes = [
            CheckOutcome(check=c, result=r, carried=False)
            for c, r in zip(checks, results)
        ]
        return DeltaReport(
            version=self.version, delta="full-audit", outcomes=outcomes,
            seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(self, **kwargs):
        """Synthesize a certified patch for the session's mismatched
        checks (see :func:`repro.repair.repair_session`).

        Candidate patches are screened on *this* session — warm cache,
        warm solvers, impact-scoped re-verification — and an accepted
        patch stays applied, advancing the session one version.
        Returns the :class:`repro.repair.RepairResult`."""
        from ..repair.search import repair_session

        return repair_session(self, **kwargs)
