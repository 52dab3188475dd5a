"""The VMN facade — the system of the paper, assembled.

``VMN`` takes a concrete topology (switches and all), a steering policy
(middlebox service chains), and a failure scenario; it computes the
forwarding tables and collapses the static datapath VeriFlow-style,
derives policy equivalence classes, and then verifies reachability
invariants — per invariant on a *slice* whose size is independent of
network size (paper §4.1), and across invariant sets with *symmetry*
grouping (paper §4.2).  Both optimizations can be disabled, which is
exactly the baseline the paper's Figures 7–9 compare against.

On top of the paper's optimizations sits the batch engine
(:mod:`repro.core.engine`): ``verify_all(invariants, jobs=N)`` turns
each symmetry-group check into a picklable job, runs jobs across a
process pool, and reuses verdicts of structurally-identical checks via
a fingerprint cache — deterministically, with the same ordering and
verdicts as the sequential path.

Typical use::

    vmn = VMN(topology, steering)
    result = vmn.verify(FlowIsolation("priv-host", "internet"))
    if result.violated:
        print(result.trace)

    report = vmn.verify_all(all_invariants, jobs=4)
    print(report.summary())
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from ..netmodel.bmc import CheckResult
from ..netmodel.canon import network_fingerprint
from ..netmodel.rules import TransferRule
from ..netmodel.system import VerificationNetwork
from ..obs import get_registry, get_tracer
from ..network.failures import NO_FAILURE, FailureScenario
from ..network.forwarding import ForwardingState, shortest_path_tables
from ..network.topology import Topology
from ..network.transfer import SteeringPolicy, compute_transfer_rules
from .engine import (
    ResultCache,
    SolverPool,
    VerificationJob,
    encoding_key,
    execute_jobs,
    fingerprint,
    resolve_bmc_params,
)
from .invariants import Invariant
from .policy import PolicyClasses, policy_equivalence_classes
from .results import InvariantOutcome, Report
from .slicing import Slice, SliceClosureError, build_slice
from .symmetry import group_invariants

__all__ = ["VMN", "verify_under_failures"]


def verify_under_failures(
    topology: Topology,
    invariant: Invariant,
    steering_for,
    scenarios: Iterable[FailureScenario],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    prove: Optional[str] = None,
    **vmn_kwargs,
):
    """Verify one invariant across a set of static failure scenarios.

    This is the paper's §3.5 failure model: each scenario gets its own
    forwarding tables and transfer function (``steering_for(scenario)``
    supplies the per-scenario chains — e.g. failing over to a backup
    firewall), and the invariant must hold in all of them.  Returns
    ``{scenario name: CheckResult}``.

    Scenarios are independent, so with ``jobs=N`` they are checked in
    parallel; scenarios whose failures do not affect the invariant's
    slice produce structurally identical problems and share one solver
    run through the result cache (pass ``cache=`` to share it further).
    """
    scenario_list = list(scenarios)
    if cache is None and vmn_kwargs.get("use_cache", True):
        cache = ResultCache()
    # One warm pool across scenarios: failure scenarios that resolve to
    # the same slice encoding share a live solver on the inline path.
    solver_pool = (
        SolverPool() if vmn_kwargs.get("use_warm", True) else None
    )
    job_list = []
    for i, scenario in enumerate(scenario_list):
        vmn = VMN(
            topology,
            steering_for(scenario),
            scenario=scenario,
            cache=cache,
            solver_pool=solver_pool,
            **vmn_kwargs,
        )
        job_list.append(vmn.job_for(invariant, index=i, prove=prove))
    results = execute_jobs(
        job_list, workers=jobs or 1, cache=cache, solver_pool=solver_pool
    )
    return {s.name: r for s, r in zip(scenario_list, results)}


class VMN:
    """Verification for Middlebox Networks."""

    def __init__(
        self,
        topology: Topology,
        steering: Optional[SteeringPolicy] = None,
        scenario: FailureScenario = NO_FAILURE,
        tables: Optional[ForwardingState] = None,
        use_slicing: bool = True,
        use_symmetry: bool = True,
        allow_spoofing: bool = False,
        use_cache: bool = True,
        cache: Optional[ResultCache] = None,
        use_warm: bool = True,
        solver_pool: Optional[SolverPool] = None,
        rules: Optional[Tuple[TransferRule, ...]] = None,
    ):
        self.topology = topology
        self.steering = steering or SteeringPolicy()
        self.scenario = scenario
        self.use_slicing = use_slicing
        self.use_symmetry = use_symmetry
        self.allow_spoofing = allow_spoofing
        #: The ``topology.revision`` collapsed here: ``tables``/``rules``
        #: stay valid for it under the same steering and scenario.
        self.revision = topology.revision
        tracer = get_tracer()
        with tracer.span("collapse", cat="audit", reused=rules is not None):
            self.tables = tables if tables is not None else shortest_path_tables(
                topology, scenario
            )
            self.rules = rules if rules is not None else compute_transfer_rules(
                topology, self.tables, self.steering, scenario
            )
        with tracer.span("policy-classes", cat="audit"):
            self.policy_classes: PolicyClasses = policy_equivalence_classes(
                topology, self.steering
            )
        #: Verdict cache shared by ``verify``/``verify_all`` calls on
        #: this instance; pass ``cache=`` to share one across VMNs.
        self.result_cache: Optional[ResultCache] = (
            cache if cache is not None else (ResultCache() if use_cache else None)
        )
        #: Warm solvers shared by every in-process check on this VMN:
        #: invariants resolving to the same slice shape + BMC parameters
        #: reuse one live encoding and its learned clauses.  Pass
        #: ``solver_pool=`` to share across VMNs (e.g. an incremental
        #: session's versions), ``use_warm=False`` to run cold.
        self.solver_pool: Optional[SolverPool] = (
            solver_pool
            if solver_pool is not None
            else (SolverPool() if use_warm else None)
        )
        # Slices are a function of the invariant's mentioned nodes only,
        # so they are memoized per mention set (closure failures too).
        self._slice_cache: Dict[frozenset, Union[Slice, SliceClosureError]] = {}
        self._whole_network: Optional[VerificationNetwork] = None
        self._enc_keys: Dict[tuple, Optional[str]] = {}
        self._config_hash: Optional[str] = None

    def config_hash(self) -> str:
        """Digest of this network version (topology + steering) —
        the configuration identity provenance records carry."""
        if self._config_hash is None:
            fp = network_fingerprint(self.topology, self.steering)
            self._config_hash = hashlib.sha256(
                fp.encode("utf-8")
            ).hexdigest()[:16]
        return self._config_hash

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def whole_network(self) -> VerificationNetwork:
        """The unsliced verification problem (the baseline)."""
        if self._whole_network is None:
            hosts = tuple(
                sorted(
                    n.name
                    for n in self.topology.hosts
                    if self.scenario.node_ok(n.name)
                )
            )
            middleboxes = tuple(
                n.model
                for n in self.topology.middleboxes
                if self.scenario.node_ok(n.name)
            )
            self._whole_network = VerificationNetwork(
                hosts=hosts,
                middleboxes=middleboxes,
                rules=self.rules,
                allow_spoofing=self.allow_spoofing,
            )
        return self._whole_network

    def slice_for(self, invariant: Invariant) -> Slice:
        """The paper's slice for one invariant (may raise
        :class:`SliceClosureError`).  Memoized: repeated calls for the
        same mention set reuse the built slice network."""
        key = frozenset(invariant.mentions)
        cached = self._slice_cache.get(key)
        if cached is None:
            try:
                with get_tracer().span(
                    "slice", cat="audit", mentions=len(key)
                ) as span:
                    cached = build_slice(
                        self.topology,
                        self.rules,
                        self.steering,
                        self.policy_classes,
                        invariant,
                        self.scenario,
                        allow_spoofing=self.allow_spoofing,
                    )
                    span.tag(size=cached.size)
            except SliceClosureError as err:
                cached = err
            self._slice_cache[key] = cached
        if isinstance(cached, SliceClosureError):
            raise cached
        return cached

    def network_for(self, invariant: Invariant) -> Tuple[VerificationNetwork, Optional[int]]:
        """(network, slice_size) actually used for this invariant."""
        if self.use_slicing:
            try:
                sl = self.slice_for(invariant)
                return sl.network, sl.size
            except SliceClosureError:
                pass  # fall back to the whole network
        net = self.whole_network()
        return net, None

    def job_for(
        self,
        invariant: Invariant,
        index: int = 0,
        with_fingerprint: Optional[bool] = None,
        prove: Optional[str] = None,
        **bmc_kwargs,
    ) -> VerificationJob:
        """Package one invariant check as a self-contained, picklable job.

        It depends on this network version only, not on the cache or
        pool that later serve it, so it may be kept and run again.
        ``with_fingerprint`` defaults to whether this VMN owns a result
        cache; pass it explicitly when the job will run against an
        external cache.  ``prove="portfolio"`` turns the job into an
        unbounded proof attempt (the fingerprint covers the mode, so
        bounded and proof verdicts never alias in the cache)."""
        if with_fingerprint is None:
            with_fingerprint = self.result_cache is not None
        net, slice_size = self.network_for(invariant)
        params = resolve_bmc_params(net, invariant, bmc_kwargs)
        fp = None
        if with_fingerprint:
            fp_params = dict(params) if prove is None else {**params, "prove": prove}
            fp = fingerprint(net, invariant, fp_params)
        return VerificationJob(
            index=index,
            network=net,
            invariant=invariant,
            params=params,
            fingerprint=fp,
            slice_size=slice_size,
            warm_key=self._warm_key(net, params),
            prove=prove,
            config_hash=self.config_hash(),
        )

    def _warm_key(self, net: VerificationNetwork, params: dict) -> Optional[str]:
        """Memoized shape key for warm-solver leasing (``None`` for a
        cold, ``use_warm=False`` VMN: nobody will lease by it).

        Slice networks are memoized per mention set, so keying the memo
        by object identity plus the encoding parameters is sound and
        avoids re-canonicalizing the rule set on every check."""
        if self.solver_pool is None:
            return None
        enc_params = {
            "n_packets": params["n_packets"],
            "failure_budget": params["failure_budget"],
            "n_ports": params["n_ports"],
            "n_tags": params["n_tags"],
        }
        memo_key = (id(net),) + tuple(sorted(enc_params.items()))
        if memo_key not in self._enc_keys:
            self._enc_keys[memo_key] = encoding_key(net, enc_params)
        return self._enc_keys[memo_key]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, invariant: Invariant, prove: Optional[str] = None,
               **bmc_kwargs) -> CheckResult:
        """Check one invariant (sliced when possible, cached when seen).

        ``prove="portfolio"`` runs the unbounded proof portfolio
        instead of plain BMC: the result's ``stats`` then carry
        ``guarantee`` (unbounded/bounded), the winning ``proof_engine``
        and — for prover verdicts — the re-checked ``certificate``."""
        job = self.job_for(invariant, prove=prove, **bmc_kwargs)
        return execute_jobs(
            [job], workers=1, cache=self.result_cache,
            solver_pool=self.solver_pool,
        )[0]

    def verify_all(
        self,
        invariants: Sequence[Invariant],
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        prove: Optional[str] = None,
        **bmc_kwargs,
    ) -> Report:
        """Check an invariant set, exploiting symmetry when enabled.

        ``jobs=N`` runs the symmetry-group checks on a pool of N worker
        processes (``jobs=None`` keeps the sequential path); ordering
        and verdicts are identical either way.  ``prove`` upgrades
        every check to the proof portfolio (see :meth:`verify`).
        """
        started = time.perf_counter()
        report = Report()
        with get_tracer().span(
            "verify-all", cat="audit", invariants=len(invariants)
        ) as span:
            if self.use_symmetry:
                groups = group_invariants(invariants, self.policy_classes)
            else:
                groups = [
                    g
                    for inv in invariants
                    for g in group_invariants([inv], self.policy_classes)
                ]
            if cache is None:
                cache = self.result_cache
            job_list = [
                self.job_for(
                    group.representative,
                    index=i,
                    with_fingerprint=cache is not None,
                    prove=prove,
                    **bmc_kwargs,
                )
                for i, group in enumerate(groups)
            ]
            results = execute_jobs(
                job_list, workers=jobs or 1, cache=cache,
                solver_pool=self.solver_pool,
            )
            span.tag(groups=len(groups))
        registry = get_registry()
        for group, job, result in zip(groups, job_list, results):
            report.groups_verified += 1
            for i, inv in enumerate(group.invariants):
                report.outcomes.append(
                    InvariantOutcome(
                        invariant=inv,
                        result=result,
                        slice_size=job.slice_size,
                        via_symmetry=(i > 0),
                        via_cache=bool(result.stats.get("cache_hit")),
                    )
                )
                if i > 0:
                    registry.counter(
                        "repro_symmetry_inherited_total",
                        "verdicts inherited from a symmetry representative",
                    ).inc()
        report.total_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(
        self,
        invariant: Invariant,
        expected: str = "holds",
        protect: Sequence[Invariant] = (),
        apply: bool = False,
        bmc_kwargs: Optional[dict] = None,
        **search_kwargs,
    ):
        """Synthesize a certified patch making ``invariant`` reach its
        ``expected`` verdict (see :func:`repro.repair.repair_session`).

        ``protect`` names invariants whose *current* verdict must
        survive the patch (they are verified once to record it).  With
        ``apply=False`` (the default) the found patch is reverted
        before returning — this facade's precomputed rules stay valid
        and the patch rides in the result for the caller to apply;
        ``apply=True`` leaves the network patched, after which this
        VMN instance is stale and should be rebuilt.

        Returns the :class:`repro.repair.RepairResult`.
        """
        from ..incremental.session import IncrementalSession

        session = IncrementalSession(
            self.topology,
            self.steering,
            scenario=self.scenario,
            cache=self.result_cache,
            use_slicing=self.use_slicing,
            use_symmetry=self.use_symmetry,
            allow_spoofing=self.allow_spoofing,
            bmc_kwargs=bmc_kwargs,
        )
        target = session.track(invariant, expected=expected)
        for inv in protect:
            session.track(inv)
        session.baseline()
        for outcome in session.outcomes:
            if outcome.check.key != target.key:
                outcome.check.expected = outcome.status
        result = session.repair(targets=[target.label or target.describe()],
                                **search_kwargs)
        if result.ok and result.patch_cost and not apply:
            session.revert()
        return result
