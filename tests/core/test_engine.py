"""Tests for the parallel batch-verification engine (fingerprints,
result cache, job dispatch)."""

import pickle

import pytest

from repro.core import VMN, CanReach, FlowIsolation, NodeIsolation
from repro.core.engine import (
    ResultCache,
    execute_jobs,
    fingerprint,
)


class TestFingerprint:
    def test_symmetric_invariants_share_fingerprint(self, enterprise):
        """Two quarantined hosts differ only by name: their sliced
        checks are isomorphic and must canonicalize identically."""
        topo, steering = enterprise(4)
        vmn = VMN(topo, steering)
        job_a = vmn.job_for(NodeIsolation("h1_0", "internet"))
        job_b = vmn.job_for(NodeIsolation("h3_1", "internet"))
        assert job_a.fingerprint is not None
        assert job_a.fingerprint == job_b.fingerprint

    def test_different_invariant_type_differs(self, enterprise):
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering)
        a = vmn.job_for(NodeIsolation("h0_0", "internet")).fingerprint
        b = vmn.job_for(FlowIsolation("h0_0", "internet")).fingerprint
        assert a != b

    def test_direction_matters(self, enterprise):
        """CanReach(a, b) and CanReach(b, a) are different problems on
        an asymmetric network and must not collide."""
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering)
        a = vmn.job_for(CanReach("h0_0", "internet")).fingerprint
        b = vmn.job_for(CanReach("internet", "h0_0")).fingerprint
        assert a != b

    def test_config_differences_break_symmetry(self, enterprise):
        """A quarantined host and a private host see different firewall
        configurations, so their checks must not share a verdict."""
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering)
        quarantined = vmn.job_for(NodeIsolation("h1_0", "internet")).fingerprint
        private = vmn.job_for(NodeIsolation("h0_0", "internet")).fingerprint
        assert quarantined != private

    def test_bmc_params_are_covered(self, enterprise):
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering)
        inv = NodeIsolation("h1_0", "internet")
        a = vmn.job_for(inv).fingerprint
        b = vmn.job_for(inv, n_packets=3).fingerprint
        assert a != b

    def test_unfingerprintable_returns_none(self, enterprise):
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering)
        net, _ = vmn.network_for(NodeIsolation("h1_0", "internet"))

        class Weird:
            mentions = frozenset()

            def __init__(self):
                self.blob = object()  # no __dict__-free serialization

        assert fingerprint(net, Weird(), {}) is None


class TestResultCache:
    def test_repeated_symmetric_invariants_hit_cache(self, enterprise):
        """The ISSUE's cache-hit scenario: verifying one quarantined
        host, then another, must run the solver once."""
        topo, steering = enterprise(4)
        vmn = VMN(topo, steering)
        first = vmn.verify(NodeIsolation("h1_0", "internet"))
        second = vmn.verify(NodeIsolation("h3_0", "internet"))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.status == first.status
        assert vmn.result_cache.hits == 1
        assert len(vmn.result_cache) == 1

    def test_repeated_identical_check_hits_cache(self, enterprise):
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering)
        inv = FlowIsolation("h0_0", "internet")
        assert not vmn.verify(inv).cache_hit
        assert vmn.verify(inv).cache_hit

    def test_cache_disabled(self, enterprise):
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering, use_cache=False)
        assert vmn.result_cache is None
        inv = FlowIsolation("h0_0", "internet")
        assert not vmn.verify(inv).cache_hit
        assert not vmn.verify(inv).cache_hit

    def test_explicit_cache_overrides_disabled_default(self, enterprise):
        """verify_all(cache=...) must be honoured even when the VMN was
        built with use_cache=False."""
        topo, steering = enterprise(4)
        vmn = VMN(topo, steering, use_cache=False, use_symmetry=False)
        shared = ResultCache()
        invariants = [
            NodeIsolation("h1_0", "internet"),
            NodeIsolation("h3_0", "internet"),
        ]
        report = vmn.verify_all(invariants, cache=shared)
        assert len(shared) == 1
        assert report.cache_hits == 1

    def test_shared_cache_across_vmns(self, enterprise):
        topo, steering = enterprise(2)
        shared = ResultCache()
        inv = NodeIsolation("h1_0", "internet")
        first = VMN(topo, steering, cache=shared).verify(inv)
        second = VMN(topo, steering, cache=shared).verify(inv)
        assert not first.cache_hit
        assert second.cache_hit

    def test_counters_and_clear(self):
        cache = ResultCache()
        assert cache.get("k") is None
        assert cache.misses == 1
        cache.put("k", "result")
        assert cache.get("k") == "result"
        assert cache.hits == 1
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestResultCacheEviction:
    """LRU bound on the verdict cache, mirroring the SolverPool tests
    in tests/netmodel/test_bmc_warm.py::TestSolverPoolEviction."""

    def test_unbounded_by_default(self):
        cache = ResultCache()
        for i in range(100):
            cache.put(f"k{i}", i)
        assert len(cache) == 100 and cache.evictions == 0

    def test_insert_past_bound_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a") is None
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" becomes the LRU entry
        cache.put("c", 3)  # evicts "b", not "a"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes "a"; "b" is now LRU
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 10 and cache.get("c") == 3

    def test_contains_peeks_without_touching_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.contains("a")  # must NOT refresh "a"
        hits, misses = cache.hits, cache.misses
        cache.put("c", 3)  # "a" is still LRU → evicted
        assert not cache.contains("a")
        assert cache.contains("b") and cache.contains("c")
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_items_is_lru_oldest_first(self):
        cache = ResultCache(max_entries=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")
        assert [k for k, _ in cache.items()] == ["b", "c", "a"]

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_verdicts_survive_eviction_pressure(self, enterprise):
        """A bound-1 cache still returns correct verdicts — eviction
        must only cost recomputation, never correctness."""
        topo, steering = enterprise(2)
        tight = ResultCache(max_entries=1)
        vmn = VMN(topo, steering, cache=tight, use_symmetry=False)
        invariants = [
            CanReach("internet", "h0_0"),
            NodeIsolation("h1_0", "internet"),
        ]
        first = [vmn.verify(inv) for inv in invariants]
        second = [vmn.verify(inv) for inv in invariants]
        assert [r.status for r in first] == [r.status for r in second]
        assert len(tight) == 1 and tight.evictions >= 1


class TestExecuteJobs:
    def test_jobs_are_picklable(self, enterprise):
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering)
        job = vmn.job_for(NodeIsolation("h1_0", "internet"), index=7)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.index == 7
        assert clone.fingerprint == job.fingerprint
        assert clone.run().status == job.run().status

    def test_batch_dedup_is_deterministic(self, enterprise):
        """Jobs with equal fingerprints run once; results come back in
        job order with the follower marked as a cache hit."""
        topo, steering = enterprise(4)
        vmn = VMN(topo, steering)
        jobs = [
            vmn.job_for(NodeIsolation("h1_0", "internet"), index=0),
            vmn.job_for(NodeIsolation("h3_0", "internet"), index=1),
        ]
        cache = ResultCache()
        results = execute_jobs(jobs, workers=1, cache=cache)
        assert [r.status for r in results] == ["holds", "holds"]
        assert not results[0].cache_hit
        assert results[1].cache_hit
        # The results are rebound to each job's own invariant object.
        assert results[0].invariant is jobs[0].invariant
        assert results[1].invariant is jobs[1].invariant

    def test_known_verdicts_lead_isomorphic_jobs(self, enterprise):
        """A verdict the caller still holds for a check outside the
        batch answers an isomorphic job — with no cache at all — and a
        non-isomorphic job beside it still runs."""
        topo, steering = enterprise(4)
        vmn = VMN(topo, steering, use_cache=False)
        held = vmn.job_for(NodeIsolation("h1_0", "internet"),
                           with_fingerprint=True)
        known = {held.fingerprint: held.run()}
        jobs = [
            vmn.job_for(NodeIsolation("h3_0", "internet"), index=0,
                        with_fingerprint=True),
            vmn.job_for(CanReach("internet", "h0_0"), index=1,
                        with_fingerprint=True),
        ]
        assert jobs[0].fingerprint == held.fingerprint
        results = execute_jobs(jobs, workers=1, known=known)
        assert [r.status for r in results] == ["holds", "violated"]
        assert results[0].cache_hit and not results[1].cache_hit
        assert results[0].invariant is jobs[0].invariant

    def test_pool_results_keep_job_order(self, enterprise):
        topo, steering = enterprise(2)
        vmn = VMN(topo, steering, use_cache=False)
        invariants = [
            CanReach("internet", "h0_0"),  # violated (public-ish reach)
            NodeIsolation("h1_0", "internet"),  # holds (quarantined)
        ]
        jobs = [vmn.job_for(inv, index=i) for i, inv in enumerate(invariants)]
        sequential = [j.run().status for j in jobs]
        parallel = [r.status for r in execute_jobs(jobs, workers=2)]
        assert parallel == sequential


class TestFollowerTraces:
    """A verdict taken from an isomorphic check carries that check's
    node order; its counterexample is renamed through the isomorphism,
    so every row's trace talks about the row's own slice."""

    @staticmethod
    def _audit(cache, use_cache=True, known=None):
        from repro.scenarios.registry import build_scenario

        # repro audit enterprise --size 3 --misconfig --stable-json
        bundle = build_scenario("enterprise", size=3, misconfig=True)
        vmn = bundle.vmn(use_cache=use_cache, cache=cache)
        jobs = [
            vmn.job_for(c.invariant, index=i, canonical_trace=True,
                        with_fingerprint=use_cache or known is not None)
            for i, c in enumerate(bundle.checks)
        ]
        results = execute_jobs(jobs, workers=1, cache=vmn.result_cache,
                               solver_pool=vmn.solver_pool, known=known)
        return jobs, results

    @staticmethod
    def _foreign_names(jobs, results):
        """(label, names) of every trace naming a node outside its slice."""
        out = []
        for job, result in zip(jobs, results):
            if result.trace is None:
                continue
            own = set(job.network.node_names)
            named = {e.frm for e in result.trace.events}
            named |= {e.to for e in result.trace.events if e.to is not None}
            for p in result.trace.packets.values():
                named |= {p.src, p.dst, p.origin}
            if not named <= own:
                out.append((job.invariant.describe(), sorted(named - own)))
        return out

    def test_every_trace_names_its_own_slice_cache_on_and_off(self):
        jobs, cold = self._audit(None, use_cache=False)
        assert not any(r.cache_hit for r in cold)
        assert self._foreign_names(jobs, cold) == []

        cache = ResultCache()
        jobs, first = self._audit(cache)
        followers = [r for r in first if r.cache_hit and r.trace is not None]
        assert followers, "the audit has violated cache followers"
        assert self._foreign_names(jobs, first) == []
        assert [r.status for r in first] == [r.status for r in cold]
        # Here the isomorphism also keeps tuple positions, so a
        # follower's renamed trace is its own canonical trace.
        assert [str(r.trace) for r in first] == [str(r.trace) for r in cold]

    def test_a_cache_round_trip_keeps_the_isomorphism(self):
        cache = ResultCache()
        self._audit(cache)
        restored = ResultCache()
        for key, result in pickle.loads(pickle.dumps(cache.items())):
            restored.put(key, result)
        jobs, again = self._audit(restored)
        assert all(r.cache_hit for r in again)
        assert self._foreign_names(jobs, again) == []
        # Hits of hits: a session hands renamed results back as
        # ``known``; here each check is led by the *last* isomorphic one.
        known = {job.fingerprint: result for job, result in zip(jobs, again)}
        jobs, led = self._audit(None, use_cache=False, known=known)
        assert all(r.cache_hit for r in led)
        assert self._foreign_names(jobs, led) == []

    def test_an_entry_without_an_order_is_left_as_it_is(self):
        cache = ResultCache()
        self._audit(cache)
        for _, result in cache.items():
            result.stats.pop("node_order", None)
        jobs, again = self._audit(cache)
        assert all(r.cache_hit for r in again)
        assert self._foreign_names(jobs, again) != []  # the old behaviour
        assert all("node_order" not in r.stats for r in again)
