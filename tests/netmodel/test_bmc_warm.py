"""Warm BMC deepening vs the cold-restart path.

The contract under test: deepening one warm :class:`IncrementalBMC`
(assert step ``k``'s transition relation, assume the property at depth
``k``, never re-encode the prefix) decides, at every depth, exactly
what a from-scratch encode-and-solve at that depth decides — same
verdicts, and (through canonical counterexample extraction) the same
traces, byte for byte, on the paper's enterprise and datacenter
scenarios.
"""

import pytest

from repro.core.engine import resolve_bmc_params
from repro.netmodel.bmc import (
    HOLDS,
    VIOLATED,
    IncrementalBMC,
    SolverPool,
    check,
    encoding_key,
)
from repro.scenarios import datacenter, enterprise
from repro.smt import SAT, UNSAT


def _enterprise_misconfigured():
    quarantined = [
        h.name
        for h in enterprise(n_subnets=2).topology.hosts
        if h.name.startswith("quar")
    ]
    return enterprise(n_subnets=2, deny_deleted_for=tuple(quarantined[:1]))


def _datacenter_misconfigured():
    return datacenter(n_groups=2, delete_rules=1, seed=0)


def _pick(bundle, expected):
    for check_ in bundle.checks:
        if check_.expected == expected:
            return check_.invariant
    pytest.skip(f"no {expected} check in {bundle.name}")


def _problem(bundle, expected):
    vmn = bundle.vmn()
    invariant = _pick(bundle, expected)
    net, _ = vmn.network_for(invariant)
    params = resolve_bmc_params(net, invariant, {})
    return net, invariant, params


_SCENARIOS = {
    "enterprise": _enterprise_misconfigured,
    "datacenter": _datacenter_misconfigured,
}

# Clean variants for the holds-side comparison (the misconfigured
# bundles' holding invariants are fewer and depend on the injection
# seed, so holds-side sampling uses the well-configured networks).
_CLEAN_SCENARIOS = {
    "enterprise": lambda: enterprise(n_subnets=2),
    "datacenter": lambda: datacenter(n_groups=2),
}


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
class TestWarmDeepening:
    def test_violated_verdicts_match_cold_restart_per_depth(self, name):
        net, invariant, params = _problem(_SCENARIOS[name](), VIOLATED)
        depth = params["depth"]
        warm = IncrementalBMC(
            net, n_packets=params["n_packets"], depth=depth,
            failure_budget=params["failure_budget"],
            n_ports=params["n_ports"], n_tags=params["n_tags"],
        )
        # Deepen the single warm instance until the violation appears.
        first_sat = None
        warm_verdicts = []
        for k in range(1, depth + 1):
            verdict = warm.check_at(invariant, k)
            warm_verdicts.append(verdict)
            if verdict == SAT:
                first_sat = k
                break
        assert first_sat is not None, "expected a violation"
        assert warm.asserted_depth == first_sat  # prefix never re-encoded

        # The cold-restart path re-encodes a fresh model per depth.
        for k, warm_verdict in enumerate(warm_verdicts, start=1):
            cold = check(net, invariant, depth=k, **{
                key: params[key]
                for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
            })
            want = VIOLATED if warm_verdict == SAT else HOLDS
            assert cold.status == want, f"depth {k}"

    def test_canonical_traces_byte_identical_warm_vs_cold(self, name):
        net, invariant, params = _problem(_SCENARIOS[name](), VIOLATED)
        kwargs = {
            key: params[key]
            for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
        }
        warm = IncrementalBMC(net, depth=params["depth"], **kwargs)
        # Deepen until the violation appears, then canonicalize it.
        first_sat = next(
            k for k in range(1, params["depth"] + 1)
            if warm.check_at(invariant, k) == SAT
        )
        deep = warm.canonical_trace(invariant, first_sat, presolved=True)
        # A second run on the now-warm solver: learned clauses and all.
        again = warm.canonical_trace(invariant, first_sat)
        # The cold path encodes the violating depth from scratch.
        cold = check(net, invariant, depth=first_sat, canonical_trace=True,
                     **kwargs)
        assert cold.status == VIOLATED
        assert str(deep) == str(cold.trace)
        assert str(again) == str(cold.trace)
        assert "sends" in str(cold.trace)

    def test_holding_invariant_matches_cold_at_sampled_depths(self, name):
        net, invariant, params = _problem(_CLEAN_SCENARIOS[name](), HOLDS)
        depth = params["depth"]
        kwargs = {
            key: params[key]
            for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
        }
        warm = IncrementalBMC(net, depth=depth, **kwargs)
        for k in sorted({1, depth // 2, depth}):
            assert warm.check_at(invariant, k) == UNSAT, f"depth {k}"
            cold = check(net, invariant, depth=k, **kwargs)
            assert cold.status == HOLDS, f"depth {k}"
        one_shot = check(net, invariant, **kwargs)
        assert one_shot.status == HOLDS
        assert one_shot.depth == depth


class TestDepthBounds:
    """Out-of-range depths fail loudly, not with a silent wrong model."""

    def _driver(self):
        net, invariant, params = _problem(_CLEAN_SCENARIOS["datacenter"](), HOLDS)
        kwargs = {
            key: params[key]
            for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
        }
        return IncrementalBMC(net, depth=4, **kwargs), invariant

    def test_check_at_rejects_out_of_range_depths(self):
        driver, invariant = self._driver()
        for bad in (-1, driver.model_depth + 1):
            with pytest.raises(ValueError, match="outside"):
                driver.check_at(invariant, bad)
        # The failed calls must not have polluted the assertion state.
        assert driver.check_at(invariant, driver.model_depth) in (SAT, UNSAT)

    def test_at_depth_view_rejects_out_of_range_depths(self):
        driver, _ = self._driver()
        ctx = driver.model.ctx
        for bad in (-1, ctx.depth + 1):
            with pytest.raises(ValueError, match="outside"):
                ctx.at_depth(bad)
        view = ctx.at_depth(2)
        assert view.depth == 2
        # The clamped view delegates everything else to the parent
        # context, including re-clamping.
        assert view.at_depth(ctx.depth) is ctx

    def test_extend_to_clamps_instead_of_overshooting(self):
        driver, _ = self._driver()
        driver.extend_to(driver.model_depth + 50)
        assert driver.asserted_depth == driver.model_depth


class TestSolverPoolEviction:
    def test_lease_after_lru_eviction_returns_fresh_correct_solver(self):
        """Filling the pool past ``max_entries`` evicts the least-
        recently-used driver; leasing the evicted key again must build
        a fresh solver that still answers correctly."""
        bundle = _datacenter_misconfigured()
        vmn = bundle.vmn()
        invariant = _pick(bundle, VIOLATED)
        net, _ = vmn.network_for(invariant)
        params = resolve_bmc_params(net, invariant, {})
        kwargs = {
            key: params[key]
            for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
        }
        pool = SolverPool(max_entries=2)

        def factory():
            return IncrementalBMC(net, depth=params["depth"], **kwargs)

        first, warm = pool.lease("slice-a", params["depth"], factory)
        assert not warm
        verdict_before = first.check_at(invariant, params["depth"])
        pool.lease("slice-b", params["depth"], factory)
        pool.lease("slice-c", params["depth"], factory)  # evicts slice-a
        assert len(pool) == 2
        again, warm = pool.lease("slice-a", params["depth"], factory)
        assert not warm  # the eviction really happened
        assert again is not first
        # The fresh driver starts cold and agrees with the evicted one.
        assert again.asserted_depth == 0
        assert again.checks == 0
        assert again.check_at(invariant, params["depth"]) == verdict_before

    def test_shallow_cached_driver_is_rebuilt_for_deeper_lease(self):
        bundle = _datacenter_misconfigured()
        vmn = bundle.vmn()
        invariant = _pick(bundle, VIOLATED)
        net, _ = vmn.network_for(invariant)
        params = resolve_bmc_params(net, invariant, {})
        kwargs = {
            key: params[key]
            for key in ("n_packets", "failure_budget", "n_ports", "n_tags")
        }
        pool = SolverPool()
        shallow, _ = pool.lease(
            "k", 2, lambda: IncrementalBMC(net, depth=2, **kwargs)
        )
        deeper, warm = pool.lease(
            "k", 4, lambda: IncrementalBMC(net, depth=4, **kwargs)
        )
        assert not warm and deeper is not shallow
        assert deeper.model_depth >= 4


class TestSolverSharing:
    def test_invariants_sharing_a_slice_share_one_warm_solver(self):
        bundle = _enterprise_misconfigured()
        vmn = bundle.vmn()
        pool = vmn.solver_pool
        assert pool is not None
        report = vmn.verify_all(bundle.invariants)
        assert pool.hits + pool.misses > 0
        assert len(pool) <= pool.max_entries
        by_inv = {id(o.invariant): o.status for o in report}
        for check_ in bundle.checks:
            assert by_inv[id(check_.invariant)] == check_.expected, check_.label

    def test_warm_and_cold_engines_agree(self):
        bundle = _datacenter_misconfigured()
        warm_report = bundle.vmn(use_warm=True).verify_all(bundle.invariants)
        cold_report = bundle.vmn(use_warm=False).verify_all(bundle.invariants)
        assert [o.status for o in warm_report] == [
            o.status for o in cold_report
        ]

    def test_encoding_key_is_the_shape_not_the_name_table(self):
        bundle = _enterprise_misconfigured()
        vmn = bundle.vmn()
        nets = []
        for check_ in bundle.checks:
            net, _ = vmn.network_for(check_.invariant)
            params = resolve_bmc_params(net, check_.invariant, {})
            key = encoding_key(net, {
                k: params[k]
                for k in ("n_packets", "failure_budget", "n_ports", "n_tags")
            })
            assert key is not None
            nets.append((net, params, key))
        # Same network object + params => same key.
        seen = {}
        for net, params, key in nets:
            probe = (id(net), params["n_packets"], params["failure_budget"])
            if probe in seen:
                assert seen[probe] == key
            else:
                seen[probe] = key
        # The key holds positions, never names: equal keys mean equal
        # sizes, and some pair of differently-named slices shares one
        # (tests/netmodel/test_shape_pool.py checks what sharing does).
        assert not any(name in key for net, _, key in nets for name in net.addresses)
        shared = 0
        for (net_a, _, key_a) in nets:
            for (net_b, _, key_b) in nets:
                if key_a == key_b:
                    assert len(net_a.hosts) == len(net_b.hosts)
                    assert len(net_a.middleboxes) == len(net_b.middleboxes)
                    shared += net_a.node_names != net_b.node_names
        assert shared > 0
