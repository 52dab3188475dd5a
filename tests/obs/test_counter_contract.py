"""The solver-counter contract between the registry and the stack.

``repro.obs.SOLVER_COUNTER_KEYS`` is THE definition of the solver's
cumulative work counters; ``repro.netmodel.bmc.SOLVER_COUNTERS`` (the
historical import path used by the CLI and the proof portfolio) must be
the very same tuple, and every key must exist in ``SatSolver.stats()``.
This pins the invariant that retired the PR-6 bug class of three
modules each holding a drifting private ``_COUNTER_KEYS`` copy.
"""

import pytest

from repro import obs
from repro.core.invariants import NodeIsolation
from repro.mboxes import LearningFirewall
from repro.netmodel import HeaderMatch, TransferRule, VerificationNetwork
from repro.netmodel import bmc, unrolling
from repro.obs import SOLVER_COUNTER_KEYS, SOLVER_GAUGE_KEYS
from repro.obs.metrics import MetricsRegistry, solver_counter_snapshot
from repro.proof import portfolio, transition
from repro.smt import Solver
from repro.smt.sat import SatSolver


class TestSingleDefinition:
    def test_bmc_reexport_is_the_same_object(self):
        assert bmc.SOLVER_COUNTERS is SOLVER_COUNTER_KEYS

    def test_portfolio_keys_off_the_same_tuple(self):
        assert portfolio._COUNTER_KEYS is SOLVER_COUNTER_KEYS

    def test_both_drivers_project_through_the_canonical_snapshot(self):
        """One ``counters()`` on the shared base, not a copy per driver."""
        assert unrolling.solver_counter_snapshot is solver_counter_snapshot
        assert bmc.IncrementalBMC.counters is unrolling.Unrolling.counters
        assert transition.TransitionSystem.counters is unrolling.Unrolling.counters

    def test_stats_keys_are_exactly_counters_plus_gauges(self):
        stats = SatSolver().stats()
        assert set(stats) == set(SOLVER_COUNTER_KEYS) | set(SOLVER_GAUGE_KEYS)
        assert not set(SOLVER_COUNTER_KEYS) & set(SOLVER_GAUGE_KEYS)


class TestSnapshotProjection:
    def test_projection_covers_every_counter(self):
        snap = solver_counter_snapshot(SatSolver().stats())
        assert tuple(snap) == SOLVER_COUNTER_KEYS

    def test_missing_keys_read_zero(self):
        """Pickled pre-inprocessing solver stats still project."""
        snap = solver_counter_snapshot({"conflicts": 3})
        assert snap["conflicts"] == 3
        assert snap["subsumed"] == 0

    def test_registry_absorbs_a_delta(self):
        r = MetricsRegistry()
        r.record_solver({"conflicts": 7, "restarts": 2, "decisions": 0})
        assert r.counter("repro_solver_conflicts_total").value() == 7
        assert r.counter("repro_solver_restarts_total").value() == 2
        # Zero deltas declare nothing — the snapshot stays sparse.
        assert r.get("repro_solver_decisions_total") is None


# ----------------------------------------------------------------------
# Encoder counters: one dict on the converter, four consumers
# ----------------------------------------------------------------------
ENCODER_KEYS = ("terms", "clauses", "lits", "flushes", "steps_instanced")


def _firewalled(ext="ext", priv="priv", fw="fw"):
    rules = (
        TransferRule.of(HeaderMatch.of(dst={priv}), to=fw, from_nodes={ext}),
        TransferRule.of(HeaderMatch.of(dst={priv}), to=priv, from_nodes={fw}),
    )
    return VerificationNetwork(
        hosts=(ext, priv),
        middleboxes=(LearningFirewall(fw, allow=[]),),
        rules=rules,
    )


_PARAMS = dict(n_packets=1, failure_budget=0, n_ports=3, n_tags=2)


class TestEncoderCounters:
    def test_the_solver_reports_exactly_the_contract_keys(self):
        assert tuple(Solver().encoder_counters()) == ENCODER_KEYS

    def test_driver_spans_carry_encoder_deltas_and_template_shape(self):
        """``bmc:encode`` / ``bmc:extend`` and their proof twins tag the
        encoder work they did, plus the template's size — and a step
        asserted from the template walks (next to) no term."""
        with obs.observe() as (tracer, registry):
            driver = bmc.IncrementalBMC(_firewalled(), depth=5, **_PARAMS)
            driver.check_at(NodeIsolation("priv", "ext"), 2)
            driver.check_at(NodeIsolation("priv", "ext"), 5)
            ts = transition.TransitionSystem(_firewalled(), depth=3, **_PARAMS)
            ts.extend_to(3)
        spans = {}
        for record in tracer.records():
            spans.setdefault((record["cat"], record["name"]), []).append(record["args"])
        for key in (("bmc", "encode"), ("bmc", "extend"),
                    ("proof", "transition-encode"), ("proof", "transition-extend")):
            for args in spans[key]:
                assert set(ENCODER_KEYS + ("template_ints", "rigid_vars")) <= set(args)
                assert args["template_ints"] > 0 and args["rigid_vars"] > 0
        encode, = spans[("bmc", "encode")]
        assert encode["steps_instanced"] == 0 and encode["terms"] > 100
        first, second = spans[("bmc", "extend")]
        assert (first["from_depth"], first["to_depth"]) == (0, 2)
        assert first["steps_instanced"] == 2 and second["steps_instanced"] == 3
        # Ints handed to the SAT core per instantiated step are the
        # template's, constant in t (step 0's definitions were recorded
        # at construction, so it only costs its root units).
        per_step = second["lits"] / 3
        assert encode["template_ints"] <= per_step <= encode["template_ints"] + 40
        assert second["terms"] <= 3 * 12  # event domain constraints only
        snapshot = registry.snapshot()
        assert snapshot["repro_encoder_steps_instanced_total"] == 2 + 3 + 3
        for key in ENCODER_KEYS:
            assert snapshot[f"repro_encoder_{key}_total"] > 0

    def test_stats_prints_the_encoder_series(self, tmp_path):
        with obs.observe() as (tracer, registry):
            with tracer.span("audit", cat="cli"):
                bmc.IncrementalBMC(_firewalled(), depth=3, **_PARAMS).extend_to(3)
        out = str(tmp_path / "run.json")
        obs.write_run_record(out, tracer, registry, meta={"command": "audit"})
        text = obs.render_stats(obs.load_trace(out))
        assert "steps instanced" in text
        assert "repro_encoder_steps_instanced_total" in text


# ----------------------------------------------------------------------
# Proof-search counters: how the engines phrased their queries
# ----------------------------------------------------------------------
QUERY_TAGS = ("queries", "temp_clauses", "vocab_lits")


class TestProofQueryCounters:
    def test_rounds_and_minimise_tag_their_queries(self, tmp_path):
        """``proof:engine-round`` / ``proof:minimize`` say how many
        queries a turn issued, how many carried a single-query clause
        and how large the compiled vocabulary was; the clauses sum into
        ``repro_proof_temp_clauses_total``, which ``repro stats`` prints."""
        invariant = NodeIsolation("priv", "ext")
        with obs.observe() as (tracer, registry):
            with tracer.span("prove", cat="cli"):
                result = portfolio.prove_portfolio(
                    _firewalled(), invariant, max_k=0, **_PARAMS
                )
        assert result.holds and result.engine == "ic3"
        assert result.minimize is not None
        rounds = [
            r["args"] for r in tracer.records()
            if (r["cat"], r["name"]) == ("proof", "engine-round")
        ]
        shrink, = [
            r["args"] for r in tracer.records()
            if (r["cat"], r["name"]) == ("proof", "minimize")
        ]
        for args in rounds + [shrink]:
            assert set(QUERY_TAGS) <= set(args)
            assert 0 <= args["temp_clauses"] <= args["queries"]
        by_engine = {}
        for args in rounds:
            by_engine.setdefault(args["engine"], []).append(args)
        assert all(a["temp_clauses"] == 0 for a in by_engine["bmc"])
        assert sum(a["temp_clauses"] for a in by_engine["ic3"]) > 0
        assert shrink["queries"] == result.minimize.solver_checks
        assert 0 < shrink["temp_clauses"] <= shrink["queries"]
        # The vocabulary is compiled by the search and only read afterwards.
        assert shrink["vocab_lits"] == max(a["vocab_lits"] for a in rounds) > 0
        issued = sum(a["temp_clauses"] for a in rounds) + shrink["temp_clauses"]
        snapshot = registry.snapshot()
        assert snapshot["repro_proof_temp_clauses_total"] == issued
        assert sum(a["queries"] for a in rounds) + shrink["queries"] == \
            result.solver_checks
        out = str(tmp_path / "run.json")
        obs.write_run_record(out, tracer, registry, meta={"command": "prove"})
        text = obs.render_stats(obs.load_trace(out))
        assert "single-query clauses" in text
        assert "repro_proof_temp_clauses_total" in text
        assert "repro_ic3_frame_extensions_total" in text


# ----------------------------------------------------------------------
# Pool leases: three outcomes, one counter, the pool's own tallies
# ----------------------------------------------------------------------
class TestPoolLeaseCounters:
    def test_leases_count_by_outcome_and_spans_say_shared(self, tmp_path):
        """miss = built, hit = leased under the names it was built for,
        shared = leased by a slice of the same shape under other names;
        ``bmc:check`` / ``proof:prove`` spans carry ``shared``, the
        registry and the pool agree, and ``repro stats`` prints them."""
        pool = bmc.SolverPool()
        problems = [
            (_firewalled(), NodeIsolation("priv", "ext")),             # miss
            (_firewalled(), NodeIsolation("priv", "ext")),             # hit
            (_firewalled("wan", "lan", "box"), NodeIsolation("lan", "wan")),
        ]
        with obs.observe() as (tracer, registry):
            with tracer.span("audit", cat="cli"):
                for net, invariant in problems:
                    bmc.check(net, invariant, warm=pool, **_PARAMS)
                portfolio.prove_portfolio(
                    _firewalled("wan", "lan", "box"),
                    NodeIsolation("lan", "wan"), warm=pool, max_k=0, **_PARAMS
                )
        checks = [
            r["args"] for r in tracer.records()
            if (r["cat"], r["name"]) == ("bmc", "check")
        ]
        assert [(a["warm"], a["shared"]) for a in checks] == \
            [(False, False), (True, False), (True, True)]
        prove, = [
            r["args"] for r in tracer.records()
            if (r["cat"], r["name"]) == ("proof", "prove")
        ]
        # The BMC driver is the audit's (shared); the system is new.
        assert prove["shared"] is True
        assert (pool.hits, pool.shared, pool.misses) == (1, 2, 2)
        snapshot = registry.snapshot()
        for outcome, count in (("hit", 1), ("shared", 2), ("miss", 2)):
            key = f'repro_solver_pool_leases_total{{outcome="{outcome}"}}'
            assert snapshot[key] == count
        out = str(tmp_path / "run.json")
        obs.write_run_record(out, tracer, registry, meta={"command": "audit"})
        text = obs.render_stats(obs.load_trace(out))
        assert "warm-solver leases" in text
        assert 'repro_solver_pool_leases_total{outcome="shared"}' in text


# ----------------------------------------------------------------------
# Prepared audits: one counter, two outcomes, the service's own tallies
# ----------------------------------------------------------------------
class TestPreparedCounters:
    def test_requests_count_by_outcome_and_status_agrees(self):
        """miss = the spec's prepared half was built for this request,
        hit = it was kept from an earlier one; ``watch`` and the other
        session commands never touch the memo."""
        from repro.serve.service import BadRequest, VerificationService

        spec = {"command": "audit", "scenario": "isp", "size": 2}
        with obs.observe() as (_tracer, registry):
            service = VerificationService(soft_deadline_seconds=0)
            try:
                for request in (spec, spec, dict(spec, seed=1), spec,
                                dict(spec, command="prove")):
                    service.handle(request)
                with pytest.raises(BadRequest, match="store"):
                    service.handle(dict(spec, command="history"))
                status = service.status()["prepared"]
            finally:
                service.close()
        snapshot = registry.snapshot()
        assert snapshot['repro_serve_prepared_total{outcome="miss"}'] == 3
        assert snapshot['repro_serve_prepared_total{outcome="hit"}'] == 2
        assert status == {"entries": 3, "hits": 2, "misses": 3}
