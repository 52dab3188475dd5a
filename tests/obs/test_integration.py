"""Observability threaded through the stack: spans and counters from a
real verification, deterministic multiprocessing merges, per-delta
session attribution, and the CLI round trip."""

import json

from repro import obs
from repro.cli import main
from repro.core.engine import execute_jobs
from repro.incremental import EditPolicyRules, IncrementalSession, LinkDown
from repro.scenarios import enterprise, enterprise_firewall_churn


def _audit_bundle():
    return enterprise(n_subnets=3)


class TestStackSpans:
    def test_audit_records_the_span_hierarchy(self):
        bundle = _audit_bundle()
        with obs.observe(meta={"command": "test"}) as (tracer, registry):
            with tracer.span("audit", cat="cli"):
                vmn = bundle.vmn()
                jobs = [vmn.job_for(c.invariant, index=i)
                        for i, c in enumerate(bundle.checks)]
                execute_jobs(jobs, cache=vmn.result_cache,
                             solver_pool=vmn.solver_pool)
        assert tracer.open_spans == 0
        cats = {r["cat"] for r in tracer.records()}
        assert {"cli", "engine", "bmc", "smt", "audit"} <= cats
        snapshot = registry.snapshot()
        assert snapshot["repro_engine_jobs_total"] > 0
        assert any(k.startswith("repro_solver_conflicts_total")
                   for k in snapshot)

    def test_solver_spans_nest_under_bmc_checks(self):
        bundle = _audit_bundle()
        with obs.observe() as (tracer, _):
            vmn = bundle.vmn()
            jobs = [vmn.job_for(c.invariant, index=i)
                    for i, c in enumerate(bundle.checks)]
            execute_jobs(jobs, cache=vmn.result_cache,
                         solver_pool=vmn.solver_pool)
        spans = {r["id"]: r for r in tracer.records()}
        solves = [r for r in tracer.records()
                  if r["name"] == "solve" and r["cat"] == "smt"]
        assert solves
        for solve in solves:
            chain = set()
            node = solve
            while node.get("parent"):
                node = spans[node["parent"]]
                chain.add((node["cat"], node["name"]))
            assert ("bmc", "check") in chain

    def test_disabled_stack_records_nothing(self):
        bundle = _audit_bundle()
        vmn = bundle.vmn()
        jobs = [vmn.job_for(c.invariant, index=i)
                for i, c in enumerate(bundle.checks)]
        execute_jobs(jobs, cache=vmn.result_cache,
                     solver_pool=vmn.solver_pool)
        assert obs.get_tracer().records() == []
        assert obs.get_registry().snapshot() == {}


class TestMultiprocessingMerge:
    def test_worker_spans_merge_under_the_batch_span(self):
        bundle = _audit_bundle()
        with obs.observe() as (tracer, registry):
            vmn = bundle.vmn(use_cache=False)
            jobs = [vmn.job_for(c.invariant, index=i)
                    for i, c in enumerate(bundle.checks)]
            execute_jobs(jobs, workers=2, solver_pool=vmn.solver_pool)
        records = tracer.records()
        batch, = [r for r in records if r["name"] == "execute-jobs"]
        worker_jobs = [r for r in records if r["name"] == "job"]
        assert len(worker_jobs) == len(jobs)
        for job in worker_jobs:
            assert job["parent"] == batch["id"]
        # Worker-side children keep their links after the id remap.
        by_id = {r["id"]: r for r in records}
        checks = [r for r in records if r["name"] == "check"]
        assert checks
        for check in checks:
            assert by_id[check["parent"]]["name"] == "job"
        # Worker counters fold into the parent registry.
        assert registry.counter("repro_engine_jobs_total").value() \
            == len(jobs)
        assert registry.counter("repro_solver_conflicts_total").value() > 0

    def test_merge_order_is_job_index_order(self):
        """Worker payloads are adopted sorted by job index, not by
        completion order, so the merged timeline is scheduling-
        independent: the i-th adopted "job" span carries job=i.

        (The spans *inside* a job vary run to run — solver tie-breaking
        depends on per-process interning — which is exactly why the
        merge must not additionally depend on which worker finished
        first.)"""
        bundle = _audit_bundle()
        with obs.observe() as (tracer, _):
            vmn = bundle.vmn(use_cache=False)
            jobs = [vmn.job_for(c.invariant, index=i)
                    for i, c in enumerate(bundle.checks)]
            execute_jobs(jobs, workers=3, solver_pool=vmn.solver_pool)
        adopted = [r for r in tracer.records() if r["name"] == "job"]
        assert [r["args"]["job"] for r in adopted] == list(range(len(jobs)))
        # Ids were assigned during adoption, so they rise with job index.
        assert [r["id"] for r in adopted] == sorted(r["id"] for r in adopted)


class TestSessionAttribution:
    def test_delta_reports_carry_registry_deltas(self):
        bundle = _audit_bundle()
        events = enterprise_firewall_churn(bundle, n_events=2, seed=0)
        with obs.observe():
            session = IncrementalSession.from_bundle(bundle)
            baseline = session.baseline()
            reports = [session.apply(e.delta, new_checks=e.new_checks)
                       for e in events]
        assert baseline.metrics  # solver work is attributed per version
        for report in reports:
            carried = report.metrics.get("repro_session_carried_total", 0)
            assert carried == report.carried or report.carried == 0
        session_keys = {k for r in reports for k in r.metrics
                        if k.startswith("repro_session_")}
        assert "repro_session_version" in session_keys

    def test_collapse_is_a_span_and_its_reuse_a_metric(self):
        """What a delta re-derives shows in the trace and the report:
        ``impact``, ``collapse`` (tagged reused) and ``policy-classes``
        are child spans of ``apply-delta``; a config push counts one
        reused datapath, a link flap none."""
        bundle = _audit_bundle()
        with obs.observe() as (tracer, _):
            session = IncrementalSession.from_bundle(bundle)
            session.baseline()
            pushed = session.apply(
                EditPolicyRules("fw", add=(("badguy", "priv1_0"),)))
            flapped = session.apply(LinkDown("subnet1", "backbone"))
        assert pushed.metrics["repro_session_datapath_reused_total"] == 1
        assert "repro_session_datapath_reused_total" not in flapped.metrics

        records = tracer.records()
        deltas = [r for r in records if r["name"] == "apply-delta"]
        assert len(deltas) == 2
        for delta, reused in zip(deltas, (True, False)):
            children = {r["name"]: r for r in records
                        if r["parent"] == delta["id"]}
            assert {"impact", "collapse", "policy-classes"} <= set(children)
            assert children["collapse"]["args"]["reused"] is reused
        # A cold facade (the session's first) collapses under whatever
        # span is open — here none — with the same two names.
        cold = [r for r in records
                if r["name"] in ("collapse", "policy-classes")
                and r["parent"] is None]
        assert [r["name"] for r in cold] == ["collapse", "policy-classes"]
        assert cold[0]["args"]["reused"] is False

    def test_disabled_session_reports_empty_metrics(self):
        bundle = _audit_bundle()
        session = IncrementalSession.from_bundle(bundle)
        assert session.baseline().metrics == {}


class TestCliRoundTrip:
    def test_trace_metrics_stats_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        prom = tmp_path / "run.prom"
        rc = main(["audit", "enterprise", "--json",
                   "--trace", str(trace), "--metrics", str(prom)])
        assert rc == 1  # expected violations in the scenario
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatches"] == 0

        record = json.loads(trace.read_text())
        assert record["schema"] == obs.SCHEMA
        assert record["meta"]["command"] == "audit"
        assert record["meta"]["scenario"] == "enterprise"
        roots = [s for s in record["spans"] if s["parent"] is None]
        assert [r["name"] for r in roots] == ["audit"]
        # >=95% of the command's wall time sits under the root span.
        root_dur = roots[0]["dur"]
        assert root_dur >= 0.95 * record["meta"]["wall_seconds"]

        text = prom.read_text()
        assert "repro_engine_jobs_total" in text
        assert "repro_solver_conflicts_total" in text

        rc = main(["stats", str(trace), "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bmc:check" in out
        assert "wall-time coverage" in out

    def test_cli_disables_observability_afterwards(self, tmp_path):
        main(["audit", "enterprise", "--json",
              "--trace", str(tmp_path / "t.json")])
        assert not obs.enabled()

    def test_watch_surfaces_reuse_counters(self, capsys):
        rc = main(["watch", "enterprise", "--deltas", "2", "--json"])
        assert rc == 1  # expected violations in the scenario
        payload = json.loads(capsys.readouterr().out)
        assert "certificates_reused" in payload["totals"]
        for row in [payload["baseline"], *payload["versions"]]:
            assert "certificates_reused" in row
            assert "metrics" in row

    def test_watch_metrics_populated_when_traced(self, tmp_path, capsys):
        rc = main(["watch", "enterprise", "--deltas", "2", "--json",
                   "--trace", str(tmp_path / "w.json")])
        assert rc == 1  # expected violations in the scenario
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"]["metrics"]  # registry deltas attached
        record = json.loads((tmp_path / "w.json").read_text())
        names = {s["name"] for s in record["spans"]}
        assert {"watch", "baseline", "apply-delta"} <= names

    def test_stats_on_missing_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/trace.json"]) == 2

    def test_stable_json_drops_metrics(self, capsys):
        rc = main(["watch", "enterprise", "--deltas", "2", "--stable-json"])
        assert rc == 1  # expected violations in the scenario
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload["baseline"]
