"""Tests for the transport-independent verification service core.

The headline contract: a server-mediated run and a cold in-process run
of the same request spec produce the *same stable payload* — warmth
(resident caches, warm solvers, persisted certificates) may only change
the cost fields that ``--stable-json`` strips, never a verdict or a
counterexample trace.
"""

import json
import threading
import time

import pytest

from repro.cli import _strip_unstable
from repro.serve.service import (
    BadRequest,
    PROTOCOL,
    ServiceBusy,
    VerificationService,
    normalize_spec,
    payload_exit_code,
    run_audit,
    run_watch,
)


def _spec(command="audit", scenario="enterprise", **kw):
    spec = {"command": command, "scenario": scenario, "size": 2,
            "stable": True}
    spec.update(kw)
    return spec


def _stable(payload):
    """Canonical bytes of the warm-state-independent payload view."""
    return json.dumps(_strip_unstable(payload), indent=2, sort_keys=True)


class TestNormalizeSpec:
    def test_defaults_are_filled(self):
        spec = normalize_spec({"command": "audit", "scenario": "isp"})
        assert spec["size"] is None
        assert spec["seed"] == 0
        assert spec["deltas"] == 10

    def test_unknown_command_rejected(self):
        with pytest.raises(BadRequest):
            normalize_spec({"command": "explode", "scenario": "isp"})

    def test_missing_scenario_rejected(self):
        with pytest.raises(BadRequest):
            normalize_spec({"command": "audit"})

    def test_non_dict_rejected(self):
        with pytest.raises(BadRequest):
            normalize_spec(["audit"])

    def test_unknown_keys_are_dropped(self):
        spec = normalize_spec(
            {"command": "audit", "scenario": "isp", "bogus": 1}
        )
        assert "bogus" not in spec


class TestColdWarmParity:
    """Warm state must never change what a request *means*."""

    def test_audit_stable_payload_identical_cold_and_warm(self):
        service = VerificationService()
        spec = _spec()
        cold = _stable(run_audit(spec))
        warm1 = _stable(service.handle(spec)["payload"])
        warm2 = _stable(service.handle(spec)["payload"])
        assert cold == warm1 == warm2

    def test_prove_stable_payload_identical_cold_and_warm(self):
        service = VerificationService()
        spec = _spec(command="prove")
        cold = _stable(run_audit(spec))
        warm = _stable(service.handle(spec)["payload"])
        assert cold == warm

    def test_watch_stable_payload_identical_cold_and_warm(self):
        service = VerificationService()
        # Enterprise churn needs the quarantine tier, present from size 3.
        spec = _spec(command="watch", size=3, deltas=3)
        cold = _stable(run_watch(spec))
        warm1 = _stable(service.handle(spec)["payload"])
        warm2 = _stable(service.handle(spec)["payload"])
        assert cold == warm1 == warm2

    def test_exit_code_parity(self):
        service = VerificationService()
        spec = _spec()
        cold_rc = payload_exit_code(run_audit(spec))
        envelope = service.handle(spec)
        assert envelope["exit_code"] == cold_rc
        assert envelope["protocol"] == PROTOCOL

    def test_warm_run_is_actually_warm(self):
        """The second identical audit is served from the shard cache —
        that's the whole point of staying resident."""
        service = VerificationService()
        spec = _spec()
        service.handle(spec)
        payload = service.handle(spec)["payload"]
        checks = payload["checks"]
        assert checks and all(row.get("cached") for row in checks)


class TestSharding:
    def test_same_network_reuses_shard(self):
        service = VerificationService()
        service.handle(_spec())
        service.handle(_spec())
        status = service.status()
        assert len(status["shards"]) == 1
        (row,) = status["shards"].values()
        assert row["requests"] == 2

    def test_status_counts_the_shard_pools_leases(self):
        """``solver_leases`` sits next to ``warm_solvers``: a cache-off
        audit builds one solver per slice shape and leases the rest."""
        service = VerificationService()
        payload = service.handle(_spec(size=3, no_cache=True))["payload"]
        (row,) = service.status()["shards"].values()
        leases = row["solver_leases"]
        assert set(leases) == {"hit", "shared", "miss"}
        assert leases["miss"] == row["warm_solvers"] == 3
        assert leases["shared"] > 0
        assert sum(leases.values()) == len(payload["checks"])

    def test_different_networks_get_distinct_shards(self):
        service = VerificationService()
        service.handle(_spec(scenario="enterprise"))
        service.handle(_spec(scenario="isp"))
        service.handle(_spec(scenario="enterprise", size=3))
        assert len(service.status()["shards"]) == 3

    def test_shard_lru_eviction(self):
        service = VerificationService(max_shards=2)
        service.handle(_spec(scenario="enterprise"))
        service.handle(_spec(scenario="isp"))
        service.handle(_spec(scenario="multitenant"))
        status = service.status()
        assert len(status["shards"]) == 2
        scenarios = {
            row["scenario"].split("(")[0]
            for row in status["shards"].values()
        }
        assert scenarios == {"isp", "multitenant"}

    def test_status_and_traces_say_what_was_prepared(self, tmp_path):
        """``prepared`` in /status counts memo outcomes; a request's
        ``prepare`` span is tagged with its own, and only a miss has the
        collapse / policy-classes / slice spans under it."""
        service = VerificationService(
            store_dir=str(tmp_path), slow_trace_seconds=0.0)
        try:
            ids = [service.handle(_spec())["request_id"] for _ in range(2)]
            service.handle(_spec(command="watch", size=3, deltas=1))
            assert service.status()["prepared"] == {
                "entries": 1, "hits": 1, "misses": 1}
        finally:
            service.close()
        children = []
        for request_id in ids:
            with open(tmp_path / "traces" / f"{request_id}.trace.json") as fh:
                spans = json.load(fh)["spans"]
            (prepare,) = [s for s in spans if s["name"] == "prepare"]
            (request,) = [s for s in spans if s["parent"] is None]
            assert (prepare["cat"], prepare["parent"]) == ("serve",
                                                           request["id"])
            children.append((prepare["args"]["outcome"], sorted(
                {s["name"] for s in spans if s["parent"] == prepare["id"]})))
        assert children == [
            ("miss", ["collapse", "policy-classes", "slice"]), ("hit", [])]

    def test_unknown_scenario_is_bad_request(self):
        service = VerificationService()
        with pytest.raises(BadRequest):
            service.handle(_spec(scenario="atlantis"))
        # A rejected request must not leave a shard behind.
        assert service.status()["shards"] == {}


class TestAdmission:
    def test_queue_overflow_rejects_busy(self):
        service = VerificationService(max_inflight=1, queue_depth=1)
        # Occupy the single inflight slot...
        service._slots.acquire()
        waited = threading.Event()

        def waiter():
            service._admit()  # fills the one queue slot, then blocks
            waited.set()
            service._release()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        deadline = 10.0
        while service._waiting < 1 and deadline > 0:
            time.sleep(0.01)
            deadline -= 0.01
        assert service._waiting == 1
        try:
            # ...so the queue is full and the next arrival bounces.
            with pytest.raises(ServiceBusy):
                service.handle(_spec())
            assert service.status()["rejected"] == 1
        finally:
            service._slots.release()  # un-wedge the waiter
            t.join(timeout=10)
        assert waited.is_set()

    def test_requests_drain_after_release(self):
        service = VerificationService(max_inflight=1, queue_depth=4)
        envelope = service.handle(_spec())
        assert envelope["payload"]["scenario"].startswith("enterprise")
        assert service.status()["rejected"] == 0
