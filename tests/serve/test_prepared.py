"""The prepared half of an audit is a pure function of its spec.

``VerificationService`` keeps ``prepare_audit(spec)`` — scenario,
collapse, slices, fingerprints, shape keys — per normalised spec and a
repeated request only *executes*: cache lookups, rows, totals.  The
oracle throughout is :func:`run_audit` without a prepared object, on
warm state that has seen exactly the same requests: whatever the memo,
the shard table or the store did in between, every response must equal
the fresh run's after dropping exactly what ``--stable-json`` drops,
and must agree with it on which rows the cache answered.
"""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.vmn as vmn_mod
import repro.serve.service as service_mod
from repro.cli import _strip_unstable
from repro.core.engine import ResultCache, SolverPool
from repro.netmodel.canon import network_fingerprint
from repro.scenarios import DEFAULT_SIZES, SCENARIOS, build_scenario
from repro.serve.service import (
    BadRequest,
    VerificationService,
    normalize_spec,
    run_audit,
)


def _spec(command="audit", scenario="isp", **fields):
    # The enterprise quarantine tier (what --misconfig breaks) starts at 3.
    size = 3 if scenario == "enterprise" and fields.get("misconfig") else 2
    return {"command": command, "scenario": scenario, "size": size, **fields}


def _view(payload, spec):
    """What must not depend on warmth.  Without ``stable`` the
    counterexample is whichever the solver met first, so only its
    presence is comparable."""
    view = _strip_unstable(payload)
    if not spec.get("stable"):
        for row in view["checks"]:
            row["trace"] = row["trace"] is not None
    return view


def _cost(payload):
    """Where each row's verdict came from — the warm-state fields a
    response must report for *this* request, not for an earlier one."""
    return [(row["cached"], (row["provenance"] or {}).get("lineage"))
            for row in payload["checks"]]


class Oracle:
    """``run_audit`` with no prepared object, over one cache + pool per
    network — a reference exactly as warm as the service's shards."""

    def __init__(self):
        self.state = {}

    def check(self, service, spec):
        payload = service.handle(spec)["payload"]
        plain = normalize_spec(spec)
        bundle = build_scenario(plain["scenario"], size=plain["size"],
                                misconfig=plain["misconfig"],
                                seed=plain["seed"])
        key = network_fingerprint(bundle.topology, bundle.steering)
        cache, pool = self.state.setdefault(
            key, (ResultCache(), SolverPool()))
        fresh = run_audit(spec, cache=cache, solver_pool=pool)
        assert _view(payload, spec) == _view(fresh, spec)
        assert _cost(payload) == _cost(fresh)
        return payload


_FLAG_SETS = [{"stable": True}, {"stable": True, "no_cache": True},
              {"stable": True, "no_slicing": True}, {}]


#: prove is minutes on datacenter-caches and ~10 s per proof on the
#: other FlowIsolation-heavy scenarios; they ride in the slow subset,
#: with the whole-network (no_slicing) audits of datacenter-caches.
_PROVE_FAST = ("datacenter-traversal", "isp", "multitenant")
_PROVE_SLOW = ("datacenter", "datacenter-redundancy", "enterprise")

_MATRIX = [
    pytest.param(command, scenario, misconfig, flags,
                 id="-".join([command, scenario,
                              "misconfig" if misconfig else "clean",
                              "+".join(sorted(flags)) or "plain"]),
                 marks=[pytest.mark.slow] if slow or (
                     scenario == "datacenter-caches"
                     and "no_slicing" in flags) else [])
    for command, scenarios, slow in (
        ("audit", sorted(SCENARIOS), False),
        ("prove", _PROVE_FAST, False),
        ("prove", _PROVE_SLOW, True),
    )
    for scenario in scenarios
    for misconfig in (False, True)
    if not (scenario == "multitenant" and misconfig)  # no injector
    for flags in (_FLAG_SETS if command == "audit"
                  else _FLAG_SETS[:1] if slow  # six cold proofs otherwise
                  else _FLAG_SETS[:2])
]


class TestRepeatsEqualFreshRuns:
    @pytest.mark.parametrize("command,scenario,misconfig,flags", _MATRIX)
    def test_first_second_third(self, command, scenario, misconfig, flags):
        spec = _spec(command, scenario, misconfig=misconfig, **flags)
        service, oracle = VerificationService(), Oracle()
        try:
            first, second, third = (
                oracle.check(service, spec) for _ in range(3))
            status = service.status()
        finally:
            service.close()
        assert status["prepared"] == {"entries": 1, "hits": 2, "misses": 1}
        for repeat in (second, third):
            del repeat["elapsed_seconds"]
        if flags.get("no_cache"):
            assert not any(row["cached"] for row in third["checks"])
            assert _strip_unstable(second) == _strip_unstable(third)
            return
        # A hit is truthful about itself: every row from the cache, no
        # solver work, provenance and all equal from repeat to repeat.
        assert second == third
        assert all(row["cached"] for row in second["checks"])
        assert not any(second["solver_totals"].values())
        assert any(not row["cached"] for row in first["checks"])
        assert {row["provenance"]["lineage"]
                for row in second["checks"]} == {"cache-hit"}

    def test_misconfig_without_an_injector_is_a_bad_request_each_time(self):
        service = VerificationService()
        try:
            for _ in range(2):
                with pytest.raises(BadRequest):
                    service.handle(_spec(scenario="multitenant",
                                         misconfig=True))
            assert service.status()["prepared"] == {
                "entries": 0, "hits": 0, "misses": 0}
        finally:
            service.close()


class TestMemoAndShardLifetimes:
    def test_after_the_memo_evicted_the_spec(self):
        # The memo keeps as many jobs as a shard's cache keeps verdicts.
        service, oracle = VerificationService(cache_entries=8), Oracle()
        spec = _spec(stable=True)
        try:
            assert oracle.check(service, spec)["n_checks"] == 2
            # Four more specs of the same network (isp ignores the seed)
            # fill the memo's 8 jobs; the fifth evicts the first.
            for seed in range(1, 6):
                oracle.check(service, _spec(stable=True, seed=seed))
            before = service.status()["prepared"]
            assert before == {"entries": 4, "hits": 0, "misses": 6}
            again = oracle.check(service, spec)
            assert service.status()["prepared"]["misses"] == 7
            assert len(service.status()["shards"]) == 1
        finally:
            service.close()
        assert all(row["cached"] for row in again["checks"])

    def test_after_the_shard_was_evicted_and_reopened(self, tmp_path):
        service = VerificationService(store_dir=str(tmp_path), max_shards=1)
        oracle = Oracle()
        spec = _spec(scenario="enterprise", stable=True)
        try:
            oracle.check(service, spec)
            oracle.check(service, _spec(stable=True))  # isp takes the slot
            again = oracle.check(service, spec)
            status = service.status()
        finally:
            service.close()
        assert status["prepared"] == {"entries": 2, "hits": 1, "misses": 2}
        (row,) = status["shards"].values()
        assert row["store"]["loaded"] > 0  # one entry per symmetry class
        assert all(r["cached"] for r in again["checks"])

    def test_after_close_and_a_new_service_over_the_store(self, tmp_path):
        oracle = Oracle()
        spec = _spec(scenario="datacenter", stable=True)
        for _ in range(2):
            service = VerificationService(store_dir=str(tmp_path))
            try:
                payload = oracle.check(service, spec)
                status = service.status()["prepared"]
            finally:
                service.close()
            assert status == {"entries": 1, "hits": 0, "misses": 1}
        assert all(row["cached"] for row in payload["checks"])

    def test_two_threads_asking_first_build_the_spec_once(self, monkeypatch):
        calls = []

        def slow_build(*args, **kwargs):
            calls.append(args)
            time.sleep(0.05)  # the other thread arrives mid-build
            return build_scenario(*args, **kwargs)

        monkeypatch.setattr(service_mod, "build_scenario", slow_build)
        service = VerificationService()
        spec = _spec(scenario="datacenter-traversal", stable=True)
        barrier = threading.Barrier(2)
        payloads = []

        def ask():
            barrier.wait(timeout=10)
            payloads.append(service.handle(spec)["payload"])

        threads = [threading.Thread(target=ask) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            status = service.status()["prepared"]
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert len(calls) == 1
        assert status == {"entries": 1, "hits": 1, "misses": 1}
        assert len(payloads) == 2
        assert _view(payloads[0], spec) == _view(payloads[1], spec)


_FIELDS = st.fixed_dictionaries({
    "command": st.sampled_from(["audit", "prove"]),
    "scenario": st.sampled_from(["isp", "datacenter-traversal"]),
}, optional={
    "size": st.sampled_from([None, 1, 2, 3]),  # 3, 2: the defaults
    "misconfig": st.booleans(),
    "seed": st.integers(0, 1),
    "no_slicing": st.booleans(),
    "no_cache": st.booleans(),
    "stable": st.booleans(),
    "jobs": st.integers(1, 2),
    "budget": st.sampled_from([None, 1000]),
    "not_a_field": st.integers(0, 1),  # normalize_spec drops it
    "label": st.sampled_from([None, "x"]),  # no audit reads these two
    "deltas": st.integers(1, 2),
})


#: Spec fields of ``watch`` / ``repair`` / ``blame`` / ``history`` only.
_SESSION_FIELDS = ("deltas", "prove", "fault", "max_edits", "max_candidates",
                  "only", "label")


class TestMemoKey:
    @given(one=_FIELDS, other=_FIELDS)
    @settings(max_examples=60, deadline=None)
    def test_shared_iff_the_audit_fields_are_equal(self, one, other):
        """Every field an audit reads splits the memo and no other one
        does; the default size is the same audit spelled out or not."""
        service = VerificationService(watchdog_interval=0)

        def audit_fields(spec):
            fields = {name: value for name, value in spec.items()
                      if name not in _SESSION_FIELDS}
            if fields["size"] is None:
                fields["size"] = DEFAULT_SIZES[fields["scenario"]]
            return fields

        try:
            a, b = normalize_spec(one), normalize_spec(other)
            first = service._prepared_for(a)
            assert (service._prepared_for(b) is first) == (
                audit_fields(a) == audit_fields(b))
            assert service._prepared_for(dict(reversed(a.items()))) is first
            assert first.spec == audit_fields(a)
        finally:
            service.close()


class TestSeededMutations:
    """Each mutation is one plausible way to get the memo wrong; the
    oracle above must notice every one of them."""

    @pytest.mark.parametrize("field,scenario,values", [
        ("misconfig", "isp", (False, True)),
        ("seed", "datacenter", (0, 1)),
        ("no_slicing", "isp", (False, True)),
    ])
    def test_memo_keyed_without_a_field(self, monkeypatch, field, scenario,
                                        values):
        specs = [_spec(scenario=scenario, stable=True, **{field: value})
                 for value in values]

        class LossyJson:
            @staticmethod
            def dumps(spec, **kwargs):
                return repr(sorted((k, v) for k, v in spec.items()
                                   if k != field))

        def drive():
            service, oracle = VerificationService(), Oracle()
            try:
                for spec in specs:
                    oracle.check(service, spec)
            finally:
                service.close()

        drive()
        monkeypatch.setattr(service_mod, "json", LossyJson)
        with pytest.raises(AssertionError):
            drive()

    def test_shard_looked_up_by_scenario_name(self, monkeypatch):
        # Two versions of one scenario: equal names, different networks.
        specs = [_spec(scenario="enterprise", size=3, stable=True),
                 _spec(scenario="enterprise", stable=True, misconfig=True)]

        def drive():
            service, oracle = VerificationService(), Oracle()
            try:
                for spec in specs:
                    oracle.check(service, spec)
                return len(service.status()["shards"])
            finally:
                service.close()

        assert drive() == 2
        by_key = VerificationService.shard_for
        monkeypatch.setattr(
            VerificationService, "shard_for",
            lambda self, key, scenario: by_key(self, scenario, scenario))
        with pytest.raises(AssertionError):
            drive()

    def test_cached_copied_from_the_first_response(self, monkeypatch):
        spec = _spec(stable=True)
        handle = VerificationService.handle
        replies = {}

        def replaying(self, spec):
            return replies.setdefault(repr(sorted(spec.items())),
                                      handle(self, spec))

        monkeypatch.setattr(VerificationService, "handle", replaying)
        service, oracle = VerificationService(), Oracle()
        try:
            oracle.check(service, spec)
            with pytest.raises(AssertionError):
                oracle.check(service, spec)
        finally:
            service.close()


def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestWhatARequestPays:
    def test_a_repeat_only_consults_the_cache(self, monkeypatch):
        service = VerificationService()
        spec = _spec(scenario="enterprise", size=3)
        try:
            n_checks = service.handle(spec)["payload"]["n_checks"]
            counts = {}
            _counting(monkeypatch, service_mod, "build_scenario", counts)
            for owner in (service_mod, vmn_mod):
                _counting(monkeypatch, owner, "network_fingerprint", counts)
            for name in ("build_slice", "fingerprint", "encoding_key"):
                _counting(monkeypatch, vmn_mod, name, counts)
            _counting(monkeypatch, vmn_mod.VMN, "__init__", counts)
            _counting(monkeypatch, ResultCache, "get", counts)
            payload = service.handle(spec)["payload"]
        finally:
            service.close()
        assert counts == {"get": n_checks}
        assert all(row["cached"] for row in payload["checks"])

    def test_one_scenario_build_per_session_request(self, monkeypatch,
                                                    tmp_path):
        """The bundle ``handle`` builds for the shard key is the one
        ``watch`` / ``blame`` use (they used to build their own as well).
        ``repair`` asks for the clean network here; its fault builder
        constructs the broken one without ``build_scenario``."""
        counts = {}
        _counting(monkeypatch, service_mod, "build_scenario", counts)
        service = VerificationService(store_dir=str(tmp_path))

        def builds(**spec):
            counts.clear()
            service.handle(spec)
            return counts.get("build_scenario", 0)

        try:
            watch = dict(command="watch", scenario="enterprise", size=3,
                         deltas=2)
            assert builds(**watch) == 1
            assert builds(command="history", scenario="enterprise",
                          size=3) == 1
            assert builds(command="repair", scenario="multitenant",
                          size=2) == 1
            blame = dict(command="blame", scenario="enterprise", size=3,
                         only=["quar2_0"])
            assert builds(**blame) == 1
            assert builds(**blame, misconfig=True) == 2  # + the baseline
            audit = _spec(command="audit")
            assert builds(**audit) == 1
            assert builds(**audit) == 0
            assert builds(**{**audit, "command": "prove"}) == 1
            assert builds(**{**audit, "command": "prove"}) == 0
        finally:
            service.close()
