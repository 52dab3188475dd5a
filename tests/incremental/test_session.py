"""IncrementalSession behaviour on a real scenario (solver involved —
kept to one small enterprise instance)."""

from repro.incremental import (
    AddHost,
    EditPolicyRules,
    IncrementalSession,
    LinkDown,
)
from repro.scenarios import enterprise

VIOLATED = "violated"
HOLDS = "holds"


def fresh_session():
    """Sessions mutate their topology, so every test gets its own."""
    s = IncrementalSession.from_bundle(enterprise(n_subnets=3, hosts_per_subnet=1))
    s.baseline()
    return s


class TestLifecycle:
    def test_baseline_matches_expected_verdicts(self):
        session = fresh_session()
        report = session.reports[0]
        assert report.delta is None
        assert report.mismatches == 0
        assert report.solver_runs + report.cache_hits == len(report)

    def test_misconfig_drift_and_repair(self):
        session = fresh_session()
        pairs = (("internet", "quar2_0"), ("quar2_0", "internet"))
        broken = session.apply(EditPolicyRules("fw", remove=pairs))
        drifted = {o.check.label for o in broken if o.ok is False}
        assert drifted == {"quarantine in quar2_0", "quarantine out quar2_0"}
        # The repair returns to a previously verified version: the warm
        # cache answers everything, zero solver runs.
        repaired = session.apply(EditPolicyRules("fw", add=pairs))
        assert repaired.mismatches == 0
        assert repaired.solver_runs == 0

    def test_host_add_carries_unrelated_verdicts(self):
        session = fresh_session()
        n_before = len(session.checks)
        report = session.apply(
            AddHost("guest", links=("subnet0",), policy_group="public",
                    chain=("fw", "gw")),
        )
        assert report.carried == n_before
        assert report.solver_runs == 0

    def test_host_remove_retires_its_checks(self):
        from repro.core.invariants import CanReach
        from repro.incremental import RemoveHost

        session = fresh_session()
        session.apply(
            AddHost("guest", links=("subnet0",), policy_group="public",
                    chain=("fw", "gw")),
            new_checks=[(CanReach("guest", "internet"), "guest in", VIOLATED)],
        )
        report = session.apply(RemoveHost("guest"))
        assert [c.label for c in report.retired] == ["guest in"]
        assert all(o.check.label != "guest in" for o in report)

    def test_revert_restores_verdicts_and_retired_checks(self):
        from repro.core.invariants import CanReach
        from repro.incremental import RemoveHost

        session = fresh_session()
        before = session.reports[-1].statuses()
        session.apply(
            AddHost("guest", links=("subnet0",), policy_group="public",
                    chain=("fw", "gw")),
            new_checks=[(CanReach("guest", "internet"), "guest in", VIOLATED)],
        )
        session.apply(RemoveHost("guest"))
        restored = session.revert()  # undoes the removal, re-tracks the check
        assert "guest" in session.topology
        assert restored.statuses()["guest in"] == VIOLATED
        session.revert()  # undoes the addition
        assert "guest" not in session.topology
        assert session.reports[-1].statuses() == before

    def test_revert_unwinds_a_stack_of_distinct_deltas(self):
        """Each revert undoes the next *older* delta — it must not
        toggle the most recent one back and forth."""
        import pytest

        session = fresh_session()
        before = session.reports[-1].statuses()
        pairs = (("internet", "quar2_0"), ("quar2_0", "internet"))
        session.apply(EditPolicyRules("fw", remove=pairs))
        session.apply(LinkDown("subnet1", "backbone"))
        session.apply(
            AddHost("guest", links=("subnet0",), policy_group="public",
                    chain=("fw", "gw")),
        )
        session.revert()
        assert "guest" not in session.topology
        session.revert()
        assert session.topology.has_link("subnet1", "backbone")
        session.revert()
        assert session.reports[-1].statuses() == before
        assert session.reports[-1].mismatches == 0
        with pytest.raises(ValueError):
            session.revert()

    def test_link_down_invalidates_only_the_subnet(self):
        session = fresh_session()
        report = session.apply(LinkDown("subnet1", "backbone"))
        reverified = {o.check.label for o in report if not o.carried}
        assert reverified == {"private flow-iso priv1_0", "private out priv1_0"}
        # Severing the subnet makes the outbound-reachability witness
        # disappear: drift that a production watch loop would flag.
        assert report.statuses()["private out priv1_0"] == HOLDS

    def test_shared_state_box_add_invalidates_everything(self):
        """Deploying an origin-agnostic box (a cache) changes every
        slice (§4.1: shared-state boxes always join), so no verdict may
        be carried forward — and the re-verified verdicts must match a
        cold audit.  Regression: the old/new shared-box comparison must
        use a pre-mutation snapshot, since deltas edit the topology in
        place."""
        from repro.incremental import AddMiddlebox
        from repro.mboxes import ContentCache

        session = fresh_session()
        report = session.apply(
            AddMiddlebox(ContentCache("cache", deny=[]), links=("backbone",))
        )
        assert report.carried == 0
        assert report.statuses() == session.audit_from_scratch().statuses()

    def test_audit_from_scratch_is_side_effect_free(self):
        session = fresh_session()
        version = session.version
        reports = len(session.reports)
        full = session.audit_from_scratch()
        assert session.version == version
        assert len(session.reports) == reports
        assert full.statuses() == session.reports[-1].statuses()


class TestFailedReverification:
    def test_interrupted_apply_never_reports_the_old_verdict_as_carried(
            self, monkeypatch):
        """A delta whose re-verification dies (worker death, interrupt)
        must leave the affected checks *unknown*, not silently holding
        the previous version's verdict.  Regression: the impact index
        recorded the new slice before any verdict existed, so the next
        unrelated delta reported "quarantine in/out quar2_0: holds
        (carried)" on a network where both are violated."""
        import pytest

        from repro.incremental import session as session_module

        session = fresh_session()

        def dying_execute_jobs(*args, **kwargs):
            raise RuntimeError("worker died")

        pairs = (("internet", "quar2_0"), ("quar2_0", "internet"))
        with monkeypatch.context() as patch:
            patch.setattr(session_module, "execute_jobs", dying_execute_jobs)
            with pytest.raises(RuntimeError):
                session.apply(EditPolicyRules("fw", remove=pairs))
        # The failed version has no verdict for what it was re-verifying.
        unknown = {c.label for c in session.checks} - {
            o.check.label for o in session.outcomes}
        assert unknown == {"quarantine in quar2_0", "quarantine out quar2_0"}

        report = session.apply(LinkDown("subnet0", "backbone"))
        assert report.statuses() == session.audit_from_scratch().statuses()
        assert report.statuses()["quarantine in quar2_0"] == VIOLATED
        assert report.statuses()["quarantine out quar2_0"] == VIOLATED
        recovered = {o.check.label for o in report if not o.carried}
        assert unknown <= recovered
