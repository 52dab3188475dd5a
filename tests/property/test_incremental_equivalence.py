"""Verdict fidelity of incremental re-verification.

The subsystem's contract: after every delta, each tracked check's
status equals what a cold, from-scratch audit of that network version
concludes — while issuing strictly fewer solver calls than re-auditing
every version.  This is the incremental analogue of the engine's
determinism contract, cross-checked on real churn streams.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.invariants import CanReach
from repro.incremental import (
    AddHost,
    AddMiddlebox,
    DeltaSequence,
    EditPolicyRules,
    IncrementalSession,
    LinkDown,
    LinkUp,
    RemoveHost,
    RemoveMiddlebox,
    ReplaceMiddlebox,
)
from repro.mboxes import AclFirewall, LearningFirewall, LoadBalancer
from repro.scenarios import (
    ChurnEvent,
    enterprise,
    enterprise_firewall_churn,
    multitenant,
    tenant_churn,
)


def replay_and_crosscheck(bundle, events, **session_kwargs):
    """Replay ``events`` incrementally, cold-auditing every version.

    Returns ``(incremental_solver_calls, full_audit_solver_calls)``
    summed over the stream (the baseline is excluded on both sides:
    version 0 is a full audit either way)."""
    session = IncrementalSession.from_bundle(bundle, **session_kwargs)
    session.baseline()
    incremental = full = 0
    for event in events:
        report = session.apply(event.delta, new_checks=event.new_checks)
        audit = session.audit_from_scratch()
        assert report.statuses() == audit.statuses(), (
            f"verdict divergence after {event.describe()!r} "
            f"(version {session.version})"
        )
        incremental += report.solver_runs
        full += audit.solver_runs
    return incremental, full


class TestEnterpriseChurn:
    def test_short_stream_matches_full_audits(self):
        bundle = enterprise(n_subnets=3, hosts_per_subnet=1)
        events = enterprise_firewall_churn(bundle, n_events=4, seed=0)
        incremental, full = replay_and_crosscheck(bundle, events)
        assert incremental < full

    @pytest.mark.slow
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ten_delta_stream_acceptance(self, seed):
        """The acceptance property: a 10-delta enterprise churn stream
        re-verifies with strictly fewer solver calls than 10 full
        audits, and identical verdicts at every version."""
        bundle = enterprise(n_subnets=3, hosts_per_subnet=1)
        events = enterprise_firewall_churn(bundle, n_events=10, seed=seed)
        assert len(events) == 10
        incremental, full = replay_and_crosscheck(bundle, events)
        assert incremental < full


class TestTenantChurn:
    @pytest.mark.slow
    def test_tenant_lifecycle_matches_full_audits(self):
        bundle = multitenant(n_tenants=2, vms_per_tenant=2)
        events = tenant_churn(bundle, n_events=8)
        incremental, full = replay_and_crosscheck(bundle, events)
        assert incremental < full


# ----------------------------------------------------------------------
# Projected configs: the impact index compares a reconfigured box per
# slice, so these streams aim at the boundary — edits no slice can see
# next to edits one slice can, and every case that must fall back to
# invalidating whatever contains the box.
# ----------------------------------------------------------------------
QUAR = (("internet", "quar2_0"), ("quar2_0", "internet"))


def pair_edit_stream():
    """Rule pushes about addresses inside one slice, across two slices
    (inside neither) and outside the network, then their undos."""
    edits = [
        dict(add=(("badguy", "priv1_0"),)),             # outside the network
        dict(add=(("internet", "publ0_0"),)),           # inside publ0_0's slices
        dict(add=(("publ0_0", "priv1_0"),)),            # two slices, neither sees it
        dict(remove=QUAR),                              # flips quar2_0's verdicts
        dict(add=(("quar2_0", "priv1_0"),), remove=(("internet", "priv1_0"),)),
        dict(add=QUAR + (("internet", "priv1_0"),)),
        dict(remove=(("badguy", "priv1_0"), ("internet", "publ0_0"),
                     ("publ0_0", "priv1_0"), ("quar2_0", "priv1_0"))),
    ]
    return [ChurnEvent(EditPolicyRules("fw", **edit)) for edit in edits]


def replacement_stream(bundle):
    """Wholesale pushes: same class (projected), another class and
    other ``linked_nodes()`` (both must invalidate by membership)."""
    deny = bundle.topology.node("fw").model.deny
    allow = [("publ0_0", "internet"), ("priv1_0", "internet")]
    return [ChurnEvent(delta) for delta in (
        ReplaceMiddlebox(LearningFirewall(
            "fw", deny=deny - {("internet", "priv1_0")}, default_allow=True)),
        ReplaceMiddlebox(AclFirewall("fw", acl=allow)),
        ReplaceMiddlebox(LearningFirewall("fw", deny=deny, default_allow=True)),
        AddMiddlebox(LoadBalancer("lb", backends=("priv1_0",)),
                     links=("backbone",)),
        ReplaceMiddlebox(LoadBalancer("lb", backends=("quar2_0",))),
        ReplaceMiddlebox(LoadBalancer("lb", backends=("quar2_0", "publ0_0"))),
        RemoveMiddlebox("lb"),
    )]


def sequence_stream():
    """Config and structure edits in one atomic version step."""
    guest_checks = ((CanReach("guest", "internet"), "guest in", None),)
    return [
        ChurnEvent(DeltaSequence((
            EditPolicyRules("fw", remove=QUAR),
            LinkDown("subnet1", "backbone"),
        ))),
        ChurnEvent(DeltaSequence((
            AddHost("guest", links=("subnet0",), policy_group="public",
                    chain=("fw", "gw")),
            EditPolicyRules("fw", add=(("internet", "guest"),)),
        )), new_checks=guest_checks),
        ChurnEvent(DeltaSequence((
            EditPolicyRules("fw", add=QUAR),
            EditPolicyRules("fw", add=(("badguy", "guest"),)),
            LinkUp("subnet1", "backbone"),
        ))),
        ChurnEvent(DeltaSequence((
            EditPolicyRules("fw", remove=(("internet", "guest"),
                                          ("badguy", "guest"))),
            RemoveHost("guest"),
        ))),
    ]


class TestProjectedConfigs:
    def small(self):
        return enterprise(n_subnets=3, hosts_per_subnet=1)

    def test_in_and_out_of_slice_pair_edits(self):
        incremental, full = replay_and_crosscheck(self.small(), pair_edit_stream())
        assert incremental < full

    def test_pair_edits_without_the_result_cache(self):
        """``use_cache=False`` turns off the cross-version cache only;
        carried verdicts and symmetry inside the tracked set remain."""
        incremental, full = replay_and_crosscheck(
            self.small(), pair_edit_stream(), use_cache=False)
        assert incremental < full

    def test_replacements_that_change_class_or_links_fall_back(self):
        bundle = self.small()
        replay_and_crosscheck(bundle, replacement_stream(bundle))

    def test_sequences_of_config_and_structure_edits(self):
        replay_and_crosscheck(self.small(), sequence_stream())
        replay_and_crosscheck(self.small(), sequence_stream(), use_cache=False)

    @pytest.mark.slow
    def test_tenant_lifecycle_without_the_result_cache(self):
        """Pushes of a new tenant's addresses into old tenants'
        firewalls are invisible to the old tenants' slices; the new
        tenant's checks are isomorphic to carried ones."""
        bundle = multitenant(n_tenants=2, vms_per_tenant=2)
        events = tenant_churn(bundle, n_events=10)
        incremental, full = replay_and_crosscheck(bundle, events, use_cache=False)
        assert incremental < full

    @pytest.mark.slow
    def test_tenant_lifecycle_in_prove_mode(self):
        for kwargs in ({}, {"use_cache": False}):
            bundle = multitenant(n_tenants=2, vms_per_tenant=2)
            events = tenant_churn(bundle, n_events=10)
            replay_and_crosscheck(bundle, events, prove="portfolio", **kwargs)
