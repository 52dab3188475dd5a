"""A delta costs what it changes — asserted by counting calls, not by
timing them.

``walk`` (the datapath collapse), ``build_slice`` and ``fingerprint``
are wrapped with counters; each test states how often a delta of a
given shape may reach them.  All three counts are deterministic
functions of the impact index, so a lost shortcut fails here without a
stopwatch.
"""

import pytest

from repro.core import vmn as vmn_module
from repro.incremental import (
    EditPolicyRules,
    IncrementalSession,
    LinkDown,
    SetChain,
)
from repro.network import transfer as transfer_module
from repro.scenarios import enterprise


class Calls:
    """Call counters installed over module-level functions."""

    def __init__(self, monkeypatch):
        self.counts = {}
        self._monkeypatch = monkeypatch

    def count(self, module, name):
        original = getattr(module, name)
        self.counts[name] = 0

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(module, name, counted)

    def __getitem__(self, name):
        return self.counts[name]


@pytest.fixture
def session():
    s = IncrementalSession.from_bundle(enterprise(n_subnets=6, hosts_per_subnet=1))
    s.baseline()
    return s


@pytest.fixture
def calls(monkeypatch, session):
    """Installed after the baseline, so counts are per delta."""
    calls = Calls(monkeypatch)
    calls.count(transfer_module, "walk")
    calls.count(vmn_module, "build_slice")
    calls.count(vmn_module, "fingerprint")
    return calls


def slices_containing(session, *addresses):
    return {
        check.label
        for check in session.checks
        if set(addresses) <= session.index.entry(check.key).nodes
    }


def reverified(report):
    return {o.check.label for o in report if not o.carried}


class TestConfigOnlyDelta:
    def test_out_of_slice_pair_touches_nothing(self, session, calls):
        """"badguy" is in no slice, so no slice sees the new rule: no
        walk, no slice, no fingerprint, every verdict carried."""
        baseline = session.reports[-1].statuses()
        assert slices_containing(session, "badguy", "priv1_0") == set()
        report = session.apply(EditPolicyRules("fw", add=(("badguy", "priv1_0"),)))
        assert reverified(report) == set()
        assert calls.counts == {"walk": 0, "build_slice": 0, "fingerprint": 0}

        undone = session.revert()
        assert undone.statuses() == baseline
        assert undone.solver_runs == 0
        assert calls["walk"] == 0

    def test_in_slice_pair_reverifies_exactly_the_slices_that_see_it(
            self, session, calls):
        baseline = session.reports[-1].statuses()
        expected = slices_containing(session, "internet", "publ0_0")
        assert expected == {"public in publ0_0", "public out publ0_0"}
        report = session.apply(EditPolicyRules("fw", add=(("internet", "publ0_0"),)))
        assert reverified(report) == expected
        assert calls["walk"] == 0
        assert calls["build_slice"] == 1  # both checks mention the same pair
        assert calls["fingerprint"] == len(expected)
        assert report.statuses() == session.audit_from_scratch().statuses()
        cold_walks = calls["walk"]  # the cross-check's own cold collapse
        assert cold_walks > 0

        # Undoing returns to a version the session has verified: the
        # same two checks, answered without the solver.
        undone = session.revert()
        assert reverified(undone) == expected
        assert undone.statuses() == baseline
        assert undone.solver_runs == 0
        assert calls["walk"] == cold_walks


class TestStructureDelta:
    def test_link_flap_recollapses_once_per_version(self, session, calls):
        """A structural edit pays for a new collapse — one ``walk`` per
        (ingress, stage) pair, not per (ingress, destination)."""
        report = session.apply(LinkDown("subnet1", "backbone"))
        topology = session.topology
        edge = len(topology.edge_nodes)
        assert 0 < calls["walk"] <= edge * (len(topology.middleboxes) + 1)
        assert reverified(report) == slices_containing(session, "priv1_0")

    def test_resteering_recollapses_without_a_structure_edit(self, session, calls):
        """Steering is an input of the collapse the topology's revision
        does not cover: a chain edit must not ride on the old rules."""
        revision = session.topology.revision
        old_rules = session.vmn.rules
        report = session.apply(SetChain("publ0_0", ("gw",)))
        assert session.topology.revision == revision
        assert calls["walk"] > 0
        assert session.vmn.rules != old_rules
        assert report.statuses() == session.audit_from_scratch().statuses()
