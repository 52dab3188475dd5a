"""Proofs on a transition system built for another slice's names.

``prove enterprise --size 2`` has four exact encodings and two shapes:
the two private-subnet slices (and the two public ones) are the same
integer problem.  Through one pool the second of each pair leases the
first's ``IncrementalBMC`` and ``TransitionSystem``; the engines and
certificate minimisation work in the driver's names, and what leaves
the portfolio — trace, certificate — is in the check's own.  The cold
``recheck_certificate`` runs on the check's own network, untouched by
any of this, which makes it the independent check of the renaming.
"""

import pytest

from repro.core.engine import execute_jobs
from repro.netmodel.bmc import SolverPool, encoding_key
from repro.netmodel.canon import rename
from repro.proof.certificate import recheck_certificate
from repro.scenarios.registry import build_scenario

ENC = ("n_packets", "failure_budget", "n_ports", "n_tags")

#: ``prove enterprise --size 2 --no-cache`` at the parent commit:
#: label -> (status, guarantee, engine).
PARENT = {
    "public in publ0_0": ("violated", "unbounded", "bmc"),
    "public out publ0_0": ("violated", "unbounded", "bmc"),
    "public in publ0_1": ("violated", "unbounded", "bmc"),
    "public out publ0_1": ("violated", "unbounded", "bmc"),
    "private flow-iso priv1_0": ("holds", "unbounded", "ic3"),
    "private out priv1_0": ("violated", "unbounded", "bmc"),
    "private flow-iso priv1_1": ("holds", "unbounded", "ic3"),
    "private out priv1_1": ("violated", "unbounded", "bmc"),
}


@pytest.fixture(scope="module")
def proved():
    """The audit, once: (bundle, jobs, results, pool)."""
    # Module scope outlives the per-test intern-table reset; nothing
    # below builds terms against the pooled solvers again.
    bundle = build_scenario("enterprise", size=2)
    vmn = bundle.vmn(use_cache=False, solver_pool=SolverPool())
    jobs = [
        vmn.job_for(entry.invariant, index=i, prove="portfolio")
        for i, entry in enumerate(bundle.checks)
    ]
    results = execute_jobs(jobs, workers=1, solver_pool=vmn.solver_pool)
    return bundle, jobs, results, vmn.solver_pool


def test_four_encodings_are_two_shared_systems(proved):
    _, jobs, _, pool = proved
    assert len({job.network.addresses for job in jobs}) == 4
    keys = {job.warm_key for job in jobs}
    assert len(keys) == 2 and None not in keys
    assert set(pool._entries) == keys | {key + "|transition" for key in keys}
    assert pool.misses == 4  # one BMC driver and one system per shape
    assert pool.shared == 2 * sum(
        job.network.addresses != pool._entries[job.warm_key].net.addresses
        for job in jobs
    ) > 0


def test_verdicts_guarantees_and_engines_are_the_parents(proved):
    bundle, _, results, _ = proved
    got = {
        entry.label: (
            result.status, result.stats["guarantee"], result.stats["proof_engine"]
        )
        for entry, result in zip(bundle.checks, results)
    }
    assert got == PARENT


def test_what_leaves_the_portfolio_is_in_the_checks_own_names(proved):
    _, jobs, results, _ = proved
    for job, result in zip(jobs, results):
        own = set(job.network.node_names) | set(job.network.addresses)
        if result.trace is not None:
            assert {e.frm for e in result.trace.events} <= own
            assert {p.src for p in result.trace.packets.values()} <= own
        cert = result.stats["certificate"]
        if cert is not None:
            nodes = {
                key[1] for cube in cert.clauses for key, _ in cube
                if key[0] in ("rcv", "snt", "failed")
            }
            assert nodes and nodes <= own


def test_renamed_out_certificates_pass_the_cold_recheck_on_their_own_network(proved):
    """...and the same certificate left in the driver's names fails it."""
    _, jobs, results, pool = proved
    rechecked = 0
    for job, result in zip(jobs, results):
        cert = result.stats["certificate"]
        if cert is None:
            continue
        params = {k: job.params[k] for k in ENC}
        assert result.stats["recheck_ok"] is True
        assert recheck_certificate(job.network, job.invariant, cert, params).ok
        theirs = pool._entries[job.warm_key + "|transition"].net.addresses
        if theirs == job.network.addresses:
            continue
        left_in = rename(cert, dict(zip(job.network.addresses, theirs)))
        assert left_in != cert
        report = recheck_certificate(job.network, job.invariant, left_in, params)
        assert not report.ok
        rechecked += 1
    assert rechecked == 1  # priv1_1's proof ran on priv1_0's system


def test_a_system_leased_by_two_slices_stays_clean(proved):
    """``TestPooledSolverStaysClean``'s ceiling (tests/proof/
    test_literal_engines.py), for a system two differently-named slices
    proved on: frames, single-query clauses and minimisation guards of
    both searches are retired."""
    _, jobs, _, pool = proved
    for key in {job.warm_key for job in jobs}:
        ts = pool._entries[key + "|transition"]
        assert ts.solver.stats()["clauses"] <= 7000
        assert encoding_key(ts.net, {
            k: jobs[0].params[k] for k in ENC
        }) in {job.warm_key for job in jobs}
