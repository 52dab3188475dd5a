"""Ablations for the design choices the README calls out.

* **slicing** — the paper's central contribution: the same invariant on
  the same network, sliced vs. unsliced.
* **symmetry** — verify a symmetric invariant set with and without
  grouping (paper §4.2).
* **oracle exclusivity** — the §3.6 limitation: adding mutual-exclusion
  constraints on application classes removes false positives at some
  solver cost.
"""

import pytest

from repro.core import ClassIsolation, FlowIsolation
from repro.mboxes import ApplicationFirewall
from repro.netmodel import HeaderMatch, TransferRule, VerificationNetwork, check
from repro.scenarios import enterprise

from .helpers import run_once, slice_depth


@pytest.mark.parametrize("slicing", ["sliced", "unsliced"])
def test_ablation_slicing(benchmark, slicing):
    bundle = enterprise(n_subnets=6, hosts_per_subnet=1)
    use = slicing == "sliced"
    vmn = bundle.vmn(use_slicing=use, use_symmetry=False)
    check_ = next(c for c in bundle.checks if c.label.startswith("private flow-iso"))
    depth = slice_depth(bundle.vmn(), check_.invariant)
    result = run_once(benchmark, lambda: vmn.verify(check_.invariant, depth=depth))
    assert result.status == check_.expected
    benchmark.extra_info["mode"] = slicing


@pytest.mark.parametrize("symmetry", ["grouped", "exhaustive"])
def test_ablation_symmetry(benchmark, symmetry):
    bundle = enterprise(n_subnets=6, hosts_per_subnet=2)
    vmn = bundle.vmn(use_symmetry=(symmetry == "grouped"))
    hosts = [h.name for h in bundle.topology.hosts if h.name != "internet"]
    invariants = [FlowIsolation(h, "internet") for h in hosts if h.startswith("priv")]

    report = run_once(benchmark, lambda: vmn.verify_all(invariants))
    assert all(o.status == "holds" for o in report)
    benchmark.extra_info["mode"] = symmetry
    benchmark.extra_info["solver_runs"] = report.checks_run
    benchmark.extra_info["invariants"] = len(report)


@pytest.mark.parametrize("exclusivity", ["without", "with"])
def test_ablation_oracle_exclusivity(benchmark, exclusivity):
    """Blocking skype and checking jabber-freedom: without exclusivity
    the oracle may declare one packet both skype and jabber, so the
    check is a (paper-documented) false positive; with exclusivity it
    holds.  The ablation measures the cost of the extra axioms."""
    appfw = ApplicationFirewall(
        "appfw",
        blocked_classes=["skype", "jabber"],
        known_classes=["skype", "jabber"],
        mutually_exclusive=(exclusivity == "with"),
    )
    rules = (
        TransferRule.of(HeaderMatch.of(dst={"host"}), to="appfw", from_nodes={"ext"}),
        TransferRule.of(HeaderMatch.of(dst={"host"}), to="host", from_nodes={"appfw"}),
        TransferRule.of(HeaderMatch.of(dst={"ext"}), to="ext"),
    )
    net = VerificationNetwork(hosts=("ext", "host"), middleboxes=(appfw,), rules=rules)
    inv = ClassIsolation("host", "skype")

    result = run_once(benchmark, lambda: check(net, inv))
    assert result.status == "holds"
    benchmark.extra_info["mode"] = exclusivity
