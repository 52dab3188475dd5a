"""Tests for the unbounded-proof mode (BMC + fixpoint agreement)."""


from repro.baselines.explicit import explicit_verdict
from repro.core import (
    BOUNDED,
    UNBOUNDED,
    CanReach,
    FlowIsolation,
    NodeIsolation,
    prove,
)
from repro.mboxes import NAT, LearningFirewall
from repro.netmodel import HeaderMatch, TransferRule, VerificationNetwork


def firewalled(allow):
    rules = (
        TransferRule.of(HeaderMatch.of(dst={"priv"}), to="fw", from_nodes={"ext"}),
        TransferRule.of(HeaderMatch.of(dst={"priv"}), to="priv", from_nodes={"fw"}),
        TransferRule.of(HeaderMatch.of(dst={"ext"}), to="fw", from_nodes={"priv"}),
        TransferRule.of(HeaderMatch.of(dst={"ext"}), to="ext", from_nodes={"fw"}),
    )
    return VerificationNetwork(
        hosts=("ext", "priv"),
        middleboxes=(LearningFirewall("fw", allow=allow),),
        rules=rules,
    )


class TestProve:
    def test_holding_invariant_upgraded_to_unbounded(self):
        net = firewalled([("priv", "ext")])
        result = prove(net, FlowIsolation("priv", "ext"))
        assert result.holds
        assert result.guarantee == UNBOUNDED
        assert result.explicit_agrees is True

    def test_violation_is_always_unbounded(self):
        net = firewalled([("ext", "priv")])
        result = prove(net, NodeIsolation("priv", "ext"))
        assert result.violated
        assert result.guarantee == UNBOUNDED
        assert result.bmc.trace is not None

    def test_oracle_model_beyond_the_explicit_fragment(self):
        """NATs quantify over oracle functions, so the explicit-state
        fixpoint cannot decide them — the oracle has no verdict.
        The portfolio's induction engines have no such restriction: a
        certificate-backed upgrade (or an honest bounded verdict with
        the limiting engines' reason) replaces the old hard ceiling."""
        nat = NAT("nat", internal={"in"})
        rules = (
            TransferRule.of(HeaderMatch.of(dst={"out"}), to="nat", from_nodes={"in"}),
            TransferRule.of(HeaderMatch.of(dst={"out"}), to="out", from_nodes={"nat"}),
            TransferRule.of(HeaderMatch.of(dst={"nat"}), to="nat", from_nodes={"out"}),
            TransferRule.of(HeaderMatch.of(dst={"in"}), to="in", from_nodes={"nat"}),
        )
        net = VerificationNetwork(hosts=("in", "out"), middleboxes=(nat,), rules=rules)

        assert explicit_verdict(net, FlowIsolation("in", "out"), n_ports=4) is None

        result = prove(net, FlowIsolation("in", "out"))
        assert result.holds
        assert result.explicit_agrees is None  # oracle fragment: no oracle
        if result.guarantee == UNBOUNDED:
            assert result.certificate is not None
            assert result.recheck is not None and result.recheck.ok
        else:
            assert result.note  # limiting engines' reason

    def test_failure_budget_stays_bounded(self):
        net = firewalled([("priv", "ext")])
        result = prove(net, FlowIsolation("priv", "ext").with_failures(1))
        assert result.holds
        assert result.guarantee == BOUNDED

    def test_oracle_extremes_explored(self):
        """An IDPS drops everything when the oracle flags everything;
        CanReach must still be provable because the all-false oracle
        lets traffic through."""
        from repro.mboxes import IDPS

        rules = (
            TransferRule.of(HeaderMatch.of(dst={"b"}), to="idps", from_nodes={"a"}),
            TransferRule.of(HeaderMatch.of(dst={"b"}), to="b", from_nodes={"idps"}),
        )
        net = VerificationNetwork(
            hosts=("a", "b"), middleboxes=(IDPS("idps"),), rules=rules
        )
        result = prove(net, CanReach("b", "a"))
        assert result.violated  # reachable
        assert result.guarantee == UNBOUNDED
