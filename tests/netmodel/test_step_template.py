"""The step template against the unrolled reference.

Contract: a driver that encodes the transition relation once and
instantiates it per timestep (``repro.netmodel.unrolling.Unrolling``)
decides, at every depth ``1..D``, exactly what a plain ``Solver`` fed
the full term unrolling ``NetworkSMTModel.axioms()`` decides — and
canonicalises violations to the same bytes — for the empty and the
arbitrary start, with and without failure budget and blame guards, on
both SAT cores.  Deepening warm (one step at a time, noop assumptions
naming a step's event bits before the step is asserted) equals a cold
driver built at that depth.  Two seeded mutations of the template
machinery are caught; a time-dependent middlebox model is refused.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import resolve_bmc_params
from repro.core.invariants import NodeIsolation, Traversal
from repro.mboxes import (
    IDPS,
    NAT,
    AclFirewall,
    ContentCache,
    LearningFirewall,
    LoadBalancer,
    MiddleboxModel,
)
from repro.mboxes.base import Branch
from repro.netmodel import HeaderMatch, TransferRule, VerificationNetwork
from repro.netmodel.bmc import IncrementalBMC, default_depth
from repro.netmodel.system import (
    NetworkSMTModel,
    RuleGuards,
    TimeDependentModelError,
)
from repro.proof.transition import TransitionSystem
from repro.scenarios.registry import SCENARIOS, build_scenario
from repro.smt import SAT, BoolVar
from repro.smt import cnf as cnf_mod
from repro.smt.sat import PySatSolver


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------
def compare_bounded(reference, net, invariant, depth, params, guarded=False):
    """Empty start: warm templated BMC == cold templated BMC == the
    unrolled reference, verdict and canonical trace, at every depth.
    Returns the verdict per depth."""
    guards = RuleGuards() if guarded else None
    warm = IncrementalBMC(net, depth=depth, rule_guards=guards, **params)
    verdicts = []
    for k in range(1, depth + 1):
        ref = reference.Unrolled(net, k, guarded=guarded, **params)
        # assumptions_at names the noop atoms of steps k..depth-1, which
        # the warm driver has not asserted (nor instantiated) yet.
        got = warm.check_at(invariant, k)
        assert warm.asserted_depth == k
        assert got == ref.verdict(invariant), f"verdict differs at depth {k}"
        cold = IncrementalBMC(
            net, depth=k, rule_guards=RuleGuards() if guarded else None, **params
        )
        assert cold.check_at(invariant, k) == got, f"warm != cold at depth {k}"
        if got == SAT:
            trace = str(warm.canonical_trace(invariant, k, presolved=True))
            assert trace == str(ref.trace(invariant)), f"trace differs at depth {k}"
            assert trace == str(cold.canonical_trace(invariant, k, presolved=True))
        if guarded:
            # Every guard assumed true restores the unguarded semantics.
            pinned = warm.solver.check(
                warm.assumptions_at(invariant, k) + guards.assumptions()
            )
            assert pinned == ref.verdict(invariant, guards_on=True)
        verdicts.append(got)
    return verdicts


def compare_free_init(reference, net, invariant, depth, params):
    """Arbitrary consistent start: the templated transition system ==
    the unrolled reference at every depth."""
    ts = TransitionSystem(net, depth=depth, **params)
    verdicts = []
    for k in range(1, depth + 1):
        ref = reference.Unrolled(net, k, free_init=True, **params)
        assumptions = [ts.violation_prefix(invariant, k)] + ts.noop_assumptions(k)
        before = ts.check(assumptions)  # step k-1 not asserted yet
        ts.extend_to(k)
        got = ts.check(assumptions)
        assert got == ref.verdict(invariant), f"verdict differs at depth {k}"
        # An unasserted step only ever admits more behaviour.
        assert before == got or before == SAT
        verdicts.append(got)
    return verdicts


# ----------------------------------------------------------------------
# Registry scenarios, smallest size
# ----------------------------------------------------------------------
def _scenario_problems(name):
    """(net, invariant, depth, params) for one violated and one holding
    check of the scenario, when it has them."""
    bundle = build_scenario(name, size=2)
    vmn = bundle.vmn()
    seen = set()
    for check in bundle.checks:
        if check.expected in seen:
            continue
        seen.add(check.expected)
        net, _ = vmn.network_for(check.invariant)
        params = resolve_bmc_params(net, check.invariant, {})
        depth = params.pop("depth")
        params.pop("max_conflicts")
        yield check.expected, net, check.invariant, depth, params


#: The pure-Python core walks depths 1..6 only: three solvers per depth
#: on 13-17-step slices cost it minutes, and what it adds over the C
#: core (``new_vars``/``add_clauses`` fed template buffers) does not
#: depend on depth.  The C core walks every depth up to the bound.
_PY_CORE_DEPTH = 6


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestRegistryScenarios:
    def test_bounded_verdicts_and_traces(self, name, core, reference):
        for expected, net, invariant, depth, params in _scenario_problems(name):
            if core is PySatSolver:
                depth = min(depth, _PY_CORE_DEPTH)
            verdicts = compare_bounded(reference, net, invariant, depth, params)
            if SAT in verdicts or core is not PySatSolver:
                assert (SAT in verdicts) == (expected == "violated"), (name, expected)

    def test_free_init_verdicts(self, name, core, reference):
        for _, net, invariant, depth, params in _scenario_problems(name):
            if params["failure_budget"]:
                continue  # the proof engines have no failure budgets
            compare_free_init(reference, net, invariant, min(depth, 4), params)


# ----------------------------------------------------------------------
# Hypothesis: tiny networks, middlebox mixes
# ----------------------------------------------------------------------
HOSTS = ("a", "b", "c")


def _box(kind, name, hosts):
    a, b = hosts[0], hosts[1]
    if kind == "learning":
        return LearningFirewall(name, allow=[(a, b)])
    if kind == "denying":
        return LearningFirewall(name, deny=[(b, a)], default_allow=True)
    if kind == "acl":
        return AclFirewall(name, acl=[(a, b), (b, a)])
    if kind == "cache":
        return ContentCache(name, deny=[(b, a)])
    if kind == "nat":
        return NAT(name, internal=[a])
    if kind == "lb":
        return LoadBalancer(name, backends=[b])
    return IDPS(name)


@st.composite
def tiny_problems(draw):
    hosts = HOSTS[: draw(st.integers(2, 3))]
    kinds = draw(st.lists(
        st.sampled_from(
            ["learning", "denying", "acl", "cache", "nat", "lb", "idps"]
        ),
        max_size=2,
    ))
    boxes = tuple(_box(kind, f"m{i}", hosts) for i, kind in enumerate(kinds))
    chain = [m.name for m in boxes]
    rules = []
    for dst in hosts + tuple(chain):
        # Everything towards ``dst`` runs the whole chain, in order
        # (a box addressed directly is entered from the hosts).
        hops = [c for c in chain if c != dst] if dst in hosts else []
        prev = set(hosts)
        for hop in hops + [dst]:
            rules.append(TransferRule.of(
                HeaderMatch.of(dst={dst}), to=hop, from_nodes=prev
            ))
            prev = {hop}
    net = VerificationNetwork(hosts=hosts, middleboxes=boxes, rules=tuple(rules))
    src, dst = draw(st.permutations(hosts))[:2]
    if chain and draw(st.booleans()):
        invariant = Traversal(dst=dst, through=draw(st.sampled_from(chain)))
    else:
        invariant = NodeIsolation(dst, src)
    params = dict(
        n_packets=draw(st.integers(1, 2)) if len(boxes) < 2 else 1,
        failure_budget=draw(st.integers(0, 1)),
        n_ports=3,
        n_tags=2,
    )
    return net, invariant, params


_TINY = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestTinyNetworks:
    @_TINY
    @given(problem=tiny_problems(), guarded=st.booleans())
    def test_bounded(self, core, reference, problem, guarded):
        net, invariant, params = problem
        depth = default_depth(net, params["n_packets"], params["failure_budget"])
        compare_bounded(reference, net, invariant, depth, params, guarded=guarded)

    @_TINY
    @given(problem=tiny_problems())
    def test_free_init(self, core, reference, problem):
        net, invariant, params = problem
        params = dict(params, failure_budget=0)
        compare_free_init(reference, net, invariant, 4, params)


# ----------------------------------------------------------------------
# Seeded mutations of the template machinery must be caught
# ----------------------------------------------------------------------
def _mandatory_firewall(allow):
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


def _two_firewalls():
    """ext -> fw0 -> fw1 -> priv: priv's deliveries are justified by
    fw1's sends, so "went through fw0" is pure (negated) history."""
    allow = [("ext", "priv")]
    hops = ["ext", "fw0", "fw1", "priv"]
    return VerificationNetwork(
        hosts=("ext", "priv"),
        middleboxes=(LearningFirewall("fw0", allow=allow),
                     LearningFirewall("fw1", allow=allow)),
        rules=tuple(
            TransferRule.of(HeaderMatch.of(dst={"priv"}), to=to, from_nodes={frm})
            for frm, to in zip(hops, hops[1:])
        ),
    )


_PARAMS = dict(n_packets=1, failure_budget=0, n_ports=3, n_tags=2)


class TestSeededMutations:
    def test_the_unmutated_cases_agree(self, reference):
        compare_bounded(reference, _mandatory_firewall([]),
                        NodeIsolation("priv", "ext"), 5, _PARAMS)
        compare_bounded(reference, _two_firewalls(),
                        Traversal(dst="priv", through="fw0"), 7, _PARAMS)

    def test_off_by_one_in_the_state_chaining_is_caught(self, reference, monkeypatch):
        """Step t >= 1 defining the state at t+2 instead of t+1 leaves
        the state between steps free: blocked traffic gets through."""
        original = NetworkSMTModel.step_variables

        def off_by_one(self, t):
            inputs, outputs = original(self, t)
            if t >= 1:
                outputs = [
                    self.ctx.history_at(key, t + 2) for key in self.ctx.state_keys
                ]
            return inputs, outputs

        monkeypatch.setattr(NetworkSMTModel, "step_variables", off_by_one)
        with pytest.raises(AssertionError, match="differs at depth"):
            compare_bounded(reference, _mandatory_firewall([]),
                            NodeIsolation("priv", "ext"), 5, _PARAMS)

    def test_a_one_sided_state_out_definition_is_caught(self, reference, monkeypatch):
        """State-out variables defined ``s' -> next`` only may forget
        history: "never went through fw0" becomes satisfiable."""
        original = cnf_mod.CnfConverter.record

        def one_sided(self, asserted, defined, params):
            outputs = {term for _, term in defined}
            encode = self._encode
            self._encode = lambda root, polarity: encode(
                root, cnf_mod.POS if root in outputs else polarity
            )
            try:
                return original(self, asserted, defined, params)
            finally:
                del self._encode

        monkeypatch.setattr(cnf_mod.CnfConverter, "record", one_sided)
        with pytest.raises(AssertionError, match="differs at depth"):
            compare_bounded(reference, _two_firewalls(),
                            Traversal(dst="priv", through="fw0"), 7, _PARAMS)


# ----------------------------------------------------------------------
# Time-homogeneity
# ----------------------------------------------------------------------
class _ClockedFirewall(MiddleboxModel):
    """A deliberately time-dependent toy: it only forwards on even steps."""

    def branches(self, ctx, p_in, p_out, t):
        return [Branch.forward(BoolVar(f"{self.name}:open") if t % 2 else
                               BoolVar(f"{self.name}:shut"))]


class _GrowingOracle(MiddleboxModel):
    """Homogeneous terms, but each step registers a new oracle symbol."""

    def branches(self, ctx, p_in, p_out, t):
        ctx.classify(f"class{t}", p_in)
        return [Branch.forward(ctx.classify("class", p_in))]


def _one_box(box):
    return VerificationNetwork(
        hosts=("a", "b"),
        middleboxes=(box,),
        rules=(
            TransferRule.of(HeaderMatch.of(dst={"b"}), to=box.name, from_nodes={"a"}),
            TransferRule.of(HeaderMatch.of(dst={"b"}), to="b", from_nodes={box.name}),
        ),
    )


class TestHomogeneityGuard:
    @pytest.mark.parametrize("box", [_ClockedFirewall("m"), _GrowingOracle("m")],
                             ids=["terms", "registrations"])
    @pytest.mark.parametrize("driver", [IncrementalBMC, TransitionSystem])
    def test_a_time_dependent_model_is_refused(self, box, driver):
        with pytest.raises(TimeDependentModelError):
            driver(_one_box(box), depth=3, **_PARAMS)

    def test_one_step_models_need_no_guard(self):
        """Depth 1 instantiates nothing: there is no second step to be
        wrong about (IC3 certificate rechecks build these)."""
        TransitionSystem(_one_box(_ClockedFirewall("m")), depth=1, **_PARAMS)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_later_steps_register_nothing_the_generic_step_did_not(self, name):
        """Base axioms range over oracle applications, guards and extra
        axioms, and are built after step 0 alone: building every other
        step the term way must not add any."""
        for _, net, invariant, depth, params in _scenario_problems(name):
            guards = RuleGuards()
            model = NetworkSMTModel(net, depth=depth, rule_guards=guards, **params)
            model.generic_step()
            base = list(model.base_axioms())

            def registered():
                return (
                    {n: dict(fn.applications) for n, fn in model.ctx._oracles.items()},
                    list(model.ctx.extra_axioms),
                    guards.labels(),
                )

            before = registered()
            for t in range(1, depth):
                model.step_axioms(t)
            assert registered() == before
            model._base_cache = None
            assert model.base_axioms() == base
