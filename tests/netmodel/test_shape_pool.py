"""One warm solver per slice *shape*: the shared pool against private drivers.

Contract: ``encoding_key`` numbers a slice's nodes by tuple position —
the enum code the encoding gives them — so slices with equal keys are
one integer problem under different name tables, and a check that
leases a driver built for another slice's names (invariant renamed in,
trace renamed out, :func:`repro.netmodel.bmc.lease`) reports exactly
what a fresh private driver reports: status, depth and the bytes of the
canonical trace.  Tested on every registered scenario through one pool
per audit, on both SAT cores, and on generated networks against renamed
and re-ordered copies; two seeded mutations of the renaming are caught.
"""

import builtins
import copy
import importlib.util
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.netmodel.bmc as bmc_mod
from repro.core.engine import resolve_bmc_params
from repro.core.invariants import NodeIsolation
from repro.mboxes import LearningFirewall
from repro.netmodel import HeaderMatch, TransferRule, VerificationNetwork
from repro.netmodel.bmc import SolverPool, check, default_depth, encoding_key
from repro.netmodel.canon import rename
from repro.scenarios.registry import SCENARIOS, ScenarioError, build_scenario
from repro.smt.sat import PySatSolver


def _step_template_nets():
    """``tiny_problems`` of test_step_template.py (the tests directory
    is not a package, so it is loaded by path)."""
    path = pathlib.Path(__file__).parent / "test_step_template.py"
    spec = importlib.util.spec_from_file_location("_step_template_nets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tiny_problems


tiny_problems = _step_template_nets()

ENC = ("n_packets", "failure_budget", "n_ports", "n_tags")


def shape_key(net, params):
    return encoding_key(net, {k: params[k] for k in ENC})


def observed(result):
    return result.status, result.depth, str(result.trace)


def assert_pooled_equals_private(problems, pool=None):
    """Every ``(net, invariant, params)`` through one shared pool ==
    the same check on a fresh private driver.  Returns the pool."""
    pool = SolverPool(max_entries=64) if pool is None else pool
    for net, invariant, params in problems:
        shared = check(net, invariant, warm=pool, canonical_trace=True, **params)
        private = check(net, invariant, canonical_trace=True, **params)
        assert shared.invariant is invariant
        assert observed(shared) == observed(private), invariant
        if shared.trace is not None:
            named = {e.frm for e in shared.trace.events}
            assert named <= set(net.node_names), "trace names another slice"
    return pool


# ----------------------------------------------------------------------
# Registry scenarios: one pool per audit
# ----------------------------------------------------------------------
def _audit_problems(name, size, misconfig):
    try:
        bundle = build_scenario(name, size=size, misconfig=misconfig)
    except (ScenarioError, IndexError):
        # enterprise picks its victim among hosts size 2 does not have.
        pytest.skip(f"{name} cannot inject a misconfiguration at size {size}")
    vmn = bundle.vmn()
    for entry in bundle.checks:
        net, _ = vmn.network_for(entry.invariant)
        params = resolve_bmc_params(net, entry.invariant, {})
        yield net, entry.invariant, params


@pytest.mark.parametrize("misconfig", [False, True], ids=["clean", "misconfigured"])
@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registry_audits_through_one_pool(name, size, misconfig, core):
    if core is PySatSolver and (size > 2 or name == "datacenter-caches"):
        # ...and not the cache slices: 17-step unrollings over five
        # middleboxes cost it three minutes per audit (the C core: 2 s),
        # and the renaming under test does not depend on the core.
        pytest.skip("the pure-Python core runs the small size-2 inputs only")
    problems = list(_audit_problems(name, size, misconfig))
    pool = assert_pooled_equals_private(problems)
    shapes = {shape_key(net, params) for net, _, params in problems}
    assert None not in shapes
    assert pool.misses == len(shapes) == len(pool)
    assert pool.hits + pool.shared + pool.misses == len(problems)


def test_symmetric_slices_share_their_drivers():
    """The paper's §4.2 claim one layer down: encodings per audit
    follow the number of slice shapes, not the number of hosts."""
    for name, size, shapes in (("enterprise", 6, 3), ("multitenant", 4, 3)):
        bundle = build_scenario(name, size=size)
        vmn = bundle.vmn(use_cache=False, use_symmetry=False)
        vmn.verify_all(bundle.invariants)
        pool = vmn.solver_pool
        assert (pool.misses, len(pool)) == (shapes, shapes), name
        assert pool.shared > 0


# ----------------------------------------------------------------------
# What shares a key, and what must not
# ----------------------------------------------------------------------
def renamed_net(net, mapping):
    """``net`` with every node renamed (middlebox models are plain
    objects, which ``rename`` passes through: rebuild their fields)."""
    boxes = []
    for box in net.middleboxes:
        clone = copy.copy(box)
        for attr, value in vars(box).items():
            setattr(clone, attr, rename(value, mapping))
        boxes.append(clone)
    return VerificationNetwork(
        hosts=rename(net.hosts, mapping),
        middleboxes=tuple(boxes),
        rules=rename(net.rules, mapping),
        extra_addresses=rename(net.extra_addresses, mapping),
        allow_spoofing=net.allow_spoofing,
    )


def _asymmetric(hosts=("ext", "priv"), fw="fw", allow=None, extra=()):
    """ext -> fw -> priv, one direction allowed: no automorphism."""
    ext, priv = hosts
    rules = (
        TransferRule.of(HeaderMatch.of(dst={priv}), to=fw, from_nodes={ext}),
        TransferRule.of(HeaderMatch.of(dst={priv}), to=priv, from_nodes={fw}),
        TransferRule.of(HeaderMatch.of(dst={ext}), to=ext, from_nodes={priv}),
    )
    allow = [(priv, ext)] if allow is None else allow
    return VerificationNetwork(
        hosts=hosts,
        middleboxes=(LearningFirewall(fw, allow=allow),),
        rules=rules,
        extra_addresses=extra,
    )


def _swapped():
    """The same network with its two hosts at each other's position."""
    net = _asymmetric()
    return VerificationNetwork(
        hosts=net.hosts[::-1], middleboxes=net.middleboxes, rules=net.rules,
    )


_PARAMS = dict(n_packets=1, failure_budget=0, n_ports=3, n_tags=2)


class TestWhatSharesAKey:
    def test_a_renamed_copy_shares_and_the_identity_is_a_special_case(self):
        base = _asymmetric()
        key = shape_key(base, _PARAMS)
        assert key is not None
        assert shape_key(_asymmetric(), _PARAMS) == key
        # Unsorted on purpose: positions, not names, carry the shape.
        assert shape_key(_asymmetric(("zed", "abe"), "m"), _PARAMS) == key
        # Rules are a set; hosts, middleboxes and extras are tuples.
        shuffled = VerificationNetwork(
            hosts=base.hosts, middleboxes=base.middleboxes,
            rules=base.rules[::-1],
        )
        assert shape_key(shuffled, _PARAMS) == key

    @pytest.mark.parametrize("other", [
        pytest.param(_asymmetric(allow=[("ext", "priv")]), id="edited-firewall-pair"),
        pytest.param(_swapped(), id="swapped-tuple-position"),
        pytest.param(_asymmetric(extra=("vip",)), id="extra-address"),
    ])
    def test_a_different_shape_does_not_share(self, other):
        assert shape_key(other, _PARAMS) not in (None, shape_key(_asymmetric(), _PARAMS))

    @pytest.mark.parametrize("field", ["n_packets", "failure_budget"])
    def test_different_parameters_do_not_share(self, field):
        other = dict(_PARAMS, **{field: _PARAMS[field] + 1})
        assert shape_key(_asymmetric(), other) != shape_key(_asymmetric(), _PARAMS)

    def test_a_duplicated_name_has_no_key(self):
        assert shape_key(_asymmetric(extra=("ext",)), _PARAMS) is None
        assert shape_key(_asymmetric(("ext", "ext")), _PARAMS) is None

    def test_an_unfingerprintable_config_has_no_key(self):
        net = _asymmetric()
        net.middleboxes[0].hook = lambda packet: packet
        assert shape_key(net, _PARAMS) is None

    def test_keyless_checks_get_private_drivers(self):
        net = _asymmetric()
        net.middleboxes[0].hook = lambda packet: packet
        pool = SolverPool()
        for _ in range(2):
            result = check(net, NodeIsolation("priv", "ext"), warm=pool, **_PARAMS)
            assert result.stats["warm"] is False
        assert len(pool) == 0

    def test_an_invariant_rename_cannot_rebuild_gets_a_private_driver(self):
        """Names held in plain-object state survive ``rename`` unrenamed;
        ``canon`` sees that, and the check leaves the pool alone."""

        class Opaque:
            n_packets_hint = 1
            failure_budget = 0

            def __init__(self, dst, src):
                self.inner = NodeIsolation(dst, src)

            def violation_term(self, ctx):
                return self.inner.violation_term(ctx)

        pool = SolverPool()
        first = check(_asymmetric(), Opaque("priv", "ext"), warm=pool, **_PARAMS)
        other = _asymmetric(("zed", "abe"), "m")
        second = check(other, Opaque("abe", "zed"), warm=pool, **_PARAMS)
        assert (pool.misses, pool.shared) == (1, 1)
        assert second.stats["warm"] is False  # leased, then declined
        assert second.status == first.status


# ----------------------------------------------------------------------
# Hypothesis: generated networks against renamed and re-ordered copies
# ----------------------------------------------------------------------
_TINY = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestGeneratedNetworks:
    @_TINY
    @given(problem=tiny_problems(), reverse=st.booleans())
    def test_a_renamed_copy_leases_the_same_driver(self, core, problem, reverse):
        net, invariant, params = problem
        names = net.addresses
        fresh = [f"x{i}" for i in range(len(names))]
        mapping = dict(zip(names, reversed(fresh) if reverse else fresh))
        twin = renamed_net(net, mapping)
        params = dict(params, depth=default_depth(
            net, params["n_packets"], params["failure_budget"]
        ))
        assert twin.addresses == rename(names, mapping)
        assert shape_key(twin, params) == shape_key(net, params) is not None
        pool = assert_pooled_equals_private([
            (net, invariant, params),
            (twin, rename(invariant, mapping), params),
            (net, invariant, params),
        ])
        assert (pool.misses, pool.shared, pool.hits) == (1, 1, 1)

    @_TINY
    @given(problem=tiny_problems(), data=st.data())
    def test_a_permuted_copy_shares_only_what_is_the_same_problem(
        self, core, problem, data
    ):
        """Same names, other tuple positions: usually another key —
        and when the keys agree (the permutation is an automorphism of
        the network) sharing the driver is still right."""
        net, invariant, params = problem
        hosts = tuple(data.draw(st.permutations(net.hosts)))
        twin = VerificationNetwork(
            hosts=hosts, middleboxes=net.middleboxes[::-1], rules=net.rules,
        )
        params = dict(params, depth=default_depth(
            net, params["n_packets"], params["failure_budget"]
        ))
        pool = assert_pooled_equals_private(
            [(net, invariant, params), (twin, invariant, params)]
        )
        same = shape_key(net, params) == shape_key(twin, params)
        assert pool.misses == (1 if same else 2)
        if twin.addresses == net.addresses:
            assert same and pool.hits == 1


# ----------------------------------------------------------------------
# Seeded mutations of the renaming must be caught
# ----------------------------------------------------------------------
def _two_slices_of_one_shape():
    params = dict(_PARAMS, depth=7)
    return [
        (_asymmetric(allow=[("ext", "priv")]), NodeIsolation("priv", "ext"), params),
        (_asymmetric(("zed", "abe"), "m", allow=[("zed", "abe")]),
         NodeIsolation("abe", "zed"), params),
    ]


class TestSeededMutations:
    def test_the_unmutated_renaming_passes(self):
        pool = assert_pooled_equals_private(_two_slices_of_one_shape())
        assert (pool.misses, pool.shared) == (1, 1)

    def test_a_trace_that_is_not_renamed_back_is_caught(self, monkeypatch):
        monkeypatch.setattr(bmc_mod.Lease, "out", lambda self, value: value)
        with pytest.raises(AssertionError):
            assert_pooled_equals_private(_two_slices_of_one_shape())

    def test_a_mapping_from_sorted_names_is_caught(self, monkeypatch):
        """Position is the enum code; alphabetical order is not."""
        monkeypatch.setattr(
            bmc_mod, "zip",
            lambda a, b: builtins.zip(sorted(a), sorted(b)), raising=False,
        )
        with pytest.raises((AssertionError, KeyError)):
            assert_pooled_equals_private(_two_slices_of_one_shape())
