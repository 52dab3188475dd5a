"""Evaluation scenarios (paper §5), misconfiguration injectors, and
churn streams for incremental re-verification."""

from .._lazy import lazy_exports
from .common import ExpectedCheck, ScenarioBundle
from .datacenter import (
    datacenter,
    datacenter_redundancy,
    datacenter_traversal,
    datacenter_with_caches,
)
from .enterprise import SUBNET_TYPES, enterprise
from .isp import isp
from .multitenant import multitenant
from .registry import DEFAULT_SIZES, SCENARIOS, ScenarioError, build_scenario

__all__ = [
    "SCENARIOS",
    "DEFAULT_SIZES",
    "ScenarioError",
    "build_scenario",
    "ExpectedCheck",
    "ScenarioBundle",
    "ChurnEvent",
    "CHURN_GENERATORS",
    "enterprise_firewall_churn",
    "tenant_churn",
    "datacenter",
    "datacenter_redundancy",
    "datacenter_traversal",
    "datacenter_with_caches",
    "enterprise",
    "SUBNET_TYPES",
    "isp",
    "multitenant",
    "FAULTS",
    "InjectedFault",
    "build_fault",
    "fault_names",
]

# Churn and faults import ``repro.incremental``, which an audit never
# needs: loaded on first use (no name here is also a submodule's).
__getattr__, __dir__ = lazy_exports(globals(), {
    **dict.fromkeys(("CHURN_GENERATORS", "ChurnEvent",
                     "enterprise_firewall_churn", "tenant_churn"), ".churn"),
    **dict.fromkeys(("FAULTS", "InjectedFault", "build_fault",
                     "fault_names"), ".faults"),
})
