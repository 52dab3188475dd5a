"""VMN — Verifying Reachability in Networks with Mutable Datapaths.

A reproduction of Panda et al., NSDI 2017.  The public API:

* :mod:`repro.core` — the verifier: :class:`repro.core.VMN`, the
  invariant classes, slicing and symmetry;
* :mod:`repro.mboxes` — the middlebox model library (Listings 1-2);
* :mod:`repro.network` — topologies, forwarding, transfer functions;
* :mod:`repro.netmodel` — the symbolic encoding and BMC driver;
* :mod:`repro.proof` — unbounded proof engines (k-induction, IC3/PDR,
  certificates + minimization, the portfolio driver);
* :mod:`repro.repair` — counterexample-guided repair synthesis
  (certified patches for violated invariants);
* :mod:`repro.smt` — the finite-domain SMT substrate (the Z3 stand-in);
* :mod:`repro.scenarios` — the paper's §5 evaluation scenarios;
* :mod:`repro.baselines` — whole-network and explicit-state baselines.
"""

from ._lazy import lazy_exports

__version__ = "0.9.0"

__all__ = [
    "VMN",
    "Invariant",
    "NodeIsolation",
    "FlowIsolation",
    "DataIsolation",
    "Traversal",
    "CanReach",
    "ClassIsolation",
    "Topology",
    "SteeringPolicy",
    "__version__",
]

# Loaded on first use: see repro/_lazy.py for why importing this
# package must not import the verifier.
__getattr__, __dir__ = lazy_exports(globals(), {
    "VMN": ".core",
    "Invariant": ".core",
    "NodeIsolation": ".core",
    "FlowIsolation": ".core",
    "DataIsolation": ".core",
    "Traversal": ".core",
    "CanReach": ".core",
    "ClassIsolation": ".core",
    "Topology": ".network",
    "SteeringPolicy": ".network",
})
