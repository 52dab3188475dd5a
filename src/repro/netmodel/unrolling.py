"""The warm unrolling both verification drivers are built on.

One :class:`Unrolling` owns one :class:`NetworkSMTModel` and one warm
:class:`repro.smt.Solver`.  The transition relation is the same formula
at every timestep, so it is encoded **once**, at construction, as a
step template (:meth:`NetworkSMTModel.generic_step` recorded by
:meth:`Solver.record_template`); :meth:`extend_to` then asserts step
``t`` by re-emitting the template's clauses over step ``t``'s state and
event variables — no term of a later step is ever built.  Everything
asked *about* the unrolling (violations, cubes, noop pins, trace pins)
stays on the ordinary term path, over the per-step state variables of
:meth:`ModelContext.history_at`.

:class:`repro.netmodel.bmc.IncrementalBMC` (empty start, asserted) and
:class:`repro.proof.transition.TransitionSystem` (arbitrary consistent
start) differ only in what they assert about time 0.
"""

from __future__ import annotations

import time
from typing import List

from ..obs import get_tracer, solver_counter_snapshot
from ..smt import Solver, Term
from .system import NetworkSMTModel, VerificationNetwork

__all__ = ["Unrolling"]


class Unrolling:
    """One warm solver over one network model, deepened step by step."""

    #: Span category, construction span, extension span.
    _SPANS = ("bmc", "encode", "extend")

    def __init__(
        self,
        net: VerificationNetwork,
        n_packets: int,
        depth: int,
        failure_budget: int = 0,
        n_ports: int = 6,
        n_tags: int = 4,
        rule_guards=None,
    ):
        started = time.perf_counter()
        self.net = net
        cat, encode, _ = self._SPANS
        with get_tracer().span(
            encode, cat=cat, depth=depth, n_packets=n_packets
        ) as span:
            self.model = NetworkSMTModel(
                net,
                n_packets=n_packets,
                depth=depth,
                failure_budget=failure_budget,
                n_ports=n_ports,
                n_tags=n_tags,
                rule_guards=rule_guards,
            )
            self.solver = Solver()
            self.asserted_depth = 0
            self.checks = 0
            self._template = self.solver.record_template(
                *self.model.generic_step()
            )
            for axiom in self.model.base_axioms() + self._start_axioms():
                self.solver.add(axiom)
            self._report(span)
        self.encode_seconds = time.perf_counter() - started

    def _start_axioms(self) -> List[Term]:
        """What holds of the state at time 0: the empty network."""
        return self.model.init_axioms()

    def _report(self, span, since=None) -> None:
        self.solver.report_encoding(span, since=since)
        span.tag(
            template_ints=len(self._template.slots),
            rigid_vars=self._template.rigid,
        )

    @property
    def model_depth(self) -> int:
        return self.model.depth

    def counters(self) -> dict:
        """Cumulative solver counters, keyed by the canonical
        :data:`repro.obs.SOLVER_COUNTER_KEYS` (diff snapshots per
        check).  Missing keys read as 0 so an older solver core (the
        vendored pre-rewrite oracle in ``benchmarks/_sat_reference.py``,
        which predates the inprocessing counters) still satisfies the
        schema."""
        return solver_counter_snapshot(self.solver.stats())

    def extend_to(self, k: int) -> None:
        """Assert the transition relation of steps ``0..k-1``; asserted
        steps are never re-encoded, and each new one is a single batch
        of the template's clauses."""
        k = min(k, self.model.depth)
        if k <= self.asserted_depth:
            return
        started = time.perf_counter()
        cat, _, extend = self._SPANS
        with get_tracer().span(
            extend, cat=cat, from_depth=self.asserted_depth, to_depth=k
        ) as span:
            before = self.solver.encoder_counters()
            for t in range(self.asserted_depth, k):
                if t == 0:  # the recorded instance: definitions are in
                    self.solver.assert_template(self._template)
                else:
                    self.solver.assert_template(
                        self._template, *self.model.step_variables(t)
                    )
            self._report(span, since=before)
        self.asserted_depth = k
        self.encode_seconds += time.perf_counter() - started
