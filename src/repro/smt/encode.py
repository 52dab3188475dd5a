"""Bit vectors for enum-sorted terms (bit-blasting).

Each enum variable of sort ``S`` is represented by ``S.nbits`` boolean
variables holding the binary code of its value, plus — when the sort
size is not a power of two — a domain constraint excluding the unused
codes.  Enum constants become tuples of boolean constants and enum
``ite`` becomes a bitwise ``ite`` over the model's own condition term.

Nothing here rewrites boolean terms: :class:`repro.smt.cnf.CnfConverter`
walks the model's terms directly and asks :meth:`EnumLowering.bits_of`
for the operands of each enum equality it meets, defining the equality
as a conjunction of per-bit equivalences in CNF.  Bit vectors are
memoised per :class:`EnumLowering` instance.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .sorts import EnumSort
from .terms import FALSE, TRUE, And, BoolVar, Ite, Not, Or, Term

__all__ = ["EnumLowering", "bit_name"]


def bit_name(var_name: str, bit: int) -> str:
    """Name of the boolean variable holding bit ``bit`` of an enum var."""
    return f"{var_name}!b{bit}"


def _const_bits(sort: EnumSort, value) -> Tuple[Term, ...]:
    code = sort.code_of(value)
    return tuple(
        TRUE if (code >> i) & 1 else FALSE for i in range(sort.nbits)
    )


class EnumLowering:
    """Maps enum terms to bit vectors, collecting domain side conditions."""

    def __init__(self):
        self._bits: Dict[Term, Tuple[Term, ...]] = {}
        self.side_conditions: List[Term] = []

    # ------------------------------------------------------------------
    def bits_of(self, term: Term) -> Tuple[Term, ...]:
        """Boolean bit terms (LSB first) denoting the enum term's code."""
        cached = self._bits.get(term)
        if cached is not None:
            return cached
        kind = term.kind
        if kind == "econst":
            bits = _const_bits(term.sort, term.payload)
        elif kind == "evar":
            sort: EnumSort = term.sort  # type: ignore[assignment]
            bits = tuple(
                BoolVar(bit_name(term.payload, i)) for i in range(sort.nbits)
            )
            self._add_domain_constraint(term, bits)
        elif kind == "ite":
            cond = term.args[0]
            then_bits = self.bits_of(term.args[1])
            else_bits = self.bits_of(term.args[2])
            bits = tuple(
                Ite(cond, t, e) for t, e in zip(then_bits, else_bits)
            )
        else:  # pragma: no cover - guarded by the term constructors
            raise TypeError(f"not an enum term kind: {kind!r}")
        self._bits[term] = bits
        return bits

    def _add_domain_constraint(self, var: Term, bits: Tuple[Term, ...]) -> None:
        sort: EnumSort = var.sort  # type: ignore[assignment]
        n = sort.size
        if n == (1 << sort.nbits):
            return
        # Unsigned comparison circuit for "code < n" with constant n,
        # folded LSB-to-MSB:  lt' = (x_i < n_i) or (x_i = n_i and lt).
        lt = FALSE
        for i in range(sort.nbits):
            n_bit = (n >> i) & 1
            if n_bit:
                lt = Or(Not(bits[i]), lt)
            else:
                lt = And(Not(bits[i]), lt)
        self.side_conditions.append(lt)

    def drain_side_conditions(self) -> List[Term]:
        """Domain constraints accumulated since the last drain."""
        out = self.side_conditions
        self.side_conditions = []
        return out
