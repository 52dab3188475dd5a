"""Finite-domain SMT substrate (the offline stand-in for Z3).

The public surface mirrors the small subset of z3py that VMN's encoding
uses: sorts, term constructors, ``Solver``/``Model``, and uninterpreted
functions.  See the README ("Solver internals", *Why a propositional core
suffices*) for why a propositional CDCL core decides exactly the formulas
VMN generates once time is explicitly quantified.
"""

from .sat import SAT, UNKNOWN, UNSAT, SatSolver, luby
from .simplify import evaluate, is_constant, substitute
from .solver import Model, Solver
from .sorts import BOOL, BoolSort, EnumSort, Sort, int_range
from .terms import (
    FALSE,
    TRUE,
    And,
    BoolConst,
    BoolVar,
    Distinct,
    EnumConst,
    EnumVar,
    Eq,
    Iff,
    Implies,
    Ite,
    Ne,
    Not,
    Or,
    Term,
    Xor,
    at_most_k,
    at_most_one,
    exactly_one,
    free_vars,
    iter_dag,
)
from .ufunc import UFunc

__all__ = [
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "SatSolver",
    "luby",
    "Solver",
    "Model",
    "Sort",
    "BoolSort",
    "EnumSort",
    "BOOL",
    "int_range",
    "Term",
    "TRUE",
    "FALSE",
    "BoolVar",
    "BoolConst",
    "EnumVar",
    "EnumConst",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Xor",
    "Ite",
    "Eq",
    "Ne",
    "Distinct",
    "at_most_one",
    "exactly_one",
    "at_most_k",
    "free_vars",
    "iter_dag",
    "UFunc",
    "substitute",
    "evaluate",
    "is_constant",
]
