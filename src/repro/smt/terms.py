"""Hash-consed term AST for the finite-domain SMT layer.

Terms form an immutable DAG.  Construction goes through the module-level
constructor functions (:func:`BoolVar`, :func:`And`, :func:`Eq`, ...)
which perform light simplification (constant folding, flattening,
deduplication, complement detection) and intern structurally identical
terms so that equality checks and memoisation during CNF conversion are
O(1) identity comparisons.

Boolean kinds: ``true``, ``false``, ``var``, ``not``, ``and``, ``or``,
``ite`` (with boolean branches), ``eq`` (over enum terms; boolean
equality is rewritten to iff = and/or form).

Enum kinds: ``evar``, ``econst``, ``ite`` (with enum branches).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from .sorts import BOOL, EnumSort, Sort

__all__ = [
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
]


class Term:
    """An interned term.  Do not construct directly; use the constructors."""

    __slots__ = ("kind", "sort", "args", "payload", "is_bool", "_hash")

    def __init__(self, kind: str, sort: Sort, args: Tuple["Term", ...], payload,
                 key_hash: int):
        self.kind = kind
        self.sort = sort
        self.args = args
        self.payload = payload
        self.is_bool = sort is BOOL
        # Hash of the intern key (see _mk): and/or arguments are sorted
        # by it, so it fixes clause order for a fixed memory layout.
        self._hash = key_hash

    def __hash__(self) -> int:
        return self._hash

    # Interning guarantees structural equality == identity.
    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    # Convenience operators for readable model-building code.
    def __and__(self, other: "Term") -> "Term":
        return And(self, other)

    def __or__(self, other: "Term") -> "Term":
        return Or(self, other)

    def __invert__(self) -> "Term":
        return Not(self)

    def __rshift__(self, other: "Term") -> "Term":
        """``a >> b`` is implication, matching guarded-command style."""
        return Implies(self, other)

    def __repr__(self) -> str:
        return _pretty(self, depth=3)


_intern: Dict[tuple, Term] = {}
_var_sorts: Dict[str, Sort] = {}


def _mk(kind: str, sort: Sort, args: Tuple[Term, ...] = (), payload=None) -> Term:
    key = (kind, id(sort), tuple(map(id, args)), payload)
    term = _intern.get(key)
    if term is None:
        term = _intern[key] = Term(kind, sort, args, payload, hash(key))
    return term


def _reset_intern_tables() -> None:
    """Testing hook: drop all interned terms and variable declarations.

    The TRUE/FALSE singletons are re-registered so identity checks in the
    constructors keep working after a reset.
    """
    _intern.clear()
    _var_sorts.clear()
    _intern[("true", id(BOOL), (), None)] = TRUE
    _intern[("false", id(BOOL), (), None)] = FALSE


#: The true constant.
TRUE = _mk("true", BOOL)
#: The false constant.
FALSE = _mk("false", BOOL)


def BoolConst(value: bool) -> Term:
    """The boolean constant for ``value``."""
    return TRUE if value else FALSE


def _declare(name: str, sort: Sort) -> None:
    existing = _var_sorts.get(name)
    if existing is None:
        _var_sorts[name] = sort
    elif existing is not sort:
        raise ValueError(
            f"variable {name!r} redeclared with sort {sort.name}; "
            f"previously {existing.name}"
        )


def BoolVar(name: str) -> Term:
    """A boolean variable.  Same name always returns the same term."""
    _declare(name, BOOL)
    return _mk("var", BOOL, (), name)


def EnumVar(name: str, sort: EnumSort) -> Term:
    """An enum-sorted variable."""
    if not isinstance(sort, EnumSort):
        raise TypeError(f"EnumVar needs an EnumSort, got {sort!r}")
    _declare(name, sort)
    return _mk("evar", sort, (), name)


def EnumConst(sort: EnumSort, value) -> Term:
    """The constant of ``sort`` denoting ``value``."""
    sort.code_of(value)  # validate
    return _mk("econst", sort, (), value)


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


def Not(a: Term) -> Term:
    if not a.is_bool:
        raise TypeError("Not() needs a boolean term")
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    if a.kind == "not":
        return a.args[0]
    return _mk("not", BOOL, (a,))


def _flatten(kind: str, terms: Iterable[Term]) -> Iterator[Term]:
    for t in terms:
        if t.kind == kind:
            yield from t.args
        else:
            yield t


def And(*terms: Term) -> Term:
    """N-ary conjunction with flattening, dedup and complement detection."""
    flat: List[Term] = []
    seen = set()
    for t in _flatten("and", terms):
        if not t.is_bool:
            raise TypeError("And() needs boolean terms")
        if t is FALSE:
            return FALSE
        if t is TRUE or t in seen:
            continue
        seen.add(t)
        flat.append(t)
    for t in flat:
        if t.kind == "not" and t.args[0] in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t._hash)
    return _mk("and", BOOL, tuple(flat))


def Or(*terms: Term) -> Term:
    """N-ary disjunction with flattening, dedup and complement detection."""
    flat: List[Term] = []
    seen = set()
    for t in _flatten("or", terms):
        if not t.is_bool:
            raise TypeError("Or() needs boolean terms")
        if t is TRUE:
            return TRUE
        if t is FALSE or t in seen:
            continue
        seen.add(t)
        flat.append(t)
    for t in flat:
        if t.kind == "not" and t.args[0] in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t._hash)
    return _mk("or", BOOL, tuple(flat))


def Implies(a: Term, b: Term) -> Term:
    return Or(Not(a), b)


def Iff(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is FALSE:
        return Not(b)
    if b is FALSE:
        return Not(a)
    return And(Or(Not(a), b), Or(a, Not(b)))


def Xor(a: Term, b: Term) -> Term:
    return Not(Iff(a, b))


def Ite(cond: Term, then: Term, other: Term) -> Term:
    """If-then-else over boolean or enum branches."""
    if not cond.is_bool:
        raise TypeError("Ite() condition must be boolean")
    if then.sort is not other.sort:
        raise TypeError(
            f"Ite() branches have different sorts: "
            f"{then.sort.name} vs {other.sort.name}"
        )
    if cond is TRUE:
        return then
    if cond is FALSE:
        return other
    if then is other:
        return then
    if then.is_bool:
        return Or(And(cond, then), And(Not(cond), other))
    return _mk("ite", then.sort, (cond, then, other))


def Eq(a: Term, b: Term) -> Term:
    """Equality.  Boolean equality lowers to iff; enum equality is a term."""
    if a.sort is not b.sort:
        raise TypeError(f"Eq() over different sorts: {a.sort.name} vs {b.sort.name}")
    if a.is_bool:
        return Iff(a, b)
    if a is b:
        return TRUE
    if a.kind == "econst" and b.kind == "econst":
        return BoolConst(a.payload == b.payload)
    # Push equality through an ite of constants so ACL tables fold nicely.
    if a._hash > b._hash:
        a, b = b, a
    return _mk("eq", BOOL, (a, b))


def Ne(a: Term, b: Term) -> Term:
    return Not(Eq(a, b))


def Distinct(*terms: Term) -> Term:
    """Pairwise disequality of all given terms."""
    parts = [Ne(a, b) for i, a in enumerate(terms) for b in terms[i + 1 :]]
    return And(*parts)


def at_most_one(terms: Iterable[Term]) -> Term:
    """Pairwise at-most-one constraint (fine for the small n we use)."""
    ts = list(terms)
    parts = [
        Or(Not(a), Not(b)) for i, a in enumerate(ts) for b in ts[i + 1 :]
    ]
    return And(*parts)


def exactly_one(terms: Iterable[Term]) -> Term:
    ts = list(terms)
    return And(Or(*ts), at_most_one(ts))


def at_most_k(terms: Iterable[Term], k: int) -> Term:
    """At most ``k`` of ``terms`` hold (binomial encoding).

    Every (k+1)-subset contains a false term.  Fine for the small inputs
    we use it on (failure budgets over a dozen timesteps).
    """
    from itertools import combinations

    ts = list(terms)
    if k < 0:
        raise ValueError("k must be non-negative")
    if k >= len(ts):
        return TRUE
    parts = [Or(*(Not(t) for t in subset)) for subset in combinations(ts, k + 1)]
    return And(*parts)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def iter_dag(*roots: Term) -> Iterator[Term]:
    """Yield every distinct subterm reachable from ``roots``, post-order."""
    seen = set()
    stack: List[Tuple[Term, bool]] = [(r, False) for r in roots]
    while stack:
        term, expanded = stack.pop()
        if term in seen:
            continue
        if expanded:
            seen.add(term)
            yield term
        else:
            stack.append((term, True))
            for arg in term.args:
                if arg not in seen:
                    stack.append((arg, False))


def free_vars(*roots: Term) -> FrozenSet[Term]:
    """All variables (boolean and enum) appearing in ``roots``."""
    return frozenset(t for t in iter_dag(*roots) if t.kind in ("var", "evar"))


def _pretty(term: Term, depth: int = 6) -> str:
    if term.kind in ("true", "false"):
        return term.kind
    if term.kind in ("var", "evar"):
        return str(term.payload)
    if term.kind == "econst":
        return f"{term.sort.name}.{term.payload}"
    if depth <= 0:
        return "..."
    inner = ", ".join(_pretty(a, depth - 1) for a in term.args)
    return f"{term.kind}({inner})"
