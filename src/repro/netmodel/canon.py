"""Structural canonicalization of verification problems.

Two *exact* keys live beside the helpers: :func:`invariant_fingerprint`
and :func:`network_fingerprint` (one network version — the daemon's
shard key and provenance's ``config_hash``; here, so that needing it
does not import the delta vocabulary).  Two consumers sit on top of
these helpers, both *up to node renaming*:

* :func:`repro.core.engine.fingerprint` canonicalizes a
  ``(network, invariant, params)`` triple with the invariant's nodes
  numbered first, so isomorphic checks share one result-cache entry;
* :func:`repro.netmodel.bmc.encoding_key` canonicalizes a
  ``(network, params)`` pair with nodes numbered by *tuple position*
  — the enum code the encoding gives them — so slices that are one
  integer problem under different name tables share one warm solver.

:func:`rename` applies such a name table to live objects: an invariant
going into a solver built for other names, its trace and certificate
coming out, a cached trace handed to an isomorphic check.

``canon`` walks strings, scalars, containers, dataclasses, and plain
config objects (middlebox models), producing a hashable, ``repr``-stable
form; anything else raises :class:`Unfingerprintable`, which callers
translate into "skip the cache, never risk an unsound hit".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

__all__ = [
    "Unfingerprintable",
    "canon",
    "collect_names",
    "field_values",
    "invariant_fingerprint",
    "network_fingerprint",
    "placeholders",
    "rename",
]


class Unfingerprintable(Exception):
    """The problem contains state the canonicalizer cannot serialize."""


def collect_names(value, known: frozenset, order: List[str]) -> None:
    """Append network node names in ``value`` to ``order``, first
    appearance wins; containers are walked deterministically."""
    if isinstance(value, str):
        if value in known and value not in order:
            order.append(value)
    elif isinstance(value, (tuple, list)):
        for v in value:
            collect_names(v, known, order)
    elif isinstance(value, (set, frozenset)):
        for v in sorted(value, key=repr):
            collect_names(v, known, order)
    elif isinstance(value, dict):
        for k in sorted(value, key=repr):
            collect_names(k, known, order)
            collect_names(value[k], known, order)


def placeholders(order) -> Dict[str, str]:
    """The renaming that numbers ``order``'s names by position (NUL
    cannot occur in a real name)."""
    return {name: f"\x00n{i}" for i, name in enumerate(order)}


def rename(value, mapping: Dict[str, str]):
    """``value`` rebuilt with every node name sent through ``mapping``:
    what :func:`canon` does to names, kept as objects (other leaves,
    and objects :func:`canon` would not open as data, pass through)."""
    if isinstance(value, str):
        return mapping.get(value, value)
    if isinstance(value, (tuple, list, set, frozenset)):
        return type(value)(rename(v, mapping) for v in value)
    if isinstance(value, dict):
        return {rename(k, mapping): rename(v, mapping) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.replace(value, **{
            f.name: rename(getattr(value, f.name), mapping)
            for f in dataclasses.fields(value) if f.init
        })
    return value


def field_values(obj) -> List[Tuple[str, object]]:
    """(name, value) pairs of an invariant or middlebox, in a stable
    order: dataclass field order when available, else sorted ``vars``."""
    if dataclasses.is_dataclass(obj):
        return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    return sorted(vars(obj).items())


def invariant_fingerprint(invariant) -> str:
    """An *exact* structural key of one invariant (no node renaming).

    This is the identity under which a persistent store files an
    invariant's proof certificate: stable across process restarts,
    ``PYTHONHASHSEED`` values, and Python versions (it is built from
    sorted/`repr`-stable canonical forms only), and — unlike the result
    cache's check fingerprint — independent of the network version, so
    a certificate filed under it can be re-validated against any later
    version of the network.
    """
    return repr((
        "inv",
        type(invariant).__module__,
        type(invariant).__qualname__,
        tuple((n, canon(v, {})) for n, v in field_values(invariant)),
    ))


def network_fingerprint(topology, steering) -> str:
    """An exact structural key of one network version.

    Covers everything verification reads: node kinds and policy groups,
    the link set, every middlebox model's configuration (via
    :func:`canon`; other nodes carry no model), and the steering chains
    and joins.  Two versions with equal fingerprints produce
    byte-identical transfer rules and encodings — the equality delta
    round-trip tests and repair-candidate deduplication check for.
    """
    nodes = []
    for name in sorted(topology.node_names):
        node = topology.node(name)
        nodes.append(
            (name, node.kind, node.policy_group, canon(node.model, {})))
    links = sorted(tuple(sorted(pair)) for pair in topology.links)
    chains = tuple(sorted(steering.chains.items()))
    joins = tuple(
        (k, tuple(sorted(v.items()))) for k, v in sorted(steering.joins.items())
    )
    return repr(("net-version", tuple(nodes), tuple(links), chains, joins))


def canon(value, rename: Dict[str, str]):
    """Canonical, hashable form of ``value`` with node names renamed."""
    if isinstance(value, str):
        return rename.get(value, value)
    if isinstance(value, (bool, int, float)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return ("seq",) + tuple(canon(v, rename) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(
            sorted((canon(v, rename) for v in value), key=repr)
        )
    if isinstance(value, dict):
        return ("map",) + tuple(
            sorted(
                ((canon(k, rename), canon(v, rename)) for k, v in value.items()),
                key=repr,
            )
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            "dc",
            type(value).__qualname__,
            tuple((n, canon(v, rename)) for n, v in field_values(value)),
        )
    if hasattr(value, "__dict__") and not callable(value):
        # Middlebox models and other plain config objects: their
        # behaviour is a pure function of (class, attributes).
        return (
            "obj",
            type(value).__module__,
            type(value).__qualname__,
            tuple((n, canon(v, rename)) for n, v in field_values(value)),
        )
    raise Unfingerprintable(f"cannot canonicalize {type(value).__name__}: {value!r}")
