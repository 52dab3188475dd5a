"""Package re-exports that load on first use (PEP 562).

``import repro`` — which every ``import repro.<anything>`` runs first —
must stay cheap: the thin entry points (``repro list``, ``stats``,
``top``, ``tail``, every ``--server`` client) never verify anything and
should not pay for importing the verification stack.  A package lists
its public names with the submodule each lives in; the submodule is
imported when a name is first read, and the value is then cached in the
package namespace like an ordinary ``from .sub import name``.

Only for names that do not collide with a submodule of the package: the
import system binds ``package.sub`` when ``package.sub`` loads, and
``__getattr__`` is never asked about a name that is already bound.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``; ``exports`` maps each public name to the relative
    submodule (``".core"``) that defines it."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(submodule, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
