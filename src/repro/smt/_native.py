"""ctypes loader and wrapper for the C SAT core (``satcore.c``).

The C source ships with the package and is compiled on first use with
whatever system C compiler is available (``cc``/``gcc``/``clang``) into
a per-user cache directory keyed by a hash of the source, so rebuilds
happen only when the source changes, and a library already there is
loaded without a compiler or the toolchain modules.  There is no
build-time step and no third-party dependency: if the cache is cold and
no compiler is found (or the build fails for
any reason) :func:`load` returns ``None`` and ``repro.smt.sat`` keeps
exporting the pure-Python arena solver, which implements the same
algorithm with the same observable behaviour.

:class:`NativeSatSolver` mirrors the :class:`repro.smt.sat.SatSolver`
public API exactly — ``new_var``/``add_clause``/``add_clauses``/
``solve``/``solve_with``/``simplify``/``value``/``core``/``stats`` —
keeping DIMACS validation in Python where it is cheap, and
delegating the search hot path to C.  The two bulk crossings are one
FFI call each: ``add_clauses`` passes the CNF converter's flat
``[len, lit, ...]`` int32 buffer by address (C validates the literals)
a ``sat`` answer copies the whole model out at once, as one
``bytes`` object indexed by variable, and ``solve`` hands its assumptions
over as an ``array('i')`` by address (C checks their range).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from array import array
from typing import List, Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_SOURCE = os.path.join(os.path.dirname(__file__), "satcore.c")
_LIB_SENTINEL = object()
_LIB = _LIB_SENTINEL


def _cache_dir() -> str:
    override = os.environ.get("REPRO_SATCORE_CACHE")
    if override:
        return override
    import tempfile

    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-satcore-{uid}")


def _build() -> Optional[str]:
    """The cached ``.so`` path, compiled first if absent.  An image may
    ship a warm cache and no ``cc``: the compiler is looked for last."""
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    if hasattr(os, "uname"):
        machine = os.uname().machine  # what platform.machine() reads
    else:
        import platform

        machine = platform.machine()
    key = hashlib.sha256(source + machine.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"satcore-{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    import shutil
    import subprocess
    import tempfile

    compiler = None
    for name in ("cc", "gcc", "clang"):
        compiler = shutil.which(name)
        if compiler:
            break
    if not compiler:
        return None
    tmp = None
    try:
        os.makedirs(cache, exist_ok=True)
        # Unique temp name + atomic rename: concurrent builders race
        # benignly (last writer wins, all produce identical output),
        # and no loader can ever observe a half-written .so at
        # lib_path.  The finally-unlink keeps a failed or timed-out
        # compile from leaking its temp file into the cache dir.
        fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=cache)
        os.close(fd)
        result = subprocess.run(
            [compiler, "-O2", "-std=c99", "-fPIC", "-shared", "-o", tmp, _SOURCE],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            return None
        os.replace(tmp, lib_path)
        tmp = None
        return lib_path
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def load() -> Optional[ctypes.CDLL]:
    """Build (if needed) and load the C core; None when unavailable."""
    global _LIB
    if _LIB is not _LIB_SENTINEL:
        return _LIB
    _LIB = None
    lib_path = _build()
    if lib_path is not None:
        try:
            lib = ctypes.CDLL(lib_path)
            _bind(lib)
            _LIB = lib
        except OSError:
            _LIB = None
    return _LIB


def _bind(lib: ctypes.CDLL) -> None:
    i32 = ctypes.c_int32
    p32 = ctypes.POINTER(ctypes.c_int32)
    h = ctypes.c_void_p
    lib.sat_new.restype = h
    lib.sat_new.argtypes = []
    lib.sat_free.restype = None
    lib.sat_free.argtypes = [h]
    lib.sat_new_var.restype = i32
    lib.sat_new_var.argtypes = [h]
    lib.sat_new_vars.restype = i32
    lib.sat_new_vars.argtypes = [h, i32]
    lib.sat_add_clause.restype = ctypes.c_int
    lib.sat_add_clause.argtypes = [h, p32, i32]
    lib.sat_add_clauses.restype = i32
    lib.sat_add_clauses.argtypes = [h, ctypes.c_void_p, i32]
    lib.sat_simplify.restype = None
    lib.sat_simplify.argtypes = [h, ctypes.c_int]
    lib.sat_solve.restype = ctypes.c_int
    lib.sat_solve.argtypes = [h, ctypes.c_void_p, i32, ctypes.c_int64]
    lib.sat_model.restype = ctypes.c_void_p
    lib.sat_model.argtypes = [h]
    lib.sat_core_len.restype = i32
    lib.sat_core_len.argtypes = [h]
    lib.sat_core_get.restype = None
    lib.sat_core_get.argtypes = [h, p32]
    lib.sat_stat.restype = ctypes.c_int64
    lib.sat_stat.argtypes = [h, ctypes.c_int]


class NativeSatSolver:
    """Drop-in :class:`repro.smt.sat.SatSolver` backed by the C core."""

    @staticmethod
    def available() -> bool:
        return load() is not None

    def __init__(self):
        lib = load()
        if lib is None:
            raise RuntimeError("native SAT core unavailable (no C compiler?)")
        self._lib = lib
        self._h = lib.sat_new()
        self.nvars = 0
        #: The last ``sat`` answer, one 0/1 byte per variable (index 0
        #: unused) — read it through :meth:`value` or index it in bulk.
        self.model: bytes = b""
        self.core: List[int] = []
        self._ok = True
        # Optional telemetry sink (repro.obs.SolverEventSink).  The C
        # core cannot call back mid-search, so solve() synthesizes
        # post-solve tick events from the counter deltas instead.
        self.events = None

    def __del__(self):
        h = getattr(self, "_h", None)
        if h:
            self._lib.sat_free(h)
            self._h = None

    # -- variables and clauses ----------------------------------------
    def new_var(self) -> int:
        self.nvars = int(self._lib.sat_new_var(self._h))
        return self.nvars

    def new_vars(self, n: int) -> int:
        """``n`` consecutive fresh variables with one FFI call; returns
        the first (contract: :meth:`repro.smt.sat.SatSolver.new_vars`)."""
        first = self.nvars + 1
        if n > 0:
            self._lib.sat_new_vars(self._h, n)
            self.nvars += n
        return first

    def _check_lits(self, lits: Sequence[int]) -> None:
        nvars = self.nvars
        for signed in lits:
            v = signed if signed >= 0 else -signed
            if v == 0 or v > nvars:
                raise ValueError(f"unknown variable in literal {signed}")

    def add_clause(self, signed_lits) -> bool:
        if not self._ok:
            return False
        lits = list(signed_lits)
        self._check_lits(lits)
        arr = (ctypes.c_int32 * max(len(lits), 1))(*lits)
        result = self._lib.sat_add_clause(self._h, arr, len(lits))
        if not result:
            self._ok = False
        return bool(result)

    def add_clauses(self, buf: array) -> bool:
        """Add a batch of ``[len, lit, ...]`` records with one FFI call
        (contract: :meth:`repro.smt.sat.SatSolver.add_clauses`)."""
        if buf.typecode != "i" or buf.itemsize != 4:
            raise TypeError("add_clauses needs an array('i') of int32")
        if not self._ok:
            return False
        address, n = buf.buffer_info()
        result = self._lib.sat_add_clauses(self._h, address, n)
        if result < 0:  # -(offset + 1) of the offending int
            at = -result - 1
            raise ValueError(
                f"unknown variable or malformed record at offset {at} "
                f"(value {buf[at]})"
            )
        self._ok = bool(result)
        return self._ok

    # -- solving -------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (), max_conflicts=None) -> str:
        self.core = []
        if not self._ok:
            return UNSAT
        try:
            assume = array("i", assumptions)
        except OverflowError:
            raise ValueError("unknown variable in assumptions") from None
        address, n = assume.buffer_info()
        budget = -1 if max_conflicts is None else int(max_conflicts)
        events = self.events
        if events is not None:
            stat, h = self._lib.sat_stat, self._h
            before = (int(stat(h, 6)), int(stat(h, 8)), int(stat(h, 9)))
        result = self._lib.sat_solve(self._h, address, n, budget)
        if result < 0:  # -(offset + 1) of the offending assumption
            raise ValueError(
                f"unknown variable in literal {assume[-result - 1]}"
            )
        if events is not None:
            after = (int(stat(h, 6)), int(stat(h, 8)), int(stat(h, 9)))
            events.ticks(
                restarts=after[0] - before[0],
                subsumed=after[1] - before[1],
                strengthened=after[2] - before[2],
            )
        if result == 1:
            self.model = ctypes.string_at(
                self._lib.sat_model(self._h), self.nvars + 1
            )
            return SAT
        if result == 2:
            return UNKNOWN
        ncore = self._lib.sat_core_len(self._h)
        if ncore:
            buf = (ctypes.c_int32 * ncore)()
            self._lib.sat_core_get(self._h, buf)
            self.core = list(buf)
        return UNSAT

    def solve_with(self, assumptions: Sequence[int] = (), **kw) -> str:
        return self.solve(assumptions, **kw)

    def simplify(self) -> None:
        """Run the level-0 simplification now (contract:
        :meth:`repro.smt.sat.SatSolver.simplify`)."""
        self._lib.sat_simplify(self._h, 1)

    def value(self, var: int) -> Optional[bool]:
        var = abs(var)
        return bool(self.model[var]) if var < len(self.model) else None

    # -- statistics ----------------------------------------------------
    @property
    def conflicts(self) -> int:
        return int(self._lib.sat_stat(self._h, 3))

    @property
    def decisions(self) -> int:
        return int(self._lib.sat_stat(self._h, 4))

    @property
    def propagations(self) -> int:
        return int(self._lib.sat_stat(self._h, 5))

    @property
    def restarts(self) -> int:
        return int(self._lib.sat_stat(self._h, 6))

    def stats(self) -> dict:
        stat = self._lib.sat_stat
        h = self._h
        return {
            "vars": self.nvars,
            "clauses": int(stat(h, 1)),
            "learnts": int(stat(h, 2)),
            "conflicts": int(stat(h, 3)),
            "decisions": int(stat(h, 4)),
            "propagations": int(stat(h, 5)),
            "restarts": int(stat(h, 6)),
            "learned": int(stat(h, 7)),
            "subsumed": int(stat(h, 8)),
            "strengthened": int(stat(h, 9)),
        }
