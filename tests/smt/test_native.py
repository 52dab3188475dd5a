"""Tests for the C-accelerated SAT core and its Python fallback.

The native core (``satcore.c`` via ``_native.py``) must be a perfect
behavioural twin of the pure-Python arena solver: same verdicts, same
models, same failed-assumption cores, same API.  These tests run the
two implementations side by side; they are skipped when no C compiler
is available (the package then runs on the Python solver alone).
"""

import os
import random
import subprocess
import sys

import pytest

from repro.smt.sat import SAT, UNSAT, PySatSolver

try:
    from repro.smt._native import NativeSatSolver

    HAVE_NATIVE = NativeSatSolver.available()
except Exception:  # pragma: no cover - import failure means no native
    HAVE_NATIVE = False

needs_native = pytest.mark.skipif(not HAVE_NATIVE, reason="no C compiler")


@needs_native
class TestNativeMatchesPython:
    def test_random_incremental_sessions_agree(self):
        rng = random.Random(424242)
        for _ in range(60):
            nv = rng.randint(3, 12)
            py, nat = PySatSolver(), NativeSatSolver()
            for _ in range(nv):
                py.new_var()
                nat.new_var()
            live = {0: []}  # guard (0 = none) -> the clauses under it
            for _ in range(rng.randint(5, 30)):
                op = rng.random()
                if op < 0.6:
                    k = rng.randint(1, min(4, nv))
                    cl = [
                        rng.choice([1, -1]) * v
                        for v in rng.sample(range(1, nv + 1), k)
                    ]
                    guard = rng.choice(list(live))
                    tail = [-guard] if guard else []
                    assert py.add_clause(cl + tail) == nat.add_clause(cl + tail)
                    live[guard].append(cl)
                elif op < 0.7 and len(live) < 3:
                    guard = py.new_var()
                    assert nat.new_var() == guard
                    live[guard] = []
                elif op < 0.78 and len(live) > 1:
                    guard = rng.choice([g for g in live if g])
                    del live[guard]
                    assert py.add_clause([-guard]) == nat.add_clause([-guard])
                    py.simplify()
                    nat.simplify()
                elif op < 0.82:
                    py.simplify()  # inprocessing with guards live
                    nat.simplify()
                else:
                    na = rng.randint(0, 3)
                    assumps = [
                        rng.choice([1, -1]) * v
                        for v in rng.sample(range(1, nv + 1), min(na, nv))
                    ] + [g for g in live if g]
                    r_py = py.solve(assumps)
                    r_nat = nat.solve(assumps)
                    assert r_py == r_nat
                    if r_nat == SAT:
                        for cl in (c for cls in live.values() for c in cls):
                            assert any(
                                nat.value(abs(q)) is (q > 0) for q in cl
                            ), f"native model violates {cl}"
                    elif r_nat == UNSAT and assumps:
                        assert set(map(abs, nat.core)) <= set(map(abs, assumps))

    def test_core_is_really_unsat(self):
        py, nat = PySatSolver(), NativeSatSolver()
        for _ in range(4):
            py.new_var()
            nat.new_var()
        for cl in ([1, 2], [-1, 3], [-2, 3], [4, -3]):
            py.add_clause(cl)
            nat.add_clause(cl)
        assert nat.solve([-3, -4]) == UNSAT
        assert nat.core and py.solve(nat.core) == UNSAT

    def test_model_and_assumption_contract_is_the_same_on_both(self):
        """Same type, same layout, same errors — what lets everything
        above index ``model`` in bulk without asking which core runs."""
        rng = random.Random(7)
        for _ in range(30):
            nv = rng.randint(2, 10)
            py, nat = PySatSolver(), NativeSatSolver()
            py.new_vars(nv)
            nat.new_vars(nv)
            assert py.model == nat.model == b""
            for _ in range(rng.randint(1, 12)):
                cl = [rng.choice([1, -1]) * v
                      for v in rng.sample(range(1, nv + 1), min(3, nv))]
                py.add_clause(cl)
                nat.add_clause(cl)
            assume = [rng.choice([1, -1]) * v
                      for v in rng.sample(range(1, nv + 1), rng.randint(0, 2))]
            if py.solve(assume) != SAT:
                assert nat.solve(assume) == UNSAT
                continue
            assert nat.solve(assume) == SAT
            for sat in (py, nat):
                assert type(sat.model) is bytes and len(sat.model) == nv + 1
                assert all(sat.value(q) is (q > 0) for q in assume)
                later = sat.new_var()
                assert sat.value(later) is None and len(sat.model) == later
            for bad in (0, nv + 2, -(nv + 2)):
                for sat in (py, nat):
                    with pytest.raises(ValueError):
                        sat.solve(assume + [bad])

    def test_stats_shape_matches(self):
        py, nat = PySatSolver(), NativeSatSolver()
        for s in (py, nat):
            a, b = s.new_var(), s.new_var()
            s.add_clause([a, b])
            s.solve()
        assert set(py.stats()) == set(nat.stats())
        assert nat.stats()["vars"] == 2
        assert nat.conflicts >= 0 and nat.propagations >= 0

    def test_native_is_default_when_enabled(self):
        from repro.smt.sat import NATIVE_ENABLED, SatSolver

        if NATIVE_ENABLED:
            assert SatSolver is NativeSatSolver


class TestFallbackSwitch:
    def test_env_var_forces_pure_python(self):
        code = (
            "import repro.smt.sat as m; "
            "assert m.SatSolver is m.PySatSolver, m.SatSolver; "
            "assert not m.NATIVE_ENABLED"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_SAT_NATIVE": "0", "PATH": ""},
            capture_output=True,
            text=True,
            cwd=__file__.rsplit("/tests/", 1)[0],
        )
        assert proc.returncode == 0, proc.stderr


@needs_native
class TestCompileCacheRace:
    """Concurrent first-use builds must not corrupt the compile cache.

    Regression test for the compile-cache race: multiple processes that
    all find the cache cold and compile simultaneously must each end up
    with a working solver, and the cache directory must hold exactly the
    finished .so — no partially written library (the atomic-rename
    guarantee) and no leaked mkstemp temp files (the failure-path
    cleanup guarantee).
    """

    def _spawn_builders(self, cache_dir, nprocs=4):
        code = (
            "from repro.smt._native import NativeSatSolver; "
            "s = NativeSatSolver(); "
            "v = s.new_var(); "
            "s.add_clause([v]); "
            "assert s.solve() == 'sat'; "
            "assert s.value(v) is True"
        )
        repo_root = __file__.rsplit("/tests/", 1)[0]
        env = dict(os.environ)
        env.update({"PYTHONPATH": "src", "REPRO_SATCORE_CACHE": str(cache_dir)})
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env,
                cwd=repo_root,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(nprocs)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()

    def test_concurrent_cold_builds_all_succeed(self, tmp_path):
        cache = tmp_path / "satcore-cache"
        self._spawn_builders(cache)
        entries = sorted(p.name for p in cache.iterdir())
        libs = [n for n in entries if n.endswith(".so")]
        leftovers = [n for n in entries if not n.endswith(".so")]
        assert len(libs) == 1, entries
        assert libs[0].startswith("satcore-")
        assert not leftovers, f"leaked temp files: {leftovers}"

    def test_rebuild_over_warm_cache_is_stable(self, tmp_path):
        cache = tmp_path / "satcore-cache"
        self._spawn_builders(cache, nprocs=2)
        before = sorted(p.name for p in cache.iterdir())
        # Second wave finds the cache warm; contents must not change.
        self._spawn_builders(cache, nprocs=2)
        after = sorted(p.name for p in cache.iterdir())
        assert before == after == [before[0]]
        assert before[0].endswith(".so")

    def test_warm_cache_needs_no_compiler_and_no_toolchain(self, tmp_path):
        """An image may ship the prebuilt core without a compiler: with
        ``PATH`` empty a warm cache still serves the C core (it used to
        fall back to the ~20x slower Python one), and loading it imports
        none of the modules only a build needs."""
        cache = tmp_path / "satcore-cache"
        self._spawn_builders(cache, nprocs=1)
        code = (
            "import sys; from repro.smt import Solver; s = Solver(); "
            "assert type(s.sat).__name__ == 'NativeSatSolver', type(s.sat); "
            "assert set(s.stats()) >= {'conflicts', 'vars'}; "
            "loaded = {'platform', 'subprocess', 'shutil'} & set(sys.modules); "
            "assert not loaded, loaded"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "PATH": "",
                 "REPRO_SATCORE_CACHE": str(cache)},
            capture_output=True, text=True,
            cwd=__file__.rsplit("/tests/", 1)[0],
        )
        assert proc.returncode == 0, proc.stderr
        # ... and with the cache cold too, no compiler means no core.
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.smt import _native; assert _native.load() is None"],
            env={"PYTHONPATH": "src", "PATH": "",
                 "REPRO_SATCORE_CACHE": str(tmp_path / "cold")},
            capture_output=True, text=True,
            cwd=__file__.rsplit("/tests/", 1)[0],
        )
        assert proc.returncode == 0, proc.stderr
