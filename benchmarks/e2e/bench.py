#!/usr/bin/env python3
"""End-to-end performance ledger over the four entry paths.

One program, three uses (see README.md next to this file)::

    bench.py --workload NAME --seed N --seconds S --trace 0|1   # one timed run
    bench.py [--rounds R] [--seed N] [--out SET.json] [--quick] # one full set
    bench.py --agree A.json B.json                              # compare two sets

Workloads (one per entry path): ``cold-audit`` (fresh ``python -m
repro audit`` processes), ``prove-portfolio`` (proof search in a
resident worker), ``watch-churn`` (deltas into warm incremental
sessions) and ``serve-mixed`` (a restarted daemon over its store, two
closed-loop clients, the ``--server`` CLI client).

Three rules keep the numbers repeatable on a shared two-core sandbox:

* **fixed layout** — every measured process starts with
  ``ADDR_NO_RANDOMIZE`` and a ``PYTHONHASHSEED`` cycling over a fixed
  set of three by round, so the work a round does (clauses, conflicts,
  cache hits) repeats exactly and only the clock varies;
* **many short rounds** — a run is a sequence of identical rounds;
  with several workloads the rounds interleave (A B C D A B C D ...)
  so a slow stretch of the host costs every workload one sample
  instead of costing one workload its estimate; each timing is the
  *fastest* observation of every part of a round, summed (see
  :func:`best_parts`): the host alternates between a quiet and a ~45 %
  slower contended state that lasts seconds, so a median flips with
  the share of contended rounds while the fastest observation stays in
  the quiet cluster as long as each part ran quiet once;
* **tracing apart** — end-to-end numbers are taken with tracing off;
  per-layer numbers come from extra rounds run through ``shim.py``,
  which wraps the program's public callables from outside.

The driver never imports the program.  It only generates argv, request
specs and deltas (their order and interleaving from ``--seed``) and
checks every reply against ``expected.json`` (hand-labelled verdicts)
and against the same spec's output on every other round and entry path.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "shim.py")
#: Everything the benchmark writes lives here (listed in .gitignore):
#: the prebuilt native SAT core and one temp directory per run.
CACHE = os.path.join(HERE, ".cache")
EXPECTED = os.path.join(HERE, "expected.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

SCHEMA = "repro-e2e/1"
ADDR_NO_RANDOMIZE = 0x0040000
PR_SET_PDEATHSIG = 1
OP_TIMEOUT = 60.0          # seconds; a slower op is killed and counts as failed
#: PYTHONHASHSEED of round r is HASH_SEEDS[r % 3]: "several link orders,
#: the same set on both commits".  Not derived from --seed: solver work
#: moves +-7 % with the hash seed (prove-portfolio: 3.85-4.41 s over ten
#: seed-derived sets), which is work, not noise, and would count as
#: run-to-run spread.
HASH_SEEDS = (1, 2, 3)
TRACED_ROUNDS = 2          # same hash seed, so their counts must be identical
SERVE_SETUPS = 3           # serve-mixed sets up this often per run
#: Churn streams are seeded with a constant for the same reason: which
#: hosts a stream edits decides how many solver runs it needs
#: (watch-churn: 0.67-0.95 s over ten seed-derived streams).
CHURN_SEED = 7
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

perf_counter = time.perf_counter


# ----------------------------------------------------------------------
# Workload sizes
# ----------------------------------------------------------------------
#: ``full`` is what BENCHMARK.json runs; ``quick`` is the <60 s smoke
#: profile (size-2 scenarios) that also validates the output format.
PROFILES = {
    "full": {
        "cold": [("enterprise", 3), ("datacenter", 2), ("multitenant", 3)],
        "prove": [("multitenant", 2), ("isp", 2)],
        "watch": [
            {"scenario": "enterprise", "size": 6, "deltas": 24, "cache": True},
            {"scenario": "multitenant", "size": 2, "deltas": 20, "cache": False},
        ],
        "serve_hits": [("audit", "enterprise", 3), ("audit", "datacenter", 2),
                       ("audit", "multitenant", 2), ("prove", "isp", 2)],
        "serve_hit_count": 60,
        "serve_watch": ("enterprise", 3, 6),
        "serve_watch_count": 4,
        "serve_blame": ("enterprise", 2, "priv1_0"),
        "serve_client": ("enterprise", 3),
        "serve_client_count": 2,
    },
    "quick": {
        "cold": [("enterprise", 2), ("datacenter", 2), ("multitenant", 2)],
        "prove": [("isp", 2)],
        "watch": [
            {"scenario": "enterprise", "size": 3, "deltas": 8, "cache": True},
            {"scenario": "multitenant", "size": 2, "deltas": 10, "cache": False},
        ],
        "serve_hits": [("audit", "enterprise", 2), ("audit", "datacenter", 2),
                       ("audit", "multitenant", 2), ("prove", "isp", 2)],
        "serve_hit_count": 24,
        "serve_watch": ("enterprise", 3, 4),
        "serve_watch_count": 2,
        "serve_blame": ("enterprise", 2, "priv1_0"),
        "serve_client": ("enterprise", 2),
        "serve_client_count": 1,
    },
}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def best_parts(samples) -> float:
    """The quiet-host time of a sequence of parts, given several
    observations of it (each a ``{part: seconds}`` dict): per part the
    fastest observation, summed.  For a round the parts are its
    commands, deltas or phases; for a set-up its steps.

    Interference on this sandbox is one-sided and bimodal (identical
    work: 0.70-0.80 s quiet, 1.05-1.25 s contended, in stretches of
    5-15 s).  Over 50 simulated runs of 24 s cut from a 20-minute
    series of identical audits, the run-to-run spread (IQR/median of
    ten runs) was at worst 0.20 for the median of rounds, 0.15 for the
    lower quartile, 0.09 for the fastest round and 0.08 for the sum of
    per-part minima; the shift between consecutive sets of ten runs
    0.15, 0.11, 0.07 and 0.05.  Callers pass only rounds whose every
    op passed verification, so a command that fails fast cannot win."""
    best = {}
    for parts in samples:
        for key, seconds in parts.items():
            if key not in best or seconds < best[key]:
                best[key] = seconds
    return sum(best.values())


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are not twenty samples)."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[-11] if len(values) >= 20 else values[-1]


def iqr_frac(values):
    if len(values) < 4:
        return 0.0
    q = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q[2] - q[0]) / mid if mid else 0.0


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# ----------------------------------------------------------------------
# Launching measured processes
# ----------------------------------------------------------------------
class Launcher:
    """Starts every measured child with a fixed memory layout, a chosen
    hash seed and (when two CPUs are usable) pinned away from the
    driver; reaps with ``wait4`` so each child's CPU seconds and peak
    RSS are its own."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.live = []  # Popen objects not yet reaped
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.pinned = len(cpus) >= 2
        self.child_cpu = cpus[1] if self.pinned else None
        if self.pinned:
            os.sched_setaffinity(0, {cpus[0]})
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            self._personality, self._prctl = libc.personality, libc.prctl
        except (OSError, AttributeError):
            self._personality = self._prctl = None
        # Children start in a directory that stays empty: `python -m`
        # puts the working directory on sys.path, the import system
        # lists it, and a listing of another size moves the heap — and
        # with it the solver's search — of every process started there.
        self.cwd = os.path.join(workdir, "cwd")
        os.mkdir(self.cwd)
        #: None until :meth:`probe_layout` ran; counts from a layout that
        #: is not fixed are reported as unresolved, never compared.
        self.layout_fixed = None
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": workdir,
            "TMPDIR": workdir,
            "LANG": "C.UTF-8",
            "PYTHONPATH": SRC,
            "REPRO_SATCORE_CACHE": os.path.join(CACHE, "satcore"),
        }

    def _preexec(self):
        if self._personality is not None:
            self._personality(ADDR_NO_RANDOMIZE)
            self._prctl(PR_SET_PDEATHSIG, signal.SIGKILL)  # never outlive the driver
        if self.child_cpu is not None:
            os.sched_setaffinity(0, {self.child_cpu})

    def popen(self, argv, hashseed: int, **kwargs):
        env = dict(self.env, PYTHONHASHSEED=str(hashseed))
        proc = subprocess.Popen(argv, env=env, cwd=self.cwd,
                                preexec_fn=self._preexec, **kwargs)
        self.live.append(proc)
        return proc

    def reap(self, proc, timeout: float):
        """Wait for ``proc`` (killing it after ``timeout``); returns its
        ``rusage``.  ``proc.returncode`` is set as ``wait()`` would."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()
        return usage

    def kill_all(self):
        for proc in list(self.live):
            proc.kill()
            self.reap(proc, 5.0)

    # -- commands --------------------------------------------------------
    @staticmethod
    def repro_argv(args, trace_path=None):
        """The user's ``python -m repro ARGS``, or the same command
        through the tracing shim."""
        if trace_path is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, SHIM, "--trace", trace_path, "cli", *args]

    def run(self, args, hashseed: int, trace_path=None, timeout=OP_TIMEOUT):
        """One fresh ``repro`` process, timed spawn -> exit from outside."""
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "wb") as out:
            spawn_t = time.time()
            started = perf_counter()
            proc = self.popen(self.repro_argv(args, trace_path), hashseed,
                              stdin=subprocess.DEVNULL, stdout=out,
                              stderr=subprocess.DEVNULL)
            usage = self.reap(proc, timeout)
            wall = perf_counter() - started
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return Finished(proc.returncode, wall, usage, stdout,
                        load_trace(trace_path, spawn_t, spawn_t + wall))

    def probe_layout(self) -> bool:
        """Two identical small audits must do identical solver work:
        under a random layout their conflict counts differ run to run
        (2508 / 2531 / 2984 for this audit), because term and set
        ordering follow object addresses."""
        if self._personality is None:
            self.layout_fixed = False
            return False
        seen = []
        for _ in range(2):
            done = self.run(["audit", "multitenant", "--size", "2",
                             "--no-cache", "--json"], HASH_SEEDS[0])
            try:
                totals = json.loads(done.stdout)["solver_totals"]
            except (ValueError, KeyError):
                totals = None
            seen.append(totals)
        self.layout_fixed = seen[0] is not None and seen[0] == seen[1]
        return self.layout_fixed


Finished = collections.namedtuple("Finished", "exit wall usage stdout trace")


def load_trace(path, spawn_t, exit_t=None, role="command"):
    """The dump a traced child left, stamped with what only the driver
    knows: when it was spawned and (for one-shot commands) when it was
    gone.  ``role`` ``daemon`` marks a process whose main thread idles
    in a serve loop."""
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, ValueError):
        return None
    os.unlink(path)
    trace.update(spawn_t=spawn_t, exit_t=exit_t, role=role)
    return trace


def read_line(proc, timeout: float) -> str:
    """The child's next stdout line; the child is killed (and the line
    comes back empty) when it takes longer than ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.stdout.readline()
    finally:
        timer.cancel()


class Worker:
    """A resident ``shim.py worker`` child speaking JSON lines."""

    def __init__(self, launcher: Launcher, hashseed: int, trace_path=None):
        self.launcher = launcher
        self.trace_path = trace_path
        argv = [sys.executable, SHIM]
        if trace_path is not None:
            argv += ["--trace", trace_path]
        argv.append("worker")
        self.spawn_t = time.time()
        self.started = perf_counter()
        self.proc = launcher.popen(argv, hashseed, stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
        self.alive = bool(self._read(OP_TIMEOUT).get("ready"))

    def _read(self, timeout: float) -> dict:
        line = read_line(self.proc, timeout)
        if not line:
            return {"error": "worker died or timed out"}
        return json.loads(line)

    def call(self, request: dict, timeout=OP_TIMEOUT) -> dict:
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except OSError:
            return {"error": "worker is gone"}
        return self._read(timeout)

    def close(self):
        """Ask the worker to exit; returns (rusage, trace or None)."""
        try:
            self.proc.stdin.write('{"op": "exit"}\n')
            self.proc.stdin.flush()
        except OSError:
            pass
        usage = self.launcher.reap(self.proc, OP_TIMEOUT)
        return usage, load_trace(self.trace_path, self.spawn_t, role="worker")


def post(conn, path: str, body: dict):
    """(status, body bytes) of one JSON POST on ``conn``."""
    conn.request("POST", path, body=json.dumps(body).encode("utf-8"),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def http_call(address, method: str, path: str, body=None):
    """(status, body bytes) of one request on a fresh connection."""
    conn = http.client.HTTPConnection(*address, timeout=OP_TIMEOUT)
    try:
        if method == "POST":
            return post(conn, path, body)
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """``repro serve start`` on an ephemeral port over ``store_dir``."""

    def __init__(self, launcher: Launcher, store_dir: str, hashseed: int,
                 trace_path=None):
        self.launcher = launcher
        self.trace_path = trace_path
        args = ["serve", "start", "--port", "0", "--store-dir", store_dir,
                "--quiet"]
        self.spawn_t = time.time()
        started = perf_counter()
        self.proc = launcher.popen(launcher.repro_argv(args, trace_path),
                                   hashseed, stdin=subprocess.DEVNULL,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
        match = re.search(r"http://([0-9.]+):(\d+)",
                          read_line(self.proc, OP_TIMEOUT))
        self.address = (match.group(1), int(match.group(2))) if match else None
        self.url = match.group(0) if match else None
        self.alive = False
        if self.address is not None:
            try:
                self.alive = http_call(self.address, "GET", "/healthz")[0] == 200
            except OSError:
                self.alive = False
        self.ready_s = perf_counter() - started

    def get_json(self, path: str) -> dict:
        try:
            status, body = http_call(self.address, "GET", path)
            return json.loads(body) if status == 200 else {}
        except (OSError, ValueError):
            return {}

    def stop(self):
        """Checkpointing shutdown; returns (seconds, rusage, trace)."""
        started = perf_counter()
        if self.alive:
            try:
                http_call(self.address, "POST", "/v1/shutdown", body={})
            except OSError:
                self.proc.kill()
        else:
            self.proc.kill()
        usage = self.launcher.reap(self.proc, OP_TIMEOUT)
        return (perf_counter() - started, usage,
                load_trace(self.trace_path, self.spawn_t, role="daemon"))


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------
class Oracle:
    """Hand-labelled verdicts plus output parity across rounds and paths."""

    def __init__(self):
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
        self.checks = expected["checks"]
        self.prove_guarantee = expected["prove_guarantee"]
        self.digests = {}  # parity key -> (digest, where first seen)

    def labels(self, scenario: str, size: int) -> dict:
        return self.checks[f"{scenario}/{size}"]

    def exit_code(self, scenario: str, size: int) -> int:
        return int("violated" in self.labels(scenario, size).values())

    def verdicts(self, scenario, size, rows, prove=False):
        """Error text, or None when ``rows`` (label/status[/guarantee]
        dicts) are exactly the expected verdicts."""
        got = {row["label"]: row["status"] for row in rows}
        error = self.statuses(scenario, size, got, exact=True)
        if error:
            return error
        if prove:
            weak = [r["label"] for r in rows
                    if r.get("guarantee") != self.prove_guarantee]
            if weak:
                return f"guarantee is not {self.prove_guarantee} at {weak[:3]}"
        return None

    def statuses(self, scenario, size, statuses: dict, exact=False):
        """Error text, or None when the ``{label: status}`` map agrees
        with the expected verdicts; unless ``exact`` it may carry extra
        labels (checks a churn stream added)."""
        want = self.labels(scenario, size)
        wrong = sorted(k for k in set(want) | (set(statuses) if exact else set())
                       if statuses.get(k) != want.get(k))
        if wrong:
            return f"verdicts differ from expected.json at {wrong[:3]}"
        return None

    def parity(self, key: str, data, where: str):
        """Error text when ``data`` differs from what the same ``key``
        produced on any other round or entry path."""
        digest = sha(data)
        first = self.digests.setdefault(key, (digest, where))
        if first[0] != digest:
            return f"output differs from {first[1]} ({digest} != {first[0]})"
        return None


def audit_error(oracle, command, scenario, size, exit_code, stdout, where,
                flags="--no-cache"):
    """Check one ``audit``/``prove`` ``--stable-json`` run end to end.
    Runs of the same command, scenario, size and ``flags`` must print
    the same bytes wherever they ran."""
    if exit_code != oracle.exit_code(scenario, size):
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
        rows = payload["checks"]
    except (ValueError, KeyError, TypeError):
        return "output is not an audit payload"
    return (oracle.verdicts(scenario, size, rows, prove=command == "prove")
            or oracle.parity(f"{command} {scenario} {size} {flags}", stdout,
                             where))


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
class Round:
    """What one pass over a workload's op list produced."""

    def __init__(self, hashseed: int):
        self.hashseed = hashseed
        self.parts = {}          # part key -> wall seconds
        self.outer_s = 0.0       # first op issued -> last op done, driver's clock
        self.cpu_s = 0.0         # user+sys seconds of everything the round ran
        self.rss_kb = 0
        self.ops = []            # (key, error or None): what was checked
        self.latency = collections.defaultdict(list)  # pool name -> seconds
        self.traces = []         # trace dumps of the round's processes
        self.gauges = {}         # driver-side per-layer numbers

    def op(self, key: str, error):
        self.ops.append((key, error))

    def saw(self, usage):
        """Account a reaped child: its CPU seconds and peak RSS."""
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)

    @property
    def ok(self) -> bool:
        return not any(error for _, error in self.ops)


class Workload:
    name = ""
    #: counts that need not repeat between rounds of one hash seed
    timing_dependent = ()
    prime_s = 0.0  # serve-mixed: seconds of the last set-up's priming pass

    def __init__(self, launcher, oracle, profile, seed):
        self.launcher = launcher
        self.oracle = oracle
        self.profile = profile
        self.rng = random.Random(f"{seed}/{self.name}")
        self.rounds = []         # untraced
        self.traced = []
        self.setups = []         # one {part: seconds} per set-up performed
        self.extra = Round(0)    # ops checked outside any round

    def trace_path(self, traced: bool, tag: str):
        if not traced:
            return None
        return os.path.join(self.launcher.workdir, f"trace-{tag}.json")

    def prepare(self):
        """Untimed work needed once before the first round."""

    def round(self, hashseed: int, traced: bool) -> Round:
        raise NotImplementedError

    def finish(self):
        """Release whatever :meth:`prepare` left behind."""


class ColdAudit(Workload):
    """Fresh ``python -m repro audit`` processes, ``--no-cache``."""

    name = "cold-audit"

    def __init__(self, *args):
        super().__init__(*args)
        self.specs = list(self.profile["cold"])
        self.rng.shuffle(self.specs)

    def round(self, hashseed, traced):
        rnd = Round(hashseed)
        # Set-up on the cold path is starting the interpreter and
        # importing the package: a command that does nothing else.
        listing = self.launcher.run(["list"], hashseed)
        self.setups.append({"list": listing.wall})
        rnd.op("list", None if listing.exit == 0 else f"exit code {listing.exit}")
        done = []
        started = perf_counter()
        for i, (scenario, size) in enumerate(self.specs):
            args = ["audit", scenario, "--size", str(size), "--no-cache",
                    "--stable-json"]
            done.append(self.launcher.run(
                args, hashseed, self.trace_path(traced, f"cold{i}")))
        rnd.outer_s = perf_counter() - started
        for (scenario, size), result in zip(self.specs, done):
            key = f"audit {scenario} {size}"
            rnd.parts[key] = result.wall
            rnd.saw(result.usage)
            rnd.latency["op"].append(result.wall)
            rnd.op(key, audit_error(self.oracle, "audit", scenario, size,
                                    result.exit, result.stdout, self.name))
            if result.trace is not None:
                rnd.traces.append(result.trace)
        return rnd


class ProvePortfolio(Workload):
    """``prove`` commands run in-process by a resident worker.  Each
    command gets a fresh worker, so the order ``--seed`` puts them in
    cannot change the work either does (a warm heap would)."""

    name = "prove-portfolio"

    def __init__(self, *args):
        super().__init__(*args)
        self.specs = list(self.profile["prove"])
        self.rng.shuffle(self.specs)

    def round(self, hashseed, traced):
        rnd = Round(hashseed)
        unbounded = holds = 0
        for i, (scenario, size) in enumerate(self.specs):
            worker = Worker(self.launcher, hashseed,
                            self.trace_path(traced, f"prove{i}"))
            if not traced:
                self.setups.append({"worker": perf_counter() - worker.started})
            reply = worker.call({
                "op": "main",
                "argv": ["prove", scenario, "--size", str(size), "--no-cache",
                         "--stable-json"],
            })
            usage, trace = worker.close()
            rnd.saw(usage)
            if trace is not None:
                rnd.traces.append(trace)
            key = f"prove {scenario} {size}"
            error = reply.get("error")
            if error is None:
                rnd.parts[key] = reply["seconds"]
                rnd.latency["op"].append(reply["seconds"])
                error = audit_error(self.oracle, "prove", scenario, size,
                                    reply["exit"], reply["stdout"], self.name)
            if error is None:
                for row in json.loads(reply["stdout"])["checks"]:
                    if row["status"] == "holds":
                        holds += 1
                        unbounded += row.get("guarantee") == "unbounded"
            rnd.op(key, error)
        rnd.outer_s = sum(rnd.parts.values())  # the workers' own clocks
        rnd.gauges["proof.unbounded_frac"] = unbounded / holds if holds else 0.0
        return rnd


class WatchChurn(Workload):
    """Churn deltas into two warm ``IncrementalSession``s: stream A with
    the result cache on (bookkeeping), stream B with it off (warm
    re-verification on the solver pool)."""

    name = "watch-churn"

    def __init__(self, *args):
        super().__init__(*args)
        self.streams = [dict(s, seed=CHURN_SEED) for s in self.profile["watch"]]
        # One fixed interleaving of the two streams' deltas per seed.
        self.schedule = [i for i, s in enumerate(self.streams)
                         for _ in range(s["deltas"])]
        self.rng.shuffle(self.schedule)

    def round(self, hashseed, traced):
        rnd = Round(hashseed)
        worker = Worker(self.launcher, hashseed, self.trace_path(traced, "watch"))
        setup = worker.call({"op": "sessions", "streams": self.streams,
                             "setup_done": True})
        if not traced:
            self.setups.append({"worker+sessions": perf_counter() - worker.started})
        replies = []
        started = perf_counter()
        for stream in self.schedule:
            replies.append(worker.call({"op": "delta", "stream": stream}))
        rnd.outer_s = perf_counter() - started
        usage, trace = worker.close()
        rnd.saw(usage)
        if trace is not None:
            rnd.traces.append(trace)
        self._check(rnd, setup, replies)
        return rnd

    def _check(self, rnd, setup, replies):
        baselines = setup.get("baselines")
        for i, stream in enumerate(self.streams):
            error = setup.get("error")
            if error is None:
                error = self.oracle.statuses(stream["scenario"], stream["size"],
                                             baselines[i]["statuses"])
            rnd.op(f"baseline {stream['scenario']} {stream['size']}", error)
        position = [0] * len(self.streams)
        totals = collections.Counter()
        last = {}
        for stream_index, reply in zip(self.schedule, replies):
            stream = self.streams[stream_index]
            position[stream_index] += 1
            key = (f"delta {stream['scenario']} {stream['size']} "
                   f"#{position[stream_index]}")
            error = reply.get("error")
            if error is None:
                rnd.parts[key] = reply["seconds"]
                rnd.latency["delta"].append(reply["seconds"])
                for field in ("carried", "invalidated", "cache_hits",
                              "solver_runs"):
                    totals[field] += reply[field]
                last[stream_index] = reply
                # Verdicts after every delta must be the same on every
                # round (and hash seed) that replays this stream.
                error = self.oracle.parity(
                    f"{key} seed {stream['seed']}",
                    json.dumps([reply["delta"], reply["statuses"],
                                reply["drift"]], sort_keys=True),
                    self.name)
            rnd.op(key, error)
        # Both streams are whole edit/undo cycles, so the network ends
        # where it began: the hand-labelled verdicts hold again and
        # nothing drifts.
        for i, stream in enumerate(self.streams):
            reply = last.get(i)
            if reply is None:
                error = "no delta applied"
            elif reply["drift"]:
                error = f"drift after the last delta: {reply['drift'][:3]}"
            else:
                error = self.oracle.statuses(stream["scenario"], stream["size"],
                                             reply["statuses"])
            rnd.op(f"final {stream['scenario']} {stream['size']}", error)
        rnd.gauges.update({f"incremental.{k}": v for k, v in totals.items()})


class ServeMixed(Workload):
    """A daemon restarted over its store, two closed-loop clients, then
    the ``--server`` CLI client."""

    name = "serve-mixed"
    CLIENTS = 2
    #: The cold blame searches beside another handler thread, so the
    #: heap it runs on (and with it the search) follows thread timing;
    #: what the schedule fixes — clauses, calls, cache hits — repeats.
    timing_dependent = ("smt.conflicts", "smt.decisions", "smt.propagations",
                        "smt.solve_calls")

    def __init__(self, *args):
        super().__init__(*args)
        p = self.profile
        self.hit_specs = [
            {"command": c, "scenario": s, "size": n, "stable": True}
            for c, s, n in p["serve_hits"]
        ]
        scenario, size, deltas = p["serve_watch"]
        self.watch_spec = {"command": "watch", "scenario": scenario,
                           "size": size, "deltas": deltas, "stable": True,
                           "seed": CHURN_SEED}
        scenario, size, only = p["serve_blame"]
        self.blame_spec = {"command": "blame", "scenario": scenario,
                           "size": size, "only": [only], "stable": True}
        schedule = [self.hit_specs[i % len(self.hit_specs)]
                    for i in range(p["serve_hit_count"])]
        schedule += [self.watch_spec] * p["serve_watch_count"]
        self.rng.shuffle(schedule)
        # The cold blame goes in early so warm hits queue beside it.
        schedule.insert(len(schedule) // 8, self.blame_spec)
        self.schedule = schedule
        self.store_dir = None

    def _client_args(self, url=None):
        scenario, size = self.profile["serve_client"]
        args = ["audit", scenario, "--size", str(size), "--stable-json"]
        return args + (["--server", url] if url else [])

    def prepare(self):
        """The client's spec on the cold in-process path (untimed: it is
        the reference for cross-path parity), then the set-up proper,
        several times over: first daemon start over an empty store, one
        priming request per distinct spec, checkpointing shutdown.  The
        rounds restart over the store the last set-up left."""
        scenario, size = self.profile["serve_client"]
        cold = self.launcher.run(self._client_args(), HASH_SEEDS[0])
        self.extra.op("cold reference", audit_error(
            self.oracle, "audit", scenario, size, cold.exit, cold.stdout,
            "the cold CLI", flags=""))
        for _ in range(SERVE_SETUPS):
            self.finish()
            self.store_dir = tempfile.mkdtemp(prefix="store-",
                                              dir=self.launcher.workdir)
            daemon = Daemon(self.launcher, self.store_dir, HASH_SEEDS[0])
            parts = {"start": daemon.ready_s}
            if not daemon.alive:
                self.extra.op("prime", "daemon did not start")
            for i, spec in enumerate(self.hit_specs + [self.watch_spec]
                                     if daemon.alive else ()):
                began = perf_counter()
                try:
                    status, body = http_call(daemon.address, "POST", "/v1/run", spec)
                except (OSError, http.client.HTTPException) as err:
                    status, body = 0, str(err).encode()
                parts[f"prime {i}"] = perf_counter() - began
                self.extra.op("prime", self._reply_error(spec, status, body,
                                                         "priming"))
            parts["stop"] = daemon.stop()[0]
            self.setups.append(parts)
            self.prime_s = sum(v for k, v in parts.items() if k.startswith("prime"))

    def _reply_error(self, spec, status, body, where):
        if status != 200:
            return f"HTTP {status}"
        try:
            envelope = json.loads(body)
            payload = envelope["payload"]
        except (ValueError, KeyError, TypeError):
            return "reply is not a response envelope"
        command, scenario, size = spec["command"], spec["scenario"], spec["size"]
        if command in ("audit", "prove"):
            if envelope.get("exit_code") != self.oracle.exit_code(scenario, size):
                return f"exit code {envelope.get('exit_code')}"
            digest = [[r["label"], r["status"], r.get("guarantee")]
                      for r in payload["checks"]]
            return (self.oracle.verdicts(scenario, size, payload["checks"],
                                         prove=command == "prove")
                    or self.oracle.parity(f"serve {command}/{scenario}/{size}",
                                          json.dumps(digest), where))
        if command == "watch":
            versions = payload["versions"]
            final = versions[-1]
            if final["drift"]:
                return f"drift after the last delta: {final['drift'][:3]}"
            digest = [[v["delta"], v["checks"]] for v in versions]
            return (self.oracle.statuses(scenario, size, final["checks"])
                    or self.oracle.parity(
                        f"serve watch/{scenario}/{size}/{spec['seed']}",
                        json.dumps(digest, sort_keys=True), where))
        rows = payload["checks"]
        want = self.oracle.labels(scenario, size)
        wrong = [r["label"] for r in rows if want.get(r["label"]) != r["status"]]
        if wrong or not rows:
            return f"blame verdicts differ from expected.json at {wrong[:3]}"
        digest = [[r["label"], r["status"], r["blame"]] for r in rows]
        return self.oracle.parity(f"serve blame/{scenario}/{size}",
                                  json.dumps(digest), where)

    @staticmethod
    def _client(address, queue, log):
        """Closed loop: the next request goes out when the reply to the
        previous one has been read.  A plain keep-alive ``http.client``
        connection with no socket options, like the program's own
        ``--server`` client, so the latency is what such a client sees.
        Entries: (schedule index, spec, began, ended, status, body); the
        last entry is the thread's CPU seconds."""
        cpu_started = time.thread_time()
        conn = None
        while True:
            try:
                index, spec = queue.popleft()
            except IndexError:
                break
            path = "/v1/blame" if spec["command"] == "blame" else "/v1/run"
            began = perf_counter()
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(*address,
                                                      timeout=OP_TIMEOUT)
                status, data = post(conn, path, spec)
            except (OSError, http.client.HTTPException) as err:
                status, data = 0, str(err).encode()
                if conn is not None:
                    conn.close()
                conn = None
            log.append((index, spec, began, perf_counter(), status, data))
        if conn is not None:
            conn.close()
        log.append(time.thread_time() - cpu_started)

    def round(self, hashseed, traced):
        rnd = Round(hashseed)
        started = perf_counter()
        daemon = Daemon(self.launcher, self.store_dir, hashseed,
                        self.trace_path(traced, "daemon"))
        if not daemon.alive:
            daemon.stop()
            rnd.op("restart", "daemon did not start")
            return rnd
        rnd.parts["restart"] = daemon.ready_s
        # -- two closed-loop clients over the seeded schedule -----------
        queue = collections.deque(enumerate(self.schedule))
        logs = [[] for _ in range(self.CLIENTS)]
        threads = [threading.Thread(target=self._client,
                                    args=(daemon.address, queue, log))
                   for log in logs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # -- the user-visible --server client, sequentially -------------
        clients = [
            self.launcher.run(self._client_args(daemon.url), hashseed,
                              self.trace_path(traced, f"client{i}"))
            for i in range(self.profile["serve_client_count"])
        ]
        status = daemon.get_json("/status") if traced else {}
        shutdown_s, usage, trace = daemon.stop()
        rnd.outer_s = perf_counter() - started
        # -- everything below is bookkeeping, outside the round's clock --
        rnd.parts["shutdown"] = shutdown_s
        rnd.saw(usage)
        rnd.cpu_s += sum(log.pop() for log in logs)
        rnd.gauges["serve.restart_ready_s"] = daemon.ready_s
        rnd.gauges["serve.shutdown_s"] = shutdown_s
        rnd.gauges["store.bytes"] = sum(
            os.path.getsize(os.path.join(self.store_dir, f))
            for f in os.listdir(self.store_dir) if f.endswith(".store"))
        shards = status.get("shards", {}).values()
        rnd.gauges["store.entries"] = sum(
            s.get("store", {}).get("results", 0) for s in shards)
        rnd.gauges["serve.busy_rejects"] = status.get("rejected", 0)
        if trace is not None:
            rnd.traces.append(trace)
        scenario, size = self.profile["serve_client"]
        for i, result in enumerate(clients):
            rnd.parts[f"client {i}"] = result.wall
            rnd.saw(result.usage)
            rnd.latency["client"].append(result.wall)
            rnd.op("client audit", audit_error(
                self.oracle, "audit", scenario, size, result.exit,
                result.stdout, "the restarted daemon", flags=""))
            if result.trace is not None:
                rnd.traces.append(result.trace)
        entries = [entry for log in logs for entry in log]
        blame = [(b, e) for _, spec, b, e, _, _ in entries
                 if spec["command"] == "blame"]
        for index, spec, began, ended, status_code, data in entries:
            command = spec["command"]
            # The request phase as parts: each request's seconds, shared
            # among the CLIENTS loops that run side by side.
            rnd.parts[f"request {index}"] = (ended - began) / self.CLIENTS
            rnd.op(f"serve {command} {spec['scenario']} {spec['size']}",
                   self._reply_error(spec, status_code, data,
                                     "the restarted daemon"))
            rnd.gauges["serve.resp_bytes"] = (
                rnd.gauges.get("serve.resp_bytes", 0) + len(data))
            pool = command if command in ("watch", "blame") else "hit"
            rnd.latency[pool].append(ended - began)
            if pool == "hit" and blame and blame[0][0] <= began \
                    and ended <= blame[0][1]:
                rnd.latency["hit_during_blame"].append(ended - began)
        rnd.gauges["trace.covered_s"] = sum(rnd.parts.values())
        return rnd

    def finish(self):
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS = collections.OrderedDict(
    (cls.name, cls) for cls in (ColdAudit, ProvePortfolio, WatchChurn, ServeMixed))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: End-to-end metrics: every workload reports every one (tracing off).
END_TO_END = [
    ("setup_s", "s"),
    ("round_best_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics: (name, unit, better).  ``*_s`` are self times
#: summed over a traced round (median of the traced rounds), the rest
#: are counts that must repeat exactly for a given hash seed, ratios,
#: or driver-side timings of one phase.
PER_LAYER = [
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_networkx_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.exit_s", "s", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.build_calls", "count", "lower"),
    ("network.paths_s", "s", "lower"),
    ("network.transfer_s", "s", "lower"),
    ("core.vmn_s", "s", "lower"),
    ("core.slice_s", "s", "lower"),
    ("core.slice_calls", "count", "lower"),
    ("core.symmetry_s", "s", "lower"),
    ("core.engine_self_s", "s", "lower"),
    ("core.cache_hits", "count", "higher"),
    ("core.cache_misses", "count", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("netmodel.canon_s", "s", "lower"),
    ("netmodel.canon_calls", "count", "lower"),
    ("netmodel.model_s", "s", "lower"),
    ("netmodel.axioms", "count", "lower"),
    ("netmodel.bmc_self_s", "s", "lower"),
    ("netmodel.pool_hits", "count", "higher"),
    ("netmodel.pool_misses", "count", "lower"),
    ("netmodel.decode_s", "s", "lower"),
    ("smt.add_s", "s", "lower"),
    ("smt.add_calls", "count", "lower"),
    ("smt.transfer_s", "s", "lower"),
    ("smt.clauses", "count", "lower"),
    ("smt.vars", "count", "lower"),
    ("smt.solve_s", "s", "lower"),
    ("smt.solve_calls", "count", "lower"),
    ("smt.conflicts", "count", "lower"),
    ("smt.decisions", "count", "lower"),
    ("smt.propagations", "count", "lower"),
    ("smt.native", "count", "higher"),
    ("proof.portfolio_self_s", "s", "lower"),
    ("proof.transition_s", "s", "lower"),
    ("proof.kind_s", "s", "lower"),
    ("proof.ic3_s", "s", "lower"),
    ("proof.minimize_s", "s", "lower"),
    ("proof.recheck_s", "s", "lower"),
    ("proof.queries", "count", "lower"),
    ("proof.unbounded_frac", "ratio", "higher"),
    ("incremental.delta_apply_s", "s", "lower"),
    ("incremental.impact_s", "s", "lower"),
    ("incremental.apply_self_s", "s", "lower"),
    ("incremental.delta_p50_s", "s", "lower"),
    ("incremental.delta_tail_s", "s", "lower"),
    ("incremental.carried", "count", "higher"),
    ("incremental.cache_hits", "count", "higher"),
    ("incremental.solver_runs", "count", "lower"),
    ("incremental.reverify_ratio", "ratio", "lower"),
    ("provenance.blame_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.flush_s", "s", "lower"),
    ("store.bytes", "B", "lower"),
    ("store.entries", "count", "lower"),
    ("serve.restart_ready_s", "s", "lower"),
    ("serve.prime_s", "s", "lower"),
    ("serve.handle_s", "s", "lower"),
    ("serve.http_s", "s", "lower"),
    ("serve.transport_s", "s", "lower"),
    ("serve.resp_bytes", "B", "lower"),
    ("serve.req_p50_s", "s", "lower"),
    ("serve.req_tail_s", "s", "lower"),
    ("serve.client_p50_s", "s", "lower"),
    ("serve.watch_req_p50_s", "s", "lower"),
    ("serve.blame_req_s", "s", "lower"),
    ("serve.hit_during_blame_p50_s", "s", "lower"),
    ("serve.busy_rejects", "count", "lower"),
    ("serve.shutdown_s", "s", "lower"),
    ("bench.round_cpu_s", "s", "lower"),
    ("op.p50_s", "s", "lower"),
    ("op.tail_s", "s", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("bench.round_iqr_frac", "ratio", "lower"),
    ("bench.work_repeat_exact", "count", "higher"),
    ("bench.layout_fixed", "count", "higher"),
    ("bench.pinned", "count", "higher"),
    ("bench.rounds", "count", "higher"),
]

#: span name (spans.LAYERS) -> the ``*_s`` metric its self time feeds,
#: and the ``*_calls``-style metric its call count feeds.
SELF_TIME = {
    "cli.import": "cli.import_s",
    "cli.import_networkx": "cli.import_networkx_s",
    "cli.main_self": "cli.main_self_s",
    "scenarios.build": "scenarios.build_s",
    "network.paths": "network.paths_s",
    "network.transfer": "network.transfer_s",
    "core.vmn": "core.vmn_s",
    "core.slice": "core.slice_s",
    "core.symmetry": "core.symmetry_s",
    "core.engine_self": "core.engine_self_s",
    "core.cache": "core.engine_self_s",
    "netmodel.canon": "netmodel.canon_s",
    "netmodel.model": "netmodel.model_s",
    "netmodel.bmc_self": "netmodel.bmc_self_s",
    "netmodel.pool": "netmodel.bmc_self_s",
    "netmodel.decode": "netmodel.decode_s",
    "smt.add": "smt.add_s",
    "smt.transfer": "smt.transfer_s",
    "smt.solve": "smt.solve_s",
    "proof.portfolio_self": "proof.portfolio_self_s",
    "proof.transition": "proof.transition_s",
    "proof.query": "proof.transition_s",
    "proof.kind": "proof.kind_s",
    "proof.ic3": "proof.ic3_s",
    "proof.minimize": "proof.minimize_s",
    "proof.recheck": "proof.recheck_s",
    "incremental.delta_apply": "incremental.delta_apply_s",
    "incremental.impact": "incremental.impact_s",
    "incremental.apply_self": "incremental.apply_self_s",
    "provenance.blame": "provenance.blame_s",
    "store.open": "store.open_s",
    "store.flush": "store.flush_s",
    "serve.handle": "serve.handle_s",
    "serve.http": "serve.http_s",
}
CALLS = {
    "scenarios.build": "scenarios.build_calls",
    "core.slice": "core.slice_calls",
    "netmodel.canon": "netmodel.canon_calls",
    "smt.add": "smt.add_calls",
    "smt.transfer": "smt.clauses",
    "smt.solve": "smt.solve_calls",
    "proof.query": "proof.queries",
}
#: recorder counts that map one-to-one onto a per-layer metric
COUNTS = ("cli.stdout_bytes", "core.cache_hits", "core.cache_misses",
          "netmodel.axioms", "netmodel.pool_hits", "netmodel.pool_misses",
          "smt.vars", "smt.conflicts", "smt.decisions", "smt.propagations")
#: the root span: its self time is what no wrapped callable accounts for
ROOT_SPAN = "trace.unattributed"


def traced_round_numbers(rnd: Round) -> dict:
    """Per-layer numbers of one traced round: self times and counts
    summed over the round's processes.  A worker's set-up is subtracted
    (the round starts when set-up is done); a daemon's main thread only
    idles in the serve loop, so its ``cli.main`` and root spans are not
    work; a one-shot command also pays interpreter start and teardown."""
    out = collections.defaultdict(float)
    attributed = 0.0
    for trace in rnd.traces:
        role = trace["role"]
        setup = trace.get("setup") if role == "worker" else None
        setup = setup or {"totals": {}, "counts": {}}
        if role == "command":
            interp = max(0.0, trace["first_line_t"] - trace["spawn_t"])
            leaving = max(0.0, trace["exit_t"] - trace["end_t"])
            out["cli.interp_s"] += interp
            out["cli.exit_s"] += leaving
            attributed += interp + leaving
        for name, row in trace["totals"].items():
            if name == ROOT_SPAN or (role == "daemon" and name == "cli.main_self"):
                continue
            before = setup["totals"].get(name, {"calls": 0, "self_s": 0.0})
            self_s = row["self_s"] - before["self_s"]
            if name in SELF_TIME:
                out[SELF_TIME[name]] += self_s
            if name in CALLS:
                out[CALLS[name]] += row["calls"] - before["calls"]
            attributed += self_s
        for name in COUNTS:
            out[name] += (trace["counts"].get(name, 0)
                          - setup["counts"].get(name, 0))
        out["smt.native"] = max(out["smt.native"], trace.get("native", 0))
        # Inclusive time of the daemon's handlers, for the transport share.
        out["_handle_inclusive_s"] += sum(
            end - start for name, start, end, _ in trace["spans"]
            if name == "serve.handle")
    out["_attributed_s"] = attributed
    return out


def exact_counts(numbers: dict, skip=()) -> dict:
    return {k: v for k, v in numbers.items()
            if not k.endswith("_s") and not k.startswith("_") and k not in skip}


def end_to_end(workload: Workload) -> dict:
    rounds = [r for r in workload.rounds if r.ok] or workload.rounds
    values = {
        "setup_s": best_parts(workload.setups),
        "round_best_s": best_parts([r.parts for r in rounds]),
        "peak_rss_mb": max(r.rss_kb for r in workload.rounds) / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(workload: Workload, launcher: Launcher) -> dict:
    rounds, traced = workload.rounds, workload.traced
    numbers = [traced_round_numbers(r) for r in traced]
    values = collections.defaultdict(float)
    for key in set().union(*numbers):
        column = [n.get(key, 0.0) for n in numbers]
        # Times: median of the traced rounds.  Counts: the first round's
        # (work_repeat_exact says whether the others agree).
        values[key] = median(column) if key.endswith("_s") else column[0]
    values.update(traced[0].gauges)
    lookups = values["core.cache_hits"] + values["core.cache_misses"]
    if lookups:
        values["core.cache_hit_ratio"] = values["core.cache_hits"] / lookups
    if values["incremental.invalidated"]:
        values["incremental.reverify_ratio"] = (
            values["incremental.solver_runs"] / values["incremental.invalidated"])

    def pooled(name, source=rounds):
        return [s for r in source for s in r.latency.get(name, ())]

    for metric, pool in (("incremental.delta_p50_s", "delta"),
                         ("serve.req_p50_s", "hit"),
                         ("serve.client_p50_s", "client"),
                         ("serve.watch_req_p50_s", "watch"),
                         ("serve.blame_req_s", "blame"),
                         ("serve.hit_during_blame_p50_s", "hit_during_blame"),
                         ("op.p50_s", "op")):
        values[metric] = median(pooled(pool))
    values["incremental.delta_tail_s"] = tail(pooled("delta"))
    values["serve.req_tail_s"] = tail(pooled("hit"))
    values["op.tail_s"] = tail(pooled("op"))
    values["serve.prime_s"] = workload.prime_s
    requests_s = sum(s for pool in ("hit", "watch", "blame")
                     for s in pooled(pool, traced[:1]))
    values["serve.transport_s"] = max(
        0.0, requests_s - numbers[0]["_handle_inclusive_s"])
    # -- the harness's own numbers --------------------------------------
    covered = [r.gauges.get("trace.covered_s", n["_attributed_s"]) / r.outer_s
               for r, n in zip(traced, numbers) if r.outer_s]
    values["trace.coverage_frac"] = median(covered)
    same_seed = [r.outer_s for r in rounds if r.hashseed == traced[0].hashseed]
    if same_seed:
        values["trace.overhead_frac"] = (
            min(r.outer_s for r in traced) / min(same_seed) - 1.0)
    values["bench.round_cpu_s"] = median([r.cpu_s for r in rounds])
    # Rounds of different hash seeds do different work; compare each
    # with the fastest of its own seed.
    fastest = {}
    for r in rounds:
        fastest[r.hashseed] = min(r.outer_s, fastest.get(r.hashseed, r.outer_s))
    values["bench.round_iqr_frac"] = iqr_frac(
        [r.outer_s / fastest[r.hashseed] for r in rounds if r.outer_s])
    counts = [exact_counts(n, workload.timing_dependent) for n in numbers]
    repeat = (launcher.layout_fixed is True and len(counts) >= 2
              and all(c == counts[0] for c in counts[1:]))
    values["bench.work_repeat_exact"] = int(repeat)
    values["bench.layout_fixed"] = int(launcher.layout_fixed is True)
    values["bench.pinned"] = int(launcher.pinned)
    values["bench.rounds"] = len(rounds)
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit, _ in PER_LAYER}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def prepare_checkout(launcher: Launcher) -> int:
    """Untimed: byte-compile the package (and this directory, so that
    its listing is the same for the first child as for the last) and
    build the native SAT core into the benchmark's own cache, so no run
    pays a compile another does not.  Returns 1 when the C core will
    serve the run."""
    os.makedirs(launcher.env["REPRO_SATCORE_CACHE"], exist_ok=True)
    code = ("import compileall, sys; "
            "compileall.compile_dir(sys.argv[1], quiet=2); "
            "compileall.compile_dir(sys.argv[2], maxlevels=0, quiet=2); "
            "from repro.smt import sat; "
            "print(int(sat.SatSolver.__name__ == 'NativeSatSolver'))")
    proc = launcher.popen([sys.executable, "-c", code,
                           os.path.join(SRC, "repro"), HERE],
                          HASH_SEEDS[0], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    out = proc.stdout.read()
    launcher.reap(proc, 600.0)
    if proc.returncode != 0:
        raise SystemExit(f"bench: cannot import the package from {SRC}")
    return int(out.strip() or 0)


def execute(names, seed, profile, seconds, rounds, traced_rounds, log):
    """Run ``names`` round-robin.  ``seconds`` time-boxes the untraced
    phase per workload (whole rounds only); ``rounds`` fixes its count
    instead.  Returns the result document."""
    os.makedirs(CACHE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=CACHE)
    launcher = Launcher(workdir)
    oracle = Oracle()
    workloads = [WORKLOADS[n](launcher, oracle, PROFILES[profile], seed)
                 for n in names]
    try:
        native = prepare_checkout(launcher)
        if traced_rounds and not launcher.probe_layout():
            log("warning: ADDR_NO_RANDOMIZE is unavailable or does not make "
                "work repeat; every count below is unresolved")
        for workload in workloads:
            workload.prepare()
        # -- untraced rounds: end-to-end numbers -------------------------
        started = perf_counter()
        budget = None if seconds is None else seconds * len(names)
        passes = []
        r = 0
        while True:
            if rounds is not None:
                if r >= rounds:
                    break
            elif r >= 2 and (perf_counter() - started
                             + statistics.median(passes) > budget):
                break
            pass_started = perf_counter()
            for workload in workloads:
                workload.rounds.append(
                    workload.round(HASH_SEEDS[r % len(HASH_SEEDS)], False))
            passes.append(perf_counter() - pass_started)
            r += 1
        # -- traced rounds: per-layer numbers ----------------------------
        for _ in range(traced_rounds):
            for workload in workloads:
                workload.traced.append(workload.round(HASH_SEEDS[0], True))
        document = {"schema": SCHEMA, "seed": seed, "profile": profile,
                    "native": native, "pinned": int(launcher.pinned),
                    "layout_fixed": launcher.layout_fixed, "workloads": {}}
        for workload in workloads:
            ops = [op for rnd in workload.rounds + workload.traced
                   + [workload.extra] for op in rnd.ops]
            failures = [(key, error) for key, error in ops if error]
            for key, error in failures[:10]:
                log(f"FAILED {workload.name}: {key}: {error}")
            row = {
                "rounds": len(workload.rounds),
                "attempted": len(ops),
                "failed": len(failures),
                "correct": not failures,
                "end_to_end": end_to_end(workload),
                "samples": {
                    "round_s": [r.outer_s for r in workload.rounds],
                    "setup_s": [sum(parts.values()) for parts in workload.setups],
                },
            }
            if traced_rounds:
                row["per_layer"] = per_layer(workload, launcher)
            document["workloads"][workload.name] = row
        return document
    finally:
        launcher.kill_all()
        for workload in workloads:
            workload.finish()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting, validation, agreement
# ----------------------------------------------------------------------
def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def print_table(document, out=sys.stderr):
    for name, row in document["workloads"].items():
        print(f"{name}: {row['rounds']} rounds, {row['attempted']} ops, "
              f"{row['failed']} failed", file=out)
        for metric, cell in row["end_to_end"].items():
            print(f"  {metric:28s} {cell['value']:12.4f} {cell['unit']}", file=out)
        for metric, cell in row.get("per_layer", {}).items():
            if cell["value"]:
                print(f"  {metric:28s} {cell['value']:12.4f} {cell['unit']}",
                      file=out)


def validate(document) -> list:
    """Format problems of a result document (the --quick self-check)."""
    problems = []
    if len(document["workloads"]) > 8:
        problems.append(f"{len(document['workloads'])} workloads (want <= 8)")
    for name, row in document["workloads"].items():
        for kind, limit in (("end_to_end", 16), ("per_layer", 128)):
            if kind not in row:
                continue
            cells = row[kind]
            if not 1 <= len(cells) <= limit:
                problems.append(f"{name}: {len(cells)} {kind} metrics")
            for metric, cell in cells.items():
                if not NAME_RE.match(metric):
                    problems.append(f"{name}: bad metric name {metric!r}")
                if not cell.get("unit"):
                    problems.append(f"{name}: {metric} has no unit")
                if not isinstance(cell.get("value"), (int, float)):
                    problems.append(f"{name}: {metric} has no value")
        for metric, cell in row["end_to_end"].items():
            if not cell["value"] > 0:
                problems.append(f"{name}: {metric} is not positive")
        if not NAME_RE.match(name):
            problems.append(f"bad workload name {name!r}")
    return problems


def agree(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both values, the relative
    difference and the bound; non-zero exit on any excess."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    if a.get("native") != b.get("native"):
        print("refusing to compare: smt.native differs "
              f"({a.get('native')} vs {b.get('native')})")
        return 2
    bounds = {m["name"]: m["bound"] for m in load_manifest()["end_to_end"]}
    worst = 0
    print(f"{'workload':16s} {'metric':14s} {'A':>10s} {'B':>10s} "
          f"{'diff':>8s} {'bound':>6s}")
    for name, row_a in a["workloads"].items():
        row_b = b["workloads"].get(name)
        if row_b is None:
            continue
        for metric, cell in row_a["end_to_end"].items():
            va, vb = cell["value"], row_b["end_to_end"][metric]["value"]
            diff = abs(vb - va) / min(va, vb)
            bound = bounds[metric]
            excess = diff > bound
            worst |= excess
            print(f"{name:16s} {metric:14s} {va:10.4f} {vb:10.4f} "
                  f"{diff:8.3f} {bound:6.2f}{'  EXCESS' if excess else ''}")
    return int(worst)


def write_expected() -> int:
    """Regenerate expected.json from the hand-labelled
    ``ExpectedCheck.expected`` fields of the scenario modules (the only
    place this benchmark imports the program — and it runs no solver)."""
    sys.path.insert(0, SRC)
    from repro.scenarios import build_scenario

    wanted = set()
    for profile in PROFILES.values():
        wanted.update(profile["cold"], profile["prove"])
        wanted.update((s["scenario"], s["size"]) for s in profile["watch"])
        wanted.update((s, n) for _, s, n in profile["serve_hits"])
        wanted.update([profile["serve_watch"][:2], profile["serve_blame"][:2],
                       profile["serve_client"]])
    checks = {}
    for scenario, size in sorted(wanted):
        bundle = build_scenario(scenario, size=size)
        checks[f"{scenario}/{size}"] = {c.label: c.expected for c in bundle.checks}
    document = {
        "source": "ExpectedCheck.expected in src/repro/scenarios/*.py "
                  "(hand-labelled; never solver output); regenerate with "
                  "bench.py --write-expected",
        "prove_guarantee": "unbounded",
        "checks": checks,
    }
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="run one workload alone (default: all four, "
                             "rounds interleaved)")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the untraced rounds (per workload)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many untraced rounds "
                             "(default 12 when --seconds is not given)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics from traced rounds (default: both)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full result document here")
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds of size-2 scenarios, <60 s; also "
                             "validates the output format")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.agree:
        return agree(*args.agree)
    if args.write_expected:
        return write_expected()
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"bench: no program to measure under {SRC}", file=sys.stderr)
        return 2

    def log(text):
        print(text, file=sys.stderr)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else list(WORKLOADS)
    profile = "quick" if args.quick else "full"
    seconds, rounds = args.seconds, args.rounds
    if rounds is None and seconds is None:
        rounds = 2 if args.quick else 12
    traced_rounds = 0 if args.trace == 0 else TRACED_ROUNDS
    if args.trace == 1 and seconds is not None:
        seconds /= 2.0  # the traced rounds take the other half
    document = execute(names, args.seed, profile, seconds, rounds,
                       traced_rounds, log)
    problems = validate(document) if args.quick else []
    for problem in problems:
        log(f"INVALID: {problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    print_table(document)
    rows = list(document["workloads"].values())
    kind = "per_layer" if args.trace == 1 else "end_to_end"
    if args.workload:
        metrics = rows[0][kind]
    else:
        metrics = {f"{name}.{metric}": cell
                   for name, row in document["workloads"].items()
                   for metric, cell in row[kind].items()}
    failed = sum(row["failed"] for row in rows)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
