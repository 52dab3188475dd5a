"""Child-side entry point of the end-to-end benchmark.

``bench.py`` launches this file (never imports it) in two shapes::

    shim.py [--trace OUT.json] cli ARGV...   # one `repro` command, then exit
    shim.py [--trace OUT.json] worker        # resident worker, JSON lines

``cli`` is what the traced round runs in place of ``python -m repro``:
it stamps its first line, times ``import networkx`` and ``import
repro.cli``, installs the span recorder (:mod:`spans`) round the
program's public callables and calls ``repro.cli.main(argv)``.  The
untraced cold path does not come through here at all — it is the plain
``python -m repro`` a user types.

``worker`` is the warm in-process path: it imports the CLI once (that
import is the set-up the driver times) and then serves one request per
stdin line until ``exit``:

``{"op": "main", "argv": [...]}``
    ``repro.cli.main(argv)`` with stdout captured; replies exit code
    and the captured text.
``{"op": "sessions", "streams": [{scenario, size, deltas, seed, cache}]}``
    build each scenario, its churn stream and an
    ``IncrementalSession``, run ``baseline()``; replies the baseline
    verdicts (this is the warm-session set-up).
``{"op": "delta", "stream": i}``
    apply stream *i*'s next delta; replies verdicts and the report's
    carried / cache-hit / solver-run counts.

Every reply also carries the op's wall and CPU ``seconds``/``cpu``.

With ``--trace`` the recorder's totals, counts and stored spans are
written to ``OUT.json`` when the process exits; a worker also records a
snapshot taken when set-up finished, so the driver can subtract set-up
from the round.
"""

_FIRST_LINE = __import__("time").time()

import contextlib
import io
import json
import os
import sys
import time


def _import_networkx():
    import networkx  # noqa: F401


def _import_cli():
    import repro.cli  # noqa: F401


class _CountingStdout:
    """stdout proxy that counts what the command printed."""

    def __init__(self, stream, recorder):
        self._stream = stream
        self._recorder = recorder

    def write(self, text):
        self._recorder.count("cli.stdout_bytes", len(text))  # output is ASCII
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


# ----------------------------------------------------------------------
# worker ops
# ----------------------------------------------------------------------
def _op_main(request, _state):
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(list(request["argv"]))
    return {"exit": code, "stdout": out.getvalue()}


def _statuses(report) -> dict:
    return {outcome.check.describe(): outcome.status for outcome in report}


def _op_sessions(request, state):
    from repro.incremental import IncrementalSession
    from repro.scenarios import CHURN_GENERATORS, build_scenario

    baselines = []
    for stream in request["streams"]:
        bundle = build_scenario(stream["scenario"], size=stream["size"])
        events = CHURN_GENERATORS[stream["scenario"]](
            bundle, n_events=stream["deltas"], seed=stream["seed"])
        session = IncrementalSession.from_bundle(
            bundle, jobs=1, use_cache=bool(stream["cache"]))
        report = session.baseline()
        state["streams"].append({"session": session, "events": events, "next": 0})
        baselines.append({"statuses": _statuses(report),
                          "solver_runs": report.solver_runs})
    return {"baselines": baselines}


def _op_delta(request, state):
    stream = state["streams"][request["stream"]]
    event = stream["events"][stream["next"]]
    stream["next"] += 1
    report = stream["session"].apply(event.delta, new_checks=event.new_checks)
    return {
        "delta": event.describe(),
        "statuses": _statuses(report),
        "drift": sorted(o.check.describe() for o in report if o.ok is False),
        "carried": report.carried,
        "invalidated": report.invalidated,
        "cache_hits": report.cache_hits,
        "solver_runs": report.solver_runs,
    }


_OPS = {"main": _op_main, "sessions": _op_sessions, "delta": _op_delta}


def _worker(recorder, extra):
    state = {"streams": []}
    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "exit":
            break
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            answer = _OPS[request["op"]](request, state)
        except Exception as err:  # report to the driver, which counts it failed
            answer = {"error": f"{type(err).__name__}: {err}"}
        answer["seconds"] = time.perf_counter() - started
        answer["cpu"] = time.process_time() - cpu_started
        if request.get("setup_done") and recorder is not None:
            extra["setup"] = recorder.merged()
        reply.write(json.dumps(answer) + "\n")
        reply.flush()
    return 0


# ----------------------------------------------------------------------
def main(argv) -> int:
    trace_out = None
    if argv and argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    if not argv or argv[0] not in ("cli", "worker"):
        print("usage: shim.py [--trace OUT.json] cli ARGV... | worker",
              file=sys.stderr)
        return 2
    mode, rest = argv[0], argv[1:]

    if trace_out is None:
        if mode != "worker":  # the untraced CLI path is plain `python -m repro`
            print("shim.py cli needs --trace", file=sys.stderr)
            return 2
        _import_cli()
        return _worker(None, {})

    import spans

    recorder = spans.Recorder()
    extra = {"pid": os.getpid(), "first_line_t": _FIRST_LINE}

    def body():
        recorder.wrap("cli.import_networkx", _import_networkx)()
        recorder.wrap("cli.import", _import_cli)()
        recorder.wrap("trace.install", spans.install)(recorder)
        extra["native"] = spans.native_core()
        if mode == "worker":
            extra["setup"] = recorder.merged()
            return _worker(recorder, extra)
        import repro.cli

        sys.stdout = _CountingStdout(sys.stdout, recorder)
        try:
            return repro.cli.main(rest)
        finally:
            sys.stdout = sys.stdout._stream

    try:
        # Whatever no wrapped callable accounts for lands in this root
        # span's self time; the driver reports it as uncovered.
        return recorder.wrap("trace.unattributed", body)()
    finally:
        extra["end_t"] = time.time()
        recorder.dump(trace_out, extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
