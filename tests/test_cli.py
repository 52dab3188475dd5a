"""Tests for the command-line interface."""

import json
import os
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

from repro.cli import main
from repro.scenarios import CHURN_GENERATORS, SCENARIOS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(*args: str, expect_rc: int = 0) -> str:
    """Run the CLI in a fresh interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_env(), check=False,
    )
    assert proc.returncode == expect_rc, proc.stdout + proc.stderr
    return proc.stdout


class TestList:
    def test_lists_exactly_the_registry(self, capsys):
        """`list` prints a static copy of the registry's names (so that
        it need not import the scenarios); this holds the copy to the
        registry and to the churn generators."""
        assert main(["list"]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert [row[0] for row in rows] == list(SCENARIOS)
        assert ({row[0] for row in rows if row[-1] == "[watchable]"}
                == set(CHURN_GENERATORS))


class TestAudit:
    def test_all_clean_scenario_exits_zero(self, capsys):
        """Exit 0 is reserved for 'no mismatches AND nothing violated';
        datacenter-traversal is the seed scenario with no expected
        violations."""
        rc = main(["audit", "datacenter-traversal"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 unexpected verdicts" in out

    def test_expected_violations_exit_one(self, capsys):
        """The ISP scenario contains deliberately violated checks:
        verdicts match expectations (no mismatch) but something is
        violated, so scripts get exit 1."""
        rc = main(["audit", "isp", "--size", "3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "0 unexpected verdicts" in out

    def test_misconfigured_scenario_exits_one(self, capsys):
        """Expected violations are not mismatches, but they are still
        violations — exit 1 either way."""
        rc = main(["audit", "isp", "--size", "3", "--misconfig"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "violated" in out

    def test_show_traces(self, capsys):
        rc = main(["audit", "isp", "--size", "3", "--misconfig", "--show-traces"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "sends" in out  # a schedule was printed

    def test_unknown_scenario(self, capsys):
        assert main(["audit", "nonsense"]) == 2

    def test_multitenant_has_no_injector(self, capsys):
        assert main(["audit", "multitenant", "--misconfig"]) == 2


class TestAuditJson:
    def test_structured_verdicts(self, capsys):
        rc = main(["audit", "isp", "--size", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # the scenario's expected violations
        assert payload["command"] == "audit"
        assert payload["mismatches"] == 0
        assert payload["n_checks"] == len(payload["checks"])
        for check in payload["checks"]:
            assert check["status"] == check["expected"]
            assert check["solve_seconds"] >= 0
        # Violated checks carry their counterexample schedule.
        assert any(
            c["trace"] for c in payload["checks"] if c["status"] == "violated"
        )

    def test_solver_stats_round_trip(self, capsys):
        """`repro audit --json` surfaces the incremental solver's
        counters: per-check deltas that sum to the reported totals, and
        cumulative counters that never decrease on a warm solver."""
        rc = main(["audit", "isp", "--size", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # the scenario's expected violations
        counters = ("conflicts", "decisions", "propagations",
                    "restarts", "learned", "subsumed", "strengthened")
        totals = payload["solver_totals"]
        recomputed = {key: 0 for key in counters}
        for check in payload["checks"]:
            solver = check["solver"]
            assert solver is not None
            for key in counters:
                assert isinstance(solver[key], int) and solver[key] >= 0
                if not check["cached"]:
                    recomputed[key] += solver[key]
            cumulative = solver["cumulative"]
            for key in counters:
                # A check's share never exceeds its solver's lifetime
                # total — the cumulative counters do not reset.
                assert cumulative[key] >= solver[key], key
            assert isinstance(solver["warm"], bool)
            assert solver["vars"] >= 1
        assert recomputed == totals
        assert totals["propagations"] > 0


class TestProveJson:
    def test_structured_guarantees_round_trip(self, capsys):
        """`repro prove --json` mirrors the audit schema plus the
        guarantee fields: every holds is upgraded to an unbounded
        guarantee with a re-checked certificate (or reported bounded
        with the limiting engines' reason), violations come from BMC
        with a trace."""
        rc = main(["prove", "isp", "--size", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # the scenario's expected violations
        assert payload["command"] == "prove"
        assert payload["mismatches"] == 0
        assert payload["n_checks"] == len(payload["checks"])
        guarantees = payload["guarantees"]
        assert guarantees["unbounded"] + guarantees["bounded"] \
            == payload["n_checks"]
        for check in payload["checks"]:
            assert check["status"] == check["expected"]
            assert check["guarantee"] in ("unbounded", "bounded")
            assert check["solver"] is not None or check["cached"]
            if check["status"] == "violated":
                assert check["guarantee"] == "unbounded"
                assert check["engine"] == "bmc"
                assert check["trace"]
            elif check["guarantee"] == "unbounded":
                assert check["engine"] in ("kinduction", "ic3")
                cert = check["certificate"]
                assert cert is not None
                assert cert["kind"] in ("kinduction", "ic3")
                assert check["recheck_ok"] is True
            else:
                assert check["note"]  # the limiting engines' reason
        # The ISP scenario's holds checks really do upgrade.
        assert guarantees["unbounded"] >= 1

    def test_budgeted_prove_degrades_to_bounded(self, capsys):
        """A hard query cap turns prover upgrades into bounded verdicts
        with an explanatory note — verdicts themselves stay correct."""
        rc = main(["prove", "isp", "--size", "2", "--max-checks", "64",
                   "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # the scenario's expected violations
        assert payload["mismatches"] == 0
        for check in payload["checks"]:
            assert check["status"] == check["expected"]

    def test_text_output_reports_guarantees(self, capsys):
        rc = main(["prove", "isp", "--size", "2"])
        out = capsys.readouterr().out
        assert rc == 1  # the scenario's expected violations
        assert "unbounded" in out
        assert "guarantees" in out


class TestWatch:
    def test_replays_churn_stream(self, capsys):
        rc = main(["watch", "enterprise", "--size", "3", "--deltas", "2"])
        out = capsys.readouterr().out
        assert rc == 1  # the final version carries expected violations
        assert "DRIFT" in out          # the misconfig delta is flagged...
        assert "absorbed 2 deltas" in out  # ...and the stream completes

    def test_json_reports_per_delta_costs(self, capsys):
        rc = main(["watch", "enterprise", "--size", "3", "--deltas", "2",
                   "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # the final version carries expected violations
        assert payload["command"] == "watch"
        assert len(payload["versions"]) == 2
        totals = payload["totals"]
        assert totals["solver_runs"] + totals["cache_hits"] \
            + totals["checks_carried"] == totals["full_audit_equivalent_checks"]
        # The quarantine-rule deletion drifts, the restore heals.
        assert payload["versions"][0]["drift"]
        assert not payload["versions"][1]["drift"]

    def test_unknown_scenario(self):
        assert main(["watch", "nonsense"]) == 2

    def test_scenario_without_churn_generator(self, capsys):
        assert main(["watch", "isp"]) == 2
        assert "watchable" in capsys.readouterr().out


class TestRepair:
    def test_repairs_the_default_fault_and_reports_the_patch(self, capsys):
        rc = main(["repair", "multitenant", "--size", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "injected: edit-rules t1fw" in out
        assert "patch: edit-rules t1fw (+1/-0)" in out
        assert "certified: Priv-Priv" in out
        assert "0 mismatches" in out

    def test_json_schema_round_trip(self, capsys):
        rc = main(["repair", "multitenant", "--size", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["command"] == "repair"
        assert payload["ok"] is True
        assert payload["fault"]["name"] == "multitenant/sg-hole"
        assert payload["patch"] == ["edit-rules t1fw (+1/-0)"]
        assert payload["patch_cost"] == 1
        for row in payload["certificates"].values():
            assert row["kind"] in ("kinduction", "ic3", "witness")
        cands = payload["candidates"]
        assert cands["tried"] == len(payload["attempts"]) >= 1
        assert cands["generated"] >= cands["tried"]
        assert payload["attempts"][-1]["status"] == "accepted"
        assert payload["final_audit"]["mismatches"] == 0
        assert payload["screen"]["solver_runs"] >= 1
        assert "seconds" in payload["timing"]

    def test_stable_json_is_byte_reproducible(self):
        """Same scenario, same seed, two *process* invocations: byte-
        identical output (verdicts, patches and solver decisions are
        deterministic from a fresh interpreter; wall clock is the one
        nondeterministic piece and --stable-json strips it).  In-process
        reruns are exempt: interned term tables persist across runs and
        legitimately shift solver tie-breaking."""
        outputs = [
            _run_cli("repair", "multitenant", "--size", "2",
                     "--seed", "1", "--stable-json")
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["ok"] is True
        assert payload["seed"] == 1
        assert "timing" not in payload
        assert "seconds" not in json.dumps(payload)

    def test_unknown_scenario_and_fault(self, capsys):
        assert main(["repair", "nonsense"]) == 2
        capsys.readouterr()
        assert main(["repair", "multitenant", "--fault", "nonsense"]) == 2
        assert "unknown fault" in capsys.readouterr().out

    def test_scenario_without_faults(self, capsys):
        assert main(["repair", "datacenter-redundancy"]) == 2
        assert "repairable" in capsys.readouterr().out


class TestExitCodes:
    """The documented contract: 0 all clean, 1 when any invariant is
    violated or any verdict mismatches its expectation, 2 on usage or
    transport errors.  Exercised through real process exit codes so
    shell `&&`/`if` behaviour is what is actually tested."""

    def _rc(self, *args: str) -> int:
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, env=_env(), check=False,
        ).returncode

    def test_clean_audit_is_zero(self):
        assert self._rc("audit", "datacenter-traversal") == 0

    def test_violations_are_one(self):
        assert self._rc("audit", "isp", "--size", "2") == 1

    def test_usage_errors_are_two(self):
        assert self._rc("audit", "nonsense") == 2
        assert self._rc("watch", "isp") == 2  # no churn generator

    def test_unreachable_server_is_two(self):
        # Port 1 is never a repro daemon; --server must not silently
        # fall back to an in-process run.
        assert self._rc("audit", "datacenter-traversal",
                        "--server", "127.0.0.1:1") == 2

    def test_successful_repair_is_zero(self):
        assert self._rc("repair", "multitenant", "--size", "2") == 0


class TestStableAuditJson:
    def test_stable_json_is_byte_reproducible(self):
        """Two fresh-process audits of the same spec emit identical
        bytes under --stable-json — the parity baseline the resident
        server is held to."""
        outputs = [
            _run_cli("audit", "isp", "--size", "2", "--stable-json",
                     expect_rc=1)
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["command"] == "audit"
        assert "seconds" not in json.dumps(payload)
        # Warm-state cost fields are stripped too: a cold and a warm
        # run of this spec must serialize identically.
        for noisy in ("cached", "solver", "solver_totals"):
            assert noisy not in payload


class TestStableWatchJson:
    def test_stable_json_drops_wall_clock_fields(self, capsys):
        rc = main(["watch", "enterprise", "--size", "3", "--deltas", "2",
                   "--stable-json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1  # the final version carries expected violations
        assert payload["command"] == "watch"
        assert payload["seed"] == 0
        assert "seconds" not in json.dumps(payload)
        assert payload["totals"]["deltas"] == 2


class TestTopAndTail:
    """The live-introspection subcommands, driven against an in-process
    daemon (the rendering helpers are unit-tested directly)."""

    @staticmethod
    def _daemon():
        import threading

        from repro.serve.server import ReproServer
        from repro.serve.service import VerificationService

        srv = ReproServer(("127.0.0.1", 0), VerificationService(),
                          quiet=True)
        thread = threading.Thread(target=srv.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        return srv, thread

    def test_parse_prom_skips_comments_and_garbage(self):
        from repro.cli import _parse_prom

        text = ("# HELP repro_x things\n"
                "# TYPE repro_x counter\n"
                'repro_x{command="audit"} 3\n'
                "repro_y 1.5\n"
                "not a metric line at all\n")
        assert _parse_prom(text) == {'repro_x{command="audit"}': 3.0,
                                     "repro_y": 1.5}

    def test_format_request_line_success_and_error(self):
        from repro.cli import _format_request_line

        ok = _format_request_line({
            "ts": 0, "request_id": "rab-000001", "command": "audit",
            "scenario": "enterprise", "seconds": 0.5, "exit_code": 1,
            "checks": 8, "cache_hits": 2, "solver_runs": 6,
            "slow": True, "trace": "rab-000001.trace.json",
        })
        assert "rab-000001" in ok and "exit 1" in ok
        assert "SLOW trace=rab-000001.trace.json" in ok
        bad = _format_request_line({
            "request_id": "rab-000002", "command": "watch",
            "scenario": "isp", "seconds": 0.1, "exit_code": 2,
            "error": "BadRequest: no churn generator",
        })
        assert "ERROR BadRequest" in bad and "--:--:--" in bad

    def test_top_renders_one_snapshot(self, capsys):
        srv, thread = self._daemon()
        try:
            rc = main(["audit", "enterprise", "--size", "2",
                       "--server", srv.url, "--json"])
            assert rc == 1
            capsys.readouterr()
            assert main(["top", "--server", srv.url, "-n", "1"]) == 0
            out = capsys.readouterr().out
            assert "repro top" in out
            assert "requests 1" in out
            assert "flight recorder" in out
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()

    def test_tail_server_lists_requests(self, capsys):
        srv, thread = self._daemon()
        try:
            main(["audit", "enterprise", "--size", "2",
                  "--server", srv.url, "--json"])
            capsys.readouterr()
            assert main(["tail", "--server", srv.url, "-n", "5"]) == 0
            out = capsys.readouterr().out
            assert "audit" in out and "exit" in out
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()

    def test_tail_log_renders_events(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(
            json.dumps({"ts": 0.0, "level": "info", "event": "request",
                        "request_id": "rab-000001", "seconds": 0.4})
            + "\n" + "not json\n")
        assert main(["tail", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "request_id=rab-000001" in out
        assert "not json" in out  # raw fallback

    def test_tail_rejects_conflicting_sources(self, capsys):
        assert main(["tail", "--server", ":1", "--log", "x.jsonl"]) == 2

    def test_top_unreachable_server_exits_2(self, capsys):
        assert main(["top", "--server", "127.0.0.1:1", "-n", "1"]) == 2


# ----------------------------------------------------------------------
# Start-up, transport and exit: properties of structure, not of speed
# ----------------------------------------------------------------------
_HEAVY = ("repro.core", "repro.netmodel", "repro.smt", "repro.scenarios",
          "repro.network", "repro.serve.service", "networkx")

_PROBE = """
import contextlib, io, json, sys
from repro.cli import main

def loaded(prefixes):
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))

out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
import repro
print(json.dumps({
    "codes": codes,
    "stdout": out.getvalue(),
    "loaded": loaded(json.loads(sys.argv[2])),
    "dir_lists_all": set(repro.__all__) <= set(dir(repro)),
    "vmn": repro.VMN.__module__,
}))
"""


def _probe(commands, prefixes) -> dict:
    """Run ``main(argv)`` for each of ``commands`` in one fresh
    interpreter; report exit codes, stdout, and which modules under
    ``prefixes`` ended up in ``sys.modules``."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands),
         json.dumps(prefixes)],
        capture_output=True, text=True, env=_env(), check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStartUp:
    """What a command imports is part of its cost: the thin commands
    and every `--server` run must not load the verification stack."""

    def test_thin_commands_load_no_verification_stack(self, tmp_path):
        trace = tmp_path / "run.json"
        assert main(["audit", "enterprise", "--size", "2", "--json",
                     "--trace", str(trace)]) == 1
        srv, thread = TestTopAndTail._daemon()
        try:
            report = _probe(
                [["list"],
                 ["stats", str(trace)],
                 ["audit", "enterprise", "--size", "2", "--stable-json",
                  "--server", srv.url],
                 ["serve", "status", "--server", srv.url],
                 ["top", "--server", srv.url, "-n", "1"],
                 ["tail", "--server", srv.url]],
                _HEAVY)
        finally:
            srv.shutdown()
            thread.join(timeout=10)
            srv.close()
        assert report["codes"] == [0, 0, 1, 0, 0, 0]
        assert report["loaded"] == []
        # ... and the server-mediated audit really ran.
        assert '"command": "audit"' in report["stdout"]
        # The package still offers its public names, on demand.
        assert report["dir_lists_all"]
        assert report["vmn"] == "repro.core.vmn"

    def test_in_process_audit_loads_what_it_uses(self):
        # (`repro.proof` is absent from this list on purpose: `repro.core`
        # imports it through core/prove.py whatever the command.)
        report = _probe([["audit", "enterprise", "--size", "2"]],
                        ["networkx", "repro.repair"])
        assert report["codes"] == [1]
        assert report["loaded"] == []

    def test_an_audit_loads_no_pool_toolchain_or_delta_vocabulary(self):
        """Only a batch that fans out needs ``multiprocessing``, only a
        cold satcore cache the compiler toolchain, only sessions, churn
        and faults ``repro.incremental``."""
        from repro.smt import _native

        lazy = ["multiprocessing", "repro.incremental",
                "repro.scenarios.churn", "repro.scenarios.faults"]
        if _native.load() is not None:  # the cache is warm from here on
            lazy += ["platform", "subprocess"]
        audit = ["audit", "enterprise", "--size", "2"]
        report = _probe([audit], lazy)
        assert report["codes"] == [1]
        assert report["loaded"] == []
        # ... and each is still loaded by what does use it.
        report = _probe([["watch", "enterprise", "--size", "3",
                          "--deltas", "1"]], lazy)
        assert {"repro.incremental.session", "repro.incremental.delta",
                "repro.scenarios.churn"} <= set(report["loaded"])
        report = _probe([audit + ["--jobs", "2", "--no-cache"]], lazy)
        assert report["codes"] == [1]
        assert "multiprocessing" in report["loaded"]

    def test_lazy_names_are_still_importable_from_their_packages(self):
        from repro.incremental import network_fingerprint
        from repro.incremental.delta import network_fingerprint as via_delta
        from repro.netmodel import canon
        from repro.scenarios import CHURN_GENERATORS, FAULTS, build_fault

        assert network_fingerprint is via_delta is canon.network_fingerprint
        assert "enterprise" in CHURN_GENERATORS
        assert any(name.startswith("enterprise/") for name in FAULTS)
        assert callable(build_fault)
        import repro.scenarios as scenarios

        assert set(scenarios.__all__) <= set(dir(scenarios))


class _CountingSocket:
    """The server end of a socketpair, recording each write the handler
    makes and the socket options it asks for."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = []
        self.options = []

    def sendall(self, data):
        self.sends.append(len(data))
        return self._sock.sendall(data)

    def send(self, data):
        self.sends.append(len(data))
        return self._sock.send(data)

    def setsockopt(self, *args):
        self.options.append(args)  # AF_UNIX has no TCP options to set

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _read_reply(sock):
    """(status, raw length) of the next HTTP reply on ``sock``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-reply"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"content-length: (\d+)", head, re.I).group(1))
    while len(body) < length:
        body += sock.recv(65536)
    assert len(body) == length
    return int(head.split()[1]), len(head) + 4 + length


class TestOneWritePerReply:
    def test_every_reply_is_one_send_with_nagle_off(self):
        """The invariant behind warm-hit latency: a reply that leaves in
        two writes has its second half held back until the peer's
        delayed ACK (~40 ms).  Asserted as a property of the handler —
        one send per reply, TCP_NODELAY requested — not as a timing."""
        from repro.serve.server import ReproServer, _Handler
        from repro.serve.service import VerificationService

        srv = ReproServer(("127.0.0.1", 0), VerificationService(), quiet=True)
        ours, theirs = socket.socketpair()
        counting = _CountingSocket(theirs)
        handler = threading.Thread(
            target=_Handler, args=(counting, ("test", 0), srv), daemon=True)
        handler.start()
        spec = json.dumps({"command": "audit", "scenario": "enterprise",
                           "size": 2}).encode()
        requests = [
            b"GET /healthz HTTP/1.1\r\n\r\n",
            b"GET /metrics HTTP/1.1\r\n\r\n",
            b"GET /nope HTTP/1.1\r\n\r\n",
            b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(spec), spec),                      # a 10 kB+ reply
            b"POST /v1/run HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]",
            b"POST /v1/checkpoint HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        ]
        try:
            replies = []
            for raw in requests:
                ours.sendall(raw)
                replies.append(_read_reply(ours))
            handler.join(timeout=10)  # the checkpoint reply closes
            assert not handler.is_alive()
        finally:
            ours.close()
            theirs.close()
            srv.close()
        assert [status for status, _ in replies] == [200, 200, 404, 200,
                                                     400, 200]
        assert counting.sends == [size for _, size in replies]
        assert max(counting.sends) > 8192
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in counting.options


class TestHardExit:
    """`python -m repro` leaves through os._exit; everything a command
    produced must be complete by then."""

    ARGV = [sys.executable, "-m", "repro", "audit", "enterprise",
            "--size", "3", "--no-cache", "--json"]

    def test_piped_stdout_and_trace_file_are_complete(self, tmp_path):
        from repro import obs

        trace = tmp_path / "run.json"
        proc = subprocess.run(self.ARGV + ["--trace", str(trace)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=_env(), check=False)
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert len(payload["checks"]) == payload["n_checks"] > 0
        spans = obs.load_spans(obs.load_trace(str(trace)))
        assert any(span["name"] == "audit" for span in spans)

    def test_closed_stdout_is_an_error_not_a_traceback(self):
        proc = subprocess.Popen(self.ARGV, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_env())
        proc.stdout.close()  # the reader goes away before the first byte
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in stderr and b"BrokenPipe" not in stderr
