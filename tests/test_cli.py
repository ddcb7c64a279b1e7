"""Command-line interface (python -m repro)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import random_connected_graph, write_dimacs, write_edgelist
from repro.arena.solvers import stoer_wagner


@pytest.fixture
def graph_file(tmp_path):
    g = random_connected_graph(20, 60, rng=1, max_weight=4)
    path = tmp_path / "g.el"
    write_edgelist(g, path)
    return g, str(path)


class TestCut:
    def test_value_matches_baseline(self, graph_file, capsys):
        g, path = graph_file
        assert main(["cut", path, "--seed", "3"]) == 0
        out = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.strip().split("\n")
        )
        assert float(out["value"]) == pytest.approx(stoer_wagner(g).value)
        assert float(out["work"]) > 0
        side = [int(x) for x in out["side"].split()]
        assert 0 < len(side) < g.n

    def test_epsilon_flag(self, graph_file, capsys):
        g, path = graph_file
        assert main(["cut", path, "--epsilon", "0.4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "value" in out

    def test_dimacs_format(self, tmp_path, capsys):
        g = random_connected_graph(12, 30, rng=2, max_weight=3)
        path = tmp_path / "g.dimacs"
        write_dimacs(g, path)
        assert main(["cut", str(path), "--format", "dimacs"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("\n")[0].split()[1]) == pytest.approx(
            stoer_wagner(g).value
        )


class TestApprox:
    def test_outputs_bracket(self, graph_file, capsys):
        _, path = graph_file
        assert main(["approx", path, "--seed", "5"]) == 0
        out = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.strip().split("\n")
        )
        assert float(out["low"]) <= float(out["estimate"]) <= float(out["high"])
        assert "layer" in out


class TestBench:
    def test_prints_profile(self, capsys):
        assert main(["bench", "30", "90", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "phase.packing.work" in out
        assert "value" in out


class TestResilience:
    def test_deadline_flag_prints_provenance(self, graph_file, capsys):
        g, path = graph_file
        assert main(["cut", path, "--deadline", "60", "--seed", "3"]) == 0
        out = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.strip().split("\n")
        )
        assert float(out["value"]) == pytest.approx(stoer_wagner(g).value)
        assert int(out["attempts"]) >= 1
        assert out["fallback"] == "none"
        assert out["verified"] == "1"

    def test_expired_deadline_falls_back_not_crashes(self, graph_file, capsys):
        _, path = graph_file
        assert main(["cut", path, "--deadline", "1e-9", "--seed", "3"]) == 0
        out = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.strip().split("\n")
        )
        assert out["fallback"] == "stoer_wagner"

    def test_max_attempts_flag(self, graph_file, capsys):
        g, path = graph_file
        assert main(["cut", path, "--max-attempts", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "attempts" in out


class TestErrorHandling:
    def test_repro_error_exits_2_with_one_line_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("0 1 nan\n1 2 1.0\n")
        code = main(["cut", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1  # one line, no traceback
        assert "error:" in err

    def test_missing_file_is_oserror_not_swallowed(self):
        # only library errors are converted; a bad path still raises
        with pytest.raises(OSError):
            main(["cut", "/no/such/file.el"])

    def test_invalid_epsilon_exits_2(self, graph_file, capsys):
        _, path = graph_file
        code = main(["cut", path, "--epsilon", "-1"])
        assert code == 2
        assert "InvalidParameterError" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_auto_format_detection(self, tmp_path):
        from repro.cli import _load

        g = random_connected_graph(8, 20, rng=3)
        p1 = tmp_path / "a.el"
        write_edgelist(g, p1)
        p2 = tmp_path / "a.dimacs"
        write_dimacs(g, p2)
        assert _load(str(p1), "auto").m == g.m
        assert _load(str(p2), "auto").m == g.m


class TestEngine:
    def test_matches_cut_value(self, graph_file, capsys):
        g, path = graph_file
        assert main(["engine", path, "--seed", "3"]) == 0
        out = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.strip().split("\n")
        )
        assert float(out["value"]) == pytest.approx(stoer_wagner(g).value)
        # the four stage builds plus the cold query's result memo lookup
        assert float(out["cache.misses"]) == 5.0
        assert float(out["engine.stage_runs"]) == 4.0

    def test_batch_reuses_preprocessing(self, graph_file, capsys):
        g, path = graph_file
        assert main(["engine", path, "--seed", "3", "--batch", "4"]) == 0
        out = dict(
            line.split(" ", 1) for line in capsys.readouterr().out.strip().split("\n")
        )
        assert out["batch.queries"] == "4"
        truth = stoer_wagner(g).value
        for v in out["batch.values"].split():
            assert float(v) == pytest.approx(truth)
        # four warm queries still ran only the four cold stage builds
        assert float(out["engine.stage_runs"]) == 4.0
        assert float(out["batch.extra_work"]) > 0
        # amortization: 4 warm queries cost less work than 4 cold runs
        assert float(out["batch.extra_work"]) < 4 * float(out["cold.work"])

    def test_trace_export(self, graph_file, tmp_path, capsys):
        _, path = graph_file
        trace = tmp_path / "engine_trace.json"
        assert main(["engine", path, "--trace", str(trace)]) == 0
        assert trace.exists()
        assert "trace.spans" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--queue-depth", "8", "--workers", "2",
             "--budget-class", "interactive", "--no-shutdown-op"]
        )
        assert args.port == 0
        assert args.queue_depth == 8
        assert args.workers == 2
        assert args.budget_class == "interactive"
        assert args.no_shutdown_op is True

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--snapshot-interval", "0"],
            ["--snapshot-retention", "0"],
            ["--port", "70000"],
        ],
        ids=["workers", "snapshot-interval", "snapshot-retention", "port"],
    )
    def test_serve_bad_setting_exits_2_with_one_line(self, flags, tmp_path):
        # refused before the daemon binds: exit 2, one `error:` line, no
        # traceback (a daemon that started would hit the timeout)
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state"), *flags],
            capture_output=True,
            env=env,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: InvalidParameterError:")

    def test_serve_busy_port_exits_2_with_one_line(self, capsys):
        # another listener holds the port: one `error:` line naming the
        # address and the OS reason, exit 2, no traceback
        import socket

        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: OSError: cannot listen on 127.0.0.1:{port}:")

    def test_serve_daemon_round_trip(self):
        # the real entry point: spawn `python -m repro serve`, parse the
        # printed ephemeral port, ping it, shut it down over the wire
        import os
        import re
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--queue-depth", "4"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on .+:(\d+)", line)
            assert match, f"no listening line: {line!r}"
            port = int(match.group(1))
            from repro.serve import ServiceClient

            with ServiceClient("127.0.0.1", port, timeout=30) as client:
                assert client.call({"op": "ping"})["pong"] is True
                resp = client.request({"op": "shutdown"})
                assert resp["type"] == "result" and resp["stopping"] is True
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_serve_sigint_closes_a_durable_daemon_cleanly(self, tmp_path):
        # Ctrl-C is the other way a foreground daemon ends: it must exit
        # 0 with a final snapshot written and nothing on stderr
        import os
        import re
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        state = tmp_path / "state"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--state-dir", str(state)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on .+:(\d+)", line)
            assert match, f"no listening line: {line!r}"
            from repro.serve import ServiceClient

            with ServiceClient("127.0.0.1", int(match.group(1)), timeout=30) as c:
                assert c.call({"op": "register_tenant", "tenant": "t"})["ok"]
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert err == ""
            assert list(state.glob("snapshot-*.bin"))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
