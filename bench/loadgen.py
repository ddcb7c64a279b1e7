"""The serve workloads: a daemon subprocess and a closed-loop load
generator with two client threads, one connection each.

Set-up is measured ``setups`` times per run, each on a fresh daemon:
spawn, ``listening on``, one tenant and four ``warm: true`` graph
registrations.  The last daemon then takes the load for the run's
seconds.  Latency is the round trip at the client socket, from the
first send to the final response, including any ``retry_after`` waits
the client absorbed.  Every answer is checked:

* ``serve-read`` — each ``min_cut`` and zero-delta ``update`` value
  equals the graph's Stoer–Wagner value;
* ``serve-write`` — the writer keeps a mirror of each graph it mutates,
  checks every acknowledged update against Stoer–Wagner on the mirror
  and requires ``verified: true``; after the run each reader result
  ``(graph, epoch, staleness, value)`` must match the writer's history.
"""

from __future__ import annotations

import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import BENCH, CACHE, child_env, now, peak_rss_mb, ROOT
import layers

TENANT = "bench"
#: attempts one request may spend on ``retry_after`` before it fails
MAX_RETRIES = 32


def to_wire(kwargs: Dict[str, object]) -> Dict[str, object]:
    """A ``random_delta`` batch as the JSON the ``update`` op takes."""
    out: Dict[str, object] = {}
    if "add_edges" in kwargs:
        out["add_edges"] = [[int(u), int(v), float(w)] for u, v, w in kwargs["add_edges"]]
    if "remove_edges" in kwargs:
        out["remove_edges"] = [int(i) for i in kwargs["remove_edges"]]
    if "reweight" in kwargs:
        out["reweight"] = {str(int(k)): float(v) for k, v in kwargs["reweight"].items()}
    return out


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, *, durable: bool, traced: bool, tag: str) -> None:
        self.state_dir = CACHE / f"state-{tag}" if durable else None
        self.spans = CACHE / f"spans-{tag}.json" if traced else None
        self.log = CACHE / f"daemon-{tag}.log"
        args = ["serve", "--port", "0"]
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            args += ["--state-dir", str(self.state_dir), "--fsync", "always"]
        if self.spans is not None:
            cmd = [sys.executable, str(BENCH / "daemon.py"), "--spans", str(self.spans), "--"]
        else:
            cmd = [sys.executable, "-m", "repro"]
        CACHE.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log, "w")
        self.proc = subprocess.Popen(
            cmd + args, cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._read_port(timeout=60.0)
        # drain anything else the daemon prints so it never blocks on a pipe
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def _read_port(self, timeout: float) -> int:
        deadline = now() + timeout
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
                if not line and self.proc.poll() is not None:
                    break
        self.stop()
        raise RuntimeError(f"daemon did not start: {self.log.read_text()[-2000:]}")

    def client(self):
        from repro.serve import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=60.0).connect()

    def stop(self) -> None:
        """``shutdown`` op, then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.request({"op": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def cleanup(self) -> None:
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
        self.log.unlink(missing_ok=True)
        if self.spans is not None:
            self.spans.unlink(missing_ok=True)


def register(daemon: Daemon, graphs: Dict[str, object], seed: int) -> None:
    with daemon.client() as c:
        c.call({"op": "register_tenant", "tenant": TENANT})
        for name, g in graphs.items():
            c.call({
                "op": "register_graph", "tenant": TENANT, "graph": name, "n": g.n,
                "edges": [[int(u), int(v), float(w)] for u, v, w in g.edges()],
                "seed": seed, "warm": True,
            })


@dataclass
class Tally:
    """What the client threads measured (each appends to its own lists;
    list.append is atomic under the interpreter lock)."""

    samples: Dict[str, List[float]] = field(default_factory=lambda: {"min_cut": [], "update": []})
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    last_end: float = 0.0
    reads: List[Tuple[str, int, int, float]] = field(default_factory=list)
    history: Dict[str, Dict[Tuple[int, int], float]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, message: str) -> None:
        with self.lock:
            self.failures.append(message)


def timed_call(client, request: dict, tally: Tally) -> Tuple[float, Optional[dict]]:
    """One request to completion; ``(ms, response)`` or ``(ms, None)``
    after recording why it failed."""
    from repro.serve.protocol import ProtocolError

    with tally.lock:
        tally.attempted += 1
    t0 = now()
    resp = None
    for _ in range(MAX_RETRIES):
        try:
            resp = client.request(dict(request))
        except (OSError, ProtocolError) as exc:
            client.close()
            tally.fail(f"{request['op']}: {type(exc).__name__}: {exc}")
            return 1000.0 * (now() - t0), None
        if resp.get("type") != "retry_after":
            break
        time.sleep(resp.get("retry_after_ms", 50) / 1000.0)
    t1 = now()
    with tally.lock:
        tally.last_end = max(tally.last_end, t1)
    if resp is None or resp.get("type") != "result":
        tally.fail(f"{request['op']} on {request.get('graph')}: {resp}")
        return 1000.0 * (t1 - t0), None
    return 1000.0 * (t1 - t0), resp


def read_client(daemon, names, reference, rng, end, tally):
    """Closed loop of ``min_cut`` and zero-delta ``update`` requests.
    With a ``reference`` (graphs that never change) each value is
    checked on arrival; without one, :func:`check_reads` checks them
    against the writer's history after the run."""
    with daemon.client() as client:
        while now() < end:
            g = names[int(rng.integers(len(names)))]
            # serve-write's reader (no reference) only reads
            op = "update" if reference is not None and rng.random() < 0.5 else "min_cut"
            req = {"op": op, "tenant": TENANT, "graph": g}
            if op == "update":
                req["reweight"] = {}
            ms, resp = timed_call(client, req, tally)
            if resp is None:
                continue
            if reference is not None and resp["value"] != reference[g]:
                tally.fail(f"{op} on {g}: value {resp['value']} != {reference[g]}")
                continue
            if reference is None:
                tally.reads.append((g, resp["epoch"], resp["staleness"], resp["value"]))
            tally.samples[op].append(ms)


def write_client(daemon, mirrors, rng, end, tally):
    """Closed loop of random mutation batches on ``mirrors``' graphs,
    each ack checked against Stoer–Wagner on the local mirror."""
    from repro.arena.solvers.stoer_wagner import stoer_wagner
    from repro.engine.deltas import as_delta, random_delta

    names = sorted(mirrors)
    with daemon.client() as client:
        while now() < end:
            g = names[int(rng.integers(len(names)))]
            kwargs: Dict[str, object] = {}
            while not kwargs:
                kwargs = random_delta(mirrors[g], rng)
            req = {"op": "update", "tenant": TENANT, "graph": g, **to_wire(kwargs)}
            ms, resp = timed_call(client, req, tally)
            if resp is None:
                continue
            mirrors[g] = as_delta(mirrors[g], **kwargs).apply(mirrors[g])
            exact = stoer_wagner(mirrors[g]).value
            if resp["value"] != exact:
                tally.fail(f"update on {g}: value {resp['value']} != mirror {exact}")
                continue
            if resp.get("verified") is not True and not resp.get("noop"):
                tally.fail(f"update on {g}: verified={resp.get('verified')}")
                continue
            tally.history[g][(resp["epoch"], resp["staleness"])] = resp["value"]
            tally.samples["update"].append(ms)


def check_reads(tally: Tally) -> None:
    """Every read must show a state the writer saw acknowledged."""
    for g, epoch, staleness, value in tally.reads:
        seen = tally.history[g].get((epoch, staleness))
        if seen != value:
            tally.fail(
                f"read of {g} at epoch {epoch} staleness {staleness}: "
                f"{value} but the writer's history has {seen}"
            )


def guarded(target, tally: Tally):
    """A client thread body whose unexpected exception counts as a failure."""

    def run(*args):
        try:
            target(*args, tally)
        except Exception as exc:  # noqa: BLE001 - reported, never lost
            tally.fail(f"{target.__name__} crashed: {type(exc).__name__}: {exc}")

    return run


def counters(daemon: Daemon) -> Dict[str, float]:
    with daemon.client() as c:
        snap = c.call({"op": "metrics"})["counters"]
    return {k: snap.get(k, 0.0) for k in layers.COUNTERS}


def run_serve(workload, inputs, *, seed: int, seconds: float, setups: int, trace: bool) -> dict:
    """One serve run; returns the raw measurements for the runner."""
    from repro.graphs import io as graph_io

    recorder = layers.Recorder().install(layers.IO_TARGETS) if trace else None
    graphs = {name: graph_io.read_graph_binary(inputs.path(name)) for name in inputs.names}
    write = workload.name == "serve-write"
    setup_s = []
    for k in range(setups):
        t0 = now()
        daemon = Daemon(durable=write, traced=trace, tag=f"{workload.name}-{seed}-{k}")
        try:
            register(daemon, graphs, seed)
        except BaseException:
            daemon.stop()
            daemon.cleanup()
            raise
        setup_s.append(now() - t0)
        if k < setups - 1:
            daemon.stop()
            daemon.cleanup()

    tally = Tally()
    tally.history = {g: {(0, 0): inputs.reference[g]} for g in inputs.names}
    try:
        before = counters(daemon)
        start = now()
        end = start + seconds
        if write:
            mirrors = {g: graphs[g] for g in inputs.names[:2]}
            threads = [
                threading.Thread(target=guarded(write_client, tally), args=(
                    daemon, mirrors, np.random.default_rng([seed, 0]), end)),
                threading.Thread(target=guarded(read_client, tally), args=(
                    daemon, inputs.names, None, np.random.default_rng([seed, 1]), end)),
            ]
        else:
            threads = [
                threading.Thread(target=guarded(read_client, tally), args=(
                    daemon, inputs.names, inputs.reference, np.random.default_rng([seed, t]), end))
                for t in range(2)
            ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = counters(daemon)
        rss = peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    if write:
        check_reads(tally)
    out = {
        "setup_s": setup_s,
        "samples": tally.samples,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "throughput_rps": sum(map(len, tally.samples.values())) / (tally.last_end - start),
        "rss_mb": rss,
        "window": [start, end],
    }
    if trace:
        recorder.restore()
        spans, waits = layers.load_dump(str(daemon.spans))
        tot = layers.layer_totals(spans, (start, tally.last_end))
        out["layers"] = layers.merge(tot, layers.layer_totals(recorder.spans, (start, end)))
        out["counters"] = {k: after[k] - before[k] for k in layers.COUNTERS}
        out["queue_waits"] = waits
    daemon.cleanup()
    return out
