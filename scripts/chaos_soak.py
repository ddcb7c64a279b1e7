#!/usr/bin/env python
"""Randomized-fault chaos soak for the resilient min-cut driver.

Every trial builds a random connected graph, arms a randomized fault
plan (0-3 faults drawn from every site a driver run polls, including
dropped trees, budget blowouts, checkpoint corruption, and mid-run
kills), picks an executor backend, and runs ``resilient_minimum_cut``
under a wall-clock cap.  The soak asserts the robustness invariant of
``docs/robustness.md``:

    every run ends in a **verified, exact** cut or a **typed**
    ``ReproError`` — never a silent wrong answer and never a hang.

Concretely, a trial passes when either

* the driver returns: the result must carry ``verification.ok`` and its
  value must equal the independent Stoer–Wagner recomputation exactly
  (catching any hypothetical verifier blind spot), or
* a typed :class:`repro.errors.ReproError` escapes (e.g. a
  ``SimulatedCrash`` from an injected kill, or a ``CheckpointError``
  from injected corruption) — for kills, the trial then **resumes** from
  the checkpoint (restoring the fault plan) and requires the resumed
  result to be bit-identical to the same trial run uninterrupted;

and fails when a non-``ReproError`` exception escapes, the value is
wrong, or the trial exceeds the wall-clock cap (hang detection — hangs
are tallied separately and force a non-zero exit on their own).

``--service`` soaks the cut-serving daemon instead: every trial starts
a real :class:`~repro.serve.ThreadedTCPServer` with a randomized fault
plan over the four ``serve.*`` sites (``accept_drop``,
``queue_stall``, ``handler_crash``, ``slow_client``) armed inside the
service, then hammers it with concurrent clients mixing warm queries,
zero-delta requeries, batches, deliberately-tight deadlines, unknown
tenants/graphs, and malformed frames.  The gate is the overload
contract of ``docs/service.md``: **every accepted request receives
exactly one well-formed typed response** — a dropped connection before
any frame is read is acceptable (nothing was accepted), a socket
timeout is a hang, an ill-formed or missing response is a failure, and
any ``min_cut`` *result* must equal the graph's independently-computed
exact value.

``--crash-recovery`` soaks the daemon's durable state
(``docs/robustness.md``): trials alternate between (a) a real
``python -m repro serve --state-dir`` subprocess that is SIGKILLed at a
randomized point mid-update-stream and restarted on the same directory,
and (b) an in-process daemon with one armed ``wal.torn_write`` /
``wal.corrupt_record`` / ``snapshot.partial`` fault whose directory is
then recovered cold.  Both kinds round-robin the fsync policies.  The
gate is the ack-durability contract: the recovered engine must be
**bit-identical** (epoch, staleness, chained fingerprint, and exact cut
value) to a never-crashed twin that replayed exactly the acknowledged
updates — the one request in flight *during* the kill may land on
either side, and an injected mid-log corruption may instead surface as
a typed ``WalCorruptionError`` (loud detection, never silent skip).  A
trial also fails if the state directory leaks ``*.tmp`` files across
the crash.

Usage::

    python scripts/chaos_soak.py --runs 200 --seed 0            # all backends
    python scripts/chaos_soak.py --runs 20 --seed 0 --backend process
    python scripts/chaos_soak.py --service --trials 10 --seed 0 # daemon soak
    python scripts/chaos_soak.py --crash-recovery --trials 50 --seed 0

Exit status 0 iff every trial passed and no trial hung.
"""

from __future__ import annotations

import argparse
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.arena.solvers.stoer_wagner import stoer_wagner  # noqa: E402
from repro.durability import DurableState  # noqa: E402
from repro.engine import CutEngine  # noqa: E402
from repro.engine.deltas import as_delta, random_delta  # noqa: E402
from repro.errors import (  # noqa: E402
    RecoveryError,
    ReproError,
    SimulatedCrash,
)
from repro.graphs.generators import random_connected_graph  # noqa: E402
from repro.pram.executor import force_executor, shutdown_shared_pools  # noqa: E402
from repro.resilience.driver import resilient_minimum_cut  # noqa: E402
from repro.resilience.faults import (  # noqa: E402
    ALL_SITES,
    DURABILITY_SITES,
    SERVICE_SITES,
    SITE_DELTA_FORCE_REBASE,
    SITE_WAL_CORRUPT_RECORD,
    Fault,
    FaultPlan,
    inject,
)
from repro.serve import (  # noqa: E402
    ProtocolError,
    ServerConfig,
    ServiceClient,
    TenantRegistry,
    ThreadedTCPServer,
    well_formed,
)

BACKENDS = ("process", "sync")

#: fault sites for driver-mode plans: the ``serve.*`` and
#: ``wal.*``/``snapshot.*`` sites are only polled inside the daemon's
#: service/durability layers, ``executor.*`` sites only by
#: ``parallel_map``, which a driver run never calls (its one library
#: caller is ``CutEngine.min_cut_batch``), and ``delta.force_rebase``
#: only by ``CutEngine.update``, so drawing them here would dilute the
#: driver soak's fault density with guaranteed no-ops
#: (``tests/test_chaos_soak.py`` checks that each site left fires)
DRIVER_SITES = tuple(
    s for s in ALL_SITES
    if s not in SERVICE_SITES
    and s not in DURABILITY_SITES
    and not s.startswith("executor.")
    and s != SITE_DELTA_FORCE_REBASE
)

#: resumes allowed per trial before declaring it stuck (each injected
#: kill costs one resume; plans carry at most 3 faults)
MAX_RESUMES = 8


@dataclass
class SoakStats:
    trials: int = 0
    verified: int = 0
    typed_errors: int = 0
    resumed: int = 0
    fallbacks: int = 0
    #: service mode: total serve.* faults the daemon reported injecting
    faults_injected: int = 0
    #: trials that exceeded the wall-clock cap or timed out a response —
    #: tallied apart from failures so a hang can never hide in the noise
    hangs: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def _random_plan(rng: np.random.Generator) -> FaultPlan:
    """0-3 faults over every driver-side site, deterministically drawn."""
    n_faults = int(rng.integers(0, 4))
    faults = tuple(
        Fault(
            site=str(rng.choice(DRIVER_SITES)),
            at=int(rng.integers(0, 6)),
            index=int(rng.integers(0, 4)),
            seed=int(rng.integers(0, 2**31)),
            scale=float(rng.choice((0.25, 0.5, 2.0, 4.0))),
        )
        for _ in range(n_faults)
    )
    return FaultPlan(faults=faults, name=f"soak[{n_faults}]")


def _fresh(plan: FaultPlan) -> FaultPlan:
    """A structurally-identical plan with a clean firing record (a resume
    simulates a new process: same armed faults, state restored from the
    checkpoint, not from this in-process object)."""
    return FaultPlan(faults=tuple(plan.faults), name=plan.name)


def _run_to_completion(
    graph, seed: int, plan: FaultPlan, ckpt: Optional[str]
):
    """One driver invocation, resuming after injected kills (each resume
    re-arms a fresh copy of the plan, as a restarted process would).
    Returns (result, resumes_used)."""
    resumes = 0
    while True:
        try:
            with inject(_fresh(plan) if resumes else plan):
                return (
                    resilient_minimum_cut(graph, seed=seed, checkpoint=ckpt),
                    resumes,
                )
        except SimulatedCrash:
            if ckpt is None or resumes >= MAX_RESUMES:
                raise
            resumes += 1


def run_trial(
    trial_seed: int, backend: str, stats: SoakStats, time_cap: float
) -> None:
    rng = np.random.default_rng(trial_seed)
    n = int(rng.integers(16, 49))
    m = int(rng.integers(int(2.5 * n), 5 * n))
    graph = random_connected_graph(n, m, rng=int(rng.integers(2**31)), max_weight=8)
    exact = stoer_wagner(graph).value
    plan = _random_plan(rng)
    driver_seed = int(rng.integers(2**31))
    use_ckpt = any(f.site.startswith("checkpoint.") for f in plan.faults)

    stats.trials += 1
    t0 = time.monotonic()
    label = f"trial={trial_seed} backend={backend} plan={plan.name}"
    try:
        with force_executor(backend):
            if use_ckpt:
                with tempfile.TemporaryDirectory() as d:
                    ckpt = os.path.join(d, "soak.ckpt")
                    res, resumes = _run_to_completion(graph, driver_seed, plan, ckpt)
                    stats.resumed += 1 if resumes else 0
            else:
                res, _ = _run_to_completion(graph, driver_seed, plan, None)
    except ReproError:
        # a typed, documented failure is an acceptable outcome — the
        # invariant forbids *silent* wrong answers, not loud errors
        stats.typed_errors += 1
        if time.monotonic() - t0 > time_cap:
            stats.hangs.append(f"{label}: exceeded {time_cap:g}s cap (typed)")
        return
    except BaseException as exc:  # noqa: BLE001 - anything else is a soak failure
        stats.failures.append(f"{label}: untyped {type(exc).__name__}: {exc}")
        return

    elapsed = time.monotonic() - t0
    if elapsed > time_cap:
        stats.hangs.append(f"{label}: exceeded {time_cap:g}s cap")
        return
    if res.verification is None or not res.verification.ok:
        stats.failures.append(f"{label}: returned unverified result")
        return
    if res.value != exact:
        stats.failures.append(
            f"{label}: WRONG ANSWER {res.value} != {exact} "
            f"(fallback={res.fallback_used}, fired={plan.fired})"
        )
        return
    stats.verified += 1
    stats.fallbacks += 1 if res.fallback_used else 0


# ---------------------------------------------------------------------------
# service mode: soak the daemon under injected serve.* faults
# ---------------------------------------------------------------------------

#: per-response client timeout in service mode; firing means the daemon
#: broke its never-hang contract for an accepted request
SERVICE_RESPONSE_TIMEOUT = 30.0

#: reconnect attempts per logical request (``serve.accept_drop`` kills a
#: connection before any frame is read — nothing was accepted, so the
#: client simply dials again; each armed fault fires at most once)
MAX_RECONNECTS = 8


def _random_service_plan(rng: np.random.Generator) -> FaultPlan:
    """1-4 faults over the ``serve.*`` sites, deterministically drawn."""
    n_faults = int(rng.integers(1, 5))
    faults = tuple(
        Fault(
            site=str(rng.choice(SERVICE_SITES)),
            at=int(rng.integers(0, 4)),
            index=int(rng.integers(0, 4)),
            seed=int(rng.integers(0, 2**31)),
            scale=float(rng.choice((0.5, 1.0, 2.0, 4.0))),
        )
        for _ in range(n_faults)
    )
    return FaultPlan(faults=faults, name=f"serve-soak[{n_faults}]")


def _service_request(port: int, request: dict, outcomes: List[str]) -> Optional[dict]:
    """Issue one request, reconnecting through injected connection drops.

    Returns the response, or ``None`` after recording a ``hang:`` /
    ``fail:`` line in ``outcomes``.  A connection refused/reset *before
    a response* is not a contract violation (``serve.accept_drop``
    closes pre-read; nothing was accepted) — but running out of
    reconnects is reported as a failure so a wedged daemon can't pass by
    dropping everyone forever.
    """
    request = dict(request)
    request.setdefault("id", 1)  # pin so the echo check below is exact
    for _ in range(MAX_RECONNECTS):
        client = ServiceClient(
            "127.0.0.1", port, timeout=SERVICE_RESPONSE_TIMEOUT
        )
        try:
            resp = client.request(dict(request))
        except socket.timeout:
            outcomes.append(f"hang: no response to {request.get('op')}")
            return None
        except (ProtocolError, ConnectionError, OSError):
            continue  # dropped pre-response; dial again
        finally:
            client.close()
        problem = well_formed(resp, request.get("id"), check_id=True)
        if problem is not True:
            outcomes.append(f"fail: ill-formed response {resp!r}: {problem}")
            return None
        return resp
    outcomes.append(f"fail: {MAX_RECONNECTS} consecutive connection drops")
    return None


def _service_client_script(
    wid: int,
    port: int,
    exact: float,
    requests: int,
    rng_seed: int,
    outcomes: List[str],
) -> None:
    """One concurrent client's request mix; appends outcome lines."""
    rng = np.random.default_rng(rng_seed)
    for qi in range(requests):
        roll = rng.random()
        rid = wid * 1000 + qi
        if roll < 0.45:
            req = {"op": "min_cut", "tenant": "soak", "graph": "g", "id": rid}
        elif roll < 0.60:
            req = {"op": "graph_info", "tenant": "soak", "graph": "g", "id": rid}
        elif roll < 0.70:
            req = {
                "op": "min_cut_batch", "tenant": "soak", "graph": "g",
                "seeds": [int(s) for s in rng.integers(0, 2**20, size=2)],
                "id": rid,
            }
        elif roll < 0.80:
            req = {
                "op": "min_cut", "tenant": "soak", "graph": "g",
                "deadline_ms": 1, "id": rid,
            }
        elif roll < 0.90:
            req = {"op": "min_cut", "tenant": "soak", "graph": "missing", "id": rid}
        else:
            req = {"op": "metrics", "id": rid}
        resp = _service_request(port, req, outcomes)
        if resp is None:
            continue
        if (
            resp["type"] == "result"
            and req["op"] == "min_cut"
            and req.get("graph") == "g"
            and resp.get("value") != exact
        ):
            outcomes.append(
                f"fail: WRONG ANSWER {resp.get('value')} != {exact}"
            )


def _malformed_probe(port: int, outcomes: List[str]) -> None:
    """A garbage frame must earn one ``bad_request`` response, not a hang."""
    try:
        with socket.create_connection(
            ("127.0.0.1", port), timeout=SERVICE_RESPONSE_TIMEOUT
        ) as s:
            s.sendall(struct.pack(">I", 9) + b"not json!")
            header = b""
            while len(header) < 4:
                chunk = s.recv(4 - len(header))
                if not chunk:
                    return  # dropped pre-read (accept_drop): nothing owed
                header += chunk
            (length,) = struct.unpack(">I", header)
            body = b""
            while len(body) < length:
                chunk = s.recv(length - len(body))
                if not chunk:
                    outcomes.append("fail: connection died mid bad_request reply")
                    return
                body += chunk
            import json as _json

            resp = _json.loads(body)
            if resp.get("type") != "error" or resp.get("error") != "bad_request":
                outcomes.append(f"fail: malformed frame answered with {resp!r}")
    except socket.timeout:
        outcomes.append("hang: no response to malformed frame")
    except (ConnectionError, OSError):
        pass  # dropped pre-response: acceptable


def run_service_trial(
    trial_seed: int, stats: SoakStats, *, clients: int = 4, requests: int = 8
) -> None:
    """One daemon lifetime under one randomized serve-fault plan."""
    rng = np.random.default_rng(trial_seed)
    n = int(rng.integers(16, 33))
    m = int(rng.integers(int(2.5 * n), 4 * n))
    graph = random_connected_graph(n, m, rng=int(rng.integers(2**31)), max_weight=8)
    exact = stoer_wagner(graph).value
    plan = _random_service_plan(rng)
    edges = [[int(u), int(v), float(w)] for u, v, w in graph.edges()]

    stats.trials += 1
    label = f"trial={trial_seed} plan={plan.name}"
    outcomes: List[str] = []
    config = ServerConfig(port=0, queue_depth=8, workers=2, debug_ops=True)
    try:
        with ThreadedTCPServer(config, faults=plan) as server:
            for req in (
                {"op": "register_tenant", "tenant": "soak",
                 "budget_class": "interactive"},
                {"op": "register_graph", "tenant": "soak", "graph": "g",
                 "n": graph.n, "edges": edges, "seed": 11, "warm": True},
            ):
                if _service_request(server.port, req, outcomes) is None:
                    break
            else:
                threads = [
                    threading.Thread(
                        target=_service_client_script,
                        args=(wid, server.port, exact, requests,
                              trial_seed * 131 + wid, outcomes),
                        name=f"soak-client-{wid}",
                    )
                    for wid in range(clients)
                ]
                for t in threads:
                    t.start()
                _malformed_probe(server.port, outcomes)
                for t in threads:
                    t.join(timeout=120)
                    if t.is_alive():
                        outcomes.append(f"hang: client thread {t.name} wedged")
            counters = server.service._metrics(None)["counters"]
            fired = int(counters.get("serve.faults_injected", 0))
            # client faults (the ``missing`` graph, the garbage frame)
            # count in serve.bad_requests: every server-side error must
            # be an injected crash
            errors = counters.get("serve.errors", 0.0)
            crashes = counters.get("serve.fault.handler_crash", 0.0)
            if errors != crashes:
                outcomes.append(
                    f"fail: serve.errors {errors:g} != injected handler "
                    f"crashes {crashes:g}"
                )
    except BaseException as exc:  # noqa: BLE001 - any escape is a soak failure
        stats.failures.append(f"{label}: untyped {type(exc).__name__}: {exc}")
        return

    ok = True
    for line in outcomes:
        if line.startswith("hang:"):
            stats.hangs.append(f"{label}: {line}")
            ok = False
        else:
            stats.failures.append(f"{label}: {line}")
            ok = False
    stats.faults_injected += fired
    if ok:
        stats.verified += 1


def run_service_soak(trials: int, seed: int) -> SoakStats:
    stats = SoakStats()
    for i in range(trials):
        run_service_trial(seed * 1_000_003 + i, stats)
    return stats


# ---------------------------------------------------------------------------
# crash-recovery mode: SIGKILL + durability faults against --state-dir
# ---------------------------------------------------------------------------

#: engine seed shared by the daemon registration and the parity twin
DURABLE_SEED = 11

#: every trial index maps onto one policy, so any soak of >= 3 trials
#: exercises the whole fsync matrix
FSYNC_CYCLE = ("always", "batch", "never")

_SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)


def _wire_update(kwargs: Dict[str, object]) -> Dict[str, object]:
    """``CutEngine.update`` keywords as JSON-safe wire fields."""
    out: Dict[str, object] = {}
    if "add_edges" in kwargs:
        out["add_edges"] = [
            [int(u), int(v), float(w)] for (u, v, w) in kwargs["add_edges"]
        ]
    if "remove_edges" in kwargs:
        out["remove_edges"] = [int(i) for i in kwargs["remove_edges"]]
    if "reweight" in kwargs:
        out["reweight"] = {
            str(int(k)): float(v) for k, v in kwargs["reweight"].items()
        }
    return out


def _next_delta(shadow, rng) -> Optional[Dict[str, object]]:
    """A non-empty random mutation batch against ``shadow`` (or None if
    the draw keeps coming up empty — vanishingly rare)."""
    for _ in range(16):
        kw = random_delta(shadow, rng)
        if kw:
            return kw
    return None


def _twin_parity(graph, ops: List[Dict[str, object]]) -> Dict[str, object]:
    """The durable ledger a never-crashed twin reaches after ``ops``:
    epoch, staleness, chained fingerprint, and the exact cut value."""
    eng = CutEngine(graph, seed=DURABLE_SEED)
    for kw in ops:
        eng.update(**kw)
    fp = eng.fingerprint_chain()["current"]["fingerprint"]
    return {
        "epoch": int(eng.epoch),
        "staleness": int(eng.staleness),
        "fingerprint": fp,
        "value": float(eng.min_cut().value),
    }


def _parity_mismatch(
    recovered: Dict[str, object], graph, candidates: List[List[Dict[str, object]]]
) -> Optional[str]:
    """None if ``recovered`` bit-matches the twin of *some* acceptable
    op ledger, else a description of the nearest miss."""
    twins = [_twin_parity(graph, ops) for ops in candidates]
    for twin in twins:
        if twin == recovered:
            return None
    return f"recovered {recovered!r} matches none of {twins!r}"


def _spawn_daemon(state_dir: str, fsync: str, snapshot_interval: int):
    """Start ``python -m repro serve --state-dir`` on a free port.
    Returns ``(proc, port)``; raises if the daemon dies before
    announcing its port (e.g. recovery refused to boot)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--workers", "2",
            "--state-dir", state_dir, "--fsync", fsync,
            "--snapshot-interval", str(snapshot_interval),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = []
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait(timeout=30)
            raise RuntimeError(
                f"daemon exited rc={proc.returncode} before listening: "
                + " | ".join(x.strip() for x in banner[-5:])
            )
        banner.append(line)
        if "listening on" in line:
            return proc, int(line.rsplit(":", 1)[1])


def _durable_request(port: int, request: Dict[str, object]) -> Dict[str, object]:
    client = ServiceClient("127.0.0.1", port, timeout=SERVICE_RESPONSE_TIMEOUT)
    try:
        return client.request(dict(request))
    finally:
        client.close()


def _register_durable(port: int, graph) -> Optional[str]:
    """Register the soak tenant + graph; returns an error string or None."""
    edges = [[int(u), int(v), float(w)] for u, v, w in graph.edges()]
    for req in (
        {"op": "register_tenant", "tenant": "soak", "budget_class": "standard"},
        {"op": "register_graph", "tenant": "soak", "graph": "g",
         "n": graph.n, "edges": edges, "seed": DURABLE_SEED, "warm": False},
    ):
        resp = _durable_request(port, req)
        if resp.get("type") != "result":
            return f"registration {req['op']} answered {resp!r}"
    return None


def _tmp_leaks(state_dir: str) -> List[str]:
    return sorted(n for n in os.listdir(state_dir) if n.endswith(".tmp"))


def run_kill_trial(trial_seed: int, fsync: str, stats: SoakStats) -> None:
    """One SIGKILL round trip: daemon subprocess, acked update stream,
    kill racing an in-flight update, restart on the same directory,
    bit-parity of the recovered engine against the acked ledger."""
    rng = np.random.default_rng(trial_seed)
    n = int(rng.integers(12, 25))
    m = int(rng.integers(2 * n, 3 * n))
    graph = random_connected_graph(n, m, rng=int(rng.integers(2**31)), max_weight=8)
    snapshot_interval = int(rng.choice((2, 4, 64)))
    total = int(rng.integers(2, 8))

    stats.trials += 1
    label = (
        f"trial={trial_seed} mode=kill fsync={fsync} "
        f"snap={snapshot_interval} updates={total}"
    )
    procs = []
    try:
        with tempfile.TemporaryDirectory() as sdir:
            proc, port = _spawn_daemon(sdir, fsync, snapshot_interval)
            procs.append(proc)
            err = _register_durable(port, graph)
            if err is not None:
                stats.failures.append(f"{label}: {err}")
                return

            shadow = graph
            logged: List[Dict[str, object]] = []
            for _ in range(total):
                kw = _next_delta(shadow, rng)
                if kw is None:
                    break
                resp = _durable_request(
                    port,
                    {"op": "update", "tenant": "soak", "graph": "g",
                     **_wire_update(kw)},
                )
                if resp.get("type") != "result":
                    stats.failures.append(f"{label}: update answered {resp!r}")
                    return
                if not resp.get("noop"):
                    logged.append(kw)
                    shadow = as_delta(shadow, **kw).apply(shadow)

            # the randomized kill point: SIGKILL races one more update —
            # its ack decides which side of the crash the op landed on
            inflight = _next_delta(shadow, rng)
            mid_kill = False
            killer = threading.Timer(float(rng.random()) * 0.05, proc.kill)
            killer.start()
            if inflight is not None:
                mid_kill = True
                try:
                    resp = _durable_request(
                        port,
                        {"op": "update", "tenant": "soak", "graph": "g",
                         **_wire_update(inflight)},
                    )
                    if resp.get("type") == "result":
                        # acked before the kill: durable, full stop
                        if not resp.get("noop"):
                            logged.append(inflight)
                        mid_kill = False
                except (ProtocolError, ConnectionError, OSError, socket.timeout):
                    pass  # killed mid-request: outcome legitimately unknown
            killer.cancel()
            proc.kill()
            proc.wait(timeout=30)

            candidates = [list(logged)]
            if mid_kill:
                candidates.append(list(logged) + [inflight])

            proc2, port2 = _spawn_daemon(sdir, fsync, snapshot_interval)
            procs.append(proc2)
            info = _durable_request(
                port2, {"op": "graph_info", "tenant": "soak", "graph": "g"}
            )
            cut = _durable_request(
                port2, {"op": "min_cut", "tenant": "soak", "graph": "g"}
            )
            if info.get("type") != "result" or cut.get("type") != "result":
                stats.failures.append(
                    f"{label}: recovered daemon answered {info!r} / {cut!r}"
                )
                return
            recovered = {
                "epoch": int(info["epoch"]),
                "staleness": int(info["staleness"]),
                "fingerprint": info["fingerprint"],
                "value": float(cut["value"]),
            }
            miss = _parity_mismatch(recovered, graph, candidates)
            if miss is not None:
                stats.failures.append(f"{label}: PARITY {miss}")
                return
            leaks = _tmp_leaks(sdir)
            if leaks:
                stats.failures.append(f"{label}: leaked temp files {leaks}")
                return
            proc2.terminate()
            proc2.wait(timeout=30)
            stats.resumed += 1 if mid_kill else 0
            stats.verified += 1
    except subprocess.TimeoutExpired:
        stats.hangs.append(f"{label}: daemon ignored its kill")
    except socket.timeout:
        stats.hangs.append(f"{label}: response timeout")
    except BaseException as exc:  # noqa: BLE001 - any escape is a soak failure
        stats.failures.append(f"{label}: untyped {type(exc).__name__}: {exc}")
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait(timeout=30)


def run_durability_fault_trial(
    trial_seed: int, fsync: str, stats: SoakStats
) -> None:
    """One in-process daemon lifetime with a single armed ``wal.*`` /
    ``snapshot.*`` fault, abandoned (simulated crash) and recovered cold.

    Acceptable outcomes per the durability contract:

    * ``wal.torn_write`` — the torn append crashes its request (typed);
      recovery truncates the torn tail and must bit-match the acked
      ledger (the crashed op was never acked);
    * ``wal.corrupt_record`` — recovery either refuses loudly with
      :class:`WalCorruptionError` (corruption mid-log) or, when the
      corrupted record sits at the tail (or was pruned by rotation),
      recovers to the acked ledger minus at most that one record;
    * ``snapshot.partial`` — the bad snapshot must be quarantined by
      verify-back or fallback; recovery must bit-match the full acked
      ledger.
    """
    rng = np.random.default_rng(trial_seed)
    n = int(rng.integers(12, 25))
    m = int(rng.integers(2 * n, 3 * n))
    graph = random_connected_graph(n, m, rng=int(rng.integers(2**31)), max_weight=8)
    edges = [[int(u), int(v), float(w)] for u, v, w in graph.edges()]
    total = int(rng.integers(3, 9))
    site = str(rng.choice(DURABILITY_SITES))
    # WAL appends 0 and 1 are the tenant/graph registrations; aim write
    # faults at the update records (snapshot faults count snapshots)
    at = (
        int(rng.integers(2, 2 + total))
        if site.startswith("wal.")
        else int(rng.integers(0, 3))
    )
    plan = FaultPlan(
        faults=(Fault(site=site, at=at, index=0,
                      seed=int(rng.integers(0, 2**31)), scale=1.0),),
        name=f"durability[{site}@{at}]",
    )
    snapshot_interval = int(rng.choice((2, 3, 64)))

    stats.trials += 1
    label = (
        f"trial={trial_seed} mode=fault plan={plan.name} fsync={fsync} "
        f"snap={snapshot_interval} updates={total}"
    )
    try:
        with tempfile.TemporaryDirectory() as sdir:
            config = ServerConfig(
                port=0, workers=2, state_dir=sdir, fsync=fsync,
                snapshot_interval=snapshot_interval,
            )
            logged: List[Dict[str, object]] = []
            crashed = False
            with ThreadedTCPServer(config, faults=plan) as srv:
                for req in (
                    {"op": "register_tenant", "tenant": "soak",
                     "budget_class": "standard"},
                    {"op": "register_graph", "tenant": "soak", "graph": "g",
                     "n": graph.n, "edges": edges, "seed": DURABLE_SEED,
                     "warm": False},
                ):
                    if srv.request(req).get("type") != "result":
                        stats.failures.append(f"{label}: registration failed")
                        return
                shadow = graph
                for _ in range(total):
                    kw = _next_delta(shadow, rng)
                    if kw is None:
                        break
                    resp = srv.request(
                        {"op": "update", "tenant": "soak", "graph": "g", **kw}
                    )
                    if resp.get("type") != "result":
                        # the armed fault fired (e.g. a SimulatedCrash
                        # out of a torn append) — typed, and the stream
                        # stops here exactly as a crashing daemon would
                        crashed = True
                        break
                    if not resp.get("noop"):
                        logged.append(kw)
                        shadow = as_delta(shadow, **kw).apply(shadow)
                # simulated crash: drop the WAL on the floor — close()
                # would flush a clean final snapshot and hide the fault
                if srv.service.durable is not None:
                    srv.service.durable.abandon()

            registry = TenantRegistry()
            durable = DurableState(sdir, fsync=fsync)
            try:
                durable.recover(registry)
            except RecoveryError as exc:
                durable.abandon()
                # injected bit rot may refuse loudly: WalCorruptionError
                # mid-log, or a chain discontinuity when the corrupted
                # record was the last of a rotated-away generation.
                # For every *other* site a refusal to boot is a failure.
                if site == SITE_WAL_CORRUPT_RECORD:
                    stats.typed_errors += 1  # loud detection: documented
                    return
                stats.failures.append(
                    f"{label}: recovery refused: "
                    f"{type(exc).__name__}: {exc}"
                )
                return

            engine, _ = registry.get("soak").engine("g")
            fp = engine.fingerprint_chain()["current"]["fingerprint"]
            recovered = {
                "epoch": int(engine.epoch),
                "staleness": int(engine.staleness),
                "fingerprint": fp,
                "value": float(engine.min_cut().value),
            }
            durable.abandon()
            candidates = [list(logged)]
            if site == SITE_WAL_CORRUPT_RECORD and logged:
                candidates.append(list(logged[:-1]))
            miss = _parity_mismatch(recovered, graph, candidates)
            if miss is not None:
                stats.failures.append(f"{label}: PARITY {miss}")
                return
            leaks = _tmp_leaks(sdir)
            if leaks:
                stats.failures.append(f"{label}: leaked temp files {leaks}")
                return
            stats.resumed += 1 if crashed else 0
            stats.verified += 1
    except BaseException as exc:  # noqa: BLE001 - any escape is a soak failure
        stats.failures.append(f"{label}: untyped {type(exc).__name__}: {exc}")


def run_crash_recovery_soak(trials: int, seed: int) -> SoakStats:
    """Alternate SIGKILL-subprocess and injected-fault trials, cycling
    the fsync policy so every (kind, policy) cell gets coverage."""
    stats = SoakStats()
    for i in range(trials):
        trial_seed = seed * 1_000_003 + i
        fsync = FSYNC_CYCLE[i % len(FSYNC_CYCLE)]
        if i % 2 == 0:
            run_kill_trial(trial_seed, fsync, stats)
        else:
            run_durability_fault_trial(trial_seed, fsync, stats)
    return stats


def run_soak(
    runs: int, seed: int, backends=BACKENDS, time_cap: float = 60.0
) -> SoakStats:
    stats = SoakStats()
    for i in range(runs):
        backend = backends[i % len(backends)]
        run_trial(seed * 1_000_003 + i, backend, stats, time_cap)
    shutdown_shared_pools()
    return stats


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--backend", choices=("auto",) + BACKENDS, default="auto",
                    help="'auto' round-robins process/sync")
    ap.add_argument("--time-cap", type=float, default=60.0, metavar="SECONDS",
                    help="per-trial wall-clock cap; exceeding it is a hang")
    ap.add_argument("--service", action="store_true",
                    help="soak the serving daemon under serve.* faults "
                         "instead of the driver")
    ap.add_argument("--crash-recovery", action="store_true",
                    help="soak --state-dir durability: SIGKILL round "
                         "trips and wal.*/snapshot.* faults, gated on "
                         "bit-parity with a never-crashed twin")
    ap.add_argument("--trials", type=int, default=None,
                    help="service/crash-recovery trial count "
                         "(defaults to --runs)")
    args = ap.parse_args(argv)

    trials = args.trials if args.trials is not None else args.runs
    t0 = time.monotonic()
    if args.crash_recovery:
        stats = run_crash_recovery_soak(trials, args.seed)
    elif args.service:
        stats = run_service_soak(trials, args.seed)
    else:
        backends = BACKENDS if args.backend == "auto" else (args.backend,)
        stats = run_soak(args.runs, args.seed, backends, args.time_cap)
    wall = time.monotonic() - t0

    print(f"trials {stats.trials}")
    if args.crash_recovery:
        print(f"parity_clean {stats.verified}")
        print(f"typed_detections {stats.typed_errors}")
        print(f"mid_crash_trials {stats.resumed}")
    elif args.service:
        print(f"clean_trials {stats.verified}")
        print(f"serve_faults_injected {stats.faults_injected}")
    else:
        print(f"verified_exact {stats.verified}")
        print(f"typed_errors {stats.typed_errors}")
        print(f"resumed_runs {stats.resumed}")
        print(f"fallbacks {stats.fallbacks}")
    print(f"hangs {len(stats.hangs)}")
    print(f"failures {len(stats.failures)}")
    print(f"wall_s {wall:.1f}")
    for line in stats.hangs:
        print(f"HANG {line}", file=sys.stderr)
    for line in stats.failures:
        print(f"FAIL {line}", file=sys.stderr)
    # hangs force a non-zero exit in their own right: a daemon (or
    # driver) that stops answering must never look green
    return 1 if (stats.failures or stats.hangs) else 0


if __name__ == "__main__":
    sys.exit(main())
