"""Phase-level checkpoint/resume: file format guarantees, kill/resume
bit-identity, fault-exact resume, cross-backend determinism, and the CLI
``--checkpoint``/``--no-resume`` flags (repro.resilience.checkpointing)."""

import os
import pickle

import numpy as np
import pytest

from repro.engine import ApproxArtifact
from repro.durability.snapshot import write_snapshot
from repro.errors import CheckpointError, RecoveryError, SimulatedCrash
from repro.graphs.io import write_edgelist
from repro.obs import CounterRegistry, counting_scope
from repro.pram.executor import force_executor, shutdown_shared_pools
from repro.pram.ledger import Ledger
from repro.resilience import (
    Fault,
    FaultPlan,
    canonical_plans,
    inject,
    resilient_minimum_cut,
)
from repro.resilience.checkpointing import (
    CHECKPOINT_VERSION,
    DriverCheckpoint,
    run_fingerprint,
    seal,
    unseal,
)
from repro.resilience.faults import (
    SITE_CHECKPOINT_CORRUPT,
    SITE_CHECKPOINT_KILL,
    SITE_CORRUPT_VALUE,
    SITE_SNAPSHOT_PARTIAL,
)

from tests.conftest import make_graph


def _result_key(res):
    """Everything the bit-identical contract covers: value, side,
    provenance, and the full stats mapping."""
    return (
        res.value,
        res.side.tobytes(),
        res.attempts,
        res.fallback_used,
        dict(res.stats),
    )


def _kill_plan(at, *extra):
    return FaultPlan(faults=(*extra, Fault(SITE_CHECKPOINT_KILL, at=at)))


# ---------------------------------------------------------------------------
# File format: versioned, hash-verified, fingerprint-bound, atomic
# ---------------------------------------------------------------------------
class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        store = DriverCheckpoint.open(path, "fp", resume=True)
        store.record_outcome("suspect", 41.5)
        store.cache.put("approximate", "fa", ApproxArtifact("fa", 3.0))
        again = DriverCheckpoint.open(path, "fp", resume=True)
        assert again.resumed
        assert again.outcomes == [("suspect", 41.5)]
        assert again.cache.get("approximate", "fa").approx_value == 3.0

    def test_record_outcome_drops_the_attempts_artifacts(self, tmp_path):
        path = tmp_path / "a.ckpt"
        store = DriverCheckpoint.open(path, "fp")
        store.cache.put("approximate", "fa", ApproxArtifact("fa", 3.0))
        assert store.cache.get("approximate", "fa") is not None
        store.record_outcome("suspect", 1.0)  # the attempt is over
        assert len(store.cache) == 0
        again = DriverCheckpoint.open(path, "fp", resume=True)
        assert again.outcomes == [("suspect", 1.0)]
        assert len(again.cache) == 0

    def test_rng_state_snapshot_roundtrip(self, tmp_path):
        store = DriverCheckpoint.open(tmp_path / "a.ckpt", "fp")
        rng = np.random.default_rng(5)
        rng.random(7)
        art = ApproxArtifact("fa", 3.0, rng.bit_generator.state)
        store.cache.put("approximate", "fa", art)
        expect = rng.random()
        loaded = DriverCheckpoint.open(tmp_path / "a.ckpt", "fp", resume=True)
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = loaded.cache.get("approximate", "fa").rng_state
        assert fresh.random() == expect

    def test_flipped_byte_fails_hash_check(self, tmp_path):
        path = tmp_path / "a.ckpt"
        DriverCheckpoint.open(path, "fp").record_outcome("budget")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt|unreadable"):
            DriverCheckpoint.open(path, "fp", resume=True)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(pickle.dumps({"version": CHECKPOINT_VERSION + 1}))
        with pytest.raises(CheckpointError, match="version"):
            DriverCheckpoint.open(path, "fp", resume=True)

    def test_version_one_file_rejected(self, tmp_path):
        # the stage-hook layout before checkpoints persisted engine artifacts
        path = tmp_path / "a.ckpt"
        old = {"outcomes": [], "pipeline": {"attempt": 0, "stages": {}}}
        path.write_bytes(seal({"fingerprint": "fp", "state": old}, 1))
        with pytest.raises(CheckpointError, match="version 1"):
            DriverCheckpoint.open(path, "fp", resume=True)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="unreadable"):
            DriverCheckpoint.open(path, "fp", resume=True)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        DriverCheckpoint.open(path, "fp-one").record_outcome("budget")
        with pytest.raises(CheckpointError, match="fingerprint"):
            DriverCheckpoint.open(path, "fp-two", resume=True)

    def test_resume_false_ignores_existing(self, tmp_path):
        path = tmp_path / "a.ckpt"
        DriverCheckpoint.open(path, "fp-one").record_outcome("budget")
        fresh = DriverCheckpoint.open(path, "fp-two", resume=False)
        assert not fresh.resumed
        assert fresh.outcomes == []

    def test_finalize_removes_file(self, tmp_path):
        path = tmp_path / "a.ckpt"
        store = DriverCheckpoint.open(path, "fp")
        store.record_outcome("budget")
        assert path.exists()
        store.finalize()
        assert not path.exists()
        store.finalize()  # idempotent

    def test_no_tmp_residue_after_save(self, tmp_path):
        path = tmp_path / "a.ckpt"
        DriverCheckpoint.open(path, "fp").record_outcome("budget")
        assert os.listdir(tmp_path) == ["a.ckpt"]

    def test_fingerprint_sensitivity(self):
        g1, g2 = make_graph(12, 30, seed=1), make_graph(12, 30, seed=2)
        base = run_fingerprint(g1, 0, "params", 3, 200)
        assert base == run_fingerprint(g1, 0, "params", 3, 200)
        assert base != run_fingerprint(g2, 0, "params", 3, 200)
        assert base != run_fingerprint(g1, 1, "params", 3, 200)
        assert base != run_fingerprint(g1, 0, "params", 4, 200)


class TestEnvelope:
    """The ``seal``/``unseal`` envelope checkpoints and daemon snapshots
    share: a fault site's damage lands after hashing, so the content
    hash — not a lucky unpickle failure — is what refuses the file."""

    def test_damage_is_caught_by_the_hash_check(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(seal({"x": 1}, 3, damage=lambda raw: raw[: len(raw) // 3]))
        with pytest.raises(CheckpointError, match="content-hash"):
            unseal(path, 3, CheckpointError, "envelope")
        path.write_bytes(seal({"x": 1}, 3))
        assert unseal(path, 3, CheckpointError, "envelope") == {"x": 1}

    def test_torn_snapshot_fails_the_hash_check(self, tmp_path):
        plan = FaultPlan(faults=(Fault(SITE_SNAPSHOT_PARTIAL),))
        with pytest.raises(RecoveryError, match="content-hash"):
            write_snapshot(str(tmp_path), seq=1, chain="c", payload={}, faults=plan)
        assert os.listdir(tmp_path) == []  # the torn .tmp never promoted


# ---------------------------------------------------------------------------
# Kill/resume bit-identity through the driver
# ---------------------------------------------------------------------------
class TestKillResume:
    @pytest.mark.parametrize("kill_at", [0, 1, 3, 7])
    def test_resume_is_bit_identical(self, tmp_path, kill_at):
        g = make_graph(24, 80, seed=41)
        base = resilient_minimum_cut(g, seed=7)
        ck = tmp_path / "run.ckpt"
        with pytest.raises(SimulatedCrash):
            with inject(_kill_plan(kill_at)):
                resilient_minimum_cut(g, seed=7, checkpoint=ck)
        assert ck.exists()  # progress survived the crash
        resumed = resilient_minimum_cut(g, seed=7, checkpoint=ck)
        assert _result_key(resumed) == _result_key(base)
        assert not ck.exists()  # finalized on success

    def test_resume_with_injected_faults_is_exact(self, tmp_path):
        # a suspect first attempt (corrupt_value) plus a kill: the
        # checkpoint persists the fault plan's firing record, so the
        # resumed run (re-armed with the same plan, as a restarted
        # process would) neither re-fires the kill nor double-fires the
        # corruption — provenance matches the uninterrupted faulted run
        g = make_graph(24, 80, seed=42)
        with inject(FaultPlan(faults=(Fault(SITE_CORRUPT_VALUE),))):
            base = resilient_minimum_cut(g, seed=7)
        assert base.attempts == 2  # suspect then verified
        for kill_at in (0, 4, 16):
            ck = tmp_path / f"k{kill_at}.ckpt"
            try:
                with inject(_kill_plan(kill_at, Fault(SITE_CORRUPT_VALUE))):
                    resilient_minimum_cut(g, seed=7, checkpoint=ck)
                continue  # kill point beyond the run's last save
            except SimulatedCrash:
                pass
            with inject(_kill_plan(kill_at, Fault(SITE_CORRUPT_VALUE))):
                resumed = resilient_minimum_cut(g, seed=7, checkpoint=ck)
            assert _result_key(resumed) == _result_key(base)

    def test_corrupted_checkpoint_is_loud_then_recoverable(self, tmp_path):
        g = make_graph(20, 60, seed=43)
        ck = tmp_path / "run.ckpt"
        plan = FaultPlan(faults=(
            Fault(SITE_CHECKPOINT_CORRUPT, at=1),
            Fault(SITE_CHECKPOINT_KILL, at=1),
        ))
        with pytest.raises(SimulatedCrash):
            with inject(plan):
                resilient_minimum_cut(g, seed=7, checkpoint=ck)
        with pytest.raises(CheckpointError):  # typed, never silent
            resilient_minimum_cut(g, seed=7, checkpoint=ck)
        res = resilient_minimum_cut(g, seed=7, checkpoint=ck, resume=False)
        assert res.verification.ok

    def test_different_args_cannot_consume_checkpoint(self, tmp_path):
        g = make_graph(20, 60, seed=44)
        ck = tmp_path / "run.ckpt"
        with pytest.raises(SimulatedCrash):
            with inject(_kill_plan(1)):
                resilient_minimum_cut(g, seed=7, checkpoint=ck)
        with pytest.raises(CheckpointError, match="fingerprint"):
            resilient_minimum_cut(g, seed=8, checkpoint=ck)

    def test_checkpointed_equals_plain_run(self, tmp_path):
        g = make_graph(24, 80, seed=45)
        plain = resilient_minimum_cut(g, seed=3)
        ck = resilient_minimum_cut(g, seed=3, checkpoint=tmp_path / "c.ckpt")
        assert _result_key(plain) == _result_key(ck)


class TestResumeReusesWork:
    """Bit-identity alone would pass even if a resume silently recomputed
    everything: a resumed run must also charge less work the further the
    killed run had got."""

    def test_resumed_work_shrinks_with_progress(self, tmp_path):
        g = make_graph(24, 80, seed=41)
        base = Ledger()
        resilient_minimum_cut(g, seed=7, ledger=base)
        resumed = {}
        # the search saves its progress once per lockstep group: with 14
        # trees, saves 4-7 follow groups 1-4
        for kill_at in (0, 1, 3, 5, 7):
            ck = tmp_path / f"k{kill_at}.ckpt"
            with pytest.raises(SimulatedCrash):
                with inject(_kill_plan(kill_at)):
                    resilient_minimum_cut(g, seed=7, checkpoint=ck)
            led, reg = Ledger(), CounterRegistry()
            with counting_scope(reg):
                resilient_minimum_cut(g, seed=7, checkpoint=ck, ledger=led)
            resumed[kill_at] = led.work
            if kill_at >= 1:
                assert reg.snapshot().get("checkpoint.stage_loads", 0) >= 1
        works = [resumed[k] for k in (0, 1, 3, 5, 7)]
        assert max(works) <= base.work
        assert works == sorted(works, reverse=True)
        # each group's saved progress was reused
        assert resumed[7] < resumed[5] < resumed[3]


# ---------------------------------------------------------------------------
# Satellite (d): cross-backend determinism under faults
# ---------------------------------------------------------------------------
class TestCrossBackendDeterminism:
    def teardown_method(self):
        shutdown_shared_pools()

    @pytest.mark.parametrize("plan_name", ["corrupt_value", "drop_tree",
                                           "corrupt_skeleton"])
    def test_same_seed_same_plan_same_result(self, plan_name):
        g = make_graph(30, 100, seed=51)
        keys = {}
        for backend in ("process", "sync"):
            plan = canonical_plans(seed=5)[plan_name]
            with force_executor(backend), inject(plan):
                keys[backend] = _result_key(
                    resilient_minimum_cut(g, seed=9)
                )
        assert keys["process"] == keys["sync"]

    @pytest.mark.parametrize("backend", ["process", "sync"])
    def test_resumed_run_matches_across_backends(self, tmp_path, backend):
        g = make_graph(24, 80, seed=52)
        base = resilient_minimum_cut(g, seed=9)  # default backend
        ck = tmp_path / f"{backend}.ckpt"
        with pytest.raises(SimulatedCrash):
            with force_executor(backend), inject(_kill_plan(2)):
                resilient_minimum_cut(g, seed=9, checkpoint=ck)
        with force_executor(backend):
            resumed = resilient_minimum_cut(g, seed=9, checkpoint=ck)
        assert _result_key(resumed) == _result_key(base)


# ---------------------------------------------------------------------------
# CLI: --checkpoint / --no-resume
# ---------------------------------------------------------------------------
class TestCheckpointCLI:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edgelist(make_graph(20, 60, seed=61), path)
        return path

    def test_checkpoint_implies_resilient_driver(self, tmp_path, graph_file, capsys):
        from repro.cli import main

        ck = tmp_path / "cli.ckpt"
        assert main(["cut", str(graph_file), "--checkpoint", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "attempts " in out
        assert "verified 1" in out
        assert not ck.exists()  # finalized

    def test_kill_then_resume_via_cli(self, tmp_path, graph_file, capsys):
        from repro.cli import EXIT_REPRO_ERROR, main

        ck = tmp_path / "cli.ckpt"
        with inject(_kill_plan(1)):
            rc = main(["cut", str(graph_file), "--checkpoint", str(ck)])
        assert rc == EXIT_REPRO_ERROR  # SimulatedCrash is a typed error
        assert "SimulatedCrash" in capsys.readouterr().err
        assert ck.exists()
        assert main(["cut", str(graph_file), "--checkpoint", str(ck)]) == 0
        resumed = capsys.readouterr().out
        plain_rc = main(["cut", str(graph_file)])
        assert plain_rc == 0
        plain = capsys.readouterr().out
        line = next(l for l in resumed.splitlines() if l.startswith("value "))
        assert line in plain.splitlines()

    def test_no_resume_discards_checkpoint(self, tmp_path, graph_file, capsys):
        from repro.cli import main

        ck = tmp_path / "cli.ckpt"
        with inject(_kill_plan(1)):
            main(["cut", str(graph_file), "--checkpoint", str(ck)])
        capsys.readouterr()
        assert main(
            ["cut", str(graph_file), "--checkpoint", str(ck), "--no-resume"]
        ) == 0
        assert "verified 1" in capsys.readouterr().out
