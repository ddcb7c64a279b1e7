"""Work-depth ledger semantics (repro.pram.ledger)."""

import pytest

from repro.errors import LedgerError
from repro.pram import NULL_LEDGER, Ledger


class TestCharge:
    def test_initial_state(self):
        led = Ledger()
        assert led.work == 0 and led.depth == 0

    def test_sequential_charges_accumulate(self):
        led = Ledger()
        led.charge(work=5, depth=2)
        led.charge(work=3, depth=1)
        assert led.work == 8
        assert led.depth == 3

    def test_default_depth_is_one(self):
        led = Ledger()
        led.charge(work=7)
        assert led.depth == 1

    def test_zero_charges_allowed(self):
        led = Ledger()
        led.charge(work=0, depth=0)
        assert led.work == 0 and led.depth == 0

    def test_negative_work_rejected(self):
        with pytest.raises(LedgerError):
            Ledger().charge(work=-1)

    def test_negative_depth_rejected(self):
        with pytest.raises(LedgerError):
            Ledger().charge(work=1, depth=-1)


class TestParallel:
    def test_depth_is_max_over_branches(self):
        led = Ledger()
        with led.parallel() as par:
            for d in (3, 7, 2):
                with par.branch():
                    led.charge(work=1, depth=d)
        assert led.depth == 7
        assert led.work == 3

    def test_empty_parallel_region_is_noop(self):
        led = Ledger()
        led.charge(1, 1)
        with led.parallel():
            pass
        assert led.depth == 1

    def test_sequential_after_parallel(self):
        led = Ledger()
        with led.parallel() as par:
            with par.branch():
                led.charge(1, 5)
        led.charge(1, 2)
        assert led.depth == 7

    def test_nested_parallel(self):
        led = Ledger()
        with led.parallel() as outer:
            with outer.branch():
                led.charge(1, 1)
                with led.parallel() as inner:
                    for d in (4, 6):
                        with inner.branch():
                            led.charge(1, d)
                # inner joined at 1 + 6
            with outer.branch():
                led.charge(1, 3)
        assert led.depth == 7
        assert led.work == 4

    def test_branch_after_close_rejected(self):
        led = Ledger()
        with led.parallel() as par:
            pass
        with pytest.raises(LedgerError):
            with par.branch():
                pass

    def test_branches_fork_from_same_time(self):
        led = Ledger()
        led.charge(0, 10)
        with led.parallel() as par:
            with par.branch():
                led.charge(1, 1)
                assert led.depth == 11
            with par.branch():
                assert led.depth == 10  # second branch replays the fork time


class TestBatch:
    def test_batch_pins_depth(self):
        led = Ledger()
        with led.batch(depth=4):
            led.charge(work=100, depth=50)
        assert led.depth == 4
        assert led.work == 100

    def test_batch_from_nonzero_start(self):
        led = Ledger()
        led.charge(1, 3)
        with led.batch(depth=2):
            led.charge(5, 99)
        assert led.depth == 5

    def test_negative_batch_rejected(self):
        led = Ledger()
        with pytest.raises(LedgerError):
            with led.batch(depth=-1):
                pass

    def test_batch_inside_branch(self):
        led = Ledger()
        with led.parallel() as par:
            with par.branch():
                with led.batch(depth=3):
                    led.charge(10, 1000)
            with par.branch():
                led.charge(1, 1)
        assert led.depth == 3
        assert led.work == 11


class TestPhases:
    def test_phase_records_deltas(self):
        led = Ledger()
        with led.phase("a"):
            led.charge(5, 2)
        with led.phase("b"):
            led.charge(3, 1)
        assert led.phases["a"].work == 5 and led.phases["a"].depth == 2
        assert led.phases["b"].work == 3 and led.phases["b"].depth == 1

    def test_reentrant_phase_accumulates(self):
        led = Ledger()
        for _ in range(2):
            with led.phase("x"):
                led.charge(2, 1)
        assert led.phases["x"].work == 4
        assert led.phases["x"].depth == 2

    def test_nested_phases_both_see_charge(self):
        led = Ledger()
        with led.phase("outer"):
            with led.phase("inner"):
                led.charge(7, 1)
        assert led.phases["outer"].work == 7
        assert led.phases["inner"].work == 7


class TestSnapshots:
    def test_snapshot_since(self):
        led = Ledger()
        led.charge(2, 2)
        snap = led.snapshot()
        led.charge(3, 1)
        assert led.since(snap) == (3, 1)

    def test_absorb_parallel(self):
        a, b, c = Ledger(), Ledger(), Ledger()
        b.charge(5, 4)
        c.charge(2, 9)
        a.absorb_parallel(b, c)
        assert a.work == 7
        assert a.depth == 9

    def test_absorb_nothing_is_noop(self):
        a = Ledger()
        a.charge(1, 1)
        a.absorb_parallel()
        assert a.snapshot() == (1, 1)

    def test_reset(self):
        led = Ledger()
        with led.phase("p"):
            led.charge(1, 1)
        led.reset()
        assert led.snapshot() == (0, 0)
        assert led.phases == {}


class TestNullLedger:
    def test_discards_charges(self):
        NULL_LEDGER.charge(100, 100)
        assert NULL_LEDGER.work == 0
        assert NULL_LEDGER.depth == 0

    def test_still_validates(self):
        with pytest.raises(LedgerError):
            NULL_LEDGER.charge(-1)

    def test_parallel_and_batch_are_inert(self):
        with NULL_LEDGER.parallel() as par:
            with par.branch():
                NULL_LEDGER.charge(5, 5)
        with NULL_LEDGER.batch(depth=3):
            pass
        assert NULL_LEDGER.depth == 0

    def test_absorb_parallel_is_inert(self):
        # absorb mutates work/depth without going through charge; the
        # null ledger must discard it too (the engine's batch fan-out
        # absorbs worker ledgers into whatever ledger it was given)
        other = Ledger()
        with other.phase("absorbed-phase"):
            other.charge(100, 100)
        NULL_LEDGER.absorb_parallel(other)
        assert NULL_LEDGER.work == 0
        assert NULL_LEDGER.depth == 0
        assert "absorbed-phase" not in NULL_LEDGER.phases


def _random_program(rng, depth=0):
    """A random nested charge/parallel/branch/batch/phase program, as
    data, with non-integer amounts so float summation order shows."""
    ops = []
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(0, 4)) if depth < 4 else 0
        if kind == 0:
            ops.append(("charge", float(rng.uniform(0, 10)), float(rng.uniform(0, 3))))
        elif kind == 1:
            branches = [_random_program(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
            ops.append(("parallel", branches))
        elif kind == 2:
            ops.append(("batch", float(rng.uniform(0, 5)), _random_program(rng, depth + 1)))
        else:
            name = "abc"[int(rng.integers(0, 3))]
            ops.append(("phase", name, _random_program(rng, depth + 1)))
    return ops


def _run(program, ledger):
    for op in program:
        if op[0] == "charge":
            ledger.charge(work=op[1], depth=op[2])
        elif op[0] == "parallel":
            with ledger.parallel() as par:
                for branch in op[1]:
                    with par.branch():
                        _run(branch, ledger)
        elif op[0] == "batch":
            with ledger.batch(op[1]):
                _run(op[2], ledger)
        else:
            with ledger.phase(op[1]):
                _run(op[2], ledger)


def _state(ledger):
    return (
        ledger.work,
        ledger.depth,
        {k: (r.work, r.depth) for k, r in ledger.phases.items()},
    )


class TestLedgerTape:
    """A tape replayed into a ledger leaves it exactly as running the
    same calls on it directly would — float sums, phase records and a
    TraceLedger's series-parallel shape included."""

    def test_replay_equals_direct_execution(self):
        import numpy as np

        from repro.pram import LedgerTape, TraceLedger

        rng = np.random.default_rng(0)
        for _ in range(120):
            programs = [_random_program(rng) for _ in range(int(rng.integers(1, 4)))]
            lead = float(rng.uniform(0, 7))
            for make in (Ledger, TraceLedger):
                direct, replayed = make(), make()
                tapes = []
                for program in programs:
                    tape = LedgerTape()
                    _run(program, tape)
                    tapes.append(tape)
                for led in (direct, replayed):
                    led.charge(work=lead, depth=lead)  # a nonzero start
                with direct.parallel() as par:
                    for program in programs:
                        with par.branch():
                            _run(program, direct)
                with replayed.parallel() as par:
                    for tape in tapes:
                        with par.branch():
                            tape.replay(replayed)
                assert _state(replayed) == _state(direct)
                if make is TraceLedger:
                    for p in (1, 3, 16):
                        assert replayed.bounds(p) == direct.bounds(p)
            # the tape itself accumulates like a fresh ledger
            fresh = Ledger()
            _run(programs[0], fresh)
            assert _state(tapes[0]) == _state(fresh)

    def test_replay_opens_phases_through_the_opener(self):
        from contextlib import contextmanager

        from repro.pram import LedgerTape

        tape = LedgerTape()
        with tape.phase("x"):
            tape.charge(work=2.5, depth=1)
        seen = []
        target = Ledger()

        @contextmanager
        def opener(name):
            seen.append(name)
            with target.phase(name):
                yield

        tape.replay(target, phase=opener)
        assert seen == ["x"]
        assert target.phases["x"].work == 2.5

    def test_absorb_parallel_is_refused(self):
        from repro.pram import LedgerTape

        with pytest.raises(LedgerError):
            LedgerTape().absorb_parallel(Ledger())
