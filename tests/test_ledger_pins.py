"""Whole-cut ledger pins: value, side, and the work and depth of every
top-level phase of full ``minimum_cut`` runs, compared exactly against
``tests/data/ledger_pins.json``.

A change that moves a Section 3, sparsify, packing or search charge
fails here.  Regenerate with ``PYTHONPATH=src python
scripts/ledger_pins.py``, list the moved cases (``--check``) and rerun
``scripts/run_experiments.py``.
"""

import json

import pytest

from tests.conftest import load_script

pins = load_script("ledger_pins")
PINNED = json.loads(pins.PINS.read_text())


def test_pins_cover_every_case():
    assert sorted(PINNED) == sorted(pins.cases())
    # the Section 3 skip fires on the grids and on no cut-dense graph
    skipped = {name for name, rec in PINNED.items() if rec["approx_skipped"]}
    assert {f"cut-sparse/g{i}" for i in range(3)} <= skipped
    assert not {f"cut-dense/g{i}" for i in range(3)} & skipped


@pytest.mark.parametrize("name", sorted(pins.cases()))
def test_whole_cut_ledger_is_pinned(name):
    assert pins.measure(name) == PINNED[name]
