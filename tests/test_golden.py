"""Golden fixture: SHA-256 of every file a small ``train`` run writes.

The fixture pins the exact bytes of three short CLI runs, so any change to
the numerics shows up as a hash mismatch.  Drift is allowed, but only on
purpose: regenerate the fixture and record in CHANGES.md why the numbers
moved.  Regenerate from the root of a checkout with

    PYTHONPATH=src python tests/test_golden.py --write

Hashes depend on the floating-point behavior of NumPy, so the comparison
runs only under the NumPy version the fixture was recorded with.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from eqlbounds.cli import main

FIXTURE = Path(__file__).with_name("data") / "golden_train.json"
FIXTURE_VERSION = 1
PRESETS = ("square-low", "circle", "cube")
DATA_SEED = 0
TRAIN_FLAGS = ("--runs", "2", "--epochs", "50", "--learning-rate", "1e-3", "--seed", "24")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_hashes(workdir: Path) -> dict:
    """Generate each preset, train on it, and hash the data and run files."""
    hashes = {}
    for preset in PRESETS:
        data = workdir / f"{preset}.csv"
        out_dir = workdir / preset
        assert main(["gen", "--preset", preset, "--seed", str(DATA_SEED), "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--out-dir", str(out_dir), *TRAIN_FLAGS]) == 0
        hashes[preset] = {
            "data": _sha256(data),
            "run_dir": {p.name: _sha256(p) for p in sorted(out_dir.iterdir())},
        }
    return hashes


def test_train_outputs_match_golden_fixture(tmp_path, capsys):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden["version"] == FIXTURE_VERSION
    assert golden["train_flags"] == list(TRAIN_FLAGS)
    if golden["numpy"] != np.__version__:
        pytest.skip(f"fixture recorded with NumPy {golden['numpy']}, running {np.__version__}")
    assert run_hashes(tmp_path) == golden["hashes"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        fixture = {
            "version": FIXTURE_VERSION,
            "numpy": np.__version__,
            "data_seed": DATA_SEED,
            "train_flags": list(TRAIN_FLAGS),
            "hashes": run_hashes(Path(tmp)),
        }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
