"""Golden fixture: SHA-256 of every file a small ``train`` run writes.

The fixture pins the exact bytes of four short CLI runs, so any change to
the numerics shows up as a hash mismatch: one on each of three presets, and
one on 70 000 cut-square points, at or above the screening gate, so that the
screened epochs and their cell index are pinned too.  Drift is allowed, but only on
purpose: regenerate the fixture and record in CHANGES.md why the numbers
moved.  Regenerate from the root of a checkout with

    python tests/test_golden.py --write

Hashes depend on the floating-point behavior of NumPy, so the comparison
runs only under the NumPy version the fixture was recorded with.  They also
depend on the BLAS kernel, which picks the summation order of a product:
the commands run in one child interpreter, under the OpenBLAS kernel the
fixture records (Haswell: AVX2 and FMA, which every current x86-64 CI
runner has), whatever kernel the parent runs under.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

FIXTURE = Path(__file__).with_name("data") / "golden_train.json"
FIXTURE_VERSION = 2
PRESETS = ("square-low", "circle", "cube")
DATA_SEED = 0
TRAIN_FLAGS = ("--runs", "2", "--epochs", "50", "--learning-rate", "1e-3", "--seed", "24")
# The screened run: its region, point count and train flags.
SCREENED_RUN = {
    "name": "cut-square-70000",
    "spec": {
        "box": [[-5.0, 25.0], [-5.0, 25.0]],
        "linear_cuts": [{"coeffs": [1.0, 2.0], "bound": 4.0, "direction": "lower"}],
    },
    "n": 70_000,
    "train_flags": ["--runs", "2", "--epochs", "5", "--learning-rate", "1e-3", "--seed", "24"],
}
OPENBLAS_CORETYPE = "Haswell"
SRC = Path(__file__).resolve().parents[1] / "src"
# Runs each argument list of its JSON argument through the CLI, stopping at the first failure.
CHILD = "import json, sys; from eqlbounds.cli import main; sys.exit(any(main(a) for a in json.loads(sys.argv[1])))"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_hashes(workdir: Path, coretype: str) -> dict:
    """Generate each run's data and train on it under the kernel ``coretype``, and hash the data and run files."""
    spec = workdir / "spec.json"
    spec.write_text(json.dumps(SCREENED_RUN["spec"]), encoding="utf-8")
    runs = [(preset, ["--preset", preset], TRAIN_FLAGS) for preset in PRESETS]
    screened_source = ["--spec", str(spec), "--n", str(SCREENED_RUN["n"])]
    runs.append((SCREENED_RUN["name"], screened_source, SCREENED_RUN["train_flags"]))
    commands = []
    for name, source, flags in runs:
        data, out_dir = workdir / f"{name}.csv", workdir / name
        commands.append(["gen", *source, "--seed", str(DATA_SEED), "--out", str(data)])
        commands.append(["train", "--data", str(data), "--out-dir", str(out_dir), *flags])
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": pythonpath}
    argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error", "-c", CHILD, json.dumps(commands)]
    child = subprocess.run(argv, env=env, capture_output=True, encoding="utf-8")
    assert child.returncode == 0, child.stderr
    return {
        name: {
            "data": _sha256(workdir / f"{name}.csv"),
            "run_dir": {p.name: _sha256(p) for p in sorted((workdir / name).iterdir())},
        }
        for name, _, _ in runs
    }


def test_train_outputs_match_golden_fixture(tmp_path):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden["version"] == FIXTURE_VERSION
    assert golden["train_flags"] == list(TRAIN_FLAGS)
    assert golden["screened_run"] == SCREENED_RUN
    if golden["numpy"] != np.__version__:
        pytest.skip(f"fixture recorded with NumPy {golden['numpy']}, running {np.__version__}")
    assert run_hashes(tmp_path, golden["openblas_coretype"]) == golden["hashes"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        fixture = {
            "version": FIXTURE_VERSION,
            "numpy": np.__version__,
            "data_seed": DATA_SEED,
            "train_flags": list(TRAIN_FLAGS),
            "screened_run": SCREENED_RUN,
            "openblas_coretype": OPENBLAS_CORETYPE,
            "hashes": run_hashes(Path(tmp), OPENBLAS_CORETYPE),
        }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
