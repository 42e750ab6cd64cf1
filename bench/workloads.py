"""The three benchmark workloads and the checks on their outputs.

Each workload is one process with one thread of control.  ``setup`` builds
the inputs and runs one untimed warm-up operation; ``run`` performs one
timed operation and checks every output it produced.  Checks run outside
the timed region.  Why each workload exists is written in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import eqlbounds as eql
from calibrate import Probe
from eqlbounds import cli as eql_cli

SRC = Path(eql.__file__).resolve().parent.parent

LEARNING_RATE = 1e-3
MASK_THRESHOLD = 1e-3
IN_BAND_PCT = 5.0
# Units of the default architecture (two identity, two constant).
HIDDEN_UNITS = 4

# The paper protocol, as acceptance criterion 5 runs it: preset name and its
# percentile width gamma, data seed 0, training seeds 24..33.
PAPER_PRESETS = (("square-high", 5.0), ("circle", 5.0), ("square-low", 2.5), ("cube", 5.0))
PAPER_DATA_SEED = 0
PAPER_TRAIN_SEED = 24
PAPER_RUNS = 10
PAPER_EPOCHS = 400

LARGE_N = 200_000
LARGE_EPOCHS = 100
LARGE_WARMUP_EPOCHS = 3

CLI_N = 100_000
CLI_WARMUP_N = 2_000
CLI_RUNS = 2
CLI_EPOCHS = 10
COMMAND_TIMEOUT_S = 150

# The cut square of the square presets: box [-5, 25]^2, strict cut X0 + 2*X1 > 4.
SQUARE_BOX = (-5.0, 25.0)
SQUARE_CUT = ((1.0, 2.0), 4.0)
SQUARE_SPEC = {
    "box": [list(SQUARE_BOX), list(SQUARE_BOX)],
    "linear_cuts": [{"coeffs": list(SQUARE_CUT[0]), "bound": SQUARE_CUT[1], "direction": "lower"}],
    "quadratic_cap": None,
}


@dataclass
class OpResult:
    """One timed operation: the time of its parts, the work it did and its failures."""

    seed_epochs: int = 0
    attempted: int = 0
    failed: set[str] = field(default_factory=set)
    messages: list[str] = field(default_factory=list)
    # (wall, reference) seconds of each part: a preset's train_multi, the
    # large fit, or one CLI command.
    parts: dict[str, tuple[float, float]] = field(default_factory=dict)
    fits: int = 0
    fits_in_band: int = 0
    # preset -> (top-ranked violation %, top-ranked gap %)
    quality: dict[str, tuple[float, float]] = field(default_factory=dict)

    def fail(self, operation: str, message: str) -> None:
        self.failed.add(operation)
        self.messages.append(f"{operation}: {message}")

    def count_fits(self, rates) -> None:
        for rate in rates:
            self.fits += 1
            self.fits_in_band += rate <= IN_BAND_PCT


def recount_violation_pct(points: np.ndarray, coeffs, bound: float, relation: str) -> float:
    """Violation rate of ``coeffs . x`` vs ``bound``, recounted independently."""
    values = points @ np.asarray(coeffs, dtype=float)
    satisfied = values >= bound if relation == "lower" else values <= bound
    return 100.0 * int(np.count_nonzero(~satisfied)) / points.shape[0]


def gap_pct(points: np.ndarray, coeffs, bound: float, relation: str) -> float:
    """Distance from the boundary to the nearest satisfying point.

    Measured along the normal, as a percent of the data's spread along it;
    100 when no point satisfies the constraint.
    """
    values = points @ np.asarray(coeffs, dtype=float)
    spread = float(values.max() - values.min())
    if relation == "lower":
        inside = values[values >= bound]
        distance = float(inside.min() - bound) if inside.size else None
    else:
        inside = values[values <= bound]
        distance = float(bound - inside.max()) if inside.size else None
    if distance is None or spread == 0.0:
        return 100.0
    return 100.0 * distance / spread


def _constraint_fields(constraint) -> tuple[list[float], float, str]:
    return [float(v) for v in constraint.coeffs], float(constraint.bound), constraint.relation.value


def _check_reports(result: OpResult, operation: str, points: np.ndarray, reports) -> None:
    for report in reports:
        coeffs, bound, relation = _constraint_fields(report.constraint)
        recount = recount_violation_pct(points, coeffs, bound, relation)
        if recount != report.violation_rate:
            result.fail(operation, f"seed {report.seed}: reported {report.violation_rate}% but recount gives {recount}%")


def _signature(reports) -> list:
    return [(r.seed, *_constraint_fields(r.constraint), r.violation_rate) for r in reports]


def training_working_set_bytes(n: int, f: int, h: int = HIDDEN_UNITS) -> int:
    """Computed bytes one training epoch touches: points and targets, five
    length-N temporaries (preds, errors, negated errors, sort order, dL/dpred)
    and two N x H unit arrays (sums, activations), all 8-byte.
    """
    return 8 * n * (f + 1 + 5 + 2 * h)


def draw_cut_square(n: int, seed: int) -> np.ndarray:
    """Uniform points of the cut square by vectorised rejection (not the program's sampler)."""
    rng = np.random.default_rng(seed)
    coeffs, bound = np.array(SQUARE_CUT[0]), SQUARE_CUT[1]
    kept, total = [], 0
    while total < n:
        block = rng.uniform(SQUARE_BOX[0], SQUARE_BOX[1], size=(n, 2))
        block = block[block @ coeffs > bound]
        kept.append(block)
        total += block.shape[0]
    return np.concatenate(kept)[:n]


class PaperMulti:
    """``train_multi`` on the four paper presets with the paper's settings."""

    name = "paper-multi"
    train_parts = tuple(name for name, _ in PAPER_PRESETS)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.probe = Probe()
        self.datasets: list = []
        self._expected: dict[str, list] = {}

    def setup(self) -> None:
        self.datasets = [(name, gamma, eql.paper_dataset(name, PAPER_DATA_SEED)) for name, gamma in PAPER_PRESETS]
        for _, gamma, data in self.datasets:
            eql.train(data, eql.LossConfig(gamma=gamma), self._config(runs=1))

    @staticmethod
    def _config(runs: int):
        return eql.TrainConfig(
            epochs=PAPER_EPOCHS,
            learning_rate=LEARNING_RATE,
            mask_threshold=MASK_THRESHOLD,
            seed=PAPER_TRAIN_SEED,
            runs=runs,
        )

    def working_set_bytes(self) -> int:
        return max(training_working_set_bytes(d.n_points, d.n_features) for _, _, d in self.datasets)

    def run(self, in_process: bool = True) -> OpResult:
        result = OpResult()
        cfg = self._config(runs=PAPER_RUNS)
        for name, gamma, data in self.datasets:
            result.attempted += 1
            ranked = None
            with self.probe.timed(result.parts, name):
                try:
                    ranked = eql.train_multi(data, eql.LossConfig(gamma=gamma), cfg)
                except Exception as exc:  # a raising fit is a counted failure, not a crash
                    result.fail(name, f"train_multi raised {exc!r}")
            if ranked is None:
                continue
            result.seed_epochs += cfg.runs * cfg.epochs
            reports = [report for _, report in ranked]
            _check_reports(result, name, data.points, reports)
            signature = _signature(reports)
            if self._expected.setdefault(name, signature) != signature:
                result.fail(name, "results differ from the first pass on identical inputs")
            result.count_fits(r.violation_rate for r in reports)
            top = reports[0]
            result.quality[name] = (top.violation_rate, gap_pct(data.points, *_constraint_fields(top.constraint)))
        return result

    def close(self) -> None:
        pass


class LargeN:
    """One ``train`` on 2e5 cut-square points drawn by the benchmark itself."""

    name = "large-n"
    train_parts = ("train",)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.probe = Probe()
        self.data = None
        self._expected: list | None = None

    def setup(self) -> None:
        self.data = eql.Dataset(draw_cut_square(LARGE_N, self.seed))
        eql.train(self.data, eql.LossConfig(), self._config(LARGE_WARMUP_EPOCHS))

    def _config(self, epochs: int):
        return eql.TrainConfig(epochs=epochs, learning_rate=LEARNING_RATE, seed=self.seed)

    def working_set_bytes(self) -> int:
        return training_working_set_bytes(LARGE_N, 2)

    def run(self, in_process: bool = True) -> OpResult:
        result = OpResult(attempted=1)
        report = None
        with self.probe.timed(result.parts, "train"):
            try:
                _, report = eql.train(self.data, eql.LossConfig(), self._config(LARGE_EPOCHS))
            except Exception as exc:  # a raising fit is a counted failure, not a crash
                result.fail("train", f"train raised {exc!r}")
        if report is None:
            return result
        result.seed_epochs = LARGE_EPOCHS
        _check_reports(result, "train", self.data.points, [report])
        signature = _signature([report])
        self._expected = self._expected or signature
        if signature != self._expected:
            result.fail("train", "result differs from the first fit on identical inputs")
        result.count_fits([report.violation_rate])
        return result

    def close(self) -> None:
        pass


@dataclass
class CommandRun:
    returncode: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The environment of a child interpreter: this process's, with ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def fresh_import_s(module: str) -> float:
    """Wall time of a fresh interpreter that imports ``module`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(), check=True, timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - start


def _run_subprocess(argv: list[str]) -> CommandRun:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eqlbounds", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return CommandRun(-1, "", f"timed out after {exc.timeout}s")
    return CommandRun(proc.returncode, proc.stdout, proc.stderr)


def _run_in_process(argv: list[str]) -> CommandRun:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = eql_cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # report like a crashing subprocess
        return CommandRun(1, out.getvalue(), repr(exc))
    return CommandRun(code, out.getvalue(), "")


def _digests(paths: dict[str, Path]) -> dict[str, str]:
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in sorted(paths.items())}


class CliPipeline:
    """``gen`` -> ``train`` -> ``eval`` through the command line, one after another."""

    name = "cli-pipeline"
    train_parts = ("train",)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.probe = Probe()
        self.workdir = workdir / self.name
        self.spec = self.workdir / "spec.json"
        self._iteration = 0
        self._expected: dict[str, str] | None = None
        self.csv_bytes = 0

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.spec.write_text(json.dumps(SQUARE_SPEC) + "\n", encoding="utf-8")
        warm = self._pipeline(self.workdir / "warm-up", CLI_WARMUP_N, _run_subprocess)
        if warm.failed:
            raise RuntimeError("warm-up pipeline failed: " + "; ".join(warm.messages))

    def working_set_bytes(self) -> int:
        return self.csv_bytes + training_working_set_bytes(CLI_N, 2)

    def run(self, in_process: bool = False) -> OpResult:
        self._iteration += 1
        directory = self.workdir / f"iteration-{self._iteration}"
        result = self._pipeline(directory, CLI_N, _run_in_process if in_process else _run_subprocess)
        shutil.rmtree(directory, ignore_errors=True)
        return result

    def _pipeline(self, directory: Path, n: int, execute) -> OpResult:
        result = OpResult()
        directory.mkdir(parents=True)
        data, runs = directory / "data.csv", directory / "runs"
        constraint = runs / "run-00-constraint.json"
        commands = (
            ("gen", ["gen", "--spec", str(self.spec), "--n", str(n), "--seed", str(self.seed), "--out", str(data)]),
            (
                "train",
                [
                    "train", "--data", str(data), "--out-dir", str(runs), "--runs", str(CLI_RUNS),
                    "--epochs", str(CLI_EPOCHS), "--seed", str(self.seed), "--learning-rate", str(LEARNING_RATE),
                ],
            ),
            ("eval", ["eval", "--constraint", str(constraint), "--data", str(data)]),
        )
        outputs = {}
        for name, argv in commands:
            result.attempted += 1
            with self.probe.timed(result.parts, name):
                done = execute(argv)
            if done.returncode != 0:
                result.fail(name, f"exit code {done.returncode}: {done.stderr.strip()}")
                return result
            outputs[name] = done.stdout
        result.seed_epochs = CLI_RUNS * CLI_EPOCHS
        try:
            self._check(result, directory, n, outputs["eval"])
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed output fails the check
            result.fail("eval", f"cannot check the outputs: {exc!r}")
        return result

    def _check(self, result: OpResult, directory: Path, n: int, eval_stdout: str) -> None:
        data, runs = directory / "data.csv", directory / "runs"
        points = np.loadtxt(data, delimiter=",", skiprows=1, ndmin=2)
        if points.shape != (n, 2):
            result.fail("gen", f"expected {n} x 2 points, read {points.shape}")
            return
        self.csv_bytes = data.stat().st_size
        rows = json.loads((runs / "summary.json").read_text(encoding="utf-8"))
        if len(rows) != CLI_RUNS:
            result.fail("train", f"summary lists {len(rows)} runs, expected {CLI_RUNS}")
        for row in rows:
            c = row["constraint"]
            recount = recount_violation_pct(points, c["coeffs"], c["bound"], c["relation"])
            if recount != row["violation_percent"]:
                result.fail("train", f"run {row['run']}: reported {row['violation_percent']}% but recount gives {recount}%")
        result.count_fits(row["violation_percent"] for row in rows)
        report = json.loads(eval_stdout)
        first = next((row for row in rows if row["run"] == 0), None)
        if first is None:
            result.fail("train", "summary has no run 0")
        elif report["n"] != n or 100.0 * report["violations"] / n != first["violation_percent"]:
            result.fail(
                "eval",
                f"{report['violations']} of {report['n']} violations disagree with {first['violation_percent']}% in summary.json",
            )
        if n == CLI_N:
            files = {"data.csv": data, **{f"runs/{p.name}": p for p in runs.iterdir()}}
            digests = _digests(files)
            if self._expected is None:
                self._expected = digests
            elif digests != self._expected:
                changed = sorted(k for k in set(digests) | set(self._expected) if digests.get(k) != self._expected.get(k))
                result.fail("gen" if "data.csv" in changed else "train", f"files differ across identical iterations: {changed}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (PaperMulti, LargeN, CliPipeline)}
