"""Self-test of the benchmark tracer on a tiny fit.

Run from the root of a checkout:  python3 -m pytest -q bench/test_tracer.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import eqlbounds  # noqa: E402
from eqlbounds import cli, trainer  # noqa: E402
from tracer import Tracer  # noqa: E402

EPOCHS = 7
RUNS = 3


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(5)
    return eqlbounds.Dataset(rng.uniform(0.0, 10.0, size=(60, 2)))


def _fit(dataset, runs):
    cfg = eqlbounds.TrainConfig(epochs=EPOCHS, learning_rate=1e-3, mask_threshold=1e-3, seed=3, runs=runs)
    return eqlbounds.train_multi(dataset, eqlbounds.LossConfig(), cfg)


def test_call_counts_match_seed_epochs(dataset):
    tracer = Tracer()
    tracer.install()
    try:
        _fit(dataset, RUNS)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    seed_epochs = RUNS * EPOCHS
    assert summary.calls_of("trainer.train_multi") == 1
    assert summary.calls_of("trainer.train") == RUNS
    # The trainer reaches these through its own namespace, so the counts
    # prove the wrappers were bound there too.
    for name in ("trainer.gradients", "network.forward_batch", "loss.p_gamma_subset", "network.apply_mask"):
        assert summary.calls_of(name) == seed_epochs, name
    for name in ("network.initialize", "extract.extract_constraint", "extract.violation_rate"):
        assert summary.calls_of(name) == RUNS, name
    # One network per initialize plus one per masking pass.
    assert summary.counts["network.nets_built"] == RUNS * (EPOCHS + 1)
    assert summary.calls_of("loss.loss_total") == 0


def test_self_time_partitions_the_root_span(dataset):
    tracer = Tracer()
    tracer.install()
    try:
        _fit(dataset, 1)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert np.all(summary.self_s >= 0.0)
    root = summary.total_of("trainer.train_multi")
    assert summary.traced_s() == pytest.approx(root, rel=1e-9)
    assert sum(summary.layer_self_s(layer) for layer in ("network", "loss", "trainer", "extract")) == pytest.approx(root)


def test_cli_spans_are_split_by_subcommand(tmp_path, capsys):
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["gen", "--preset", "square-low", "--out", str(tmp_path / "d.csv")]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary.calls_of("cli.main.gen") == 1
    assert summary.calls_of("datagen.generate") == 1
    assert summary.items_of("datagen.generate") == 100
    assert summary.items_of("datamodel.save_dataset") == (tmp_path / "d.csv").stat().st_size
    assert summary.counts["datamodel.datasets_built"] == 1


def test_uninstall_restores_every_binding(dataset):
    originals = (trainer.forward_batch, eqlbounds.forward_batch, eqlbounds.train, cli.main)
    post_init = eqlbounds.EqlNetwork.__post_init__
    tracer = Tracer()
    tracer.install()
    assert trainer.forward_batch is not originals[0]
    assert trainer.forward_batch is eqlbounds.network.forward_batch is eqlbounds.forward_batch
    tracer.uninstall()
    assert (trainer.forward_batch, eqlbounds.forward_batch, eqlbounds.train, cli.main) == originals
    assert eqlbounds.EqlNetwork.__post_init__ is post_init
    _fit(dataset, 1)
    assert len(tracer.start) == 0 and not tracer.counts
