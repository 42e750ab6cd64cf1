"""Analytic gradients against finite differences, plus the descent loop."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from eqlbounds import (
    Dataset,
    Direction,
    DivergenceError,
    EmptyDatasetError,
    EqlNetwork,
    LinearCut,
    LossBreakdown,
    LossConfig,
    Primitive,
    RegionSpec,
    TrainConfig,
    apply_mask,
    configs_from_mapping,
    export_history_csv,
    extract_constraint,
    forward_batch,
    generate,
    gradients,
    initialize,
    loss_and_pred_grad,
    paper_dataset,
    save_dataset,
    train,
    train_multi,
    violation_rate,
)
from eqlbounds import cli, loss
from eqlbounds.datamodel import read_json_object

from _oracles import central_difference

ID = Primitive.IDENTITY
CONST = Primitive.CONSTANT


def loss_value(net, dataset, cfg):
    preds = forward_batch(net, dataset.points)
    return loss_and_pred_grad(preds, net, cfg)[0].z


def perturbed(net, which, index, delta):
    """Copy of ``net`` with one raw parameter shifted by ``delta``."""
    w_in, w_out, b_out = net.w_in.copy(), net.w_out.copy(), net.b_out
    if which == "w_in":
        w_in[index] += delta
    elif which == "w_out":
        w_out[index] += delta
    else:
        b_out += delta
    return EqlNetwork(w_in, net.primitives, w_out, b_out)


def fd_gradient(net, dataset, cfg, which, index, step=1e-6):
    return central_difference(
        lambda d: loss_value(perturbed(net, which, index, d), dataset, cfg), 0.0, step
    )


class TestGradients:
    def test_bias_gradient_of_zero_weight_net(self):
        net = EqlNetwork(np.zeros((2, 2)), (ID, CONST), np.zeros(2), 1.5)
        dataset = Dataset(np.full((4, 2), 3.0))
        cfg = LossConfig(gamma=100.0)
        _, grads = gradients(net, dataset, cfg)
        fd = fd_gradient(net, dataset, cfg, "b_out", None)
        assert grads.d_b_out == pytest.approx(fd, rel=1e-5)

    def test_ridge_term_is_exact(self):
        # A dataset whose per-feature sums are exactly zero makes the data
        # part of the readout gradient vanish, leaving only the l2 term.
        dataset = Dataset(np.array([[1.0, 2.0], [-1.0, -2.0]]))
        net = EqlNetwork(np.array([[0.3, -0.7], [1.1, 0.2]]), (ID, ID), np.array([0.9, -1.4]), 0.25)
        cfg = LossConfig(alpha1=1.0, alpha2=0.0, alpha3=0.0, gamma=100.0, l1=0.0, l2=0.3)
        _, grads = gradients(net, dataset, cfg)
        assert np.array_equal(grads.d_w_out, 2.0 * 0.3 * net.w_out)

    def test_masked_positions_get_zero_gradient(self):
        rng = np.random.default_rng(2)
        w_in = rng.standard_normal((3, 2))
        w_in[1, 0] = 0.0
        w_out = rng.standard_normal(3)
        w_out[2] = 0.0
        net = EqlNetwork(
            w_in,
            (ID, ID, ID),
            w_out,
            0.5,
            mask_in=np.array([[False, False], [True, False], [False, False]]),
            mask_out=np.array([False, False, True]),
        )
        dataset = Dataset(rng.uniform(-5, 25, size=(20, 2)))
        _, grads = gradients(net, dataset, LossConfig())
        assert grads.d_w_in[1, 0] == 0.0
        assert grads.d_w_out[2] == 0.0
        assert np.any(grads.d_w_in != 0.0)

    def test_matches_finite_differences_everywhere(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 10))
            f = int(rng.integers(1, 4))
            h = int(rng.integers(1, 4))
            prims = tuple(ID if rng.random() < 0.7 else CONST for _ in range(h))
            w_out = rng.choice([-1.0, 1.0], size=h) * rng.uniform(0.1, 1.5, size=h)
            net = EqlNetwork(rng.standard_normal((h, f)), prims, w_out, float(rng.standard_normal()))
            dataset = Dataset(rng.uniform(-2, 2, size=(n, f)))
            cfg = LossConfig(
                alpha1=float(rng.uniform(0.1, 1.5)),
                alpha2=float(rng.uniform(0.1, 1.5)),
                alpha3=float(rng.uniform(0.1, 1.5)),
                gamma=float(rng.choice([25.0, 50.0, 100.0])),
                direction=Direction.LOWER if rng.random() < 0.5 else Direction.UPPER,
                l1=float(rng.uniform(0, 0.1)),
                l2=float(rng.uniform(0, 0.1)),
            )
            preds = forward_batch(net, dataset.points)
            e = np.sort(np.abs(preds))
            gaps = np.diff(np.sort(preds))
            # Skip configurations near a subset-membership or argmax tie,
            # where the loss is not differentiable.
            if e.min() < 1e-4 or (gaps.size and gaps.min() < 1e-4):
                continue
            _, grads = gradients(net, dataset, cfg)
            for i in range(h):
                for j in range(f):
                    fd = fd_gradient(net, dataset, cfg, "w_in", (i, j))
                    assert grads.d_w_in[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
                fd = fd_gradient(net, dataset, cfg, "w_out", i)
                assert grads.d_w_out[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            fd = fd_gradient(net, dataset, cfg, "b_out", None)
            assert grads.d_b_out == pytest.approx(fd, rel=1e-5, abs=1e-8)
            checked += 1
        assert checked >= 10

    def test_empty_dataset_rejected(self):
        net = EqlNetwork(np.ones((1, 2)), (ID,), np.ones(1), 0.0)
        with pytest.raises(EmptyDatasetError):
            gradients(net, Dataset(np.empty((0, 2))), LossConfig())

    def test_overflowing_gradient_is_returned_as_computed(self):
        # Predictions stay finite, but the readout gradient overflows.
        net = EqlNetwork(np.array([[1e154]]), (ID,), np.array([1e-300]), 0.0)
        dataset = Dataset(np.array([[1e154]]))
        with np.errstate(over="ignore"):
            breakdown, grads = gradients(net, dataset, LossConfig(gamma=100.0))
        assert np.isfinite(breakdown.z)
        assert np.isinf(grads.d_w_out).any()


class TestTrain:
    def small_dataset(self):
        rng = np.random.default_rng(5)
        return Dataset(rng.uniform(-5, 25, size=(30, 2)))

    def test_single_step_moves_by_lr_times_gradient(self):
        dataset = self.small_dataset()
        loss_cfg = LossConfig()
        seed = 3
        start = initialize(dataset, seed=seed)
        _, grads = gradients(start, dataset, loss_cfg)
        lr = 1e-3
        net, report = train(
            dataset, loss_cfg, TrainConfig(epochs=1, learning_rate=lr, mask_threshold=None, seed=seed)
        )
        assert np.array_equal(net.w_in, start.w_in - lr * grads.d_w_in)
        assert np.array_equal(net.w_out, start.w_out - lr * grads.d_w_out)
        assert net.b_out == start.b_out - lr * grads.d_b_out
        assert len(report.records) == 1

    def test_single_step_on_zero_variance_data(self):
        dataset = Dataset(np.full((5, 2), 2.0))
        loss_cfg = LossConfig()
        with pytest.warns(RuntimeWarning):
            start = initialize(dataset, seed=0)
        _, grads = gradients(start, dataset, loss_cfg)
        with pytest.warns(RuntimeWarning):
            net, _ = train(
                dataset, loss_cfg, TrainConfig(epochs=1, learning_rate=0.01, mask_threshold=None, seed=0)
            )
        assert np.array_equal(net.w_in, start.w_in - 0.01 * grads.d_w_in)

    def test_deterministic_given_seed(self):
        dataset = self.small_dataset()
        cfg = TrainConfig(epochs=25, learning_rate=1e-3, seed=9)
        net_a, rep_a = train(dataset, LossConfig(), cfg)
        net_b, rep_b = train(dataset, LossConfig(), cfg)
        assert np.array_equal(net_a.w_in, net_b.w_in)
        assert np.array_equal(net_a.w_out, net_b.w_out)
        assert net_a.b_out == net_b.b_out
        assert rep_a.records == rep_b.records
        assert rep_a.violation_rate == rep_b.violation_rate
        assert np.array_equal(rep_a.constraint.coeffs, rep_b.constraint.coeffs)

    def test_history_tracks_loss_at_epoch_start(self):
        dataset = self.small_dataset()
        loss_cfg = LossConfig()
        seed = 4
        start = initialize(dataset, seed=seed)
        _, report = train(
            dataset, loss_cfg, TrainConfig(epochs=3, learning_rate=1e-3, mask_threshold=None, seed=seed)
        )
        assert report.records[0].z == loss_value(start, dataset, loss_cfg)
        assert len(report.records) == 3

    def test_quadratic_reduction_is_monotone(self):
        dataset = self.small_dataset()
        loss_cfg = LossConfig(alpha1=0.0, alpha2=1.0, alpha3=0.0, gamma=100.0, l1=0.0, l2=0.0)
        _, report = train(
            dataset,
            loss_cfg,
            TrainConfig(epochs=200, learning_rate=1e-4, mask_threshold=None, seed=1),
        )
        z = np.array([r.z for r in report.records])
        assert np.all(np.diff(z) <= 1e-12)

    def test_mask_permanence_via_prefix_replay(self):
        dataset = paper_dataset("square-high", seed=0)
        loss_cfg = LossConfig()
        short_net, _ = train(
            dataset, loss_cfg, TrainConfig(epochs=150, learning_rate=1e-3, seed=8)
        )
        long_net, _ = train(
            dataset, loss_cfg, TrainConfig(epochs=400, learning_rate=1e-3, seed=8)
        )
        # Determinism makes the 400-epoch run replay the 150-epoch run's
        # trajectory, so anything masked at epoch 150 must still be masked
        # and exactly zero at epoch 400.
        assert short_net.mask_in.any() or short_net.mask_out.any()
        assert np.all(long_net.mask_in[short_net.mask_in])
        assert np.all(long_net.mask_out[short_net.mask_out])
        assert np.all(long_net.w_in[short_net.mask_in] == 0.0)
        assert np.all(long_net.w_out[short_net.mask_out] == 0.0)

    def test_divergence_reports_epoch(self):
        dataset = paper_dataset("square-high", seed=0)
        with pytest.raises(DivergenceError) as info:
            train(dataset, LossConfig(), TrainConfig(epochs=400, learning_rate=0.5, seed=0))
        assert info.value.epoch >= 1
        assert str(info.value.epoch) in str(info.value)

    # A step size of 1e308 overflows the first step, so epoch 1 is the first to
    # start from non-finite parameters; with one epoch it is also the count.
    @pytest.mark.parametrize("epochs", [5, 1], ids=["mid-run", "last-epoch"])
    @pytest.mark.parametrize("mask_threshold", [1e-3, None], ids=["masked", "unmasked"])
    def test_overflowing_step_diverges_at_the_next_epoch(self, mask_threshold, epochs):
        cfg = TrainConfig(epochs=epochs, learning_rate=1e308, mask_threshold=mask_threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as info:
                train(paper_dataset("square-low", seed=0), LossConfig(gamma=2.5), cfg)
        assert info.value.epoch == 1
        assert "epoch 1" in str(info.value)

    # The first loss is finite, but its gradient overflows, so the first step
    # leaves non-finite parameters and epoch 1 is the one that diverges.
    OVERFLOWING_GRADIENT = np.array([[1.1e154, 9e153]])

    @pytest.mark.parametrize("mask_threshold", [1e-3, None], ids=["masked", "unmasked"])
    def test_overflowing_gradient_diverges_at_the_next_epoch(self, mask_threshold):
        cfg = TrainConfig(epochs=2, learning_rate=1e-3, mask_threshold=mask_threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                train(Dataset(self.OVERFLOWING_GRADIENT), LossConfig(gamma=100.0), cfg)
        assert info.value.epoch == 1
        assert "epoch 1" in str(info.value)

    def test_overflowing_gradient_exits_3_through_the_cli(self, tmp_path, capsys):
        data, out_dir = tmp_path / "d.csv", tmp_path / "runs"
        save_dataset(Dataset(self.OVERFLOWING_GRADIENT), data)
        argv = ["train", "--data", str(data), "--out-dir", str(out_dir)]
        argv += ["--gamma", "100", "--epochs", "2", "--learning-rate", "1e-3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 3
        assert "epoch 1" in capsys.readouterr().err

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            train(Dataset(np.empty((0, 2))), LossConfig(), TrainConfig())


class TestWarmStart:
    def test_train_equals_a_loop_that_starts_every_epoch_cold(self, monkeypatch):
        # 2x10^4 points are above the warm-start gate, so from the second
        # epoch on train selects the subset from the previous one's.
        spec = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0, Direction.LOWER),))
        dataset = generate(spec, 20_000, seed=0)
        loss_cfg = LossConfig()
        train_cfg = TrainConfig(epochs=30, learning_rate=1e-3, seed=2)
        lr = train_cfg.learning_rate
        net = initialize(dataset, seed=train_cfg.seed)
        records, subsets = [], []
        for _ in range(train_cfg.epochs):
            breakdown, grads = gradients(net, dataset, loss_cfg, near=None)
            records.append(breakdown)
            subsets.append(grads.subset)
            net.w_in = net.w_in - lr * grads.d_w_in
            net.w_out = net.w_out - lr * grads.d_w_out
            net.b_out = net.b_out - lr * grads.d_b_out
            net = apply_mask(net, train_cfg.mask_threshold)
        constraint = extract_constraint(net, loss_cfg.direction)

        starts = []
        cold_subset = loss.p_gamma_subset

        def spy(e, gamma, near=None):
            starts.append(near)
            return cold_subset(e, gamma, near)

        monkeypatch.setattr(loss, "p_gamma_subset", spy)
        _, report = train(dataset, loss_cfg, train_cfg)

        history = np.array([dataclasses.astuple(r) for r in report.records])
        assert history.tobytes() == np.array([dataclasses.astuple(r) for r in records]).tobytes()
        assert report.constraint.coeffs.tobytes() == constraint.coeffs.tobytes()
        assert report.constraint.bound.hex() == constraint.bound.hex()
        assert report.constraint.relation is constraint.relation
        assert report.violation_rate == violation_rate(constraint, dataset)
        # The first epoch starts cold; every later one from the subset before it.
        assert starts[0] is None
        assert all(np.array_equal(a, b) for a, b in zip(starts[1:], subsets))
        # The subset moves, so the warm start has entrants to find.
        assert any(not np.array_equal(a, b) for a, b in zip(subsets, subsets[1:]))


class TestTrainMulti:
    def test_single_run_equals_train(self):
        dataset = paper_dataset("square-low", seed=0)
        loss_cfg = LossConfig(gamma=2.5)
        cfg = TrainConfig(epochs=30, learning_rate=1e-3, seed=21, runs=1)
        results = train_multi(dataset, loss_cfg, cfg)
        assert len(results) == 1
        net, report = results[0]
        solo_net, solo_report = train(dataset, loss_cfg, TrainConfig(epochs=30, learning_rate=1e-3, seed=21))
        assert np.array_equal(net.w_in, solo_net.w_in)
        assert report.records == solo_report.records
        assert report.violation_rate == solo_report.violation_rate

    def test_runs_are_seeded_consecutively_and_sorted(self):
        dataset = paper_dataset("square-low", seed=0)
        cfg = TrainConfig(epochs=40, learning_rate=1e-3, seed=24, runs=4)
        results = train_multi(dataset, LossConfig(gamma=2.5), cfg)
        assert sorted(r.seed for _, r in results) == [24, 25, 26, 27]
        rates = [r.violation_rate for _, r in results]
        assert rates == sorted(rates)

    def test_reproducible(self):
        dataset = paper_dataset("square-low", seed=0)
        cfg = TrainConfig(epochs=20, learning_rate=1e-3, seed=0, runs=3)
        first = train_multi(dataset, LossConfig(gamma=2.5), cfg)
        second = train_multi(dataset, LossConfig(gamma=2.5), cfg)
        for (_, a), (_, b) in zip(first, second):
            assert a.seed == b.seed
            assert a.violation_rate == b.violation_rate
            assert np.array_equal(a.constraint.coeffs, b.constraint.coeffs)


class TestHistoryExport:
    def test_csv_round_trip(self, tmp_path):
        dataset = paper_dataset("square-low", seed=0)
        _, report = train(dataset, LossConfig(), TrainConfig(epochs=5, learning_rate=1e-3, seed=2))
        path = tmp_path / "history.csv"
        export_history_csv(report, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        names = [f.name for f in dataclasses.fields(LossBreakdown)]
        assert names == ["z", "term_e", "term_p", "term_anchor", "term_reg"]
        assert lines[0].split(",") == ["epoch", *names]
        assert len(lines) == 1 + len(report.records) == 6
        for epoch, (line, record) in enumerate(zip(lines[1:], report.records)):
            cells = line.split(",")
            assert int(cells[0]) == epoch
            assert [float(cell) for cell in cells[1:]] == [getattr(record, name) for name in names]


class TestConfigLoading:
    def test_defaults_when_empty(self):
        loss_cfg, train_cfg = configs_from_mapping({})
        assert loss_cfg == LossConfig()
        assert train_cfg == TrainConfig()

    def test_split_and_override(self):
        loss_cfg, train_cfg = configs_from_mapping(
            {"alpha2": 0.25, "gamma": 2.5, "direction": "upper", "epochs": 10, "mask_threshold": None, "l1": 0}
        )
        assert loss_cfg.alpha2 == 0.25
        assert loss_cfg.l1 == 0
        assert loss_cfg.gamma == 2.5
        assert loss_cfg.direction is Direction.UPPER
        assert train_cfg.epochs == 10
        assert train_cfg.mask_threshold is None

    def test_unknown_direction_rejected_naming_the_key(self):
        with pytest.raises(ValueError) as raised:
            configs_from_mapping({"direction": "sideways"})
        assert str(raised.value) == "config key 'direction' must be 'lower' or 'upper', got 'sideways'"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="learning_rte"):
            configs_from_mapping({"learning_rte": 1e-3})

    @pytest.mark.parametrize(
        "payload",
        [{"epochs": "10"}, {"epochs": 10.5}, {"runs": 2.5}, {"seed": 1.5}, {"seed": -1}, {"alpha1": None}, {"epochs": True}],
        ids=repr,
    )
    def test_mistyped_value_rejected_before_training(self, payload, tmp_path, capsys):
        (key,) = payload
        with pytest.raises(ValueError, match=key):
            configs_from_mapping(payload)
        data, cfg, out_dir = tmp_path / "d.csv", tmp_path / "cfg.json", tmp_path / "runs"
        save_dataset(Dataset(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])), data)
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["train", "--data", str(data), "--out-dir", str(out_dir), "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 7.5, "runs": 2}), encoding="utf-8")
        loss_cfg, train_cfg = configs_from_mapping(read_json_object(path, "config"))
        assert loss_cfg.gamma == 7.5
        assert train_cfg.runs == 2

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError):
            configs_from_mapping(read_json_object(path, "config"))
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            configs_from_mapping(read_json_object(path, "config"))
