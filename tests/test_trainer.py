"""Analytic gradients against finite differences, plus the descent loop."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlbounds import (
    Dataset,
    Direction,
    DivergenceError,
    EmptyDatasetError,
    EqlNetwork,
    Gradients,
    LinearCut,
    LossBreakdown,
    LossConfig,
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
    loss_from_errors,
    paper_dataset,
    save_dataset,
    train,
    train_multi,
    violation_rate,
)
from eqlbounds import cli, loss, trainer
from eqlbounds.datamodel import _load_json
from eqlbounds.network import collapse_affine_grad

from _oracles import (
    LAYOUTS,
    brute_force_p_gamma,
    central_difference,
    column_mean_epoch,
    column_mean_train,
    directional_errors,
    identity_rows,
    masked_train,
)


def loss_value(net, dataset, cfg):
    return loss_from_errors(forward_batch(net, dataset.points, cfg.direction), net, cfg)[0].z


def perturbed(net, which, index, delta):
    """Copy of ``net`` with one raw parameter shifted by ``delta``."""
    w_in, w_out, b_out = net.w_in.copy(), net.w_out.copy(), net.b_out
    if which == "w_in":
        w_in[index] += delta
    elif which == "w_out":
        w_out[index] += delta
    else:
        b_out += delta
    return EqlNetwork(w_in, w_out, b_out)


def fd_gradient(net, dataset, cfg, which, index, step=1e-6):
    return central_difference(
        lambda d: loss_value(perturbed(net, which, index, d), dataset, cfg), 0.0, step
    )


class TestGradients:
    def test_bias_gradient_of_zero_weight_net(self):
        net = EqlNetwork(np.zeros((1, 2)), np.zeros(2), 1.5)
        dataset = Dataset(np.full((4, 2), 3.0))
        cfg = LossConfig(gamma=100.0)
        _, grads = gradients(net, dataset, cfg)
        fd = fd_gradient(net, dataset, cfg, "b_out", None)
        assert grads.d_b_out == pytest.approx(fd, rel=1e-5)

    def test_ridge_term_is_exact(self):
        # A dataset whose per-feature sums are exactly zero makes the data
        # part of the readout gradient vanish, leaving only the l2 term.
        dataset = Dataset(np.array([[1.0, 2.0], [-1.0, -2.0]]))
        net = EqlNetwork(np.array([[0.3, -0.7], [1.1, 0.2]]), np.array([0.9, -1.4]), 0.25)
        cfg = LossConfig(alpha1=1.0, alpha2=0.0, alpha3=0.0, gamma=100.0, l1=0.0, l2=0.3)
        _, grads = gradients(net, dataset, cfg)
        assert np.array_equal(grads.d_w_out, 2.0 * 0.3 * net.w_out)

    @pytest.mark.parametrize("mask_threshold", [0.0, 1e-3], ids=["zero", "small"])
    def test_zero_weights_are_frozen_from_epoch_0_under_masking(self, mask_threshold):
        # gradients returns the raw gradient at zero weights; train zeroes it
        # under masking, so a zero weight never takes a step.  A threshold
        # of 0 is no masking: the zero weights move.
        rng = np.random.default_rng(2)
        dataset = Dataset(rng.uniform(-5, 25, size=(20, 2)))

        def start(dataset, seed):
            net = initialize(dataset, seed=seed)
            net.w_in[1, 0] = 0.0
            net.w_out[2] = -0.0
            return net

        _, grads = gradients(start(dataset, 0), dataset, LossConfig())
        assert grads.d_w_in[1, 0] != 0.0 and grads.d_w_out[2] != 0.0
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, mask_threshold=mask_threshold, seed=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "initialize", start)
            net, _ = train(dataset, LossConfig(), cfg)
        frozen = mask_threshold > 0
        assert bool(net.w_in[1, 0] == 0.0) is frozen and bool(net.w_out[2] == 0.0) is frozen

    def test_matches_finite_differences_everywhere(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 10))
            f = int(rng.integers(1, 4))
            n_identity, n_constant = LAYOUTS[rng.integers(len(LAYOUTS))]
            h = n_identity + n_constant
            w_out = rng.choice([-1.0, 1.0], size=h) * rng.uniform(0.1, 1.5, size=h)
            w_in = identity_rows(rng.standard_normal((h, f)), n_identity)
            net = EqlNetwork(w_in, w_out, float(rng.standard_normal()))
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
            for i, j in np.ndindex(w_in.shape):
                fd = fd_gradient(net, dataset, cfg, "w_in", (i, j))
                assert grads.d_w_in[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            for i in range(h):
                fd = fd_gradient(net, dataset, cfg, "w_out", i)
                assert grads.d_w_out[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            fd = fd_gradient(net, dataset, cfg, "b_out", None)
            assert grads.d_b_out == pytest.approx(fd, rel=1e-5, abs=1e-8)
            checked += 1
        assert checked >= 10

    def test_empty_dataset_rejected(self):
        net = EqlNetwork(np.ones((1, 2)), np.ones(1), 0.0)
        with pytest.raises(EmptyDatasetError):
            gradients(net, Dataset(np.empty((0, 2))), LossConfig())

    # N small and above 8 192.  On the grid, points and weights are small
    # multiples of 0.5, so predictions, and so errors, tie often;
    # all-constant networks tie every error.  ``near``, a nearby network's
    # subset rows, must change nothing.
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        f=st.integers(1, 4),
        layout=st.sampled_from(LAYOUTS),
        n=st.one_of(st.integers(1, 300), st.integers(8192, 8192 + 300)),
        alphas=st.tuples(*[st.sampled_from([0.0, 0.3, 1.0, 1.7])] * 3).filter(any),
        gamma=st.sampled_from([1.0, 5.0, 25.0, 100.0]),
        direction=st.sampled_from(list(Direction)),
        grid=st.booleans(),
        zeros=st.booleans(),
        with_near=st.booleans(),
    )
    def test_equals_the_dense_chain_rule(self, seed, f, layout, n, alphas, gamma, direction, grid, zeros, with_near):
        rng = np.random.default_rng(seed)
        n_identity, n_constant = layout
        h = n_identity + n_constant
        if grid:
            points = rng.integers(-3, 4, (n, f)) * 1.0
            w_in, w_out = rng.integers(-2, 3, (h, f)) * 0.5, rng.integers(-2, 3, h) * 0.5
            b_out = float(rng.integers(-4, 5)) * 0.25
        else:
            points = rng.uniform(-5, 25, (n, f))
            w_in, w_out, b_out = rng.standard_normal((h, f)), rng.standard_normal(h), float(rng.standard_normal())
        w_in[rng.random((h, f)) < (0.3 if zeros else 0.0)] = 0.0
        w_out[rng.random(h) < (0.3 if zeros else 0.0)] = 0.0
        w_in = identity_rows(w_in, n_identity)
        net = EqlNetwork(w_in, w_out, b_out)
        dataset = Dataset(points)
        a1, a2, a3 = alphas
        cfg = LossConfig(alpha1=a1, alpha2=a2, alpha3=a3, gamma=gamma, direction=direction)
        near = None
        if with_near:
            # The subset rows of a nearby network, as the previous epoch leaves them.
            moved = EqlNetwork(w_in + 0.01 * rng.standard_normal(w_in.shape), w_out, b_out)
            near = gradients(moved, dataset, cfg)[1].rows

        # dz/dpred as one dense vector, term by term, then the chain rule
        # through preds = points @ a + c.
        e = directional_errors(forward_batch(net, dataset), direction)
        idx = brute_force_p_gamma(e, gamma)
        worst = int(np.argmax(e))
        s = 1.0 if direction is Direction.LOWER else -1.0
        dz = np.full(n, -a1 * s / n)
        dz[idx] += (-2.0 * a2 / n * s) * e[idx]
        dz[worst] += -a3 * s * float(np.sign(e[worst]))
        want_a, want_c = points.T @ dz, float(np.add.reduce(dz))

        seen = []

        def spy(net, d_coeffs, d_offset):
            seen.append((d_coeffs.copy(), d_offset))
            return collapse_affine_grad(net, d_coeffs, d_offset)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "collapse_affine_grad", spy)
            _, grads = gradients(net, dataset, cfg, near)
        [(got_a, got_c)] = seen
        assert got_a.tolist() == pytest.approx(want_a.tolist(), rel=1e-12)
        assert got_c == grads.d_b_out == pytest.approx(want_c, rel=1e-12)
        assert np.array_equal(grads.subset, idx)
        assert np.array_equal(grads.rows, points[idx])
        # Every weight, zero or not, gets the raw chain-rule gradient.
        raw_in, raw_out = collapse_affine_grad(net, got_a, got_c)
        raw_out += cfg.l1 * np.sign(net.w_out) + 2.0 * cfg.l2 * net.w_out
        assert np.array_equal(grads.d_w_in, raw_in) and np.array_equal(grads.d_w_out, raw_out)

    def test_overflowing_gradient_is_returned_as_computed(self):
        # Predictions stay finite, but the readout gradient overflows.
        net = EqlNetwork(np.array([[1e154]]), np.array([1e-300]), 0.0)
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
            dataset, loss_cfg, TrainConfig(epochs=1, learning_rate=lr, mask_threshold=0.0, seed=seed)
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
                dataset, loss_cfg, TrainConfig(epochs=1, learning_rate=0.01, mask_threshold=0.0, seed=0)
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
        assert rep_a.records.tobytes() == rep_b.records.tobytes()
        assert rep_a.violation_rate == rep_b.violation_rate
        assert np.array_equal(rep_a.constraint.coeffs, rep_b.constraint.coeffs)

    def test_history_tracks_loss_at_epoch_start(self):
        dataset = self.small_dataset()
        loss_cfg = LossConfig()
        seed = 4
        start = initialize(dataset, seed=seed)
        _, report = train(
            dataset, loss_cfg, TrainConfig(epochs=3, learning_rate=1e-3, mask_threshold=0.0, seed=seed)
        )
        assert report.records[0, 0] == loss_value(start, dataset, loss_cfg)
        assert len(report.records) == 3

    @pytest.mark.parametrize("fit", ["train", "train_multi"])
    def test_records_are_one_read_only_float64_array(self, fit):
        dataset = self.small_dataset()
        epochs = 6
        if fit == "train":
            reports = [train(dataset, LossConfig(), TrainConfig(epochs=epochs, learning_rate=1e-3, seed=5))[1]]
        else:
            cfg = TrainConfig(epochs=epochs, learning_rate=1e-3, seed=5, runs=3)
            reports = [report for _, report in train_multi(dataset, LossConfig(), cfg)]
        for report in reports:
            records = report.records
            assert isinstance(records, np.ndarray)
            assert records.dtype == np.float64
            assert records.shape == (epochs, 5)
            assert records.flags.c_contiguous
            assert records.nbytes == 40 * epochs
            assert not records.flags.writeable
            with pytest.raises(ValueError):
                records.setflags(write=True)
            with pytest.raises(ValueError):
                records[0, 0] = 0.0

    def test_quadratic_reduction_is_monotone(self):
        dataset = self.small_dataset()
        loss_cfg = LossConfig(alpha1=0.0, alpha2=1.0, alpha3=0.0, gamma=100.0, l1=0.0, l2=0.0)
        _, report = train(
            dataset,
            loss_cfg,
            TrainConfig(epochs=200, learning_rate=1e-4, mask_threshold=0.0, seed=1),
        )
        z = report.records[:, 0]
        assert np.all(np.diff(z) <= 1e-12)

    def test_mask_permanence_via_prefix_replay(self):
        dataset = paper_dataset("square-high", seed=0)
        loss_cfg = LossConfig()
        # Determinism makes a t-epoch run the prefix of every longer run, so
        # the zero patterns after t = 1, 2, ... epochs are the run's own
        # epoch by epoch: a weight that is zero once stays zero.
        frozen = None
        for epochs in range(1, 61):
            net, _ = train(dataset, loss_cfg, TrainConfig(epochs=epochs, learning_rate=1e-3, seed=8))
            zero = np.concatenate([net.w_in.ravel(), net.w_out]) == 0.0
            if frozen is not None:
                assert np.all(zero[frozen]), f"a frozen weight moved at epoch {epochs}"
            frozen = zero
            plain, _ = train(
                dataset, loss_cfg, TrainConfig(epochs=epochs, learning_rate=1e-3, mask_threshold=0.0, seed=8)
            )
            assert np.all(plain.w_in != 0.0) and np.all(plain.w_out != 0.0)
        assert frozen.any()

    def test_divergence_reports_epoch(self):
        dataset = paper_dataset("square-high", seed=0)
        with pytest.raises(DivergenceError) as info:
            train(dataset, LossConfig(), TrainConfig(epochs=400, learning_rate=0.5, seed=0))
        assert info.value.epoch >= 1
        assert str(info.value.epoch) in str(info.value)

    # A step size of 1e308 overflows the first step, so epoch 1 is the first to
    # start from non-finite parameters; with one epoch it is also the count.
    @pytest.mark.parametrize("epochs", [5, 1], ids=["mid-run", "last-epoch"])
    @pytest.mark.parametrize("mask_threshold", [1e-3, 0.0], ids=["masked", "unmasked"])
    def test_overflowing_step_diverges_at_the_next_epoch(self, mask_threshold, epochs):
        cfg = TrainConfig(epochs=epochs, learning_rate=1e308, mask_threshold=mask_threshold)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as info:
                train(paper_dataset("square-low", seed=0), LossConfig(gamma=2.5), cfg)
        assert info.value.epoch == 1
        assert str(info.value) == "loss became non-finite at epoch 1"

    # The first loss is finite, but its gradient overflows, so the first step
    # leaves non-finite parameters and epoch 1 is the one that diverges.
    OVERFLOWING_GRADIENT = np.array([[1.1e154, 9e153]])

    @pytest.mark.parametrize("mask_threshold", [1e-3, 0.0], ids=["masked", "unmasked"])
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

    # Masking is on exactly at a positive threshold: at 0 no mask pass runs,
    # so each run builds only its initial network.
    @pytest.mark.parametrize(
        "mask_threshold, masks_per_epoch", [(0.0, 0), (1e-3, 1)], ids=["zero", "positive"]
    )
    def test_mask_pass_runs_only_at_a_positive_threshold(self, monkeypatch, mask_threshold, masks_per_epoch):
        built, masked = [], []
        post_init = EqlNetwork.__post_init__

        def counting_post_init(net):
            built.append(net)
            post_init(net)

        def spy(net, threshold):
            masked.append(threshold)
            return apply_mask(net, threshold)

        monkeypatch.setattr(EqlNetwork, "__post_init__", counting_post_init)
        monkeypatch.setattr(trainer, "apply_mask", spy)
        epochs, runs = 20, 3
        cfg = TrainConfig(epochs=epochs, learning_rate=1e-3, mask_threshold=mask_threshold, seed=3, runs=runs)
        assert len(train_multi(self.small_dataset(), LossConfig(), cfg)) == runs
        assert masked == [mask_threshold] * (masks_per_epoch * epochs * runs)
        assert len(built) == runs * (1 + masks_per_epoch * epochs)


class TestNearChangesNoDenseEpoch:
    def test_train_equals_a_loop_that_passes_no_near(self):
        # 2x10^4 points are below the screen's gate: from the second epoch
        # on train passes the previous subset rows as near, and a dense
        # epoch must give the same bits without them.
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
            grads.d_w_in[net.w_in == 0.0] = 0.0
            grads.d_w_out[net.w_out == 0.0] = 0.0
            net.w_in = net.w_in - lr * grads.d_w_in
            net.w_out = net.w_out - lr * grads.d_w_out
            net.b_out = net.b_out - lr * grads.d_b_out
            net = apply_mask(net, train_cfg.mask_threshold)
        constraint = extract_constraint(net, loss_cfg.direction)
        _, report = train(dataset, loss_cfg, train_cfg)

        assert len(report.records) == len(records)
        for epoch, (row, breakdown) in enumerate(zip(report.records, records)):
            assert row.tobytes() == np.array(tuple(breakdown)).tobytes(), f"epoch {epoch}"
        assert report.constraint.coeffs.tobytes() == constraint.coeffs.tobytes()
        assert report.constraint.bound.hex() == constraint.bound.hex()
        assert report.constraint.relation is constraint.relation
        assert report.violation_rate == violation_rate(constraint, dataset)
        # The subset moves, so near differs from the subset it must not change.
        assert any(not np.array_equal(a, b) for a, b in zip(subsets, subsets[1:]))


class TestInPlaceErrors:
    """``gradients`` takes the errors from its forward pass; the public path computes them from the predictions."""

    CUT_SQUARE = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0, Direction.LOWER),))

    @staticmethod
    def public_path(net, dataset, cfg):
        """The gather of ``gradients``, on what the public functions give as the errors."""
        e = directional_errors(forward_batch(net, dataset), cfg.direction)
        breakdown, fill, d_sub, subset = loss_from_errors(e, net, cfg)
        mean_weight = fill * dataset.n_points
        d_b_out = float(np.add.reduce(d_sub)) + mean_weight
        rows = dataset.points.take(subset, axis=0)
        d_coeffs = d_sub @ rows
        d_coeffs += mean_weight * dataset.column_means
        d_w_in, d_w_out = collapse_affine_grad(net, d_coeffs, d_b_out)
        d_w_out += cfg.l1 * np.sign(net.w_out) + 2.0 * cfg.l2 * net.w_out
        return breakdown, Gradients(d_w_in, d_w_out, d_b_out, subset, rows)

    @staticmethod
    def as_bytes(breakdown, grads):
        history = np.array(tuple(breakdown)).tobytes()
        grads_bytes = (grads.d_w_in.tobytes(), grads.d_w_out.tobytes(), grads.d_b_out.hex(), grads.subset.tobytes())
        return history, *grads_bytes, grads.rows.tobytes()

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("n", [600, 8192 + 600], ids=["small", "large"])
    @pytest.mark.parametrize("on_cut", [True, False], ids=["on-the-cut", "perturbed"])
    def test_same_bits_as_the_public_path(self, direction, n, on_cut):
        rng = np.random.default_rng(n)
        # One row in six lies on the cut x0 + 2*x1 = 4, on a grid, so the
        # network on the cut predicts exactly 0.0 there, many times over:
        # the offset -4 cancels the product exactly.  (Signed zeros in the
        # predictions and the offset are drawn in test_network.py.)
        t = rng.integers(-4, 5, n // 6) * 1.0
        on = np.column_stack([4.0 - 2.0 * t, t])
        points = np.vstack([generate(self.CUT_SQUARE, n - t.size, seed=0).points, on])
        dataset = Dataset(points[rng.permutation(n)])
        w_in = np.array([[1.0, 2.0]])
        if not on_cut:
            w_in = w_in + 0.01 * rng.standard_normal(w_in.shape)
        net = EqlNetwork(w_in, np.array([1.0, 0.0]), -4.0)
        cfg = LossConfig(direction=direction)
        if on_cut:
            assert np.count_nonzero(forward_batch(net, dataset) == 0.0) >= t.size

        moved = EqlNetwork(w_in + 0.01 * rng.standard_normal(w_in.shape), net.w_out, net.b_out)
        near = gradients(moved, dataset, cfg)[1].rows
        got = self.as_bytes(*gradients(net, dataset, cfg, near))
        assert got == self.as_bytes(*self.public_path(net, dataset, cfg))

    def test_a_dense_epoch_keeps_two_n_length_float_arrays(self):
        # The predictions, overwritten by the errors, and the selection's
        # negated copy of them are the only N-length float arrays; a copy
        # for the errors would make a third.
        dataset = generate(self.CUT_SQUARE, 50_000, seed=0)
        net = initialize(dataset, seed=0)
        for direction in Direction:
            cfg = LossConfig(direction=direction)
            near = gradients(net, dataset, cfg)[1].rows
            started = not tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                gradients(net, dataset, cfg, near)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if started:
                    tracemalloc.stop()
            assert peak < 2.5 * 8 * dataset.n_points, direction


def _bits(weights, report):
    """Every number a run leaves behind, as bytes: weights, records, constraint, rate."""
    w_in, w_out, b_out = weights
    c = report.constraint
    return (
        w_in.tobytes(),
        w_out.tobytes(),
        b_out.hex(),
        report.records.tobytes(),
        c.coeffs.tobytes(),
        c.bound.hex(),
        c.relation,
        report.violation_rate.hex(),
    )


class TestMatchesExplicitMasks:
    """``train``, which freezes zero weights, against the loop that kept boolean masks."""

    # square-low has 100 points and square-high 2 000; the cut square is
    # drawn above 8 192.
    @pytest.mark.parametrize("mask_threshold", [0.0, 1e-3, 0.05])
    @pytest.mark.parametrize(
        "name, epochs, seeds",
        [("square-low", 200, (8, 24, 25)), ("square-high", 200, (8, 24, 38)), ("cut-square", 40, (0, 8))],
    )
    def test_same_bits(self, name, epochs, seeds, mask_threshold):
        if name == "cut-square":
            spec = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0, Direction.LOWER),))
            dataset = generate(spec, 8192 + 500, seed=0)
        else:
            dataset = paper_dataset(name, seed=0)
        loss_cfg = LossConfig(gamma=2.5 if name == "square-low" else 5.0)
        for seed in seeds:
            cfg = TrainConfig(epochs=epochs, learning_rate=1e-3, mask_threshold=mask_threshold, seed=seed)
            want = _bits(*masked_train(dataset, loss_cfg, cfg))
            net, report = train(dataset, loss_cfg, cfg)
            assert _bits((net.w_in, net.w_out, net.b_out), report) == want, f"seed {seed}"


CUT_SQUARE = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0, Direction.LOWER),))


def _outcome(fit, *args):
    """What a fit leaves behind as bytes, or the epoch its DivergenceError names."""
    try:
        weights, report = fit(*args)
    except DivergenceError as exc:
        return ("diverged", exc.epoch)
    return _bits(weights, report)


def _train_weights(dataset, loss_cfg, train_cfg, cells=None):
    net, report = train(dataset, loss_cfg, train_cfg, cells)
    return (net.w_in, net.w_out, net.b_out), report


def _screen_data(kind, n, f, rng):
    """Points for the screened-train property: ties, duplicates and zero-width boxes included."""
    if kind == "grid":
        # Integers on a 7-wide grid: exact ties at the k-th error, and
        # cell boxes that share their faces.
        return rng.integers(-3, 4, size=(n, f)) * 1.0
    points = rng.uniform(-5.0, 25.0, size=(n, f))
    if kind == "duplicated":
        return points[rng.integers(0, max(1, n // 4), size=n)]
    if kind == "constant-column":
        points[:, 0] = 3.0
    return points


class TestScreenedTrain:
    """At or above the screening gate, ``train`` equals a plain loop that computes every error."""

    @given(
        direction=st.sampled_from(list(Direction)),
        mask_threshold=st.sampled_from([0.0, 1e-3]),
        f=st.sampled_from([1, 2]),
        kind=st.sampled_from(["uniform", "grid", "duplicated", "constant-column"]),
        # 10**6 rows per cell puts every row in one cell.
        cell_rows=st.sampled_from([1, 4, 16, 10**6]),
        gamma=st.sampled_from([2.5, 5.0, 30.0, 100.0]),
        learning_rate=st.sampled_from([1e-3, 0.05]),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_dense_oracle_bit_for_bit(
        self, direction, mask_threshold, f, kind, cell_rows, gamma, learning_rate, n, seed
    ):
        rng = np.random.default_rng(seed)
        dataset = Dataset(_screen_data(kind, n, f, rng))
        loss_cfg = LossConfig(gamma=gamma, direction=direction)
        train_cfg = TrainConfig(epochs=12, learning_rate=learning_rate, mask_threshold=mask_threshold, seed=seed % 7)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            # A dataset of one repeated value pins the initial bias, with a warning.
            warnings.filterwarnings("ignore", "dataset values are all identical", RuntimeWarning)
            want = _outcome(column_mean_train, dataset, loss_cfg, train_cfg)
            patch.setattr(trainer, "SCREEN_MIN_N", 1)
            patch.setattr(loss, "CELL_ROWS", cell_rows)
            assert _outcome(_train_weights, dataset, loss_cfg, train_cfg) == want

    @pytest.fixture(scope="class")
    def cut_squares(self):
        return {seed: generate(CUT_SQUARE, 200_000, seed=seed) for seed in range(3)}

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_at_the_real_gate(self, cut_squares, seed, direction, monkeypatch):
        dataset = cut_squares[seed]
        assert dataset.n_points >= trainer.SCREEN_MIN_N and dataset.n_features <= trainer.SCREEN_MAX_F
        computed = []
        column_errors = loss.column_errors

        def counted(points, *args):
            computed.append(points.shape[0])
            return column_errors(points, *args)

        monkeypatch.setattr(loss, "column_errors", counted)
        loss_cfg = LossConfig(direction=direction)
        train_cfg = TrainConfig(epochs=20, learning_rate=1e-3, seed=seed)
        got = _outcome(_train_weights, dataset, loss_cfg, train_cfg)
        assert got == _outcome(column_mean_train, dataset, loss_cfg, train_cfg)
        # The first epoch computes every error; each later one the errors at
        # the G cells' worst corners, the k = 10^4 at the previous subset,
        # then those of the cells that can reach the new one, far fewer than
        # all 2x10^5.
        assert computed[0] == dataset.n_points
        assert len(computed) == 1 + 3 * (train_cfg.epochs - 1)
        assert max(computed[1:]) < dataset.n_points // 10

    @pytest.mark.parametrize("mask_threshold", [0.0, 1e-3])
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("learning_rate", [1e150, 1e300])
    def test_an_overflowing_step_diverges_at_the_oracles_epoch(
        self, learning_rate, direction, mask_threshold, monkeypatch
    ):
        monkeypatch.setattr(trainer, "SCREEN_MIN_N", 1)
        monkeypatch.setattr(loss, "CELL_ROWS", 8)
        dataset = generate(CUT_SQUARE, 2_000, seed=3)
        loss_cfg = LossConfig(direction=direction)
        train_cfg = TrainConfig(epochs=30, learning_rate=learning_rate, mask_threshold=mask_threshold, seed=1)
        got = _outcome(_train_weights, dataset, loss_cfg, train_cfg)
        assert got[0] == "diverged"
        assert got == _outcome(column_mean_train, dataset, loss_cfg, train_cfg)

    @staticmethod
    def far_rows_dataset():
        # Two rows far out, at 1.5e308 on one axis each: a slope of 0.6 per
        # feature puts each row's own error at about +/-0.9e308, finite,
        # while a corner of a box that holds both sums two of them.
        points = np.vstack([generate(CUT_SQUARE, 500, seed=4).points, [[1.5e308, 0.0], [0.0, 1.5e308]]])
        return Dataset(points)

    @staticmethod
    def second_epoch(net, dataset, cfg, cells, monkeypatch):
        """A cold epoch, then one from its subset, against the dense oracle; returns its breakdown and the full passes."""
        full_passes = []
        p_gamma_subset = loss.p_gamma_subset

        def spy(e, gamma):
            full_passes.append(e.size)
            return p_gamma_subset(e, gamma)

        monkeypatch.setattr(loss, "p_gamma_subset", spy)
        near = gradients(net, dataset, cfg, cells=cells)[1].rows
        breakdown, grads = gradients(net, dataset, cfg, near, cells)
        want_breakdown, want_grads, want_subset = column_mean_epoch(net.w_in, net.w_out, net.b_out, dataset, cfg)
        assert np.array(tuple(breakdown)).tobytes() == np.array(want_breakdown).tobytes()
        got = (grads.d_w_in.tobytes(), grads.d_w_out.tobytes(), grads.d_b_out.hex(), grads.subset.tobytes())
        assert got == (want_grads[0].tobytes(), want_grads[1].tobytes(), want_grads[2].hex(), want_subset.tobytes())
        return breakdown, full_passes

    @pytest.mark.parametrize("direction", list(Direction))
    def test_far_rows_on_the_bounded_side_are_screened(self, direction, monkeypatch):
        dataset = self.far_rows_dataset()
        monkeypatch.setattr(loss, "CELL_ROWS", 10**6)
        cells = loss.build_cell_index(dataset.points)
        # a = s * (0.6, 0.6) puts the far rows' errors at about -0.9e308, and
        # the one cell's worst corner at its lows: a finite bound.
        sign = 1.0 if direction is Direction.LOWER else -1.0
        net = EqlNetwork(np.eye(2), sign * np.array([0.6, 0.6]), sign * -4.0)
        cfg = LossConfig(direction=direction)
        breakdown, full_passes = self.second_epoch(net, dataset, cfg, cells, monkeypatch)
        assert full_passes == [dataset.n_points]
        with np.errstate(over="ignore"):
            # The dense epoch's term_e sums the two far errors, to -inf.
            dense_z = gradients(net, dataset, cfg)[0].z
        assert math.isfinite(breakdown.z) and dense_z == -math.inf

    @pytest.mark.parametrize("direction", list(Direction))
    def test_far_rows_in_cells_of_their_own_are_screened(self, direction, monkeypatch):
        dataset = self.far_rows_dataset()
        cells = loss.build_cell_index(dataset.points)
        far = np.searchsorted(cells.starts, np.flatnonzero(cells.order >= 500), side="right") - 1
        assert np.diff(cells.starts)[far].tolist() == [1, 1]
        # a = s * (0.7, 0.7): each far row is its own cell's worst corner.
        sign = 1.0 if direction is Direction.LOWER else -1.0
        net = EqlNetwork(np.eye(2), sign * np.array([0.7, 0.7]), sign * -4.0)
        _, full_passes = self.second_epoch(net, dataset, LossConfig(direction=direction), cells, monkeypatch)
        assert full_passes == [dataset.n_points]

    @pytest.mark.parametrize("direction", list(Direction))
    def test_a_worst_corner_that_overflows_takes_a_full_pass(self, direction, monkeypatch):
        dataset = self.far_rows_dataset()
        monkeypatch.setattr(loss, "CELL_ROWS", 10**6)
        cells = loss.build_cell_index(dataset.points)
        # a = -s * (0.6, 0.6) puts the far rows' errors at about +0.9e308, and
        # the one cell's worst corner at (1.5e308, 1.5e308), whose error overflows.
        sign = 1.0 if direction is Direction.LOWER else -1.0
        net = EqlNetwork(np.eye(2), -sign * np.array([0.6, 0.6]), sign * -4.0)
        # The far rows in the subset overflow its squares and the gradient, as in a dense epoch.
        with np.errstate(over="ignore", invalid="ignore"):
            _, full_passes = self.second_epoch(net, dataset, LossConfig(direction=direction), cells, monkeypatch)
        assert full_passes == [dataset.n_points, dataset.n_points]

    @pytest.mark.parametrize("direction", list(Direction))
    def test_far_rows_diverge_at_the_oracles_epoch(self, direction, monkeypatch):
        # The initial bias is drawn from the data's range, so the far rows
        # make it about 1e307 and the subset's squares overflow: the run
        # diverges at the same epoch as the oracle, through the full-pass
        # fallback.
        monkeypatch.setattr(trainer, "SCREEN_MIN_N", 1)
        dataset = self.far_rows_dataset()
        loss_cfg = LossConfig(direction=direction)
        train_cfg = TrainConfig(epochs=5, learning_rate=1e-3, seed=0)
        got = _outcome(_train_weights, dataset, loss_cfg, train_cfg)
        assert got[0] == "diverged"
        assert got == _outcome(column_mean_train, dataset, loss_cfg, train_cfg)

    def test_cells_of_other_points_are_rejected(self):
        dataset = generate(CUT_SQUARE, 300, seed=0)
        copy = Dataset(dataset.points)
        cells = loss.build_cell_index(copy.points)
        net = initialize(dataset, seed=0)
        with pytest.raises(ValueError, match="^cells must be the cell index of this dataset's points$"):
            gradients(net, dataset, LossConfig(), cells=cells)
        gradients(net, copy, LossConfig(), cells=cells)

    def test_a_given_cell_index_is_used_and_none_is_built(self, monkeypatch):
        # Below the gate a given index still screens the run; train builds none of its own.
        dataset = generate(CUT_SQUARE, 2_000, seed=5)
        cells = loss.build_cell_index(dataset.points)
        built = []
        monkeypatch.setattr(trainer, "build_cell_index", lambda points: built.append(points))
        loss_cfg, train_cfg = LossConfig(), TrainConfig(epochs=12, learning_rate=1e-3, seed=2)
        got = _outcome(lambda *args: _train_weights(*args, cells), dataset, loss_cfg, train_cfg)
        assert got == _outcome(column_mean_train, dataset, loss_cfg, train_cfg)
        assert built == []

    def test_each_screened_epoch_starts_from_the_previous_subset_rows(self, monkeypatch):
        monkeypatch.setattr(trainer, "SCREEN_MIN_N", 1)
        calls = []
        real = trainer.gradients

        def spy(net, dataset, cfg, near, cells):
            breakdown, grads = real(net, dataset, cfg, near, cells)
            calls.append((near, grads))
            return breakdown, grads

        monkeypatch.setattr(trainer, "gradients", spy)
        dataset = generate(CUT_SQUARE, 2_000, seed=6)
        train(dataset, LossConfig(), TrainConfig(epochs=6, learning_rate=1e-3))
        assert calls[0][0] is None
        for (_, before), (near, grads) in zip(calls, calls[1:]):
            assert near is before.rows
            assert np.array_equal(grads.rows, dataset.points[grads.subset])

    def test_below_the_gate_no_index_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(trainer, "build_cell_index", lambda points: built.append(points))
        train(generate(CUT_SQUARE, trainer.SCREEN_MIN_N - 1, seed=0), LossConfig(), TrainConfig(epochs=2))
        points = np.zeros((trainer.SCREEN_MIN_N, trainer.SCREEN_MAX_F + 1))
        points[:, 0] = np.arange(trainer.SCREEN_MIN_N)
        train(Dataset(points), LossConfig(), TrainConfig(epochs=2))
        assert built == []


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
        assert report.records.tobytes() == solo_report.records.tobytes()
        assert report.violation_rate == solo_report.violation_rate

    def test_runs_at_the_gate_share_one_cell_index(self, monkeypatch):
        dataset = generate(CUT_SQUARE, 70_000, seed=0)
        assert dataset.n_points >= trainer.SCREEN_MIN_N and dataset.n_features <= trainer.SCREEN_MAX_F
        loss_cfg = LossConfig()
        solo = {
            seed: train(dataset, loss_cfg, TrainConfig(epochs=5, learning_rate=1e-3, seed=seed))[1] for seed in (24, 25)
        }
        built = []
        build_cell_index = trainer.build_cell_index
        monkeypatch.setattr(trainer, "build_cell_index", lambda points: built.append(points) or build_cell_index(points))
        results = train_multi(dataset, loss_cfg, TrainConfig(epochs=5, learning_rate=1e-3, seed=24, runs=2))
        assert len(built) == 1
        assert sorted(report.seed for _, report in results) == [24, 25]
        for _, report in results:
            want = solo[report.seed]
            assert report.records.tobytes() == want.records.tobytes()
            assert report.constraint.coeffs.tobytes() == want.constraint.coeffs.tobytes()
            assert report.constraint.bound.hex() == want.constraint.bound.hex()
            assert report.constraint.relation is want.constraint.relation
            assert report.violation_rate == want.violation_rate

    def test_train_refuses_several_runs_naming_train_multi(self):
        dataset = paper_dataset("square-low", seed=0)
        with pytest.raises(ValueError, match=r"^train fits one seed, got runs=2; use train_multi for several$"):
            train(dataset, LossConfig(gamma=2.5), TrainConfig(epochs=5, learning_rate=1e-3, runs=2))

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
    def test_csv_round_trip(self, tmp_path, monkeypatch):
        # Each cell is checked against the named field of the breakdown that
        # gradients returned at that epoch, not against the array it was written from.
        breakdowns = []
        real_gradients = trainer.gradients

        def spy(*args):
            breakdown, grads = real_gradients(*args)
            breakdowns.append(breakdown)
            return breakdown, grads

        monkeypatch.setattr(trainer, "gradients", spy)
        dataset = paper_dataset("square-low", seed=0)
        _, report = train(dataset, LossConfig(), TrainConfig(epochs=5, learning_rate=1e-3, seed=2))
        path = tmp_path / "history.csv"
        export_history_csv(report, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        names = list(LossBreakdown._fields)
        assert names == ["z", "term_e", "term_p", "term_anchor", "term_reg"]
        assert lines[0].split(",") == ["epoch", *names]
        assert len(lines) == 1 + len(report.records) == 1 + len(breakdowns) == 6
        # A breakdown is its own row of the records.
        for row, breakdown in zip(report.records, breakdowns):
            assert row.tobytes() == np.array(tuple(breakdown)).tobytes()
        for epoch, (line, breakdown) in enumerate(zip(lines[1:], breakdowns)):
            cells = line.split(",")
            assert int(cells[0]) == epoch
            assert [float(cell) for cell in cells[1:]] == [getattr(breakdown, name) for name in names]


class TestConfigLoading:
    def test_defaults_when_empty(self):
        loss_cfg, train_cfg = configs_from_mapping({})
        assert loss_cfg == LossConfig()
        assert train_cfg == TrainConfig()

    def test_split_and_override(self):
        loss_cfg, train_cfg = configs_from_mapping(
            {"alpha2": 0.25, "gamma": 2.5, "direction": "upper", "epochs": 10, "mask_threshold": 0, "l1": 0}
        )
        assert loss_cfg.alpha2 == 0.25
        assert loss_cfg.l1 == 0
        assert loss_cfg.gamma == 2.5
        assert loss_cfg.direction is Direction.UPPER
        assert train_cfg.epochs == 10
        assert train_cfg.mask_threshold == 0.0

    def test_unknown_direction_rejected_naming_the_key(self):
        with pytest.raises(ValueError) as raised:
            configs_from_mapping({"direction": "sideways"})
        assert str(raised.value) == "direction must be 'lower' or 'upper', got 'sideways'"

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
        loss_cfg, train_cfg = _load_json(path, "config", configs_from_mapping)
        assert loss_cfg.gamma == 7.5
        assert train_cfg.runs == 2

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError):
            _load_json(path, "config", configs_from_mapping)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            _load_json(path, "config", configs_from_mapping)
