"""The three loss terms, the percentile subset, and their composition."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqlbounds import (
    Direction,
    EqlNetwork,
    LossConfig,
    loss_from_errors,
    p_gamma_subset,
)
from eqlbounds import loss
from eqlbounds.loss import WARM_START_MIN_N, build_cell_index, screened_subset
from eqlbounds.network import column_errors

from _oracles import brute_force_p_gamma, directional_errors


def reg_net(w_out):
    w_out = np.asarray(w_out, dtype=float)
    h = w_out.size
    return EqlNetwork(np.zeros((h, 1)), w_out, 0.0)


def isolated_breakdown(preds, **cfg):
    """The loss breakdown with the output weight 1.0 and no regularization."""
    cfg = LossConfig(**{"l1": 0.0, "l2": 0.0, **cfg})
    return loss_from_errors(directional_errors(preds, cfg.direction), reg_net([1.0]), cfg)[0]


def reg_term(net, l1, l2):
    """The regularization term of the loss at a perfect fit."""
    return loss_from_errors(np.zeros(1), net, LossConfig(l1=l1, l2=l2))[0].term_reg


class TestTermE:
    # UPPER errors are the predictions themselves.
    def test_weighted_mean(self):
        assert isolated_breakdown([-2.0, -4.0], alpha1=1.0, direction=Direction.UPPER).term_e == -3.0

    def test_zero_errors(self):
        assert isolated_breakdown(np.zeros(3), alpha1=7.0, direction=Direction.UPPER).term_e == 0.0

    def test_alpha_scales(self):
        assert isolated_breakdown([1.0, 2.0, 3.0], alpha1=0.5, direction=Direction.UPPER).term_e == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            isolated_breakdown(np.array([]), alpha1=1.0)


class TestPGammaSubset:
    def test_picks_single_largest(self):
        idx = p_gamma_subset(np.array([-10.0, -1.0, -5.0, -0.2]), 25.0)
        assert list(idx) == [3]

    def test_full_percentile_is_everything(self):
        assert list(p_gamma_subset(np.array([1.0, 2.0, 3.0]), 100.0)) == [0, 1, 2]

    def test_ties_break_toward_lower_index(self):
        assert list(p_gamma_subset(np.array([5.0, 5.0, 5.0, 5.0]), 50.0)) == [0, 1]

    def test_subset_never_empty(self):
        assert list(p_gamma_subset(np.array([3.0, 1.0]), 1.0)) == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        gammas = [1.0, 2.5, 5.0, 25.0, 50.0, 100.0]
        for trial in range(300):
            n = int(rng.integers(1, 65))
            # Quantized values force plenty of exact ties.
            e = np.round(rng.standard_normal(n), 1)
            gamma = gammas[trial % len(gammas)]
            assert list(p_gamma_subset(e, gamma)) == brute_force_p_gamma(e, gamma)

    # A small pool of values makes ties, signed zeros, infinities and NaN
    # common; arbitrary floats fill the rest.
    @settings(max_examples=300, deadline=None)
    @given(
        e=st.lists(
            st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 0.5]), st.floats()),
            min_size=1,
            max_size=250,
        ),
        gamma=st.sampled_from([1.0, 2.5, 5.0, 25.0, 50.0, 100.0]),
    )
    # k = n: one error, and every error with signed zeros and NaN among them.
    @example(e=[-2.0], gamma=5.0)
    @example(e=[math.nan], gamma=1.0)
    @example(e=[0.0, -0.0, math.nan, -0.0, 1.0], gamma=100.0)
    @example(e=[math.nan, -0.0, math.nan, 0.0], gamma=100.0)
    def test_matches_oracle_with_ties_signed_zeros_infinities_and_nan(self, e, gamma):
        assert list(p_gamma_subset(np.array(e), gamma)) == brute_force_p_gamma(e, gamma)

    def test_tie_block_across_threshold_at_large_n(self):
        rng = np.random.default_rng(21)
        n, gamma = 200_000, 5.0
        k = math.ceil(gamma * n / 100.0)
        e = rng.standard_normal(n)
        # The 2000 errors ranked around the k-th largest all take its value,
        # so the subset ends inside a block of ties.
        order = np.argsort(-e)
        e[order[k - 1000 : k + 1000]] = e[order[k - 1]]
        e[order[:5]] = np.inf
        e[rng.choice(n, 50, replace=False)] = np.nan
        idx = p_gamma_subset(e, gamma)
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, np.sort(np.argsort(-e, kind="stable")[:k]))

    # Above the warm-start gate.  The errors mix a coarse grid (ties, with
    # -0.0 among them), +-inf and NaN in drawn shares.  ``near`` is either a
    # true subset of a perturbed copy, possibly with NaN put at some of its
    # indices, or an index array the warm start must refuse.
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        extra=st.integers(0, 200),
        gamma=st.sampled_from([0.001, 1.0, 5.0, 25.0, 50.0, 90.0]),
        nan_share=st.sampled_from([0.0, 0.001, 0.6, 0.999]),
        inf_share=st.sampled_from([0.0, 0.001, 0.3]),
        near_kind=st.sampled_from(
            ["subset", "subset", "subset-nan", "duplicates", "unsorted", "short", "long", "out-of-range", "negative"]
        ),
        near_dtype=st.sampled_from([np.int64, np.int32, np.uint64]),
        churn=st.sampled_from([0.0, 0.001, 0.05, 1.0]),
    )
    def test_warm_start_matches_cold_path_and_oracle(
        self, seed, extra, gamma, nan_share, inf_share, near_kind, near_dtype, churn
    ):
        rng = np.random.default_rng(seed)
        n = WARM_START_MIN_N + extra
        k = min(n, max(1, math.ceil(gamma * n / 100.0)))
        e = rng.integers(-40, 41, n) * 0.25
        e[e == 0.0] = rng.choice([0.0, -0.0], np.count_nonzero(e == 0.0))
        special = rng.random(n)
        e[special < inf_share] = rng.choice([np.inf, -np.inf], np.count_nonzero(special < inf_share))
        e[special > 1.0 - nan_share] = np.nan
        previous = e.copy()
        moved = rng.random(n) < churn
        previous[moved] = rng.standard_normal(np.count_nonzero(moved)) * 10.0
        near = p_gamma_subset(previous, gamma)
        if near_kind == "subset-nan":
            e[rng.choice(near, min(k, 3), replace=False)] = np.nan
        elif near_kind == "duplicates":
            near = np.sort(rng.choice(n, k))
        elif near_kind == "unsorted":
            near = rng.permutation(near)
        elif near_kind == "short":
            near = near[1:]
        elif near_kind == "long":
            near = np.sort(rng.choice(n, k + 1, replace=False))
        elif near_kind == "out-of-range":
            near = near.copy()
            near[-1] = n
        elif near_kind == "negative":
            near = np.concatenate(([-1], near[1:]))
        cold = p_gamma_subset(e, gamma)
        warm = p_gamma_subset(e, gamma, near if near_kind == "negative" else near.astype(near_dtype))
        assert warm.dtype == cold.dtype == np.intp
        assert np.array_equal(warm, cold)
        assert list(warm) == brute_force_p_gamma(e, gamma)

    def test_non_vector_rejected(self):
        for e in (np.zeros((2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="vector"):
                p_gamma_subset(e, 50.0)

    def test_gamma_out_of_range(self):
        # A bool and a non-number break the rule for numbers that the configs follow.
        for gamma in (0.0, 101.0, True, "5", None):
            with pytest.raises(ValueError, match="^gamma must "):
                p_gamma_subset(np.array([1.0]), gamma)


@st.composite
def cell_points(draw):
    """Points with ties, duplicates, a zero-width feature or extreme spans, and a cell size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, f = draw(st.integers(1, 400)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["uniform", "grid", "duplicated", "constant", "extreme", "tiny"]))
    if kind == "grid":
        points = rng.integers(-3, 4, size=(n, f)) * 1.0
    elif kind == "extreme":
        # The span, about 3.6e308, overflows; halving keeps the grid finite.
        points = rng.choice([-1.79e308, -1.0, 0.0, 2.0, 1.79e308], size=(n, f))
    elif kind == "tiny":
        # Subnormal spans: the grid's scale overflows, so every row shares a slice.
        points = rng.choice([0.0, 5e-324, 1e-320], size=(n, f))
    else:
        points = rng.uniform(-5.0, 25.0, size=(n, f))
        if kind == "duplicated":
            points = points[rng.integers(0, max(1, n // 4), size=n)]
        elif kind == "constant":
            points[:, 0] = -2.5
    return points, draw(st.sampled_from([1, 3, 64, 10**6]))


class TestCellIndex:
    @settings(max_examples=200, deadline=None)
    @given(drawn=cell_points())
    def test_cells_partition_the_rows_and_box_them_tightly(self, drawn):
        points, cell_rows = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loss, "CELL_ROWS", cell_rows)
            cells = build_cell_index(points)
        n, f = points.shape
        assert sorted(cells.order.tolist()) == list(range(n))
        starts = cells.starts.tolist()
        assert starts[0] == 0 and starts[-1] == n and all(a < b for a, b in zip(starts, starts[1:]))
        assert cells.grouped.tobytes() == points[cells.order].tobytes()
        g = len(starts) - 1
        assert cells.corners.shape == (2 * f, g) and cells.reach.shape == (f, g)
        for cell, (a, b) in enumerate(zip(starts, starts[1:])):
            rows = cells.order[a:b]
            assert all(x < y for x, y in zip(rows, rows[1:]))
            box = points[rows]
            assert np.array_equal(cells.corners[:f, cell], box.min(axis=0))
            assert np.array_equal(cells.corners[f:, cell], box.max(axis=0))
            assert np.array_equal(cells.reach[:, cell], np.abs(box).max(axis=0))

    def test_about_cell_rows_rows_per_cell_on_spread_data(self):
        points = np.random.default_rng(0).uniform(-5.0, 25.0, size=(100_000, 2))
        cells = build_cell_index(points)
        counts = np.diff(cells.starts)
        assert counts.size == int(math.sqrt(100_000 / loss.CELL_ROWS)) ** 2
        assert 0.5 * loss.CELL_ROWS < np.median(counts) < 1.5 * loss.CELL_ROWS


class TestScreenedSubset:
    """``screened_subset`` is p_gamma_subset of every column-wise error, from any k rows as ``near``."""

    @settings(max_examples=300, deadline=None)
    @given(
        drawn=cell_points(),
        direction=st.sampled_from(list(Direction)),
        gamma=st.sampled_from([0.001, 2.5, 5.0, 30.0, 100.0]),
        near_kind=st.sampled_from(["subset", "subset", "random", "none", "unsorted", "short"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_p_gamma_subset_of_every_error(self, drawn, direction, gamma, near_kind, seed):
        points, cell_rows = drawn
        n, f = points.shape
        if np.abs(points).max() > 1e300:
            # Keep the extreme spans' errors finite: a slope of 0.25 per
            # feature sums to at most 0.75 * 1.79e308.
            coeffs, offset = np.full(f, 0.25) * np.sign(np.random.default_rng(seed).standard_normal(f)), 1.0
        else:
            rng = np.random.default_rng(seed)
            coeffs = rng.choice([0.0, -0.0, 0.5, -1.0, 2.0], size=f) if seed % 2 else rng.standard_normal(f)
            offset = float(rng.choice([0.0, -0.0, 3.0, -1.5]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loss, "CELL_ROWS", cell_rows)
            cells = build_cell_index(points)
        errors = column_errors(points, coeffs, offset, direction)
        want = p_gamma_subset(errors, gamma)
        k = want.size
        rng = np.random.default_rng(seed + 1)
        near = {
            "subset": p_gamma_subset(errors + rng.standard_normal(n), gamma),
            "random": np.sort(rng.choice(n, k, replace=False)),
            "none": None,
            "unsorted": rng.permutation(want),
            "short": want[1:],
        }[near_kind]
        got = screened_subset(cells, coeffs, offset, direction, gamma, near)
        assert got.dtype == np.intp
        assert np.array_equal(got, want)

    def test_computes_few_errors_from_a_near_subset(self, monkeypatch):
        points = np.random.default_rng(1).uniform(-5.0, 25.0, size=(100_000, 2))
        cells = build_cell_index(points)
        coeffs, offset = np.array([0.5, 1.0]), -3.0
        near = p_gamma_subset(column_errors(points, coeffs * 1.001, offset, Direction.LOWER), 5.0)
        computed = []
        real = loss.column_errors
        monkeypatch.setattr(loss, "column_errors", lambda rows, *args: computed.append(len(rows)) or real(rows, *args))
        screened_subset(cells, coeffs, offset, Direction.LOWER, 5.0, near)
        # The k = 5 000 rows of near, then the rows of the cells that can reach m.
        assert computed[0] == near.size
        assert near.size < computed[1] < 1.5 * near.size


class TestTermP:
    # alpha1 = alpha3 = 0 leaves term_p alone in z.
    def test_subset_squared_over_full_count(self):
        # LOWER errors are [-3, -100]; the top 50% is index 0.
        b = isolated_breakdown([3.0, 100.0], alpha1=0.0, alpha2=1.0, alpha3=0.0, gamma=50.0)
        assert list(p_gamma_subset(directional_errors([3.0, 100.0], Direction.LOWER), 50.0)) == [0]
        assert b.term_p == 4.5
        assert b.z == 4.5

    def test_exact_fit_on_subset(self):
        # LOWER errors are [0, -3]; the top 50% is index 0, fitted exactly.
        b = isolated_breakdown([0.0, 3.0], alpha1=0.0, alpha2=3.0, alpha3=0.0, gamma=50.0)
        assert list(p_gamma_subset(directional_errors([0.0, 3.0], Direction.LOWER), 50.0)) == [0]
        assert b.term_p == 0.0
        assert b.z == 0.0


class TestTermAnchor:
    # alpha1 = alpha2 = 0 leaves term_anchor alone in z; LOWER errors are -preds.
    def test_maximum_then_absolute_value(self):
        b = isolated_breakdown([10.0, 2.0], alpha1=0.0, alpha2=0.0, alpha3=0.5)
        assert b.term_anchor == 1.0
        assert b.z == 1.0

    def test_positive_maximum(self):
        b = isolated_breakdown([-3.0, 7.0], alpha1=0.0, alpha2=0.0, alpha3=1.0)
        assert b.term_anchor == 3.0
        assert b.z == 3.0

    def test_zero_error(self):
        b = isolated_breakdown([0.0], alpha1=0.0, alpha2=0.0, alpha3=5.0)
        assert b.term_anchor == 0.0
        assert b.z == 0.0


class TestTermReg:
    def test_output_layer_norms(self):
        assert reg_term(reg_net([1.0, -2.0]), 0.05, 0.05) == pytest.approx(0.40, abs=1e-15)

    def test_zero_strengths(self):
        assert reg_term(reg_net([3.0, 4.0]), 0.0, 0.0) == 0.0

    def test_zero_weights(self):
        assert reg_term(reg_net([0.0, 0.0]), 0.5, 0.5) == 0.0

    def test_input_weights_not_penalized(self):
        net = EqlNetwork(np.full((2, 3), 100.0), np.array([1.0, -2.0]), 0.0)
        assert reg_term(net, 0.05, 0.05) == pytest.approx(0.40, abs=1e-15)


class TestLossTotal:
    def test_single_point_hand_value(self):
        cfg = LossConfig(alpha1=1.0, alpha2=0.5, alpha3=0.5, gamma=100.0, l1=0.0, l2=0.0)
        breakdown = loss_from_errors(directional_errors([2.0], cfg.direction), reg_net([1.0]), cfg)[0]
        assert breakdown.term_e == -2.0
        assert breakdown.term_p == 2.0
        assert breakdown.term_anchor == 1.0
        assert breakdown.term_reg == 0.0
        assert breakdown.z == 1.0

    def test_perfect_fit_leaves_only_regularization(self):
        cfg = LossConfig()
        breakdown = loss_from_errors(np.zeros(3), reg_net([1.0, -2.0]), cfg)[0]
        assert breakdown.z == breakdown.term_reg
        assert breakdown.term_reg == pytest.approx(0.40, abs=1e-15)

    def test_reduces_to_mean_error(self):
        cfg = LossConfig(alpha1=1.0, alpha2=0.0, alpha3=0.0, l1=0.0, l2=0.0)
        preds = np.array([1.0, 2.0, 6.0])
        breakdown = loss_from_errors(directional_errors(preds, cfg.direction), reg_net([1.0]), cfg)[0]
        assert breakdown.z == -3.0

    def test_z_is_sum_of_terms(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            cfg = LossConfig(
                alpha1=float(rng.uniform(0, 2)),
                alpha2=float(rng.uniform(0, 2)),
                alpha3=float(rng.uniform(0.01, 2)),
                gamma=float(rng.uniform(0.5, 100)),
                direction=Direction.LOWER if rng.random() < 0.5 else Direction.UPPER,
                l1=float(rng.uniform(0, 0.2)),
                l2=float(rng.uniform(0, 0.2)),
            )
            y, preds = rng.standard_normal(n), rng.standard_normal(n)
            e = directional_errors(preds - y, cfg.direction)
            b = loss_from_errors(e, reg_net(rng.standard_normal(3)), cfg)[0]
            assert abs(b.z - (b.term_e + b.term_p + b.term_anchor + b.term_reg)) <= 1e-12

    def test_data_terms_permutation_invariant(self):
        rng = np.random.default_rng(29)
        cfg = LossConfig(gamma=20.0)
        y, preds = rng.standard_normal(25), rng.standard_normal(25)
        e = directional_errors(preds - y, cfg.direction)
        perm = rng.permutation(25)
        net = reg_net([0.5, -0.5])
        a = loss_from_errors(e, net, cfg)[0]
        b = loss_from_errors(e[perm], net, cfg)[0]
        assert a.term_e == pytest.approx(b.term_e, rel=1e-12)
        assert a.term_p == pytest.approx(b.term_p, rel=1e-12)
        assert a.term_anchor == b.term_anchor

    def test_uses_configured_subset_rule(self):
        preds = np.array([10.0, 0.0, 5.0, 0.2])
        # LOWER errors are -preds, so the largest error belongs to the
        # smallest prediction.
        cfg = LossConfig(gamma=25.0)
        e = directional_errors(preds, cfg.direction)
        assert list(p_gamma_subset(e, cfg.gamma)) == [1]
        # term_p squares the subset's one error, which is 0; index 3 would give 0.005.
        assert loss_from_errors(e, reg_net([1.0]), cfg)[0].term_p == 0.0

    def test_breakdown_equals_public_terms_exactly_with_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            cfg = LossConfig(
                alpha1=float(rng.choice([0.0, 0.5, 1.0])),
                alpha2=float(rng.uniform(0, 2)),
                alpha3=float(rng.uniform(0.01, 2)),
                gamma=float(rng.choice([1.0, 5.0, 25.0, 50.0, 100.0])),
                direction=Direction.LOWER if rng.random() < 0.5 else Direction.UPPER,
                l1=float(rng.uniform(0, 0.2)),
                l2=float(rng.uniform(0, 0.2)),
            )
            # Values on a coarse grid, so errors tie often.
            y = rng.integers(-3, 4, n) * 0.5
            preds = rng.integers(-3, 4, n) * 0.25 - y
            net = reg_net(rng.standard_normal(3))
            e = directional_errors(preds, cfg.direction)
            b, fill, d_sub, subset = loss_from_errors(e, net, cfg)
            idx = p_gamma_subset(e, cfg.gamma)
            assert np.array_equal(subset, idx)
            assert b.term_e == cfg.alpha1 * float(np.add.reduce(e, axis=None)) / n
            # term_p divides by the full n; term_anchor takes the maximum first.
            residual = 0.0 - preds[idx]
            assert b.term_p == cfg.alpha2 * float(residual @ residual) / n
            assert b.term_anchor == cfg.alpha3 * abs(float(e.max()))
            w = net.w_out
            assert b.term_reg == cfg.l1 * float(np.add.reduce(np.abs(w), axis=None)) + cfg.l2 * float(w @ w)
            # dz/dpred term by term, with the residual taken as preds - 0: the
            # subset's two terms are summed first, then added to the shared one.
            s = 1.0 if cfg.direction is Direction.LOWER else -1.0
            on_subset = (2.0 * cfg.alpha2 / n) * (preds[idx] - 0.0)
            worst = int(np.argmax(e))
            on_subset[np.searchsorted(idx, worst)] += -cfg.alpha3 * s * float(np.sign(e[worst]))
            expected = np.full(n, -cfg.alpha1 * s / n)
            expected[idx] += on_subset
            dz = np.full(n, fill)
            dz[subset] += d_sub
            assert np.array_equal(dz, expected)

    # The pool of TestPGammaSubset: ties, signed zeros, infinities and NaN.
    @settings(max_examples=300, deadline=None)
    @given(
        preds=st.lists(
            st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 0.5]), st.floats()),
            min_size=1,
            max_size=250,
        ),
        gamma=st.sampled_from([1.0, 2.5, 5.0, 25.0, 50.0, 100.0]),
        direction=st.sampled_from(list(Direction)),
    )
    def test_anchor_is_the_argmax_of_all_errors(self, preds, gamma, direction):
        preds = np.array(preds)
        n = preds.size
        cfg = LossConfig(alpha1=0.5, alpha2=1.5, alpha3=0.75, gamma=gamma, direction=direction)
        with np.errstate(all="ignore"):
            e = directional_errors(preds, direction)
            b, fill, d_sub, idx = loss_from_errors(e, reg_net([1.0]), cfg)
            worst = int(e.argmax())
            s = 1.0 if direction is Direction.LOWER else -1.0
            assert fill == -cfg.alpha1 * s / n
            assert np.array_equal(idx, p_gamma_subset(e, gamma))
            assert np.array_equal([b.term_anchor], [cfg.alpha3 * abs(float(e[worst]))], equal_nan=True)
            on_subset = (-2.0 * cfg.alpha2 / n * s) * e[idx]
            pos = int(np.searchsorted(idx, worst))
            if pos < idx.size and idx[pos] == worst:
                on_subset[pos] += -cfg.alpha3 * s * float(np.sign(e[worst]))
                assert np.array_equal(d_sub, on_subset, equal_nan=True)
            else:
                # Only a NaN error ranks outside the subset.  Its derivative
                # is NaN, and so is the dense gradient; so must d_sub be.
                assert math.isnan(e[worst])
                assert np.isnan(d_sub).any()


class TestCallerArraysUnchanged:
    """No public loss function writes to an array its caller passed in."""

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("n", [40, WARM_START_MIN_N + 40], ids=["cold", "warm"])
    def test_inputs_come_back_bit_identical(self, direction, n):
        rng = np.random.default_rng(n)
        preds = rng.integers(-3, 4, n) * 0.25 + rng.standard_normal(n) * (rng.random(n) < 0.5)
        preds[rng.random(n) < 0.1] = -0.0
        cfg = LossConfig(gamma=5.0, direction=direction)
        net = reg_net([0.5, -1.0])
        e = directional_errors(preds, direction)
        near = p_gamma_subset(e + 0.01 * rng.standard_normal(n), cfg.gamma)
        kept = e.tobytes(), near.tobytes(), net.w_out.tobytes()
        loss_from_errors(e, net, cfg, near)
        assert (e.tobytes(), near.tobytes(), net.w_out.tobytes()) == kept
