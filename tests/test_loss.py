"""The three loss terms, the percentile subset, and their composition."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqlbounds import (
    Direction,
    EqlNetwork,
    LinearCut,
    LossConfig,
    RegionSpec,
    generate,
    loss_from_errors,
    p_gamma_subset,
)
from eqlbounds import loss
from eqlbounds.loss import build_cell_index, screened_subset
from eqlbounds.network import column_errors

from _oracles import brute_force_p_gamma, cell_index_by_lexsort, directional_errors


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

    # At n >= 8 192.  The errors mix a coarse grid (ties, with -0.0 among
    # them), +-inf and NaN in drawn shares.
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        extra=st.integers(0, 200),
        gamma=st.sampled_from([0.001, 1.0, 5.0, 25.0, 50.0, 90.0]),
        nan_share=st.sampled_from([0.0, 0.001, 0.6, 0.999]),
        inf_share=st.sampled_from([0.0, 0.001, 0.3]),
    )
    def test_matches_oracle_at_large_n_with_ties_infinities_and_nan(self, seed, extra, gamma, nan_share, inf_share):
        rng = np.random.default_rng(seed)
        n = 8192 + extra
        e = rng.integers(-40, 41, n) * 0.25
        e[e == 0.0] = rng.choice([0.0, -0.0], np.count_nonzero(e == 0.0))
        special = rng.random(n)
        e[special < inf_share] = rng.choice([np.inf, -np.inf], np.count_nonzero(special < inf_share))
        e[special > 1.0 - nan_share] = np.nan
        idx = p_gamma_subset(e, gamma)
        assert idx.dtype == np.intp
        assert list(idx) == brute_force_p_gamma(e, gamma)

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
    kind = draw(st.sampled_from(["uniform", "grid", "duplicated", "constant", "extreme", "far-axis", "tiny"]))
    if kind == "grid":
        points = rng.integers(-3, 4, size=(n, f)) * 1.0
    elif kind == "extreme":
        # The span, about 3.6e308, overflows; halving keeps the grid finite.
        points = rng.choice([-1.79e308, -1.0, 0.0, 2.0, 1.79e308], size=(n, f))
    elif kind == "far-axis":
        # Every row is +-1.5e308 in one feature and ordinary in the others.
        points = rng.uniform(-5.0, 25.0, size=(n, f))
        points[np.arange(n), rng.integers(0, f, n)] = rng.choice([-1.5e308, 1.5e308], n)
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
        g = len(starts) - 1
        assert cells.corners.shape == (2 * f, g)
        for cell, (a, b) in enumerate(zip(starts, starts[1:])):
            rows = cells.order[a:b]
            assert all(x < y for x, y in zip(rows, rows[1:]))
            box = points[rows]
            assert np.array_equal(cells.corners[:f, cell], box.min(axis=0))
            assert np.array_equal(cells.corners[f:, cell], box.max(axis=0))
        order, starts, corners = cell_index_by_lexsort(points, cell_rows)
        assert np.array_equal(cells.order, order) and np.array_equal(cells.starts, starts)
        assert np.array_equal(cells.corners, corners)

    # One feature and a row per cell: 32 768 rows pack 16 + 15 bits into
    # int32 keys, and 32 769 rows need 16 + 16, so int64.
    @pytest.mark.parametrize("n", [32_768, 32_769], ids=["int32-keys", "int64-keys"])
    def test_both_key_widths_equal_the_lexsort_oracle(self, n, monkeypatch):
        monkeypatch.setattr(loss, "CELL_ROWS", 1)
        points = np.random.default_rng(n).uniform(-5.0, 25.0, size=(n, 1))
        cells = build_cell_index(points)
        order, starts, corners = cell_index_by_lexsort(points, 1)
        assert cells.order.dtype == np.int32
        assert np.array_equal(cells.order, order)
        assert np.array_equal(cells.starts, starts)
        assert np.array_equal(cells.corners, corners)

    def test_about_cell_rows_rows_per_cell_on_spread_data(self):
        points = np.random.default_rng(0).uniform(-5.0, 25.0, size=(100_000, 2))
        cells = build_cell_index(points)
        counts = np.diff(cells.starts)
        assert counts.size == int(math.sqrt(100_000 / loss.CELL_ROWS)) ** 2
        assert 0.5 * loss.CELL_ROWS < np.median(counts) < 1.5 * loss.CELL_ROWS

    def test_stores_no_copy_of_the_points(self):
        cut_square = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0, Direction.LOWER),))
        points = generate(cut_square, 200_000, seed=0).points
        cells = build_cell_index(points)
        assert cells.points is points
        # A 4-byte row number per row, plus each cell's box: 0.9 MB against 3.2 MB of points.
        stored = sum(array.nbytes for name, array in vars(cells).items() if name != "points")
        assert stored < points.nbytes / 3

    def test_is_read_only(self):
        cells = build_cell_index(np.random.default_rng(0).uniform(-5.0, 25.0, size=(500, 2)))
        for name in ("order", "starts", "corners"):
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag to True"):
                getattr(cells, name).setflags(write=True)


class TestScreenedSubset:
    """``screened_subset`` is p_gamma_subset of every column-wise error, from any k rows as ``near``."""

    @settings(max_examples=300, deadline=None)
    @given(
        drawn=cell_points(),
        direction=st.sampled_from(list(Direction)),
        gamma=st.sampled_from([0.001, 2.5, 5.0, 30.0, 100.0]),
        near_kind=st.sampled_from(
            ["subset", "nearby", "nearby", "random", "none", "short", "duplicated", "outside", "non-finite"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # Seed 0 takes the slope 2.0 with signs (+, -): the first row's error
    # is NaN, so near's floor is NaN and its cell's bound +inf.
    @example(
        drawn=(np.array([[1.79e308, 1.79e308], [0.0, 0.0]]), 10**6),
        direction=Direction.LOWER,
        gamma=100.0,
        near_kind="subset",
        seed=0,
    )
    def test_equals_p_gamma_subset_of_every_error(self, drawn, direction, gamma, near_kind, seed):
        points, cell_rows = drawn
        n, f = points.shape
        far = np.abs(points) > 1e300
        overflows = {}
        if far.any():
            # Keep the extreme spans' errors finite: a slope of 0.25 per
            # feature sums to at most 0.75 * 1.79e308.  Rows far in one
            # feature only take 0.6, which keeps each row's error finite
            # but makes a worst corner far in several features overflow.
            # One draw in four takes 2.0, which overflows the far rows'
            # errors instead: to +-inf, and to NaN in a row whose far
            # terms have both signs; such a cell's bound is not finite.
            slope = 2.0 if seed % 4 == 0 else 0.6 if far.sum(axis=1).max() == 1 else 0.25
            coeffs, offset = np.full(f, slope) * np.sign(np.random.default_rng(seed).standard_normal(f)), 1.0
            if slope == 2.0:
                overflows = {"over": "ignore", "invalid": "ignore"}
        else:
            rng = np.random.default_rng(seed)
            coeffs = rng.choice([0.0, -0.0, 0.5, -1.0, 2.0], size=f) if seed % 2 else rng.standard_normal(f)
            offset = float(rng.choice([0.0, -0.0, 3.0, -1.5]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loss, "CELL_ROWS", cell_rows)
            cells = build_cell_index(points)
        with np.errstate(**overflows):
            errors = column_errors(points, coeffs, offset, direction)
        want = p_gamma_subset(errors, gamma)
        k = want.size
        rng = np.random.default_rng(seed + 1)
        # Any points may be near, in any order and number: data rows or not,
        # repeated, fewer than k, none, or one whose error is not finite.
        with np.errstate(**overflows):
            nearby = p_gamma_subset(errors + rng.standard_normal(n), gamma)
        near = {
            "subset": points[want],
            "nearby": points[nearby],
            "random": points[rng.choice(n, k)],
            "none": None,
            "short": points[want[1:]],
            "duplicated": points[rng.choice(want, 2 * k)],
            "outside": rng.uniform(-50.0, 50.0, size=(int(rng.integers(1, 2 * k + 1)), f)),
            "non-finite": np.vstack([points[want], np.full((1, f), rng.choice([np.inf, -np.inf, np.nan]))]),
        }[near_kind]
        with np.errstate(**overflows):
            got = screened_subset(cells, coeffs, offset, direction, gamma, near)
        assert got.dtype == np.intp
        assert np.array_equal(got, want)

    def test_computes_few_errors_from_a_near_subset(self, monkeypatch):
        points = np.random.default_rng(1).uniform(-5.0, 25.0, size=(100_000, 2))
        cells = build_cell_index(points)
        coeffs, offset = np.array([0.5, 1.0]), -3.0
        near = points[p_gamma_subset(column_errors(points, coeffs * 1.001, offset, Direction.LOWER), 5.0)]
        computed = []
        real = loss.column_errors
        monkeypatch.setattr(loss, "column_errors", lambda rows, *args: computed.append(len(rows)) or real(rows, *args))
        screened_subset(cells, coeffs, offset, Direction.LOWER, 5.0, near)
        # The G = 39^2 cells' worst corners, the k = 5 000 near points, then
        # the rows of the cells that can reach their floor.
        assert computed[:2] == [cells.starts.size - 1, len(near)] == [1_521, 5_000]
        assert len(near) < computed[2] < 1.5 * len(near)

    @pytest.mark.parametrize("cell_rows", [1, 10**6], ids=["few-candidates", "one-cell"])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_a_floor_above_the_kth_largest_error_takes_the_full_pass(self, cell_rows, direction, monkeypatch):
        # near is the one row of the largest error, so its floor lies above
        # the k-th largest: with a cell per row too few rows are candidates,
        # and with one cell the candidates' k-th largest is below the floor.
        points = np.random.default_rng(3).uniform(-5.0, 25.0, size=(2_000, 2))
        monkeypatch.setattr(loss, "CELL_ROWS", cell_rows)
        cells = build_cell_index(points)
        coeffs, offset = np.array([0.5, -1.0]), 2.0
        errors = column_errors(points, coeffs, offset, direction)
        want = p_gamma_subset(errors, 5.0)
        full_passes = []
        real = loss.p_gamma_subset
        monkeypatch.setattr(loss, "p_gamma_subset", lambda e, gamma: full_passes.append(e.size) or real(e, gamma))
        got = screened_subset(cells, coeffs, offset, direction, 5.0, points[[errors.argmax()]])
        assert full_passes == [points.shape[0]]
        assert np.array_equal(got, want)

    def test_a_cell_whose_bound_is_nan_takes_the_full_pass(self, monkeypatch):
        # With a = (2, 2) the first two rows share a cell whose worst corner,
        # (1.5e308, -1.5e308), has a NaN error, as the second row has.  The
        # first row's error is -inf and ties the k-th largest with the last
        # two rows', so a screen that passed over the NaN cell would keep
        # rows 3 and 4 where the subset has rows 0 and 3.
        points = np.array([[1.5e308, -0.8e308], [1.5e308, -1.5e308], [0.0, 0.0], [1.4e308, 1.0], [1.3e308, 2.0]])
        monkeypatch.setattr(loss, "CELL_ROWS", 1)
        cells = build_cell_index(points)
        assert np.diff(cells.starts).tolist() == [2, 1, 2] and cells.order.tolist() == [0, 1, 2, 3, 4]
        coeffs = np.array([2.0, 2.0])
        with np.errstate(over="ignore", invalid="ignore"):
            want = p_gamma_subset(column_errors(points, coeffs, 0.0, Direction.LOWER), 50.0)
            got = screened_subset(cells, coeffs, 0.0, Direction.LOWER, 50.0, points[want])
        assert want.tolist() == [0, 2, 3]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(100,), (5, 3), (5, 1), (1, 5, 2), ()])
    def test_near_that_is_not_an_m_by_f_array_is_rejected(self, shape):
        # An index array, the meaning near had before it held points, is among them.
        cells = build_cell_index(np.random.default_rng(4).uniform(-5.0, 25.0, size=(2_000, 2)))
        with pytest.raises(ValueError, match=r"^near must be an \(m, 2\) array of points, got shape "):
            screened_subset(cells, np.array([0.5, 1.0]), 0.0, Direction.LOWER, 5.0, np.zeros(shape))

    @pytest.mark.parametrize("direction", list(Direction))
    def test_an_error_at_the_float_maximum_is_screened_without_a_warning(self, direction, monkeypatch):
        # The far row's error, +/- the largest float, is its cell's bound:
        # finite, so the epoch screens, and no step of it overflows.
        points = np.vstack([np.random.default_rng(2).uniform(0.0, 1.0, size=(2_000, 2)), [[np.finfo(float).max, 0.0]]])
        cells = build_cell_index(points)
        coeffs = np.array([1.0, 0.0])
        errors = column_errors(points, coeffs, 0.0, direction)
        want = p_gamma_subset(errors, 5.0)
        full_passes = []
        monkeypatch.setattr(loss, "p_gamma_subset", lambda *args: full_passes.append(args))
        assert np.array_equal(screened_subset(cells, coeffs, 0.0, direction, 5.0, points[want]), want)
        assert full_passes == []


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
    @pytest.mark.parametrize("n", [40, 8192 + 40], ids=["small", "large"])
    def test_inputs_come_back_bit_identical(self, direction, n):
        rng = np.random.default_rng(n)
        preds = rng.integers(-3, 4, n) * 0.25 + rng.standard_normal(n) * (rng.random(n) < 0.5)
        preds[rng.random(n) < 0.1] = -0.0
        cfg = LossConfig(gamma=5.0, direction=direction)
        net = reg_net([0.5, -1.0])
        e = directional_errors(preds, direction)
        kept = e.tobytes(), net.w_out.tobytes()
        loss_from_errors(e, net, cfg)
        assert (e.tobytes(), net.w_out.tobytes()) == kept
