"""Forward evaluation, seeded initialization, and magnitude masking."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import LAYOUTS, directional_errors, errors_by_row, freeze, identity_rows, initial_draws, network_checks
from eqlbounds import (
    Dataset,
    Direction,
    EmptyDatasetError,
    EqlNetwork,
    apply_mask,
    collapse_affine,
    forward_batch,
    initialize,
)
from eqlbounds.network import _point_error, column_errors


def make_net(w_in, w_out, b_out):
    return EqlNetwork(np.array(w_in, dtype=float), np.array(w_out, dtype=float), b_out)


def random_net(rng, f):
    """A network of a layout drawn from LAYOUTS, with normal weights."""
    n_identity, n_constant = LAYOUTS[rng.integers(len(LAYOUTS))]
    h = n_identity + n_constant
    w_in = identity_rows(rng.standard_normal((h, f)), n_identity)
    return make_net(w_in, rng.standard_normal(h), float(rng.standard_normal()))


class TestForward:
    def test_zero_weights_return_bias(self):
        net = make_net([[0.0, 0.0]], [0.0], 3.5)
        assert forward_batch(net, np.array([[17.0, -4.0]]))[0] == 3.5
        assert forward_batch(net, np.zeros((1, 2)))[0] == 3.5

    def test_single_identity_path(self):
        net = make_net([[2.0, 0.0]], [1.0], 0.0)
        assert forward_batch(net, np.array([[1.5, 9.0]]))[0] == 3.0

    def test_identity_plus_constant(self):
        net = make_net([[1.0, 1.0]], [2.0, 5.0], 1.0)
        assert forward_batch(net, np.array([[1.0, 2.0]]))[0] == 12.0

    def test_all_constant_network_holds_no_input_weights(self):
        net = make_net(np.empty((0, 2)), [2.0, 0.5], 1.0)
        assert net.n_features == 2
        assert forward_batch(net, np.array([[3.0, 4.0], [-7.0, 1e6]])).tolist() == [3.5, 3.5]

    def test_batch_matches_single(self):
        net = make_net([[2.0, 0.0]], [1.0], 0.0)
        rows = np.array([[1.5, 9.0], [-2.0, 1.0]])
        out = forward_batch(net, rows)
        assert out[0] == 3.0
        assert out[1] == forward_batch(net, rows[1][None, :])[0]

    def test_empty_batch(self):
        net = make_net([[1.0]], [1.0], 0.0)
        assert forward_batch(net, np.empty((0, 1))).shape == (0,)

    def test_identical_rows_give_constant_vector(self):
        rng = np.random.default_rng(0)
        net = make_net(identity_rows(rng.standard_normal((3, 2)), 2), rng.standard_normal(3), 0.7)
        rows = np.tile(rng.standard_normal(2), (5, 1))
        out = forward_batch(net, rows)
        assert np.all(out == out[0])

    def test_affine_combination_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = int(rng.integers(1, 4))
            net = random_net(rng, f)
            x1, x2 = rng.standard_normal(f), rng.standard_normal(f)
            a = float(rng.uniform(-1, 2))
            mixed = forward_batch(net, (a * x1 + (1 - a) * x2)[None, :])[0]
            combined = a * forward_batch(net, x1[None, :])[0] + (1 - a) * forward_batch(net, x2[None, :])[0]
            assert abs(mixed - combined) <= 1e-9

    def test_rejects_wrong_shape(self):
        net = make_net([[1.0, 2.0]], [1.0], 0.0)
        with pytest.raises(ValueError):
            forward_batch(net, np.array([[1.0]]))
        with pytest.raises(ValueError):
            forward_batch(net, np.ones((2, 3)))
        with pytest.raises(ValueError, match="points must have shape"):
            forward_batch(net, Dataset(np.ones((2, 3))))

    def test_rejects_non_finite_input(self):
        net = make_net([[1.0]], [1.0], 0.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                forward_batch(net, np.array([[bad]]))
            with pytest.raises(ValueError, match="non-finite"):
                forward_batch(net, np.array([[0.5], [bad]]))

    @pytest.mark.parametrize(
        "points, dtype",
        [
            ([["1"]], "<U1"),
            (np.array([[True], [False]]), "bool"),
            (np.array([[1 + 2j]]), "complex128"),
            ([[10**400]], "object"),
        ],
        ids=["strings", "bools", "complex", "int-too-large-for-a-float"],
    )
    def test_array_points_must_be_real_numbers(self, points, dtype):
        net = make_net([[1.0]], [1.0], 0.0)
        with pytest.raises(ValueError) as info:
            forward_batch(net, points)
        assert str(info.value) == f"points must be real numbers, got an array of dtype {dtype}"

    def test_dataset_argument_matches_its_points_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f, n = int(rng.integers(1, 4)), int(rng.integers(1, 300))
            net = random_net(rng, f)
            data = Dataset(rng.uniform(-50.0, 50.0, size=(n, f)))
            assert forward_batch(net, data).tobytes() == forward_batch(net, data.points).tobytes()


# Signed zeros, subnormals and values far apart in magnitude, where the
# sign of a zero and the rounding of the offset's addition show.
OFFSETS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
tiny_or_plain = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1.0]) | st.floats(-1e50, 1e50)


@st.composite
def network_and_points(draw):
    """A network whose offset ``c`` is one of OFFSETS, and points with exact zeros and subnormals.

    The one constant unit's readout weight is ``±0.0``, so ``c`` is ``b_out``.
    """
    f = draw(st.integers(1, 3))
    n_identity = draw(st.integers(0, 2))
    w_in = draw(hnp.arrays(float, (n_identity, f), elements=tiny_or_plain))
    w_out = draw(hnp.arrays(float, n_identity, elements=tiny_or_plain))
    w_out = np.append(w_out, draw(st.sampled_from([0.0, -0.0])))
    net = EqlNetwork(w_in, w_out, draw(st.sampled_from(OFFSETS)))
    points = draw(hnp.arrays(float, (draw(st.integers(0, 40)), f), elements=tiny_or_plain))
    return net, points


class TestDirectionalForward:
    """``forward_batch`` with a direction gives the directional errors in its own pass."""

    # f(x) = x on one feature, so the predictions are the points' one column.
    UNIT = make_net([[1.0]], [1.0], 0.0)

    def errors(self, preds, direction):
        return forward_batch(self.UNIT, np.array(preds, dtype=float).reshape(-1, 1), direction)

    def test_lower_bound_negates_excess(self):
        assert self.errors([2.0], Direction.LOWER).tolist() == [-2.0]

    def test_upper_bound_keeps_excess(self):
        assert self.errors([2.0], Direction.UPPER).tolist() == [2.0]

    def test_zero_prediction_gives_positive_zero(self):
        for direction in Direction:
            errors = self.errors([0.0, 0.0], direction)
            assert errors.tolist() == [0.0, 0.0] and not np.signbit(errors).any(), direction

    def test_upper_keeps_the_bits_of_the_predictions(self):
        points = np.random.default_rng(5).standard_normal((30, 2))
        net = make_net([[0.5, -1.5]], [1.25, 0.75], -0.5)
        assert forward_batch(net, points, Direction.UPPER).tobytes() == forward_batch(net, points).tobytes()

    def test_directions_are_antisymmetric(self):
        preds = np.random.default_rng(7).standard_normal(30)
        assert np.all(preds != 0.0)
        assert np.array_equal(self.errors(preds, Direction.LOWER), -self.errors(preds, Direction.UPPER))

    @settings(max_examples=300, deadline=None)
    @given(drawn=network_and_points())
    def test_same_bits_as_the_errors_of_the_predictions(self, drawn):
        net, points = drawn
        preds = forward_batch(net, points)
        assert forward_batch(net, points, None).tobytes() == preds.tobytes()
        for direction in Direction:
            errors = forward_batch(net, points, direction)
            assert errors.dtype == float and errors.shape == preds.shape
            assert errors.tobytes() == directional_errors(preds, direction).tobytes(), direction

    @settings(max_examples=300, deadline=None)
    @given(drawn=network_and_points())
    def test_is_column_errors_of_every_row(self, drawn):
        # The library's one error formula: no BLAS product, whose bits
        # would follow the kernel and the row count.
        net, points = drawn
        for direction in (None, *Direction):
            want = column_errors(points, *collapse_affine(net), direction or Direction.UPPER)
            assert forward_batch(net, points, direction).tobytes() == want.tobytes(), direction

    @settings(max_examples=300, deadline=None)
    @given(
        products=hnp.arrays(float, st.integers(1, 40), elements=tiny_or_plain | st.sampled_from([np.inf, -np.inf])),
        offset=st.sampled_from(OFFSETS),
    )
    def test_one_pass_is_the_two_pass_formula(self, products, offset):
        # The identity the LOWER pass rests on, for any sum p of the
        # products and any offset c, -0.0 and infinities included:
        # (0 - c) - p == 0 - (p + c), bit for bit.
        assert np.subtract(0.0 - offset, products).tobytes() == (0.0 - (products + offset)).tobytes()

    @pytest.mark.parametrize("direction", [None, *Direction], ids=str)
    def test_leaves_its_inputs_unchanged(self, direction):
        rng = np.random.default_rng(7)
        net = make_net(rng.standard_normal((2, 2)), rng.standard_normal(4), 0.5)
        points = rng.uniform(-5.0, 5.0, size=(50, 2))
        data = Dataset(points.copy())
        before = points.tobytes(), net.w_in.tobytes(), net.w_out.tobytes(), net.b_out
        for argument in (points, data):
            out = forward_batch(net, argument, direction)
            assert not np.shares_memory(out, points) and not np.shares_memory(out, data.points)
        assert (points.tobytes(), net.w_in.tobytes(), net.w_out.tobytes(), net.b_out) == before
        assert data.points.tobytes() == points.tobytes() and not data.points.flags.writeable

    @pytest.mark.parametrize("direction", ["lower", 1, True])
    def test_rejects_a_direction_that_is_not_one_naming_it(self, direction):
        net = make_net([[1.0]], [1.0], 0.0)
        with pytest.raises(ValueError, match=f"^direction must be a Direction or None, got {direction!r}$"):
            forward_batch(net, np.ones((1, 1)), direction)


class TestColumnErrors:
    """``column_errors`` computes each row's error on its own, column by column."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=network_and_points(), direction=st.sampled_from(list(Direction)), data=st.data())
    def test_a_rows_bits_are_its_own(self, drawn, direction, data):
        net, points = drawn
        coeffs, offset = collapse_affine(net)
        errors = column_errors(points, coeffs, offset, direction)
        assert errors.tobytes() == errors_by_row(points, coeffs, offset, direction).tobytes()
        # One row in Python floats, as training evaluates the column means.
        for i in range(min(3, len(points))):
            assert np.float64(_point_error(points[i], coeffs, offset, direction)).tobytes() == errors[i : i + 1].tobytes()
        # Any subset of the rows, in any order, gives the same bits at its rows.
        rows = data.draw(st.lists(st.integers(0, max(0, len(points) - 1)), max_size=len(points)))
        picked = column_errors(points[rows], coeffs, offset, direction)
        assert picked.tobytes() == errors[rows].tobytes()

    @pytest.mark.parametrize("direction", list(Direction))
    def test_leaves_its_inputs_unchanged(self, direction):
        rng = np.random.default_rng(3)
        points = rng.uniform(-5.0, 5.0, size=(40, 2))
        coeffs = rng.standard_normal(2)
        before = points.tobytes(), coeffs.tobytes()
        out = column_errors(points, coeffs, 0.5, direction)
        assert not np.shares_memory(out, points)
        assert (points.tobytes(), coeffs.tobytes()) == before


class TestCollapse:
    PARAMETERS = [("w_in", (0, 0)), ("w_in", (0, 1)), ("w_out", 0), ("w_out", 1), ("b_out", None)]

    # train's last divergence check reads only the collapse, so a non-finite
    # parameter must reach it, also where a zero readout weight multiplies it.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("w_out", [[1.0, 1.0], [0.0, 0.0]], ids=["unit-readout", "zero-readout"])
    @pytest.mark.parametrize("field, index", PARAMETERS)
    def test_every_parameter_reaches_it(self, field, index, w_out, bad):
        net = make_net([[1.0, 2.0]], w_out, 0.5)
        if field == "b_out":
            net.b_out = bad
        else:
            values = getattr(net, field).copy()
            values[index] = bad
            setattr(net, field, values)
        with np.errstate(invalid="ignore"):
            coeffs, offset = collapse_affine(net)
        assert not (np.isfinite(coeffs).all() and math.isfinite(offset))


class TestInitialize:
    def square_data(self, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(rng.uniform(-5.0, 25.0, size=(40, 2)))

    def test_same_seed_is_bitwise_identical(self):
        ds = self.square_data()
        a = initialize(ds, seed=11)
        b = initialize(ds, seed=11)
        assert np.array_equal(a.w_in, b.w_in)
        assert np.array_equal(a.w_out, b.w_out)
        assert a.b_out == b.b_out

    def test_different_seeds_differ(self):
        ds = self.square_data()
        assert not np.array_equal(initialize(ds, seed=0).w_in, initialize(ds, seed=1).w_in)

    def test_bias_confined_to_half_data_range(self):
        pts = np.array([[-5.0, 10.0], [25.0, 0.0]])
        ds = Dataset(pts)
        for seed in range(30):
            net = initialize(ds, seed=seed)
            assert -2.5 <= net.b_out <= 12.5

    def test_xavier_bounds_for_default_architecture(self):
        ds = self.square_data()
        for seed in range(20):
            net = initialize(ds, seed=seed)
            assert net.w_in.shape == (2, 2)
            # fan (F=2, H=4) gives a unit bound for the symbolic layer.
            assert np.all(np.abs(net.w_in) <= 1.0)
            assert np.all(np.abs(net.w_out) <= math.sqrt(6.0 / 5.0))

    def test_depends_only_on_extrema(self):
        base = np.array([[-5.0, 1.0], [25.0, 3.0], [2.0, 2.0]])
        shuffled = np.array([[-5.0, 1.0], [25.0, 3.0], [7.0, -1.0]])
        a = initialize(Dataset(base), seed=5)
        b = initialize(Dataset(shuffled), seed=5)
        assert np.array_equal(a.w_in, b.w_in)
        assert a.b_out == b.b_out

    def test_degenerate_range_warns_and_pins_bias(self):
        ds = Dataset(np.full((3, 2), 8.0))
        with pytest.warns(RuntimeWarning):
            net = initialize(ds, seed=0)
        assert net.b_out == 4.0

    def test_no_weight_starts_frozen(self):
        net = initialize(self.square_data(), seed=0)
        assert np.all(net.w_in != 0.0)
        assert np.all(net.w_out != 0.0)

    # The symbolic layer is drawn for every unit and keeps the identity
    # units' rows, so the readout and the bias see the same stream as when
    # every row was kept.
    @pytest.mark.parametrize("seed", [0, 7, 24])
    def test_keeps_the_random_stream(self, seed):
        ds = self.square_data()
        w_in, w_out, b_out = initial_draws(ds, seed)
        net = initialize(ds, seed=seed)
        assert same_bits(net.w_in, identity_rows(w_in, 2))
        assert same_bits(net.w_out, w_out)
        assert net.b_out.hex() == b_out.hex()

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            initialize(Dataset(np.empty((0, 2))), seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed must be >= 0, got -1"),
            (1.5, "seed must be an integer, got 1.5"),
            (True, "seed must be an integer, got True"),
        ],
    )
    def test_bad_seed_rejected_naming_seed(self, seed, message):
        with pytest.raises(ValueError, match=message):
            initialize(self.square_data(), seed=seed)


class TestApplyMask:
    def test_small_weight_frozen(self):
        net = make_net([[0.5, 0.5], [0.4, -0.3]], [0.0005, 0.8], 0.1)
        masked = apply_mask(net, 0.001)
        assert np.array_equal(masked.w_out, [0.0, 0.8])
        assert np.array_equal(masked.w_in, net.w_in)

    # |w| < 0 holds for no weight: the result is an equal copy, signed zeros kept.
    def test_threshold_zero_masks_nothing(self):
        net = make_net([[-0.0, 1e-300]], [0.2], 0.0)
        masked = apply_mask(net, 0.0)
        assert same_bits(masked.w_in, np.array([[-0.0, 1e-300]]))
        assert same_bits(masked.w_out, np.array([0.2]))

    @pytest.mark.parametrize(
        "threshold, expected_zero", [(0.0, -0.0), (0.001, 0.0)], ids=["zero-keeps-it", "positive-masks-it"]
    )
    def test_negative_zero_is_masked_only_at_a_positive_threshold(self, threshold, expected_zero):
        net = make_net([[-0.0, 0.5]], [-0.0], 0.0)
        masked = apply_mask(net, threshold)
        assert same_bits(masked.w_in, np.array([[expected_zero, 0.5]]))
        assert same_bits(masked.w_out, np.array([expected_zero]))

    def test_idempotent(self):
        net = make_net([[0.0002, 0.9], [0.4, -0.0001]], [0.7, 0.0003], 0.3)
        once = apply_mask(net, 0.001)
        twice = apply_mask(once, 0.001)
        assert same_bits(once.w_in, twice.w_in)
        assert same_bits(once.w_out, twice.w_out)

    def test_earlier_mask_survives_smaller_threshold(self):
        net = make_net([[0.0005, 0.9]], [0.8], 0.0)
        coarse = apply_mask(net, 0.01)
        fine = apply_mask(coarse, 1e-9)
        assert same_bits(fine.w_in, np.array([[0.0, 0.9]]))

    def test_bias_never_masked(self):
        net = make_net([[0.5]], [0.5], 1e-9)
        masked = apply_mask(net, 0.001)
        assert masked.b_out == 1e-9

    def test_negative_threshold_rejected(self):
        net = make_net([[0.5]], [0.5], 0.0)
        with pytest.raises(ValueError):
            apply_mask(net, -0.1)

    # The threshold is read by the package's one rule for numbers.
    @pytest.mark.parametrize(
        "threshold, message",
        [
            (True, "threshold must be a number, got True"),
            (False, "threshold must be a number, got False"),
            ("0.1", "threshold must be a number, got '0.1'"),
            (math.inf, "threshold must be finite, got inf"),
            (math.nan, "threshold must be finite, got nan"),
            (10**400, "threshold must be finite, got a number too large for a float"),
            (-0.1, "threshold must be >= 0, got -0.1"),
        ],
        ids=["true", "false", "string", "inf", "nan", "too-large", "negative"],
    )
    def test_threshold_follows_the_rule_for_numbers(self, threshold, message):
        net = make_net([[0.5]], [0.5], 0.0)
        with pytest.raises(ValueError) as info:
            apply_mask(net, threshold)
        assert str(info.value) == message

    def test_integer_threshold_accepted(self):
        net = make_net([[0.5, 2.0]], [1.0], 0.0)
        assert same_bits(apply_mask(net, 1).w_in, np.array([[0.0, 2.0]]))

    def test_original_untouched(self):
        net = make_net([[0.0005]], [0.5], 0.0)
        apply_mask(net, 0.001)
        assert net.w_in[0, 0] == 0.0005

    # The masked network writes to its own copies, never to the input's arrays.
    @pytest.mark.parametrize("threshold", [0.0, 1e-3])
    def test_result_shares_no_memory_with_the_input(self, threshold):
        net = make_net([[-0.0, 0.0005, 0.5]], [0.0, 0.7], 0.1)
        before = net.w_in.tobytes(), net.w_out.tobytes()
        masked = apply_mask(net, threshold)
        for new, old in ((masked.w_in, net.w_in), (masked.w_out, net.w_out)):
            assert not np.shares_memory(new, old)
        assert (net.w_in.tobytes(), net.w_out.tobytes()) == before
        assert same_bits(masked.w_in, np.array([[-0.0, 0.0005, 0.5]] if threshold == 0.0 else [[0.0, 0.0, 0.5]]))


# Signed zeros, subnormals, values on either side of the thresholds below,
# infinities and NaN are common; arbitrary floats fill the rest.
SPECIAL_WEIGHTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-3, -1e-3, 0.5, math.inf, -math.inf, math.nan]
weight_values = st.sampled_from(SPECIAL_WEIGHTS) | st.floats()
thresholds = st.sampled_from([0.0, 5e-324, 1e-3, 1.0, sys.float_info.max]) | st.floats(0.0, 1e300)


@st.composite
def raw_layers(draw, any_shape=False):
    """The two weight layers of one network, non-finite values included.

    The unit counts are drawn from LAYOUTS, or with ``any_shape`` each
    layer takes any shape of up to three axes, valid or not.
    """
    if any_shape:
        any_dims = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
        in_shape = draw(st.tuples(st.integers(0, 4), st.integers(0, 3)) | any_dims)
        out_shape = draw(st.tuples(st.integers(0, 5)) | any_dims)
    else:
        n_identity, n_constant = draw(st.sampled_from(LAYOUTS))
        in_shape, out_shape = (n_identity, draw(st.integers(1, 3))), n_identity + n_constant
    return (
        draw(hnp.arrays(float, in_shape, elements=weight_values)),
        draw(hnp.arrays(float, out_shape, elements=weight_values)),
    )


def outcome(fn, *args):
    """What a call does: ("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison covers every exception type
        return type(exc), str(exc)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRewrittenChecksMatchOracles:
    """``apply_mask`` and ``EqlNetwork`` against the two-term freeze and the first-written checks."""

    @settings(max_examples=400, deadline=None)
    @given(layers=raw_layers(), threshold=thresholds)
    @example(
        layers=(np.array([[-0.0, 5e-324], [math.nan, 1e-3]]), np.array([math.inf, -0.0])),
        threshold=0.0,
    )
    @example(layers=(np.empty((0, 2)), np.array([5e-324, -0.0])), threshold=1e-3)
    def test_apply_mask_is_bit_identical(self, layers, threshold):
        w_in, w_out = layers
        # Training assigns stepped weights to the fields without a check, so
        # apply_mask can see non-finite values.
        net = EqlNetwork(np.zeros_like(w_in), np.zeros_like(w_out), 0.25)
        net.w_in, net.w_out = w_in, w_out
        exp_in, exp_out = freeze(w_in, threshold), freeze(w_out, threshold)
        expected = outcome(network_checks, exp_in, exp_out, 0.25)
        kind, got = outcome(apply_mask, net, threshold)
        if expected[0] != "ok":
            assert (kind, got) == expected
            return
        assert kind == "ok", got
        assert same_bits(got.w_in, exp_in) and same_bits(got.w_out, exp_out)
        assert got.b_out == 0.25

    @settings(max_examples=400, deadline=None)
    @given(layers=raw_layers(any_shape=True), b_out=weight_values)
    def test_constructor_raises_what_the_oracle_raises(self, layers, b_out):
        w_in, w_out = layers
        expected = outcome(network_checks, w_in, w_out, b_out)
        kind, got = outcome(EqlNetwork, w_in, w_out, b_out)
        assert kind == expected[0]
        if kind != "ok":
            assert got == expected[1]

    @pytest.mark.parametrize(
        "where, bad",
        [(name, bad) for name in ("w_in", "w_out", "b_out") for bad in (math.nan, math.inf, -math.inf)],
    )
    def test_each_check_names_its_cause(self, where, bad):
        args = {"w_in": np.array([[0.5, 0.0]]), "w_out": np.array([0.25]), "b_out": 0.125}
        if where == "b_out":
            args["b_out"] = bad
        else:
            args[where] = args[where].copy()
            args[where].flat[0] = bad
        call = (args["w_in"], args["w_out"], args["b_out"])
        kind, message = outcome(network_checks, *call)
        assert kind is ValueError
        with pytest.raises(ValueError) as info:
            EqlNetwork(*call)
        assert str(info.value) == message


class TestNetworkValidation:
    def test_parameters_are_the_three_arrays(self):
        assert [f.name for f in dataclasses.fields(EqlNetwork)] == ["w_in", "w_out", "b_out"]

    # The shapes are the layout, so a bad shape is the one check left on it.
    @pytest.mark.parametrize(
        "w_in, w_out, message",
        [
            (np.ones((2, 1)), [1.0], r"^w_out must have shape \(H,\) with H >= max\(1, 2\), got \(1,\)$"),
            (np.empty((0, 2)), [], r"^w_out must have shape \(H,\) with H >= max\(1, 0\), got \(0,\)$"),
            (np.ones((1, 2)), [[1.0, 2.0]], r"^w_out must have shape \(H,\) with H >= max\(1, 1\), got \(1, 2\)$"),
            (np.ones(2), [1.0], r"^w_in needs one row per identity unit, shape \(H_id, F >= 1\), got \(2,\)$"),
            (np.empty((1, 0)), [1.0], r"^w_in needs one row per identity unit, shape \(H_id, F >= 1\), got \(1, 0\)$"),
            (np.ones((1, 1, 2)), [1.0], r"^w_in needs one row per identity unit, shape \(H_id, F >= 1\), got \(1, 1, 2\)$"),
        ],
        ids=["w_out-shorter-than-w_in", "w_out-empty", "w_out-2d", "w_in-1d", "no-features", "w_in-3d"],
    )
    def test_bad_shape_rejected_naming_it(self, w_in, w_out, message):
        with pytest.raises(ValueError, match=message):
            make_net(w_in, w_out, 0.0)

    def test_all_constant_network_is_valid(self):
        net = make_net(np.empty((0, 3)), [0.5], 1.0)
        assert net.w_in.shape == (0, 3) and net.n_features == 3
        a, c = collapse_affine(net)
        assert a.tolist() == [0.0, 0.0, 0.0] and c == 1.5

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_net([[np.inf]], [1.0], 0.0)

    # The weights follow the package's rule for numbers: no bool, complex,
    # string or object array, and no OverflowError.
    @pytest.mark.parametrize(
        "w_in, w_out, message",
        [
            ([["1.5"]], ["2", "3"], "w_in must be real numbers, got an array of dtype <U3"),
            ([[1.5]], ["2", "3"], "w_out must be real numbers, got an array of dtype <U1"),
            (np.array([[True]]), [1.0], "w_in must be real numbers, got an array of dtype bool"),
            ([[1.5]], np.array([1 + 2j]), "w_out must be real numbers, got an array of dtype complex128"),
            ([[10**400]], [1.0], "w_in must be real numbers, got an array of dtype object"),
            ([[1.5]], [None], "w_out must be real numbers, got an array of dtype object"),
        ],
        ids=["w_in-strings", "w_out-strings", "w_in-bools", "w_out-complex", "w_in-int-too-large", "w_out-none"],
    )
    def test_weights_must_be_real_numbers(self, w_in, w_out, message):
        with pytest.raises(ValueError) as info:
            EqlNetwork(w_in, w_out, 0.0)
        assert str(info.value) == message

    def test_integer_weights_become_float64(self):
        net = EqlNetwork(np.array([[1, 2]], dtype=np.int16), [3, 4], 0.0)
        assert net.w_in.dtype == net.w_out.dtype == np.float64
        assert net.w_in.tolist() == [[1.0, 2.0]] and net.w_out.tolist() == [3.0, 4.0]

    def test_weights_are_copied_from_the_caller(self):
        w_in, w_out = np.array([[1.0, 2.0]]), np.array([3.0, 4.0])
        net = EqlNetwork(w_in, w_out, 0.5)
        assert not np.shares_memory(net.w_in, w_in) and not np.shares_memory(net.w_out, w_out)
        w_in[0, 0] = w_out[0] = 9.0
        assert net.w_in.tolist() == [[1.0, 2.0]] and net.w_out.tolist() == [3.0, 4.0]

    # b_out is read by the package's one rule for numbers.
    @pytest.mark.parametrize(
        "b_out, message",
        [
            ("1.0", "b_out must be a number, got '1.0'"),
            (True, "b_out must be a number, got True"),
            (10**400, "b_out must be finite, got a number too large for a float"),
        ],
        ids=["string", "bool", "too-large"],
    )
    def test_b_out_follows_the_rule_for_numbers(self, b_out, message):
        with pytest.raises(ValueError) as info:
            make_net([[0.5]], [0.5], b_out)
        assert str(info.value) == message

    def test_integer_b_out_becomes_a_float(self):
        net = make_net([[0.5]], [0.5], 3)
        assert type(net.b_out) is float and net.b_out == 3.0

    def test_identity_units_come_first(self):
        # w_in's two rows feed w_out[:2]; w_out[2:] reads constant units.
        net = make_net([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0, 4.0], 0.0)
        assert forward_batch(net, np.array([[10.0, 100.0]]))[0] == 217.0
