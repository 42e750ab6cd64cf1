"""Forward evaluation, seeded initialization, and magnitude masking."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import freeze, network_checks
from eqlbounds import (
    DEFAULT_PRIMITIVES,
    Dataset,
    EmptyDatasetError,
    EqlNetwork,
    Primitive,
    apply_mask,
    collapse_affine,
    forward_batch,
    initialize,
)

ID = Primitive.IDENTITY
CONST = Primitive.CONSTANT


def make_net(w_in, primitives, w_out, b_out):
    return EqlNetwork(np.array(w_in, dtype=float), tuple(primitives), np.array(w_out, dtype=float), b_out)


class TestForward:
    def test_zero_weights_return_bias(self):
        net = make_net([[0.0, 0.0]], (ID,), [0.0], 3.5)
        assert forward_batch(net, np.array([[17.0, -4.0]]))[0] == 3.5
        assert forward_batch(net, np.zeros((1, 2)))[0] == 3.5

    def test_single_identity_path(self):
        net = make_net([[2.0, 0.0]], (ID,), [1.0], 0.0)
        assert forward_batch(net, np.array([[1.5, 9.0]]))[0] == 3.0

    def test_identity_plus_constant(self):
        net = make_net([[1.0, 1.0], [0.0, 0.0]], (ID, CONST), [2.0, 5.0], 1.0)
        assert forward_batch(net, np.array([[1.0, 2.0]]))[0] == 12.0

    def test_constant_unit_ignores_its_weights(self):
        net = make_net([[100.0, -100.0]], (CONST,), [2.0], 1.0)
        assert forward_batch(net, np.array([[3.0, 4.0]]))[0] == 3.0

    def test_batch_matches_single(self):
        net = make_net([[2.0, 0.0]], (ID,), [1.0], 0.0)
        rows = np.array([[1.5, 9.0], [-2.0, 1.0]])
        out = forward_batch(net, rows)
        assert out[0] == 3.0
        assert out[1] == forward_batch(net, rows[1][None, :])[0]

    def test_empty_batch(self):
        net = make_net([[1.0]], (ID,), [1.0], 0.0)
        assert forward_batch(net, np.empty((0, 1))).shape == (0,)

    def test_identical_rows_give_constant_vector(self):
        rng = np.random.default_rng(0)
        net = make_net(rng.standard_normal((3, 2)), (ID, CONST, ID), rng.standard_normal(3), 0.7)
        rows = np.tile(rng.standard_normal(2), (5, 1))
        out = forward_batch(net, rows)
        assert np.all(out == out[0])

    def test_affine_combination_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = int(rng.integers(1, 5))
            f = int(rng.integers(1, 4))
            prims = tuple(ID if rng.random() < 0.5 else CONST for _ in range(h))
            net = make_net(rng.standard_normal((h, f)), prims, rng.standard_normal(h), float(rng.standard_normal()))
            x1, x2 = rng.standard_normal(f), rng.standard_normal(f)
            a = float(rng.uniform(-1, 2))
            mixed = forward_batch(net, (a * x1 + (1 - a) * x2)[None, :])[0]
            combined = a * forward_batch(net, x1[None, :])[0] + (1 - a) * forward_batch(net, x2[None, :])[0]
            assert abs(mixed - combined) <= 1e-9

    def test_rejects_wrong_shape(self):
        net = make_net([[1.0, 2.0]], (ID,), [1.0], 0.0)
        with pytest.raises(ValueError):
            forward_batch(net, np.array([[1.0]]))
        with pytest.raises(ValueError):
            forward_batch(net, np.ones((2, 3)))
        with pytest.raises(ValueError, match="points must have shape"):
            forward_batch(net, Dataset(np.ones((2, 3))))

    def test_rejects_non_finite_input(self):
        net = make_net([[1.0]], (ID,), [1.0], 0.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                forward_batch(net, np.array([[bad]]))
            with pytest.raises(ValueError, match="non-finite"):
                forward_batch(net, np.array([[0.5], [bad]]))

    def test_dataset_argument_matches_its_points_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h, f, n = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 300))
            prims = tuple(ID if rng.random() < 0.5 else CONST for _ in range(h))
            net = make_net(rng.standard_normal((h, f)), prims, rng.standard_normal(h), float(rng.standard_normal()))
            data = Dataset(rng.uniform(-50.0, 50.0, size=(n, f)))
            assert forward_batch(net, data).tobytes() == forward_batch(net, data.points).tobytes()


class TestCollapse:
    PARAMETERS = [("w_in", (i, j)) for i in range(2) for j in range(2)] + [("w_out", 0), ("w_out", 1), ("b_out", None)]

    # train's last divergence check reads only the collapse, so a non-finite
    # parameter must reach it, also where a constant unit's flag or a zero
    # readout weight multiplies it.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("w_out", [[1.0, 1.0], [0.0, 0.0]], ids=["unit-readout", "zero-readout"])
    @pytest.mark.parametrize("field, index", PARAMETERS)
    def test_every_parameter_reaches_it(self, field, index, w_out, bad):
        net = make_net([[1.0, 2.0], [3.0, 4.0]], (ID, CONST), w_out, 0.5)
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
            assert net.w_in.shape == (4, 2)
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

    def test_custom_primitives_set_width(self):
        net = initialize(self.square_data(), primitives=(ID, CONST, ID), seed=0)
        assert net.n_units == 3
        assert net.primitives == (ID, CONST, ID)

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
        net = make_net([[0.5, 0.5], [0.4, -0.3]], (ID, ID), [0.0005, 0.8], 0.1)
        masked = apply_mask(net, 0.001)
        assert np.array_equal(masked.w_out, [0.0, 0.8])
        assert np.array_equal(masked.w_in, net.w_in)

    def test_threshold_zero_masks_only_exact_zeros(self):
        net = make_net([[-0.0, 1e-300]], (ID,), [0.2], 0.0)
        masked = apply_mask(net, 0.0)
        assert same_bits(masked.w_in, np.array([[0.0, 1e-300]]))

    @pytest.mark.parametrize("threshold", [0.0, 0.001])
    def test_negative_zero_becomes_positive_zero(self, threshold):
        net = make_net([[-0.0, 0.5]], (ID,), [-0.0], 0.0)
        masked = apply_mask(net, threshold)
        assert same_bits(masked.w_in, np.array([[0.0, 0.5]]))
        assert same_bits(masked.w_out, np.array([0.0]))

    def test_idempotent(self):
        net = make_net([[0.0002, 0.9], [0.4, -0.0001]], (ID, ID), [0.7, 0.0003], 0.3)
        once = apply_mask(net, 0.001)
        twice = apply_mask(once, 0.001)
        assert same_bits(once.w_in, twice.w_in)
        assert same_bits(once.w_out, twice.w_out)

    def test_earlier_mask_survives_smaller_threshold(self):
        net = make_net([[0.0005, 0.9]], (ID,), [0.8], 0.0)
        coarse = apply_mask(net, 0.01)
        fine = apply_mask(coarse, 1e-9)
        assert same_bits(fine.w_in, np.array([[0.0, 0.9]]))

    def test_bias_never_masked(self):
        net = make_net([[0.5]], (ID,), [0.5], 1e-9)
        masked = apply_mask(net, 0.001)
        assert masked.b_out == 1e-9

    def test_negative_threshold_rejected(self):
        net = make_net([[0.5]], (ID,), [0.5], 0.0)
        with pytest.raises(ValueError):
            apply_mask(net, -0.1)

    @pytest.mark.parametrize("threshold", [True, False])
    def test_bool_threshold_rejected(self, threshold):
        net = make_net([[0.5]], (ID,), [0.5], 0.0)
        with pytest.raises(ValueError, match=f"threshold must be a finite number >= 0, got {threshold}"):
            apply_mask(net, threshold)

    def test_original_untouched(self):
        net = make_net([[0.0005]], (ID,), [0.5], 0.0)
        apply_mask(net, 0.001)
        assert net.w_in[0, 0] == 0.0005


# Signed zeros, subnormals, values on either side of the thresholds below,
# infinities and NaN are common; arbitrary floats fill the rest.
SPECIAL_WEIGHTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-3, -1e-3, 0.5, math.inf, -math.inf, math.nan]
weight_values = st.sampled_from(SPECIAL_WEIGHTS) | st.floats()
thresholds = st.sampled_from([0.0, 5e-324, 1e-3, 1.0, sys.float_info.max]) | st.floats(0.0, 1e300)


@st.composite
def raw_layers(draw):
    """The two weight layers of one network, non-finite values included."""
    h, f = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return (
        draw(hnp.arrays(float, (h, f), elements=weight_values)),
        draw(hnp.arrays(float, h, elements=weight_values)),
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
    def test_apply_mask_is_bit_identical(self, layers, threshold):
        w_in, w_out = layers
        prims = (ID,) * w_in.shape[0]
        # Training assigns stepped weights to the fields without a check, so
        # apply_mask can see non-finite values.
        net = EqlNetwork(np.zeros_like(w_in), prims, np.zeros_like(w_out), 0.25)
        net.w_in, net.w_out = w_in, w_out
        exp_in, exp_out = freeze(w_in, threshold), freeze(w_out, threshold)
        expected = outcome(network_checks, exp_in, prims, exp_out, 0.25)
        kind, got = outcome(apply_mask, net, threshold)
        if expected[0] != "ok":
            assert (kind, got) == expected
            return
        assert kind == "ok", got
        assert same_bits(got.w_in, exp_in) and same_bits(got.w_out, exp_out)
        assert got.b_out == 0.25

    @settings(max_examples=400, deadline=None)
    @given(layers=raw_layers(), b_out=weight_values)
    def test_constructor_raises_what_the_oracle_raises(self, layers, b_out):
        w_in, w_out = layers
        prims = (ID,) * w_in.shape[0]
        expected = outcome(network_checks, w_in, prims, w_out, b_out)
        kind, got = outcome(EqlNetwork, w_in, prims, w_out, b_out)
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
        call = (args["w_in"], (ID,), args["w_out"], args["b_out"])
        kind, message = outcome(network_checks, *call)
        assert kind is ValueError
        with pytest.raises(ValueError) as info:
            EqlNetwork(*call)
        assert str(info.value) == message


class TestNetworkValidation:
    def test_parameters_are_the_four_fields(self):
        assert [f.name for f in dataclasses.fields(EqlNetwork)] == ["w_in", "primitives", "w_out", "b_out"]

    def test_shape_mismatches(self):
        with pytest.raises(ValueError):
            make_net([[1.0]], (ID, ID), [1.0], 0.0)
        with pytest.raises(ValueError):
            make_net([[1.0]], (ID,), [1.0, 2.0], 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_net([[np.inf]], (ID,), [1.0], 0.0)

    def test_is_identity_is_read_only_and_shared_safely(self):
        net = make_net(np.ones((3, 2)), (ID, CONST, ID), [1.0, 2.0, 3.0], 0.0)
        other = make_net(np.ones((3, 2)), (ID, CONST, ID), [1.0, 2.0, 3.0], 0.0)
        with pytest.raises(ValueError):
            net.is_identity[1] = True
        assert list(other.is_identity) == [True, False, True]
        assert forward_batch(other, np.array([[1.0, 1.0]]))[0] == 10.0
