"""Constraint extraction, canonical form, scoring, and pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlbounds import (
    COEFF_EPS,
    Dataset,
    DegenerateConstraintError,
    Direction,
    EmptyDatasetError,
    EqlNetwork,
    LinearConstraint,
    LinearCut,
    RegionSpec,
    collapse_affine,
    constraint_text,
    extract_constraint,
    forward_batch,
    generate,
    paper_dataset,
    prune,
    violation_rate,
    violation_report,
)

from _oracles import LAYOUTS, identity_rows, network_output, recount_violations


def random_net(rng, f=None):
    """A network of a layout drawn from LAYOUTS, with normal weights."""
    n_identity, n_constant = LAYOUTS[rng.integers(len(LAYOUTS))]
    h = n_identity + n_constant
    f = f or int(rng.integers(1, 5))
    return EqlNetwork(
        identity_rows(rng.standard_normal((h, f)), n_identity),
        rng.standard_normal(h),
        float(rng.standard_normal()),
    )


class TestCollapseAffine:
    def test_matches_forward_on_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            net = random_net(rng)
            a, c = collapse_affine(net)
            pts = rng.uniform(-25, 25, size=(50, net.n_features))
            expected = np.array([network_output(net, row) for row in pts])
            for computed in (forward_batch(net, pts), pts @ a + c):
                assert np.max(np.abs(computed - expected)) <= 1e-9

    def test_constant_units_feed_offset(self):
        net = EqlNetwork(np.array([[2.0]]), np.array([3.0, 5.0]), 1.5)
        a, c = collapse_affine(net)
        assert np.array_equal(a, [6.0])
        assert c == 6.5


class TestExtractConstraint:
    def test_two_feature_lower_bound(self):
        # Identity unit carrying slopes [0.9544, 2.0] at readout weight 0.5
        # collapses to a = [0.4772, 1.0]; constants bring c to -2.1469.
        net = EqlNetwork(
            np.array([[0.9544, 2.0]]),
            np.array([0.5, -3.1469]),
            1.0,
        )
        constraint = extract_constraint(net, Direction.LOWER)
        assert np.allclose(constraint.coeffs, [0.4772, 1.0], atol=1e-12)
        assert constraint.coeffs[1] == 1.0
        assert constraint.bound == pytest.approx(2.1469, abs=1e-12)
        assert constraint.relation is Direction.LOWER
        assert constraint_text(constraint) == "2.1469 <= 0.4772*X0 + X1"

    def test_negative_divisor_flips_relation(self):
        # Collapses to a = [0, -2], c = 4: dividing by -2 turns the sought
        # lower bound into "X1 <= 2".
        net = EqlNetwork(
            np.array([[0.0, -2.0]]),
            np.array([1.0, 3.0]),
            1.0,
        )
        constraint = extract_constraint(net, Direction.LOWER)
        assert np.array_equal(constraint.coeffs, [0.0, 1.0])
        assert constraint.bound == 2.0
        assert constraint.relation is Direction.UPPER
        assert constraint_text(constraint) == "X1 <= 2"

    def test_zero_network_is_degenerate(self):
        net = EqlNetwork(np.zeros((1, 2)), np.zeros(2), 5.0)
        with pytest.raises(DegenerateConstraintError):
            extract_constraint(net, Direction.LOWER)

    # A lead just above COEFF_EPS scales the other coefficient, or the bound,
    # past the float range; that is a degenerate fit, not an input error,
    # and it gives no warning.
    @pytest.mark.parametrize(
        "w_in, b_out", [([[1e301, 1e-8]], 0.0), ([[0.0, 1e-8]], 1e301)], ids=["coefficient", "bound"]
    )
    def test_overflowing_canonical_form_is_degenerate(self, w_in, b_out):
        net = EqlNetwork(np.array(w_in), np.array([1.0]), b_out)
        with pytest.raises(DegenerateConstraintError, match=r"lead coefficient 1e-08 \(index 1\) overflows"):
            extract_constraint(net, Direction.LOWER)

    def test_dust_coefficients_dropped_before_scaling(self):
        # The trailing coefficient is far below the significance cutoff, so
        # the middle one becomes the canonical lead instead.
        net = EqlNetwork(
            np.array([[3.0, 2.0, 1e-12]]),
            np.array([1.0]),
            0.0,
        )
        constraint = extract_constraint(net, Direction.LOWER)
        assert constraint.coeffs[2] == 0.0
        assert constraint.coeffs[1] == 1.0
        assert constraint.coeffs[0] == pytest.approx(1.5, abs=1e-15)

    def test_canonicalization_preserves_feasible_set(self):
        rng = np.random.default_rng(19)
        kept = 0
        for _ in range(40):
            net = random_net(rng)
            try:
                constraint = extract_constraint(net, Direction.LOWER)
            except DegenerateConstraintError:
                continue
            a, c = collapse_affine(net)
            pts = rng.uniform(-10, 10, size=(80, net.n_features))
            # Pre-canonical form of a sought lower bound: -c <= a . x.
            before = pts @ a >= -c
            values = pts @ constraint.coeffs
            if constraint.relation is Direction.LOWER:
                after = values >= constraint.bound
            else:
                after = values <= constraint.bound
            assert np.array_equal(before, after)
            kept += 1
        assert kept >= 30

    def test_masked_slopes_leave_zero_coefficients(self):
        net = EqlNetwork(
            np.array([[0.0, 1.3], [0.4, 0.2]]),
            np.array([0.8, 0.0]),
            -1.0,
        )
        constraint = extract_constraint(net, Direction.LOWER)
        assert constraint.coeffs[0] == 0.0


# Collapsed values that are 0 or lie 1e-6..1e6 from it: scaled by 2^j with
# |j| <= 8 they stay exact and clear of COEFF_EPS, so the scaled network
# drops the same coefficients as dust.
_COLLAPSED = st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6)
_SCALES = st.builds(lambda sign, j: sign * 2.0**j, st.sampled_from([1.0, -1.0]), st.integers(-8, 8))


class TestScaleInvariance:
    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(_COLLAPSED, min_size=1, max_size=4).filter(any),
        offset=_COLLAPSED,
        scale=_SCALES,
        direction=st.sampled_from(Direction),
    )
    def test_scaled_collapse_gives_the_same_constraint(self, coeffs, offset, scale, direction):
        assert 1e-6 * 2.0**-8 > COEFF_EPS
        base = EqlNetwork(np.array([coeffs]), np.array([1.0]), offset)
        scaled = EqlNetwork(np.array([coeffs]), np.array([scale]), scale * offset)
        a, c = collapse_affine(scaled)
        assert np.array_equal(a, scale * np.array(coeffs))
        assert c == scale * offset
        expected = extract_constraint(base, direction)
        got = extract_constraint(scaled, direction)
        assert np.array_equal(got.coeffs, expected.coeffs)
        assert got.bound == expected.bound
        assert got.relation is (expected.relation if scale > 0 else expected.relation.flipped())


class TestViolationRate:
    def test_generating_constraint_is_never_violated(self):
        spec = RegionSpec(box=[[-5.0, 25.0]], linear_cuts=(LinearCut([1.0], -5.0, Direction.LOWER),))
        data = generate(spec, 200, seed=1)
        constraint = LinearConstraint(np.array([1.0]), -5.0, Direction.LOWER)
        assert violation_rate(constraint, data) == 0.0

    def test_bound_past_all_points_violates_everything(self):
        data = Dataset(np.linspace(0.0, 1.0, 10)[:, None])
        constraint = LinearConstraint(np.array([1.0]), 2.0, Direction.LOWER)
        assert violation_rate(constraint, data) == 100.0

    def test_single_violation_of_250(self):
        pts = np.linspace(1.0, 250.0, 250)[:, None]
        constraint = LinearConstraint(np.array([1.0]), 1.5, Direction.LOWER)
        assert violation_rate(constraint, Dataset(pts)) == pytest.approx(0.4)

    def test_boundary_point_counts_as_satisfied(self):
        data = Dataset(np.array([[2.0], [3.0]]))
        constraint = LinearConstraint(np.array([1.0]), 2.0, Direction.LOWER)
        assert violation_rate(constraint, data) == 0.0
        upper = LinearConstraint(np.array([1.0]), 3.0, Direction.UPPER)
        assert violation_rate(upper, data) == 0.0

    def test_matches_pure_python_recount(self):
        rng = np.random.default_rng(31)
        data = paper_dataset("square-low", seed=0)
        for _ in range(20):
            net = random_net(rng, f=2)
            try:
                constraint = extract_constraint(net, Direction.LOWER)
            except DegenerateConstraintError:
                continue
            expected = recount_violations(
                constraint.coeffs,
                constraint.bound,
                constraint.relation is Direction.LOWER,
                data.points,
            )
            assert violation_rate(constraint, data) == 100.0 * expected / data.n_points

    def test_empty_dataset_rejected(self):
        constraint = LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER)
        with pytest.raises(EmptyDatasetError):
            violation_rate(constraint, Dataset(np.empty((0, 1))))

    def test_dimension_mismatch_rejected(self):
        constraint = LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER)
        with pytest.raises(ValueError):
            violation_rate(constraint, Dataset(np.ones((3, 2))))

    def test_report_fields(self):
        data = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
        constraint = LinearConstraint(np.array([1.0]), 0.5, Direction.LOWER)
        report = violation_report(constraint, data)
        assert report["n"] == 4
        assert report["violations"] == 1
        assert report["rate_percent"] == 25.0
        assert report["expression"] == "0.5 <= X0"
        assert report["constraint"]["relation"] == "lower"


class TestPrune:
    def canonical(self, raw, bound=1.0, relation=Direction.LOWER):
        raw = np.asarray(raw, dtype=float)
        scaled = raw / raw[-1]
        scaled[-1] = 1.0
        return LinearConstraint(scaled, bound / raw[-1], relation)

    def test_drops_relatively_tiny_coefficient(self):
        constraint = self.canonical([0.2230, 0.0158, 2.614e-5])
        pruned = prune(constraint, 0.01)
        assert pruned.coeffs[2] == 0.0
        assert pruned.coeffs[1] == 1.0
        assert pruned.coeffs[0] == pytest.approx(0.2230 / 0.0158, rel=1e-12)

    def test_zero_threshold_is_identity(self):
        constraint = self.canonical([0.5, 1e-6, 3.0])
        pruned = prune(constraint, 0.0)
        assert np.array_equal(pruned.coeffs, constraint.coeffs)
        assert pruned.bound == constraint.bound
        assert pruned.relation is constraint.relation

    def test_idempotent(self):
        constraint = self.canonical([0.8, 0.004, -1.2, 2.0])
        once = prune(constraint, 0.05)
        twice = prune(once, 0.05)
        assert np.array_equal(once.coeffs, twice.coeffs)
        assert once.bound == twice.bound
        assert once.relation is twice.relation

    def test_dropping_the_lead_rescales(self):
        # The canonical lead itself can be the relatively-tiny coefficient.
        constraint = self.canonical([500.0, 200.0, 1.0])
        pruned = prune(constraint, 0.01)
        assert pruned.coeffs[2] == 0.0
        assert pruned.coeffs[1] == 1.0
        assert pruned.coeffs[0] == pytest.approx(2.5, rel=1e-12)

    def test_threshold_bounds(self):
        constraint = self.canonical([1.0, 1.0])
        with pytest.raises(ValueError):
            prune(constraint, 1.0)
        with pytest.raises(ValueError):
            prune(constraint, -0.01)

    @pytest.mark.parametrize(
        "bad, message",
        [("0.1", "'0.1'"), (None, "None"), (True, "True")],
        ids=["string", "none", "bool"],
    )
    def test_non_number_threshold_names_itself(self, bad, message):
        with pytest.raises(ValueError, match=f"^rel_threshold must be a number, got {message}$"):
            prune(self.canonical([1.0, 1.0]), bad)

    def test_pruning_everything_but_lead_keeps_constraint_valid(self):
        constraint = self.canonical([1e-4, 1.0])
        pruned = prune(constraint, 0.5)
        assert np.array_equal(pruned.coeffs, [0.0, 1.0])
