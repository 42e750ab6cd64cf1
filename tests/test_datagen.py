"""Rejection sampling: membership, determinism, presets, budget."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlbounds import datagen
from eqlbounds import (
    BallCap,
    Direction,
    LinearCut,
    PAPER_PRESETS,
    RegionSpec,
    RejectionBudgetExceededError,
    generate,
    load_region_spec,
    paper_dataset,
    save_region_spec,
)

from eqlbounds.datagen import region_spec_from_dict

from _oracles import region_contains, scalar_sample


def square_spec():
    return RegionSpec(
        box=[[-5.0, 25.0], [-5.0, 25.0]],
        linear_cuts=(LinearCut([1.0, 2.0], 4.0, Direction.LOWER),),
    )


class TestGenerate:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            generate(square_spec(), 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate(square_spec(), -1)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (2.5, 0, "n must be an integer, got 2.5"),
            (True, 0, "n must be an integer, got True"),
            (10, 1.5, "seed must be an integer, got 1.5"),
            (10, True, "seed must be an integer, got True"),
        ],
    )
    def test_non_integer_count_or_seed_rejected_naming_it(self, n, seed, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(square_spec(), n, seed)

    def test_square_membership(self):
        ds = generate(square_spec(), 600, seed=3)
        pts = ds.points
        assert np.all(pts >= -5.0) and np.all(pts <= 25.0)
        assert np.all(pts[:, 0] + 2.0 * pts[:, 1] > 4.0)

    def test_deterministic(self):
        a = generate(square_spec(), 50, seed=42)
        b = generate(square_spec(), 50, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_seeds_differ(self):
        a = generate(square_spec(), 50, seed=0)
        b = generate(square_spec(), 50, seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_infeasible_region_exhausts_budget(self):
        spec = RegionSpec(
            box=[[0.0, 1.0]],
            linear_cuts=(LinearCut([1.0], 5.0, Direction.LOWER),),
        )
        with pytest.raises(RejectionBudgetExceededError):
            generate(spec, 1, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_sampler(self, data):
        # Small budgets and block sizes put rejection runs across block
        # boundaries and right at the budget, where miscounting would show.
        f = data.draw(st.integers(1, 3), label="features")
        coord = st.floats(-10.0, 10.0)
        lows = data.draw(st.lists(coord, min_size=f, max_size=f), label="box lows")
        widths = data.draw(st.lists(st.floats(0.5, 20.0), min_size=f, max_size=f), label="box widths")
        cut = st.builds(
            LinearCut,
            st.lists(st.floats(-3.0, 3.0), min_size=f, max_size=f),
            st.floats(-20.0, 20.0),
            st.sampled_from(Direction),
        )
        cap = st.builds(BallCap, st.lists(coord, min_size=f, max_size=f), st.floats(0.1, 15.0))
        spec = RegionSpec(
            box=[[lo, lo + w] for lo, w in zip(lows, widths)],
            linear_cuts=tuple(data.draw(st.lists(cut, max_size=2), label="cuts")),
            quadratic_cap=data.draw(st.none() | cap, label="cap"),
        )
        n = data.draw(st.integers(1, 20), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        per_point = data.draw(st.integers(1, 20), label="budget per point")
        block = data.draw(st.sampled_from([1, 2, 3, 7, 64, datagen.CANDIDATE_BLOCK]), label="block")
        try:
            want = scalar_sample(spec, n, seed, per_point * n)
        except RejectionBudgetExceededError:
            want = None
        with mock.patch.object(datagen, "REJECTION_BUDGET_PER_POINT", per_point), mock.patch.object(
            datagen, "CANDIDATE_BLOCK", block
        ):
            if want is None:
                with pytest.raises(RejectionBudgetExceededError):
                    generate(spec, n, seed)
            else:
                assert np.array_equal(generate(spec, n, seed).points, want)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, datagen.CANDIDATE_BLOCK])
    def test_budget_is_exact_across_blocks(self, block):
        # In a 10% region, find a seed whose longest rejection run before
        # the second acceptance, L, is even; a budget of exactly L must
        # raise and one of L + 2 must not, whatever the block size.
        spec = RegionSpec(box=[[0.0, 1.0]], linear_cuts=(LinearCut([1.0], 0.9, Direction.LOWER),))
        n = 2
        for seed in range(100):
            draws = np.random.default_rng(seed).uniform(0.0, 1.0, size=1000)
            kept = [i for i, u in enumerate(draws) if region_contains(spec, [u])][:n]
            longest = max(np.diff(kept, prepend=-1) - 1)
            if longest > 0 and longest % n == 0:
                break
        else:
            pytest.fail("no seed in range(100) has an even longest run")
        with mock.patch.object(datagen, "CANDIDATE_BLOCK", block):
            with mock.patch.object(datagen, "REJECTION_BUDGET_PER_POINT", longest // n):
                with pytest.raises(RejectionBudgetExceededError):
                    generate(spec, n, seed)
            with mock.patch.object(datagen, "REJECTION_BUDGET_PER_POINT", longest // n + 1):
                assert np.array_equal(generate(spec, n, seed).points, draws[kept][:, None])

    def test_upper_cut_direction(self):
        spec = RegionSpec(
            box=[[-1.0, 1.0], [-1.0, 1.0]],
            linear_cuts=(LinearCut([1.0, 1.0], 0.5, Direction.UPPER),),
        )
        pts = generate(spec, 100, seed=2).points
        assert np.all(pts[:, 0] + pts[:, 1] < 0.5)

    def test_ball_cap_membership(self):
        spec = RegionSpec(
            box=[[-2.0, 2.0], [-2.0, 2.0]],
            quadratic_cap=BallCap([0.5, 0.0], 1.0),
        )
        pts = generate(spec, 200, seed=1).points
        assert np.all((pts[:, 0] - 0.5) ** 2 + pts[:, 1] ** 2 <= 1.0)


class TestPresets:
    def test_catalog(self):
        assert set(PAPER_PRESETS) == {"square-high", "circle", "square-low", "cube"}

    def test_square_high_shape_and_membership(self):
        ds = paper_dataset("square-high", seed=0)
        assert (ds.n_points, ds.n_features) == (600, 2)
        pts = ds.points
        assert np.all(pts >= -5.0) and np.all(pts <= 25.0)
        assert np.all(pts[:, 0] + 2.0 * pts[:, 1] > 4.0)

    def test_circle_shape_and_membership(self):
        ds = paper_dataset("circle", seed=0)
        assert (ds.n_points, ds.n_features) == (250, 2)
        radii = np.sum(ds.points**2, axis=1)
        assert np.all(radii <= 200.0)

    def test_square_low_shape(self):
        ds = paper_dataset("square-low", seed=0)
        assert (ds.n_points, ds.n_features) == (100, 2)

    def test_cube_shape_and_membership(self):
        ds = paper_dataset("cube", seed=0)
        assert (ds.n_points, ds.n_features) == (2000, 3)
        pts = ds.points
        assert np.all(pts >= -5.0) and np.all(pts <= 25.0)
        assert np.all(pts[:, 0] + 2.0 * pts[:, 1] - 3.0 * pts[:, 2] > 4.0)

    def test_seed_contract(self):
        a = paper_dataset("circle", seed=0)
        b = paper_dataset("circle", seed=1)
        assert (a.n_points, a.n_features) == (b.n_points, b.n_features)
        assert not np.array_equal(a.points, b.points)
        assert np.all(np.sum(b.points**2, axis=1) <= 200.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="square-high"):
            paper_dataset("triangle")


class TestRegionSpecValidation:
    def test_box_bounds_must_increase(self):
        with pytest.raises(ValueError):
            RegionSpec(box=[[1.0, 1.0]])
        with pytest.raises(ValueError):
            RegionSpec(box=[[2.0, -2.0]])

    def test_cut_dimension_must_match(self):
        with pytest.raises(ValueError):
            RegionSpec(
                box=[[0.0, 1.0]],
                linear_cuts=(LinearCut([1.0, 2.0], 0.0, Direction.LOWER),),
            )

    def test_cap_dimension_must_match(self):
        with pytest.raises(ValueError):
            RegionSpec(box=[[0.0, 1.0]], quadratic_cap=BallCap([0.0, 0.0], 1.0))

    @pytest.mark.parametrize("value", [True, "1"])
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda v: LinearCut([v, 1.0], 0.0), "coeffs[0]"),
            (lambda v: LinearCut([1.0, 1.0], v), "bound"),
            (lambda v: BallCap([v, 0.0], 1.0), "center[0]"),
            (lambda v: BallCap([0.0, 0.0], v), "radius"),
            (lambda v: RegionSpec(box=[[v, 2.0]]), "box[0][0]"),
        ],
        ids=["cut-coeffs", "cut-bound", "cap-center", "cap-radius", "box"],
    )
    def test_rejects_bool_or_string_naming_the_field(self, build, field, value):
        with pytest.raises(ValueError, match="^" + re.escape(f"{field} must be a number, got {value!r}") + "$"):
            build(value)

    @pytest.mark.parametrize("direction", ["sideways", None, 1])
    def test_cut_direction_must_be_a_direction(self, direction):
        with pytest.raises(ValueError) as info:
            LinearCut([1.0, 2.0], 4.0, direction)
        assert str(info.value) == f"direction must be 'lower' or 'upper', got {direction!r}"

    # A string direction once passed unread, and membership_mask kept the opposite side.
    @pytest.mark.parametrize("direction", list(Direction))
    def test_cut_direction_is_read_from_its_string_value(self, direction):
        cut = LinearCut([1.0, 2.0], 4.0, direction.value)
        assert cut.direction is direction
        spec = RegionSpec(box=[[0.0, 10.0], [0.0, 10.0]], linear_cuts=(cut,))
        assert spec.membership_mask(np.array([[9.0, 9.0]]))[0] == (direction is Direction.LOWER)

    def test_ball_cap_compares_against_radius_to_the_power_two(self):
        # radius**2 and radius * radius differ by an ulp for some radii; sampled points follow **.
        r = next(r for r in np.linspace(1.0, 2.0, 10_001).tolist() if r**2 < r * r)
        spec = RegionSpec(box=[[-2.0, 2.0]], quadratic_cap=BallCap([0.0], r))
        assert not spec.membership_mask(np.array([[r]]))[0]

    def test_membership_mask_matches_contains(self):
        spec = RegionSpec(
            box=[[-2.0, 2.0], [-2.0, 2.0]],
            linear_cuts=(LinearCut([1.0, -1.0], 0.0, Direction.LOWER),),
            quadratic_cap=BallCap([0.0, 0.0], 1.8),
        )
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2.5, 2.5, size=(200, 2))
        mask = spec.membership_mask(pts)
        assert list(mask) == [region_contains(spec, p) for p in pts]


class TestRegionSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = RegionSpec(
            box=[[-5.0, 25.0], [-5.0, 25.0]],
            linear_cuts=(
                LinearCut([1.0, 2.0], 4.0, Direction.LOWER),
                LinearCut([0.0, 1.0], 20.0, Direction.UPPER),
            ),
            quadratic_cap=BallCap([10.0, 10.0], 18.0),
        )
        path = tmp_path / "region.json"
        save_region_spec(spec, path)
        loaded = load_region_spec(path)
        assert np.array_equal(loaded.box, spec.box)
        assert len(loaded.linear_cuts) == 2
        for got, want in zip(loaded.linear_cuts, spec.linear_cuts):
            assert np.array_equal(got.coeffs, want.coeffs)
            assert got.bound == want.bound
            assert got.direction is want.direction
        assert np.array_equal(loaded.quadratic_cap.center, spec.quadratic_cap.center)
        assert loaded.quadratic_cap.radius == spec.quadratic_cap.radius
        a = generate(spec, 40, seed=9)
        b = generate(loaded, 40, seed=9)
        assert np.array_equal(a.points, b.points)

    # The exact text, key order and indentation included, as other tools may read it.
    def test_saved_bytes(self, tmp_path):
        spec = RegionSpec(
            box=[[-5.0, 25.0], [0.0, 1e-300]],
            linear_cuts=(
                LinearCut([1.0, -0.0], 4.0, Direction.LOWER),
                LinearCut([0.1 + 0.2, 1.0], 20.0, Direction.UPPER),
            ),
            quadratic_cap=BallCap([10.0, -0.0], 1.5),
        )
        path = tmp_path / "region.json"
        save_region_spec(spec, path)
        assert path.read_bytes().decode("utf-8") == (
            "{\n"
            '  "box": [\n'
            "    [\n      -5.0,\n      25.0\n    ],\n"
            "    [\n      0.0,\n      1e-300\n    ]\n"
            "  ],\n"
            '  "linear_cuts": [\n'
            "    {\n"
            '      "coeffs": [\n        1.0,\n        -0.0\n      ],\n'
            '      "bound": 4.0,\n'
            '      "direction": "lower"\n'
            "    },\n"
            "    {\n"
            '      "coeffs": [\n        0.30000000000000004,\n        1.0\n      ],\n'
            '      "bound": 20.0,\n'
            '      "direction": "upper"\n'
            "    }\n"
            "  ],\n"
            '  "quadratic_cap": {\n'
            '    "center": [\n      10.0,\n      -0.0\n    ],\n'
            '    "radius": 1.5\n'
            "  }\n"
            "}\n"
        )

    def test_round_trip_without_cap(self, tmp_path):
        path = tmp_path / "region.json"
        save_region_spec(square_spec(), path)
        loaded = load_region_spec(path)
        assert loaded.quadratic_cap is None
        assert len(loaded.linear_cuts) == 1

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_region_spec(tmp_path / "absent.json")

    def test_optional_parts_may_be_left_out(self):
        spec = region_spec_from_dict({"box": [[0, 1], [-2, 3]], "linear_cuts": [{"coeffs": [1, 1], "bound": 1}]})
        assert np.array_equal(spec.box, [[0.0, 1.0], [-2.0, 3.0]])
        (cut,) = spec.linear_cuts
        assert cut.direction is Direction.LOWER
        assert cut.bound == 1.0
        assert spec.quadratic_cap is None
        bare = region_spec_from_dict({"box": [[0.0, 1.0]], "quadratic_cap": None})
        assert bare.linear_cuts == () and bare.quadratic_cap is None

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"box": [["0", "1"], [0.0, 1.0]]}, "box[0][0]"),
            ({"box": [[0.0, True], [0.0, 1.0]]}, "box[0][1]"),
            ({"box": "unit square"}, "box"),
            ({"box": [0.0, 1.0]}, "box[0]"),
            ({"box": [[0.0, 1.0], [0.0]]}, "box[1] has length 1, but box[0] has length 2"),
            ({"box": [[0.0, 1.0], [-1e308, 1e308]]}, "box[1] must be narrower than the float range"),
            ({"linear_cut": []}, "linear_cut"),
            ({"linear_cuts": {"coeffs": [1.0, 1.0]}}, "linear_cuts"),
            ({"linear_cuts": [{"coeffs": [1.0, 1.0], "bound": True}]}, "linear_cuts[0].bound"),
            ({"linear_cuts": [{"coeffs": [1.0, 1.0], "bound": None}]}, "linear_cuts[0].bound"),
            ({"linear_cuts": [{"coeffs": [1.0, "1"], "bound": 1.0}]}, "linear_cuts[0].coeffs[1]"),
            ({"linear_cuts": [{"coeffs": 1.0, "bound": 1.0}]}, "linear_cuts[0].coeffs"),
            ({"linear_cuts": [{"coeffs": [1.0, 1.0], "bound": 1.0, "direction": "x"}]}, "linear_cuts[0].direction"),
            ({"linear_cuts": [{"coeffs": [1.0, 1.0], "bound": 1.0, "relation": "lower"}]}, "relation"),
            ({"linear_cuts": [[1.0, 1.0]]}, "linear_cuts[0]"),
            ({"linear_cuts": [{"coeffs": [1.0, 1.0]}]}, "bound"),
            ({"quadratic_cap": {"center": [0.5, 0.5], "radius": "1"}}, "quadratic_cap.radius"),
            ({"quadratic_cap": {"center": [0.5, False], "radius": 1.0}}, "quadratic_cap.center[1]"),
            ({"quadratic_cap": {"center": [0.5, 0.5], "radius": 1.0, "radus": 1.0}}, "radus"),
            ({"quadratic_cap": [0.5, 0.5, 1.0]}, "quadratic_cap"),
            pytest.param(
                {"linear_cuts": [{"coeffs": [1.0, 1.0], "bound": 10**400}]}, "linear_cuts[0].bound", id="huge-cut-bound"
            ),
            pytest.param(
                {"quadratic_cap": {"center": [0.5, 0.5], "radius": 10**400}}, "quadratic_cap.radius", id="huge-radius"
            ),
        ],
        ids=repr,
    )
    def test_malformed_spec_is_rejected_naming_the_field(self, change, field):
        payload = {"box": [[0.0, 1.0], [0.0, 1.0]], **change}
        with pytest.raises(ValueError, match="^malformed region spec: .*" + re.escape(field)):
            region_spec_from_dict(payload)

    def test_integer_too_large_for_a_float_is_rejected(self):
        # JSON reads 1e400 as inf, which the classes reject, but an integer literal stays an int.
        message = "box[0][1] must be finite, got a number too large for a float"
        with pytest.raises(ValueError, match="^malformed region spec: " + re.escape(message)):
            region_spec_from_dict({"box": [[0, 10**400]]})

    def test_missing_box_is_rejected(self):
        with pytest.raises(ValueError, match="^malformed region spec: 'box'"):
            region_spec_from_dict({"linear_cuts": []})


class TestUniformity:
    def test_square_quadrants_match_area_shares(self):
        # Feasible region: [-5,25]^2 above the line x0 + 2*x1 = 4.  Split at
        # the box center (10, 10); quadrant areas by direct integration are
        # 138.75, 221, 225, 225 (total 809.75).
        areas = {"ll": 138.75, "lr": 221.0, "ul": 225.0, "ur": 225.0}
        total = sum(areas.values())

        # Independent check of those constants with a dense membership grid.
        grid = np.linspace(-5.0, 25.0, 1501)
        gx, gy = np.meshgrid(grid, grid, indexing="ij")
        inside = gx + 2.0 * gy > 4.0
        cell = (30.0 / 1500) ** 2
        est = float(inside.sum()) * cell
        assert est == pytest.approx(total, rel=0.01)

        ds = paper_dataset("square-high", seed=0)
        x, y = ds.points[:, 0], ds.points[:, 1]
        counts = {
            "ll": int(np.sum((x < 10) & (y < 10))),
            "lr": int(np.sum((x >= 10) & (y < 10))),
            "ul": int(np.sum((x < 10) & (y >= 10))),
            "ur": int(np.sum((x >= 10) & (y >= 10))),
        }
        n = ds.n_points
        for key, area in areas.items():
            p = area / total
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[key] - n * p) <= 4 * sigma, key

    def test_circle_quadrants_are_symmetric(self):
        ds = paper_dataset("circle", seed=0)
        x, y = ds.points[:, 0], ds.points[:, 1]
        n = ds.n_points
        sigma = math.sqrt(n * 0.25 * 0.75)
        for quadrant in (
            (x >= 0) & (y >= 0),
            (x < 0) & (y >= 0),
            (x >= 0) & (y < 0),
            (x < 0) & (y < 0),
        ):
            assert abs(int(quadrant.sum()) - n * 0.25) <= 4 * sigma
