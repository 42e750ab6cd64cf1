"""Rejection sampling of uniform points from box-plus-cuts regions.

A region is an axis-aligned box intersected with optional strict linear
cuts and at most one closed ball cap.  Candidates are drawn uniformly from
the box and kept when they satisfy every cut, so accepted points are
uniform over the feasible region.  Four ready-made benchmark regions cover
a cut square (sampled at two densities), a disk, and a cut cube.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import Dataset, Direction, _check_integer, _check_keys, _direction, _frozen, _real, _reals
from .datamodel import read_json_object


class RejectionBudgetExceededError(RuntimeError):
    """Too many consecutive rejections; the region is empty or nearly so."""


@dataclass(frozen=True, eq=False)
class LinearCut:
    """Strict half-plane condition on a region.

    LOWER keeps points with ``bound < coeffs . x``; UPPER keeps points with
    ``coeffs . x < bound``.  Both are strict, matching how cut regions are
    usually written; the enclosing box bounds stay inclusive.
    """

    coeffs: np.ndarray
    bound: float
    direction: Direction = Direction.LOWER

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _frozen(_reals("coeffs", self.coeffs)))
        object.__setattr__(self, "bound", _real("bound", self.bound))


@dataclass(frozen=True, eq=False)
class BallCap:
    """Closed ball condition: ``|x - center|^2 <= radius^2``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _frozen(_reals("center", self.center)))
        object.__setattr__(self, "radius", _real("radius", self.radius))
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True, eq=False)
class RegionSpec:
    """Sampling region: box bounds per feature, strict cuts, optional ball."""

    box: np.ndarray
    linear_cuts: tuple[LinearCut, ...] = ()
    quadratic_cap: BallCap | None = None

    def __post_init__(self) -> None:
        box = _reals("box", self.box, depth=2)
        if box.shape[1] != 2:
            raise ValueError(f"box must have shape (F, 2), got {box.shape}")
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("every box row needs lower < upper")
        # The sampler draws lower + (upper - lower) * u, so the width must be a float too.
        for i, (lo, hi) in enumerate(box.tolist()):
            if not math.isfinite(hi - lo):
                raise ValueError(f"box[{i}] must be narrower than the float range, got [{lo!r}, {hi!r}]")
        cuts = tuple(self.linear_cuts)
        f = box.shape[0]
        for cut in cuts:
            if cut.coeffs.size != f:
                raise ValueError(f"cut has {cut.coeffs.size} coefficients, expected {f}")
        if self.quadratic_cap is not None and self.quadratic_cap.center.size != f:
            raise ValueError("ball center dimension must match the box")
        object.__setattr__(self, "box", _frozen(box))
        object.__setattr__(self, "linear_cuts", cuts)

    @property
    def n_features(self) -> int:
        return self.box.shape[0]

    def membership_mask(self, points: np.ndarray) -> np.ndarray:
        """Membership of each row of an (N, F) array (box bounds inclusive, cuts strict).

        Near the edge of the float range a cut's value or the squared
        distance to the ball's center may overflow; an infinite value
        compares with the bound as it should, and a NaN one (``inf - inf``)
        puts its row outside the region, so neither warns.
        """
        pts = np.asarray(points, dtype=float)
        ok = np.all(pts >= self.box[:, 0], axis=1) & np.all(pts <= self.box[:, 1], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            for cut in self.linear_cuts:
                values = pts @ cut.coeffs
                if cut.direction is Direction.LOWER:
                    ok &= cut.bound < values
                else:
                    ok &= values < cut.bound
            cap = self.quadratic_cap
            if cap is not None:
                delta = pts - cap.center
                # Not radius * radius: it can differ from ** by an ulp, which would move sampled points.
                try:
                    squared_radius = cap.radius**2
                except OverflowError:
                    squared_radius = math.inf
                ok &= np.einsum("ij,ij->i", delta, delta) <= squared_radius
        return ok


# After this many rejections in a row (per requested point) the region is
# treated as effectively empty.
REJECTION_BUDGET_PER_POINT = 10_000

# Candidates drawn per call to the generator.  A block of B candidates
# consumes the same random stream as B single draws, so the points do not
# depend on the block size.
CANDIDATE_BLOCK = 4096


def generate(spec: RegionSpec, n: int, seed: int = 0) -> Dataset:
    """Draw ``n >= 1`` uniform points from the region.

    Fully determined by (spec, n, seed).  Candidates are tested in the
    order drawn; raises :class:`RejectionBudgetExceededError` after
    ``10000 * n`` consecutive rejections.
    """
    _check_integer("n", n, 1)
    _check_integer("seed", seed, 0)
    f = spec.n_features
    rng = np.random.default_rng(seed)
    lo, hi = spec.box[:, 0], spec.box[:, 1]
    budget = REJECTION_BUDGET_PER_POINT * n
    points = np.empty((n, f))
    accepted = 0
    consecutive = 0
    while accepted < n:
        block = rng.uniform(lo, hi, size=(CANDIDATE_BLOCK, f))
        hits = np.flatnonzero(spec.membership_mask(block))[: n - accepted]
        # Rejection runs in candidate order, counted across blocks: one run
        # before each kept candidate, and the run still open at the block end.
        start = -1 - consecutive
        gaps = np.diff(hits, prepend=start) - 1
        consecutive = CANDIDATE_BLOCK - 1 - (hits[-1] if hits.size else start)
        points[accepted : accepted + hits.size] = block[hits]
        accepted += hits.size
        if np.any(gaps >= budget) or (accepted < n and consecutive >= budget):
            raise RejectionBudgetExceededError(
                f"{budget} consecutive rejections; the region appears empty"
            )
    return Dataset(points)


def _square_region() -> RegionSpec:
    return RegionSpec(
        box=[[-5.0, 25.0], [-5.0, 25.0]],
        linear_cuts=(LinearCut([1.0, 2.0], 4.0, Direction.LOWER),),
    )


def _circle_region() -> RegionSpec:
    r = math.sqrt(200.0)
    return RegionSpec(
        box=[[-r, r], [-r, r]],
        quadratic_cap=BallCap([0.0, 0.0], r),
    )


def _cube_region() -> RegionSpec:
    return RegionSpec(
        box=[[-5.0, 25.0], [-5.0, 25.0], [-5.0, 25.0]],
        linear_cuts=(LinearCut([1.0, 2.0, -3.0], 4.0, Direction.LOWER),),
    )


# name -> (region factory, point count)
PAPER_PRESETS: dict[str, tuple] = {
    "square-high": (_square_region, 600),
    "circle": (_circle_region, 250),
    "square-low": (_square_region, 100),
    "cube": (_cube_region, 2000),
}


def paper_dataset(name: str, seed: int = 0) -> Dataset:
    """Generate one of the named benchmark datasets."""
    try:
        factory, count = PAPER_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PAPER_PRESETS)}"
        ) from None
    return generate(factory(), count, seed)


def region_spec_to_dict(spec: RegionSpec) -> dict:
    payload: dict = {
        "box": [[float(lo), float(hi)] for lo, hi in spec.box],
        "linear_cuts": [
            {
                "coeffs": [float(v) for v in cut.coeffs],
                "bound": cut.bound,
                "direction": cut.direction.value,
            }
            for cut in spec.linear_cuts
        ],
        "quadratic_cap": None,
    }
    if spec.quadratic_cap is not None:
        payload["quadratic_cap"] = {
            "center": [float(v) for v in spec.quadratic_cap.center],
            "radius": spec.quadratic_cap.radius,
        }
    return payload


def region_spec_from_dict(payload: dict) -> RegionSpec:
    """Rebuild a region spec from :func:`region_spec_to_dict` output.

    ``linear_cuts``, ``quadratic_cap`` and a cut's ``direction`` may be left
    out.  Every error is a ValueError prefixed ``malformed region spec:``.
    """
    try:
        _check_keys("region spec", payload, ("box", "linear_cuts", "quadratic_cap"))
        cuts = payload.get("linear_cuts", [])
        if not isinstance(cuts, list):
            raise ValueError(f"linear_cuts must be a list, got {cuts!r}")
        linear_cuts = []
        for i, cut in enumerate(cuts):
            name = f"linear_cuts[{i}]"
            _check_keys(name, cut, ("coeffs", "bound", "direction"))
            direction = _direction(f"{name}.direction", cut.get("direction", "lower"))
            linear_cuts.append(_named(name, LinearCut, cut["coeffs"], cut["bound"], direction))
        cap = payload.get("quadratic_cap")
        if cap is not None:
            _check_keys("quadratic_cap", cap, ("center", "radius"))
            cap = _named("quadratic_cap", BallCap, cap["center"], cap["radius"])
        return RegionSpec(payload["box"], tuple(linear_cuts), cap)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed region spec: {exc}") from exc


def _named(name: str, build, *args):
    """``build(*args)``; a ValueError it raises gets ``name.`` put before the field it names."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from None


def load_region_spec(path: str | Path) -> RegionSpec:
    """Read a region spec from JSON."""
    return region_spec_from_dict(read_json_object(path, "region spec"))


def save_region_spec(spec: RegionSpec, path: str | Path) -> None:
    """Write a region spec as JSON."""
    Path(path).write_text(json.dumps(region_spec_to_dict(spec), indent=2) + "\n", encoding="utf-8")
