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

from .datamodel import Dataset, Direction, _check_integer, _direction, _frozen, _from_json, _load_json, _real
from .datamodel import _reals, _to_json


class RejectionBudgetExceededError(RuntimeError):
    """Too many consecutive rejections; the region is empty or nearly so."""


@dataclass(frozen=True, eq=False)
class LinearCut:
    """Strict half-plane condition on a region.

    LOWER keeps points with ``bound < coeffs . x``; UPPER keeps points with
    ``coeffs . x < bound``.  Both are strict, matching how cut regions are
    usually written; the enclosing box bounds stay inclusive.  ``direction``
    is a :class:`Direction` or its string value.
    """

    coeffs: np.ndarray
    bound: float
    direction: Direction = Direction.LOWER

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _frozen(_reals("coeffs", self.coeffs)))
        object.__setattr__(self, "bound", _real("bound", self.bound))
        object.__setattr__(self, "direction", _direction("direction", self.direction))


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


_CUT_SQUARE = RegionSpec([[-5.0, 25.0], [-5.0, 25.0]], (LinearCut([1.0, 2.0], 4.0, Direction.LOWER),))
_DISK_RADIUS = math.sqrt(200.0)

# name -> (region, point count); a RegionSpec is frozen, so presets share one.
PAPER_PRESETS: dict[str, tuple[RegionSpec, int]] = {
    "square-high": (_CUT_SQUARE, 600),
    "circle": (RegionSpec([[-_DISK_RADIUS, _DISK_RADIUS]] * 2, quadratic_cap=BallCap([0.0, 0.0], _DISK_RADIUS)), 250),
    "square-low": (_CUT_SQUARE, 100),
    "cube": (RegionSpec([[-5.0, 25.0]] * 3, (LinearCut([1.0, 2.0, -3.0], 4.0, Direction.LOWER),)), 2000),
}


def paper_dataset(name: str, seed: int = 0) -> Dataset:
    """Generate one of the named benchmark datasets."""
    try:
        spec, count = PAPER_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PAPER_PRESETS)}"
        ) from None
    return generate(spec, count, seed)


def region_spec_from_dict(payload: dict) -> RegionSpec:
    """Rebuild a region spec from its JSON form, the object that :func:`save_region_spec` writes.

    ``linear_cuts``, ``quadratic_cap`` and a cut's ``direction`` may be left
    out.  Every error is a ValueError prefixed ``malformed region spec:``.
    """

    def cuts(value) -> tuple[LinearCut, ...]:
        if not isinstance(value, list):
            raise ValueError(f"linear_cuts must be a list, got {value!r}")
        return tuple(_from_json(LinearCut, cut, f"linear_cuts[{i}]", nested=True) for i, cut in enumerate(value))

    def cap(value) -> BallCap | None:
        return None if value is None else _from_json(BallCap, value, "quadratic_cap", nested=True)

    try:
        return _from_json(RegionSpec, payload, "region spec", linear_cuts=cuts, quadratic_cap=cap)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed region spec: {exc}") from exc


def load_region_spec(path: str | Path) -> RegionSpec:
    """Read a region spec from JSON; every error names the file."""
    return _load_json(path, "region spec", region_spec_from_dict)


def save_region_spec(spec: RegionSpec, path: str | Path) -> None:
    """Write a region spec as JSON: the object of its constructor fields, nested objects alike."""
    Path(path).write_text(json.dumps(_to_json(spec), indent=2) + "\n", encoding="utf-8")
