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

from .datamodel import Dataset, Direction, _all_finite, _check_integer, _check_keys, _check_number
from .datamodel import _direction, _frozen, _numbers, read_json_object


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
        a = np.array(self.coeffs, dtype=float)
        if a.ndim != 1 or a.size < 1 or not _all_finite(a):
            raise ValueError("cut coefficients must be a finite 1-D vector")
        if not math.isfinite(self.bound):
            raise ValueError("cut bound must be finite")
        object.__setattr__(self, "coeffs", _frozen(a))
        object.__setattr__(self, "bound", float(self.bound))


@dataclass(frozen=True, eq=False)
class BallCap:
    """Closed ball condition: ``|x - center|^2 <= radius^2``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        c = np.array(self.center, dtype=float)
        if c.ndim != 1 or not _all_finite(c):
            raise ValueError("ball center must be a finite 1-D vector")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", _frozen(c))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True, eq=False)
class RegionSpec:
    """Sampling region: box bounds per feature, strict cuts, optional ball."""

    box: np.ndarray
    linear_cuts: tuple[LinearCut, ...] = ()
    quadratic_cap: BallCap | None = None

    def __post_init__(self) -> None:
        box = np.array(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] < 1:
            raise ValueError(f"box must have shape (F, 2), got {box.shape}")
        if not _all_finite(box):
            raise ValueError("box bounds must be finite")
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("every box row needs lower < upper")
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
        """Membership of each row of an (N, F) array (box bounds inclusive, cuts strict)."""
        pts = np.asarray(points, dtype=float)
        ok = np.all(pts >= self.box[:, 0], axis=1) & np.all(pts <= self.box[:, 1], axis=1)
        for cut in self.linear_cuts:
            values = pts @ cut.coeffs
            if cut.direction is Direction.LOWER:
                ok &= cut.bound < values
            else:
                ok &= values < cut.bound
        cap = self.quadratic_cap
        if cap is not None:
            delta = pts - cap.center
            ok &= np.einsum("ij,ij->i", delta, delta) <= cap.radius**2
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
            _check_number(f"{name}.bound", cut["bound"])
            direction = _direction(f"{name}.direction", cut.get("direction", "lower"))
            linear_cuts.append(LinearCut(_numbers(f"{name}.coeffs", cut["coeffs"]), cut["bound"], direction))
        cap = payload.get("quadratic_cap")
        if cap is not None:
            _check_keys("quadratic_cap", cap, ("center", "radius"))
            _check_number("quadratic_cap.radius", cap["radius"])
            cap = BallCap(_numbers("quadratic_cap.center", cap["center"]), cap["radius"])
        return RegionSpec(_numbers("box", payload["box"], 2), tuple(linear_cuts), cap)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed region spec: {exc}") from exc


def load_region_spec(path: str | Path) -> RegionSpec:
    """Read a region spec from JSON."""
    return region_spec_from_dict(read_json_object(path, "region spec"))


def save_region_spec(spec: RegionSpec, path: str | Path) -> None:
    """Write a region spec as JSON."""
    Path(path).write_text(json.dumps(region_spec_to_dict(spec), indent=2) + "\n", encoding="utf-8")
