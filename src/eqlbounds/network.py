"""Small equation-learner network: one symbolic layer, one linear readout.

The symbolic layer computes one weighted sum per unit (no bias) and pushes
it through that unit's primitive.  Both primitives (identity and constant)
are affine, so the network is one affine map ``f(x) = a.x + c``, and
:func:`collapse_affine` is the only definition of ``(a, c)`` there is.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Sequence

import numpy as np

from .datamodel import Dataset, Direction, _all_finite, _check_integer, _frozen, _real


class Primitive(Enum):
    """Symbolic-layer activations.

    An identity unit passes its weighted sum through; a constant unit
    outputs 1 whatever its input.  Nonlinear units would need their own
    forward pass, gradient and extraction, so none are declared.
    """

    IDENTITY = "identity"
    CONSTANT = "constant"

    # Members are singletons, so identity is equality.  ``Enum.__hash__``
    # hashes the member name in Python; ``object.__hash__`` runs in C, and
    # the unit flags are looked up by primitive tuple on every epoch.
    __hash__ = object.__hash__


# Default architecture: two pass-through units plus two constant units.
DEFAULT_PRIMITIVES = (
    Primitive.IDENTITY,
    Primitive.IDENTITY,
    Primitive.CONSTANT,
    Primitive.CONSTANT,
)


@dataclass(eq=False)
class EqlNetwork:
    """Plain value object holding the parameters of one network.

    ``w_in`` has one row per identity unit, in primitive order: a constant
    unit outputs 1 whatever its input, so it has no input weights.  With no
    identity unit ``w_in`` is ``(0, F)``, which still gives F.

    No mask is stored: masking sets a weight to exactly 0.0 (see
    :func:`apply_mask`), and under masking training keeps every zero weight
    at zero.  The output bias is never masked.  Training code works on its
    own private copy.

    Construction copies the two weight arrays and checks the primitives,
    the shapes, that every weight is finite (two array calls per layer and
    no Python loop: training with masking builds one network per epoch),
    and the output bias by the package's rule for numbers.
    """

    w_in: np.ndarray
    primitives: tuple[Primitive, ...]
    w_out: np.ndarray
    b_out: float

    def __post_init__(self) -> None:
        w_in = np.array(self.w_in, dtype=float)
        w_out = np.array(self.w_out, dtype=float)
        prims = tuple(self.primitives)
        if not prims or not all(map(isinstance, prims, repeat(Primitive))):
            raise ValueError("primitives must be one or more Primitive values")
        n_identity = prims.count(Primitive.IDENTITY)
        if w_in.ndim != 2 or w_in.shape[0] != n_identity or w_in.shape[1] < 1:
            raise ValueError(f"w_in needs one row per identity unit, shape ({n_identity}, F >= 1), got {w_in.shape}")
        if w_out.shape != (len(prims),):
            raise ValueError(f"w_out must have shape ({len(prims)},), got {w_out.shape}")
        if not (_all_finite(w_in) and _all_finite(w_out)):
            raise ValueError("network weights contain non-finite values")
        self.b_out = _real("b_out", self.b_out)
        self.w_in = w_in
        self.primitives = prims
        self.w_out = w_out

    @property
    def n_features(self) -> int:
        return self.w_in.shape[1]


@functools.lru_cache(maxsize=64)
def _unit_flags(primitives: tuple[Primitive, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit flags, read-only and shared: identity (bool), constant (bool)."""
    is_identity = np.array([p is Primitive.IDENTITY for p in primitives])
    return _frozen(is_identity), _frozen(~is_identity)


def collapse_affine(net: EqlNetwork) -> tuple[np.ndarray, float]:
    """Return (a, c) with ``forward_batch(net, points) == points @ a + c``; constant units fold into ``c``."""
    is_identity, is_constant = _unit_flags(tuple(net.primitives))
    coeffs = net.w_out[is_identity] @ net.w_in
    offset = net.b_out + float(np.add.reduce(net.w_out[is_constant]))
    return coeffs, offset


def collapse_affine_grad(net: EqlNetwork, d_coeffs: np.ndarray, d_offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule through :func:`collapse_affine`: (dL/da, dL/dc) to (dL/dw_in, dL/dw_out); dL/db_out is dL/dc."""
    is_identity, _ = _unit_flags(tuple(net.primitives))
    d_w_in = np.multiply.outer(net.w_out[is_identity], d_coeffs)
    d_w_out = np.full(net.w_out.shape, d_offset)
    d_w_out[is_identity] = net.w_in @ d_coeffs
    return d_w_in, d_w_out


def forward_batch(
    net: EqlNetwork, points: np.ndarray | Dataset, direction: Direction | None = None
) -> np.ndarray:
    """Evaluate the network on every row of ``points`` (shape N x F).

    ``points`` may also be a :class:`Dataset`, whose points are evaluated.
    A dataset is checked finite and made read-only when it is built, so its
    points skip the N x F finiteness scan that an array argument gets; a
    training loop passes the same dataset every epoch.

    With a ``direction`` the result is the directional errors against the
    target 0, the bits :func:`~eqlbounds.loss.directional_errors` gives for
    the predictions, in the same one pass over the product that adds ``c``:
    LOWER computes ``(0 - c) - points @ a`` in the product's own array.
    That is ``0 - (points @ a + c)`` bit for bit: rounding to nearest is
    symmetric, and ``0 - c`` and ``0 - p`` both give ``+0.0`` at zero.
    UPPER returns the predictions, since ``f(x) - 0`` is ``f(x)``.  Neither
    ``points`` nor the network is written to.
    """
    if direction is not None and not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction or None, got {direction!r}")
    known_finite = isinstance(points, Dataset)
    pts = points.points if known_finite else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != net.n_features:
        raise ValueError(f"points must have shape (N, {net.n_features}), got {pts.shape}")
    if not known_finite and not np.isfinite(pts).all():
        raise ValueError("points contain non-finite values")
    coeffs, offset = collapse_affine(net)
    out = pts @ coeffs
    if direction is Direction.LOWER:
        return np.subtract(0.0 - offset, out, out=out)
    out += offset
    return out


def initialize(
    dataset: Dataset,
    primitives: Sequence[Primitive] = DEFAULT_PRIMITIVES,
    seed: int = 0,
) -> EqlNetwork:
    """Seeded initialization from the dataset's value range.

    Both weight layers draw Xavier-uniform values: the symbolic layer with
    fan (F, H), the readout with fan (H, 1).  The symbolic layer is drawn
    for all H units and keeps the identity units' rows, so which units are
    constant does not change the random stream.  The output bias draws
    uniformly between half the smallest and half the largest value in the
    dataset; a degenerate range (all values identical) pins the bias to
    half that value and emits a warning.  The result depends only on the
    architecture, the dataset extrema, and the seed.
    """
    _check_integer("seed", seed, 0)
    prims = tuple(primitives)
    h, f = len(prims), dataset.n_features
    rng = np.random.default_rng(seed)
    limit_in = math.sqrt(6.0 / (f + h))
    w_in = rng.uniform(-limit_in, limit_in, size=(h, f))[[p is Primitive.IDENTITY for p in prims]]
    limit_out = math.sqrt(6.0 / (h + 1))
    w_out = rng.uniform(-limit_out, limit_out, size=h)
    lo = 0.5 * float(dataset.points.min())
    hi = 0.5 * float(dataset.points.max())
    if lo == hi:
        warnings.warn(
            "dataset values are all identical; output bias pinned to half that value",
            RuntimeWarning,
            stacklevel=2,
        )
        b_out = lo
    else:
        b_out = float(rng.uniform(lo, hi))
    return EqlNetwork(w_in, prims, w_out, b_out)


def apply_mask(net: EqlNetwork, threshold: float) -> EqlNetwork:
    """Freeze small weights at exactly zero; returns a new network.

    A weight is set to +0.0 when its magnitude falls below ``threshold``
    or it is zero already (``-0.0`` included), so a zero weight stays zero
    whatever the threshold.  The output bias is never masked.  Applying
    the same threshold twice is a no-op the second time.

    Per weight layer this is one comparison and one ``where``: for
    ``threshold > 0``, ``|w| < threshold`` already holds at ``w == 0``, and
    ``threshold == 0`` compares ``w == 0``.  The new network then runs the
    checks of :class:`EqlNetwork`, so a non-finite weight raises
    ``ValueError``.  The threshold follows the package's rule for numbers.
    """
    threshold = _real("threshold", threshold)
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    return EqlNetwork(_freeze(net.w_in, threshold), net.primitives, _freeze(net.w_out, threshold), net.b_out)


def _freeze(weights: np.ndarray, threshold: float) -> np.ndarray:
    small = np.abs(weights) < threshold if threshold > 0 else weights == 0.0
    return np.where(small, 0.0, weights)
