"""Small equation-learner network: one symbolic layer, one linear readout.

The symbolic layer computes one weighted sum per unit (no bias).  An
identity unit passes its sum through; a constant unit outputs 1 whatever
its input.  Both are affine, so the network is one affine map
``f(x) = a.x + c``, and :func:`collapse_affine` is the only definition of
``(a, c)`` there is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, Direction, _all_finite, _check_integer, _real, _real_array

# Architecture that :func:`initialize` draws: two identity units, then two constant units.
_N_IDENTITY = 2
_N_CONSTANT = 2


@dataclass(eq=False)
class EqlNetwork:
    """Plain value object holding the parameters of one network.

    The arrays' shapes are the layout.  ``w_in`` has one row per identity
    unit, shape ``(H_id, F)``; a constant unit outputs 1 whatever its input,
    so it has no input weights.  With no identity unit ``w_in`` is
    ``(0, F)``, which still gives F.  The first ``H_id`` entries of
    ``w_out`` read the identity units, in ``w_in``'s row order; the rest
    read constant units.

    No mask is stored: masking sets a weight to exactly 0.0 (see
    :func:`apply_mask`), and under masking training keeps every zero weight
    at zero.  The output bias is never masked.  Training code works on its
    own private copy.

    Construction checks that the two weight arrays hold real numbers (an
    array of bool, complex, string or object dtype raises ``ValueError``),
    copies them and checks the shapes (``w_out`` has at least one entry and
    one per identity unit), that every weight is finite (two array calls
    per layer and no Python loop: training with masking builds one network
    per epoch), and the output bias by the package's rule for numbers.
    """

    w_in: np.ndarray
    w_out: np.ndarray
    b_out: float

    def __post_init__(self) -> None:
        w_in = np.array(_real_array("w_in", self.w_in), dtype=float)
        w_out = np.array(_real_array("w_out", self.w_out), dtype=float)
        if w_in.ndim != 2 or w_in.shape[1] < 1:
            raise ValueError(f"w_in needs one row per identity unit, shape (H_id, F >= 1), got {w_in.shape}")
        n_identity = w_in.shape[0]
        if w_out.ndim != 1 or w_out.shape[0] < max(1, n_identity):
            raise ValueError(f"w_out must have shape (H,) with H >= max(1, {n_identity}), got {w_out.shape}")
        if not (_all_finite(w_in) and _all_finite(w_out)):
            raise ValueError("network weights contain non-finite values")
        self.b_out = _real("b_out", self.b_out)
        self.w_in = w_in
        self.w_out = w_out

    @property
    def n_features(self) -> int:
        return self.w_in.shape[1]


def collapse_affine(net: EqlNetwork) -> tuple[np.ndarray, float]:
    """Return (a, c) such that the network computes ``f(x) = x @ a + c``; constant units fold into ``c``."""
    h = net.w_in.shape[0]
    coeffs = net.w_out[:h] @ net.w_in
    offset = net.b_out + float(np.add.reduce(net.w_out[h:]))
    return coeffs, offset


def collapse_affine_grad(net: EqlNetwork, d_coeffs: np.ndarray, d_offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule through :func:`collapse_affine`: (dL/da, dL/dc) to (dL/dw_in, dL/dw_out); dL/db_out is dL/dc."""
    h = net.w_in.shape[0]
    d_w_in = np.multiply.outer(net.w_out[:h], d_coeffs)
    d_w_out = np.empty(net.w_out.shape)
    d_w_out[:h] = net.w_in @ d_coeffs
    d_w_out[h:] = d_offset
    return d_w_in, d_w_out


def forward_batch(
    net: EqlNetwork, points: np.ndarray | Dataset, direction: Direction | None = None
) -> np.ndarray:
    """Evaluate the network on every row of ``points`` (shape N x F).

    ``points`` may also be a :class:`Dataset`, whose points are evaluated.
    An array argument must hold finite real numbers, as a dataset's do.
    A dataset is checked finite and made read-only when it is built, so its
    points skip the N x F finiteness scan that an array argument gets; a
    training loop passes the same dataset every epoch.

    With a ``direction`` the result is the directional errors against the
    target 0 that the loss reads: ``0 - f(x)`` for LOWER (seeking
    ``bound <= f(x)``) and ``f(x)`` for UPPER, since ``f(x) - 0`` is
    ``f(x)``; without one it is ``f(x)``, the UPPER form.  Every result is
    :func:`column_errors`' of the rows, the library's one error formula, so
    a row's bits depend on that row alone, not on the BLAS kernel or on
    how many rows are evaluated with it.  Neither ``points`` nor the
    network is written to.
    """
    if direction is not None and not isinstance(direction, Direction):
        raise ValueError(f"direction must be a Direction or None, got {direction!r}")
    known_finite = isinstance(points, Dataset)
    pts = points.points if known_finite else np.asarray(_real_array("points", points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != net.n_features:
        raise ValueError(f"points must have shape (N, {net.n_features}), got {pts.shape}")
    if not known_finite and not _all_finite(pts):
        raise ValueError("points contain non-finite values")
    return column_errors(pts, *collapse_affine(net), Direction.UPPER if direction is None else direction)


def column_errors(points: np.ndarray, coeffs: np.ndarray, offset: float, direction: Direction) -> np.ndarray:
    """The directional errors of ``points``' rows, computed one column at a time.

    ``coeffs`` and ``offset`` are :func:`collapse_affine`'s; ``points`` is
    an (n, F) array of finite reals, not checked.  The error of a row is
    ``(0 - c) - (x0*a0 + x1*a1 + ...)`` for LOWER and ``(x0*a0 + x1*a1 +
    ...) + c`` for UPPER, each operation elementwise and rounded once, the
    sum taken left to right.  So a row's bits depend on that row alone,
    not on which other rows are computed with it, as a BLAS product's do.
    That lets a screened epoch compute any subset of the rows and get the
    bits a pass over every row gives.  Each of those operations is
    monotone in its operands, so the error at a cell's worst corner bounds
    the computed error of every row in the cell: a screened epoch also
    evaluates the cells' corners here.
    """
    sums = points[:, 0] * coeffs[0]
    for j in range(1, points.shape[1]):
        sums += points[:, j] * coeffs[j]
    if direction is Direction.LOWER:
        return np.subtract(0.0 - offset, sums, out=sums)
    sums += offset
    return sums


def _point_error(point: np.ndarray, coeffs: np.ndarray, offset: float, direction: Direction) -> float:
    """:func:`column_errors` of the one row ``point``, in Python floats.

    The same operations in the same order, each rounded once as NumPy's
    elementwise ones are, so the same bits, in about a quarter of the time
    of a one-row array call.  Training evaluates the column means here.
    """
    terms = map(float.__mul__, point.tolist(), coeffs.tolist())
    total = next(terms)
    for term in terms:
        total += term
    return (0.0 - offset) - total if direction is Direction.LOWER else total + offset


def initialize(dataset: Dataset, seed: int = 0) -> EqlNetwork:
    """Seeded initialization from the dataset's value range.

    The network has two identity units and two constant units (H = 4).
    Both weight layers draw Xavier-uniform values: the symbolic layer with
    fan (F, H), the readout with fan (H, 1).  The symbolic layer is drawn
    for all H units and keeps the identity units' rows.  The output bias
    draws uniformly between half the smallest and half the largest value in
    the dataset; a degenerate range (all values identical) pins the bias to
    half that value and emits a warning.  The result depends only on the
    dataset extrema and the seed.
    """
    _check_integer("seed", seed, 0)
    h, f = _N_IDENTITY + _N_CONSTANT, dataset.n_features
    rng = np.random.default_rng(seed)
    limit_in = math.sqrt(6.0 / (f + h))
    w_in = rng.uniform(-limit_in, limit_in, size=(h, f))[:_N_IDENTITY]
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
    return EqlNetwork(w_in, w_out, b_out)


def apply_mask(net: EqlNetwork, threshold: float) -> EqlNetwork:
    """Freeze small weights at exactly zero; returns a new network.

    A weight is set to +0.0 when its magnitude falls below ``threshold``.
    For a positive threshold that includes every zero weight (``-0.0``
    too), so a zero weight stays zero; a threshold of 0 masks nothing and
    returns an equal copy, in which ``-0.0`` stays ``-0.0``.  The output
    bias is never masked.  Applying the same threshold twice is a no-op
    the second time.

    The new network is built from ``net``'s parameters, so it runs the
    checks of :class:`EqlNetwork` (a non-finite weight raises
    ``ValueError``) and holds the constructor's copies, the only new weight
    arrays.  Per weight layer, masking is then one comparison and one
    masked assignment on the network's own copy.  Masking only zeroes
    finite values, so the checks hold for the result.  ``net`` is not
    written to.  The threshold follows the package's rule for numbers.
    """
    threshold = _real("threshold", threshold)
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    masked = EqlNetwork(net.w_in, net.w_out, net.b_out)
    for w in (masked.w_in, masked.w_out):
        w[np.abs(w) < threshold] = 0.0
    return masked
