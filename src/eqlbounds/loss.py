"""Boundary-seeking loss.

Three data terms plus regularization:

* ``term_e``      weighted mean of the signed directional errors; pushes the
                  surface away from the data on the bounded side,
* ``term_p``      quadratic penalty on the percentile subset of points whose
                  errors are largest, i.e. the points nearest the sought
                  boundary; pulls the surface onto them.  The summed squares
                  are divided by the full dataset size, not the subset size,
* ``term_anchor`` absolute value of the single worst error (maximum first,
                  absolute value second), which stops the surface from
                  drifting off without limit,
* ``term_reg``    l1/l2 penalty on the output-layer weights.

The directional errors are what ``forward_batch(net, points, direction)``
returns: the signed errors against the target 0, ``e = 0 - f(x)`` for a
lower bound and ``e = f(x)`` for an upper one.  The total ``z`` is the plain
sum of the four terms.  All four are computed in one function,
:func:`loss_from_errors`, from those errors, and together with
``dz/dpred``; it returns them as the :class:`LossBreakdown` that a training
report records for each epoch, and ``dz/dpred`` in sparse form: one value
shared by every prediction plus one per member of the percentile subset.

At large N, training screens its epochs instead: :func:`build_cell_index`
groups the points by grid cell once, and :func:`screened_subset` finds the
percentile subset from the errors of the cells whose box can reach it.
Such an epoch takes ``term_e`` from the column means and shares every
other term, and ``dz/dpred``, with :func:`loss_from_errors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Direction, LossBreakdown, LossConfig, _real
from .network import EqlNetwork, column_errors


# The fewest errors for which p_gamma_subset takes its warm start.  On a
# 2-vCPU Xeon (NumPy 2.4) the warm start is slower than the cold selection
# at 4 096 errors, faster at 8 192, and takes about 0.3 of its time at
# 2x10^5, for 5% subsets of a plane's errors after one small step.
WARM_START_MIN_N = 8192


def p_gamma_subset(e: np.ndarray, gamma: float, near: np.ndarray | None = None) -> np.ndarray:
    """Indices of the top gamma percent largest errors, sorted ascending.

    The subset holds ``k = max(1, ceil(gamma * n / 100))`` indices; ties on
    the error value resolve toward the lower index, and ``-0.0`` ties with
    ``0.0``.  Infinities rank as ordinary values; NaN ranks below every
    number, so a NaN is taken only when fewer than ``k`` errors are
    numbers.  The result is what a stable sort of the negated errors gives,
    found in O(n) by selecting the k-th largest error, not by sorting;
    only when a NaN must be taken is it that sort.  ``gamma`` must be a
    number, by the rule the configs follow, in ``(0, 100]``.

    ``near`` is a warm start: the subset an earlier call returned, for
    errors that have moved little since.  It never changes the result, only
    its cost.  With ``m`` the smallest error at ``near``, the ``k`` indices
    of ``near`` already have errors ``>= m``, so every member of the subset
    is among them or among the other errors ``>= m``; the k-th largest is
    selected from those candidates alone.  That replaces the negated copy
    and the partition of all ``n`` errors by one comparison pass over them,
    plus work on the candidates, which number about ``k`` when the errors
    barely moved.  The warm start is taken only at ``n >=
    WARM_START_MIN_N``, when ``near`` is an integer vector of ``k``
    strictly increasing indices in ``[0, n)`` and ``m`` is not NaN;
    otherwise ``near`` is ignored.
    """
    e_arr = np.asarray(e, dtype=float)
    if e_arr.ndim != 1:
        raise ValueError(f"errors must be a vector, got shape {e_arr.shape}")
    n = e_arr.size
    if n == 0:
        raise ValueError("p_gamma_subset needs at least one error value")
    k = _subset_size(gamma, n)
    near = _checked_near(near, k, n) if n >= WARM_START_MIN_N else None
    if near is not None:
        at_near = e_arr[near]
        m = at_near.min()
        if not math.isnan(m):
            above = e_arr >= m
            # Clearing near first leaves nonzero a few entrants to find, not
            # ~k scattered Trues: at 2e5 points and k = 1e4, about 0.05 ms, not 0.3.
            above[near] = False
            entrants = above.nonzero()[0]
            # Two ascending runs, near's and the entrants': a stable sort merges them.
            return _top_k(np.concatenate((at_near, e_arr[entrants])), k, np.concatenate((near, entrants)), "stable")
    idx = _top_k(e_arr, k)
    if idx is None:
        return np.sort(np.argsort(np.negative(e_arr), kind="stable")[:k])
    return idx


def _subset_size(gamma: float, n: int) -> int:
    """The percentile subset's size k for n errors, after checking gamma."""
    gamma = _real("gamma", gamma)
    if not (0 < gamma <= 100):
        raise ValueError(f"gamma must lie in (0, 100], got {gamma}")
    return min(n, max(1, math.ceil(gamma * n / 100.0)))


def _checked_near(near: np.ndarray | None, k: int, n: int) -> np.ndarray | None:
    """``near`` as intp when it is ``k`` strictly increasing indices in ``[0, n)``, else None."""
    if near is None:
        return None
    near = np.asarray(near)
    if near.dtype.kind not in "iu" or near.shape != (k,) or near[0] < 0 or near[-1] >= n:
        return None
    near = near.astype(np.intp, copy=False)
    return near if (near[1:] > near[:-1]).all() else None


def _top_k(values: np.ndarray, k: int, index: np.ndarray | None = None, kind: str = "stable") -> np.ndarray | None:
    """The indices of the k largest ``values``, ascending, by p_gamma_subset's tie rule.

    ``index[i]`` is the index that ``values[i]`` stands for; without it,
    ``i`` itself, and the kept indices are put in order by a sort of
    ``kind``.  Every index must be distinct, and the values must hold
    every error of the whole set that is at least the k-th largest.  More
    values may tie with the k-th largest than places remain: the
    highest-indexed ties are dropped.  Returns None when fewer than ``k``
    values are numbers, which p_gamma_subset answers with a sort.
    """
    t = _kth_largest(values, k)
    if math.isnan(t):
        return None
    keep = values >= t
    if index is None:
        idx = keep.nonzero()[0]
    else:
        idx = index[keep]
        idx.sort(kind=kind)
    if idx.size > k:
        # More values tie with t than places remain: drop the highest-indexed.
        tied = values == t
        tied = tied.nonzero()[0] if index is None else np.sort(index[tied])
        idx = np.delete(idx, np.searchsorted(idx, tied[tied.size - (idx.size - k) :]))
    return idx


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of ``values``, or NaN when fewer than ``k`` are numbers.

    Selects on the negated values: partition places NaN last, which is
    where the ranking wants it.
    """
    neg = np.negative(values)
    neg.partition(k - 1)
    return -neg[k - 1]


# The rows per cell that build_cell_index aims at.
CELL_ROWS = 64


@dataclass(frozen=True, eq=False)
class CellIndex:
    """A point set's rows grouped by the cells of a grid, with each cell's box.

    ``order`` lists the row numbers cell by cell, ascending within a cell,
    as int32 below 2^31 rows; cell ``g`` holds
    ``order[starts[g]:starts[g + 1]]``, and only non-empty cells are kept.  ``grouped`` is ``points[order]``.
    ``corners`` holds each cell's lows then highs, ``(2F, G)``: the
    smallest and largest value of each feature over the cell's rows.
    ``reach`` is the larger of their magnitudes, ``(F, G)``, a bound on
    ``|x_j|`` in the cell.
    """

    points: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    grouped: np.ndarray
    corners: np.ndarray
    reach: np.ndarray


def build_cell_index(points: np.ndarray) -> CellIndex:
    """Group the rows of ``points`` (N x F, finite) by the cells of a grid over their box.

    Each axis is cut into the same number of equal slices, about
    ``CELL_ROWS`` rows per cell for evenly spread rows.  A feature of zero
    width, or whose width or scale overflows, puts every row in its first
    slice.  No result depends on where a row lands: the boxes are taken
    from the rows each cell got.  One sort of int64 keys, the cell number
    above the row number, groups the rows (SIMD quicksort: every key is
    distinct), and ``reduceat`` gives the boxes: about 4 ms at 10^5
    two-feature rows, 9 ms at 2x10^5 and 65 ms at 10^6.
    """
    n, f = points.shape
    slices = max(1, int((n / CELL_ROWS) ** (1.0 / f)))
    bits = n.bit_length()
    key = np.arange(n, dtype=np.int64)
    weight = 1 << bits
    for j in range(f):
        column = points[:, j]
        low = float(column.min())
        width = float(column.max()) - low
        if width > 0 and 0 < (scale := slices / width) < math.inf:
            at = np.subtract(column, low)
            at *= scale
            np.minimum(at, slices - 1, out=at)
            cell = at.astype(np.int64)
            cell *= weight
            key += cell
        weight *= slices
    key.sort()
    # int32 row numbers where they fit: the screened selection sorts them twice as fast.
    order = (key & ((1 << bits) - 1)).astype(np.int32 if n <= np.iinfo(np.int32).max else np.intp)
    key >>= bits
    starts = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1, [n]))
    grouped = points.take(order, axis=0)
    lows = np.minimum.reduceat(grouped, starts[:-1], axis=0).T
    highs = np.maximum.reduceat(grouped, starts[:-1], axis=0).T
    reach = np.maximum(np.abs(lows), np.abs(highs))
    return CellIndex(points, order, starts, grouped, np.vstack((lows, highs)), reach)


def screened_subset(
    cells: CellIndex,
    coeffs: np.ndarray,
    offset: float,
    direction: Direction,
    gamma: float,
    near: np.ndarray | None = None,
) -> np.ndarray:
    """``p_gamma_subset`` of ``column_errors(cells.points, ...)``, computing few of the errors.

    The result is exactly that subset.  With ``near`` the subset of an
    earlier call (k strictly increasing indices), ``m``, the smallest
    current error at ``near``, is at most the k-th largest error, so every
    member lies in a cell whose errors can reach ``m``.  Each cell's bound
    on its errors comes from its box in one product: the affine error is
    largest at one corner.  Only the rows of the cells whose bound reaches
    ``m`` get their errors computed and ranked; at 2x10^5 cut-square
    points and ``gamma = 5`` that is about 6% of them, 5% being the
    subset.  The result is intp, as ``p_gamma_subset``'s.

    Without a valid ``near``, or when a cell bound is not finite (then an
    error may be too), every error is computed and ranked, as
    ``p_gamma_subset`` does.
    """
    points = cells.points
    n, f = points.shape
    k = _subset_size(gamma, n)
    near = _checked_near(near, k, n)
    # The errors are sc + x . sa exactly, before rounding.
    sa = np.negative(coeffs) if direction is Direction.LOWER else coeffs
    sc = 0.0 - offset if direction is Direction.LOWER else offset
    # The scale T of a cell bounds |x . a| + |c| over its box.  Rounding
    # error bound (u = eps / 2, gamma_j = j u / (1 - j u); any summation
    # order, with or without FMA, obeys gamma_j times the sum of the
    # magnitudes):
    # - a row's computed error is within (F + 2) u T(1 + O(u)) of the exact
    #   one: F products and F - 1 sums give gamma_F, the final +/- c one u;
    # - the box bound, sc + (corner . sa) by a 2F-term product of which F
    #   terms are exactly 0, is within (2F + 1) u T(1 + O(u)) of the exact
    #   maximum, which no exact error exceeds;
    # - T itself is computed low by at most gamma_(F+1) T, and adding the
    #   slack to the bound rounds once more, u T.
    # That sums to (3F + 4) u T(1 + O(F u)); the slack 2(F + 1) eps T =
    # (4F + 4) u T exceeds it for every F >= 1.  A product that underflows
    # errs by up to 2^-1075 absolutely, 2F of them at most: the last term
    # covers that where T is too small for the relative slack to.
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflow here is the answer, not a fault: it sends the epoch to the full pass.
        scale = np.abs(coeffs) @ cells.reach + abs(offset)
    slack_factor = 2 * (f + 1) * np.finfo(float).eps
    # Where T(1 + slack) is finite, every step of every row's error is.
    if near is None or not math.isfinite(float(scale.max()) * (1.0 + slack_factor)):
        return p_gamma_subset(column_errors(points, coeffs, offset, direction), gamma, near)
    pick = np.concatenate((np.minimum(sa, 0.0), np.maximum(sa, 0.0)))
    bound = pick @ cells.corners
    bound += sc
    bound += slack_factor * scale + f * math.ulp(0.0)
    m = column_errors(points.take(near, axis=0), coeffs, offset, direction).min()
    hit = (bound >= m).nonzero()[0]
    # The positions in grouped of every row of the hit cells.
    first, counts = cells.starts[hit], cells.starts[hit + 1] - cells.starts[hit]
    ends = np.cumsum(counts)
    rows = np.repeat(first - (ends - counts), counts)
    rows += np.arange(ends[-1])
    values = column_errors(cells.grouped.take(rows, axis=0), coeffs, offset, direction)
    # The candidates come cell by cell, many short ascending runs: SIMD
    # quicksort orders them about ten times faster than a stable merge.
    return _top_k(values, k, cells.order.take(rows), kind="quicksort").astype(np.intp)


def loss_from_errors(
    e: np.ndarray, net: EqlNetwork, cfg: LossConfig, near: np.ndarray | None = None
) -> tuple[LossBreakdown, float, np.ndarray, np.ndarray]:
    """The full loss and ``dz/dpred`` from the directional errors ``e``.

    ``e`` is what ``forward_batch(net, points, cfg.direction)`` returns;
    it is read, never written to, so the caller's array comes back
    unchanged.

    The percentile subset and the worst-error index are computed once from
    the current errors and held fixed while differentiating; at a tie the
    lower index wins, which picks one member of the subgradient set.  The
    regularization term does not depend on the predictions.

    Returns the breakdown, ``dz/dpred`` in sparse form as ``fill`` and
    ``d_sub``, and the percentile subset ``idx``.  ``dz/dpred`` is ``fill``
    at every prediction, plus ``d_sub[j]`` at prediction ``idx[j]``: the
    mean term gives every prediction the same ``fill = -alpha1 * s / n``,
    and only the subset and the worst error have terms of their own.  So
    nothing of length n is built for the derivative.

    The worst error is the subset's largest, the first at a tie.  The
    subset holds the k largest errors, the lower index first at a tie, so
    this is the error at ``e.argmax()`` (``-0.0`` ties ``0.0``; ``+inf``
    counts), except that a NaN error, which ``argmax`` ranks first, may lie
    outside the subset.  Any NaN error makes ``term_e`` NaN, so then the
    anchor term takes ``e[e.argmax()]``.  A NaN there makes ``d_sub``, and
    with it the whole gradient, NaN, as in the dense chain rule.

    ``near`` is passed to :func:`p_gamma_subset` as its warm start; a
    training loop passes the subset the previous epoch returned.

    A screened training epoch (see ``trainer.gradients``) does not call
    this function: it has no errors outside the subset to sum.  It takes
    ``term_e`` as ``alpha1`` times the error at the column means, and the
    percentile, anchor and regularization terms and ``dz/dpred`` from the
    code this function runs.
    """
    e = np.asarray(e, dtype=float)
    n = e.size
    idx = p_gamma_subset(e, cfg.gamma, near)
    # The full sum, not a * mean(points) + c: a non-finite error anywhere
    # must make z non-finite.
    t_e = cfg.alpha1 * float(np.add.reduce(e, axis=None)) / n
    worst = float(e[e.argmax()]) if math.isnan(t_e) else None
    breakdown, fill, d_sub = _subset_terms(e[idx], t_e, n, net, cfg, worst)
    return breakdown, fill, d_sub, idx


def _subset_terms(
    e_sub: np.ndarray, t_e: float, n: int, net: EqlNetwork, cfg: LossConfig, worst: float | None = None
) -> tuple[LossBreakdown, float, np.ndarray]:
    """The loss and sparse ``dz/dpred`` from the subset's errors and ``term_e``.

    The one code path for the percentile, anchor and regularization terms
    and the derivative, shared by :func:`loss_from_errors` and the
    screened epochs of ``train``.  ``e_sub`` holds the errors at the
    percentile subset, in its order, and is written to: it becomes
    ``d_sub``'s storage; ``n`` is the number of all errors.  The anchor
    takes the subset's largest error, the first at a tie, unless ``worst``
    is given.
    """
    top = int(e_sub.argmax())
    e_worst = float(e_sub[top]) if worst is None else worst
    w = net.w_out
    t_p = cfg.alpha2 * float(e_sub @ e_sub) / n
    t_a = cfg.alpha3 * abs(e_worst)
    t_r = cfg.l1 * float(np.add.reduce(np.abs(w), axis=None)) + cfg.l2 * float(w @ w)
    breakdown = LossBreakdown(t_e + t_p + t_a + t_r, t_e, t_p, t_a, t_r)

    # d(error)/d(pred) is -s.
    s = 1.0 if cfg.direction is Direction.LOWER else -1.0
    fill = -cfg.alpha1 * s / n
    d_sub = np.multiply(-2.0 * cfg.alpha2 / n * s, e_sub, out=e_sub)
    d_sub[top] += -cfg.alpha3 * s * float(np.sign(e_worst))
    return breakdown, fill, d_sub
