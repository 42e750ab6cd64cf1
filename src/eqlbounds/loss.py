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

from .datamodel import Direction, LossBreakdown, LossConfig, _frozen, _real
from .network import EqlNetwork, column_errors


def p_gamma_subset(e: np.ndarray, gamma: float) -> np.ndarray:
    """Indices of the top gamma percent largest errors, sorted ascending.

    The subset holds ``k = max(1, ceil(gamma * n / 100))`` indices; ties on
    the error value resolve toward the lower index, and ``-0.0`` ties with
    ``0.0``.  Infinities rank as ordinary values; NaN ranks below every
    number, so a NaN is taken only when fewer than ``k`` errors are
    numbers.  The result is what a stable sort of the negated errors gives,
    found in O(n) by selecting the k-th largest error, not by sorting;
    only when a NaN must be taken is it that sort.  ``gamma`` must be a
    number, by the rule the configs follow, in ``(0, 100]``.
    """
    e_arr = np.asarray(e, dtype=float)
    if e_arr.ndim != 1:
        raise ValueError(f"errors must be a vector, got shape {e_arr.shape}")
    n = e_arr.size
    if n == 0:
        raise ValueError("p_gamma_subset needs at least one error value")
    k = _subset_size(gamma, n)
    t = _kth_largest(e_arr, k)
    if math.isnan(t):
        return np.sort(np.argsort(np.negative(e_arr), kind="stable")[:k])
    return _top_k(e_arr, k, t)


def _subset_size(gamma: float, n: int) -> int:
    """The percentile subset's size k for n errors, after checking gamma."""
    gamma = _real("gamma", gamma)
    if not (0 < gamma <= 100):
        raise ValueError(f"gamma must lie in (0, 100], got {gamma}")
    return min(n, max(1, math.ceil(gamma * n / 100.0)))


def _top_k(values: np.ndarray, k: int, t: float, index: np.ndarray | None = None) -> np.ndarray:
    """The indices of the k largest ``values``, ascending, by p_gamma_subset's tie rule.

    ``t`` is the k-th largest of ``values``, a number.  ``index[i]`` is
    the index that ``values[i]`` stands for, and the kept indices are put
    in order by a sort; without it, ``i`` itself.  Every index must be
    distinct, and the values must hold every error of the whole set that
    is at least ``t``.  More values may tie with ``t`` than places remain:
    the highest-indexed ties are dropped.
    """
    keep = values >= t
    if index is None:
        idx = keep.nonzero()[0]
    else:
        idx = index[keep]
        idx.sort()
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
    ``order[starts[g]:starts[g + 1]]``, and only non-empty cells are kept.
    ``corners`` holds each cell's lows then highs, ``(2F, G)``: the
    smallest and largest value of each feature over the cell's rows.
    Every operation of :func:`~eqlbounds.network.column_errors` is rounded
    once and monotone in its operands, so the error it computes at a box's
    worst corner bounds the computed error of every row in the cell: a
    screened epoch evaluates the G corners that way.  Per row the index
    holds its row number, 4 bytes below 2^31 rows, and no copy of
    ``points``; every array but ``points`` is read-only.
    """

    points: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    corners: np.ndarray


def build_cell_index(points: np.ndarray) -> CellIndex:
    """Group the rows of ``points`` (N x F, finite) by the cells of a grid over their box.

    Each axis is cut into the same number of equal slices, about
    ``CELL_ROWS`` rows per cell for evenly spread rows.  A feature of zero
    width, or whose width or scale overflows, puts every row in its first
    slice.  No result depends on where a row lands: the boxes are taken
    from the rows each cell got.  One sort of integer keys, the cell number
    above the row number, groups the rows (SIMD quicksort: every key is
    distinct).  The keys are int32 when both numbers fit in 31 bits, as
    they do below 270 400 two-feature rows, and int64 otherwise; the order
    is the same either way.  ``reduceat`` over a temporary cell-ordered
    copy of the rows gives the boxes.  A build takes about 4 ms at 10^5
    two-feature rows and 9 ms at 2x10^5, with int32 keys, and 65 ms at
    10^6, with int64 keys.  A screened epoch evaluates the boxes' corners
    with :func:`~eqlbounds.network.column_errors`.
    """
    n, f = points.shape
    slices = max(1, int((n / CELL_ROWS) ** (1.0 / f)))
    bits = n.bit_length()
    # Half the bytes to sort where the keys fit in int32.
    key_type = np.int32 if bits + (slices**f - 1).bit_length() <= 31 else np.int64
    key = np.arange(n, dtype=key_type)
    weight = 1 << bits
    for j in range(f):
        column = points[:, j]
        low = float(column.min())
        width = float(column.max()) - low
        if width > 0 and 0 < (scale := slices / width) < math.inf:
            at = np.subtract(column, low)
            at *= scale
            np.minimum(at, slices - 1, out=at)
            cell = at.astype(key_type)
            cell *= weight
            key += cell
        weight *= slices
    key.sort()
    # int32 row numbers where they fit: the screened selection sorts them twice as fast.
    order = (key & ((1 << bits) - 1)).astype(np.int32 if n <= np.iinfo(np.int32).max else np.intp, copy=False)
    key >>= bits
    starts = np.concatenate(([0], (key[1:] != key[:-1]).nonzero()[0] + 1, [n]))
    grouped = points.take(order, axis=0)
    lows = np.minimum.reduceat(grouped, starts[:-1], axis=0).T
    highs = np.maximum.reduceat(grouped, starts[:-1], axis=0).T
    return CellIndex(points, _frozen(order), _frozen(starts), _frozen(np.vstack((lows, highs))))


def screened_subset(
    cells: CellIndex,
    coeffs: np.ndarray,
    offset: float,
    direction: Direction,
    gamma: float,
    near: np.ndarray | None = None,
) -> np.ndarray:
    """``p_gamma_subset`` of ``column_errors(cells.points, ...)``, computing few of the errors.

    The result is exactly that subset, for any ``near``.  ``near`` is an
    (m, F) array of points, any points: in training, the previous epoch's
    subset rows (``Gradients.rows``).  Its floor is the smallest current
    error of those points.  Each cell's bound is ``column_errors`` at its
    box's worst corner, each feature at its high where the directional
    coefficient (``-a`` for LOWER, ``a`` for UPPER) is positive and at its
    low otherwise.  Every operation there is rounded once, and rounding is
    monotone, so that computed error bounds the computed error of every
    row in the cell exactly, with no slack.  Only the rows of the cells
    whose bound reaches the floor, the candidates, get their errors
    computed, gathered from ``points`` through ``order``.  The selection
    among them is kept when it is certified: at least k candidates, and
    their k-th largest error at or above the floor.  Every other row's
    error is below its cell's bound, which is below the floor, so then
    every error that ties or beats the k-th largest is a candidate's, and
    the candidates' top k are the top k of all.  Previous subset rows
    always pass: k of them already reach the floor.  At 2x10^5 cut-square
    points and ``gamma = 5`` about 6% of the rows are candidates, 5% being
    the subset, plus the G corners.  The result is intp, as
    ``p_gamma_subset``'s.

    Without ``near``, when a bound is NaN or ``+inf``, or when the
    certificate fails, every error is computed and ranked, as
    ``p_gamma_subset`` does.  By the same monotonicity a row whose error
    is NaN or ``+inf``, or whose partial sum overflows toward it, has such
    a bound.  A ``near`` that is not an (m, F) array raises ValueError.
    """
    points = cells.points
    n, f = points.shape
    k = _subset_size(gamma, n)
    if near is not None:
        near = np.asarray(near)
        if near.ndim != 2 or near.shape[1] != f:
            raise ValueError(f"near must be an (m, {f}) array of points, got shape {near.shape}")
        idx = _certified_top_k(cells, coeffs, offset, direction, k, near)
        if idx is not None:
            return idx
    return p_gamma_subset(column_errors(points, coeffs, offset, direction), gamma)


def _certified_top_k(
    cells: CellIndex, coeffs: np.ndarray, offset: float, direction: Direction, k: int, near: np.ndarray
) -> np.ndarray | None:
    """screened_subset's selection among the candidates, or None where its certificate fails."""
    f = near.shape[1]
    # Each feature at its high where the error rises with it: the worst corner.
    sa = np.negative(coeffs) if direction is Direction.LOWER else coeffs
    corner = cells.corners[np.arange(f) + f * (sa > 0)].T
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflow or a NaN is an answer here, not a fault: a bound that
        # is not finite sends the epoch to the full pass, and a floor that is
        # NaN or too high fails the certificate.
        bound = column_errors(corner, coeffs, offset, direction)
        if not math.isfinite(bound.max()):
            return None
        floor = column_errors(near, coeffs, offset, direction).min(initial=math.inf)
    hit = (bound >= floor).nonzero()[0]
    # The positions in order of every row of the hit cells, then their row numbers.
    first, counts = cells.starts[hit], cells.starts[hit + 1] - cells.starts[hit]
    ends = np.cumsum(counts)
    if ends.size == 0 or ends[-1] < k:
        return None
    rows = np.repeat(first - (ends - counts), counts)
    rows += np.arange(ends[-1])
    rows = cells.order.take(rows)
    values = column_errors(cells.points.take(rows, axis=0), coeffs, offset, direction)
    t = _kth_largest(values, k)
    # False also when t or the floor is NaN.
    if not t >= floor:
        return None
    # The candidates come cell by cell, many short ascending runs: the
    # default sort, SIMD quicksort, orders them about ten times faster than
    # a stable merge.
    return _top_k(values, k, t, rows).astype(np.intp)


def loss_from_errors(
    e: np.ndarray, net: EqlNetwork, cfg: LossConfig
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

    A screened training epoch (see ``trainer.gradients``) does not call
    this function: it has no errors outside the subset to sum.  It takes
    ``term_e`` as ``alpha1`` times the error at the column means, and the
    percentile, anchor and regularization terms and ``dz/dpred`` from the
    code this function runs.
    """
    e = np.asarray(e, dtype=float)
    n = e.size
    idx = p_gamma_subset(e, cfg.gamma)
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
