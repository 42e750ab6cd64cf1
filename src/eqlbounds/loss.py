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
"""

from __future__ import annotations

import math

import numpy as np

from .datamodel import Direction, LossBreakdown, LossConfig
from .network import EqlNetwork


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
    found in O(n) by selecting the k-th largest error, not by sorting.

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
    if not (0 < gamma <= 100):
        raise ValueError(f"gamma must lie in (0, 100], got {gamma}")
    k = min(n, max(1, math.ceil(gamma * n / 100.0)))
    if k == n:
        return np.arange(n)
    # m, the smallest error at near, stays NaN unless the warm start applies.
    m = math.nan
    if near is not None and n >= WARM_START_MIN_N:
        near = np.asarray(near)
        if near.dtype.kind in "iu" and near.shape == (k,) and near[0] >= 0 and near[-1] < n:
            near = near.astype(np.intp, copy=False)
            if (near[1:] > near[:-1]).all():
                at_near = e_arr[near]
                m = at_near.min()
    if math.isnan(m):
        t = _kth_largest(e_arr, k)
        if math.isnan(t):
            nan = np.isnan(e_arr)
            keep = ~nan
            keep[nan.nonzero()[0][: k - np.count_nonzero(keep)]] = True
            return keep.nonzero()[0]
        idx = (e_arr >= t).nonzero()[0]
    else:
        above = e_arr >= m
        # Clearing near first leaves nonzero a few entrants to find, not
        # ~k scattered Trues: at 2e5 points and k = 1e4, about 0.05 ms, not 0.3.
        above[near] = False
        entrants = above.nonzero()[0]
        cand = np.concatenate((near, entrants))
        values = np.concatenate((at_near, e_arr[entrants]))
        t = _kth_largest(values, k)
        # Two ascending runs, near's and the entrants': a stable sort merges them.
        idx = cand[values >= t]
        idx.sort(kind="stable")
    if idx.size > k:
        # More errors tie with t than places remain: drop the highest-indexed.
        ties = (e_arr[idx] == t).nonzero()[0]
        idx = np.delete(idx, ties[ties.size - (idx.size - k) :])
    return idx


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of ``values``, or NaN when fewer than ``k`` are numbers.

    Selects on the negated values: partition places NaN last, which is
    where the ranking wants it.
    """
    neg = np.negative(values)
    neg.partition(k - 1)
    return -neg[k - 1]


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
    """
    e = np.asarray(e, dtype=float)
    n = e.size
    idx = p_gamma_subset(e, cfg.gamma, near)
    # The errors are s * (0 - preds), with s = +1 for LOWER and -1 for UPPER;
    # term_p squares them, so the sign does not matter.
    e_sub = e[idx]
    top = int(e_sub.argmax())
    e_worst = float(e_sub[top])
    w = net.w_out
    # The full sum, not a * mean(points) + c: a non-finite error anywhere
    # must make z non-finite.
    t_e = cfg.alpha1 * float(np.add.reduce(e, axis=None)) / n
    if math.isnan(t_e):
        e_worst = float(e[e.argmax()])
    t_p = cfg.alpha2 * float(e_sub @ e_sub) / n
    t_a = cfg.alpha3 * abs(e_worst)
    t_r = cfg.l1 * float(np.add.reduce(np.abs(w), axis=None)) + cfg.l2 * float(w @ w)
    breakdown = LossBreakdown(t_e + t_p + t_a + t_r, t_e, t_p, t_a, t_r)

    # d(error)/d(pred) is -s.
    s = 1.0 if cfg.direction is Direction.LOWER else -1.0
    fill = -cfg.alpha1 * s / n
    d_sub = (-2.0 * cfg.alpha2 / n * s) * e_sub
    d_sub[top] += -cfg.alpha3 * s * float(np.sign(e_worst))
    return breakdown, fill, d_sub, idx
