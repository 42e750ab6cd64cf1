"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (pure Python
loops, full sorts, one finite difference per parameter) so that agreement
with the fast numpy code is meaningful.
"""

from __future__ import annotations

import csv
import math
import numbers
from pathlib import Path

import numpy as np

from eqlbounds import (
    Dataset,
    DatasetError,
    Direction,
    DivergenceError,
    EmptyDatasetError,
    EqlNetwork,
    NonNumericError,
    RaggedRowError,
    RejectionBudgetExceededError,
    TrainReport,
    collapse_affine,
    extract_constraint,
    gradients,
    initialize,
    p_gamma_subset,
    violation_rate,
)

# Unit counts (identity, constant) that property tests draw a network's
# layout from: each 0 to 3, at least one unit.
LAYOUTS = [(n_identity, n_constant) for n_identity in range(4) for n_constant in range(4) if n_identity + n_constant]


def brute_force_p_gamma(e, gamma):
    """Full-sort reference for the percentile subset.

    Sort indices so the largest errors come first, NaN after every number,
    with ties resolved toward the lower index, and take the first
    ``max(1, ceil(gamma * n / 100))`` of them.  ``-0.0`` ties with ``0.0``.
    """
    values = [float(v) for v in e]
    n = len(values)
    k = min(n, max(1, math.ceil(gamma * n / 100.0)))

    def rank(i):
        v = values[i]
        if math.isnan(v):
            return (1, 0.0, i)
        return (0, -v, i)

    return sorted(sorted(range(n), key=rank)[:k])


def directional_errors(preds, direction):
    """The signed errors against the target 0, one Python float at a time.

    ``0.0 - p`` for LOWER, a subtraction, so a prediction of ``-0.0`` gives
    ``+0.0``; ``p`` itself for UPPER.  Returns a new float array.
    """
    if direction is Direction.LOWER:
        return np.array([0.0 - float(p) for p in preds], dtype=float)
    return np.array([float(p) for p in preds], dtype=float)


def freeze(weights, threshold):
    """Masking rule of ``apply_mask`` as first written, with two terms.

    At a positive ``threshold`` a weight is masked when its magnitude is
    below it or it is exactly zero; masked weights become 0.0.  A
    threshold of 0 masks nothing.
    """
    masked = ((np.abs(weights) < threshold) | (weights == 0.0)) & (threshold > 0)
    return np.where(masked, 0.0, weights)


def masked_train(dataset, loss_cfg, train_cfg):
    """``train`` as first written, with explicit boolean masks.

    Each layer keeps a mask of its frozen weights, which only grows: after
    every step the weights that are masked, small or exactly zero join it
    and become 0.0, and before every step the gradient at a masked position
    is set to zero.  Masking is on at a positive threshold only; at 0 the
    masks stay empty.  The masks start empty, so an initial weight of exactly
    0.0 takes one step before it is frozen.  Returns the final weights
    ``(w_in, w_out, b_out)`` and the ``TrainReport``, whose records stack
    each epoch's breakdown as a tuple.
    """
    net = initialize(dataset, seed=train_cfg.seed)
    w_in, w_out, b_out = net.w_in, net.w_out, net.b_out
    lr, threshold = train_cfg.learning_rate, train_cfg.mask_threshold
    mask_in = np.zeros(w_in.shape, dtype=bool)
    mask_out = np.zeros(w_out.shape, dtype=bool)
    records, near = [], None
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.epochs):
            breakdown, grads = gradients(EqlNetwork(w_in, w_out, b_out), dataset, loss_cfg, near)
            near = grads.rows
            if not math.isfinite(breakdown.z):
                raise DivergenceError(epoch)
            records.append(tuple(breakdown))
            d_w_in, d_w_out = grads.d_w_in.copy(), grads.d_w_out.copy()
            d_w_in[mask_in] = 0.0
            d_w_out[mask_out] = 0.0
            w_in = w_in - lr * d_w_in
            w_out = w_out - lr * d_w_out
            b_out = b_out - lr * grads.d_b_out
            if threshold > 0:
                mask_in |= (np.abs(w_in) < threshold) | (w_in == 0.0)
                mask_out |= (np.abs(w_out) < threshold) | (w_out == 0.0)
                w_in = np.where(mask_in, 0.0, w_in)
                w_out = np.where(mask_out, 0.0, w_out)
                if not (np.isfinite(w_in).all() and np.isfinite(w_out).all() and math.isfinite(b_out)):
                    raise DivergenceError(epoch + 1)
        if not (np.isfinite(w_in).all() and np.isfinite(w_out).all() and math.isfinite(b_out)):
            raise DivergenceError(train_cfg.epochs)
        final = EqlNetwork(w_in, w_out, b_out)
        coeffs, offset = collapse_affine(final)
        if not (np.isfinite(coeffs).all() and math.isfinite(offset)):
            raise DivergenceError(train_cfg.epochs)
    constraint = extract_constraint(final, loss_cfg.direction)
    history = np.array(records, dtype=np.float64)
    history.setflags(write=False)
    report = TrainReport(history, constraint, violation_rate(constraint, dataset), train_cfg.seed)
    return (w_in, w_out, b_out), report


def cell_index_by_lexsort(points, cell_rows):
    """``build_cell_index``'s rows, cells and boxes, by ``np.lexsort`` and Python loops.

    Each row's cell is its tuple of slice numbers, one per feature, on the
    same grid (``cell_rows`` rows per cell); ``np.lexsort`` orders the rows
    by that tuple, the last feature first, then by row number, with no
    packed key to overflow.  Returns ``(order, starts, corners)``.
    """
    n, f = points.shape
    slices = max(1, int((n / cell_rows) ** (1.0 / f)))
    slice_of = np.zeros((n, f), dtype=np.int64)
    for j in range(f):
        low = float(points[:, j].min())
        width = float(points[:, j].max()) - low
        if width > 0 and 0 < (scale := slices / width) < math.inf:
            slice_of[:, j] = np.minimum((points[:, j] - low) * scale, slices - 1).astype(np.int64)
    order = np.lexsort((np.arange(n), *slice_of.T))
    cell_of = [tuple(row) for row in slice_of[order].tolist()]
    starts = [0] + [i for i in range(1, n) if cell_of[i] != cell_of[i - 1]] + [n]
    boxes = [points[order[a:b]] for a, b in zip(starts, starts[1:])]
    lows = [[min(box[:, j]) for box in boxes] for j in range(f)]
    highs = [[max(box[:, j]) for box in boxes] for j in range(f)]
    return order, np.array(starts), np.array(lows + highs)


def column_errors_by_hand(points, coeffs, offset, direction):
    """The directional errors of every row, one column at a time.

    ``(0 - c) - (x0*a0 + x1*a1 + ...)`` for LOWER and ``(x0*a0 + x1*a1 +
    ...) + c`` for UPPER, each product and sum an elementwise NumPy
    operation, the sum taken left to right, so a row's bits depend on that
    row alone.
    """
    points = np.asarray(points, dtype=float)
    sums = points[:, 0] * coeffs[0]
    for j in range(1, points.shape[1]):
        sums = sums + points[:, j] * coeffs[j]
    return (0.0 - offset) - sums if direction is Direction.LOWER else sums + offset


def column_mean_epoch(w_in, w_out, b_out, dataset, cfg):
    """One epoch of the loss and gradient as a screened ``train`` defines them, with no screening.

    Every error is computed by :func:`column_errors_by_hand`; the subset is
    ``p_gamma_subset``'s of all of them, cold; ``term_e`` is ``alpha1``
    times the error at the dataset's column means.  The other terms and the
    gradient are written out plainly.  Returns the breakdown as a tuple,
    ``(d_w_in, d_w_out, d_b_out)`` and the subset.
    """
    h = w_in.shape[0]
    coeffs = w_out[:h] @ w_in
    offset = b_out + float(np.add.reduce(w_out[h:]))
    n = dataset.n_points
    e = column_errors_by_hand(dataset.points, coeffs, offset, cfg.direction)
    subset = p_gamma_subset(e, cfg.gamma)
    e_sub = e[subset]
    t_e = cfg.alpha1 * float(column_errors_by_hand(dataset.column_means[None], coeffs, offset, cfg.direction)[0])
    top = int(e_sub.argmax())
    worst = float(e_sub[top])
    t_p = cfg.alpha2 * float(e_sub @ e_sub) / n
    t_a = cfg.alpha3 * abs(worst)
    t_r = cfg.l1 * float(np.add.reduce(np.abs(w_out))) + cfg.l2 * float(w_out @ w_out)
    breakdown = (t_e + t_p + t_a + t_r, t_e, t_p, t_a, t_r)
    s = 1.0 if cfg.direction is Direction.LOWER else -1.0
    d_sub = (-2.0 * cfg.alpha2 / n * s) * e_sub
    d_sub[top] += -cfg.alpha3 * s * float(np.sign(worst))
    mean_weight = (-cfg.alpha1 * s / n) * n
    d_b_out = float(np.add.reduce(d_sub)) + mean_weight
    d_coeffs = d_sub @ dataset.points.take(subset, axis=0)
    d_coeffs += mean_weight * dataset.column_means
    d_w_in = np.multiply.outer(w_out[:h], d_coeffs)
    d_w_out = np.full(w_out.shape, d_b_out)
    d_w_out[:h] = w_in @ d_coeffs
    d_w_out += cfg.l1 * np.sign(w_out) + 2.0 * cfg.l2 * w_out
    return breakdown, (d_w_in, d_w_out, d_b_out), subset


def column_mean_train(dataset, loss_cfg, train_cfg):
    """``train`` as a screened run defines it, written as a plain loop with no screening.

    Each epoch is :func:`column_mean_epoch`; the step, the masking rule and
    the divergence checks are ``train``'s, written out.  Returns the final
    weights ``(w_in, w_out, b_out)`` and the ``TrainReport``.
    """
    net = initialize(dataset, seed=train_cfg.seed)
    w_in, w_out, b_out = net.w_in, net.w_out, net.b_out
    lr, threshold = train_cfg.learning_rate, train_cfg.mask_threshold
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.epochs):
            breakdown, (d_w_in, d_w_out, d_b_out), _ = column_mean_epoch(w_in, w_out, b_out, dataset, loss_cfg)
            if not math.isfinite(breakdown[0]):
                raise DivergenceError(epoch)
            records.append(breakdown)
            if threshold > 0:
                d_w_in[w_in == 0.0] = 0.0
                d_w_out[w_out == 0.0] = 0.0
            w_in = w_in - lr * d_w_in
            w_out = w_out - lr * d_w_out
            b_out = b_out - lr * d_b_out
            if threshold > 0:
                if not (np.isfinite(w_in).all() and np.isfinite(w_out).all() and math.isfinite(b_out)):
                    raise DivergenceError(epoch + 1)
                w_in = np.where(np.abs(w_in) < threshold, 0.0, w_in)
                w_out = np.where(np.abs(w_out) < threshold, 0.0, w_out)
        final = None
        if np.isfinite(w_in).all() and np.isfinite(w_out).all() and math.isfinite(b_out):
            final = EqlNetwork(w_in, w_out, b_out)
            coeffs, offset = collapse_affine(final)
        if final is None or not (np.isfinite(coeffs).all() and math.isfinite(offset)):
            raise DivergenceError(train_cfg.epochs)
    constraint = extract_constraint(final, loss_cfg.direction)
    history = np.array(records, dtype=np.float64).reshape(-1, 5)
    history.setflags(write=False)
    report = TrainReport(history, constraint, violation_rate(constraint, dataset), train_cfg.seed)
    return (w_in, w_out, b_out), report


def network_checks(w_in, w_out, b_out):
    """Checks of ``EqlNetwork`` construction, written out one by one, in order.

    Raises the ``ValueError`` the constructor raises for the same input;
    returns None when the network is valid.  ``b_out`` is a float here.
    """
    w_in = np.array(w_in, dtype=float)
    w_out = np.array(w_out, dtype=float)
    if w_in.ndim != 2 or w_in.shape[1] == 0:
        raise ValueError(f"w_in needs one row per identity unit, shape (H_id, F >= 1), got {w_in.shape}")
    n_identity = len(w_in)
    shape_error = ValueError(f"w_out must have shape (H,) with H >= max(1, {n_identity}), got {w_out.shape}")
    if w_out.ndim != 1:
        raise shape_error
    if len(w_out) == 0:
        raise shape_error
    if len(w_out) < n_identity:
        raise shape_error
    if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
        raise ValueError("network weights contain non-finite values")
    if not math.isfinite(b_out):
        raise ValueError(f"b_out must be finite, got {b_out!r}")


def real_number(name, value):
    """The package's rule for numbers as first written, with no fast path for a plain float.

    Returns ``value`` as a finite float or raises the ``ValueError`` that
    ``datamodel._real`` raises for it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def identity_rows(w_in, n_identity):
    """The rows of a full-height (H, F) symbolic layer that a network holds: the identity units', which come first."""
    return np.asarray(w_in)[[unit < n_identity for unit in range(len(w_in))]]


def initial_draws(dataset, seed):
    """``initialize``'s random draws, one number at a time, for its two
    identity and two constant units: the full (4, F) symbolic layer, then
    the readout, then the output bias.
    """
    rng = np.random.default_rng(seed)
    h, f = 4, dataset.n_features
    limit_in, limit_out = math.sqrt(6.0 / (f + h)), math.sqrt(6.0 / (h + 1))
    w_in = np.array([[rng.uniform(-limit_in, limit_in) for _ in range(f)] for _ in range(h)])
    w_out = np.array([rng.uniform(-limit_out, limit_out) for _ in range(h)])
    b_out = float(rng.uniform(0.5 * float(dataset.points.min()), 0.5 * float(dataset.points.max())))
    return w_in, w_out, b_out


def central_difference(fn, x0, step=1e-6):
    """Two-sided finite difference of a scalar function at a scalar point."""
    return (fn(x0 + step) - fn(x0 - step)) / (2.0 * step)


def network_output(net, x):
    """Evaluate the network on one point unit by unit, in pure Python.

    Unit ``u`` is an identity unit when ``w_in`` has a row ``u`` (the
    identity units come first) and outputs the weighted sum of the inputs
    with that row; every later unit is a constant unit and outputs 1.  The
    readout weights the unit outputs and adds the bias.
    """
    units = []
    for unit in range(len(net.w_out)):
        if unit < len(net.w_in):
            units.append(sum(float(w) * float(v) for w, v in zip(net.w_in[unit], x)))
        else:
            units.append(1.0)
    return sum(float(w) * u for w, u in zip(net.w_out, units)) + float(net.b_out)


def recount_violations(coeffs, bound, relation_is_lower, points):
    """Count constraint violations one point at a time, in pure Python."""
    count = 0
    for row in points:
        value = sum(float(a) * float(x) for a, x in zip(coeffs, row))
        satisfied = value >= bound if relation_is_lower else value <= bound
        if not satisfied:
            count += 1
    return count


def region_contains(spec, x):
    """Membership of one point: box bounds inclusive, cuts strict, ball closed."""
    x = [float(v) for v in x]
    for v, (lo, hi) in zip(x, spec.box):
        if v < lo or v > hi:
            return False
    for cut in spec.linear_cuts:
        value = sum(float(a) * v for a, v in zip(cut.coeffs, x))
        inside = cut.bound < value if cut.direction is Direction.LOWER else value < cut.bound
        if not inside:
            return False
    cap = spec.quadratic_cap
    if cap is not None:
        if sum((v - float(c)) ** 2 for v, c in zip(x, cap.center)) > cap.radius**2:
            return False
    return True


def scalar_sample(spec, n, seed, budget):
    """Rejection sampler drawing and testing one candidate at a time.

    Raises RejectionBudgetExceededError after ``budget`` consecutive
    rejections.
    """
    rng = np.random.default_rng(seed)
    lo, hi = spec.box[:, 0], spec.box[:, 1]
    points = []
    consecutive = 0
    while len(points) < n:
        candidate = rng.uniform(lo, hi)
        if region_contains(spec, candidate):
            points.append(candidate)
            consecutive = 0
        else:
            consecutive += 1
            if consecutive >= budget:
                raise RejectionBudgetExceededError(f"{budget} consecutive rejections")
    return np.array(points).reshape(n, spec.n_features)


def csv_load(path):
    """Read a CSV dataset converting and checking one cell at a time.

    Same contract as ``load_dataset``: a leading byte-order mark dropped,
    blank rows skipped, header names stripped, and the first ragged row,
    non-numeric cell or non-finite cell in file order raises, naming its
    row and column.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
        if text.startswith("\ufeff"):
            text = text[1:]
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    # A line keeps a \r, \n or \r\n end, which a quoted cell that spans it
    # keeps; every other line end of splitlines is dropped.
    lines = []
    for line in text.splitlines(keepends=True):
        body = line.splitlines()[0]
        end = line[len(body) :]
        lines.append(line if end in ("\r", "\n", "\r\n") else body)
    try:
        rows = [row for row in csv.reader(lines) if row]
    except csv.Error as exc:
        raise DatasetError(f"{path}: {exc}") from exc
    if not rows:
        raise EmptyDatasetError(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    if any(not name for name in header):
        raise DatasetError(f"{path}: header has an empty column name")
    n_cols = len(header)
    data = np.empty((len(rows) - 1, n_cols))
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != n_cols:
            raise RaggedRowError(f"{path}: row {r} has {len(row)} cells, expected {n_cols}")
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericError(
                    f"{path}: non-numeric value {cell.strip()!r} at row {r}, col {c}"
                ) from None
            if not math.isfinite(value):
                raise NonNumericError(f"{path}: non-finite value at row {r}, col {c}")
            data[r - 1, c - 1] = value
    if data.shape[0] == 0:
        raise EmptyDatasetError(f"{path}: no data rows below the header")
    try:
        return Dataset(data, feature_names=tuple(header))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
