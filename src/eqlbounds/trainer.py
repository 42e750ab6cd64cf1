"""Full-batch gradient descent with hand-derived gradients.

The loss is piecewise smooth: the percentile subset and the worst-error
index are held fixed while differentiating one evaluation, which matches
central finite differences everywhere away from membership ties.  The
update rule is plain descent, ``theta <- theta - lr * grad``, with
per-epoch magnitude masking, on at any positive threshold, that freezes
small weights at exactly zero for the rest of the run.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .datamodel import (
    Dataset,
    LossBreakdown,
    LossConfig,
    TrainConfig,
    TrainReport,
    _all_finite,
    _check_keys,
    _frozen,
    _write_csv,
)
from .extract import extract_constraint, violation_rate
from .loss import CellIndex, _checked_near, _subset_terms, build_cell_index, p_gamma_subset, screened_subset
from .network import (
    EqlNetwork,
    _point_error,
    apply_mask,
    collapse_affine,
    collapse_affine_grad,
    column_errors,
    forward_batch,
    initialize,
)

# The fewest rows, and the most features, at which train screens its
# epochs by a cell index (see gradients).  Screening changes the cost of
# an epoch, never its result, so these are speed settings only.  On a
# 2-vCPU Xeon (NumPy 2.4, one BLAS thread), a 100-epoch fit on cut-square
# points, index build included, broke even between 5x10^4 and 6.6x10^4
# rows and took 0.67 of the dense time at 2x10^5; at 2x10^5 rows it broke
# even at F = 3.  The dense epochs of those measurements selected the
# subset from the previous epoch's, a warm start that the dense epoch no
# longer takes, and the index build has since become cheaper (int32 keys,
# one index per dataset): both move the break-even, but no benchmark
# workload sits between the gates to measure where, so the gates stay.
SCREEN_MIN_N = 65_536
SCREEN_MAX_F = 2


class DivergenceError(ArithmeticError):
    """Training produced non-finite parameters or a non-finite loss value.

    ``epoch`` is the first epoch whose starting parameters or loss are
    non-finite; it equals the epoch count when the final step produced them.
    Non-finite parameters make that epoch's loss non-finite (through the
    errors, or through ``term_reg``, where ``0 * inf`` is NaN), so the
    message names the loss either way.
    """

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"loss became non-finite at epoch {epoch}")


@dataclass(eq=False)
class Gradients:
    """Partial derivatives of the total loss for every parameter.

    ``subset`` is the percentile subset the loss was evaluated with, held
    fixed while differentiating, and ``rows`` its points,
    ``dataset.points[subset]``, which the gradient gathers anyway.  The
    next epoch's :func:`gradients` takes ``rows`` as ``near``, which only a
    screened epoch starts from.
    """

    d_w_in: np.ndarray
    d_w_out: np.ndarray
    d_b_out: float
    subset: np.ndarray
    rows: np.ndarray


def gradients(
    net: EqlNetwork,
    dataset: Dataset,
    cfg: LossConfig,
    near: np.ndarray | None = None,
    cells: CellIndex | None = None,
) -> tuple[LossBreakdown, Gradients]:
    """Evaluate the loss and its exact gradient at the current parameters.

    One body serves every epoch.  The percentile subset is
    :func:`~eqlbounds.loss.p_gamma_subset` of the errors that
    :func:`forward_batch` gives for ``cfg.direction``; with ``cells``, the
    dataset's :func:`~eqlbounds.loss.build_cell_index`, it is
    :func:`~eqlbounds.loss.screened_subset`'s, the same subset, found from
    only the errors of the cells that can reach it.  Both compute an error
    by :func:`~eqlbounds.network.column_errors`, whose bits depend on the
    row alone, so the subset's errors are the same either way.  ``term_e``
    is ``alpha1`` times the error at the dataset's column means: the errors
    are affine in the points, so that is their mean, in O(F).  The other
    terms and ``dz/dpred`` come from the subset's errors, by the code that
    :func:`~eqlbounds.loss.loss_from_errors` runs, with the subset and the
    worst-error index held fixed.  So ``cells`` changes the cost, never the
    result, and a non-finite error outside the subset leaves the loss
    finite.

    ``near``, an (m, F) array of points such as the previous epoch's
    ``Gradients.rows``, changes no result either: only the screen starts
    from it, and any other ``near`` raises ``ValueError``.  The gradient is
    the raw one, also at weights that masking froze at zero; :func:`train`
    zeroes those entries itself.  Non-finite values are returned as
    computed; :func:`train` reports them as divergence.

    Beyond the errors, the gradient costs one gather of the subset's rows:
    ``dz/dpred`` is one shared value plus one per subset member, and the
    shared value's share is a multiple of the dataset's column means, so
    no pass over all N points is made for it.
    """
    coeffs, offset = collapse_affine(net)
    if cells is None:
        if near is not None:
            _checked_near(near, dataset.n_features)
        e = forward_batch(net, dataset, cfg.direction)
        subset = p_gamma_subset(e, cfg.gamma)
    else:
        if cells.points is not dataset.points:
            raise ValueError("cells must be the cell index of this dataset's points")
        subset = screened_subset(cells, coeffs, offset, cfg.direction, cfg.gamma, near)
    # take, not fancy indexing: at the paper's sizes it is the faster gather.
    rows = dataset.points.take(subset, axis=0)
    # The same bits either way: a row's error depends on that row alone.
    e_sub = e.take(subset) if cells is None else column_errors(rows, coeffs, offset, cfg.direction)
    t_e = cfg.alpha1 * _point_error(dataset.column_means, coeffs, offset, cfg.direction)
    breakdown, fill, d_sub = _subset_terms(e_sub, t_e, dataset.n_points, net, cfg)

    # preds = points @ a + c, so the gradient in (a, c) is (points^T dz, sum dz).
    # The shared value contributes fill * n times (column means, 1); the
    # subset contributes its rows weighted by d_sub.
    mean_weight = fill * dataset.n_points
    d_b_out = float(np.add.reduce(d_sub)) + mean_weight
    d_coeffs = d_sub @ rows
    d_coeffs += mean_weight * dataset.column_means
    d_w_in, d_w_out = collapse_affine_grad(net, d_coeffs, d_b_out)
    d_w_out += cfg.l1 * np.sign(net.w_out) + 2.0 * cfg.l2 * net.w_out
    return breakdown, Gradients(d_w_in, d_w_out, d_b_out, subset, rows)


def train(dataset: Dataset, loss_cfg: LossConfig, train_cfg: TrainConfig) -> tuple[EqlNetwork, TrainReport]:
    """Run one seeded training run and extract the resulting constraint.

    Each epoch records the loss breakdown at its start, as one row of
    ``TrainReport.records``, then applies one descent step.  Masking is on
    exactly when ``train_cfg.mask_threshold > 0``: the step is then
    followed by a mask pass, so a weight that ends an epoch below the
    threshold is zero for every later epoch.  A frozen weight is one that
    is exactly zero: under masking the gradient of every zero weight is
    zeroed before the step.  So an initial weight drawn as exactly 0.0
    (probability 2**-53 per draw) is frozen from epoch 0 on.  A threshold
    of 0 runs plain descent: no weight is frozen and no mask pass runs.
    Each epoch's percentile subset rows are handed to the next epoch, and
    only a screened epoch (below) starts from them.

    A dataset of at least ``SCREEN_MIN_N`` rows and at most
    ``SCREEN_MAX_F`` features is screened: the first screened fit of a
    ``Dataset`` object builds its :func:`~eqlbounds.loss.build_cell_index`,
    every later fit of that object reuses it, and from the second epoch on
    each epoch computes only the errors of the grid cells that can reach
    the percentile subset (see :func:`gradients`).  Below the gate nothing
    is screened.  Every epoch runs the same body, so a screened run writes
    the same bytes as an unscreened one: the gates choose the speed, not
    the result.

    Divergence raises :class:`DivergenceError` with the first epoch whose
    starting parameters or loss are non-finite, with or without masking (a
    non-finite error outside the percentile subset leaves the loss finite);
    after the final step that epoch is ``train_cfg.epochs``, and it is
    also raised when the final parameters are finite but their affine
    collapse is not.

    ``train_cfg.runs`` must be 1; :func:`train_multi` fits several seeds.
    """
    if train_cfg.runs != 1:
        raise ValueError(f"train fits one seed, got runs={train_cfg.runs}; use train_multi for several")
    net = initialize(dataset, seed=train_cfg.seed)
    lr = train_cfg.learning_rate
    threshold = train_cfg.mask_threshold
    # One row per epoch, written in place: no LossBreakdown outlives its epoch.
    records = np.empty((train_cfg.epochs, len(LossBreakdown._fields)))
    near = None
    cells = _cell_index(dataset)
    # A gradient or step that overflows is reported as divergence below, so
    # numpy's overflow warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.epochs):
            breakdown, grads = gradients(net, dataset, loss_cfg, near, cells)
            near = grads.rows
            # z is the sum of the four terms, so it is finite exactly when all five are.
            if not math.isfinite(breakdown.z):
                raise DivergenceError(epoch)
            records[epoch] = breakdown
            if threshold > 0:
                grads.d_w_in[net.w_in == 0.0] = 0.0
                grads.d_w_out[net.w_out == 0.0] = 0.0
            net.w_in = net.w_in - lr * grads.d_w_in
            net.w_out = net.w_out - lr * grads.d_w_out
            net.b_out = net.b_out - lr * grads.d_b_out
            if threshold > 0:
                try:
                    net = apply_mask(net, threshold)
                except ValueError as exc:
                    # The threshold is valid and apply_mask zeroes every masked
                    # weight, so the one check left to fail is finiteness: the
                    # next epoch's loss would be non-finite.
                    raise DivergenceError(epoch + 1) from exc
        # Only the final step can leave a non-finite loss unreported.  Every
        # parameter enters the collapse, so this also catches a non-finite
        # parameter, and a collapse that overflows from finite ones.
        coeffs, offset = collapse_affine(net)
        if not (_all_finite(coeffs) and math.isfinite(offset)):
            raise DivergenceError(train_cfg.epochs)
    constraint = extract_constraint(net, loss_cfg.direction)
    rate = violation_rate(constraint, dataset)
    report = TrainReport(_frozen(records), constraint, rate, train_cfg.seed)
    return net, report


# Each screened dataset's cell index.  A Dataset freezes its points, so
# the index holds for the dataset's life; weak keys drop it with the dataset.
_CELL_INDEXES: weakref.WeakKeyDictionary[Dataset, CellIndex] = weakref.WeakKeyDictionary()


def _cell_index(dataset: Dataset) -> CellIndex | None:
    """The dataset's cell index where train screens it, else None; built by its first screened fit."""
    if dataset.n_points >= SCREEN_MIN_N and dataset.n_features <= SCREEN_MAX_F:
        cells = _CELL_INDEXES.get(dataset)
        if cells is None:
            cells = _CELL_INDEXES[dataset] = build_cell_index(dataset.points)
        return cells
    return None


def train_multi(
    dataset: Dataset, loss_cfg: LossConfig, train_cfg: TrainConfig
) -> list[tuple[EqlNetwork, TrainReport]]:
    """Run ``train_cfg.runs`` independent runs seeded seed, seed+1, ...

    Results come back sorted by final violation rate, best first; ties keep
    seed order.  At or above the screening gate every run shares the
    dataset's one cell index (see :func:`train`).
    """
    results = []
    for offset in range(train_cfg.runs):
        cfg = replace(train_cfg, seed=train_cfg.seed + offset, runs=1)
        results.append(train(dataset, loss_cfg, cfg))
    results.sort(key=lambda pair: pair[1].violation_rate)
    return results


def export_history_csv(report: TrainReport, path: str | Path) -> None:
    """Write the per-epoch loss history as CSV: ``epoch``, then one column per loss term."""
    rows = [[epoch, *row] for epoch, row in enumerate(report.records.tolist())]
    _write_csv(Path(path), ["epoch", *LossBreakdown._fields], [rows])


# Every config key, in ``train`` flag order, and the config object it belongs to.
CONFIG_KEYS: dict[str, type] = {f.name: cls for cls in (LossConfig, TrainConfig) for f in fields(cls)}


def configs_from_mapping(payload: dict) -> tuple[LossConfig, TrainConfig]:
    """Split one flat mapping into the two config objects.

    Keys absent from the mapping keep their defaults; unknown keys are an
    error, so that typos do not silently fall back to defaults.  The
    config objects check every value themselves, the direction's string
    value included.
    """
    _check_keys("config", payload, CONFIG_KEYS)
    kwargs: dict[type, dict] = {LossConfig: {}, TrainConfig: {}}
    for key, value in payload.items():
        kwargs[CONFIG_KEYS[key]][key] = value
    return LossConfig(**kwargs[LossConfig]), TrainConfig(**kwargs[TrainConfig])

