"""Collapse a trained network into a linear inequality and score it.

The network is the affine map ``f(x) = a.x + c`` defined by
``network.collapse_affine``; its zero level set is the learned boundary, so
the constraint reads ``-c <= a.x`` for a lower bound and ``a.x <= -c`` for
an upper bound.  Canonicalization divides through by the highest-indexed
coefficient of significant magnitude, flipping the relation when that
divisor is negative, so equivalent networks print the same inequality.
"""

from __future__ import annotations

import math

import numpy as np

from .datamodel import (
    COEFF_EPS,
    Dataset,
    Direction,
    LinearConstraint,
    _all_finite,
    _real,
    constraint_to_dict,
    constraint_text,
)
from .network import EqlNetwork, collapse_affine


class DegenerateConstraintError(ArithmeticError):
    """No finite canonical inequality exists for the collapsed coefficients.

    Either every coefficient is numerically zero, or dividing through by
    the lead coefficient overflows.
    """


def _canonicalize(coeffs: np.ndarray, bound: float, relation: Direction) -> LinearConstraint:
    """Scale so the highest-indexed significant coefficient is exactly 1.0.

    Coefficients below COEFF_EPS are zeroed first; they are numerical dust
    and keeping them would let a tiny divisor inflate them into fake terms.
    A lead just above COEFF_EPS can still overflow the others or the bound;
    that raises :class:`DegenerateConstraintError`, without a warning.
    """
    a = np.array(coeffs, dtype=float)
    a[np.abs(a) < COEFF_EPS] = 0.0
    nonzero = a.nonzero()[0]
    if nonzero.size == 0:
        raise DegenerateConstraintError(
            "all coefficients are numerically zero; no constraint can be formed"
        )
    lead = nonzero[-1]
    divisor = a[lead]
    with np.errstate(over="ignore"):
        a = a / divisor
        bound = bound / divisor
    a[lead] = 1.0
    if not (_all_finite(a) and math.isfinite(bound)):
        raise DegenerateConstraintError(
            f"dividing by the lead coefficient {float(divisor)!r} (index {lead}) overflows; "
            "no finite constraint can be formed"
        )
    if divisor < 0:
        relation = relation.flipped()
    return LinearConstraint(a, bound, relation)


def extract_constraint(net: EqlNetwork, direction: Direction) -> LinearConstraint:
    """Turn a trained network into a canonical linear inequality."""
    coeffs, offset = collapse_affine(net)
    return _canonicalize(coeffs, -offset, direction)


def _check_feature_count(constraint: LinearConstraint, dataset: Dataset) -> None:
    """Raise ValueError unless the constraint has one coefficient per dataset feature."""
    if dataset.n_features != constraint.n_features:
        raise ValueError(
            f"constraint has {constraint.n_features} coefficients but the dataset "
            f"has {dataset.n_features} features"
        )


def _violation_count(constraint: LinearConstraint, dataset: Dataset) -> int:
    _check_feature_count(constraint, dataset)
    # An overflowing value compares as infinite; inf - inf gives NaN, which
    # satisfies neither relation.
    with np.errstate(over="ignore", invalid="ignore"):
        values = dataset.points @ constraint.coeffs
    if constraint.relation is Direction.LOWER:
        satisfied = values >= constraint.bound
    else:
        satisfied = values <= constraint.bound
    return int(np.count_nonzero(~satisfied))


def violation_rate(constraint: LinearConstraint, dataset: Dataset) -> float:
    """Percentage of dataset points that do not satisfy the constraint.

    Satisfaction is non-strict: a point exactly on the boundary counts as
    satisfied.  The count is exact; only the final rate is a float.  A
    point whose constraint value overflows counts by the infinity it
    becomes; one whose value is ``inf - inf`` is NaN, satisfies neither
    relation, and counts as a violation.  Neither warns.
    """
    return 100.0 * _violation_count(constraint, dataset) / dataset.n_points


def violation_report(constraint: LinearConstraint, dataset: Dataset) -> dict:
    """Violation count and rate as a JSON-friendly mapping."""
    count = _violation_count(constraint, dataset)
    return {
        "constraint": constraint_to_dict(constraint),
        "expression": constraint_text(constraint, dataset.feature_names),
        "n": dataset.n_points,
        "violations": count,
        "rate_percent": 100.0 * count / dataset.n_points,
    }


def prune(constraint: LinearConstraint, rel_threshold: float) -> LinearConstraint:
    """Drop coefficients small relative to the largest one, then re-canonicalize.

    A coefficient is dropped when its magnitude is below ``rel_threshold``
    times the largest coefficient magnitude.  The comparison is scale
    invariant, so pruning an already-pruned constraint with the same
    threshold changes nothing.
    """
    rel_threshold = _real("rel_threshold", rel_threshold)
    if not (0 <= rel_threshold < 1):
        raise ValueError(f"rel_threshold must lie in [0, 1), got {rel_threshold}")
    a = np.array(constraint.coeffs, dtype=float)
    cutoff = rel_threshold * float(np.abs(a).max())
    a[np.abs(a) < cutoff] = 0.0
    return _canonicalize(a, constraint.bound, constraint.relation)
