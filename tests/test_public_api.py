"""The package's public surface: what it exports, and what it no longer does."""

import inspect

import eqlbounds
from eqlbounds import EqlNetwork

PUBLIC_NAMES = [
    "BallCap",
    "COEFF_EPS",
    "Dataset",
    "DatasetError",
    "DegenerateConstraintError",
    "Direction",
    "DivergenceError",
    "EmptyDatasetError",
    "EqlNetwork",
    "Gradients",
    "LinearConstraint",
    "LinearCut",
    "LossBreakdown",
    "LossConfig",
    "NonNumericError",
    "PAPER_PRESETS",
    "RaggedRowError",
    "RegionSpec",
    "RejectionBudgetExceededError",
    "TrainConfig",
    "TrainReport",
    "apply_mask",
    "collapse_affine",
    "configs_from_mapping",
    "constraint_from_dict",
    "constraint_text",
    "constraint_to_dict",
    "export_history_csv",
    "extract_constraint",
    "forward_batch",
    "generate",
    "gradients",
    "initialize",
    "load_constraint",
    "load_dataset",
    "load_region_spec",
    "loss_from_errors",
    "p_gamma_subset",
    "paper_dataset",
    "prune",
    "save_constraint",
    "save_dataset",
    "save_region_spec",
    "train",
    "train_multi",
    "violation_rate",
    "violation_report",
]


def test_public_surface_is_pinned():
    """Adding or removing a public name must change this list too."""
    assert sorted(eqlbounds.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(eqlbounds, name) is not None, name
    # Removed duplicates: the loss has one entry, and the network no test-only properties.
    assert not hasattr(eqlbounds, "loss_and_pred_grad")
    assert not hasattr(eqlbounds.loss, "loss_and_pred_grad")
    assert not hasattr(EqlNetwork, "is_identity")
    assert not hasattr(EqlNetwork, "n_units")
    # The network's layout is its arrays' shapes: no primitive type, no default tuple of them.
    assert not hasattr(eqlbounds, "Primitive") and not hasattr(eqlbounds.network, "Primitive")
    assert not hasattr(eqlbounds, "DEFAULT_PRIMITIVES") and not hasattr(eqlbounds.network, "DEFAULT_PRIMITIVES")
    # gradients looks up the dataset's cell index itself, and the screen certifies a subset or returns None.
    assert "cells" not in inspect.signature(eqlbounds.gradients).parameters
    assert not hasattr(eqlbounds.loss, "_certified_top_k")
