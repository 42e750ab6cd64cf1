"""Learn linear inequality constraints that bound a dataset's feasible region.

A small equation-learner network (one symbolic layer of identity/constant
units, one linear readout) is trained with a three-term boundary loss so
that its zero level set hugs the edge of the data.  The trained network
collapses into a canonical linear inequality that can be scored, pruned,
and saved.
"""

from .datamodel import (
    COEFF_EPS,
    Dataset,
    DatasetError,
    Direction,
    EmptyDatasetError,
    LinearConstraint,
    LossBreakdown,
    LossConfig,
    NonNumericError,
    RaggedRowError,
    TrainConfig,
    TrainReport,
    constraint_from_dict,
    constraint_text,
    constraint_to_dict,
    load_constraint,
    load_dataset,
    save_constraint,
    save_dataset,
)
from .datagen import (
    BallCap,
    LinearCut,
    PAPER_PRESETS,
    RegionSpec,
    RejectionBudgetExceededError,
    generate,
    load_region_spec,
    paper_dataset,
    save_region_spec,
)
from .extract import (
    DegenerateConstraintError,
    extract_constraint,
    prune,
    violation_rate,
    violation_report,
)
from .loss import loss_from_errors, p_gamma_subset
from .network import (
    EqlNetwork,
    apply_mask,
    collapse_affine,
    forward_batch,
    initialize,
)
from .trainer import (
    DivergenceError,
    Gradients,
    configs_from_mapping,
    export_history_csv,
    gradients,
    train,
    train_multi,
)

__version__ = "0.1.0"

__all__ = [
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
