"""Command-line front end: gen, train, eval, plotdata.

Exit codes: 0 on success, 2 for usage or input problems, 3 for numerical
failures (divergent training, degenerate extraction, exhausted sampling).
Every command is deterministic: identical arguments and seeds write
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .datagen import (
    PAPER_PRESETS,
    RejectionBudgetExceededError,
    generate,
    load_region_spec,
    paper_dataset,
)
from .datamodel import (
    DatasetError,
    Dataset,
    Direction,
    LinearConstraint,
    LossConfig,
    TrainConfig,
    _display_number,
    _load_json,
    constraint_text,
    constraint_to_dict,
    load_constraint,
    load_dataset,
    save_constraint,
    save_dataset,
)
from .extract import DegenerateConstraintError, _check_feature_count, violation_report
from .trainer import (
    CONFIG_KEYS,
    DivergenceError,
    configs_from_mapping,
    export_history_csv,
    train_multi,
)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqlbounds",
        description="Learn linear inequality constraints that bound a dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a dataset from a region")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PAPER_PRESETS), help="named benchmark region")
    source.add_argument("--spec", metavar="REGION_JSON", help="custom region spec file")
    gen.add_argument("--n", type=int, help="point count (required with --spec)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, metavar="CSV")
    gen.set_defaults(func=_cmd_gen)

    train = sub.add_parser("train", help="fit constraints to a dataset")
    train.add_argument("--data", required=True, metavar="CSV")
    train.add_argument("--config", metavar="JSON", help="config file; flags override it")
    train.add_argument("--out-dir", required=True, metavar="DIR")
    for field in (*fields(LossConfig), *fields(TrainConfig)):
        flag = "--" + field.name.replace("_", "-")
        if field.name == "direction":
            train.add_argument(flag, choices=[d.value for d in Direction])
        else:
            train.add_argument(flag, type=type(field.default))
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="score a constraint against a dataset")
    evaluate.add_argument("--constraint", required=True, metavar="JSON")
    evaluate.add_argument("--data", required=True, metavar="CSV")
    evaluate.add_argument("--format", choices=["json", "text"], default="json")
    evaluate.set_defaults(func=_cmd_eval)

    plot = sub.add_parser("plotdata", help="emit plot-ready CSVs for a constraint")
    plot.add_argument("--constraint", required=True, metavar="JSON")
    plot.add_argument("--data", required=True, metavar="CSV")
    plot.add_argument("--out-dir", required=True, metavar="DIR")
    plot.set_defaults(func=_cmd_plotdata)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.preset is not None:
        if args.n is not None:
            raise ValueError("--n is fixed by the preset; omit it")
        dataset = paper_dataset(args.preset, args.seed)
    else:
        if args.n is None:
            raise ValueError("--n is required with --spec")
        spec = load_region_spec(args.spec)
        dataset = generate(spec, args.n, args.seed)
    out = Path(args.out)
    save_dataset(dataset, out)
    print(f"wrote {dataset.n_points} points x {dataset.n_features} features to {out}")
    return 0


_RUN_FILE = re.compile(r"run-(\d+)-")


def _first_stale_run_file(out_dir: Path, runs: int) -> Path | None:
    """The first ``run-NN-*`` file in ``out_dir`` with NN >= ``runs``, in run then name order.

    A train of ``runs`` runs writes runs 0 to ``runs - 1`` and would leave
    such a file next to a summary that does not list it.
    """
    if not out_dir.is_dir():
        return None
    stale = []
    for path in out_dir.iterdir():
        match = _RUN_FILE.match(path.name)
        if match and int(match.group(1)) >= runs:
            stale.append((int(match.group(1)), path.name))
    return out_dir / min(stale)[1] if stale else None


def _checked_config(payload: dict) -> dict:
    """``payload`` itself, once :func:`configs_from_mapping` accepts it."""
    configs_from_mapping(payload)
    return payload


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    # The file is checked on its own, so that its faults name it and a bad flag's do not.
    payload = _load_json(args.config, "config", _checked_config) if args.config else {}
    flags = {name: value for name in CONFIG_KEYS if (value := getattr(args, name)) is not None}
    loss_cfg, train_cfg = configs_from_mapping({**payload, **flags})

    out_dir = Path(args.out_dir)
    stale = _first_stale_run_file(out_dir, train_cfg.runs)
    if stale is not None:
        raise ValueError(f"{stale} is from an earlier train with more runs; remove it or choose another --out-dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    results = train_multi(dataset, loss_cfg, train_cfg)

    summary_rows = []
    for _, report in results:
        offset = report.seed - train_cfg.seed
        save_constraint(report.constraint, out_dir / f"run-{offset:02d}-constraint", dataset.feature_names)
        export_history_csv(report, out_dir / f"run-{offset:02d}-history.csv")
        summary_rows.append(
            {
                "run": offset,
                "seed": report.seed,
                "violation_percent": report.violation_rate,
                "expression": constraint_text(report.constraint, dataset.feature_names),
                "constraint": constraint_to_dict(report.constraint),
            }
        )

    lines = [f"{'run':>4} {'seed':>12} {'violation%':>11}  constraint"]
    for row in summary_rows:
        lines.append(
            f"{row['run']:>4} {row['seed']:>12} {_display_number(row['violation_percent']):>11}  {row['expression']}"
        )
    table = "\n".join(lines) + "\n"
    (out_dir / "summary.txt").write_text(table, encoding="utf-8")
    (out_dir / "summary.json").write_text(
        json.dumps(summary_rows, indent=2) + "\n", encoding="utf-8"
    )
    sys.stdout.write(table)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    constraint = load_constraint(args.constraint)
    dataset = load_dataset(args.data)
    report = violation_report(constraint, dataset)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(
            f"{report['violations']} of {report['n']} points violate "
            f"({_display_number(report['rate_percent'])}%): {report['expression']}"
        )
    return 0


def _boundary_samples(constraint: LinearConstraint, dataset: Dataset) -> np.ndarray | None:
    """Sample the boundary surface ``coeffs . x == bound`` over the data range.

    The coordinate with the largest |coefficient| is solved for, the last
    one at a tie (as the canonical form divides by the highest-indexed
    lead); the others span the data range.  One feature: the single
    boundary point.  Two: 200 points along the line.  Three: a 20 x 20
    mesh of the plane.  Four or more: None (no plot-ready parametrization).
    """
    f = constraint.n_features
    if f > 3:
        return None
    a, b = constraint.coeffs, constraint.bound
    dep = f - 1 - int(np.argmax(np.abs(a[::-1])))
    free = [i for i in range(f) if i != dep]
    lo = dataset.points.min(axis=0)
    hi = dataset.points.max(axis=0)
    steps = 200 if f == 2 else 20
    axes = np.meshgrid(*(np.linspace(lo[i], hi[i], steps) for i in free), indexing="ij")
    samples = np.empty((steps ** len(free), f))
    solved = b
    for i, axis in zip(free, axes):
        samples[:, i] = axis.ravel()
        solved = solved - samples[:, i] * a[i]
    samples[:, dep] = solved / a[dep]
    return samples


def _cmd_plotdata(args: argparse.Namespace) -> int:
    constraint = load_constraint(args.constraint)
    dataset = load_dataset(args.data)
    _check_feature_count(constraint, dataset)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out_dir / "points.csv")
    boundary = _boundary_samples(constraint, dataset)
    if boundary is None:
        print(
            f"no boundary sampling for {dataset.n_features} features; wrote points.csv only"
        )
        return 0
    save_dataset(Dataset(boundary, feature_names=dataset.feature_names), out_dir / "boundary.csv")
    print(f"wrote points.csv and boundary.csv ({boundary.shape[0]} boundary samples) to {out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        DivergenceError,
        DegenerateConstraintError,
        RejectionBudgetExceededError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
