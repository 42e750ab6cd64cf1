"""End-to-end command-line behavior, exit codes, and file artifacts."""

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import re

from eqlbounds import EqlNetwork, LossConfig, TrainConfig, cli, trainer
from eqlbounds import Direction, LinearConstraint, load_dataset, save_constraint, save_dataset, save_region_spec
from eqlbounds import Dataset, LinearCut, RegionSpec
from eqlbounds import configs_from_mapping, load_constraint, load_region_spec
from eqlbounds.cli import main
from eqlbounds.datamodel import read_json_object


@pytest.fixture
def square_low_csv(tmp_path):
    path = tmp_path / "square-low.csv"
    assert main(["gen", "--preset", "square-low", "--seed", "0", "--out", str(path)]) == 0
    return path


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestGen:
    def test_circle_writes_250_rows(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["gen", "--preset", "circle", "--seed", "7", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == "X0,X1"
        assert len(lines) == 251
        assert "wrote 250 points x 2 features" in capsys.readouterr().out

    def test_cube_has_three_feature_columns(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["gen", "--preset", "cube", "--seed", "1", "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert (ds.n_points, ds.n_features) == (2000, 3)

    def test_missing_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--preset", "circle"])
        assert info.value.code == 2

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--preset", "triangle", "--out", "x.csv"])
        assert info.value.code == 2

    def test_n_conflicts_with_preset(self, tmp_path, capsys):
        code = main(["gen", "--preset", "circle", "--n", "10", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "fixed by the preset" in capsys.readouterr().err

    def test_spec_requires_n(self, tmp_path, capsys):
        spec_path = tmp_path / "region.json"
        save_region_spec(RegionSpec(box=[[0.0, 1.0]]), spec_path)
        assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "d.csv")]) == 2
        assert "--n is required" in capsys.readouterr().err

    def test_custom_spec(self, tmp_path):
        spec_path = tmp_path / "region.json"
        save_region_spec(
            RegionSpec(box=[[0.0, 1.0], [3.0, 4.0]], linear_cuts=(LinearCut([1.0, 1.0], 3.5, Direction.LOWER),)),
            spec_path,
        )
        out = tmp_path / "d.csv"
        assert main(["gen", "--spec", str(spec_path), "--n", "25", "--seed", "5", "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.n_points == 25
        assert np.all(ds.points[:, 0] + ds.points[:, 1] > 3.5)

    def test_infeasible_spec_is_numerical_failure(self, tmp_path, capsys):
        spec_path = tmp_path / "region.json"
        save_region_spec(
            RegionSpec(box=[[0.0, 1.0]], linear_cuts=(LinearCut([1.0], 9.0, Direction.LOWER),)),
            spec_path,
        )
        assert main(["gen", "--spec", str(spec_path), "--n", "1", "--out", str(tmp_path / "d.csv")]) == 3
        assert "rejections" in capsys.readouterr().err

    def test_zero_count_is_input_error_writing_no_file(self, tmp_path, capsys):
        spec_path = tmp_path / "region.json"
        save_region_spec(RegionSpec(box=[[0.0, 1.0]]), spec_path)
        out = tmp_path / "d.csv"
        assert main(["gen", "--spec", str(spec_path), "--n", "0", "--out", str(out)]) == 2
        assert "n must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"box": [["0", "1"]]},
            {"box": [[0.0, 1.0]], "linear_cut": [{"coeffs": [1.0], "bound": 0.5}]},
            {"box": [[0.0, 1.0]], "linear_cuts": [{"coeffs": [1.0], "bound": True}]},
            {"box": [[0.0, 1.0], [0.0]]},
            {"box": [[-1e308, 1e308]]},
        ],
        ids=["string-box", "misspelled-key", "bool-bound", "ragged-box", "box-wider-than-floats"],
    )
    def test_malformed_spec_is_input_error_writing_no_file(self, payload, tmp_path, capsys):
        spec_path = tmp_path / "region.json"
        spec_path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "d.csv"
        assert main(["gen", "--spec", str(spec_path), "--n", "10", "--out", str(out)]) == 2
        assert "malformed region spec" in capsys.readouterr().err
        assert not out.exists()

    def test_ball_radius_whose_square_overflows_keeps_the_whole_box(self, tmp_path):
        spec_path = tmp_path / "region.json"
        spec = {"box": [[0.0, 1.0]], "quadratic_cap": {"center": [0.5], "radius": 1e200}}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gen", "--spec", str(spec_path), "--n", "10", "--out", str(out)]) == 0
        assert load_dataset(out).n_points == 10

    def test_cut_value_that_overflows_does_not_warn(self, tmp_path):
        # 10 * x overflows for x near the box's lower end, where the cut's
        # value is -inf and the candidate is rejected, as it should be.
        spec_path = tmp_path / "region.json"
        spec = {"box": [[-1e308, 1e307]], "linear_cuts": [{"coeffs": [10.0], "bound": 0}]}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        outs = {}
        for action in ("error", "ignore"):
            outs[action] = tmp_path / f"{action}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main(["gen", "--spec", str(spec_path), "--n", "5", "--out", str(outs[action])]) == 0
        assert outs["error"].read_bytes() == outs["ignore"].read_bytes()
        assert (load_dataset(outs["error"]).points > 0).all()

    def test_negative_seed_is_input_error_naming_seed(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["gen", "--preset", "circle", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--preset", "square-low", "--seed", "3", "--out", str(a)])
        main(["gen", "--preset", "square-low", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        main(["gen", "--preset", "square-low", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestTrain:
    def train_args(self, data, out_dir, **extra):
        args = [
            "train",
            "--data",
            str(data),
            "--out-dir",
            str(out_dir),
            "--epochs",
            "25",
            "--learning-rate",
            "1e-3",
            "--gamma",
            "2.5",
        ]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args

    def test_writes_expected_files(self, square_low_csv, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        assert main(self.train_args(square_low_csv, out_dir, runs=2, seed=24)) == 0
        for offset in (0, 1):
            assert (out_dir / f"run-{offset:02d}-constraint.txt").exists()
            assert (out_dir / f"run-{offset:02d}-constraint.json").exists()
            history = read_lines(out_dir / f"run-{offset:02d}-history.csv")
            assert history[0].startswith("epoch,")
            assert len(history) == 26
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert [row["seed"] for row in summary] and len(summary) == 2
        assert sorted(row["seed"] for row in summary) == [24, 25]
        rates = [row["violation_percent"] for row in summary]
        assert rates == sorted(rates)
        for row in summary:
            assert "<=" in row["expression"]
            assert set(row["constraint"]) == {"coeffs", "bound", "relation"}
        table = read_lines(out_dir / "summary.txt")
        assert len(table) == 3
        assert capsys.readouterr().out.splitlines()[: len(table)] == table

    def test_repeat_run_is_byte_identical(self, square_low_csv, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        args = lambda d: self.train_args(square_low_csv, d, runs=1, seed=42)
        assert main(args(dir_a)) == 0
        assert main(args(dir_b)) == 0
        for name in ("summary.json", "summary.txt", "run-00-constraint.json", "run-00-constraint.txt", "run-00-history.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_fewer_runs_into_a_used_out_dir_is_input_error(self, square_low_csv, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        assert main(self.train_args(square_low_csv, out_dir, runs=3, seed=24)) == 0
        before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        capsys.readouterr()
        assert main(self.train_args(square_low_csv, out_dir, runs=1, seed=24)) == 2
        stale = out_dir / "run-01-constraint.json"
        assert capsys.readouterr().err == (
            f"error: {stale} is from an earlier train with more runs; remove it or choose another --out-dir\n"
        )
        # Nothing is deleted or rewritten, and as many runs again is fine.
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before
        assert main(self.train_args(square_low_csv, out_dir, runs=3, seed=24)) == 0

    def test_flag_overrides_config_file(self, square_low_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 5.0, "epochs": 25, "learning_rate": 1e-3}), encoding="utf-8")
        dir_flag, dir_file = tmp_path / "flag", tmp_path / "file"
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(square_low_csv),
                    "--out-dir",
                    str(dir_flag),
                    "--config",
                    str(cfg),
                    "--gamma",
                    "2.5",
                    "--seed",
                    "24",
                ]
            )
            == 0
        )
        assert main(self.train_args(square_low_csv, dir_file, seed=24)) == 0
        assert (dir_flag / "summary.json").read_bytes() == (dir_file / "summary.json").read_bytes()

    def test_zero_mask_threshold_trains(self, square_low_csv, tmp_path):
        out_dir = tmp_path / "runs"
        args = self.train_args(square_low_csv, out_dir, seed=24, mask_threshold=0)
        assert main(args) == 0

    # A threshold of 0 is the one way to train without masking.
    def test_no_mask_is_a_usage_error(self, square_low_csv, tmp_path, capsys):
        args = self.train_args(square_low_csv, tmp_path / "r", seed=24) + ["--no-mask"]
        with pytest.raises(SystemExit) as raised:
            main(args)
        assert raised.value.code == 2
        assert "unrecognized arguments: --no-mask" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_null_mask_threshold_in_a_config_is_input_error(self, square_low_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mask_threshold": None}), encoding="utf-8")
        args = self.train_args(square_low_csv, tmp_path / "r") + ["--config", str(cfg)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: mask_threshold must be a number, got None\n"

    def test_missing_data_file(self, tmp_path, capsys):
        assert main(self.train_args(tmp_path / "absent.csv", tmp_path / "r")) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [b"X0\n1\xe9\n", b"X" * (csv.field_size_limit() + 1) + b"\n1\n"],
        ids=["not-utf-8", "header-cell-past-the-csv-field-limit"],
    )
    def test_unreadable_data_file_is_input_error_naming_it(self, tmp_path, capsys, body):
        data = tmp_path / "d.csv"
        data.write_bytes(body)
        assert main(self.train_args(data, tmp_path / "r")) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}: ")

    def test_bad_config_key(self, square_low_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epoch": 10}), encoding="utf-8")
        args = ["train", "--data", str(square_low_csv), "--out-dir", str(tmp_path / "r"), "--config", str(cfg)]
        assert main(args) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_divergence_exits_3(self, square_low_csv, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        args = [
            "train",
            "--data",
            str(square_low_csv),
            "--out-dir",
            str(out_dir),
            "--epochs",
            "400",
            "--learning-rate",
            "0.5",
            "--seed",
            "0",
        ]
        assert main(args) == 3
        assert "epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs", ["5", "1"], ids=["mid-run", "last-epoch"])
    @pytest.mark.parametrize("mask_flags", [[], ["--mask-threshold", "0"]], ids=["masked", "unmasked"])
    def test_overflowing_step_exits_3(self, square_low_csv, tmp_path, capsys, mask_flags, epochs):
        args = self.train_args(square_low_csv, tmp_path / "r", learning_rate=1e308, epochs=epochs) + mask_flags
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 3
        assert capsys.readouterr().err == "error: loss became non-finite at epoch 1\n"

    def test_overflowing_affine_collapse_after_the_last_step_exits_3(self, square_low_csv, tmp_path, capsys):
        # The last step leaves finite weights whose affine collapse overflows;
        # the loss at epoch 6 would be non-finite, so that epoch diverges.
        args = self.train_args(square_low_csv, tmp_path / "r", epochs=6, learning_rate=0.3, seed=24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 3
        assert capsys.readouterr().err == "error: loss became non-finite at epoch 6\n"

    def test_overflowing_canonical_form_exits_3(self, tmp_path, capsys, monkeypatch):
        # The fit ends near a = (1e301, 1e-8): finite, but dividing by the
        # lead 1e-8 overflows.  X0 ~ 1e-301 keeps the predictions near 1, and
        # the tiny rate keeps the step from moving the lead.
        rng = np.random.default_rng(0)
        points = np.column_stack([rng.uniform(1e-301, 3e-301, 200), rng.uniform(0.0, 1.0, 200)])
        save_dataset(Dataset(points), tmp_path / "d.csv")

        def fit(dataset, seed):
            return EqlNetwork(np.array([[1e301, 1e-8]]), np.array([1.0]), 0.0)

        monkeypatch.setattr(trainer, "initialize", fit)
        args = self.train_args(tmp_path / "d.csv", tmp_path / "r", epochs=1, learning_rate=1e-12, mask_threshold=0)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: dividing by the lead coefficient") and "overflows" in err

    def test_all_weights_masked_exits_3(self, square_low_csv, tmp_path, capsys):
        args = self.train_args(square_low_csv, tmp_path / "r", seed=24, mask_threshold=10.0)
        assert main(args) == 3
        assert "zero" in capsys.readouterr().err

    def test_flags_are_the_config_fields(self):
        (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {opt for action in subcommands.choices["train"]._actions for opt in action.option_strings}
        config_fields = [*dataclasses.fields(LossConfig), *dataclasses.fields(TrainConfig)]
        expected = {"--" + f.name.replace("_", "-") for f in config_fields}
        assert flags - {"-h", "--help", "--data", "--config", "--out-dir"} == expected

    def test_each_flag_reaches_its_config(self, square_low_csv, tmp_path, monkeypatch):
        seen = []

        def fake_train_multi(dataset, loss_cfg, train_cfg):
            seen.append((loss_cfg, train_cfg))
            return []

        def flags(values):
            return [arg for key, value in values.items() for arg in ("--" + key.replace("_", "-"), str(value))]

        monkeypatch.setattr(cli, "train_multi", fake_train_multi)
        loss_values = {"alpha1": 0.25, "alpha2": 0.75, "alpha3": 0.125, "gamma": 2.5, "l1": 0.01, "l2": 0.02}
        train_values = {"epochs": 7, "learning_rate": 0.003, "mask_threshold": 0.004, "seed": 9, "runs": 3}
        unmasked = {**train_values, "mask_threshold": 0}
        base = ["train", "--data", str(square_low_csv), "--out-dir", str(tmp_path / "r"), "--direction", "upper"]
        assert main(base + flags({**loss_values, **train_values})) == 0
        assert main(base + flags({**loss_values, **unmasked})) == 0
        loss_cfg = LossConfig(**loss_values, direction=Direction.UPPER)
        assert seen == [
            (loss_cfg, TrainConfig(**train_values)),
            (loss_cfg, TrainConfig(**unmasked)),
        ]


class TestEval:
    def test_zero_rate_json(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.array([[1.0], [2.0]])), data)
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER), cpath)
        assert main(["eval", "--constraint", str(cpath), "--data", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rate_percent"] == 0.0
        assert report["violations"] == 0
        assert report["n"] == 2

    def test_text_format_is_single_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.array([[1.0], [-2.0]])), data)
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER), cpath)
        assert main(["eval", "--constraint", str(cpath), "--data", str(data), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "1 of 2 points violate (50%): 0 <= X0" in out

    def test_constraint_value_that_overflows_does_not_warn(self, tmp_path, capsys):
        # 1.5e308 + 1e308 overflows to inf, which satisfies the constraint;
        # -1.5e308 + 5 is finite and violates it.
        data = tmp_path / "d.csv"
        data.write_text("X0,X1\n1e308,1e308\n-1e308,5\n", encoding="utf-8")
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.array([1.5, 1.0]), 0.0, Direction.LOWER), cpath)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--constraint", str(cpath), "--data", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["expression"] == "0 <= 1.5*X0 + X1"
        assert (report["violations"], report["n"]) == (1, 2)

    def test_byte_order_mark_stays_out_of_the_expression(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("X0,X1\n1,2\n-3,4\n", encoding="utf-8-sig")
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.array([0.5, 1.0]), 0.0, Direction.LOWER), cpath)
        assert main(["eval", "--constraint", str(cpath), "--data", str(data), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["expression"] == "0 <= 0.5*X0 + X1"
        assert "\ufeff" not in report["expression"]

    # stdin is a pipe here, which can be read only once.
    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_data_from_stdin(self, tmp_path):
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER), cpath)
        proc = subprocess.run(
            [sys.executable, "-m", "eqlbounds", "eval", "--constraint", str(cpath), "--data", "/dev/stdin"],
            input="X0\n1.0\n-2.0\n",
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["violations"], report["n"]) == (1, 2)

    def test_missing_constraint_file(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.array([[1.0]])), data)
        assert main(["eval", "--constraint", str(tmp_path / "absent.json"), "--data", str(data)]) == 2
        assert "error" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.ones((2, 2))), data)
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.array([1.0]), 0.0, Direction.LOWER), cpath)
        assert main(["eval", "--constraint", str(cpath), "--data", str(data)]) == 2

    def test_feature_count_mismatch_names_both_counts(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.ones((2, 3))), data)
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.array([0.5, 1.0]), 0.0, Direction.LOWER), cpath)
        assert main(["eval", "--constraint", str(cpath), "--data", str(data)]) == 2
        assert capsys.readouterr() == ("", "error: constraint has 2 coefficients but the dataset has 3 features\n")

    @pytest.mark.parametrize("bound", [None, [1.0], {"a": 1.0}, True, "1.0"])
    def test_non_number_bound_is_an_input_error(self, tmp_path, capsys, bound):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.ones((2, 2))), data)
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"coeffs": [0.5, 1.0], "bound": bound, "relation": "lower"}), encoding="utf-8")
        assert main(["eval", "--constraint", str(cpath), "--data", str(data)]) == 2
        assert capsys.readouterr().err == f"error: malformed constraint payload: bound must be a number, got {bound!r}\n"

    def test_unknown_constraint_key_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.ones((2, 2))), data)
        cpath = tmp_path / "c.json"
        payload = {"coeffs": [0.5, 1.0], "bound": 1.0, "relation": "lower", "bonud": 7}
        cpath.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["eval", "--constraint", str(cpath), "--data", str(data)]) == 2
        assert capsys.readouterr() == ("", "error: malformed constraint payload: unknown constraint keys: ['bonud']\n")


class TestPlotdata:
    def constraint_file(self, tmp_path, coeffs):
        cpath = tmp_path / "c.json"
        save_constraint(LinearConstraint(np.asarray(coeffs, dtype=float), 1.0, Direction.LOWER), cpath)
        return cpath

    def test_two_features_writes_line_samples(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        save_dataset(Dataset(rng.uniform(-5, 25, (30, 2))), data)
        cpath = self.constraint_file(tmp_path, [0.5, 1.0])
        out_dir = tmp_path / "plot"
        assert main(["plotdata", "--constraint", str(cpath), "--data", str(data), "--out-dir", str(out_dir)]) == 0
        assert len(read_lines(out_dir / "points.csv")) == 31
        boundary = load_dataset(out_dir / "boundary.csv")
        assert boundary.n_points == 200
        assert np.allclose(boundary.points @ np.array([0.5, 1.0]), 1.0)
        assert "boundary.csv" in capsys.readouterr().out

    def test_three_features_writes_mesh(self, tmp_path):
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(1)
        save_dataset(Dataset(rng.uniform(-5, 25, (10, 3))), data)
        cpath = self.constraint_file(tmp_path, [0.5, -0.25, 1.0])
        out_dir = tmp_path / "plot"
        assert main(["plotdata", "--constraint", str(cpath), "--data", str(data), "--out-dir", str(out_dir)]) == 0
        mesh = load_dataset(out_dir / "boundary.csv")
        assert mesh.n_points == 400
        assert np.allclose(mesh.points @ np.array([0.5, -0.25, 1.0]), 1.0)

    def test_four_features_points_only(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.ones((5, 4))), data)
        cpath = self.constraint_file(tmp_path, [0.1, 0.2, 0.3, 1.0])
        out_dir = tmp_path / "plot"
        assert main(["plotdata", "--constraint", str(cpath), "--data", str(data), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "points.csv").exists()
        assert not (out_dir / "boundary.csv").exists()
        assert "points.csv only" in capsys.readouterr().out

    def test_single_feature_single_point(self, tmp_path):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.array([[0.0], [4.0]])), data)
        cpath = self.constraint_file(tmp_path, [1.0])
        out_dir = tmp_path / "plot"
        assert main(["plotdata", "--constraint", str(cpath), "--data", str(data), "--out-dir", str(out_dir)]) == 0
        boundary = load_dataset(out_dir / "boundary.csv")
        assert boundary.n_points == 1
        assert boundary.points[0, 0] == 1.0

    @staticmethod
    def samples(coeffs):
        points = np.random.default_rng(2).uniform(-5, 25, (30, len(coeffs)))
        constraint = LinearConstraint(np.asarray(coeffs, dtype=float), 1.5, Direction.LOWER)
        return points, cli._boundary_samples(constraint, Dataset(points))

    @pytest.mark.parametrize(
        "coeffs, solved", [([1.0, 1.0], 1), ([1.0, 0.0, 1.0], 2), ([-1.0, 1.0, 1.0], 2)]
    )
    def test_a_tie_in_the_largest_coefficient_solves_for_the_last_tied_coordinate(self, coeffs, solved):
        points, samples = self.samples(coeffs)
        a = np.asarray(coeffs)
        free = [i for i in range(len(coeffs)) if i != solved]
        steps = 200 if len(coeffs) == 2 else 20
        grid = np.meshgrid(
            *(np.linspace(points[:, i].min(), points[:, i].max(), steps) for i in free), indexing="ij"
        )
        for i, axis in zip(free, grid):
            assert samples[:, i].tobytes() == axis.ravel().tobytes()
        assert np.allclose(samples @ a, 1.5)

    @pytest.mark.parametrize(
        "coeffs", [[0.5, 1.0], [-1.0, 1.0], [2.0, 1.0], [0.5, -0.25, 1.0], [3.0, -2.0, 1.0], [1.0]]
    )
    def test_samples_keep_the_bits_of_one_formula_per_feature_count(self, coeffs):
        points, samples = self.samples(coeffs)
        a, b = np.asarray(coeffs), 1.5
        lo, hi = points.min(axis=0), points.max(axis=0)
        if len(coeffs) == 1:
            expected = np.array([[b / a[0]]])
        elif len(coeffs) == 2 and abs(a[1]) >= abs(a[0]):
            x0 = np.linspace(lo[0], hi[0], 200)
            expected = np.column_stack([x0, (b - a[0] * x0) / a[1]])
        elif len(coeffs) == 2:
            x1 = np.linspace(lo[1], hi[1], 200)
            expected = np.column_stack([(b - a[1] * x1) / a[0], x1])
        else:
            dep = int(np.argmax(np.abs(a)))
            f0, f1 = [i for i in range(3) if i != dep]
            mesh0, mesh1 = np.meshgrid(
                np.linspace(lo[f0], hi[f0], 20), np.linspace(lo[f1], hi[f1], 20), indexing="ij"
            )
            expected = np.empty((400, 3))
            expected[:, f0] = mesh0.ravel()
            expected[:, f1] = mesh1.ravel()
            expected[:, dep] = (b - expected[:, f0] * a[f0] - expected[:, f1] * a[f1]) / a[dep]
        assert samples.shape == expected.shape
        assert samples.tobytes() == expected.tobytes()

    def test_feature_count_mismatch_is_input_error_writing_nothing(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(Dataset(np.ones((2, 3))), data)
        cpath = self.constraint_file(tmp_path, [0.5, 1.0])
        out_dir = tmp_path / "plot"
        assert main(["plotdata", "--constraint", str(cpath), "--data", str(data), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: constraint has 2 coefficients but the dataset has 3 features\n"
        assert not out_dir.exists()


class TestJsonFiles:
    # Each reader of a JSON file, with the command line that reaches it.
    READERS = {
        "spec": (load_region_spec, lambda path, data, out: ["gen", "--spec", path, "--n", "10", "--out", out]),
        "config": (
            lambda path: configs_from_mapping(read_json_object(path, "config")),
            lambda path, data, out: ["train", "--data", data, "--out-dir", out, "--config", path],
        ),
        "constraint": (load_constraint, lambda path, data, out: ["eval", "--constraint", path, "--data", data]),
    }

    @pytest.mark.parametrize("kind", list(READERS))
    def test_non_object_is_rejected_naming_the_path(self, kind, square_low_csv, tmp_path, capsys):
        path = tmp_path / "payload.json"
        loader, command = self.READERS[kind]
        out = tmp_path / "out"
        # A list, a list nested past the recursion limit, an int past Python's digit limit.
        for body in ("[1, 2]\n", "[" * 10**5, "1" * 4301):
            path.write_text(body, encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(str(path))):
                loader(path)
            assert main(command(str(path), str(square_low_csv), str(out))) == 2
            assert str(path) in capsys.readouterr().err
            assert not out.exists()

    # A valid payload of each kind, for a two-feature dataset.
    VALID = {
        "spec": {"box": [[0.0, 1.0], [0.0, 2.0]]},
        "config": {"gamma": 2.5, "epochs": 3},
        "constraint": {"coeffs": [0.5, 1.0], "bound": 2.0, "relation": "lower"},
    }

    # A leading UTF-8 byte-order mark, as some editors save one, is dropped,
    # as load_dataset drops it.
    @pytest.mark.parametrize("kind", list(READERS))
    def test_byte_order_mark_is_dropped(self, kind, square_low_csv, tmp_path):
        loader, command = self.READERS[kind]
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        body = json.dumps(self.VALID[kind]).encode("utf-8")
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        assert repr(loader(marked)) == repr(loader(plain))
        assert main(command(str(marked), str(square_low_csv), str(tmp_path / "out"))) == 0

    # A 401-digit integer in each kind of file, and the field it lands in.
    HUGE = {
        "spec": ({"box": [[0, 10**400]]}, "box[0][1]"),
        "config": ({"learning_rate": 10**400}, "learning_rate"),
        "constraint": ({"coeffs": [1], "bound": 10**400, "relation": "lower"}, "bound"),
    }

    @pytest.mark.parametrize("kind", list(READERS))
    def test_int_too_large_for_a_float_is_an_input_error_naming_the_field(
        self, kind, square_low_csv, tmp_path, capsys
    ):
        payload, field = self.HUGE[kind]
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        assert main(self.READERS[kind][1](str(path), str(square_low_csv), str(out))) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert f"{field} must be finite, got a number too large for a float" in line


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "eqlbounds", "gen", "--preset", "square-low", "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert proc.returncode == 0
        assert "wrote 100 points" in proc.stdout
