"""End-to-end CLI tests over a miniature experiment config.

Everything runs in-process through cli.main so exit codes and written
files are observable.  The config is deliberately tiny: these tests check
interfaces and reproducibility, not model quality.
"""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slimadapt
from slimadapt import cli, jsonio, search
from slimadapt.checkpoint import load_checkpoint, save_checkpoint
from slimadapt.datasets import ShiftSpec
from slimadapt.errors import NumericError
from slimadapt.search import SearchPlan
from slimadapt.slimnet import Architecture, SlimModel
from slimadapt.trainer import ConfidencePolicy, TrainerConfig, init_bank

CONFIG = {
    "seed": 3,
    "out_dir": "PLACEHOLDER",
    "dataset": {"kind": "MIXED", "magnitude": 0.8, "noise_std": 1.0,
                "K": 3, "d": 6, "n_s": 120, "n_t": 120},
    "architecture": {"input_dim": 6, "block_max_widths": [16, 24], "layers_per_block": 1},
    "trainer": {"mode": "slimda", "epochs": 2, "batch_size": 32, "model_batch_size": 3},
    "search": {"k": 3, "q": 4, "tolerance": 0.05, "n_random": 5},
}


@pytest.fixture
def workdir(tmp_path):
    out = tmp_path / "run"
    cfg = dict(copy.deepcopy(CONFIG), out_dir=str(out))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path, out


REQUIRED_KEYS = [key for key, s in cli.CONFIG_FIELDS.items() if s.default == "required"]
OWNER_DEFAULT_KEYS = [key for key, s in cli.CONFIG_FIELDS.items() if s.default == "owner"]
FLOAT_KEYS = [key for key, s in cli.CONFIG_FIELDS.items() if s.reader is float] + ["search.budgets"]


def run(args):
    return cli.main([str(a) for a in args])


class TestGenData:
    def test_writes_identical_bytes_twice(self, workdir):
        cfg_path, out = workdir
        assert run(["gen-data", "--config", cfg_path]) == 0
        first = (out / "dataset.json").read_bytes()
        assert run(["gen-data", "--config", cfg_path]) == 0
        assert (out / "dataset.json").read_bytes() == first

    def test_missing_field_names_it(self, workdir, tmp_path, capsys):
        cfg = dict(copy.deepcopy(CONFIG), out_dir=str(tmp_path / "x"))
        del cfg["dataset"]["K"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert run(["gen-data", "--config", p]) == 2
        assert "dataset.K" in capsys.readouterr().err

    def test_summary_counts_sum_to_sizes(self, workdir, capsys):
        cfg_path, _ = workdir
        run(["gen-data", "--config", cfg_path])
        out = capsys.readouterr().out
        counts = json.loads(out[out.index("["): out.index("]") + 1])
        assert sum(counts) == CONFIG["dataset"]["n_s"]

    def test_random_sample_count_below_one_is_refused_when_parsed(self, workdir, capsys):
        """`search.n_random` belongs to the plan, so every command refuses
        a count below one, not only a random search."""
        cfg_path, out = workdir
        doc = json.loads(cfg_path.read_text())
        doc["search"]["n_random"] = 0
        cfg_path.write_text(json.dumps(doc))
        assert run(["gen-data", "--config", cfg_path]) == 2
        assert "search.n_random" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_train_writes_checkpoint_and_metrics(self, workdir):
        cfg_path, out = workdir
        run(["gen-data", "--config", cfg_path])
        assert run(["train", "--config", cfg_path]) == 0
        assert (out / "checkpoint.json").exists()
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == cli.METRICS_HEADER
        assert len(lines) == 1 + CONFIG["trainer"]["epochs"]

    def test_zero_epochs_checkpoint_equals_initialization(self, workdir, tmp_path):
        cfg = dict(copy.deepcopy(CONFIG), out_dir=str(tmp_path / "z"),
                   trainer=dict(CONFIG["trainer"], epochs=0))
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(cfg))
        run(["gen-data", "--config", p])
        assert run(["train", "--config", p]) == 0
        bank, meta = load_checkpoint(tmp_path / "z" / "checkpoint.json")
        fresh = init_bank(bank.arch, cfg["seed"])
        for name in fresh.params:
            np.testing.assert_array_equal(bank[name].data, fresh[name].data)

    def test_rerun_same_seed_identical_metrics_modulo_timing(self, workdir):
        cfg_path, out = workdir
        run(["gen-data", "--config", cfg_path])
        run(["train", "--config", cfg_path])
        first = (out / "metrics.csv").read_text()
        run(["train", "--config", cfg_path])
        second = (out / "metrics.csv").read_text()
        strip = lambda text: ["," .join(r.split(",")[:-1]) for r in text.splitlines()]
        assert strip(first) == strip(second)

    def test_failed_train_keeps_previous_checkpoint(self, workdir, monkeypatch):
        cfg_path, out = workdir
        run(["gen-data", "--config", cfg_path])
        assert run(["train", "--config", cfg_path]) == 0
        checkpoint = (out / "checkpoint.json").read_bytes()
        metrics = (out / "metrics.csv").read_bytes()

        def diverge(*args, **kwargs):
            raise NumericError("non-finite values in loss")

        monkeypatch.setattr(cli, "train", diverge)
        assert run(["train", "--config", cfg_path]) == 3
        assert (out / "checkpoint.json").read_bytes() == checkpoint
        assert (out / "metrics.csv").read_bytes() == metrics
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json", "dataset.json",
                                                         "metrics.csv"]

    def test_train_parses_config_and_dataset_once_each(self, workdir, monkeypatch):
        cfg_path, _ = workdir
        run(["gen-data", "--config", cfg_path])
        loaded = []
        real_load = jsonio.load
        monkeypatch.setattr(jsonio, "load", lambda path: loaded.append(path) or real_load(path))
        assert run(["train", "--config", cfg_path]) == 0
        assert [Path(p).name for p in loaded] == ["config.json", "dataset.json"]

    @pytest.mark.parametrize("command,name", [("gen-data", "dataset.json"),
                                              ("train", "checkpoint.json")])
    def test_failed_write_keeps_the_previous_file(self, workdir, monkeypatch, command, name):
        """A write that fails halfway (disk full) leaves every output file as
        it was and no temporary file behind."""
        cfg_path, out = workdir
        run(["gen-data", "--config", cfg_path])
        run(["train", "--config", cfg_path])
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_write = Path.write_text

        def disk_full(path, text, *args, **kwargs):
            real_write(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_text", disk_full)
        assert run([command, "--config", cfg_path, "--seed", "9"]) == 4
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert name in before

    def test_mode_flag_changes_mode_column(self, workdir):
        cfg_path, out = workdir
        run(["gen-data", "--config", cfg_path])
        run(["train", "--config", cfg_path, "--mode", "baseline"])
        body = (out / "metrics.csv").read_text().splitlines()[1]
        assert body.split(",")[1] == "baseline"


class TestSearchEvalCorrelate:
    @pytest.fixture
    def trained(self, workdir):
        cfg_path, out = workdir
        run(["gen-data", "--config", cfg_path])
        run(["train", "--config", cfg_path])
        return cfg_path, out

    def test_greedy_report_shape_and_monotone_widths(self, trained):
        cfg_path, out = trained
        assert run(["search", "--config", cfg_path]) == 0
        lines = (out / "search.csv").read_text().strip().split("\n")
        assert lines[0] == "step,budget_ratio,widths,delta,flops"
        assert len(lines) == 1 + CONFIG["search"]["k"]
        prev = None
        for line in lines[1:]:
            widths = [int(w) for w in line.split(",")[2].split("|")]
            if prev is not None:
                assert all(b >= a for a, b in zip(prev, widths))
            prev = widths

    def test_random_report_rows_and_reveal_labels(self, trained):
        cfg_path, out = trained
        assert run(["search", "--config", cfg_path, "--strategy", "random",
                    "--reveal-labels"]) == 0
        lines = (out / "search.csv").read_text().strip().split("\n")
        assert lines[0].endswith(",accuracy")
        assert len(lines) == 1 + CONFIG["search"]["k"] * CONFIG["search"]["n_random"]
        for line in lines[1:]:
            acc = float(line.split(",")[-1])
            assert 0.0 <= acc <= 1.0

    def test_explicit_budget_flag(self, trained):
        cfg_path, out = trained
        assert run(["search", "--config", cfg_path, "--budgets", "0.5,1.0"]) == 0
        lines = (out / "search.csv").read_text().strip().split("\n")
        assert len(lines) == 3

    def test_eval_report(self, trained):
        cfg_path, out = trained
        assert run(["eval", "--config", cfg_path, "--widths", "16,24;2,3;8,12"]) == 0
        lines = (out / "eval.csv").read_text().strip().split("\n")
        assert lines[0] == "widths,flops_ratio,accuracy,delta_vs_full"
        assert len(lines) == 4
        full_row = lines[1].split(",")
        assert full_row[0] == "16|24"
        assert float(full_row[1]) == 1.0
        assert float(full_row[3]) == 0.0  # delta vs itself
        assert run(["eval", "--config", cfg_path]) == 0  # default widths
        assert len((out / "eval.csv").read_text().strip().split("\n")) == 3

    @pytest.mark.parametrize("widths, recalibrations", [
        (None, 2),                     # default list: full and smallest
        ("16,24;2,3;8,12", 3),         # full width listed
        ("2,3;8,12;2,3", 3),           # two distinct configs plus the full width
    ])
    def test_eval_recalibrates_once_per_distinct_config(self, trained, monkeypatch, widths,
                                                        recalibrations):
        cfg_path, _ = trained
        calls = []
        original = search.adabn_recalibrate
        monkeypatch.setattr(search, "adabn_recalibrate",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        argv = ["eval", "--config", cfg_path] + (["--widths", widths] if widths else [])
        assert run(argv) == 0
        assert len(calls) == recalibrations

    def test_eval_rejects_illegal_widths(self, trained):
        cfg_path, _ = trained
        assert run(["eval", "--config", cfg_path, "--widths", "1,24"]) == 2

    def test_correlate_outputs(self, trained):
        cfg_path, out = trained
        assert run(["correlate", "--config", cfg_path, "--n", "6"]) == 0
        scatter = (out / "correlate_scatter.csv").read_text().strip().split("\n")
        summary = (out / "correlate_summary.csv").read_text().strip().split("\n")
        assert scatter[0] == "budget_ratio,delta,accuracy"
        assert len(scatter) == 1 + CONFIG["search"]["k"] * 6
        assert summary[0] == "budget_ratio,pearson,spearman,n"
        for line in summary[1:]:
            pearson = float(line.split(",")[1])
            assert -1.0 <= pearson <= 1.0

    @pytest.mark.parametrize("argv, per_band", [
        (["correlate", "--n", "4"], 4),
        (["search", "--strategy", "random", "--reveal-labels"], CONFIG["search"]["n_random"]),
        (["search", "--reveal-labels"], CONFIG["search"]["q"]),  # greedy: q candidates a rung
    ])
    def test_labelled_scoring_recalibrates_once_per_config(self, trained, monkeypatch, argv,
                                                           per_band):
        """Each score and accuracy is read from its config's one AdaBN
        calibration, so no command runs a second forward through
        `SlimModel.predict`.  Random search and correlate recalibrate each
        distinct config a band sampled once; the greedy ladder calibrates
        each rung's candidates in one shared pass."""
        cfg_path, _ = trained
        calls, predicts, passes, sampled = [], [], [], []
        original, predict, shared = search.adabn_recalibrate, SlimModel.predict, search.adabn_pass
        sample = search.sample_config_at_budget
        monkeypatch.setattr(search, "adabn_recalibrate",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        monkeypatch.setattr(search, "sample_config_at_budget",
                            lambda *a, **k: sampled.append(sample(*a, **k)) or sampled[-1])
        monkeypatch.setattr(SlimModel, "predict",
                            lambda *a, **k: predicts.append(1) or predict(*a, **k))

        def counted_pass(*args, **kwargs):
            passes.append(0)
            for item in shared(*args, **kwargs):
                passes[-1] += 1
                yield item

        monkeypatch.setattr(search, "adabn_pass", counted_pass)
        assert run(argv + ["--config", cfg_path]) == 0
        k = CONFIG["search"]["k"]
        if argv[0] == "correlate" or "random" in argv:
            assert len(sampled) == k * per_band
            distinct = sum(len(set(sampled[i:i + per_band]))
                           for i in range(0, len(sampled), per_band))
            assert len(calls) == distinct + 1  # distinct configs per band plus the anchor
            assert passes == []
        else:  # the anchor, then one shared pass per rung yielding each candidate once
            assert len(calls) == 1
            assert passes == [per_band] * k
        assert predicts == []

    def test_correlate_samples_n_random_configs_without_n(self, trained):
        cfg_path, out = trained
        assert run(["correlate", "--config", cfg_path]) == 0
        n, k = CONFIG["search"]["n_random"], CONFIG["search"]["k"]
        scatter = (out / "correlate_scatter.csv").read_text().strip().split("\n")
        summary = (out / "correlate_summary.csv").read_text().strip().split("\n")
        assert len(scatter) == 1 + k * n
        assert len(summary) == 1 + k
        assert [line.split(",")[-1] for line in summary[1:]] == [str(n)] * k

    def test_correlate_rejects_n_below_one(self, trained):
        cfg_path, _ = trained
        assert run(["correlate", "--config", cfg_path, "--n", "0"]) == 2

    @pytest.mark.parametrize("command", ["search", "correlate", "eval"])
    def test_checkpoint_architecture_mismatch_is_config_error(self, trained, tmp_path, command):
        cfg_path, out = trained
        other = Architecture(input_dim=6, block_max_widths=(8, 8), layers_per_block=1,
                             class_count=3)
        save_checkpoint(out / "checkpoint.json", init_bank(other, 0), 0, 0, "slimda")
        assert run([command, "--config", cfg_path]) == 2


def run_process(args):
    """The CLI in its own process, as a user runs it: (exit code, stderr)."""
    src = str(Path(slimadapt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "slimadapt.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stderr


def assert_config_error(code, err):
    assert code == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestMalformedInput:
    def test_undecodable_config_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"seed": 3, "dataset": {"kind": ')
        assert_config_error(*run_process(["gen-data", "--config", p]))

    def test_mistyped_config_field_is_named(self, tmp_path):
        cfg = dict(copy.deepcopy(CONFIG), out_dir=str(tmp_path / "x"))
        cfg["trainer"]["epochs"] = "two"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        code, err = run_process(["gen-data", "--config", p])
        assert_config_error(code, err)
        assert "trainer.epochs" in err

    @pytest.fixture
    def initialised(self, workdir):
        """A generated dataset and an untrained checkpoint of the config's
        architecture."""
        cfg_path, out = workdir
        assert run(["gen-data", "--config", cfg_path]) == 0
        arch = cli.parse_experiment(json.loads(cfg_path.read_text())).arch
        save_checkpoint(out / "checkpoint.json", init_bank(arch, 0), 0, 0, "slimda")
        return cfg_path, out, arch

    @pytest.mark.parametrize("name,command", [("checkpoint.json", "search"),
                                              ("dataset.json", "train")])
    def test_truncated_file_is_config_error(self, initialised, name, command):
        cfg_path, out, _ = initialised
        text = (out / name).read_text()
        (out / name).write_text(text[: len(text) // 2])
        assert_config_error(*run_process([command, "--config", cfg_path]))

    @pytest.mark.parametrize("argv,flag", [(["search", "--budgets", "0.5,x"], "--budgets"),
                                           (["eval", "--widths", "8,a"], "--widths")])
    def test_non_numeric_flag_value_is_config_error(self, initialised, argv, flag):
        cfg_path, _, _ = initialised
        code, err = run_process(argv + ["--config", cfg_path])
        assert_config_error(code, err)
        assert flag in err

    def test_non_numeric_checkpoint_array_is_config_error(self, initialised):
        cfg_path, out, _ = initialised
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["params"]["c.a.b"] = ["x", "x", "x"]
        (out / "checkpoint.json").write_text(json.dumps(doc))
        code, err = run_process(["search", "--config", cfg_path])
        assert_config_error(code, err)
        assert "'c.a.b'" in err

    @pytest.mark.parametrize("name,row", [("xs", [0.5, "x", 0.5, 0.5, 0.5, 0.5]),  # non-numeric
                                          ("xt", [0.5, 0.5]),                      # ragged
                                          ("ys", "x")])
    def test_malformed_dataset_array_is_config_error(self, initialised, name, row):
        cfg_path, out, _ = initialised
        doc = json.loads((out / "dataset.json").read_text())
        doc[name][1] = row
        (out / "dataset.json").write_text(json.dumps(doc))
        code, err = run_process(["train", "--config", cfg_path])
        assert_config_error(code, err)
        assert f"field {name}" in err

    @pytest.mark.parametrize("command,name,labels", [
        ("train", "ys", lambda ys: [1.7] + ys[1:]),
        ("train", "ys", lambda ys: ys[:-1] + [0.5]),
        ("train", "ys", lambda ys: [-1] + ys[1:]),
        ("train", "ys", lambda ys: ys[:-1] + [3]),
        ("eval", "yt_hidden", lambda ys: [7] * len(ys)),
        ("eval", "yt_hidden", lambda ys: ys[:-1] + [2.5]),
        ("eval", "yt_hidden", lambda ys: [-2] + ys[1:])],
        ids=["ys-float", "ys-half", "ys-negative", "ys-K", "yt-all-7", "yt-float", "yt-negative"])
    def test_bad_dataset_labels_are_named(self, initialised, capsys, command, name, labels):
        """Labels are integers in [0, K) (K=3 here): a float is not
        truncated and an out-of-range label is not scored as a miss."""
        cfg_path, out, _ = initialised
        doc = json.loads((out / "dataset.json").read_text())
        doc[name] = labels(doc[name])
        (out / "dataset.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([command, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("name", ["ys", "xt"])
    def test_dataset_array_of_wrong_shape_is_config_error(self, initialised, name):
        cfg_path, out, _ = initialised
        doc = json.loads((out / "dataset.json").read_text())
        doc[name] = doc[name][:-10] if name == "ys" else [row[:-1] for row in doc[name]]
        (out / "dataset.json").write_text(json.dumps(doc))
        code, err = run_process(["train", "--config", cfg_path])
        assert_config_error(code, err)
        assert "dataset" in err

    @pytest.mark.parametrize("n_random", [0, -3])
    def test_random_strategy_without_samples_is_config_error(self, initialised, n_random):
        cfg_path, _, _ = initialised
        doc = json.loads(cfg_path.read_text())
        doc["search"]["n_random"] = n_random
        cfg_path.write_text(json.dumps(doc))
        code, err = run_process(["search", "--strategy", "random", "--config", cfg_path])
        assert_config_error(code, err)
        assert "search.n_random" in err

    @pytest.mark.parametrize("command", ["search", "eval"])
    def test_unknown_checkpoint_mode_is_config_error(self, initialised, capsys, command):
        """The checkpoint's mode picks the deployment head; a mode the
        trainer does not know is refused, not read as the task heads."""
        cfg_path, out, _ = initialised
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["mode"] = "no-such-mode"
        (out / "checkpoint.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([command, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field mode") and "'no-such-mode'" in err

    @pytest.mark.parametrize("tolerance", [-0.1, 1.5])
    def test_search_tolerance_outside_unit_interval_is_refused(self, initialised, capsys,
                                                              tolerance):
        """A band half-width must lie in [0, 1): a negative one grows no
        candidate into any band, and one of 1 or more lets the slimmest
        config pass every rung."""
        cfg_path, _, _ = initialised
        doc = json.loads(cfg_path.read_text())
        doc["search"]["tolerance"] = tolerance
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["search", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: search tolerance") and str(tolerance) in err

    def test_non_finite_budget_flag_is_config_error(self, initialised, capsys):
        cfg_path, _, _ = initialised
        capsys.readouterr()
        assert run(["search", "--budgets", "0.5,nan", "--config", cfg_path]) == 2
        assert "budget ratios" in capsys.readouterr().err

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_config_number_is_named(self, workdir, capsys, key):
        """Every number key of the schema, and each item of `search.budgets`."""
        cfg_path, _ = workdir
        doc = json.loads(cfg_path.read_text())
        section, _, name = key.rpartition(".")
        nan = float("nan")
        (doc[section] if section else doc)[name] = [0.5, nan] if key == "search.budgets" else nan
        cfg_path.write_text(json.dumps(doc))  # the stdlib reader accepts its NaN token
        capsys.readouterr()
        assert run(["gen-data", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == f"error: field {key}: nan is not finite\n"

    @pytest.mark.parametrize("command", ["gen-data", "train", "search", "correlate", "eval"])
    def test_input_dim_other_than_dataset_d_is_named(self, workdir, capsys, command):
        cfg_path, _ = workdir
        doc = json.loads(cfg_path.read_text())
        doc["architecture"]["input_dim"] = 8
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([command, "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith("error: field architecture.input_dim")

    def test_negative_config_seed_is_named(self, workdir, capsys):
        """numpy's generators refuse a negative seed; the config reader
        refuses it first, as a config error."""
        cfg_path, _ = workdir
        doc = json.loads(cfg_path.read_text())
        doc["seed"] = -1
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["gen-data", "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith("error: field seed: must be >= 0")

    def test_negative_seed_flag_is_named(self, workdir, capsys):
        cfg_path, _ = workdir
        capsys.readouterr()
        assert run(["gen-data", "--config", cfg_path, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --seed: must be >= 0")

    @pytest.mark.parametrize("section,name,value", [("architecture", "block_max_widths", "816"),
                                                    ("search", "budgets", "1")])
    def test_string_for_a_list_field_is_named(self, workdir, capsys, section, name, value):
        """A string is not read one character at a time ("816" as the
        widths (8, 1, 6))."""
        cfg_path, _ = workdir
        doc = json.loads(cfg_path.read_text())
        doc[section][name] = value
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["gen-data", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field {section}.{name}: expected a list")

    @pytest.mark.parametrize("section,name,value,message", [
        ("trainer", "epochs", 1.5, "error: field trainer.epochs: expected an integer, got float"),
        (None, "seed", True, "error: field seed: expected an integer, got bool"),
        ("dataset", "K", "4", "error: field dataset.K: expected an integer, got str"),
        ("trainer", "tau", "0.5", "error: field trainer.tau: expected a number, got str"),
        ("trainer", "epochs", -3, "error: epochs must be >= 0, got -3"),
        ("trainer", "batch_size", 0, "error: batch_size must be >= 2, got 0"),
        ("trainer", "batch_size", 1, "error: batch_size must be >= 2, got 1"),
        ("trainer", "batch_size", -4, "error: batch_size must be >= 2, got -4"),
        ("trainer", "batch_size", CONFIG["dataset"]["n_t"] + 1,
         "error: field trainer.batch_size: must be at most min(dataset.n_s, dataset.n_t) = "
         "120, got 121"),
        ("trainer", "model_batch_size", -1, "error: model_batch_size must be >= 2, got -1"),
        ("dataset", "K", 0, "error: field dataset.K: must be >= 2, got 0\n"),
        ("architecture", "block_max_widths", [0, 6],
         "error: block_max_widths must all be >= 1, got (0, 6)"),
    ], ids=["epochs-float", "seed-bool", "K-string", "tau-string", "epochs-negative",
            "batch_size-zero", "batch_size-one", "batch_size-negative", "batch_size-above-n_t",
            "model_batch_size-negative", "K-zero", "block_max_widths-zero"])
    def test_mistyped_or_negative_number_is_named(self, workdir, capsys, section, name, value,
                                                  message):
        """No config number is truncated or coerced: 1.5 is not 1 epoch,
        true is not seed 1.  A number outside its range (a batch size no
        epoch can draw) is refused at `gen-data`, before anything is
        written."""
        cfg_path, out = workdir
        doc = json.loads(cfg_path.read_text())
        (doc[section] if section else doc)[name] = value
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["gen-data", "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_input_dim_defaults_to_dataset_d(self):
        doc = copy.deepcopy(CONFIG)
        del doc["architecture"]["input_dim"]
        assert cli.parse_experiment(doc).arch == cli.parse_experiment(CONFIG).arch

    def test_missing_config_file_is_io_error(self, tmp_path):
        code, err = run_process(["gen-data", "--config", tmp_path / "absent.json"])
        assert code == 4 and err.startswith("io error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["search", "eval"])
    def test_checkpoint_with_linear_biases_is_refused(self, initialised, capsys, command):
        """Linear layers carry no bias; a checkpoint that still holds the
        f.b*.l*.b entries is a parameter-name mismatch that lists them."""
        cfg_path, out, arch = initialised
        doc = json.loads((out / "checkpoint.json").read_text())
        biases = [f"f.b{i}.l0.b" for i in range(arch.n_blocks)]
        for i, name in enumerate(biases):
            doc["params"][name] = [0.0] * arch.block_max_widths[i]
        (out / "checkpoint.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([command, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "parameter name mismatch" in err
        assert all(repr(name) in err for name in biases)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,name", [("search", "f.b0.l0.w"), ("eval", "f.b0.l0.w"),
                                              ("search", "c.a.w"), ("eval", "c.a.w")],
                             ids=["search", "eval", "search-head", "eval-head"])
    def test_overflowing_checkpoint_is_numeric_error(self, initialised, capsys, command, name):
        """A finite weight of 1e308 overflows the first layer's activations
        or the deployment head's logits; the eval path stops with a
        NumericError (exit 3)."""
        cfg_path, out, _ = initialised
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["params"][name][0][0] = 1e308
        (out / "checkpoint.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([command, "--config", cfg_path]) == 3
        assert capsys.readouterr().err.startswith("numeric error: non-finite")

    def test_nan_checkpoint_parameter_is_numeric_error(self, initialised, capsys):
        """A JSON NaN in one parameter fails the load with an error that
        names the parameter (exit 3)."""
        cfg_path, out, _ = initialised
        doc = json.loads((out / "checkpoint.json").read_text())
        doc["params"]["f.b1.l0.bn_g"][2] = float("nan")
        (out / "checkpoint.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["search", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: non-finite") and "f.b1.l0.bn_g" in err

    def test_nan_in_target_data_fails_train_and_keeps_the_checkpoint(self, initialised):
        cfg_path, out, _ = initialised
        checkpoint = (out / "checkpoint.json").read_bytes()
        doc = json.loads((out / "dataset.json").read_text())
        doc["xt"][5][0] = float("nan")
        (out / "dataset.json").write_text(json.dumps(doc))
        assert run(["train", "--config", cfg_path]) == 3
        assert (out / "checkpoint.json").read_bytes() == checkpoint
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json", "dataset.json"]


class TestDefaults:
    """A field left out of the config takes its owner's default: the
    dataclass the CLI builds from it, not a value the CLI restates."""

    REQUIRED = {"seed": 3, "out_dir": "run",
                "dataset": {"kind": "MIXED", "magnitude": 0.8, "K": 3, "d": 6,
                            "n_s": 120, "n_t": 120},
                "architecture": {"block_max_widths": [16, 24]},
                "trainer": {"epochs": 2, "batch_size": 32}}

    def test_required_fields_alone_give_the_library_defaults(self):
        exp = cli.parse_experiment(copy.deepcopy(self.REQUIRED))
        assert exp.trainer == TrainerConfig(epochs=2, batch_size=32, seed=3)
        assert exp.trainer.policy == ConfidencePolicy()
        assert exp.plan == SearchPlan(seed=3)
        assert exp.plan.budgets(exp.arch) == SearchPlan(seed=3).budgets(exp.arch)
        assert exp.dataset_fields["spec"] == ShiftSpec("MIXED", 0.8)
        assert exp.arch == Architecture(input_dim=6, block_max_widths=(16, 24), class_count=3)

    # A legal value other than the owner's default, for each key that
    # takes its owner's default when left out.
    OTHER_VALUES = {"dataset.noise_std": 2.0, "architecture.layers_per_block": 2,
                    "trainer.mode": "baseline", "trainer.model_batch_size": 4,
                    "trainer.w_ent": 0.2, "trainer.tau": 0.25, "trainer.lam": 0.25,
                    "trainer.confidence_s": 1.0, "trainer.confidence_mode": "general",
                    "search.k": 4, "search.q": 7, "search.tolerance": 0.05,
                    "search.budgets": (0.5, 1.0), "search.n_random": 7}

    def test_the_required_keys_are_the_tables(self):
        sections = {top: value for top, value in self.REQUIRED.items() if isinstance(value, dict)}
        keys = [top for top in self.REQUIRED if top not in sections]
        keys += [f"{top}.{key}" for top, names in sections.items() for key in names]
        assert sorted(keys) == sorted(REQUIRED_KEYS)

    @pytest.mark.parametrize("key", OWNER_DEFAULT_KEYS)
    def test_a_left_out_field_reads_its_owners_default(self, monkeypatch, key):
        owner, name = cli.CONFIG_FIELDS[key].owner, cli.CONFIG_FIELDS[key].attr
        monkeypatch.setattr(owner, name, self.OTHER_VALUES[key])
        exp = cli.parse_experiment(copy.deepcopy(self.REQUIRED))
        built = {ShiftSpec: exp.dataset_fields["spec"], Architecture: exp.arch,
                 ConfidencePolicy: exp.trainer.policy, TrainerConfig: exp.trainer,
                 SearchPlan: exp.plan}
        assert getattr(built[owner], name) == self.OTHER_VALUES[key]

    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_a_left_out_required_field_is_named(self, tmp_path, capsys, key):
        doc = copy.deepcopy(self.REQUIRED)
        section, _, name = key.rpartition(".")
        del (doc[section] if section else doc)[name]
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["gen-data", "--config", p]) == 2
        assert capsys.readouterr().err == f"error: missing field {key}\n"


class TestConfigSchema:
    """`cli.CONFIG_FIELDS` is the one declared schema: every key it lists
    is read strictly, and every key or section it does not list is
    refused, by every command, before anything is read or written."""

    @staticmethod
    def config(tmp_path, key, value):
        """The test config, writing into tmp_path/run, with the dotted
        `key` set to `value`; the path of its file."""
        doc = dict(copy.deepcopy(CONFIG), out_dir=str(tmp_path / "run"))
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("value", [None, True, {}], ids=["null", "true", "object"])
    @pytest.mark.parametrize("key", list(cli.CONFIG_FIELDS))
    def test_a_value_of_the_wrong_json_type_is_named(self, tmp_path, capsys, key, value):
        """No key reads null, a bool or an object: `"trainer.mode": null`
        is not the mode "None", and `"out_dir": true` is not a path."""
        capsys.readouterr()
        assert run(["gen-data", "--config", self.config(tmp_path, key, value)]) == 2
        assert capsys.readouterr().err.startswith(f"error: field {key}: expected ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "search", "correlate", "eval"])
    @pytest.mark.parametrize("key,value,near", [
        ("dataset.noise_sdt", 1.0, "dataset.noise_std"),
        ("architecture.layer_per_block", 2, "architecture.layers_per_block"),
        ("trainer.tua", 0.25, "trainer.tau"),
        ("search.n_radnom", 7, "search.n_random"),
        ("serach", {"k": 3}, "search"),
        ("ouput_dir", "elsewhere", "out_dir"),
    ], ids=["dataset", "architecture", "trainer", "search", "section", "top-level"])
    def test_a_misspelt_key_is_named_by_every_command(self, tmp_path, capsys, command, key, value,
                                                      near):
        capsys.readouterr()
        assert run([command, "--config", self.config(tmp_path, key, value)]) == 2
        assert capsys.readouterr().err == f"error: unknown field {key} (did you mean {near}?)\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [("trainer.learning_rate", 0.1), ("search.seed", 4),
                                           ("dataset.dataset", {})],
                             ids=["unknown", "top-level-key-in-a-section", "section-in-a-section"])
    def test_a_key_the_table_does_not_list_is_named(self, tmp_path, capsys, key, value):
        capsys.readouterr()
        assert run(["gen-data", "--config", self.config(tmp_path, key, value)]) == 2
        assert capsys.readouterr().err.startswith(f"error: unknown field {key}")

    def test_a_dotted_key_at_the_top_level_is_not_read_as_a_section_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**CONFIG, "out_dir": str(tmp_path / "run"), "trainer.tau": 0.25}))
        capsys.readouterr()
        assert run(["gen-data", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("error: unknown field trainer.tau")

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("budgets,message", [
        ([0.9, 0.5], "budget ratios must be strictly increasing"),
        ([0.5, 1.5], "budget ratios must lie in ("),
    ], ids=["decreasing", "above-full"])
    def test_a_bad_budget_ladder_is_refused_when_parsed(self, tmp_path, capsys, command, budgets,
                                                        message):
        """Every command refuses a ladder `search` would refuse, before a
        dataset is written or a bank trained."""
        capsys.readouterr()
        assert run([command, "--config", self.config(tmp_path, "search.budgets", budgets)]) == 2
        assert capsys.readouterr().err.startswith(f"error: field search.budgets: {message}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "search"])
    def test_a_k_no_ladder_can_hold_is_refused_when_parsed(self, tmp_path, capsys, command):
        """The (16, 24) bank has 526 FLOPs levels; every command refuses a
        default ladder of more rungs before anything is written."""
        capsys.readouterr()
        assert run([command, "--config", self.config(tmp_path, "search.k", 527)]) == 2
        assert capsys.readouterr().err.startswith("error: search.k: need k <= 526, ")
        assert not (tmp_path / "run").exists()

    def test_every_config_key_is_documented_once_in_the_readme(self):
        """The README's config reference lists the table's keys in its
        order, with the attribute each sets and its default."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        reference = readme[readme.index("### Config reference"):]
        table = next(chunk for chunk in reference.split("\n\n") if chunk.startswith("| Key |"))
        rows = [line.split(" | ") for line in table.splitlines()[2:]]
        assert [row[0].strip("| `") for row in rows] == list(cli.CONFIG_FIELDS)
        for (key, _type, sets, default, *_), s in zip(rows, cli.CONFIG_FIELDS.values()):
            assert sets == f"`{s.owner.__name__}.{s.attr}`", key
            if s.default == "owner":
                assert default == f"`{json.dumps(getattr(s.owner, s.attr))}`", key
            else:
                assert default == ("required" if s.default == "required" else f"`{s.default}`"), key


class TestConfigFuzz:
    """Every config key, set to each kind of bad value, through `gen-data`:
    the command either runs (and so do `train` and `search` after it) or
    exits 2 with one error line that names the key or the attribute it
    sets.  Huge values are left out: refusing them needs a size policy."""

    TINY = {"seed": 3, "out_dir": "PLACEHOLDER",
            "dataset": {"kind": "MIXED", "magnitude": 0.8, "noise_std": 1.0,
                        "K": 3, "d": 6, "n_s": 60, "n_t": 60},
            "architecture": {"input_dim": 6, "block_max_widths": [4, 6], "layers_per_block": 1},
            "trainer": {"mode": "slimda", "epochs": 1, "batch_size": 32, "model_batch_size": 3},
            "search": {"k": 3, "q": 4, "tolerance": 0.05, "n_random": 5}}
    LISTS = {"architecture.block_max_widths": [4, 6], "search.budgets": [0.5, 1.0]}
    NUMBERS = {"nan": float("nan"), "inf": float("inf"), "minus-one": -1, "zero": 0}
    CASES = ["wrong-type", *NUMBERS, "left-out", "misspelt"]

    def config(self, tmp_path, key, case):
        """TINY writing into tmp_path/run, with `key` bent by `case`; a
        list key takes a bad number as its first item."""
        doc = dict(copy.deepcopy(self.TINY), out_dir=str(tmp_path / "run"))
        section, _, name = key.rpartition(".")
        table = doc[section] if section else doc
        reader = cli.CONFIG_FIELDS[key].reader
        if case == "left-out":
            table.pop(name, None)
        elif case == "misspelt":
            table[name + name[-1]] = table.pop(name, 1)
        elif case == "wrong-type":
            table[name] = 1 if reader in (str, Path) else "1"
        elif key in self.LISTS:
            table[name] = [self.NUMBERS[case], *self.LISTS[key][1:]]
        else:
            table[name] = self.NUMBERS[case]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("key", list(cli.CONFIG_FIELDS))
    def test_a_bad_value_runs_or_is_refused_by_name(self, tmp_path, monkeypatch, capsys, key,
                                                     case):
        monkeypatch.chdir(tmp_path)  # a relative out_dir lands here
        path = self.config(tmp_path, key, case)
        capsys.readouterr()
        code = run(["gen-data", "--config", path])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            attr = cli.CONFIG_FIELDS[key].attr
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert key in err or re.search(rf"\b{attr}\b", err), err
            assert not (tmp_path / "run").exists()
            return
        for command in ("train", "search"):
            assert run([command, "--config", path]) in (0, 2), capsys.readouterr().err


# One value per key of the config's dataset section that differs from CONFIG's.
DATASET_CHANGES = {"dataset.kind": "ROTATION", "dataset.magnitude": 0.5, "dataset.noise_std": 1.5,
                   "dataset.K": 5, "dataset.d": 5, "dataset.n_s": 100, "dataset.n_t": 100}


class TestDatasetMatchesConfig:
    """A dataset file made for another config is refused by every command
    that reads it, with the first differing `dataset.*` key named; it is
    not trained on (a K = 5 config on a K = 3 file) nor failed later by
    its labels or its input shape."""

    def test_every_dataset_key_is_changed(self):
        assert list(DATASET_CHANGES) == [k for k in cli.CONFIG_FIELDS if k.startswith("dataset.")]

    @pytest.mark.parametrize("command", ["train", "search", "correlate", "eval"])
    @pytest.mark.parametrize("key", DATASET_CHANGES)
    def test_a_dataset_of_another_config_is_named(self, workdir, capsys, key, command):
        cfg_path, out = workdir
        assert run(["gen-data", "--config", cfg_path]) == 0
        doc = json.loads(cfg_path.read_text())
        doc["dataset"][key.partition(".")[2]] = DATASET_CHANGES[key]
        del doc["architecture"]["input_dim"]  # it follows dataset.d
        cfg_path.write_text(json.dumps(doc))
        # A checkpoint of the changed config's architecture, so only the dataset differs.
        arch = cli.parse_experiment(doc).arch
        save_checkpoint(out / "checkpoint.json", init_bank(arch, 0), 0, 0, "slimda")
        checkpoint = (out / "checkpoint.json").read_bytes()
        capsys.readouterr()
        assert run([command, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset.json does not match the experiment config: "
                              f"{key} is ") and err.count("\n") == 1, err
        assert (out / "checkpoint.json").read_bytes() == checkpoint

    def test_the_first_differing_key_is_named(self, workdir, capsys):
        cfg_path, out = workdir
        assert run(["gen-data", "--config", cfg_path]) == 0
        doc = json.loads(cfg_path.read_text())
        doc["dataset"].update(K=5, n_t=100)
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["train", "--config", cfg_path]) == 2
        assert "dataset.K is 3 in the file, 5 in the config" in capsys.readouterr().err

    def test_a_seed_override_reads_the_same_dataset(self, workdir):
        """The dataset's seed is not part of the check: `--seed` retrains
        on the generated data."""
        cfg_path, _ = workdir
        assert run(["gen-data", "--config", cfg_path]) == 0
        assert run(["train", "--config", cfg_path, "--seed", "9"]) == 0


def _set(path, value):
    """A mutation that sets the item at `path` (keys and indices) of a document."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


DATASET_MUTATIONS = {
    "xt-nan": _set(("xt", 1, 0), float("nan")),
    "xt-inf": _set(("xt", 1, 0), float("inf")),
    "xs-minus-inf": _set(("xs", 0, 2), float("-inf")),
    "xt-ragged-row": lambda doc: doc["xt"][1].pop(),
    "wrong-d": lambda doc: doc.update({n: [row[:-1] for row in doc[n]] for n in ("xs", "xt")}),
    "xt-empty": _set(("xt",), []),
    "xt-one-row": lambda doc: doc.update(xt=doc["xt"][:1], yt_hidden=doc["yt_hidden"][:1]),
    "yt-short": lambda doc: doc["yt_hidden"].pop(),
    "spec-bad-kind": _set(("spec", "kind"), "SPIN"),
    "spec-list": lambda doc: doc.update(spec=list(doc["spec"].values())),
    "spec-string-magnitude": _set(("spec", "magnitude"), "0.8"),
    "K-string": _set(("K",), "3"),
    "K-missing": lambda doc: doc.pop("K"),
    "xs-string-cell": _set(("xs", 0, 0), "1.0"),
    "xt-bool-cell": _set(("xt", 0, 0), True),
    "ys-string": _set(("ys",), "012"),
    "xt-not-a-list": _set(("xt",), {"rows": 60}),
    "truncated": None,
}

CHECKPOINT_MUTATIONS = {
    "param-nan": _set(("params", "c.a.w", 0, 0), float("nan")),
    "param-inf": _set(("params", "f.b0.l0.w", 1, 1), float("-inf")),
    "param-ragged-row": lambda doc: doc["params"]["f.b0.l0.w"][1].pop(),
    "param-string-cell": _set(("params", "c.t.w", 0, 0), "0.5"),
    "param-bool-cell": _set(("params", "c.s.b", 0), True),
    "param-string": _set(("params", "c.a.b"), "x"),
    "param-scalar": _set(("params", "f.b1.l0.bn_g"), 1.0),
    "param-missing": lambda doc: doc["params"].pop("c.t.b"),
    "params-list": _set(("params",), []),
    "widths-string": _set(("architecture", "block_max_widths"), "46"),
    "widths-bool": _set(("architecture", "block_max_widths", 0), True),
    "architecture-missing": lambda doc: doc.pop("architecture"),
    "class-count-float": _set(("architecture", "class_count"), 3.0),
    "mode-list": _set(("mode",), ["slimda"]),
    "step-string": _set(("step",), "1"),
    "truncated": None,
}


class TestFileFuzz:
    """Each kind of damage to the two files the CLI reads, after a tiny
    `gen-data` and `train`: `search` and `eval` (and `train`, for the
    dataset) either run or stop with exit 2 or 3 and one `error:` or
    `numeric error:` line.  None may end in a traceback (an exception out
    of `cli.main`, exit 1 in a process)."""

    @pytest.fixture(scope="class")
    def trained_files(self, tmp_path_factory):
        """The TINY config's dataset and checkpoint bytes after one epoch."""
        tmp = tmp_path_factory.mktemp("fuzz")
        cfg_path = tmp / "config.json"
        cfg_path.write_text(json.dumps(dict(TestConfigFuzz.TINY, out_dir=str(tmp / "run"))))
        for command in ("gen-data", "train"):
            assert run([command, "--config", cfg_path]) == 0
        return {name: (tmp / "run" / name).read_text() for name in ("dataset.json",
                                                                     "checkpoint.json")}

    def damaged_run(self, tmp_path, trained_files, name, mutate):
        """A run directory whose file `name` is edited by `mutate`, or cut
        in half when `mutate` is None; returns its config's path."""
        out = tmp_path / "run"
        out.mkdir()
        for filename, text in trained_files.items():
            if filename == name and mutate is None:
                text = text[: len(text) // 2]
            elif filename == name:
                doc = json.loads(text)
                mutate(doc)
                text = json.dumps(doc)
            (out / filename).write_text(text)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(TestConfigFuzz.TINY, out_dir=str(out))))
        return cfg_path

    def assert_contract(self, capsys, commands, cfg_path):
        for command in commands:
            capsys.readouterr()
            code = run([command, "--config", cfg_path])
            err = capsys.readouterr().err
            assert code in (0, 2, 3), err
            if code:
                prefix = "error: " if code == 2 else "numeric error: "
                assert err.startswith(prefix) and err.count("\n") == 1, err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mutation", DATASET_MUTATIONS)
    def test_a_damaged_dataset(self, tmp_path, capsys, trained_files, mutation):
        cfg_path = self.damaged_run(tmp_path, trained_files, "dataset.json",
                                    DATASET_MUTATIONS[mutation])
        self.assert_contract(capsys, ("search", "eval", "train"), cfg_path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mutation", CHECKPOINT_MUTATIONS)
    def test_a_damaged_checkpoint(self, tmp_path, capsys, trained_files, mutation):
        cfg_path = self.damaged_run(tmp_path, trained_files, "checkpoint.json",
                                    CHECKPOINT_MUTATIONS[mutation])
        self.assert_contract(capsys, ("search", "eval"), cfg_path)


class TestGreedyLadderSkips:
    def test_unreachable_rungs_are_named_and_left_out(self, workdir, capsys):
        """With two layers per block at tolerance 0.02, two rungs of this
        untrained bank's ladder lie where no candidate grows from the
        previous winner: `search` names them on stderr, writes the reached
        rungs under their ladder index, and exits 0."""
        cfg_path, out = workdir
        doc = json.loads(cfg_path.read_text())
        doc["architecture"]["layers_per_block"] = 2
        doc["search"].update(k=6, tolerance=0.02)
        cfg_path.write_text(json.dumps(doc))
        assert run(["gen-data", "--config", cfg_path]) == 0
        arch = cli.parse_experiment(doc).arch
        save_checkpoint(out / "checkpoint.json", init_bank(arch, 0), 0, 0, "slimda")
        capsys.readouterr()
        assert run(["search", "--config", cfg_path]) == 0
        err = capsys.readouterr().err
        assert "skipped budget ratio 0.3526" in err and "skipped budget ratio 0.6763" in err
        rows = (out / "search.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["0", "0.190751"], ["2", "0.514451"],
                                                    ["4", "0.838150"], ["5", "1.000000"]]


# Two blocks [16, 32] at tolerance 0.05: every config sampled in the
# full-FLOPs band lies within one channel of full width, and on this seed
# all of them reach the same target accuracy.
DEGENERATE_CONFIG = {
    "seed": 17,
    "dataset": {"kind": "MIXED", "magnitude": 1.0, "noise_std": 1.2,
                "K": 3, "d": 8, "n_s": 200, "n_t": 200},
    "architecture": {"input_dim": 8, "block_max_widths": [16, 32], "layers_per_block": 1},
    "trainer": {"mode": "slimda", "epochs": 3, "batch_size": 50, "model_batch_size": 4},
    "search": {"k": 3, "q": 5, "tolerance": 0.05},
}


class TestCorrelateDegenerateBand:
    def test_zero_variance_band_is_reported_undefined(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(copy.deepcopy(DEGENERATE_CONFIG), out_dir=str(out))))
        n, bands = 5, DEGENERATE_CONFIG["search"]["k"]
        assert run(["gen-data", "--config", cfg_path]) == 0
        assert run(["train", "--config", cfg_path]) == 0
        assert run(["correlate", "--config", cfg_path, "--n", n]) == 0

        scatter = (out / "correlate_scatter.csv").read_text().strip().split("\n")
        assert scatter[0] == "budget_ratio,delta,accuracy"
        assert len(scatter) == 1 + bands * n
        top_accs = {line.split(",")[2] for line in scatter[1:] if line.startswith("1.000000,")}
        assert len(top_accs) == 1  # the band really has zero variance

        summary = (out / "correlate_summary.csv").read_text().strip().split("\n")
        assert summary[0] == "budget_ratio,pearson,spearman,n"
        assert len(summary) == 1 + bands
        assert summary[-1] == f"1.000000,,,{n}"
        for line in summary[1:-1]:
            _, pearson, spearman, count = line.split(",")
            assert -1.0 <= float(pearson) <= 1.0
            assert -1.0 <= float(spearman) <= 1.0
            assert count == str(n)


class TestReproducibility:
    def test_pipeline_outputs_byte_identical_across_runs(self, workdir, tmp_path):
        cfg_path, out = workdir

        def full_run():
            run(["gen-data", "--config", cfg_path])
            run(["train", "--config", cfg_path])
            run(["search", "--config", cfg_path, "--reveal-labels"])
            run(["eval", "--config", cfg_path])
            files = {}
            for name in ("dataset.json", "checkpoint.json", "search.csv", "eval.csv"):
                files[name] = (out / name).read_bytes()
            # metrics.csv contains wall time; compare with the timing column masked
            rows = (out / "metrics.csv").read_text().splitlines()
            files["metrics.csv"] = "\n".join(",".join(r.split(",")[:-1]) for r in rows)
            return files

        a = full_run()
        b = full_run()
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"
