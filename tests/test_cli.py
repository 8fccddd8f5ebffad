"""End-to-end CLI tests over a miniature experiment config.

Everything runs in-process through cli.main so exit codes and written
files are observable.  The config is deliberately tiny: these tests check
interfaces and reproducibility, not model quality.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slimadapt
from slimadapt import cli, jsonio, search
from slimadapt.checkpoint import load_checkpoint, save_checkpoint
from slimadapt.errors import NumericError
from slimadapt.slimnet import Architecture, SlimModel
from slimadapt.trainer import init_bank

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

    @pytest.mark.parametrize("section,name", [("trainer", "tau"), ("dataset", "noise_std")])
    def test_non_finite_config_number_is_named(self, workdir, capsys, section, name):
        cfg_path, _ = workdir
        doc = json.loads(cfg_path.read_text())
        doc[section][name] = float("nan")
        cfg_path.write_text(json.dumps(doc))  # the stdlib reader accepts its NaN token
        capsys.readouterr()
        assert run(["gen-data", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field {section}.{name}") and "not finite" in err

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
    ], ids=["epochs-float", "seed-bool", "K-string", "tau-string", "epochs-negative",
            "batch_size-zero", "batch_size-one", "batch_size-negative", "batch_size-above-n_t"])
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
