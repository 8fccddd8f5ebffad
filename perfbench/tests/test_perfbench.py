"""Tests of the benchmark itself, at sizes that run in seconds."""

import dataclasses
import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest

import slimadapt
from slimadapt import cli, search, trainer
from slimadapt.slimnet import Architecture

from perfbench import checks
from perfbench.bench import execute, expected_metric_names
from perfbench.layers import per_layer
from perfbench.tracing import FUNCTIONS, Tracer, self_times
from perfbench.workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

DIAGNOSTICS = {
    "train": ("step_ms.slimda.p50", "step_ms.baseline.p50", "step_ms.inplaced.p50",
              "acc.smallest", "fail_ratio"),
    "search": ("score_ms.p50", "ladder_s", "fail_ratio"),
    "cli_deep": ("correlate_s", "labelled_search_s", "fail_ratio"),
}

# Spans each workload must record in its traced run.
EXPECTED_SPANS = {
    "train": ("autodiff.backward", "autodiff.matmul", "autodiff.batchnorm",
              "autodiff.leading_slice", "autodiff.sgd_step", "losses.domain_confusion_targets",
              "trainer.distillation_loss", "trainer.sample_width_configs",
              "slimnet.features.train", "op.batch.slimda", "op.step.inplaced"),
    "search": ("slimnet.adabn_recalibrate", "slimnet.predict", "slimnet.features.eval",
               "search.sample_config_at_budget", "search.inherited_greedy_search",
               "search.discrepancy_between", "search.anchor_discrepancy", "autodiff.matmul",
               "autodiff.batchnorm", "autodiff.leading_slice"),
    "cli_deep": ("checkpoint.load_checkpoint", "datasets.load_dataset", "jsonio.dump_exact",
                 "search.config_accuracy", "search.anchor_discrepancy",
                 "search.sample_config_at_budget", "search.inherited_greedy_search",
                 "slimnet.adabn_recalibrate", "slimnet.predict", "op.command.correlate",
                 "op.command.search"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    done = {(w, t): execute(w, 0, 0.0, t, ROOT, out, TINY)
            for w in WORKLOADS for t in (False, True)}
    return out, done


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_named_metric_with_unit(runs, workload, trace):
    _, done = runs
    result, record = done[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == expected_metric_names(trace)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"]) and metric["unit"]
    for name in DIAGNOSTICS[workload]:
        assert record["diagnostics"][name]["unit"] and record["diagnostics"][name]["n"] >= 1
    manifest = record["manifest"]
    for key in ("git_commit", "nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                "seed"):
        assert key in manifest
    assert all("n" in m for m in record["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_expected_span_fires(runs, workload):
    out, _ = runs
    path = out / "results" / f"{workload}-seed0-trace1.spans.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    fired = {doc["names"][i] for i in doc["name_ids"]}
    assert set(EXPECTED_SPANS[workload]) <= fired


def test_benchmark_json_names_every_emitted_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in doc["end_to_end"]] == expected_metric_names(False)
    assert [m["name"] for m in doc["per_layer"]] == expected_metric_names(True)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_tracer_restores_every_original():
    before = {(m, a): getattr(getattr(slimadapt, m), a, None) for m, attrs in FUNCTIONS.items()
              for a in attrs}
    init = slimadapt.autodiff.Tensor.__init__
    with Tracer().installed():
        assert trainer.sgd_step is not before[("autodiff", "sgd_step")]
        assert search.adabn_recalibrate is not before[("slimnet", "adabn_recalibrate")]
    for (m, a), fn in before.items():
        assert getattr(getattr(slimadapt, m), a, None) is fn
    assert trainer.sgd_step is before[("autodiff", "sgd_step")]
    assert search.adabn_recalibrate is before[("slimnet", "adabn_recalibrate")]
    assert slimadapt.autodiff.Tensor.__init__ is init


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds siblings a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds d [6, 7] and e [6.5, 8], which overlap each other.
    starts = [0.0, 1.0, 5.0, 2.0, 6.0, 6.5]
    ends = [10.0, 4.0, 9.0, 3.0, 7.0, 8.0]
    parents = [-1, 0, 0, 1, 2, 2]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.5])


def test_per_layer_ratios_on_synthetic_spans():
    tr = Tracer()
    for _ in range(2):
        with tr.operation("score"):
            with tr.span("slimnet.adabn_recalibrate"):
                for _ in range(3):
                    with tr.span("autodiff.matmul"):
                        pass
    with tr.operation("command.correlate"):
        with tr.span("search.anchor_probs"), tr.span("slimnet.adabn_recalibrate"):
            pass
        for _ in range(2):
            with tr.span("search.sample_config_at_budget"):
                pass
            for _ in range(2):
                with tr.span("slimnet.adabn_recalibrate"):
                    pass
    got = per_layer(tr)
    assert got["slimnet.adabn_recalibrate.matmuls_per_call"][0] == 6 / 7
    assert got["autodiff.matmul.calls_per_score"][0] == 3.0
    # (2 score recalibrations + 4 correlate ones) / (2 scores + 2 sampled configs)
    assert got["search.recalibrations_per_config"][0] == 1.5
    assert got["autodiff.backward.calls_per_step.slimda"][0] == 0.0


def _tiny_ladder():
    arch = Architecture(16, TINY.blocks, class_count=4)
    ds = slimadapt.make_dataset(seed=0, **TINY.task)
    bank = trainer.init_bank(arch, 0)
    plan = search.SearchPlan(seed=0)
    anchor = search.recalibrated(bank, arch.full_config(), ds.xt).predict(ds.xt, head="a")

    def rescore(config):
        return search.anchor_discrepancy(bank, config, ds.xt, anchor_probs=anchor).delta

    return arch, plan, search.inherited_greedy_search(bank, plan, ds.xt), rescore


def test_ladder_check_catches_corrupted_winners():
    arch, plan, steps, rescore = _tiny_ladder()
    assert checks.check_ladder(steps, arch, plan, rescore) == []
    perturbed = [dataclasses.replace(steps[0], delta=steps[0].delta + 1e-9)] + steps[1:]
    assert checks.check_ladder(perturbed, arch, plan, rescore)
    out_of_band = [dataclasses.replace(steps[-1], config=arch.smallest_config(),
                                       saturated=False)]
    assert checks.check_ladder(steps[:-1] + out_of_band, arch, plan, rescore)
    negative = [dataclasses.replace(s, delta=-1.0) for s in steps]
    assert checks.check_ladder(negative, arch, plan, lambda c: -1.0)


def test_corrupted_ladder_is_a_failed_op(tmp_path, monkeypatch):
    original = search.inherited_greedy_search

    def corrupted(*args, **kwargs):
        steps = original(*args, **kwargs)
        return [dataclasses.replace(steps[0], delta=steps[0].delta * (1 + 1e-6))] + steps[1:]

    monkeypatch.setattr(search, "inherited_greedy_search", corrupted)
    result, record = execute("search", 0, 0.0, False, ROOT, tmp_path, TINY)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert record["errors"][0]["kind"] == "ladder"


def test_refused_command_is_a_failed_op_not_a_wrong_output(tmp_path, monkeypatch):
    def refuse(args):
        raise slimadapt.UsageError("correlation undefined: zero variance")

    monkeypatch.setattr(cli, "cmd_correlate", refuse)
    result, record = execute("cli_deep", 0, 0.0, False, ROOT, tmp_path, TINY)
    assert result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.5
    assert record["errors"][0]["kind"] == "command.correlate"
    assert "exit code 2" in record["errors"][0]["raised"][0]


def test_non_finite_loss_is_a_failed_op(tmp_path, monkeypatch):
    original = trainer.train_step_baseline

    def corrupted(*args, **kwargs):
        return dict(original(*args, **kwargs), loss_dd=float("nan"))

    monkeypatch.setattr(trainer, "train_step_baseline", corrupted)
    result, _ = execute("train", 0, 0.0, False, ROOT, tmp_path, TINY)
    assert not result["correct"] and result["failed"] == TINY.acc_after


def _write(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def test_cli_output_checks(tmp_path):
    scatter = [f"0.5,0.{i}1,0.7" for i in range(3)]
    _write(tmp_path / "correlate_scatter.csv", checks.SCATTER_HEADER, scatter)
    _write(tmp_path / "correlate_summary.csv", checks.SUMMARY_HEADER, ["0.5,-0.5,-0.4,3"])
    assert checks.check_correlate(tmp_path, 1, 3) == []
    assert checks.check_correlate(tmp_path, 1, 4)            # a scatter row missing
    _write(tmp_path / "correlate_summary.csv", checks.SUMMARY_HEADER, ["0.5,,,3"])
    assert checks.check_correlate(tmp_path, 1, 3) == []      # an undefined band is allowed
    _write(tmp_path / "correlate_scatter.csv", checks.SCATTER_HEADER,
           scatter[:2] + ["0.5,-0.1,0.7"])
    assert checks.check_correlate(tmp_path, 1, 3)            # negative delta

    rows = ["0,0.5,2|4,0.1,100.0,0.6", "1,1.0,3|4,0.0,150.0,0.7"]
    _write(tmp_path / "search.csv", checks.SEARCH_HEADER, rows)
    assert checks.check_search(tmp_path, 2) == []
    assert checks.check_search(tmp_path, 3)                  # a rung missing
    _write(tmp_path / "search.csv", checks.SEARCH_HEADER, rows[:1] + ["1,1.0,1|4,0.0,150.0,0.7"])
    assert checks.check_search(tmp_path, 2)                  # a block shrank
    _write(tmp_path / "search.csv", checks.SEARCH_HEADER.replace(",accuracy", ""), rows)
    assert checks.check_search(tmp_path, 2)                  # accuracy column missing


def test_parameter_and_score_checks():
    assert checks.check_params({"w": np.ones(3)}) == []
    assert checks.check_params({"w": np.array([1.0, np.inf])})
    assert checks.check_score(0.0) == []
    assert checks.check_score(float("nan")) and checks.check_score(-1e-3)
