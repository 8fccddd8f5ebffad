"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The heavy shared fixture trains the three modes on the default synthetic
task over five seeds, one worker process per core, each worker at one
BLAS thread (55 s with two workers against 105 s one run after another,
on a 2-core x86-64 box); everything is seeded, so every number here is
reproducible bit for bit.
Criteria 1 to 5 do not use it and take about a second together.

One deliberate measurement note: the pipeline-reproducibility check
(criterion 11) masks the wall-time column of metrics.csv before comparing
bytes, because that column reports real elapsed time.  Every other byte
of every CSV/JSON output must be identical across runs.
"""

import copy
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from slimadapt import autodiff as ad
from slimadapt import cli
from slimadapt.datasets import DEFAULT_TASK, ShiftSpec, make_dataset
from slimadapt.losses import domain_confusion_targets
from slimadapt.search import (
    SearchPlan,
    config_accuracy,
    correlate,
    inherited_greedy_search,
    monotonicity_probe,
    random_bands,
    sample_configs_spanning,
)
from slimadapt.seeding import named_rng
from slimadapt.slimnet import Architecture, ParamStore, WidthConfig
from slimadapt.trainer import (
    ConfidencePolicy,
    TrainerConfig,
    confidence,
    deploy_head,
    ensemble,
    init_bank,
    sharpen,
    train,
    train_step,
)

ARCH = Architecture(input_dim=16, block_max_widths=(32, 64, 128, 256),
                    layers_per_block=1, class_count=4)
SEEDS = (0, 1, 2, 3, 4)
MODES = ("slimda", "baseline", "inplaced")


def report(num, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def task_data():
    out = {}
    for seed in SEEDS:
        ds = make_dataset(seed=seed, **DEFAULT_TASK)
        out[seed] = (ds, ds.target_labels(evaluation=True))
    return out


ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")}


def _train_run(seed, mode):
    """One (seed, mode) run: the trained bank's arrays, its full/smallest
    target accuracy, and the seconds from bank init to both accuracies."""
    ds = make_dataset(seed=seed, **DEFAULT_TASK)
    yt = ds.target_labels(evaluation=True)
    t0 = time.perf_counter()
    bank = init_bank(ARCH, seed)
    cfg = TrainerConfig(mode=mode, epochs=20, batch_size=128, model_batch_size=10, seed=seed)
    train(bank, ds, cfg)
    head = deploy_head(mode)
    acc_full = config_accuracy(bank, ARCH.full_config(), ds.xt, yt, head)
    acc_small = config_accuracy(bank, ARCH.smallest_config(), ds.xt, yt, head)
    return bank.state_arrays(), acc_full, acc_small, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_runs():
    """Per (seed, mode): trained bank, full/smallest target accuracy, seconds.

    The 15 independent runs train in a pool of spawned worker processes,
    one per available core, and every worker runs at one BLAS thread, so
    each run gives the bytes of a serial run at one BLAS thread whatever
    this process uses.  The workers take that setting from the environment
    they are spawned with.  With OpenBLAS's default of a thread per core in
    every worker, the workers' spinning BLAS threads fight over the cores:
    the pooled runs took over four minutes on a 2-core box, against 105 s
    serially.  Spawning also avoids forking after OpenBLAS has started its
    threads, which can hang.
    """
    keys = [(seed, mode) for seed in SEEDS for mode in MODES]
    workers = min(len(keys), len(os.sched_getaffinity(0)))
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD), \
            ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(_train_run, *zip(*keys)))
    return {key: {"bank": ParamStore.from_arrays(ARCH, arrays), "acc_full": acc_full,
                  "acc_small": acc_small, "seconds": seconds}
            for key, (arrays, acc_full, acc_small, seconds) in zip(keys, results)}


# -- criterion 1: gradient correctness ------------------------------------


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, d)) / math.sqrt(d)
        gamma = rng.uniform(0.5, 1.5, size=d)
        beta = rng.normal(size=d) * 0.1
        target = np.eye(d)[rng.integers(0, d, size=n)]
        ops = rng.integers(0, 5, size=int(rng.integers(1, 6)))

        def build(xt, wt, gt, bt):
            h = xt @ wt
            for op in ops:
                if op == 0:
                    h = ad.relu(h)
                elif op == 1:
                    h = ad.batchnorm(h, gt, bt)
                elif op == 2:
                    h = ad.softmax(h, axis=1) + h
                elif op == 3:
                    h = h @ wt
                else:
                    h = h * 0.5 + xt
            return ad.cross_entropy(ad.log(ad.softmax(h, axis=1)), target)

        arrays = [x, w, gamma, beta]
        tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
        grads = ad.backward(build(*tensors))

        def f(*arrs):
            return build(*[ad.Tensor(a) for a in arrs]).item()

        h_step = 1e-5
        for arr, tensor in zip(arrays, tensors):
            got = grads.get(tensor, np.zeros_like(arr))
            flat = arr.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h_step
                hi = f(*arrays)
                flat[i] = orig - h_step
                lo = f(*arrays)
                flat[i] = orig
                fd[i] = (hi - lo) / (2 * h_step)
            rel = np.abs(got.reshape(-1) - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-4 and elapsed < 10,
           f"100 graphs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: slicing oracle -------------------------------------------


def _standalone_logits(store: ParamStore, widths, x):
    """Independent plain-numpy forward over weights copied out of the store."""
    arch = store.arch
    h = np.asarray(x, dtype=np.float64)
    prev = arch.input_dim
    for i, w in enumerate(widths):
        for j in range(arch.layers_per_block):
            in_w = prev if j == 0 else w
            base = f"f.b{i}.l{j}"
            weight = store[f"{base}.w"].data[:in_w, :w].copy()
            gamma = store[f"{base}.bn_g"].data[:w].copy()
            beta = store[f"{base}.bn_b"].data[:w].copy()
            h = h @ weight
            h = gamma * (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5) + beta
            h = np.maximum(h, 0.0)
        prev = w
    return h @ store["c.s.w"].data[: widths[-1]].copy() + store["c.s.b"].data.copy()


def test_criterion_02_slicing_oracle():
    t0 = time.perf_counter()
    store = ParamStore(ARCH, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        widths = tuple(int(rng.integers(lo, hi + 1))
                       for lo, hi in zip(ARCH.min_widths(), ARCH.block_max_widths))
        x = rng.normal(size=(8, ARCH.input_dim))
        model = store.slice(ARCH.make_config(widths))
        got = model.head_logits(model.features(x, mode="train").data, "s")
        want = _standalone_logits(store, widths, x)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-12 and elapsed < 10,
           f"50 configs, worst abs diff {worst:.2e}, {elapsed:.1f}s")


# -- criterion 3: loss unit values ------------------------------------------


def test_criterion_03_loss_unit_values():
    k = 12
    arch = Architecture(input_dim=4, block_max_widths=(8,), layers_per_block=1, class_count=k)
    store = ParamStore(arch, np.random.default_rng(0))
    model = store.slice(arch.full_config())
    for h in ("s", "t", "a"):
        store.params[f"c.{h}.w"] = ad.Tensor(np.zeros((8, k)), requires_grad=True)
        store.params[f"c.{h}.b"] = ad.Tensor(np.zeros(k), requires_grad=True)
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(6, 4))
    ys = np.full(6, 3)
    xt = rng.normal(size=(6, 4))

    def routed():
        return [model.routed_probs(model.features(x)) for x in (xs, xt)]

    uniform = domain_confusion_targets(*routed(), ys).parts
    task_uniform = uniform.task_s + uniform.task_t
    disc_uniform = uniform.domain_disc

    bias = np.zeros(k)
    bias[3] = 40.0
    for h in ("s", "t"):
        store.params[f"c.{h}.b"] = ad.Tensor(bias.copy(), requires_grad=True)
    dom_min = domain_confusion_targets(*routed(), ys).parts.dom_confusion

    e1 = abs(task_uniform - 2 * math.log(k))
    e2 = abs(disc_uniform - 2 * math.log(2))
    e4 = abs(dom_min - 2 * math.log(2))
    report(3, max(e1, e2, e4) < 1e-9,
           f"task-uniform err {e1:.1e}, disc-uniform err {e2:.1e}, confusion-min err {e4:.1e}")


# -- criterion 4: ensemble/sharpening/confidence mechanics ------------------


def test_criterion_04_distillation_mechanics():
    rng = np.random.default_rng(11)
    g = rng.dirichlet(np.ones(6), size=1000)
    identity_err = float(np.abs(sharpen(g, 1.0) - g).max())

    ent = lambda p: -(p * np.log(np.clip(p, 1e-300, 1.0))).sum(axis=1)
    sharpened = sharpen(g, 0.5)
    entropy_ok = bool(np.all(ent(sharpened) <= ent(g) + 1e-12))

    arch = Architecture(input_dim=5, block_max_widths=(8, 8), layers_per_block=1, class_count=3)
    bank = ParamStore(arch, np.random.default_rng(3))
    models = [bank.slice(c) for c in (arch.full_config(), arch.make_config((4, 6)))]
    xt = rng.normal(size=(12, 5))
    parts = [m.probs(m.features(xt, mode="train").data, "task") for m in models]
    mix = ensemble(parts, np.array([1.0, 1.0]))
    pair_err = float(np.abs(mix - (parts[0] + parts[1]) / 2).max())

    full = arch.full_config().flops
    r_grid = np.linspace(0.02, 0.98, 97)
    r_grid = r_grid[np.abs(r_grid - 0.5) > 1e-9]
    fake = [WidthConfig(widths=(1,), flops=r * full) for r in r_grid]
    hard = confidence(fake, ConfidencePolicy(mode="hard"), arch)
    general = confidence(fake, ConfidencePolicy(mode="general", s=1e-6), arch)
    conf_diff = float(np.abs(hard - general).max())

    ok = identity_err < 1e-12 and entropy_ok and pair_err < 1e-12 and conf_diff < 1e-3
    report(4, ok, f"sharpen-id {identity_err:.1e}, entropy non-increase {entropy_ok}, "
                  f"pair-mean {pair_err:.1e}, hard-vs-general {conf_diff:.1e}")


# -- criterion 5: gradient routing ------------------------------------------


def test_criterion_05_gradient_routing(observe_step):
    arch = Architecture(input_dim=6, block_max_widths=(16, 24), layers_per_block=1, class_count=3)
    cross_clean = True
    worst_mix = 0.0
    for step_seed in range(20):
        rng = np.random.default_rng(step_seed)
        bank = init_bank(arch, step_seed)
        xs = rng.normal(size=(10, 6))
        ys = rng.integers(0, 3, size=10)
        xt = rng.normal(size=(10, 6))
        cfg = TrainerConfig(model_batch_size=4, seed=step_seed)
        step = observe_step(train_step, bank, ad.SgdState(lr=0.01), xs, ys, xt, cfg,
                            named_rng(step_seed, "model"))
        dc_cls, dc_ext, seed_cls, seed_ext = (
            step.gradients(losses) for losses in (
                [t.classifier_loss for t in step.dc], [t.extractor_loss for t in step.dc],
                [d.cls for d in step.distill], [d.ext for d in step.distill]))
        for grads in seed_cls + seed_ext:
            cross_clean &= not any(n.startswith(("c.s", "c.t")) for n in grads)
        for grads in dc_cls + dc_ext:
            cross_clean &= not any(n.startswith("c.a") for n in grads)
        conf = confidence(step.configs, cfg.policy, arch)
        w_dc = conf / conf.sum()
        anti = 1 - conf
        w_seed = anti / anti.sum() if anti.sum() > 0 else np.zeros_like(conf)
        for name, got in step.applied_to("f.").items():
            want = sum(w * g.get(name, 0.0) for w, g in zip(w_dc, dc_ext))
            want = want + sum(w * g.get(name, 0.0) for w, g in zip(w_seed, seed_ext))
            worst_mix = max(worst_mix, float(np.abs(got - want).max()))
    report(5, cross_clean and worst_mix < 1e-10,
           f"cross-gradients structurally zero: {cross_clean}, "
           f"mixture reconstruction err {worst_mix:.2e}")


# -- criteria 6 and 10: adaptation efficacy and graceful degradation --------


def test_criterion_06_adaptation_efficacy(trained_runs):
    wins_base = sum(trained_runs[(s, "slimda")]["acc_small"]
                    > trained_runs[(s, "baseline")]["acc_small"] for s in SEEDS)
    wins_inpl = sum(trained_runs[(s, "slimda")]["acc_small"]
                    > trained_runs[(s, "inplaced")]["acc_small"] for s in SEEDS)
    slowest = max(r["seconds"] for r in trained_runs.values())
    detail = ", ".join(
        f"s{s}: {trained_runs[(s, 'slimda')]['acc_small']:.3f}/"
        f"{trained_runs[(s, 'baseline')]['acc_small']:.3f}/"
        f"{trained_runs[(s, 'inplaced')]['acc_small']:.3f}" for s in SEEDS)
    report(6, wins_base >= 4 and wins_inpl >= 3 and slowest < 300,
           f"smallest-width wins vs baseline {wins_base}/5, vs inplaced {wins_inpl}/5, "
           f"slowest run {slowest:.0f}s (slimda/baseline/inplaced: {detail})")


def test_criterion_10_graceful_degradation(trained_runs):
    drop_slim = np.mean([trained_runs[(s, "slimda")]["acc_full"]
                         - trained_runs[(s, "slimda")]["acc_small"] for s in SEEDS])
    drop_base = np.mean([trained_runs[(s, "baseline")]["acc_full"]
                         - trained_runs[(s, "baseline")]["acc_small"] for s in SEEDS])
    report(10, drop_slim <= drop_base,
           f"mean full-to-smallest drop {drop_slim:.4f} (distilled) vs {drop_base:.4f} (baseline)")


# -- criteria 7 and 9: score correlation and the capacity assumption --------


def test_criterion_07_score_anticorrelation(trained_runs, task_data):
    hits, details = 0, []
    for seed in SEEDS:
        ds, yt = task_data[seed]
        bank = trained_runs[(seed, "slimda")]["bank"]
        t0 = time.perf_counter()
        configs = sample_configs_spanning(named_rng(seed, "probe"), ARCH, 100)
        rep = correlate(bank, configs, ds.xt, yt)
        elapsed = time.perf_counter() - t0
        hits += rep.pearson <= -0.5 and elapsed < 180
        details.append(f"s{seed}: {rep.pearson:.3f} ({elapsed:.0f}s)")
    report(7, hits >= 4, f"pearson <= -0.5 on {hits}/5 seeds [{', '.join(details)}]")


def test_criterion_09_capacity_accuracy_assumption(trained_runs, task_data):
    values = []
    for seed in SEEDS:
        ds, yt = task_data[seed]
        bank = trained_runs[(seed, "slimda")]["bank"]
        values.append(monotonicity_probe(bank, ds.xt, yt, 100, named_rng(seed, "mono")))
    report(9, all(v > 0 for v in values),
           "spearman(flops, acc) per seed: " + ", ".join(f"{v:.3f}" for v in values))


# -- criterion 8: search quality ---------------------------------------------


def test_criterion_08a_greedy_vs_random(trained_runs, task_data):
    seed = 0
    ds, yt = task_data[seed]
    bank = trained_runs[(seed, "slimda")]["bank"]
    plan = SearchPlan(k=6, q=20, seed=seed, tolerance=0.02)
    steps = inherited_greedy_search(bank, plan, ds.xt)
    bands = SearchPlan(budget_ratios=tuple(s.budget_ratio for s in steps), tolerance=0.02)
    sampled = random_bands(bank, bands, 100, ds.xt, named_rng(seed, "search"))
    wins, details = 0, []
    for step, (_, scores) in zip(steps, sampled):
        greedy_acc = config_accuracy(bank, step.config, ds.xt, yt, "a")
        median = float(np.median([config_accuracy(bank, s.config, ds.xt, yt, "a")
                                  for s in scores]))
        wins += greedy_acc >= median
        details.append(f"{step.budget_ratio:.3f}: {greedy_acc:.3f} vs {median:.3f}")
    report(8, wins >= 5, f"greedy >= random median on {wins}/6 budgets [{'; '.join(details)}]")


def test_criterion_08b_greedy_vs_exhaustive_tiny():
    tiny = Architecture(input_dim=8, block_max_widths=(12, 12), layers_per_block=1,
                        class_count=3)
    ds = make_dataset(spec=ShiftSpec("MIXED", 1.0, noise_std=1.0), K=3, d=8,
                      n_s=800, n_t=800, seed=0)
    yt = ds.target_labels(evaluation=True)
    bank = init_bank(tiny, 0)
    train(bank, ds, TrainerConfig(mode="slimda", epochs=32, batch_size=64,
                                  model_batch_size=10, seed=0))

    acc = {}
    for a in range(tiny.min_widths()[0], tiny.block_max_widths[0] + 1):
        for b in range(tiny.min_widths()[1], tiny.block_max_widths[1] + 1):
            cfg = tiny.make_config((a, b))
            acc[cfg] = config_accuracy(bank, cfg, ds.xt, yt, "a")

    # channel steps on this architecture are coarse relative to +-2%, so the
    # ladder uses a band tolerance matched to its granularity
    plan = SearchPlan(k=6, q=20, seed=0, tolerance=0.06)
    steps = inherited_greedy_search(bank, plan, ds.xt)
    full = tiny.full_config().flops
    ok_all, details = True, []
    for step in steps:
        band = [c for c in acc
                if abs(c.flops - step.budget_ratio * full) <= 0.06 * step.budget_ratio * full]
        best = max(acc[c] for c in band)
        got = acc[step.config]
        ok_all &= got >= best - 0.02
        details.append(f"{step.budget_ratio:.2f}: {got:.3f}/{best:.3f}")
    report(8, ok_all, f"greedy within 2 points of enumerated best at every budget "
                      f"[{'; '.join(details)}] ({len(acc)} configs enumerated)")


# -- criterion 11: end-to-end reproducibility -------------------------------


PIPELINE_CONFIG = {
    "seed": 17,
    "dataset": {"kind": "MIXED", "magnitude": 1.0, "noise_std": 1.2,
                "K": 3, "d": 8, "n_s": 200, "n_t": 200},
    "architecture": {"input_dim": 8, "block_max_widths": [16, 32], "layers_per_block": 1},
    "trainer": {"mode": "slimda", "epochs": 3, "batch_size": 50, "model_batch_size": 4},
    "search": {"k": 3, "q": 5, "tolerance": 0.05, "n_random": 8},
}


def test_criterion_11_pipeline_reproducibility(tmp_path):
    out = tmp_path / "run"
    cfg = dict(copy.deepcopy(PIPELINE_CONFIG), out_dir=str(out))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def pipeline():
        for args in (["gen-data"], ["train"], ["search", "--reveal-labels"],
                     ["correlate", "--n", "5"], ["eval"]):
            assert cli.main(args + ["--config", str(cfg_path)]) == 0
        blobs = {}
        for name in ("dataset.json", "checkpoint.json", "search.csv",
                     "correlate_scatter.csv", "correlate_summary.csv", "eval.csv"):
            blobs[name] = (out / name).read_bytes()
        rows = (out / "metrics.csv").read_text().splitlines()
        blobs["metrics.csv(sans wall time)"] = "\n".join(
            ",".join(r.split(",")[:-1]) for r in rows)
        return blobs

    first = pipeline()
    second = pipeline()
    mismatched = [k for k in first if first[k] != second[k]]
    report(11, not mismatched,
           f"byte-identical outputs across two runs "
           f"({len(first)} files; mismatches: {mismatched or 'none'})")
