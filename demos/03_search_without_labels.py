"""Picking architectures under FLOPs budgets without target labels.

After bank training, every sub-model can be scored by how far its
deployment-head predictions sit from the full-width anchor's (both
AdaBN-recalibrated on the target set).  Larger models are statistically
more accurate, so a small anchor discrepancy predicts high accuracy --
checkable here because the synthetic task keeps held-out target labels.

The inherited greedy ladder then walks from the slimmest model upward,
widening the previous winner into each budget band and keeping the
lowest-discrepancy candidate.

Run:  python3 demos/03_search_without_labels.py        (~10 seconds)
"""

import numpy as np

from slimadapt import (
    Architecture,
    SearchPlan,
    TrainerConfig,
    correlate,
    inherited_greedy_search,
    init_bank,
    make_dataset,
    named_rng,
    random_bands,
    train,
)
from slimadapt.datasets import DEFAULT_TASK
from slimadapt.search import sample_configs_spanning

ARCH = Architecture(input_dim=16, block_max_widths=(32, 64, 128, 256),
                    layers_per_block=1, class_count=4)
SEED = 0

ds = make_dataset(seed=SEED, **DEFAULT_TASK)
yt = ds.target_labels(evaluation=True)
bank = init_bank(ARCH, SEED)
print("training the bank (distillation mode)...")
train(bank, ds, TrainerConfig(mode="slimda", epochs=20, batch_size=128,
                              model_batch_size=10, seed=SEED))

print("\ndoes capacity buy accuracy, and does the score track it?")
rep = correlate(bank, sample_configs_spanning(named_rng(SEED, "probe"), ARCH, 100),
                ds.xt, yt)
print(f"  over 100 sampled configs: pearson(score, acc) = {rep.pearson:.3f}, "
      f"spearman(score, acc) = {rep.spearman:.3f}, "
      f"spearman(flops, acc) = {rep.capacity_spearman:.3f}")

print("\ninherited greedy ladder (geometric budgets), with hindsight accuracy:")
plan = SearchPlan(k=6, q=20, seed=SEED, tolerance=0.02)
# target_y only reads each scored config's accuracy; selection stays label-free.
steps = inherited_greedy_search(bank, plan, ds.xt, target_y=yt)
# Random search over the same budgets: 30 sampled configs per band.
bands = SearchPlan(budget_ratios=tuple(s.budget_ratio for s in steps), tolerance=0.02, seed=SEED,
                   n_random=30)
sampled = random_bands(bank, bands, ds.xt, target_y=yt)
print(f"{'budget':>7} {'winner widths':>18} {'score':>8} {'acc':>7} {'random median':>14}")
for step, (_, scores) in zip(steps, sampled):
    med = float(np.median([s.accuracy for s in scores]))
    print(f"{step.budget_ratio:>7.3f} {step.config!s:>18} {step.delta:>8.4f} {step.accuracy:>7.3f} "
          f"{med:>14.3f}")
