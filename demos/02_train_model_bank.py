"""Training one weight-sharing bank at every width, three ways.

All three update rules sample the same model batches from the same bank
layout; they differ only in where gradients come from:

  baseline   every sampled model trains with the domain-confusion losses,
             gradients plainly averaged over the batch
  inplaced   the largest model trains normally and its (detached) task
             prediction supervises the rest
  slimda     the confident (large) models' predictions are ensembled,
             sharpened, and distilled into every model's deployment head,
             while extractor gradients are mixed by model confidence

The interesting column is the smallest model: plain averaging leaves it
far behind the full-width model, distillation almost closes the gap.

Run:  python3 demos/02_train_model_bank.py        (~20 seconds)
"""

import numpy as np

from slimadapt import (
    Architecture,
    TrainerConfig,
    init_bank,
    make_dataset,
    train,
)
from slimadapt.datasets import DEFAULT_TASK

ARCH = Architecture(input_dim=16, block_max_widths=(32, 64, 128, 256),
                    layers_per_block=1, class_count=4)
SEED = 0

ds = make_dataset(seed=SEED, **DEFAULT_TASK)
yt = ds.target_labels(evaluation=True)
print(f"task: K={ds.K}, d={ds.d}, {ds.n_s} source / {ds.n_t} target samples, "
      f"{ds.spec.kind} shift {ds.spec.magnitude}")
print(f"bank: blocks {ARCH.block_max_widths}, smallest sub-model {ARCH.min_widths()} "
      f"(flops ratio {ARCH.smallest_config().flops / ARCH.full_config().flops:.4f})\n")

results = {}
for mode in ("baseline", "inplaced", "slimda"):
    bank = init_bank(ARCH, SEED)
    cfg = TrainerConfig(mode=mode, epochs=20, batch_size=128, model_batch_size=10, seed=SEED)
    log = train(bank, ds, cfg, eval_labels=yt)
    # The last epoch's probes: the full and the smallest config under the
    # mode's deployment head, after AdaBN on the target set.
    results[mode] = (log[-1]["probe_acc_1"], log[-1]["probe_acc_64th"])
    trail = " -> ".join(f"{r['probe_acc_64th']:.2f}" for r in log[::5])
    print(f"{mode:>9}: smallest-probe trajectory {trail}")

print(f"\n{'mode':>9} {'full-width':>11} {'smallest':>9} {'drop':>7}")
for mode, (acc1, acc64) in results.items():
    print(f"{mode:>9} {acc1:>11.4f} {acc64:>9.4f} {acc1 - acc64:>7.4f}")
