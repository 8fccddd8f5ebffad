"""Golden record of the slimadapt pipeline at seconds-scale sizes.

`compute(work_dir)` runs three things and returns a JSON-ready record:

  cli      the pipeline `gen-data -> train -> search` (greedy, greedy with
           `--reveal-labels`, `--strategy random`) `-> correlate -> eval`,
           in-process through `slimadapt.cli.main`, on a bank with two
           layers per block.  Each output CSV is kept as its header and
           its rows of cells; the wall-time column of `metrics.csv` is
           masked.  Exit codes and stderr lines are kept too.
  steps    3 steps of each training mode, each on a fresh bank: the step
           metrics and the L2 norm of every parameter afterwards.
  ladder   one greedy ladder, with labels, on an untrained
           `ParamStore(arch, default_rng(0))` bank, its band narrowed to
           ±0.5% so that the lowest rung is skipped: every rung's budget,
           widths, delta, accuracy and saturation, and the skipped rungs.

`tests/test_golden.py` compares a fresh record with `golden_record.json`.
Discrete outcomes are pinned exactly: widths, skipped rungs, CSV headers,
row counts and every cell that is not a decimal number.  Floats are
compared within `TOLERANCE`, since another CPU's BLAS may sum in another
order: a relative 1e-6 plus, for a printed cell, one unit in its last
printed digit (the rounding of a value that moved by far less can flip it).

Regenerate the record only when a change is meant to move these numbers,
and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden_record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from slimadapt import cli
from slimadapt.autodiff import SgdState
from slimadapt.datasets import DEFAULT_TASK, batches, make_dataset
from slimadapt.search import SearchPlan, inherited_greedy_search
from slimadapt.seeding import named_rng
from slimadapt.slimnet import Architecture, ParamStore
from slimadapt.trainer import (MODES, TrainerConfig, init_bank, train_step, train_step_baseline,
                               train_step_inplaced)

RECORD = Path(__file__).with_name("golden_record.json")

TOLERANCE = {"rel": 1e-6, "abs": 1e-12, "printed_last_digits": 1}

SEED = 1
# 600 target rows span three of the eval path's 256-row batches.
TASK = dict(DEFAULT_TASK, n_s=600, n_t=600)
BLOCKS = (8, 16, 32, 64)

CLI_CONFIG = {
    "seed": SEED,
    "dataset": {"kind": TASK["spec"].kind, "magnitude": TASK["spec"].magnitude,
                "noise_std": TASK["spec"].noise_std, "K": TASK["K"], "d": TASK["d"],
                "n_s": TASK["n_s"], "n_t": TASK["n_t"]},
    "architecture": {"input_dim": TASK["d"], "block_max_widths": list(BLOCKS),
                     "layers_per_block": 2},
    "trainer": {"mode": "slimda", "epochs": 4, "batch_size": 64, "model_batch_size": 2},
    "search": {"k": 6, "q": 20, "tolerance": 0.02, "n_random": 3},
}

# (record key, argv after the subcommand's --config, output files)
CLI_COMMANDS = (
    ("gen-data", ["gen-data"], ()),
    ("train", ["train"], ("metrics.csv",)),
    ("search-greedy", ["search"], ("search.csv",)),
    ("search-labels", ["search", "--reveal-labels"], ("search.csv",)),
    ("search-random", ["search", "--strategy", "random"], ("search.csv",)),
    ("correlate", ["correlate", "--n", "4"], ("correlate_scatter.csv", "correlate_summary.csv")),
    ("eval", ["eval", "--widths", "8,16,32,64;2,4,8,8;4,9,20,33"], ("eval.csv",)),
)

STEP_FNS = {"slimda": train_step, "baseline": train_step_baseline,
            "inplaced": train_step_inplaced}
STEPS_PER_MODE = 3


def _csv(path: Path) -> dict:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows]
    if path.name == "metrics.csv":  # wall time: the one column that varies run to run
        col = header.split(",").index("seconds")
        for row in cells:
            row[col] = "*"
    return {"header": header, "rows": cells}


def _run_cli(work_dir: Path) -> dict:
    out = work_dir / "cli"
    cfg_path = work_dir / "config.json"
    cfg_path.write_text(json.dumps(dict(CLI_CONFIG, out_dir=str(out))), encoding="utf-8")
    record = {}
    for key, argv, outputs in CLI_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--config", str(cfg_path)])
        record[key] = {"exit": code,
                       "stderr": err.getvalue().splitlines(),
                       "files": {name: _csv(out / name) for name in outputs}}
    return record


def _run_steps() -> dict:
    arch = Architecture(TASK["d"], BLOCKS, 1, TASK["K"])
    ds = make_dataset(seed=SEED, **TASK)
    record = {}
    for mode in MODES:
        cfg = TrainerConfig(mode=mode, batch_size=64, model_batch_size=3, seed=SEED)
        bank = init_bank(arch, SEED)
        state = SgdState(lr=cfg.lr0, momentum=cfg.momentum)
        rng_data, rng_model = named_rng(SEED, "data"), named_rng(SEED, "model")
        metrics = []
        for _, (xs, ys, xt) in zip(range(STEPS_PER_MODE), batches(ds, cfg.batch_size, rng_data)):
            metrics.append(STEP_FNS[mode](bank, state, xs, ys, xt, cfg, rng_model))
        record[mode] = {
            "metrics": metrics,
            "param_norms": {name: float(np.linalg.norm(t.data))
                            for name, t in sorted(bank.params.items())},
        }
    return record


def _run_ladder() -> dict:
    arch = Architecture(TASK["d"], BLOCKS, 1, TASK["K"])
    ds = make_dataset(seed=SEED, **TASK)
    bank = ParamStore(arch, np.random.default_rng(0))
    plan = SearchPlan(seed=SEED, tolerance=0.005)  # too narrow for the lowest rung
    steps = inherited_greedy_search(bank, plan, ds.xt, target_y=ds.target_labels(evaluation=True))
    reached = {s.budget_ratio for s in steps}
    return {
        "rungs": [{"budget_ratio": s.budget_ratio, "widths": list(s.config.widths),
                   "delta": s.delta, "accuracy": s.accuracy, "saturated": s.saturated}
                  for s in steps],
        "skipped": [r for r in plan.budgets(arch) if r not in reached],
    }


def compute(work_dir) -> dict:
    """A fresh record, with every CLI file written under `work_dir`."""
    return {"tolerance": TOLERANCE, "cli": _run_cli(Path(work_dir)), "steps": _run_steps(),
            "ladder": _run_ladder()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = compute(tmp)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
