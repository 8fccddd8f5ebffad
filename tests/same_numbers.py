"""SHA-256 digests of the bit-identity set, one line per item.

    PYTHONPATH=src:. python tests/same_numbers.py > head.txt
    PYTHONPATH=src:. python tests/same_numbers.py --compare base.txt head.txt

A change that claims "same numbers, bit for bit" prints the same lines as
its parent.  Run each checkout's own script on its own src/, then compare
the two outputs with `--compare`: it reports changed, added and removed
names, and exits 1 when a common line changed that `MOVED` does not
declare, or when `MOVED` names a line that did not change.  The set is:

  params    every parameter after 32 steps of each training mode at
            `DEFAULT_TASK` (blocks 32-256, m=10, batch 128, seed 1), each
            mode on its own fresh bank;
  ladder    the default greedy ladder with labels on seeds 1-10, on the
            `search` benchmark's bank (16 slimda steps): every rung's
            budget, widths, delta, accuracy and saturation;
  random    labelled `random_bands` (n=20 per rung of the default
            ladder) on the same banks: every sampled config's widths,
            delta and accuracy;
  baseline  the same ladder and random search, `ladder.baseline.seed1`
            and `random.baseline.seed1`, on a seed-1 bank after as many
            baseline steps, scored under its deployment head ("task");
  cli       every file the CLI writes for `perfbench.workloads.cli_config`
            seeds 1 and 4 after gen-data, train, correlate --n 10, search
            (greedy with and without labels, random with labels) and eval,
            with the `seconds` column of `metrics.csv` masked.

The script writes only under a temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from perfbench.workloads import FULL, Segment, cli_config  # noqa: E402
from slimadapt import cli, datasets, search  # noqa: E402
from slimadapt.slimnet import Architecture  # noqa: E402
from slimadapt.trainer import MODES, deploy_head  # noqa: E402

# The train and search benchmarks' bank: one layer per block.
ARCH = Architecture(input_dim=FULL.task["d"], block_max_widths=FULL.blocks,
                    class_count=FULL.task["K"])

STEPS = 32
SEARCH_SEEDS = range(1, 11)
CLI_SEEDS = (1, 4)
RANDOM_N = 20
# The names of the lines this change moves on purpose; every other common
# line must keep its digest.  Empty for a change that keeps every number.
MOVED: tuple[str, ...] = ()
# (argv before --config, the files it writes)
CLI_COMMANDS = (
    (["gen-data"], (cli.DATASET_FILE,)),
    (["train"], (cli.CHECKPOINT_FILE, cli.METRICS_FILE)),
    (["correlate", "--n", "10"], (cli.CORR_SCATTER_FILE, cli.CORR_SUMMARY_FILE)),
    (["search", "--reveal-labels"], (cli.SEARCH_FILE,)),
    (["search"], (cli.SEARCH_FILE,)),
    (["search", "--strategy", "random", "--reveal-labels"], (cli.SEARCH_FILE,)),
    (["eval"], (cli.EVAL_FILE,)),
)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def params_digests():
    ds = datasets.make_dataset(seed=1, **FULL.task)
    for mode in MODES:
        seg = Segment(mode, ds, ARCH, FULL, seed=1)
        for _ in range(STEPS):
            seg.step(*seg.next_batch())
        arrays = seg.bank.state_arrays()
        yield f"params.{mode}", _digest(*(name.encode() + arrays[name].tobytes()
                                         for name in sorted(arrays)))


def search_digests():
    for seed in SEARCH_SEEDS:
        yield from _searched("slimda", seed, f"seed{seed}")
    yield from _searched("baseline", 1, "baseline.seed1")


def _searched(mode: str, seed: int, tag: str):
    """The labelled ladder and random search on a bank after
    `FULL.pretrain_steps` steps of `mode`, under its deployment head."""
    ds = datasets.make_dataset(seed=seed, **FULL.task)
    labels = ds.target_labels(evaluation=True)
    seg = Segment(mode, ds, ARCH, FULL, seed)
    for _ in range(FULL.pretrain_steps):
        seg.step(*seg.next_batch())
    plan, head = search.SearchPlan(seed=seed, n_random=RANDOM_N), deploy_head(mode)
    steps = search.inherited_greedy_search(seg.bank, plan, ds.xt, target_y=labels, head=head)
    yield f"ladder.{tag}", _digest(_json([
        [s.budget_ratio, s.config.widths, s.delta, s.accuracy, s.saturated] for s in steps]))
    rows = []
    for _, scores in search.random_bands(seg.bank, plan, ds.xt, target_y=labels, head=head):
        rows += [[s.config.widths, s.delta, s.accuracy] for s in scores]
    yield f"random.{tag}", _digest(_json(rows))


def _masked(path: Path) -> bytes:
    if path.name != cli.METRICS_FILE:
        return path.read_bytes()
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    col = header.split(",").index("seconds")
    cells = [row.split(",") for row in rows]
    for row in cells:
        row[col] = "*"
    return "\n".join([header] + [",".join(row) for row in cells]).encode()


def cli_digests(work_dir: Path):
    for seed in CLI_SEEDS:
        out = work_dir / f"cli{seed}"
        cfg_path = work_dir / f"config{seed}.json"
        cfg_path.write_text(json.dumps(cli_config(FULL, seed, out)), encoding="utf-8")
        for argv, outputs in CLI_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--config", str(cfg_path)])
            if code != 0:
                raise SystemExit(f"slimadapt {' '.join(argv)} exited {code} on seed {seed}")
            name = "_".join(a.lstrip("-") for a in argv)
            for filename in outputs:
                yield f"cli.seed{seed}.{name}.{filename}", _digest(_masked(out / filename))


def _read_digests(path) -> dict[str, str]:
    return dict(line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()
                if line.strip())


def compare(base: dict[str, str], head: dict[str, str], moved=MOVED) -> tuple[list[str], bool]:
    """The report of `head`'s digests against `base`'s, matched by name,
    and whether it passes: no common line changed unless `moved` declares
    it, and every name in `moved` is a common line that changed."""
    changed = [name for name in base if name in head and base[name] != head[name]]
    undeclared = [name for name in changed if name not in moved]
    unmoved = [name for name in moved if name not in changed]
    common = sum(name in head for name in base)
    report = [f"{common} common lines, {len(changed)} changed ({len(changed) - len(undeclared)} "
              f"declared in MOVED)"]
    report += [f"changed  {name}{'' if name in moved else '  (not in MOVED)'}" for name in changed]
    report += [f"added    {name}" for name in head if name not in base]
    report += [f"removed  {name}" for name in base if name not in head]
    report += [f"unmoved  {name}  (in MOVED, but its line did not change)" for name in unmoved]
    return report, not undeclared and not unmoved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"] and len(argv) == 3:
        report, ok = compare(_read_digests(argv[1]), _read_digests(argv[2]))
        print("\n".join(report))
        return 0 if ok else 1
    if argv:
        raise SystemExit("usage: same_numbers.py [--compare BASE_FILE HEAD_FILE]")
    with tempfile.TemporaryDirectory() as tmp:
        for items in (params_digests(), search_digests(), cli_digests(Path(tmp))):
            for name, digest in items:
                print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
