"""Command-line harness tying the pipeline together.

Subcommands: gen-data, train, search, correlate, eval.  One experiment
config JSON fully determines a run; all outputs land in the configured
output directory as CSV/JSON files.  Exit codes: 0 success, 2 config
error, 3 numeric error, 4 IO error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import jsonio
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import DomainDataset, ShiftSpec, load_dataset, make_dataset, save_dataset
from .errors import ConfigError, NumericError, SearchError, UsageError
from .jsonio import field, list_of
from .search import (
    SearchPlan,
    _anchor_probs,
    config_accuracy,
    correlation_coefficients,
    inherited_greedy_search,
    random_search,
)
from .seeding import named_rng
from .slimnet import Architecture
from .trainer import MODES, ConfidencePolicy, TrainerConfig, deploy_head, init_bank, train

DATASET_FILE = "dataset.json"
CHECKPOINT_FILE = "checkpoint.json"
METRICS_FILE = "metrics.csv"
SEARCH_FILE = "search.csv"
CORR_SCATTER_FILE = "correlate_scatter.csv"
CORR_SUMMARY_FILE = "correlate_summary.csv"
EVAL_FILE = "eval.csv"

METRICS_HEADER = "epoch,mode,loss_task,loss_dd,loss_conf,loss_ent,loss_seed,probe_acc_1,probe_acc_64th,seconds"


@dataclass
class Experiment:
    seed: int
    out_dir: Path
    dataset_fields: dict
    arch: Architecture
    trainer: TrainerConfig
    plan: SearchPlan
    n_random: int


def parse_experiment(doc: dict, seed_override: int | None = None,
                     out_override: str | None = None,
                     mode_override: str | None = None) -> Experiment:
    seed = seed_override if seed_override is not None else field(doc, "seed", int)
    if seed < 0:  # numpy's generators take no negative seed
        name = "--seed" if seed_override is not None else "field seed"
        raise ConfigError(f"{name}: must be >= 0, got {seed}")
    out_dir = Path(out_override) if out_override is not None else field(doc, "out_dir", Path)

    d = field(doc, "dataset.d", int)
    if field(doc, "architecture.input_dim", int, d) != d:
        raise ConfigError(f"field architecture.input_dim: must equal dataset.d = {d} or be left out")
    dataset_fields = dict(
        spec=ShiftSpec(kind=field(doc, "dataset.kind", str),
                       magnitude=field(doc, "dataset.magnitude", float),
                       noise_std=field(doc, "dataset.noise_std", float, 1.0)),
        K=field(doc, "dataset.K", int),
        d=d,
        n_s=field(doc, "dataset.n_s", int),
        n_t=field(doc, "dataset.n_t", int),
    )

    arch = Architecture(
        input_dim=d,
        block_max_widths=field(doc, "architecture.block_max_widths", list_of(int)),
        layers_per_block=field(doc, "architecture.layers_per_block", int, 1),
        class_count=dataset_fields["K"],
    )

    policy = ConfidencePolicy(lam=field(doc, "trainer.lam", float, 0.5),
                              s=field(doc, "trainer.confidence_s", float, 0.0),
                              mode=field(doc, "trainer.confidence_mode", str, "hard"))
    trainer_cfg = TrainerConfig(
        mode=mode_override or field(doc, "trainer.mode", str, "slimda"),
        epochs=field(doc, "trainer.epochs", int),
        batch_size=field(doc, "trainer.batch_size", int),
        model_batch_size=field(doc, "trainer.model_batch_size", int, 10),
        w_ent=field(doc, "trainer.w_ent", float, 0.1),
        tau=field(doc, "trainer.tau", float, 0.5),
        policy=policy,
        seed=seed,
    )
    domain = min(dataset_fields["n_s"], dataset_fields["n_t"])
    if trainer_cfg.batch_size > domain:
        raise ConfigError(f"field trainer.batch_size: must be at most min(dataset.n_s, "
                          f"dataset.n_t) = {domain}, got {trainer_cfg.batch_size}")

    plan = SearchPlan(
        k=field(doc, "search.k", int, 6),
        q=field(doc, "search.q", int, 20),
        seed=seed,
        tolerance=field(doc, "search.tolerance", float, 0.02),
        budget_ratios=field(doc, "search.budgets", list_of(float), ()),
    )
    return Experiment(seed=seed, out_dir=out_dir, dataset_fields=dataset_fields, arch=arch,
                      trainer=trainer_cfg, plan=plan,
                      n_random=field(doc, "search.n_random", int, 100))


def _load_experiment(args) -> Experiment:
    doc = jsonio.load(args.config)
    return parse_experiment(doc, seed_override=args.seed, out_override=args.out,
                            mode_override=getattr(args, "mode", None))


def _f(x, digits=6) -> str:
    return "" if x is None else format(float(x), f".{digits}f")


def _widths_str(config) -> str:
    return "|".join(str(w) for w in config.widths)


def _flag_values(text: str, kind, flag: str) -> tuple:
    """The comma-separated values of `flag` read through `kind`; a value
    `kind` rejects is a config error naming the flag."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _parse_widths(text: str) -> list[tuple[int, ...]]:
    out = [_flag_values(chunk.strip(), int, "--widths") for chunk in text.split(";")
           if chunk.strip()]
    if not out:
        raise ConfigError("--widths given but empty")
    return out


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    jsonio.write_atomic(path, "\n".join([header] + rows) + "\n")


# -- subcommands ----------------------------------------------------------


def cmd_gen_data(args) -> int:
    exp = _load_experiment(args)
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    ds = make_dataset(seed=exp.seed, **exp.dataset_fields)
    save_dataset(exp.out_dir / DATASET_FILE, ds)
    counts = np.bincount(ds.ys, minlength=ds.K)
    print(f"wrote {exp.out_dir / DATASET_FILE}")
    print(f"classes: {ds.K}, dim: {ds.d}, shift: {ds.spec.kind} magnitude {ds.spec.magnitude}")
    print(f"source class counts: {counts.tolist()} (n_s={ds.n_s}, n_t={ds.n_t})")
    return 0


def cmd_train(args) -> int:
    exp = _load_experiment(args)
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    full = load_dataset(exp.out_dir / DATASET_FILE, evaluation=True)
    try:
        labels = full.target_labels(evaluation=True)  # probe diagnostics only
    except UsageError:
        labels = None
    ds = DomainDataset(full.xs, full.ys, full.xt, full.K, full.spec, full.seed)  # label-free

    bank = init_bank(exp.arch, exp.seed)
    log = train(bank, ds, exp.trainer, eval_labels=labels)
    steps = sum(row["steps"] for row in log)
    save_checkpoint(exp.out_dir / CHECKPOINT_FILE, bank, exp.seed, steps, exp.trainer.mode)
    rows = [
        ",".join([str(r["epoch"]), r["mode"], _f(r["loss_task"]), _f(r["loss_dd"]),
                  _f(r["loss_conf"]), _f(r["loss_ent"]), _f(r["loss_seed"]),
                  _f(r["probe_acc_1"], 4), _f(r["probe_acc_64th"], 4),
                  _f(r["seconds"], 3)])
        for r in log
    ]
    _write_csv(exp.out_dir / METRICS_FILE, METRICS_HEADER, rows)
    print(f"wrote {exp.out_dir / CHECKPOINT_FILE} and {exp.out_dir / METRICS_FILE}")
    return 0


def _load_trained(exp: Experiment, labelled: bool):
    """The experiment's checkpoint, dataset, target labels (None unless
    `labelled`) and deployment head.  A checkpoint of another architecture
    than the config's is a config error."""
    bank, meta = load_checkpoint(exp.out_dir / CHECKPOINT_FILE)
    if bank.arch != exp.arch:
        raise ConfigError("checkpoint architecture does not match the experiment config")
    ds = load_dataset(exp.out_dir / DATASET_FILE, evaluation=labelled)
    labels = ds.target_labels(evaluation=True) if labelled else None
    return bank, ds, labels, deploy_head(meta["mode"])


def _random_bands(exp: Experiment, plan: SearchPlan, bank, ds, n: int, labels, head: str):
    """Yield (budget ratio, scores) per budget of `plan`: n configs sampled
    in the band from the experiment's "search" stream, each scored once
    against one recalibrated anchor (with accuracies when `labels` given)."""
    rng = named_rng(exp.seed, "search")
    full = bank.arch.full_config().flops
    anchor_probs = _anchor_probs(bank, ds.xt)
    for ratio in plan.budgets(bank.arch):
        _, scores = random_search(bank, ratio * full, n, ds.xt, rng, tolerance=plan.tolerance,
                                  anchor_probs=anchor_probs, target_y=labels, head=head)
        yield ratio, scores


def cmd_search(args) -> int:
    exp = _load_experiment(args)
    if args.strategy == "random" and exp.n_random < 1:
        raise ConfigError(f"search.n_random must be at least 1, got {exp.n_random}")
    bank, ds, labels, head = _load_trained(exp, labelled=args.reveal_labels)
    plan = exp.plan
    if args.budgets:
        plan = replace(plan, budget_ratios=_flag_values(args.budgets, float, "--budgets"))

    if args.strategy == "greedy":
        steps = inherited_greedy_search(bank, plan, ds.xt, target_y=labels, head=head)
        budgets, reached = plan.budgets(bank.arch), {s.budget_ratio: s for s in steps}
        for ratio in (r for r in budgets if r not in reached):
            print(f"skipped budget ratio {ratio:.4f}: no candidate grows into it", file=sys.stderr)
        found = [(i, r, reached[r]) for i, r in enumerate(budgets) if r in reached]
    else:
        bands = _random_bands(exp, plan, bank, ds, exp.n_random, labels, head)
        found = [(i, ratio, s) for i, (ratio, scores) in enumerate(bands) for s in scores]

    header = "step,budget_ratio,widths,delta,flops"
    if labels is not None:
        header += ",accuracy"
    rows = []
    for i, ratio, scored in found:
        row = [str(i), _f(ratio), _widths_str(scored.config), _f(scored.delta),
               _f(scored.config.flops, 1)]
        if labels is not None:
            row.append(_f(scored.accuracy, 4))
        rows.append(",".join(row))
    _write_csv(exp.out_dir / SEARCH_FILE, header, rows)
    print(f"wrote {exp.out_dir / SEARCH_FILE} ({len(rows)} rows, strategy={args.strategy})")
    return 0


def cmd_correlate(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    exp = _load_experiment(args)
    bank, ds, labels, head = _load_trained(exp, labelled=True)  # evaluation-only
    scatter_rows, summary_rows = [], []
    for ratio, scores in _random_bands(exp, exp.plan, bank, ds, args.n, labels, head):
        deltas = [s.delta for s in scores]
        accs = [s.accuracy for s in scores]
        scatter_rows += [",".join([_f(ratio), _f(d), _f(a, 4)]) for d, a in zip(deltas, accs)]
        # A band whose scores or accuracies do not vary has no defined
        # correlation; it keeps its row with empty pearson/spearman cells.
        pearson, spearman = correlation_coefficients(deltas, accs) or (None, None)
        summary_rows.append(",".join([_f(ratio), _f(pearson, 4), _f(spearman, 4), str(args.n)]))
    _write_csv(exp.out_dir / CORR_SCATTER_FILE, "budget_ratio,delta,accuracy", scatter_rows)
    _write_csv(exp.out_dir / CORR_SUMMARY_FILE, "budget_ratio,pearson,spearman,n", summary_rows)
    print(f"wrote {exp.out_dir / CORR_SCATTER_FILE} and {exp.out_dir / CORR_SUMMARY_FILE}")
    return 0


def cmd_eval(args) -> int:
    exp = _load_experiment(args)
    bank, ds, labels, head = _load_trained(exp, labelled=True)
    arch = bank.arch
    full = arch.full_config()
    if args.widths:
        configs = [arch.make_config(w) for w in _parse_widths(args.widths)]
    else:
        configs = [full, arch.smallest_config()]
    accs = {}  # one recalibration per distinct config, the full width included
    for cfg in (full, *configs):
        if cfg.widths not in accs:
            accs[cfg.widths] = config_accuracy(bank, cfg, ds.xt, labels, head)
    full_acc = accs[full.widths]
    rows = []
    for cfg in configs:
        acc = accs[cfg.widths]
        rows.append(",".join([_widths_str(cfg), _f(cfg.flops / full.flops),
                              _f(acc, 4), _f(full_acc - acc, 4)]))
    _write_csv(exp.out_dir / EVAL_FILE, "widths,flops_ratio,accuracy,delta_vs_full", rows)
    print(f"wrote {exp.out_dir / EVAL_FILE}")
    for row in rows:
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slimadapt",
                                     description="Train, search, and evaluate width-slimmable "
                                                 "domain-adaptive model banks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("gen-data", help="generate the paired-domain dataset file")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train the model bank and write a checkpoint")
    common(p)
    p.add_argument("--mode", choices=MODES, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("search", help="architecture search under FLOPs budgets")
    common(p)
    p.add_argument("--strategy", choices=("greedy", "random"), default="greedy")
    p.add_argument("--budgets", default=None, help="comma-separated FLOPs ratios")
    p.add_argument("--reveal-labels", action="store_true",
                   help="add a true-accuracy column (evaluation only)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("correlate", help="score-vs-accuracy correlation per budget band")
    common(p)
    p.add_argument("--n", type=int, default=100, help="configs sampled per budget band")
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("eval", help="per-width target accuracy report")
    common(p)
    p.add_argument("--widths", default=None,
                   help="semicolon-separated width configs, e.g. '8,16,32,64;4,8,16,32'")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UsageError, SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
