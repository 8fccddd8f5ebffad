"""Command-line harness tying the pipeline together.

Subcommands: gen-data, train, search, correlate, eval.  One experiment
config JSON fully determines a run; all outputs land in the configured
output directory as CSV/JSON files.  Exit codes: 0 success, 2 config
error, 3 numeric error, 4 IO error.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import jsonio
from .checkpoint import load_checkpoint, save_checkpoint
from .datasets import DomainDataset, ShiftSpec, load_dataset, make_dataset, save_dataset
from .errors import ConfigError, NumericError, SearchError, UsageError
from .jsonio import field, list_of
from .search import (SearchPlan, config_accuracy, correlation_coefficients,
                     inherited_greedy_search, random_bands)
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


# Each config key: its JSON reader, the class attribute it sets, and its default:
# "owner" (that class's own), "required" (none) or the config key it falls back to.
Setting = namedtuple("Setting", "reader owner attr default", defaults=("owner",))
CONFIG_FIELDS = {
    "seed": Setting(int, Experiment, "seed", "required"),
    "out_dir": Setting(Path, Experiment, "out_dir", "required"),
    "dataset.kind": Setting(str, ShiftSpec, "kind", "required"),
    "dataset.magnitude": Setting(float, ShiftSpec, "magnitude", "required"),
    "dataset.noise_std": Setting(float, ShiftSpec, "noise_std"),
    "dataset.K": Setting(int, DomainDataset, "K", "required"),
    "dataset.d": Setting(int, DomainDataset, "d", "required"),
    "dataset.n_s": Setting(int, DomainDataset, "n_s", "required"),
    "dataset.n_t": Setting(int, DomainDataset, "n_t", "required"),
    "architecture.input_dim": Setting(int, Architecture, "input_dim", "dataset.d"),
    "architecture.block_max_widths": Setting(list_of(int), Architecture, "block_max_widths", "required"),
    "architecture.layers_per_block": Setting(int, Architecture, "layers_per_block"),
    "trainer.mode": Setting(str, TrainerConfig, "mode"),
    "trainer.epochs": Setting(int, TrainerConfig, "epochs", "required"),
    "trainer.batch_size": Setting(int, TrainerConfig, "batch_size", "required"),
    "trainer.model_batch_size": Setting(int, TrainerConfig, "model_batch_size"),
    "trainer.w_ent": Setting(float, TrainerConfig, "w_ent"),
    "trainer.tau": Setting(float, TrainerConfig, "tau"),
    "trainer.lam": Setting(float, ConfidencePolicy, "lam"),
    "trainer.confidence_s": Setting(float, ConfidencePolicy, "s"),
    "trainer.confidence_mode": Setting(str, ConfidencePolicy, "mode"),
    "search.k": Setting(int, SearchPlan, "k"),
    "search.q": Setting(int, SearchPlan, "q"),
    "search.tolerance": Setting(float, SearchPlan, "tolerance"),
    "search.budgets": Setting(list_of(float), SearchPlan, "budget_ratios"),
    "search.n_random": Setting(int, SearchPlan, "n_random"),
}
_TOP_LEVEL = dict.fromkeys(key.partition(".")[0] for key in CONFIG_FIELDS)


def _refuse_unknown_keys(doc: dict) -> None:
    """A top-level or section key that `CONFIG_FIELDS` does not list is a
    ConfigError naming it and the nearest known name."""
    for top, value in doc.items():
        inner = value if top not in CONFIG_FIELDS and isinstance(value, dict) else {}
        for name, known in [(top, _TOP_LEVEL), *((f"{top}.{k}", CONFIG_FIELDS) for k in inner)]:
            if name not in known:
                near = difflib.get_close_matches(name, known, n=1)
                hint = f" (did you mean {near[0]}?)" if near else ""
                raise ConfigError(f"unknown field {name}{hint}")


def parse_experiment(doc: dict, seed_override: int | None = None, out_override: str | None = None,
                     mode_override: str | None = None) -> Experiment:
    _refuse_unknown_keys(doc)
    given = {"seed": seed_override, "out_dir": out_override, "trainer.mode": mode_override}
    values, kwargs = {}, {s.owner: {} for s in CONFIG_FIELDS.values()}
    for key, s in CONFIG_FIELDS.items():
        if given.get(key) is not None:
            value = s.reader(given[key])
        elif s.default == "required":
            value = field(doc, key, s.reader)
        else:
            fallback = values[s.default] if s.default in values else getattr(s.owner, s.attr)
            value = field(doc, key, s.reader, fallback)
        values[key] = kwargs[s.owner][s.attr] = value
    seed, d = values["seed"], values["dataset.d"]
    if seed < 0:  # numpy's generators take no negative seed
        name = "--seed" if seed_override is not None else "field seed"
        raise ConfigError(f"{name}: must be >= 0, got {seed}")
    if values["architecture.input_dim"] != d:
        raise ConfigError(f"field architecture.input_dim: must equal dataset.d = {d} or be left out")
    data = dict(spec=ShiftSpec(**kwargs[ShiftSpec]), **kwargs[DomainDataset])
    if data["K"] < 2:  # named here: Architecture would name its class_count
        raise ConfigError(f"field dataset.K: must be >= 2, got {data['K']}")
    arch = Architecture(class_count=data["K"], **kwargs[Architecture])
    trainer_cfg = TrainerConfig(policy=ConfidencePolicy(**kwargs[ConfidencePolicy]), seed=seed,
                                **kwargs[TrainerConfig])
    if trainer_cfg.batch_size > (domain := min(data["n_s"], data["n_t"])):
        raise ConfigError(f"field trainer.batch_size: must be at most min(dataset.n_s, "
                          f"dataset.n_t) = {domain}, got {trainer_cfg.batch_size}")
    plan = SearchPlan(seed=seed, **kwargs[SearchPlan])
    try:  # every command refuses a ladder that `search` would refuse
        plan.budgets(arch)
    except UsageError as exc:
        if not plan.budget_ratios:  # a search.k above the FLOPs levels, named by SearchPlan
            raise
        raise ConfigError(f"field search.budgets: {exc}") from exc
    return Experiment(dataset_fields=data, arch=arch, trainer=trainer_cfg, plan=plan, **kwargs[Experiment])


def _load_experiment(args) -> Experiment:
    return parse_experiment(jsonio.load(args.config), args.seed, args.out, getattr(args, "mode", None))


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


def cmd_search(args) -> int:
    exp = _load_experiment(args)
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
        bands = random_bands(bank, plan, ds.xt, labels, head)
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
    exp = _load_experiment(args)
    plan = exp.plan if args.n is None else replace(exp.plan, n_random=args.n)
    bank, ds, labels, head = _load_trained(exp, labelled=True)  # evaluation-only
    scatter_rows, summary_rows = [], []
    for ratio, scores in random_bands(bank, plan, ds.xt, labels, head):
        deltas = [s.delta for s in scores]
        accs = [s.accuracy for s in scores]
        scatter_rows += [",".join([_f(ratio), _f(d), _f(a, 4)]) for d, a in zip(deltas, accs)]
        # A band whose scores or accuracies do not vary has no defined
        # correlation; it keeps its row with empty pearson/spearman cells.
        pearson, spearman = correlation_coefficients(deltas, accs) or (None, None)
        summary_rows.append(",".join([_f(ratio), _f(pearson, 4), _f(spearman, 4), str(plan.n_random)]))
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
    accs = {cfg: config_accuracy(bank, cfg, ds.xt, labels, head)  # once per distinct config
            for cfg in dict.fromkeys((full, *configs))}
    full_acc = accs[full]
    rows = []
    for cfg in configs:
        acc = accs[cfg]
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

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.set_defaults(fn=fn)
        return p

    command("gen-data", cmd_gen_data, "generate the paired-domain dataset file")
    p = command("train", cmd_train, "train the model bank and write a checkpoint")
    p.add_argument("--mode", choices=MODES, default=None)
    p = command("search", cmd_search, "architecture search under FLOPs budgets")
    p.add_argument("--strategy", choices=("greedy", "random"), default="greedy")
    p.add_argument("--budgets", default=None, help="comma-separated FLOPs ratios")
    p.add_argument("--reveal-labels", action="store_true",
                   help="add a true-accuracy column (evaluation only)")
    p = command("correlate", cmd_correlate, "score-vs-accuracy correlation per budget band")
    p.add_argument("--n", type=int, help="configs per budget band (default: search.n_random)")
    p = command("eval", cmd_eval, "per-width target accuracy report")
    p.add_argument("--widths", default=None,
                   help="semicolon-separated width configs, e.g. '8,16,32,64;4,8,16,32'")
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
