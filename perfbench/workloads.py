"""The benchmark's three closed-loop workloads over slimadapt's public API.

Every workload is one caller that waits for each step, call or command to
finish before it issues the next.  A run sets up `Size.setup_reps` times
(the median is `setup_s`), then repeats *cycles* until `seconds` have
passed.  A cycle is the unit of the end-to-end metric `op_ms.p50`:

  train     one step of each mode (slimda, baseline, inplaced), each mode on
            its own fresh bank; the cycle's time is the sum of its steps.
  search    one default greedy ladder (timed), then a sweep of
            `anchor_discrepancy` calls over the budget ladder (timed singly).
  cli_deep  `correlate --n 10` then `search --reveal-labels`, in-process
            through `slimadapt.cli.main`; the cycle's time is their sum.

In a traced run the cycles alternate between untraced and traced, so the
tracing overhead is measured in the same run; at least one of each runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from slimadapt import cli, datasets, search, trainer
from slimadapt.autodiff import SgdState
from slimadapt.errors import SearchError
from slimadapt.seeding import named_rng
from slimadapt.slimnet import Architecture

from . import checks
from .layers import MODES
from .tracing import Tracer

STEP_FNS = {"slimda": "train_step", "baseline": "train_step_baseline",
            "inplaced": "train_step_inplaced"}

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark configuration."""

    task: dict
    blocks: tuple[int, ...]
    model_batch: int = 10
    batch: int = 128
    acc_after: int = 32        # slimda steps on train before acc.smallest is taken
    pretrain_steps: int = 16   # slimda steps that train the search workload's bank
    scores_per_budget: int = 5
    correlate_n: int = 10
    setup_reps: int = 3


FULL = Size(task=datasets.DEFAULT_TASK, blocks=(32, 64, 128, 256))

# The cli_deep set-up's short `train`: sampling only the full and the
# smallest widths (m=2) lifts the 8-layer bank above chance accuracy in
# about the time one README epoch (m=10) takes, which leaves it at chance.
CLI_EPOCHS = 3
CLI_MODEL_BATCH = 2

# Seconds-scale sizes for the benchmark's own tests.
TINY = Size(task=dict(datasets.DEFAULT_TASK, n_s=256, n_t=256), blocks=(8, 16, 32, 64),
            model_batch=3, batch=64, acc_after=2, pretrain_steps=2, scores_per_budget=1,
            correlate_n=4, setup_reps=2)


class SetupError(RuntimeError):
    """The workload's set-up failed, so nothing can be measured."""


@dataclass
class OpRecord:
    """One op.  `errors` are exceptions and non-zero exit codes: the program
    refused or failed the op.  `wrong` are output checks the op's result
    failed.  Either makes it a failed op; only `wrong` makes a run incorrect."""

    kind: str
    traced: bool = False
    ms: float = math.nan
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.wrong


class Run:
    """State of one benchmark run: op records, set-up times and tracing."""

    # Op kinds whose times add up to a cycle's end-to-end time.
    CYCLE_KINDS = {"train": ("step.slimda", "step.baseline", "step.inplaced"),
                   "search": ("ladder",), "cli_deep": ("command.correlate", "command.search")}

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: Size,
                 work_dir: Path):
        self.workload, self.seed, self.seconds, self.size = workload, seed, seconds, size
        self.work_dir = Path(work_dir)
        self.tracer = Tracer() if trace else None
        self.records: list[OpRecord] = []
        self.cycles: list[tuple[bool, float, bool]] = []  # (traced, ms, every op ok)
        self.setup_s: list[float] = []
        self.details: dict = {}
        self._tracing = False
        self._start = None

    # -- structure -----------------------------------------------------------

    def setup(self, fn):
        """Run the set-up `setup_reps` times (traced in a traced run) and
        return the last result."""
        result = None
        for _ in range(self.size.setup_reps):
            with self._tracing_on(self.tracer is not None), self.traced("setup"):
                t0 = time.perf_counter()
                result = fn()
                self.setup_s.append(time.perf_counter() - t0)
        self._start = time.perf_counter()
        return result

    def more(self, at_least: int = 0) -> bool:
        """Whether to start another cycle: until `seconds` have passed, with
        at least one cycle, or two in a traced run (one untraced, one traced)."""
        floor = max(at_least, 2 if self.tracer is not None else 1)
        return len(self.cycles) < floor or time.perf_counter() - self._start < self.seconds

    @contextmanager
    def _tracing_on(self, on: bool):
        with self.tracer.installed() if on else nullcontext():
            self._tracing = on
            try:
                yield
            finally:
                self._tracing = False

    @contextmanager
    def cycle(self):
        traced = self.tracer is not None and len(self.cycles) % 2 == 1
        first = len(self.records)
        with self._tracing_on(traced):
            yield
        mine = [r for r in self.records[first:] if r.kind in self.CYCLE_KINDS[self.workload]]
        self.cycles.append((traced, sum(r.ms for r in mine), all(r.ok for r in mine)))

    def traced(self, kind: str):
        """Group the spans of the enclosed block under one op of `kind`."""
        return self.tracer.operation(kind) if self._tracing else nullcontext()

    @contextmanager
    def op(self, kind: str):
        """One timed closed-loop op.  An exception fails the op, not the run."""
        rec = OpRecord(kind, traced=self._tracing)
        self.records.append(rec)
        with self.traced(kind):
            t0 = time.perf_counter()
            try:
                yield rec
            except Exception:  # noqa: BLE001 - the loop goes on; the failure is reported
                rec.errors.append(traceback.format_exc())
            finally:
                rec.ms = (time.perf_counter() - t0) * 1e3

    def fail(self, kind: str, error: str) -> None:
        self.records.append(OpRecord(kind, errors=[error]))

    # -- results -------------------------------------------------------------

    def latencies(self, kind: str) -> list[float]:
        """Times of the untraced, successful ops of one kind, in ms."""
        return [r.ms for r in self.records if r.kind == kind and r.ok and not r.traced]

    def attempted(self) -> int:
        return len(self.records)

    def failed(self) -> int:
        return sum(not r.ok for r in self.records)

    def correct(self) -> bool:
        return not any(r.wrong for r in self.records)

    def cycle_ms(self, traced: bool) -> list[float]:
        return [ms for t, ms, ok in self.cycles if t == traced and ok]

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        # If every cycle has a failed op, their times are reported rather
        # than none; the failures show in ok_ratio.
        ok = self.cycle_ms(False) or [ms for t, ms, _ in self.cycles if not t]
        attempted = self.attempted()
        return {
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
            "ok_ratio": ((attempted - self.failed()) / attempted, "ratio", attempted),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MiB", 1),
            "op_ms.p50": (statistics.median(ok), "ms", len(ok)),
        }


def latency_summary(name: str, values_ms) -> dict:
    """`<name>.p50` and, when ten samples lie beyond it, `<name>.p90`, in ms."""
    n = len(values_ms)
    out = {f"{name}.p50": (statistics.median(values_ms), "ms", n)} if n else {}
    if n * 0.1 >= TAIL_SAMPLES:
        p90 = statistics.quantiles(values_ms, n=10, method="inclusive")[8]
        out[f"{name}.p90"] = (p90, "ms", n)
    return out


def median_s(name: str, values_ms) -> dict:
    """`<name>`: the median of the values, in seconds."""
    return {name: (statistics.median(values_ms) / 1e3, "s", len(values_ms))} if values_ms else {}


# -- train ------------------------------------------------------------------


def _arch(size: Size, layers_per_block: int) -> Architecture:
    return Architecture(input_dim=size.task["d"], block_max_widths=size.blocks,
                        layers_per_block=layers_per_block, class_count=size.task["K"])


class Segment:
    """One training mode's fresh bank, optimizer and data stream.  Every
    mode draws from the same named streams, as the CLI's ablations do."""

    def __init__(self, mode: str, ds, arch: Architecture, size: Size, seed: int):
        self.mode, self.ds, self.size = mode, ds, size
        self.cfg = trainer.TrainerConfig(mode=mode, batch_size=size.batch,
                                         model_batch_size=size.model_batch, seed=seed)
        self.bank = trainer.init_bank(arch, seed)
        self.state = SgdState(lr=self.cfg.lr0, momentum=self.cfg.momentum)
        self.rng_data = named_rng(seed, "data")
        self.rng_model = named_rng(seed, "model")
        self.epoch = -1
        self.batches = iter(())
        self.steps = 0
        self.last: OpRecord | None = None

    def next_batch(self):
        """The next (xs, ys, xt); a new epoch reshuffles and sets the
        learning rate per epoch as `trainer.train` does."""
        try:
            return next(self.batches)
        except StopIteration:
            self.epoch += 1
            c = self.cfg
            progress = min(self.epoch / max(c.epochs - 1, 1), 1.0)
            self.state.lr = trainer.lr_schedule(progress, base=c.lr0, alpha=c.lr_alpha,
                                                beta=c.lr_beta)
            self.batches = datasets.batches(self.ds, self.size.batch, self.rng_data)
            return next(self.batches)

    def step(self, xs, ys, xt) -> dict:
        fn = getattr(trainer, STEP_FNS[self.mode])
        return fn(self.bank, self.state, xs, ys, xt, self.cfg, self.rng_model)


def run_train(run: Run) -> dict:
    size, seed = run.size, run.seed
    arch = _arch(size, 1)

    def setup():
        ds = datasets.make_dataset(seed=seed, **size.task)
        segments = {m: Segment(m, ds, arch, size, seed) for m in MODES}
        # Warm-up: one step per mode on a throwaway bank pays lazy set-up here.
        batch = next(datasets.batches(ds, size.batch, named_rng(seed, "warmup")))
        for m in MODES:
            Segment(m, ds, arch, size, seed).step(*batch)
        return ds, segments

    ds, segments = run.setup(setup)
    labels = ds.target_labels(evaluation=True)
    trajectory, acc = [], None
    while run.more(at_least=size.acc_after):
        with run.cycle():
            for m, seg in segments.items():
                with run.traced("batch." + m):
                    xs, ys, xt = seg.next_batch()
                with run.op("step." + m) as rec:
                    losses = seg.step(xs, ys, xt)
                seg.steps += 1
                seg.last = rec
                if rec.ok:
                    rec.wrong += checks.check_losses(losses)
                    trajectory.append(dict(mode=m, step=seg.steps, lr=seg.state.lr, **losses))
        slimda = segments["slimda"]
        if acc is None and slimda.steps >= size.acc_after:
            acc = search.config_accuracy(slimda.bank, arch.smallest_config(), ds.xt, labels,
                                         trainer.deploy_head("slimda"))
    for seg in segments.values():
        seg.last.wrong += checks.check_params(seg.bank.state_arrays())

    diag = {}
    for m in MODES:
        diag.update(latency_summary(f"step_ms.{m}", run.latencies(f"step.{m}")))
    diag["acc.smallest"] = (acc, "ratio", 1)
    run.details["loss_trajectory"] = trajectory
    return diag


# -- search -----------------------------------------------------------------


def run_search(run: Run) -> dict:
    size, seed = run.size, run.seed
    arch = _arch(size, 1)

    def setup():
        ds = datasets.make_dataset(seed=seed, **size.task)
        seg = Segment("slimda", ds, arch, size, seed)
        for _ in range(size.pretrain_steps):
            seg.step(*seg.next_batch())
        anchor = search.recalibrated(seg.bank, arch.full_config(), ds.xt).predict(ds.xt, head="a")
        return ds, seg.bank, anchor

    ds, bank, anchor = run.setup(setup)
    plan = search.SearchPlan(seed=seed)
    budgets = plan.budgets(arch)
    full = arch.full_config().flops
    rng = named_rng(seed, "perfbench.score")
    first = None
    while run.more():
        with run.cycle():
            with run.op("ladder") as rec:
                steps = search.inherited_greedy_search(bank, plan, ds.xt)
            if rec.ok and first is None:
                first = steps
                rec.wrong += checks.check_ladder(
                    steps, arch, plan,
                    lambda c: search.anchor_discrepancy(bank, c, ds.xt, anchor_probs=anchor).delta)
            elif rec.ok and steps != first:
                rec.wrong.append("ladder differs from the run's first ladder with the same plan")
            for ratio in budgets:
                for _ in range(size.scores_per_budget):
                    try:
                        with run.traced("sample"):
                            config = search.sample_config_at_budget(rng, arch, ratio * full,
                                                                    plan.tolerance)
                    except SearchError as exc:
                        run.fail("score", f"sampling at ratio {ratio}: {exc}")
                        continue
                    with run.op("score") as rec:
                        score = search.anchor_discrepancy(bank, config, ds.xt,
                                                          anchor_probs=anchor)
                    if rec.ok:
                        rec.wrong += checks.check_score(score.delta)
    diag = latency_summary("score_ms", run.latencies("score"))
    diag.update(median_s("ladder_s", run.latencies("ladder")))
    return diag


# -- cli_deep ---------------------------------------------------------------


def cli_config(size: Size, seed: int, out_dir: Path) -> dict:
    """The README experiment config with two layers per block and a short
    training run."""
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "dataset": {"kind": size.task["spec"].kind, "magnitude": size.task["spec"].magnitude,
                    "noise_std": size.task["spec"].noise_std, "K": size.task["K"],
                    "d": size.task["d"], "n_s": size.task["n_s"], "n_t": size.task["n_t"]},
        "architecture": {"input_dim": size.task["d"], "block_max_widths": list(size.blocks),
                         "layers_per_block": 2},
        "trainer": {"mode": "slimda", "epochs": CLI_EPOCHS, "batch_size": size.batch,
                    "model_batch_size": CLI_MODEL_BATCH},
        "search": {"k": 6, "q": 20, "tolerance": 0.02, "n_random": 100},
    }


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def run_cli_deep(run: Run) -> dict:
    size, seed = run.size, run.seed
    out = run.work_dir / "cli"
    cfg_path = run.work_dir / "config.json"
    doc = cli_config(size, seed, out)
    arch = _arch(size, 2)

    def setup():
        out.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("gen-data", "train"):
            code, log = _cli([command, "--config", cfg_path])
            if code != 0:
                raise SetupError(f"slimadapt {command} exited {code}: {log}")
        errors = checks.check_metrics_csv(out, CLI_EPOCHS)
        if errors:
            raise SetupError("; ".join(errors))

    run.setup(setup)
    bands = len(search.SearchPlan(k=doc["search"]["k"], tolerance=doc["search"]["tolerance"])
                .budgets(arch))
    commands = (
        ("correlate", ["correlate", "--n", size.correlate_n],
         ("correlate_scatter.csv", "correlate_summary.csv"),
         lambda: checks.check_correlate(out, bands, size.correlate_n)),
        ("search", ["search", "--reveal-labels"], ("search.csv",),
         lambda: checks.check_search(out, bands)),
    )
    while run.more():
        with run.cycle():
            for name, argv, outputs, check in commands:
                for f in outputs:
                    (out / f).unlink(missing_ok=True)
                with run.op("command." + name) as rec:
                    code, log = _cli(argv + ["--config", cfg_path])
                if rec.ok and code != 0:
                    rec.errors.append(f"exit code {code}: {log.strip()}")
                if rec.ok:
                    rec.wrong += check()
    diag = median_s("correlate_s", run.latencies("command.correlate"))
    diag.update(median_s("labelled_search_s", run.latencies("command.search")))
    return diag


WORKLOADS = {"train": run_train, "search": run_search, "cli_deep": run_cli_deep}
