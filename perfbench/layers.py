"""Per-layer metrics computed from a traced run's spans and counters.

Op kinds (set by the workloads): "step.<mode>" and "batch.<mode>" on
train, "ladder", "score" and "sample" on search, "command.correlate" and
"command.search" on cli_deep, and "setup" everywhere.  Every metric is
emitted on every workload; one that does not apply reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .tracing import BACKWARD_NODES, TENSORS, inside, self_times

MODES = ("slimda", "baseline", "inplaced")

# (metric suffix, span name, what, unit); `what` is "calls" or "ms".
STEP_SPANS = (
    ("autodiff.backward.calls_per_step", "autodiff.backward", "calls", "count"),
    ("autodiff.backward.ms_per_step", "autodiff.backward", "ms", "ms"),
    ("autodiff.matmul.calls_per_step", "autodiff.matmul", "calls", "count"),
    ("autodiff.matmul.ms_per_step", "autodiff.matmul", "ms", "ms"),
    ("autodiff.batchnorm.ms_per_step", "autodiff.batchnorm", "ms", "ms"),
    ("autodiff.leading_slice.calls_per_step", "autodiff.leading_slice", "calls", "count"),
    ("autodiff.sgd_step.ms_per_step", "autodiff.sgd_step", "ms", "ms"),
    ("losses.domain_confusion_targets.calls_per_step", "losses.domain_confusion_targets",
     "calls", "count"),
    ("losses.domain_confusion_targets.ms_per_step", "losses.domain_confusion_targets",
     "ms", "ms"),
    ("trainer.distillation_loss.ms_per_step", "trainer.distillation_loss", "ms", "ms"),
    ("trainer.sample_width_configs.ms_per_step", "trainer.sample_width_configs", "ms", "ms"),
    ("slimnet.features.train.ms_per_step", "slimnet.features.train", "ms", "ms"),
)

SCORE_SPANS = (
    ("autodiff.matmul.calls_per_score", "autodiff.matmul", "calls", "count"),
    ("autodiff.matmul.ms_per_score", "autodiff.matmul", "ms", "ms"),
    ("autodiff.batchnorm.ms_per_score", "autodiff.batchnorm", "ms", "ms"),
    ("autodiff.leading_slice.calls_per_score", "autodiff.leading_slice", "calls", "count"),
)

# Mean cost of one call, over every measured op (set-up excluded).
CALL_SPANS = (
    ("slimnet.adabn_recalibrate.ms_per_call", "slimnet.adabn_recalibrate"),
    ("slimnet.predict.ms_per_call", "slimnet.predict"),
    ("search.sample_config_at_budget.ms_per_call", "search.sample_config_at_budget"),
    ("checkpoint.load_checkpoint.ms_per_call", "checkpoint.load_checkpoint"),
    ("datasets.load_dataset.ms_per_call", "datasets.load_dataset"),
)

LADDER = "search.inherited_greedy_search"
ADABN = "slimnet.adabn_recalibrate"


def metric_names() -> list[str]:
    """Every per-layer metric name, in output order."""
    names = []
    for m in MODES:
        names += [f"{s[0]}.{m}" for s in STEP_SPANS]
        names += [f"autodiff.backward.nodes_per_step.{m}", f"autodiff.tensors_per_step.{m}",
                  f"trainer.step.self_ms.{m}", f"datasets.batches.wait_ms_per_step.{m}"]
    names += [s[0] for s in SCORE_SPANS] + ["autodiff.tensors_per_score"]
    names += [s[0] for s in CALL_SPANS]
    names += ["slimnet.adabn_recalibrate.matmuls_per_call", "jsonio.dump_exact.ms_per_call",
              "search.recalibrations_per_config", "search.ladder.self_ms",
              "search.candidates_per_ladder", "cli.command.self_ms"]
    return names


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count) for every metric of
    `metric_names()`; the count is the number of ops or calls averaged."""
    names, parents, kinds = tracer.names, tracer.parents, tracer.op_kinds
    span_kind = [kinds[op] if op >= 0 else None for op in tracer.ops]
    dur_ms = [(e - s) * 1e3 for s, e in zip(tracer.starts, tracer.ends)]
    own_ms = [t * 1e3 for t in self_times(tracer.starts, tracer.ends, parents)]
    in_adabn = inside(names, parents, ADABN)
    in_anchor = inside(names, parents, "search.anchor_probs")
    in_ladder = inside(names, parents, LADDER)
    n_ops = Counter(kinds)

    calls: dict[tuple, int] = defaultdict(int)
    ms: dict[tuple, float] = defaultdict(float)
    own: dict[tuple, float] = defaultdict(float)
    measured_calls: dict[str, int] = defaultdict(int)
    measured_ms: dict[str, float] = defaultdict(float)
    measured_own: dict[str, float] = defaultdict(float)
    adabn_matmuls = ladder_candidates = recals = 0
    for i, kind in enumerate(span_kind):
        if kind is None:
            continue
        name = names[i]
        key = (kind, name)
        calls[key] += 1
        ms[key] += dur_ms[i]
        own[key] += own_ms[i]
        if kind == "setup":
            continue
        measured_calls[name] += 1
        measured_ms[name] += dur_ms[i]
        measured_own[name] += own_ms[i]
        if name == "autodiff.matmul" and in_adabn[i]:
            adabn_matmuls += 1
        if name == "search.discrepancy_between" and in_ladder[i]:
            ladder_candidates += 1
        if name == ADABN and kind in ("score", "command.correlate") and not in_anchor[i]:
            recals += 1
    counter = defaultdict(int)
    for (op, name), n in tracer.counts.items():
        if op >= 0:
            counter[(kinds[op], name)] += n

    out: dict[str, tuple[float, str, int]] = {}
    for m in MODES:
        kind, n = "step." + m, n_ops["step." + m]
        for metric, span, what, unit in STEP_SPANS:
            total = calls[(kind, span)] if what == "calls" else ms[(kind, span)]
            out[f"{metric}.{m}"] = (_ratio(total, n), unit, n)
        out[f"autodiff.backward.nodes_per_step.{m}"] = (
            _ratio(counter[(kind, BACKWARD_NODES)], n), "count", n)
        out[f"autodiff.tensors_per_step.{m}"] = (_ratio(counter[(kind, TENSORS)], n), "count", n)
        out[f"trainer.step.self_ms.{m}"] = (_ratio(own[(kind, "op." + kind)], n), "ms", n)
        out[f"datasets.batches.wait_ms_per_step.{m}"] = (
            _ratio(ms[("batch." + m, "op.batch." + m)], n), "ms", n)

    n = n_ops["score"]
    for metric, span, what, unit in SCORE_SPANS:
        total = calls[("score", span)] if what == "calls" else ms[("score", span)]
        out[metric] = (_ratio(total, n), unit, n)
    out["autodiff.tensors_per_score"] = (_ratio(counter[("score", TENSORS)], n), "count", n)

    for metric, span in CALL_SPANS:
        c = measured_calls[span]
        out[metric] = (_ratio(measured_ms[span], c), "ms", c)
    c = measured_calls[ADABN]
    out["slimnet.adabn_recalibrate.matmuls_per_call"] = (_ratio(adabn_matmuls, c), "count", c)
    c = calls[("setup", "jsonio.dump_exact")]
    out["jsonio.dump_exact.ms_per_call"] = (_ratio(ms[("setup", "jsonio.dump_exact")], c), "ms", c)

    # Configs scored: one per score op on search; on cli_deep, each config
    # correlate samples.  The anchor's own recalibration is not counted.
    recal_configs = n_ops["score"] + calls[("command.correlate", "search.sample_config_at_budget")]
    out["search.recalibrations_per_config"] = (_ratio(recals, recal_configs), "count",
                                               recal_configs)
    c = measured_calls[LADDER]
    out["search.ladder.self_ms"] = (_ratio(measured_own[LADDER], c), "ms", c)
    out["search.candidates_per_ladder"] = (_ratio(ladder_candidates, c), "count", c)
    commands = [k for k in n_ops if k.startswith("command.")]
    c = sum(n_ops[k] for k in commands)
    out["cli.command.self_ms"] = (_ratio(sum(own[(k, "op." + k)] for k in commands), c), "ms", c)
    return out
