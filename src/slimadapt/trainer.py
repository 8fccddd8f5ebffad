"""Joint training of the width-slimmable model bank.

Three update rules share one data/model sampling pipeline so ablations
differ only in how gradients are produced:

  slimda    confusion training plus stochastic ensemble distillation: each
            step ensembles the task predictions of the *confident* (large)
            sampled models into a sharpened target distribution, distills
            it into every model's deployment head, and mixes extractor
            gradients by model confidence (confident models follow the
            confusion losses, the rest follow distillation).
  baseline  plain averaging of the confusion-loss gradients over the
            sampled model batch; the deployment head is never trained.
  inplaced  the largest sampled model trains with the confusion losses and
            its detached task prediction supervises the remaining models
            through their task heads.

Every step samples a model batch that always contains the largest and the
smallest configurations.  A mode only lists its weighted losses and its
models' loss parts; `_apply_step` is the one place a step is fused,
checked, recorded and applied.  It sums the weighted losses into one
scalar and runs one backward over it: routing is structural
(classifier-side losses see detached features, extractor-side losses see
frozen heads), so the two optimization roles touch disjoint parameters and
never mix.  The resulting gradient is applied in one all-or-nothing SGD
update over the whole bank, parameters the step never reached getting a
zero gradient.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import SgdState, Tensor, lr_schedule, sgd_step
from .datasets import DomainDataset, batches
from .errors import ConfigError, NumericError, UsageError
from .losses import _log, domain_confusion_targets, one_hot
from .seeding import named_rng
from .slimnet import Architecture, ParamStore, SlimModel, WidthConfig

__all__ = [
    "MODES",
    "ConfidencePolicy",
    "TrainerConfig",
    "ModelBatch",
    "init_bank",
    "sample_width_configs",
    "build_model_batch",
    "confidence",
    "ensemble",
    "sharpen",
    "distillation_loss",
    "train_step",
    "train_step_baseline",
    "train_step_inplaced",
    "train",
    "deploy_head",
]

MODES = ("slimda", "baseline", "inplaced")

METRIC_KEYS = ("loss_task", "loss_dd", "loss_conf", "loss_ent", "loss_seed")


@dataclass(frozen=True)
class ConfidencePolicy:
    """Capacity-ratio confidence of a sampled model.

    hard:    1 if ratio >= lam else 0
    general: 0.5 * sign(2r - 1) * |2r - 1|**s + 0.5  (s -> 0 recovers the
             hard rule away from the threshold; s = 1 gives weight r)
    """

    lam: float = 0.5
    s: float = 0.0
    mode: str = "hard"

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if self.mode not in ("hard", "general"):
            raise ConfigError(f"confidence mode must be 'hard' or 'general', got {self.mode!r}")
        if self.s < 0:
            raise ConfigError(f"s must be >= 0, got {self.s}")


@dataclass(frozen=True)
class TrainerConfig:
    mode: str = "slimda"
    epochs: int = 14
    batch_size: int = 128
    model_batch_size: int = 10
    w_ent: float = 0.1
    tau: float = 0.5
    policy: ConfidencePolicy = field(default_factory=ConfidencePolicy)
    seed: int = 0
    lr0: float = 0.01
    lr_alpha: float = 10.0
    lr_beta: float = 0.75
    momentum: float = 0.9

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.model_batch_size < 2:
            raise ConfigError(f"model batch size must be >= 2, got {self.model_batch_size}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")


@dataclass
class ModelBatch:
    """The sub-models sampled for one step, capacity-descending."""

    models: list[SlimModel]
    confidences: np.ndarray | None = None

    @property
    def m(self) -> int:
        return len(self.models)

    @property
    def configs(self) -> list[WidthConfig]:
        return [mdl.config for mdl in self.models]


def init_bank(arch: Architecture, seed: int) -> ParamStore:
    """Fresh parameter bank initialized from the named 'init' stream."""
    return ParamStore(arch, named_rng(seed, "init"))


def sample_width_configs(rng: np.random.Generator, arch: Architecture, m: int) -> list[WidthConfig]:
    """m configs sorted by FLOPs descending: the full and the smallest
    configuration always, plus m-2 with per-block widths drawn uniformly
    over the legal range."""
    if m < 2:
        raise UsageError(f"model batch size must be >= 2, got {m}")
    configs = [arch.full_config(), arch.smallest_config()]
    lows, highs = arch.min_widths(), arch.block_max_widths
    for _ in range(m - 2):
        widths = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs))
        configs.append(arch.make_config(widths))
    configs.sort(key=lambda c: -c.flops)
    return configs


def confidence(configs_or_batch, policy: ConfidencePolicy, arch: Architecture | None = None) -> np.ndarray:
    """Confidence weights from capacity ratios r_j = FLOPs_j / FLOPs_full."""
    if isinstance(configs_or_batch, ModelBatch):
        configs = configs_or_batch.configs
        arch = configs_or_batch.models[0].arch
    else:
        configs = list(configs_or_batch)
        if arch is None:
            raise UsageError("confidence over raw configs needs the architecture")
    full = arch.full_config().flops
    r = np.array([c.flops / full for c in configs])
    if policy.mode == "hard":
        return (r >= policy.lam).astype(np.float64)
    a = 2.0 * r - 1.0
    return 0.5 * np.sign(a) * np.abs(a) ** policy.s + 0.5


def build_model_batch(bank: ParamStore, configs, policy: ConfidencePolicy | None = None) -> ModelBatch:
    models = [bank.slice(c) for c in configs]
    conf = confidence(configs, policy, bank.arch) if policy is not None else None
    return ModelBatch(models=models, confidences=conf)


def _weighted_mixture(prob_list, weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise NumericError("ensemble weights sum to zero; the largest model must be confident")
    out = np.zeros_like(prob_list[0])
    for p, w in zip(prob_list, weights):
        if w:
            out += (w / total) * p
    return out


def _task_probs(model: SlimModel, feats: Tensor) -> np.ndarray:
    """`model`'s task prediction on `feats` as a constant array (no graph)."""
    with ad.no_grad():
        return model.probs(feats, "task").data


def ensemble(batch: ModelBatch, confidences, xt: np.ndarray) -> np.ndarray:
    """Confidence-weighted mixture of the sampled models' task predictions
    on target data (train-mode forward, no gradients)."""
    with ad.no_grad():
        probs = [_task_probs(mdl, mdl.features(xt, mode="train")) for mdl in batch.models]
    return _weighted_mixture(probs, confidences)


def sharpen(g: np.ndarray, tau: float) -> np.ndarray:
    """Temperature sharpening: raise to 1/tau and renormalize per row."""
    if tau <= 0:
        raise UsageError(f"tau must be positive, got {tau}")
    powered = np.asarray(g, dtype=np.float64) ** (1.0 / tau)
    return powered / powered.sum(axis=1, keepdims=True)


def distillation_loss(model: SlimModel, target_t: np.ndarray, feats_t: Tensor,
                      feats_s: Tensor, target_s: np.ndarray,
                      head: str = "a") -> tuple[Tensor, Tensor]:
    """Cross-entropy of one head's prediction against constant targets on
    both domains: `target_t` on target features plus `target_s` on source
    features.

    slimda distils the ensemble target and the one-hot source labels into
    the deployment head ("a"); inplaced distils the teacher's detached
    task predictions into each student's task heads (head="task").
    Returns (classifier_loss, extractor_loss): one value, routed to the head
    only (detached features) and to the features only (frozen head).
    """
    def routed(ft, fs, frozen):
        p_t = model.probs(ft, head, frozen=frozen)
        p_s = model.probs(fs, head, frozen=frozen)
        return ad.cross_entropy(_log(p_t), target_t) + ad.cross_entropy(_log(p_s), target_s)

    return routed(feats_t.detach(), feats_s.detach(), False), routed(feats_t, feats_s, True)


def _apply_step(bank: ParamStore, state: SgdState, terms, parts, loss_seed: float, mode: str,
                capture: dict | None, **record) -> dict:
    """Fuse, check, record and apply one step's (capture key, weight, loss)
    terms: one backward over the sum of the non-zero-weight terms, then one
    all-or-nothing SGD update (zero gradient where the sum never reached).
    Returns the checked mean of the models' `DcLossParts` as step metrics.
    `capture` receives `record`, one gradient dict per term under its key
    (one extra backward each) and the "c."/"f." parts of the fused gradient.
    """
    total = None
    for _, w, loss in terms:
        if w == 0.0:
            continue
        term = loss * w
        total = term if total is None else total + term
    metrics = _step_metrics(parts, loss_seed, mode)
    grads = ad.gradients(total, bank.params)
    if capture is not None:
        capture.update(record, **{key: [] for key, _, _ in terms})
        for key, _, loss in terms:
            capture[key].append(ad.gradients(loss, bank.params))
        capture["cls_grads"] = {n: g for n, g in grads.items() if n.startswith("c.")}
        capture["ext_grads"] = {n: g for n, g in grads.items() if n.startswith("f.")}
    sgd_step(bank.params, {name: grads[name] if name in grads else np.zeros(p.shape)
                           for name, p in bank.params.items()}, state)
    return metrics


def train_step(bank: ParamStore, state: SgdState, xs, ys, xt, cfg: TrainerConfig,
               rng_model: np.random.Generator, capture: dict | None = None) -> dict:
    """One slimda update over a freshly sampled model batch."""
    arch = bank.arch
    configs = sample_width_configs(rng_model, arch, cfg.model_batch_size)
    batch = build_model_batch(bank, configs, cfg.policy)
    conf = batch.confidences
    m = batch.m
    w_dc = conf / conf.sum()
    anti = 1.0 - conf
    w_seed = anti / anti.sum() if anti.sum() > 0 else np.zeros(m)
    ys_onehot = one_hot(ys, arch.class_count)

    feats = [(mdl.features(xs, mode="train"), mdl.features(xt, mode="train"))
             for mdl in batch.models]

    # Ensemble target: confidence-weighted task predictions, sharpened,
    # then treated as a constant (no gradient reaches its sources).
    prob_list = [_task_probs(mdl, ft) for mdl, (_, ft) in zip(batch.models, feats)]
    g_seed = sharpen(_weighted_mixture(prob_list, conf), cfg.tau)

    terms, parts, seed_vals = [], [], []
    for j, (mdl, (fs, ft)) in enumerate(zip(batch.models, feats)):
        dc = domain_confusion_targets(mdl, xs, ys, xt, w_ent=cfg.w_ent, feats_s=fs, feats_t=ft)
        seed_cls, seed_ext = distillation_loss(mdl, g_seed, ft, fs, ys_onehot)
        terms += [("per_dc_cls", 1.0 / m, dc.classifier_loss), ("per_seed_cls", 1.0 / m, seed_cls),
                  ("per_dc_ext", w_dc[j], dc.extractor_loss), ("per_seed_ext", w_seed[j], seed_ext)]
        parts.append(dc.parts)
        seed_vals.append(seed_cls.item())
    return _apply_step(bank, state, terms, parts, float(np.mean(seed_vals)), cfg.mode, capture,
                       configs=configs, confidences=conf, g_seed=g_seed)


def train_step_baseline(bank: ParamStore, state: SgdState, xs, ys, xt, cfg: TrainerConfig,
                        rng_model: np.random.Generator, capture: dict | None = None) -> dict:
    """One step of plain model-batch averaging of the confusion losses."""
    configs = sample_width_configs(rng_model, bank.arch, cfg.model_batch_size)
    batch = build_model_batch(bank, configs, cfg.policy)
    m = batch.m

    terms, parts = [], []
    for mdl in batch.models:
        dc = domain_confusion_targets(mdl, xs, ys, xt, w_ent=cfg.w_ent)
        terms += [("per_cls", 1.0 / m, dc.classifier_loss), ("per_ext", 1.0 / m, dc.extractor_loss)]
        parts.append(dc.parts)
    return _apply_step(bank, state, terms, parts, 0.0, cfg.mode, capture, configs=configs)


def train_step_inplaced(bank: ParamStore, state: SgdState, xs, ys, xt, cfg: TrainerConfig,
                        rng_model: np.random.Generator, capture: dict | None = None) -> dict:
    """One step of largest-teaches-the-rest distillation.

    The largest model trains with the confusion losses; every other model
    matches the teacher's detached task prediction on both domains, the
    gradient reaching its task heads and its features alike.
    """
    configs = sample_width_configs(rng_model, bank.arch, cfg.model_batch_size)
    batch = build_model_batch(bank, configs, cfg.policy)
    teacher = batch.models[0]
    m = batch.m

    fs, ft = teacher.features(xs, mode="train"), teacher.features(xt, mode="train")
    dc = domain_confusion_targets(teacher, xs, ys, xt, w_ent=cfg.w_ent, feats_s=fs, feats_t=ft)
    teacher_s, teacher_t = _task_probs(teacher, fs), _task_probs(teacher, ft)

    terms = [("per_cls", 1.0 / m, dc.classifier_loss), ("per_ext", 1.0 / m, dc.extractor_loss)]
    distill_vals = []
    for mdl in batch.models[1:]:
        fs = mdl.features(xs, mode="train")
        ft = mdl.features(xt, mode="train")
        d_cls, d_ext = distillation_loss(mdl, teacher_t, ft, fs, teacher_s, head="task")
        terms += [("per_cls", 1.0 / m, d_cls), ("per_ext", 1.0 / m, d_ext)]
        distill_vals.append(d_cls.item())
    return _apply_step(bank, state, terms, [dc.parts], float(np.mean(distill_vals)), cfg.mode,
                       capture, configs=configs, teacher_t=teacher_t)


def _step_metrics(parts, loss_seed: float, mode: str) -> dict:
    """Mean of the models' loss parts; a non-finite value is a NumericError."""
    mean = np.sum([astuple(p) for p in parts], axis=0) / len(parts)
    vals = dict(loss_task=mean[0] + mean[1], loss_dd=mean[2], loss_conf=mean[3] + mean[4],
                loss_ent=mean[5], loss_seed=loss_seed)
    ad.check_finite(np.array(list(vals.values())), f"the {mode} step's losses {vals}")
    return vals


_STEP_FNS = {
    "slimda": train_step,
    "baseline": train_step_baseline,
    "inplaced": train_step_inplaced,
}


def deploy_head(mode: str) -> str:
    """Which head a trained bank predicts with: the distilled deployment
    head for slimda, the task heads otherwise."""
    return "a" if mode == "slimda" else "task"


def train(bank: ParamStore, dataset: DomainDataset, cfg: TrainerConfig,
          eval_labels: np.ndarray | None = None) -> list[dict]:
    """Run the configured mode for cfg.epochs epochs over the dataset.

    Returns one metrics dict per epoch (its step count, mean loss parts
    over those steps, wall seconds, and — when `eval_labels` is supplied for
    diagnostics — target accuracies of the full-width and smallest probe
    models after AdaBN).  The labels are used for probing only and never
    feed back into any update.
    """
    from .search import config_accuracy  # local import keeps modules acyclic

    step_fn = _STEP_FNS[cfg.mode]
    rng_data = named_rng(cfg.seed, "data")
    rng_model = named_rng(cfg.seed, "model")
    state = SgdState(lr=cfg.lr0, momentum=cfg.momentum)
    head = deploy_head(cfg.mode)
    probes = (bank.arch.full_config(), bank.arch.smallest_config())

    log: list[dict] = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        state.lr = lr_schedule(epoch / max(cfg.epochs - 1, 1),
                               base=cfg.lr0, alpha=cfg.lr_alpha, beta=cfg.lr_beta)
        sums = dict.fromkeys(METRIC_KEYS, 0.0)
        steps = 0
        for xs, ys, xt in batches(dataset, cfg.batch_size, rng_data):
            metrics = step_fn(bank, state, xs, ys, xt, cfg, rng_model)
            for k in METRIC_KEYS:
                sums[k] += metrics[k]
            steps += 1
        row = {"epoch": epoch, "mode": cfg.mode, "steps": steps}
        row.update({k: sums[k] / max(steps, 1) for k in METRIC_KEYS})
        for key, probe in zip(("probe_acc_1", "probe_acc_64th"), probes):
            row[key] = (None if eval_labels is None
                        else config_accuracy(bank, probe, dataset.xt, eval_labels, head))
        row["seconds"] = time.perf_counter() - t0
        log.append(row)
    return log
