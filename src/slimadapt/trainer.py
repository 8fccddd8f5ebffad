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
            its task prediction, a constant target, supervises the
            remaining models through their task heads.

Every step samples a model batch that always contains the largest and the
smallest configurations.  In `_model_batch`, each model runs one feature
forward per domain and reads its heads from one `routed_probs` record:
every (head, domain) is evaluated once, and the losses, the ensemble and
the teacher targets all read that record, which builds only the heads
they read.  A mode only lists its weighted loss terms and its models' loss
parts; `_apply_step` is the one place a step is fused, checked and
applied.  It sums the weighted terms into one scalar and runs one
backward over it: routing is structural (classifier-side losses read the
route whose gradient reaches only the heads, extractor-side losses the
route whose gradient reaches only the features), so the two optimization
roles touch disjoint parameters and never mix.  The resulting gradient is
applied in one all-or-nothing SGD update over the whole bank, parameters
the step never reached getting a zero gradient.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import SgdState, Tensor, lr_schedule, sgd_step
from .datasets import DomainDataset, batches
from .errors import ConfigError, NumericError, UsageError, is_int_at_least
from .losses import domain_confusion_targets, one_hot
from .seeding import named_rng
from .slimnet import Architecture, ParamStore, WidthConfig

__all__ = [
    "MODES",
    "ConfidencePolicy",
    "TrainerConfig",
    "init_bank",
    "sample_width_configs",
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

METRIC_KEYS = ("loss_task", "loss_dd", "loss_conf", "loss_ent", "loss_seed")
PROBE_KEYS = ("probe_acc_1", "probe_acc_64th")  # the full and the smallest config's accuracy


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
        if not self.s >= 0:  # written so that NaN fails it
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
    lr0: ClassVar[float] = 0.01
    lr_alpha: ClassVar[float] = 10.0
    lr_beta: ClassVar[float] = 0.75
    momentum: ClassVar[float] = 0.9

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name, minimum in (("epochs", 0), ("batch_size", 2), ("model_batch_size", 2), ("seed", 0)):
            if not is_int_at_least(value := getattr(self, name), minimum):
                raise ConfigError(f"{name} must be >= {minimum}, got {value!r}; integers only")
        if not self.tau > 0:  # written so that NaN fails it
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not 0 <= self.w_ent < np.inf:
            raise ConfigError(f"w_ent must be finite and >= 0, got {self.w_ent}")


def init_bank(arch: Architecture, seed: int) -> ParamStore:
    """Fresh parameter bank initialized from the named 'init' stream."""
    return ParamStore(arch, named_rng(seed, "init"))


def sample_width_configs(rng: np.random.Generator, arch: Architecture, m: int) -> list[WidthConfig]:
    """m configs sorted by FLOPs descending: the full and the smallest
    configuration always, plus m-2 with per-block widths drawn uniformly
    over the legal range."""
    if not is_int_at_least(m, 2):
        raise UsageError(f"model batch size must be >= 2, got {m}")
    configs = [arch.full_config(), arch.smallest_config()]
    lows, highs = arch.min_widths(), arch.block_max_widths
    for _ in range(m - 2):
        widths = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs))
        configs.append(arch.make_config(widths))
    configs.sort(key=lambda c: -c.flops)
    return configs


def confidence(configs, policy: ConfidencePolicy, arch: Architecture) -> np.ndarray:
    """Confidence weights from capacity ratios r_j = FLOPs_j / FLOPs_full."""
    full = arch.full_config().flops
    r = np.array([c.flops / full for c in configs])
    if policy.mode == "hard":
        return (r >= policy.lam).astype(np.float64)
    a = 2.0 * r - 1.0
    return 0.5 * np.sign(a) * np.abs(a) ** policy.s + 0.5


def ensemble(task_probs, confidences) -> np.ndarray:
    """Confidence-weighted mixture of the sampled models' task predictions
    (one array per model, in the order of `confidences`)."""
    weights = np.asarray(confidences, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise NumericError("ensemble weights sum to zero; the largest model must be confident")
    out = np.zeros_like(task_probs[0])
    for p, w in zip(task_probs, weights):
        if w:
            out += (w / total) * p
    return out


def sharpen(g: np.ndarray, tau: float) -> np.ndarray:
    """Temperature sharpening: raise to 1/tau and renormalize per row."""
    if not tau > 0:  # written so that NaN fails it
        raise UsageError(f"tau must be positive, got {tau}")
    powered = np.asarray(g, dtype=np.float64) ** (1.0 / tau)
    return powered / powered.sum(axis=1, keepdims=True)


def distillation_loss(routed_t, target_t: np.ndarray, routed_s, target_s: np.ndarray,
                      head: str = "a") -> tuple[Tensor, Tensor]:
    """Cross-entropy of one head's prediction against constant targets on
    both domains: `target_t` on the target batch plus `target_s` on the
    source batch.  `routed_t` and `routed_s` are a model's
    `routed_probs` records of those batches.

    slimda distils the ensemble target and the one-hot source labels into
    the deployment head ("a"); inplaced distils the teacher's task
    predictions into each student's task heads (head="task").
    Returns (classifier_loss, extractor_loss): one value, routed to the head
    only and to the features only.
    """
    def loss(route):
        return (ad.cross_entropy(ad.log(routed_t[route][head]), target_t)
                + ad.cross_entropy(ad.log(routed_s[route][head]), target_s))

    return loss(0), loss(1)


def _apply_step(bank: ParamStore, state: SgdState, terms, parts, loss_seed: float,
                mode: str) -> dict:
    """Fuse, check and apply one step's (weight, loss) terms: one backward
    over the sum of the non-zero-weight terms, then one all-or-nothing SGD
    update (zero gradient where the sum never reached).
    Returns the checked mean of the models' `DcLossParts` as step metrics.
    """
    total = None
    for w, loss in terms:
        if w == 0.0:
            continue
        term = loss * w
        total = term if total is None else total + term
    metrics = _step_metrics(parts, loss_seed, mode)
    grads = ad.gradients(total, bank.params)
    sgd_step(bank.params, {name: grads[name] if name in grads else np.zeros(p.shape)
                           for name, p in bank.params.items()}, state)
    return metrics


def _model_batch(bank: ParamStore, cfg: TrainerConfig, rng_model: np.random.Generator,
                 xs, xt, heads: tuple[str, ...]) -> tuple[list[WidthConfig], list[list]]:
    """The sampled configs and each model's `routed_probs` over `heads` per domain."""
    configs = sample_width_configs(rng_model, bank.arch, cfg.model_batch_size)
    models = [bank.slice(c) for c in configs]
    return configs, [[mdl.routed_probs(mdl.features(x), heads) for x in (xs, xt)]
                     for mdl in models]


def train_step(bank: ParamStore, state: SgdState, xs, ys, xt, cfg: TrainerConfig,
               rng_model: np.random.Generator) -> dict:
    """One slimda update over a freshly sampled model batch."""
    arch = bank.arch
    configs, routed = _model_batch(bank, cfg, rng_model, xs, xt, ("s", "t", "a"))
    conf = confidence(configs, cfg.policy, arch)
    m = len(configs)
    w_dc = conf / conf.sum()
    anti = 1.0 - conf
    w_seed = anti / anti.sum() if anti.sum() > 0 else np.zeros(m)
    ys_onehot = one_hot(ys, arch.class_count)

    # Ensemble target: confidence-weighted task predictions, sharpened,
    # then treated as a constant (no gradient reaches its sources).
    task_t = [to_features["task"].data for _, (_, to_features) in routed]
    g_seed = sharpen(ensemble(task_t, conf), cfg.tau)

    terms, parts, seed_vals = [], [], []
    for j, (rs, rt) in enumerate(routed):
        dc = domain_confusion_targets(rs, rt, ys, w_ent=cfg.w_ent)
        seed_cls, seed_ext = distillation_loss(rt, g_seed, rs, ys_onehot)
        terms += [(1.0 / m, dc.classifier_loss), (1.0 / m, seed_cls),
                  (w_dc[j], dc.extractor_loss), (w_seed[j], seed_ext)]
        parts.append(dc.parts)
        seed_vals.append(seed_cls.item())
    return _apply_step(bank, state, terms, parts, float(np.mean(seed_vals)), cfg.mode)


def train_step_baseline(bank: ParamStore, state: SgdState, xs, ys, xt, cfg: TrainerConfig,
                        rng_model: np.random.Generator) -> dict:
    """One step of plain model-batch averaging of the confusion losses."""
    configs, routed = _model_batch(bank, cfg, rng_model, xs, xt, ("s", "t"))
    m = len(configs)
    terms, parts = [], []
    for rs, rt in routed:
        dc = domain_confusion_targets(rs, rt, ys, w_ent=cfg.w_ent)
        terms += [(1.0 / m, dc.classifier_loss), (1.0 / m, dc.extractor_loss)]
        parts.append(dc.parts)
    return _apply_step(bank, state, terms, parts, 0.0, cfg.mode)


def train_step_inplaced(bank: ParamStore, state: SgdState, xs, ys, xt, cfg: TrainerConfig,
                        rng_model: np.random.Generator) -> dict:
    """One step of largest-teaches-the-rest distillation.

    The largest model trains with the confusion losses; every other model
    matches the teacher's task prediction (a constant) on both domains, the
    gradient reaching its task heads and its features alike.
    """
    configs, routed = _model_batch(bank, cfg, rng_model, xs, xt, ("s", "t"))
    m = len(configs)
    dc = domain_confusion_targets(*routed[0], ys, w_ent=cfg.w_ent)
    teacher_s, teacher_t = (to_features["task"].data for _, to_features in routed[0])

    terms = [(1.0 / m, dc.classifier_loss), (1.0 / m, dc.extractor_loss)]
    distill_vals = []
    for rs, rt in routed[1:]:
        d_cls, d_ext = distillation_loss(rt, teacher_t, rs, teacher_s, head="task")
        terms += [(1.0 / m, d_cls), (1.0 / m, d_ext)]
        distill_vals.append(d_cls.item())
    return _apply_step(bank, state, terms, [dc.parts], float(np.mean(distill_vals)), cfg.mode)


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
MODES = tuple(_STEP_FNS)


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
        for key, probe in zip(PROBE_KEYS, probes):
            row[key] = (None if eval_labels is None
                        else config_accuracy(bank, probe, dataset.xt, eval_labels, head))
        row["seconds"] = time.perf_counter() - t0
        log.append(row)
    return log
