"""Bi-classifier domain-confusion losses and their gradient routing.

The loss family couples two task heads ("s", "t") and their shared-neuron
2K-way joint softmax ("st"):

  task discrimination   -mean log g^s_y(x^s) - mean log g^t_y(x^s)
  domain discrimination -mean log sum_{k<=K} g^st_k(x^s)
                        -mean log sum_{k>K}  g^st_k(x^t)
  category confusion    -(1/2) mean [log g^st_y(x^s) + log g^st_{y+K}(x^s)]
  domain confusion      -mean log src-half(x^t) - mean log tgt-half(x^t)
  entropy minimization   mean Shannon entropy of the task prediction on x^t

Routing is structural, not a sign trick: classifier-side losses see
*detached features* so they can never move the extractor; extractor-side
losses see *frozen heads* so they can never move the classifiers.

Probabilities are clamped to [1e-12, 1] inside every log, since the raw
objectives diverge as any referenced probability reaches zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import UsageError
from .slimnet import SlimModel

__all__ = [
    "PROB_FLOOR",
    "DcLossParts",
    "task_discrimination_loss",
    "domain_discrimination_loss",
    "domain_confusion_targets",
    "one_hot",
]

PROB_FLOOR = 1e-12


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise UsageError(f"labels outside [0, {classes})")
    return np.eye(classes)[labels]


def _log(p: Tensor) -> Tensor:
    return ad.log(ad.clip(p, PROB_FLOOR, 1.0))


def _picked_log_prob(probs: Tensor, labels: np.ndarray, classes: int) -> Tensor:
    """Row-wise log probability of each row's labelled class."""
    mask = one_hot(labels, classes)
    return _log((probs * mask).sum(axis=1))


@dataclass
class DcLossParts:
    """Scalar values of the individual confusion-loss terms (all >= 0)."""

    task_s: float
    task_t: float
    domain_disc: float
    cat_confusion: float
    dom_confusion: float
    entropy_min: float


@dataclass
class DcGradTargets:
    """The two optimization roles of one model's confusion losses.

    classifier_loss drives the task heads only (features are detached
    inside); extractor_loss drives the feature extractor only (head
    parameters are frozen inside).  Backward on one never touches the
    other's parameters.
    """

    classifier_loss: Tensor
    extractor_loss: Tensor
    parts: DcLossParts


# -- classifier-side losses ----------------------------------------------


def _task_terms(model: SlimModel, feats_s: Tensor, ys: np.ndarray) -> tuple[Tensor, Tensor]:
    k = model.arch.class_count
    term_s = -_picked_log_prob(model.probs(feats_s, "s"), ys, k).mean()
    term_t = -_picked_log_prob(model.probs(feats_s, "t"), ys, k).mean()
    return term_s, term_t


def _domain_disc(model: SlimModel, feats_s: Tensor, feats_t: Tensor) -> Tensor:
    k = model.arch.class_count
    src_half = ad.slice_cols(model.probs(feats_s, "st"), 0, k).sum(axis=1)
    tgt_half = ad.slice_cols(model.probs(feats_t, "st"), k, 2 * k).sum(axis=1)
    return -_log(src_half).mean() - _log(tgt_half).mean()


def task_discrimination_loss(model: SlimModel, xs: np.ndarray, ys: np.ndarray) -> Tensor:
    """Both task heads' cross-entropy on labelled source data (heads only)."""
    feats = model.features(xs, mode="train").detach()
    a, b = _task_terms(model, feats, ys)
    return a + b


def domain_discrimination_loss(model: SlimModel, xs: np.ndarray, xt: np.ndarray) -> Tensor:
    """Joint-softmax domain discrimination (heads only)."""
    fs = model.features(xs, mode="train").detach()
    ft = model.features(xt, mode="train").detach()
    return _domain_disc(model, fs, ft)


# -- extractor-side losses ------------------------------------------------


def _cat_confusion(model: SlimModel, feats_s: Tensor, ys: np.ndarray) -> Tensor:
    k = model.arch.class_count
    gst = model.probs(feats_s, "st", frozen=True)
    src_pick = _picked_log_prob(gst, ys, 2 * k)
    tgt_pick = _picked_log_prob(gst, np.asarray(ys) + k, 2 * k)
    return -0.5 * (src_pick.mean() + tgt_pick.mean())


def _dom_confusion(model: SlimModel, feats_t: Tensor) -> Tensor:
    # Per target row this is -log a - log(1-a) over the source-half mass a,
    # minimized at 2 ln 2 when each domain half holds exactly 1/2.
    k = model.arch.class_count
    gst = model.probs(feats_t, "st", frozen=True)
    src_half = ad.slice_cols(gst, 0, k).sum(axis=1)
    tgt_half = ad.slice_cols(gst, k, 2 * k).sum(axis=1)
    return -(_log(src_half).mean() + _log(tgt_half).mean())


def _entropy(model: SlimModel, feats_t: Tensor) -> Tensor:
    p = model.probs(feats_t, "task", frozen=True)
    return -(p * _log(p)).sum(axis=1).mean()


# -- combined per-model objective -----------------------------------------


def domain_confusion_targets(
    model: SlimModel,
    xs: np.ndarray,
    ys: np.ndarray,
    xt: np.ndarray,
    w_ent: float = 0.1,
    feats_s: Tensor | None = None,
    feats_t: Tensor | None = None,
) -> DcGradTargets:
    """Build both routed loss roles from one pair of feature forwards.

    Precomputed features may be injected so a caller evaluating several
    losses per model pays for each forward pass once.
    """
    if feats_s is None:
        feats_s = model.features(xs, mode="train")
    if feats_t is None:
        feats_t = model.features(xt, mode="train")

    fs_d, ft_d = feats_s.detach(), feats_t.detach()
    task_s, task_t = _task_terms(model, fs_d, ys)
    disc = _domain_disc(model, fs_d, ft_d)
    classifier_loss = task_s + task_t + disc

    cat = _cat_confusion(model, feats_s, ys)
    dom = _dom_confusion(model, feats_t)
    extractor_loss = cat + dom
    ent = _entropy(model, feats_t)
    if w_ent:
        extractor_loss = extractor_loss + w_ent * ent

    parts = DcLossParts(
        task_s=task_s.item(),
        task_t=task_t.item(),
        domain_disc=disc.item(),
        cat_confusion=cat.item(),
        dom_confusion=dom.item(),
        entropy_min=ent.item(),
    )
    return DcGradTargets(classifier_loss=classifier_loss, extractor_loss=extractor_loss, parts=parts)
