"""Bi-classifier domain-confusion losses and their gradient routing.

The loss family couples two task heads ("s", "t") and their shared-neuron
2K-way joint softmax ("st"):

  task discrimination   -mean log g^s_y(x^s) - mean log g^t_y(x^s)
  domain discrimination -mean log sum_{k<=K} g^st_k(x^s)
                        -mean log sum_{k>K}  g^st_k(x^t)
  category confusion    -(1/2) mean [log g^st_y(x^s) + log g^st_{y+K}(x^s)]
  domain confusion      -mean log src-half(x^t) - mean log tgt-half(x^t)
  entropy minimization   mean Shannon entropy of the task prediction on x^t

Routing is structural, not a sign trick: the losses read the two routes of
the `SlimModel.routed_probs` records that the caller builds, one per domain
(nothing here runs a forward).  Classifier-side losses read `to_heads`, whose
gradient reaches only the heads, so they can never move the extractor;
extractor-side losses read `to_features`, whose gradient reaches only the
features, so they can never move the classifiers.

The task and category terms are `autodiff.cross_entropy` against constant
targets, the domain terms the log of a joint-head half's mass.  Every log
is `autodiff.log`, clamped to [`PROB_FLOOR`, 1] = [1e-12, 1], since the raw
objectives diverge as any referenced probability reaches zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import PROB_FLOOR, Tensor
from .errors import UsageError

__all__ = [
    "PROB_FLOOR",
    "DcLossParts",
    "domain_confusion_targets",
    "one_hot",
]


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise UsageError(f"labels outside [0, {classes})")
    return np.eye(classes)[labels]


def _half_log_mean(gst: Tensor, k: int, half: int) -> Tensor:
    """Mean log mass of the joint head's source (half 0) or target (half 1)
    half."""
    return ad.log(ad.slice_cols(gst, half * k, (half + 1) * k).sum(axis=1)).mean()


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

    classifier_loss drives the task heads only (it reads the `to_heads`
    route); extractor_loss drives the feature extractor only (it reads the
    `to_features` route).  Backward on one never touches the other's
    parameters.
    """

    classifier_loss: Tensor
    extractor_loss: Tensor
    parts: DcLossParts


def domain_confusion_targets(routed_s: tuple, routed_t: tuple, ys: np.ndarray,
                             w_ent: float = 0.1) -> DcGradTargets:
    """Both routed loss roles of one model's confusion losses, from its
    `routed_probs` records of the source batch (`routed_s`, labels `ys`)
    and the target batch (`routed_t`); K is the width of their "s" head."""
    (cls_s, ext_s), (cls_t, ext_t) = routed_s, routed_t
    k = cls_s["s"].shape[1]
    labels = one_hot(ys, k)

    task_s = ad.cross_entropy(ad.log(cls_s["s"]), labels)
    task_t = ad.cross_entropy(ad.log(cls_s["t"]), labels)
    disc = -_half_log_mean(cls_s["st"], k, 0) - _half_log_mean(cls_t["st"], k, 1)
    classifier_loss = task_s + task_t + disc

    cat = ad.cross_entropy(ad.log(ext_s["st"]), 0.5 * np.concatenate([labels, labels], axis=1))
    # Per target row this is -log a - log(1-a) over the source-half mass a,
    # minimized at 2 ln 2 when each domain half holds exactly 1/2.
    dom = -(_half_log_mean(ext_t["st"], k, 0) + _half_log_mean(ext_t["st"], k, 1))
    extractor_loss = cat + dom
    p = ext_t["task"]
    ent = -(p * ad.log(p)).sum(axis=1).mean()
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
