"""Width-slimmable fully connected networks over a shared parameter store.

One full-width parameter bank holds every layer's weights and BN affine
parameters, plus three disjoint classifier heads: two task heads
("s" and "t") that carry the domain-confusion training, and a deployment
head ("a") that receives distilled knowledge.  A sub-model of any legal
width is a *view*: each layer uses the leading in_width x out_width corner
of the full weight matrix, and classifiers use the leading feature
columns.  Gradients flow back through those slices, so everything outside
a sub-model's region receives exactly zero.  Linear layers carry no bias:
the BN after each one subtracts the mean of the same rows, cancelling it.

BN statistics are never stored during training (train mode always uses
batch statistics).  Before a sub-model is evaluated it must be
recalibrated on target data: `adabn_recalibrate` recomputes exact
population statistics in one pass of L layer forwards (L = BN layers),
carrying each batch's activations from layer to layer, which makes
evaluation independent of sample order and batching.  The pass keeps the
target set's final features, so `SlimModel.calibrated_probs` reads any
head's target predictions without a second forward; they equal
`predict(target_x)` bit for bit, since both run the same ops on the same
256-row batches.  `features` and the recalibration pass walk the same
sliced layers (`SlimModel.layers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, UsageError

__all__ = [
    "Architecture",
    "WidthConfig",
    "BnStats",
    "ParamStore",
    "SlimModel",
    "flops_per_sample",
    "flops_step",
    "adabn_recalibrate",
]

BN_EPS = 1e-5


@dataclass(frozen=True)
class Architecture:
    """Static shape of the model bank.

    block_max_widths gives each block's full channel count; every block is
    `layers_per_block` Linear->BN->ReLU layers at the block's width.  The
    feature dimension equals the last block's active width.
    """

    input_dim: int
    block_max_widths: tuple[int, ...]
    layers_per_block: int = 1
    class_count: int = 2

    def __post_init__(self):
        object.__setattr__(self, "block_max_widths", tuple(int(w) for w in self.block_max_widths))
        if self.input_dim < 1 or self.layers_per_block < 1 or self.class_count < 2:
            raise ConfigError(f"degenerate architecture: {self}")
        if not self.block_max_widths or any(w < 1 for w in self.block_max_widths):
            raise ConfigError(f"block widths must all be >= 1, got {self.block_max_widths}")

    @property
    def n_blocks(self) -> int:
        return len(self.block_max_widths)

    @property
    def feature_dim_full(self) -> int:
        return self.block_max_widths[-1]

    def min_widths(self) -> tuple[int, ...]:
        # Smallest legal sub-model: 1/8 of each block's channels, rounded up.
        return tuple(math.ceil(w / 8) for w in self.block_max_widths)

    def make_config(self, widths) -> "WidthConfig":
        widths = tuple(int(w) for w in widths)
        if len(widths) != self.n_blocks:
            raise ConfigError(f"config has {len(widths)} blocks, architecture has {self.n_blocks}")
        for w, lo, hi in zip(widths, self.min_widths(), self.block_max_widths):
            if not (lo <= w <= hi):
                raise ConfigError(f"width {w} outside legal range [{lo}, {hi}] in {widths}")
        return WidthConfig(widths=widths, flops=flops_per_sample(self, widths))

    def full_config(self) -> "WidthConfig":
        return self.make_config(self.block_max_widths)

    def smallest_config(self) -> "WidthConfig":
        return self.make_config(self.min_widths())


@dataclass(frozen=True)
class WidthConfig:
    """Per-block active channel counts for one sub-model, plus its FLOPs."""

    widths: tuple[int, ...]
    flops: float

    def __str__(self):
        return "x".join(str(w) for w in self.widths)


def flops_per_sample(arch: Architecture, widths) -> float:
    """Closed-form per-sample FLOPs: 2 * in * out per linear layer, plus
    the deployment classifier head (the task heads are training-only and
    are dropped at deployment, so they are not counted)."""
    widths = tuple(int(w) for w in widths)
    total = 0
    prev = arch.input_dim
    for w in widths:
        for layer in range(arch.layers_per_block):
            in_w = prev if layer == 0 else w
            total += 2 * in_w * w
        prev = w
    total += 2 * arch.class_count * widths[-1]
    return float(total)


def flops_step(arch: Architecture, widths, block: int, step: int) -> int:
    """Exact change of `flops_per_sample` when block `block` of `widths`
    gains (step = +1) or loses (step = -1) one channel: its first layer's
    input side, its inner layers' square terms and the next block's (or
    the deployment head's) input side."""
    w = widths[block]
    in_w = arch.input_dim if block == 0 else widths[block - 1]
    next_w = widths[block + 1] if block + 1 < len(widths) else arch.class_count
    return step * (2 * in_w + (arch.layers_per_block - 1) * 2 * (2 * w + step) + 2 * next_w)


@dataclass
class BnStats:
    """Per-BN-layer running statistics at one sub-model's active widths."""

    means: list[np.ndarray]
    variances: list[np.ndarray]
    count: int

    def layer(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        return self.means[idx], self.variances[idx]


class ParamStore:
    """The full-width shared parameter bank.

    Parameter names:
      f.b{i}.l{j}.w / .bn_g / .bn_b   extractor block i, layer j (no bias)
      c.{s|t|a}.w / .b                 classifier heads
    The three classifier heads are separate tensors and share nothing.
    """

    HEADS = ("s", "t", "a")

    def __init__(self, arch: Architecture, rng: np.random.Generator):
        self.arch = arch
        self.params: dict[str, Tensor] = {}
        prev = arch.input_dim
        for i, width in enumerate(arch.block_max_widths):
            for j in range(arch.layers_per_block):
                fan_in = prev if j == 0 else width
                base = f"f.b{i}.l{j}"
                self._add(f"{base}.w", rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, width)))
                self._add(f"{base}.bn_g", np.ones(width))
                self._add(f"{base}.bn_b", np.zeros(width))
            prev = width
        feat = arch.feature_dim_full
        for head in self.HEADS:
            self._add(f"c.{head}.w", rng.normal(0.0, 1.0 / math.sqrt(feat), (feat, arch.class_count)))
            self._add(f"c.{head}.b", np.zeros(arch.class_count))

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data, requires_grad=True, name=name)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def classifier_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k.startswith("c.")}

    def slice(self, config: WidthConfig) -> "SlimModel":
        return SlimModel(self, self.arch.make_config(config.widths))

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.params):
            missing = set(self.params) ^ set(arrays)
            raise ConfigError(f"parameter name mismatch: {sorted(missing)}")
        for name, arr in arrays.items():
            try:
                arr = np.asarray(arr, dtype=np.float64)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"parameter {name!r} is not a numeric array: {exc}") from exc
            if arr.shape != self.params[name].shape:
                raise ConfigError(
                    f"shape mismatch for {name!r}: {arr.shape} != {self.params[name].shape}"
                )
            self.params[name] = Tensor(arr, requires_grad=True, name=name)


class SlimModel:
    """A width-configured view of the parameter store.

    Forward passes build autodiff graphs; wrap calls in `ad.no_grad()` for
    evaluation.  Eval mode requires recalibrated BN statistics.
    """

    def __init__(self, store: ParamStore, config: WidthConfig):
        self.store = store
        self.config = config
        self.bn: BnStats | None = None  # set by adabn_recalibrate
        self._calibrated: list[Tensor] | None = None  # its final features, one per batch

    @property
    def arch(self) -> Architecture:
        return self.store.arch

    @property
    def feature_width(self) -> int:
        return self.config.widths[-1]

    def _input(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ConfigError(f"input shape {x.shape} != (n, {self.arch.input_dim})")
        return x

    def _sliced(self, name: str, shape: tuple[int, ...]) -> Tensor:
        param = self.store[name]
        return param if param.shape == shape else ad.leading_slice(param, shape)

    def layers(self):
        """(weight, gamma, beta) of each Linear -> BN -> ReLU layer in order,
        sliced to the active widths."""
        prev_w = self.arch.input_dim
        for i, w in enumerate(self.config.widths):
            for j in range(self.arch.layers_per_block):
                base = f"f.b{i}.l{j}"
                yield (self._sliced(f"{base}.w", (prev_w if j == 0 else w, w)),
                       self._sliced(f"{base}.bn_g", (w,)),
                       self._sliced(f"{base}.bn_b", (w,)))
            prev_w = w

    def features(self, x, mode: str = "train") -> Tensor:
        """Per-block Linear -> BN -> ReLU chain at the active widths."""
        h = self._input(x)
        if mode == "eval" and self.bn is None:
            raise UsageError("eval-mode forward needs recalibrated BN statistics")
        for k, (weight, gamma, beta) in enumerate(self.layers()):
            layer_stats = self.bn.layer(k) if mode == "eval" else None
            h = ad.batchnorm(h @ weight, gamma, beta, mode=mode, stats=layer_stats,
                             eps=BN_EPS)
            h = ad.relu(h)
        return h

    def head_logits(self, feats: Tensor, head: str, frozen: bool = False) -> Tensor:
        """Classifier logits from features; `frozen` detaches the head's
        parameters so gradients stop at the feature extractor boundary."""
        if head not in self.store.HEADS:
            raise ConfigError(f"unknown head {head!r}")
        w, b = self.store[f"c.{head}.w"], self.store[f"c.{head}.b"]
        if frozen:
            w, b = w.detach(), b.detach()
        fw = self.feature_width
        if fw != self.arch.feature_dim_full:
            w = ad.leading_slice(w, (fw, self.arch.class_count))
        return feats @ w + b

    def probs(self, feats: Tensor, head: str, frozen: bool = False) -> Tensor:
        """Probability output of one head.

        "s"/"t"/"a" are K-way softmaxes; "st" is the shared-neuron 2K-way
        softmax over the concatenated s and t logits (first K entries =
        source half, last K = target half); "task" is the mean of the "s"
        and "t" distributions, the bank's task-level prediction.
        """
        if head in self.store.HEADS:
            return ad.softmax(self.head_logits(feats, head, frozen), axis=1)
        if head == "st":
            joint = ad.concat(
                [self.head_logits(feats, "s", frozen), self.head_logits(feats, "t", frozen)],
                axis=1,
            )
            return ad.softmax(joint, axis=1)
        if head == "task":
            return (self.probs(feats, "s", frozen) + self.probs(feats, "t", frozen)) * 0.5
        raise ConfigError(f"unknown head {head!r}")

    def calibrated_probs(self, head: str) -> np.ndarray:
        """`head`'s probabilities on the recalibration's target set, read
        from the features that `adabn_recalibrate` kept (no forward)."""
        if self._calibrated is None:
            raise UsageError("calibrated_probs needs AdaBN recalibration first")
        with ad.no_grad():
            return np.concatenate([self.probs(h, head).data for h in self._calibrated], axis=0)

    def predict(self, x: np.ndarray, head: str = "a", batch_size: int = 256) -> np.ndarray:
        """Eval-mode class probabilities as a plain array (needs BN stats)."""
        if self.bn is None:
            raise UsageError("predict needs AdaBN recalibration first")
        outs = []
        with ad.no_grad():
            for lo in range(0, len(x), batch_size):
                feats = self.features(x[lo:lo + batch_size], mode="eval")
                outs.append(self.probs(feats, head).data)
        return np.concatenate(outs, axis=0)


def _combine_moments(count, mean, m2, b_count, b_mean, b_m2):
    """Pairwise update of (count, mean, sum of squared deviations)."""
    if count == 0:
        return b_count, b_mean, b_m2
    total = count + b_count
    delta = b_mean - mean
    mean = mean + delta * (b_count / total)
    m2 = m2 + b_m2 + delta * delta * (count * b_count / total)
    return total, mean, m2


def adabn_recalibrate(model: SlimModel, target_x: np.ndarray, batch_size: int = 256) -> BnStats:
    """Recompute BN statistics for this width on target data.

    One pass of L layer forwards: the target set is split into batches,
    and each batch's activations are carried from layer to layer.  The
    statistics of BN layer k are the exact population moments of its
    input over the whole dataset, merged batch by batch; each batch is
    then normalised with them (eval mode) before it enters layer k+1.
    The result is deterministic, idempotent, and (up to float summation
    order) independent of sample order and batch size.  Stores the stats
    on the model and returns them.  The last layer is normalised and
    ReLU'd too, and the model keeps those per-batch features for
    `calibrated_probs`.
    """
    target_x = np.asarray(target_x, dtype=np.float64)
    if target_x.ndim != 2 or target_x.shape[0] < 2:
        raise UsageError("AdaBN recalibration needs at least 2 target samples")
    stats = BnStats(means=[], variances=[], count=target_x.shape[0])
    with ad.no_grad():
        acts = [model._input(target_x[lo:lo + batch_size])
                for lo in range(0, len(target_x), batch_size)]
        for k, (weight, gamma, beta) in enumerate(model.layers()):
            acts = [h @ weight for h in acts]
            count, mean, m2 = 0, 0.0, 0.0
            for h in acts:
                h = h.data
                b_mean = h.mean(axis=0)
                b_m2 = h.var(axis=0) * h.shape[0]
                count, mean, m2 = _combine_moments(count, mean, m2, h.shape[0], b_mean, b_m2)
            stats.means.append(np.asarray(mean))
            stats.variances.append(np.maximum(np.asarray(m2) / count, 0.0))
            acts = [ad.relu(ad.batchnorm(h, gamma, beta, mode="eval", stats=stats.layer(k),
                                         eps=BN_EPS)) for h in acts]
    model.bn, model._calibrated = stats, acts
    return stats
