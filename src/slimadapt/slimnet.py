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
recalibrated on target data: `adabn_pass` recomputes exact population
statistics for a list of configs, carrying each batch's activations from
layer to layer, which makes evaluation independent of sample order and
batching.  BN is per channel, so a layer's channels depend only on the
widths of the layers before it: the pass walks the configs' width
prefixes depth first, runs each distinct prefix's layer once at the
widest width a config below it needs, and gives each config the leading
columns.  `adabn_recalibrate` is its one-config case (L layer forwards
for L BN layers, no slicing).  Each recalibrated model keeps the target
set's final features, so `SlimModel.calibrated_probs` reads any head's
target predictions without a second forward; after `adabn_recalibrate`
they equal `predict(target_x)` bit for bit, since both run the same ops
on the same 256-row batches.

The pass and the eval-mode forward run on plain arrays, not autodiff
tensors: `_eval_layer` normalises each fresh matmul output in place with
the ufuncs of eval-mode `autodiff.batchnorm` and `relu`, in their order.
NaN/Inf is checked at the model's boundaries: every input (batch, target
set, `predict` input), every loaded parameter, each eval layer before its
ReLU, and the eval heads' probabilities per `predict`/`calibrated_probs`.
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
    "adabn_pass",
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
            ad.check_finite(arr, f"parameter {name!r}")
            self.params[name] = Tensor(arr, requires_grad=True, name=name)


def _checked_input(arch: Architecture, x) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ConfigError(f"input shape {x.shape} != (n, {arch.input_dim})")
    ad.check_finite(x.data, "model input")
    return x


def _leading(param: Tensor, shape: tuple[int, ...]) -> Tensor:
    """`param`'s leading corner of `shape` (itself when it has that shape)."""
    return param if param.shape == shape else ad.leading_slice(param, shape)


def _corner(param: Tensor, shape: tuple[int, ...]) -> np.ndarray:
    """`param`'s leading corner of `shape` as a plain view of its data."""
    return param.data[tuple(slice(0, s) for s in shape)]


def _eval_layer(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
                var: np.ndarray) -> np.ndarray:
    """Eval-mode BN with statistics (mean, var), then ReLU, of a fresh
    matmul output `z`, in place.  It runs the ufuncs of
    `ad.relu(ad.batchnorm(z, gamma, beta, mode="eval", stats=(mean, var)))`
    in the same order (`z *= gamma` is `gamma * z`: multiplication
    commutes exactly), so the result is bit-identical.  One NaN/Inf check
    runs before the ReLU, which would clip an overflow to -inf away."""
    z -= mean
    z *= 1.0 / np.sqrt(var + BN_EPS)
    z *= gamma
    z += beta
    ad.check_finite(z, "eval forward activations")
    return np.maximum(z, 0.0, out=z)


class SlimModel:
    """A width-configured view of the parameter store.

    Train-mode forwards build autodiff graphs.  Eval mode requires
    recalibrated BN statistics and runs on plain arrays (no graph).
    """

    def __init__(self, store: ParamStore, config: WidthConfig):
        self.store = store
        self.config = config
        self.bn: BnStats | None = None  # set by adabn_recalibrate
        self._calibrated: list[np.ndarray] | None = None  # its final features, one per batch

    @property
    def arch(self) -> Architecture:
        return self.store.arch

    @property
    def feature_width(self) -> int:
        return self.config.widths[-1]

    def layers(self, arrays: bool = False):
        """(weight, gamma, beta) of each Linear -> BN -> ReLU layer in order,
        sliced to the active widths: graph nodes, or with `arrays` plain
        views of the stored data."""
        store, prev_w = self.store, self.arch.input_dim
        corner = _corner if arrays else _leading
        for i, w in enumerate(self.config.widths):
            for j in range(self.arch.layers_per_block):
                base = f"f.b{i}.l{j}"
                yield (corner(store[f"{base}.w"], (prev_w if j == 0 else w, w)),
                       corner(store[f"{base}.bn_g"], (w,)),
                       corner(store[f"{base}.bn_b"], (w,)))
            prev_w = w

    def features(self, x, mode: str = "train") -> Tensor:
        """Per-block Linear -> BN -> ReLU chain at the active widths.  Eval
        mode runs `_eval_layer` on arrays and returns a graph-free tensor."""
        h = _checked_input(self.arch, x)
        if mode != "eval":
            for weight, gamma, beta in self.layers():
                h = ad.relu(ad.batchnorm(h @ weight, gamma, beta, mode=mode, eps=BN_EPS))
            return h
        if self.bn is None:
            raise UsageError("eval-mode forward needs recalibrated BN statistics")
        h = h.data
        for k, (weight, gamma, beta) in enumerate(self.layers(arrays=True)):
            h = _eval_layer(h @ weight, gamma, beta, *self.bn.layer(k))
        return Tensor(h)

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

    def _head_probs(self, feats, head: str) -> np.ndarray:
        """`head`'s probabilities over per-batch features, checked once for NaN/Inf."""
        with ad.no_grad():
            probs = np.concatenate([self.probs(Tensor(h), head).data for h in feats], axis=0)
        ad.check_finite(probs, f"head {head!r} probabilities")
        return probs

    def calibrated_probs(self, head: str) -> np.ndarray:
        """`head`'s probabilities on the recalibration's target set, read
        from the features that `adabn_recalibrate` kept (no forward)."""
        if self._calibrated is None:
            raise UsageError("calibrated_probs needs AdaBN recalibration first")
        return self._head_probs(self._calibrated, head)

    def predict(self, x: np.ndarray, head: str = "a", batch_size: int = 256) -> np.ndarray:
        """Eval-mode class probabilities as a plain array (needs BN stats)."""
        if self.bn is None:
            raise UsageError("predict needs AdaBN recalibration first")
        return self._head_probs((self.features(x[lo:lo + batch_size], mode="eval").data
                                 for lo in range(0, len(x), batch_size)), head)


def _combine_moments(count, mean, m2, b_count, b_mean, b_m2):
    """Pairwise update of (count, mean, sum of squared deviations)."""
    if count == 0:
        return b_count, b_mean, b_m2
    total = count + b_count
    delta = b_mean - mean
    mean = mean + delta * (b_count / total)
    m2 = m2 + b_m2 + delta * delta * (count * b_count / total)
    return total, mean, m2


def _moments(acts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and variance per column over every batch of `acts`,
    merged batch by batch."""
    count, mean, m2 = 0, 0.0, 0.0
    for h in acts:
        n = h.shape[0]
        b_mean = h.mean(axis=0)
        sq = h - b_mean
        sq *= sq
        b_m2 = sq.sum(axis=0) / n * n  # `h.var(axis=0) * n`, without its second mean
        count, mean, m2 = _combine_moments(count, mean, m2, n, b_mean, b_m2)
    return np.asarray(mean), np.maximum(np.asarray(m2) / count, 0.0)


def _descend(store: ParamStore, names: list[str], layer_widths: list[list[int]],
             members: list[int], acts: list[np.ndarray], path: list, k: int):
    """Layer k of every config in `members`, which share the widths of
    layers 0..k-1 and so the per-batch input `acts`.  The layer runs once
    at the widest width a member needs; each member takes its leading
    columns.  Yields (member, [(mean, var) per layer], final features)."""
    width, base = max(layer_widths[i][k] for i in members), names[k]
    weight = _corner(store[f"{base}.w"], (acts[0].shape[1], width))
    acts = [h @ weight for h in acts]
    mean, var = _moments(acts)
    gamma = _corner(store[f"{base}.bn_g"], (width,))
    beta = _corner(store[f"{base}.bn_b"], (width,))
    acts = [_eval_layer(z, gamma, beta, mean, var) for z in acts]
    groups: dict[int, list[int]] = {}
    for i in members:
        groups.setdefault(layer_widths[i][k], []).append(i)
    for w, group in groups.items():
        child = acts if w == width else [h[:, :w] for h in acts]
        child_path = path + [(mean[:w], var[:w])]
        if k + 1 == len(names):
            for i in group:
                yield i, child_path, child
        else:
            yield from _descend(store, names, layer_widths, group, child, child_path, k + 1)


def adabn_pass(store: ParamStore, configs, target_x: np.ndarray, batch_size: int = 256):
    """Recalibrate the BN statistics of every config in `configs` on
    target data, yielding (index into configs, recalibrated SlimModel)
    one model at a time.

    The target set is split into batches, and each batch's activations
    are carried from layer to layer.  The statistics of BN layer k are the
    exact population moments of its input over the whole dataset, merged
    batch by batch; each batch is then normalised with them (eval mode)
    before it enters layer k+1.  The result is deterministic, idempotent,
    and (up to float summation order) independent of sample order and
    batch size.  The last layer is normalised and ReLU'd too, and each
    model keeps those per-batch features for `calibrated_probs`.

    BN is per channel, so a layer's channels depend only on the widths of
    the layers before it.  Configs are walked as a prefix tree, depth
    first: each distinct width prefix runs its layer once, at the widest
    width a config below it needs, and each config takes its leading
    columns.  Only one root-to-leaf path of activations is live at a
    time.  A lone config is never sliced: its pass is L layer forwards at
    its own widths.
    """
    target_x = np.asarray(target_x, dtype=np.float64)
    if target_x.ndim != 2 or target_x.shape[0] < 2:
        raise UsageError("AdaBN recalibration needs at least 2 target samples")
    arch = store.arch
    configs = list(configs)
    names = [f"f.b{i}.l{j}" for i in range(arch.n_blocks) for j in range(arch.layers_per_block)]
    layer_widths = [[w for w in c.widths for _ in range(arch.layers_per_block)] for c in configs]
    target_x = _checked_input(arch, target_x).data
    acts = [target_x[lo:lo + batch_size] for lo in range(0, len(target_x), batch_size)]
    for i, path, feats in _descend(store, names, layer_widths, list(range(len(configs))),
                                   acts, [], 0):
        model = SlimModel(store, configs[i])
        model.bn = BnStats(means=[m for m, _ in path], variances=[v for _, v in path],
                           count=target_x.shape[0])
        model._calibrated = feats
        yield i, model


def adabn_recalibrate(model: SlimModel, target_x: np.ndarray, batch_size: int = 256) -> BnStats:
    """Recompute BN statistics for this width on target data: the
    one-config `adabn_pass`.  Stores the stats and the target set's final
    features on the model and returns the stats."""
    for _, calibrated in adabn_pass(model.store, [model.config], target_x, batch_size):
        model.bn, model._calibrated = calibrated.bn, calibrated._calibrated
    return model.bn
