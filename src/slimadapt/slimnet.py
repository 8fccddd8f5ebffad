"""Width-slimmable fully connected networks over a shared parameter store.

One full-width parameter bank holds every layer's weights and BN affine
parameters, plus three disjoint classifier heads: two task heads
("s" and "t") that carry the domain-confusion training, and a deployment
head ("a") that receives distilled knowledge.  A sub-model of any legal
width is a *view*: each layer uses the leading in_width x out_width corner
of the full weight matrix, and classifiers use the leading feature
columns.  `Architecture.layer_shapes` is the one walk of a config's
layers (names and widths) that the store, FLOPs, the forward and AdaBN
share.  Gradients flow back through those slices, so everything outside
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
on the same `EVAL_BATCH`-row batches.

Evaluation uses no autodiff: the pass, the eval-mode forward and the
heads (`head_logits`, `probs`) take and return plain arrays and build no
graph.  Each eval layer centres its fresh matmul output in place (the
pass once per batch, as it takes the variance without a squared copy),
and `_scaled_relu`, the one eval-BN routine, scales it and applies the
affine and the ReLU.  The heads read each batch's logits from
`head_logits` and then run one softmax over all the set's rows, through
`autodiff.softmax_values`, the one softmax forward, which training's
`autodiff.softmax` computes through as well.
NaN/Inf is checked at the model's boundaries: every input (batch, target
set, `predict` input), every loaded parameter, each eval layer before its
ReLU, and the eval heads' probabilities per `probs`/`predict`/
`calibrated_probs`.

In training a head serves two optimization roles: the classifier role
moves the head's parameters and must not move the extractor, the
extractor role moves the features and must not move the head.
`SlimModel.routed_probs` computes each requested head's logits on one
batch of features once and serves the probability heads in both routes,
building each head on first read: a training step evaluates each (head,
domain) once per model, and its graph holds no head that no loss or
target reads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BN_EPS, Tensor
from .errors import ConfigError, UsageError, is_int_at_least

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

EVAL_BATCH = 256  # rows per batch of the AdaBN pass and the eval forward


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
        widths = self.block_max_widths
        if not isinstance(widths, (list, tuple)) or not all(
                isinstance(w, (int, np.integer)) and not isinstance(w, bool) for w in widths):
            raise ConfigError(f"block_max_widths must be a list or tuple of ints, got {widths!r}")
        object.__setattr__(self, "block_max_widths", tuple(int(w) for w in widths))
        for name, minimum in (("input_dim", 1), ("layers_per_block", 1), ("class_count", 2)):
            if not is_int_at_least(value := getattr(self, name), minimum):
                raise ConfigError(f"{name} must be >= {minimum}, got {value!r}; integers only")
        if not self.block_max_widths or any(w < 1 for w in self.block_max_widths):
            raise ConfigError(f"block_max_widths must all be >= 1, got {self.block_max_widths}")

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

    def layer_shapes(self, widths) -> list[tuple[str, int, int]]:
        """(parameter name prefix `f.b{i}.l{j}`, input width, output width)
        of each Linear -> BN -> ReLU layer in order, at per-block `widths`."""
        shapes, prev = [], self.input_dim
        for i, w in enumerate(int(w) for w in widths):
            for j in range(self.layers_per_block):
                shapes.append((f"f.b{i}.l{j}", prev if j == 0 else w, w))
            prev = w
        return shapes

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
    shapes = arch.layer_shapes(widths)
    return float(sum(2 * in_w * w for _, in_w, w in shapes) + 2 * arch.class_count * shapes[-1][2])


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
        for name, shape in _layout(arch):
            if not name.endswith(".w"):  # BN scale 1; BN shift and head bias 0
                data = np.ones(shape) if name.endswith(".bn_g") else np.zeros(shape)
            elif name.startswith("f."):  # He init
                data = rng.normal(0.0, math.sqrt(2.0 / shape[0]), shape)
            else:  # a head: 1/sqrt(feature width)
                data = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape)
            self._add(name, data)

    @classmethod
    def from_arrays(cls, arch: Architecture, arrays: dict) -> "ParamStore":
        """A store holding `arrays`, which must match `arch`'s parameter
        layout name for name and shape, with numeric, finite values; no
        random bank is drawn."""
        layout = dict(_layout(arch))
        if set(arrays) != set(layout):
            raise ConfigError(f"parameter name mismatch: {sorted(set(layout) ^ set(arrays))}")
        store = cls.__new__(cls)
        store.arch, store.params = arch, {}
        for name, shape in layout.items():
            try:
                arr = np.asarray(arrays[name], dtype=np.float64)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"parameter {name!r} is not a numeric array: {exc}") from exc
            if arr.shape != shape:
                raise ConfigError(f"shape mismatch for {name!r}: {arr.shape} != {shape}")
            ad.check_finite(arr, f"parameter {name!r}")
            store._add(name, arr)
        return store

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data, requires_grad=True, name=name)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def slice(self, config: WidthConfig) -> "SlimModel":
        return SlimModel(self, self.arch.make_config(config.widths))

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}


def _layout(arch: Architecture):
    """(name, shape) of every parameter of `arch`'s bank, in creation order."""
    for base, fan_in, width in arch.layer_shapes(arch.block_max_widths):
        yield f"{base}.w", (fan_in, width)
        yield f"{base}.bn_g", (width,)
        yield f"{base}.bn_b", (width,)
    for head in ParamStore.HEADS:
        yield f"c.{head}.w", (arch.feature_dim_full, arch.class_count)
        yield f"c.{head}.b", (arch.class_count,)


def _checked_input(arch: Architecture, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ConfigError(f"input shape {x.shape} != (n, {arch.input_dim})")
    ad.check_finite(x, "model input")
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
    matmul output `z`, in place:
    `max(gamma * ((z - mean) * (1 / sqrt(var + eps))) + beta, 0)`."""
    z -= mean
    return _scaled_relu(z, gamma, beta, 1.0 / np.sqrt(var + BN_EPS))


def _scaled_relu(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 inv_std: np.ndarray) -> np.ndarray:
    """`max(gamma * (z * inv_std) + beta, 0)` of a centred `z`, in place.  One
    NaN/Inf check runs before the ReLU, which would clip an overflow to
    -inf away."""
    z *= inv_std
    z *= gamma
    z += beta
    ad.check_finite(z, "eval forward activations")
    return np.maximum(z, 0.0, out=z)


def _sum_of_squares(z: np.ndarray) -> np.ndarray:
    """`np.square(z).sum(axis=0)` bit for bit, without the squared copy.
    On a single column numpy's sum and `einsum` add in different orders,
    so that case keeps the plain expression."""
    return np.einsum("ij,ij->j", z, z) if z.shape[1] > 1 else np.square(z).sum(axis=0)


class SlimModel:
    """A width-configured view of the parameter store.

    Train-mode forwards build autodiff graphs.  Eval mode requires
    recalibrated BN statistics and runs on plain arrays, heads included.
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
        store, corner = self.store, _corner if arrays else _leading
        for base, in_w, w in self.arch.layer_shapes(self.config.widths):
            yield (corner(store[f"{base}.w"], (in_w, w)),
                   corner(store[f"{base}.bn_g"], (w,)),
                   corner(store[f"{base}.bn_b"], (w,)))

    def features(self, x, mode: str = "train") -> Tensor | np.ndarray:
        """Per-block Linear -> BN -> ReLU chain at the active widths.  Train
        mode builds a graph with batch statistics and returns its tensor;
        eval mode runs `_eval_layer` and returns a plain array."""
        if mode not in ("train", "eval"):
            raise UsageError(f"unknown forward mode {mode!r}")
        h = _checked_input(self.arch, x)
        if mode == "train":
            h = Tensor(h)
            for weight, gamma, beta in self.layers():
                h = ad.relu(ad.batchnorm(h @ weight, gamma, beta))
            return h
        if self.bn is None:
            raise UsageError("eval-mode forward needs recalibrated BN statistics")
        for k, (weight, gamma, beta) in enumerate(self.layers(arrays=True)):
            h = _eval_layer(h @ weight, gamma, beta, self.bn.means[k], self.bn.variances[k])
        return h

    def _head_params(self, head: str, arrays: bool = False):
        """Classifier `head`'s weight (its rows at the active feature width)
        and bias: graph nodes, or with `arrays` plain views of the stored data."""
        if head not in self.store.HEADS:
            raise ConfigError(f"unknown head {head!r}")
        w, b = self.store[f"c.{head}.w"], self.store[f"c.{head}.b"]
        shape = (self.feature_width, self.arch.class_count)
        return (_corner(w, shape), b.data) if arrays else (_leading(w, shape), b)

    def head_logits(self, feats: np.ndarray, head: str) -> np.ndarray:
        """Classifier logits from eval features."""
        w, b = self._head_params(head, arrays=True)
        return feats @ w + b

    def probs(self, feats: np.ndarray, head: str) -> np.ndarray:
        """Probability output of one head on one batch of eval features
        (see `_probs_of`): the one-batch `_head_probs`."""
        return self._head_probs([feats], head)

    def routed_probs(self, feats: Tensor,
                     heads: tuple[str, ...] = ("s", "t")) -> tuple[Mapping, Mapping]:
        """The probability heads of `probs` over `heads` (which holds "s"
        and "t"; "a" if asked) on one batch of features, each head's logits
        computed once, in two routes: `(to_heads, to_features)`, two
        `_probs_of` mappings that build each head on first read.  A loss
        on `to_heads` moves only the heads' parameters, one on
        `to_features` only the features; both hold the values of `probs`.
        """
        if not {"s", "t"} <= set(heads):
            raise ConfigError(f"routed heads {heads!r} must include 's' and 't'")
        to_heads, to_features = {}, {}
        for head in heads:
            to_heads[head], to_features[head] = ad.affine_routes(feats, *self._head_params(head))
        return _probs_of(to_heads), _probs_of(to_features)

    def _head_probs(self, feats, head: str) -> np.ndarray:
        """`head`'s probabilities over the rows of per-batch eval features,
        checked once for NaN/Inf.  Each batch's logits of each head read
        come from `head_logits`, and one softmax runs over the joined rows.
        Every op after the matmul is row-wise, so each row has the bits a
        per-batch softmax would give it."""
        heads = ("s", "t") if head in ("st", "task") else (head,)  # `head_logits` checks each
        per_batch = [[self.head_logits(f, h) for h in heads] for f in feats]
        logits = {h: np.concatenate(parts, axis=0) for h, parts in zip(heads, zip(*per_batch))}
        probs = ad.softmax_values(logits[head], 1) if head in logits else _probs_of(logits)[head]
        ad.check_finite(probs, f"head {head!r} probabilities")
        return probs

    def calibrated_probs(self, head: str) -> np.ndarray:
        """`head`'s probabilities on the recalibration's target set, read
        from the features that `adabn_recalibrate` kept (no forward)."""
        if self._calibrated is None:
            raise UsageError("calibrated_probs needs AdaBN recalibration first")
        return self._head_probs(self._calibrated, head)

    def predict(self, x: np.ndarray, head: str = "a") -> np.ndarray:
        """Eval-mode class probabilities as a plain array (needs BN stats)."""
        if len(x) == 0:
            raise UsageError("predict needs at least one row of x")
        return self._head_probs((self.features(x[lo:lo + EVAL_BATCH], mode="eval")
                                 for lo in range(0, len(x), EVAL_BATCH)), head)


class _probs_of(Mapping):  # named and called like a function, as `functools.partial` is
    """The probability heads over the logits of the K-way heads in
    `logits` ("s" and "t" at least): graph nodes from tensors, plain arrays
    from arrays.  "s"/"t"/"a" are K-way softmaxes; "st" is the
    shared-neuron 2K-way softmax over the concatenated s and t logits
    (first K entries = source half, last K = target half); "task" is the
    mean of the "s" and "t" distributions, the bank's task-level
    prediction.  A read-only mapping: it builds each head on first read and
    keeps it, so a head no one reads costs nothing and adds no graph node;
    it iterates every head it can serve."""

    def __init__(self, logits: dict):
        self._logits, self._built = logits, {}
        self._heads = (*logits, "st", "task")
        graph = isinstance(logits["s"], Tensor)
        self._softmax, self._concat = ((ad.softmax, ad.concat) if graph
                                       else (ad.softmax_values, np.concatenate))

    def __getitem__(self, head: str):
        if head not in self._built:
            z = self._logits
            if head in z:
                probs = self._softmax(z[head], axis=1)
            elif head == "st":
                probs = self._softmax(self._concat([z["s"], z["t"]], axis=1), axis=1)
            elif head == "task":
                probs = (self["s"] + self["t"]) * 0.5
            else:
                raise KeyError(head)
            self._built[head] = probs
        return self._built[head]

    def __contains__(self, head) -> bool:  # without building the head
        return head in self._heads

    def __iter__(self):
        return iter(self._heads)

    def __len__(self) -> int:
        return len(self._heads)


def _descend(store: ParamStore, shapes: list[list[tuple[str, int, int]]],
             members: list[int], acts: list[np.ndarray], path: list, k: int):
    """Layer k of every config in `members` (`shapes` holds each config's
    `layer_shapes`), which share the widths of layers 0..k-1 and so the
    per-batch input `acts`.  The layer runs once at the widest width a
    member needs; each member takes its leading columns.  Yields (member,
    [(mean, var) per layer], final features)."""
    width, base = max(shapes[i][k][2] for i in members), shapes[0][k][0]
    weight = _corner(store[f"{base}.w"], (acts[0].shape[1], width))
    acts = [h @ weight for h in acts]
    n = sum(z.shape[0] for z in acts)
    mean = sum(z.sum(axis=0) for z in acts) / n
    for z in acts:  # each batch is centred once, in place
        z -= mean
    var = sum(_sum_of_squares(z) for z in acts) / n
    gamma = _corner(store[f"{base}.bn_g"], (width,))
    beta = _corner(store[f"{base}.bn_b"], (width,))
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    acts = [_scaled_relu(z, gamma, beta, inv_std) for z in acts]
    groups: dict[int, list[int]] = {}
    for i in members:
        groups.setdefault(shapes[i][k][2], []).append(i)
    for w, group in groups.items():
        child = acts if w == width else [h[:, :w] for h in acts]
        child_path = path + [(mean[:w], var[:w])]
        if k + 1 == len(shapes[0]):
            for i in group:
                yield i, child_path, child
        else:
            yield from _descend(store, shapes, group, child, child_path, k + 1)


def adabn_pass(store: ParamStore, configs, target_x: np.ndarray):
    """Recalibrate the BN statistics of every config in `configs` on
    target data, yielding (index into configs, recalibrated SlimModel)
    one model at a time.

    The target set is split into `EVAL_BATCH`-row batches, and each
    batch's activations are carried from layer to layer.  The statistics of
    BN layer k are the exact population moments of its input over the whole
    dataset, taken in two passes over the batches: the column sums give the
    mean, each batch is centred on it once, in place, and the variance is
    the centred values' mean square.  With `1/sqrt(var + eps)` computed once
    per layer, `_scaled_relu` finishes each batch before layer k+1.
    The result is deterministic, idempotent, and (up to float summation
    order) independent of sample order and batch size.  The last layer is
    normalised and ReLU'd too, and each model keeps those per-batch
    features for `calibrated_probs`.

    BN is per channel, so a layer's channels depend only on the widths of
    the layers before it.  Configs are walked as a prefix tree, depth
    first: each distinct width prefix runs its layer once, at the widest
    width a config below it needs, and each config takes its leading
    columns.  Only one root-to-leaf path of activations is live at a
    time.  A lone config is never sliced: its pass is L layer forwards at
    its own widths.
    """
    arch = store.arch
    target_x = _checked_input(arch, target_x)
    if target_x.shape[0] < 2:
        raise UsageError("AdaBN recalibration needs at least 2 target samples")
    configs = list(configs)
    if not configs:
        return
    shapes = [arch.layer_shapes(c.widths) for c in configs]
    acts = [target_x[lo:lo + EVAL_BATCH] for lo in range(0, len(target_x), EVAL_BATCH)]
    for i, path, feats in _descend(store, shapes, list(range(len(configs))), acts, [], 0):
        model = SlimModel(store, configs[i])
        model.bn = BnStats(means=[m for m, _ in path], variances=[v for _, v in path])
        model._calibrated = feats
        yield i, model


def adabn_recalibrate(model: SlimModel, target_x: np.ndarray) -> BnStats:
    """Recompute BN statistics for this width on target data: the
    one-config `adabn_pass`.  Stores the stats and the target set's final
    features on the model and returns the stats."""
    for _, calibrated in adabn_pass(model.store, [model.config], target_x):
        model.bn, model._calibrated = calibrated.bn, calibrated._calibrated
    return model.bn
