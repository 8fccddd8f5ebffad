"""Procedural two-domain datasets with controllable covariate shift.

The source domain is K Gaussian clusters in d dimensions (interleaved
two-moons when K == 2); the target domain draws fresh samples from the
same class-conditional generators and pushes them through a fixed
transform (rotation in coordinate planes, translation along a random
direction, isotropic scaling, or a mix).  Magnitude 0 makes the domains
identically distributed.

Target labels exist for offline evaluation only.  They sit behind an
accessor that requires an explicit evaluation flag, and the dataset
loader refuses to parse them unless asked to; training code can never
see them by accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import jsonio
from .errors import ConfigError, LabelLeakageError, UsageError
from .jsonio import field, float_array, list_of

__all__ = [
    "ShiftSpec",
    "DomainDataset",
    "make_dataset",
    "batches",
    "save_dataset",
    "load_dataset",
    "DEFAULT_TASK",
]

SHIFT_KINDS = ("ROTATION", "TRANSLATION", "SCALING", "MIXED")
MEAN_RADIUS = 2.5  # cluster centers sit on this sphere; noise_std sets overlap


@dataclass(frozen=True)
class ShiftSpec:
    kind: str
    magnitude: float
    noise_std: float = 1.0

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ConfigError(f"unknown shift kind {self.kind!r}, expected one of {SHIFT_KINDS}")
        if not math.isfinite(self.magnitude):
            raise ConfigError(f"magnitude must be finite, got {self.magnitude}")
        if not self.noise_std > 0:  # written so that NaN fails it
            raise ConfigError(f"noise_std must be positive, got {self.noise_std}")


def _labels(name: str, y) -> np.ndarray:
    """`y` as int64 labels; a value that is not a whole number is a
    ConfigError naming the array, not truncated."""
    raw = np.asarray(y)
    try:
        with np.errstate(invalid="ignore"):  # NaN or Inf: fails the comparison below
            labels = raw.astype(np.int64)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"dataset array {name} is not numeric: {exc}") from exc
    if not np.array_equal(labels, raw):
        raise ConfigError(f"dataset array {name} holds labels that are not integers")
    return labels


class DomainDataset:
    """Labelled source samples plus unlabelled target samples.

    Hidden target labels are reachable only through `target_labels`
    with evaluation=True; any other access raises.
    """

    def __init__(self, xs, ys, xt, K, spec, seed, yt_hidden=None):
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = _labels("ys", ys)
        self.xt = np.asarray(xt, dtype=np.float64)
        self.K = int(K)
        self.spec = spec
        self.seed = int(seed)
        self._yt = None if yt_hidden is None else _labels("yt_hidden", yt_hidden)
        if self.xs.ndim != 2 or self.xt.shape[1:] != self.xs.shape[1:]:
            raise ConfigError(f"dataset xs {self.xs.shape} and xt {self.xt.shape} "
                              f"are not (n, d) arrays of one d")
        for name, y, x in (("ys", self.ys, self.xs), ("yt_hidden", self._yt, self.xt)):
            if y is not None and y.shape != (len(x),):
                raise ConfigError(f"dataset array {name} has shape {y.shape}, not ({len(x)},)")
            if y is not None and y.size and not (0 <= y.min() and y.max() < self.K):
                raise ConfigError(f"dataset array {name} has labels outside [0, {self.K})")

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def n_s(self) -> int:
        return len(self.xs)

    @property
    def n_t(self) -> int:
        return len(self.xt)

    def target_labels(self, evaluation: bool = False) -> np.ndarray:
        if not evaluation:
            raise LabelLeakageError(
                "target labels are evaluation-only; pass evaluation=True from an eval path"
            )
        if self._yt is None:
            raise UsageError("this dataset was loaded without its evaluation section")
        return self._yt.copy()


def _rotation_matrix(d: int, angle: float) -> np.ndarray:
    """Block-diagonal rotation by `angle` in the planes (0,1), (2,3), ..."""
    rot = np.eye(d)
    c, s = math.cos(angle), math.sin(angle)
    for i in range(0, d - 1, 2):
        rot[i, i], rot[i, i + 1] = c, -s
        rot[i + 1, i], rot[i + 1, i + 1] = s, c
    return rot


def _apply_shift(x: np.ndarray, spec: ShiftSpec, direction: np.ndarray) -> np.ndarray:
    d = x.shape[1]
    m = spec.magnitude
    if spec.kind == "ROTATION":
        return x @ _rotation_matrix(d, m).T
    if spec.kind == "TRANSLATION":
        return x + m * direction
    if spec.kind == "SCALING":
        return x * (1.0 + m)
    # MIXED: moderate rotation, mild scaling, and a translation component
    out = x @ _rotation_matrix(d, 0.5 * m).T
    out = out * (1.0 + 0.2 * m)
    return out + 0.75 * m * direction


def _balanced_labels(n: int, k: int) -> np.ndarray:
    per = [n // k + (1 if c < n % k else 0) for c in range(k)]
    return np.repeat(np.arange(k), per)


def _moons(rng: np.random.Generator, labels: np.ndarray, d: int, noise: float) -> np.ndarray:
    """Interleaved half-circles, centered at the origin, embedded in d dims."""
    n = len(labels)
    t = rng.uniform(0.0, math.pi, size=n)
    x = np.zeros((n, d))
    upper = labels == 0
    x[upper, 0] = np.cos(t[upper])
    x[upper, 1] = np.sin(t[upper])
    x[~upper, 0] = 1.0 - np.cos(t[~upper])
    x[~upper, 1] = 0.5 - np.sin(t[~upper])
    x[:, 0] -= 0.5
    x[:, 1] -= 0.25
    x[:, :2] *= 2.0
    x[:, :2] += noise * rng.normal(size=(n, 2))
    if d > 2:
        x[:, 2:] = 0.1 * noise * rng.normal(size=(n, d - 2))
    return x


def _clusters(rng, labels, means, noise):
    return means[labels] + noise * rng.normal(size=(len(labels), means.shape[1]))


def make_dataset(spec: ShiftSpec, K: int, d: int, n_s: int, n_t: int, seed: int) -> DomainDataset:
    """Generate a paired source/target dataset, deterministic under seed."""
    if K < 2 or d < 2:
        raise ConfigError(f"need K >= 2 and d >= 2, got K={K}, d={d}")
    if n_s < K or n_t < K:
        raise ConfigError("need at least one sample per class in each domain")
    rng = np.random.default_rng(seed)

    if K == 2:
        means = None
    else:
        raw = rng.normal(size=(K, d))
        means = MEAN_RADIUS * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)

    ys = _balanced_labels(n_s, K)
    yt = _balanced_labels(n_t, K)
    if K == 2:
        xs = _moons(rng, ys, d, spec.noise_std)
        xt_raw = _moons(rng, yt, d, spec.noise_std)
    else:
        xs = _clusters(rng, ys, means, spec.noise_std)
        xt_raw = _clusters(rng, yt, means, spec.noise_std)
    xt = _apply_shift(xt_raw, spec, direction)

    perm_s = rng.permutation(n_s)
    perm_t = rng.permutation(n_t)
    return DomainDataset(xs[perm_s], ys[perm_s], xt[perm_t], K, spec, seed, yt_hidden=yt[perm_t])


def batches(dataset: DomainDataset, batch_size: int, rng: np.random.Generator):
    """One epoch of paired (xs, ys, xt) batches with independent shuffles.

    The epoch has ceil(max(n_s, n_t) / batch_size) batches; the smaller
    domain wraps around its shuffled order so both domains are fully
    covered every epoch.  A lone last row joins the batch before it
    (train-mode BN needs two rows), which leaves one batch fewer.
    """
    if batch_size < 2:
        raise UsageError("batch_size must be >= 2")
    if batch_size > min(dataset.n_s, dataset.n_t):
        raise UsageError(
            f"batch_size {batch_size} exceeds domain size {min(dataset.n_s, dataset.n_t)}"
        )
    longest = max(dataset.n_s, dataset.n_t)
    perm_s = rng.permutation(dataset.n_s)
    perm_t = rng.permutation(dataset.n_t)
    bounds = list(range(0, longest, batch_size)) + [longest]
    if bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    for lo, hi in zip(bounds, bounds[1:]):
        sel = np.arange(lo, hi)
        idx_s = perm_s[sel % dataset.n_s]
        idx_t = perm_t[sel % dataset.n_t]
        yield dataset.xs[idx_s], dataset.ys[idx_s], dataset.xt[idx_t]


def save_dataset(path, dataset: DomainDataset) -> None:
    doc = {
        "spec": asdict(dataset.spec),
        "seed": dataset.seed,
        "K": dataset.K,
        "d": dataset.d,
        "n_s": dataset.n_s,
        "n_t": dataset.n_t,
        "xs": dataset.xs,
        "ys": dataset.ys,
        "xt": dataset.xt,
    }
    if dataset._yt is not None:
        doc["yt_hidden"] = dataset._yt
    jsonio.dump_exact(doc, path)


def load_dataset(path, evaluation: bool = False) -> DomainDataset:
    """Load a dataset file; a key `save_dataset` does not write is refused.
    Unless `evaluation` is set, the hidden-label section is skipped
    entirely, so a training path cannot reach it."""
    doc = jsonio.load(path)
    jsonio.refuse_unknown_keys(doc, [*(f"spec.{f.name}" for f in fields(ShiftSpec)), "seed", "K",
                                     "d", "n_s", "n_t", "xs", "ys", "xt", "yt_hidden"], f"{path}: ")
    ints = list_of(int)
    yt = field(doc, "yt_hidden", ints, None) if evaluation else None
    return DomainDataset(field(doc, "xs", float_array), field(doc, "ys", ints),
                         field(doc, "xt", float_array),
                         field(doc, "K", int), field(doc, "spec", lambda v: ShiftSpec(**v)),
                         field(doc, "seed", int), yt_hidden=yt)


# The default desk-scale task: big enough to show a clear source->target
# gap and a real capacity-accuracy slope across widths, small enough for
# sub-minute training runs.
DEFAULT_TASK = dict(spec=ShiftSpec("MIXED", magnitude=1.0, noise_std=1.3),
                    K=4, d=16, n_s=2000, n_t=2000)
