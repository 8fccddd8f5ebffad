"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps a numpy array plus, when a gradient may flow into it, the
op record that produced it (parent tensors and a vector-Jacobian-product
closure).  `backward` walks the implicit graph once in reverse topological
order and returns gradients in a per-call map, so independent losses may
share forward subgraphs without corrupting each other's accumulation.

Everything is float64: models here are desk-scale and exact gradient
checks matter more than speed.  `log`, the one log the losses use, takes
a probability clamped to [`PROB_FLOOR`, 1].  Ops do not check their outputs
for NaN/Inf, except `log`, which refuses a NaN input; `check_finite` runs
at the graph's boundaries: model inputs, checkpoint parameters, eval
activations and eval head probabilities (`slimnet`), step losses
(`trainer`) and updated parameters (`sgd_step`).  matmul's VJP computes no
gradient for an operand that needs none (input data).  `affine_routes`
computes one affine product and returns it as two nodes that split its
gradient between the operands: the heads' two optimization roles.

Only training builds graphs.  Evaluation (AdaBN, the eval forward and the
heads in `slimnet`) runs on plain arrays and uses nothing here but
`check_finite`.

Also hosts the SGD-with-momentum optimizer and the inverse-decay learning
rate schedule used by the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericError, UsageError

__all__ = [
    "Tensor",
    "check_finite",
    "matmul",
    "affine_routes",
    "relu",
    "PROB_FLOOR",
    "log",
    "softmax",
    "cross_entropy",
    "concat",
    "slice_cols",
    "leading_slice",
    "batchnorm",
    "backward",
    "gradients",
    "SgdState",
    "sgd_step",
    "lr_schedule",
]

PROB_FLOOR = 1e-12  # `log` clamps a probability to [PROB_FLOOR, 1]


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise NumericError naming `what` when `arr` holds a NaN or an Inf."""
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")


class Tensor:
    """Dense float64 tensor, optionally a node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp", "_consumed")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise UsageError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __radd__(self, other):
        return _add(_as_tensor(other), self)

    def __sub__(self, other):
        return _sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return _sub(_as_tensor(other), self)

    def __mul__(self, other):
        return _mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return _mul(_as_tensor(other), self)

    def __neg__(self):
        return _neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None) -> "Tensor":
        return _mean(self, axis=axis)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{tag})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp, what: str) -> Tensor:
    """Wrap an op output; record its parents and VJP if a gradient may flow."""
    out = Tensor(data, name=what)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad.reshape(shape)


# -- primitive ops ------------------------------------------------------


def _add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), vjp, "add")


def _sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(data, (a, b), vjp, "sub")


def _mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _node(data, (a, b), vjp, "mul")


def _neg(a: Tensor) -> Tensor:
    def vjp(g):
        return (-g,)

    return _node(-a.data, (a,), vjp, "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ConfigError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (g @ b_data.T if need_a else None), (a_data.T @ g if need_b else None)

    return _node(a_data @ b_data, (a, b), vjp, "matmul")


def affine_routes(x: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """`x @ w + b` computed once, as two nodes over that one array.

    The first passes gradient to `(w, b)` only (`x` is a constant to it),
    the second to `x` only (`w` and `b` are constants to it).  Each node's
    VJP is the one of `matmul` then a broadcast add for its operands.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ConfigError(f"affine shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    x_data, w_data = x.data, w.data
    data = x_data @ w_data + b.data

    def to_params(g):
        return x_data.T @ g, g.sum(axis=0)

    def to_x(g):
        return (g @ w_data.T,)

    return _node(data, (w, b), to_params, "affine"), _node(data, (x,), to_x, "affine")


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    return _node(np.maximum(x.data, 0.0), (x,), vjp, "relu")


def log(p: Tensor) -> Tensor:
    """Log of a probability clamped to [PROB_FLOOR, 1], since the raw log
    diverges as a probability reaches zero; the gradient passes only where
    the clamp leaves the value as it was.  A NaN input raises."""
    p = _as_tensor(p)
    mask = (p.data >= PROB_FLOOR) & (p.data <= 1.0)
    clamped = np.minimum(np.maximum(p.data, PROB_FLOOR), 1.0)
    data = np.log(clamped)
    check_finite(data, "log")

    def vjp(g):
        return ((g / clamped) * mask,)

    return _node(data, (p,), vjp, "log")


def _sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape),)

    return _node(data, (x,), vjp, "sum")


def _mean(x: Tensor, axis=None) -> Tensor:
    x = _as_tensor(x)
    count = x.size if axis is None else x.shape[axis]
    data = x.data.mean(axis=axis)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape) / count,)

    return _node(data, (x,), vjp, "mean")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _node(s, (x,), vjp, "softmax")


def cross_entropy(p_log: Tensor, target: np.ndarray) -> Tensor:
    """Mean over rows of -sum_k target[k] * p_log[k].

    `target` is a constant distribution (an array); no gradient flows
    into it.
    """
    p_log = _as_tensor(p_log)
    t = np.asarray(target, dtype=np.float64)
    if t.shape != p_log.shape:
        raise ConfigError(f"cross_entropy target shape {t.shape} != prediction {p_log.shape}")
    rows = p_log.shape[0]
    data = -(t * p_log.data).sum() / rows

    def vjp(g):
        return (-np.asarray(g) * t / rows,)

    return _node(np.asarray(data), (p_log,), vjp, "cross_entropy")


def concat(tensors: Iterable[Tensor], axis: int = 1) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ConfigError("concat of zero tensors")
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]

    def vjp(g):
        outs, start = [], 0
        for s in sizes:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + s)
            outs.append(g[tuple(idx)])
            start += s
        return tuple(outs)

    return _node(data, ts, vjp, "concat")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ConfigError(f"slice_cols needs a 2-D tensor, got shape {x.shape}")
    if not (0 <= start <= stop <= x.shape[1]):
        raise ConfigError(f"slice_cols range [{start}:{stop}] out of bounds for {x.shape}")

    def vjp(g):
        full = np.zeros(x.shape)
        full[:, start:stop] = g
        return (full,)

    return _node(x.data[:, start:stop], (x,), vjp, "slice_cols")


def leading_slice(x: Tensor, sizes: Sequence[int]) -> Tensor:
    """Leading-corner slice: take the first sizes[i] entries along axis i.

    This is how sub-model parameters are carved out of the full-width
    store; the backward pass scatters gradients into a zero array of the
    full shape, so regions outside the slice receive exactly zero.
    """
    x = _as_tensor(x)
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != x.ndim:
        raise ConfigError(f"leading_slice rank mismatch: sizes {sizes} for shape {x.shape}")
    for s, d in zip(sizes, x.shape):
        if not (1 <= s <= d):
            raise ConfigError(f"leading_slice sizes {sizes} out of bounds for shape {x.shape}")
    idx = tuple(slice(0, s) for s in sizes)

    def vjp(g):
        full = np.zeros(x.shape)
        full[idx] = g
        return (full,)

    return _node(x.data[idx], (x,), vjp, "leading_slice")


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Training-mode batch normalization over axis 0 with affine
    scale/shift: each column is normalized by the batch's own mean and
    (population) variance.  The eval form, with running statistics, is
    `slimnet._eval_layer` on plain arrays."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim != 2:
        raise ConfigError(f"batchnorm input must be 2-D, got {x.shape}")
    n, width = x.shape
    if gamma.shape != (width,) or beta.shape != (width,):
        raise ConfigError(
            f"batchnorm affine shapes {gamma.shape}/{beta.shape} do not match width {width}"
        )
    if n < 2:
        raise UsageError("batchnorm needs batch size >= 2")

    xhat = x.data - x.data.sum(axis=0) / n  # centred once, then scaled in place
    inv = 1.0 / np.sqrt(np.square(xhat).sum(axis=0) / n + eps)
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data
    gamma_data = gamma.data

    def vjp(g):
        dxhat = g * gamma_data
        dx = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _node(data, (x, gamma, beta), vjp, "batchnorm")


# -- backward pass ------------------------------------------------------


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Run reverse-mode differentiation from a scalar loss.

    Returns gradients for every reachable leaf with requires_grad, keyed
    by the leaf tensor itself.  Accumulation is local to the call, so
    separate losses may share forward subgraphs; re-running backward on
    the same root is refused to surface accidental double use.
    """
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss does not depend on any differentiable tensor")
    if loss._consumed:
        raise UsageError("backward already ran for this loss; rebuild the graph first")
    loss._consumed = True

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones(loss.shape)}
    leaf_grads: dict[Tensor, np.ndarray] = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            leaf_grads[node] = leaf_grads[node] + g if node in leaf_grads else np.asarray(g)
            continue
        parent_grads = node._vjp(g)
        for parent, pg in zip(node._parents, parent_grads):
            if not parent.requires_grad or pg is None:
                continue
            pid = id(parent)
            grads[pid] = grads[pid] + pg if pid in grads else pg
    return leaf_grads


def gradients(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Backward pass returning name-keyed gradients for the given parameters.

    Parameters the loss never touched are simply absent from the result.
    """
    leaf_grads = backward(loss)
    return {name: leaf_grads[t] for name, t in params.items() if t in leaf_grads}


# -- optimizer ----------------------------------------------------------


@dataclass
class SgdState:
    """SGD-with-momentum state: v <- mu*v + g ; p <- p - lr*v."""

    lr: float
    momentum: float = 0.9
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray], state: SgdState) -> None:
    """Apply one momentum-SGD update to `params` in place, all or nothing.

    Every parameter passed in must have a gradient.  Nothing is committed
    until every new buffer and value is checked, so an error leaves all of
    them as they were.  Parameter data arrays are replaced (never mutated)
    so graphs built before the step stay valid.
    """
    if state.lr <= 0:
        raise UsageError(f"learning rate must be positive, got {state.lr}")
    staged = []
    for name, p in params.items():
        if name not in grads:
            raise UsageError(f"missing gradient for parameter {name!r}")
        g = np.asarray(grads[name])
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {name!r} shape {p.shape}")
        buf = state.buffers.get(name)
        buf = g.copy() if buf is None else state.momentum * buf + g
        data = p.data - state.lr * buf
        check_finite(data, f"parameter {name!r} after sgd_step")
        staged.append((name, p, buf, data))
    for name, p, buf, data in staged:
        state.buffers[name] = buf
        p.data = data


def lr_schedule(progress: float, base: float = 0.01, alpha: float = 10.0, beta: float = 0.75) -> float:
    """Inverse-decay schedule base / (1 + alpha*p)^beta for p in [0, 1]."""
    if not (0.0 <= progress <= 1.0):
        raise UsageError(f"progress must be in [0, 1], got {progress}")
    return base / (1.0 + alpha * progress) ** beta
