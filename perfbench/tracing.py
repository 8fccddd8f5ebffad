"""Span tracing of slimadapt recorded from outside the library.

`Tracer.installed()` replaces the package's public functions, a few
methods and `Tensor.__init__` with thin wrappers that record a span (name,
start, end, parent span, op id) or bump a counter, and restores every
original on exit.  Nothing inside `src/` changes.

A function imported by name (`from .autodiff import sgd_step`) is looked up
in the importing module, so wrapping it only where it is defined would let
its spans silently read zero.  Installation therefore rebinds every module
attribute of the package that refers to the original object.

Spans stay in memory as parallel typed arrays (no Python object per span,
so a long traced run does not slow itself down by filling the heap) and
are written out by `dump` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

# Public functions wrapped per module, as "<module>.<name>" spans.  Cheap
# helpers that only feed a bigger span's self time are left out on purpose:
# e.g. `flops_per_sample` is candidate growth inside the ladder's self time.
FUNCTIONS = {
    "autodiff": ("backward", "gradients", "sgd_step", "matmul", "batchnorm", "leading_slice",
                 "softmax", "log_softmax", "cross_entropy", "relu", "log", "clip", "concat",
                 "slice_cols"),
    "losses": ("domain_confusion_targets",),
    "trainer": ("sample_width_configs", "build_model_batch", "distillation_loss"),
    "slimnet": ("adabn_recalibrate",),
    "search": ("anchor_discrepancy", "config_accuracy", "recalibrated", "discrepancy_between",
               "inherited_greedy_search", "sample_config_at_budget", "_anchor_probs"),
    "datasets": ("make_dataset", "load_dataset", "save_dataset"),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "jsonio": ("dump_exact", "load"),
}

# The anchor's recalibration is the one private function spanned: it lets
# `search.recalibrations_per_config` count configs without the anchor.
RENAMED = {"search._anchor_probs": "search.anchor_probs"}

TENSORS = "autodiff.tensors"
BACKWARD_NODES = "autodiff.backward.nodes"


def graph_size(loss) -> int:
    """Nodes `backward` would visit from `loss`: it and every ancestor that
    requires a gradient."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self):
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.name_table: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_kinds: list[str] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def names(self) -> list[str]:
        return [self.name_table[i] for i in self.name_ids]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return nid

    # -- recording ---------------------------------------------------------

    def start(self, name: str) -> int:
        return self.start_id(self.name_id(name))

    def start_id(self, nid: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.start(name)
        try:
            yield
        finally:
            self.finish(idx)

    def count(self, name: str, n: int = 1) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def operation(self, kind: str):
        """One closed-loop op: its spans and counts carry a fresh op id and
        hang under a root span named "op.<kind>"."""
        prev = self.op
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)
        try:
            with self.span("op." + kind):
                yield self.op
        finally:
            self.op = prev

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str):
        start, finish, nid = self.start_id, self.finish, self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = start(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._saved.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        import slimadapt
        from slimadapt import autodiff, slimnet

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "slimadapt" or name.startswith("slimadapt."))]
        for mod_name, attrs in FUNCTIONS.items():
            mod = getattr(slimadapt, mod_name)
            for attr in attrs:
                full = f"{mod_name}.{attr}"
                original = getattr(mod, attr, None)
                if original is None:  # gone after a refactor: its metrics read 0
                    continue
                wrapper = self._wrap(original, RENAMED.get(full, full))
                if mod_name == "autodiff" and attr == "backward":
                    wrapper = self._counting_backward(wrapper)
                self._rebind(modules, original, wrapper)

        tracer = self
        orig_init = autodiff.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            key = (tracer.op, TENSORS)
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            orig_init(tensor, *args, **kwargs)

        self._patch_method(autodiff.Tensor, "__init__", counting_init)

        orig_features = slimnet.SlimModel.features

        def features(model, x, mode="train", *args, **kwargs):
            idx = tracer.start("slimnet.features." + mode)
            try:
                return orig_features(model, x, mode, *args, **kwargs)
            finally:
                tracer.finish(idx)

        self._patch_method(slimnet.SlimModel, "features", features)
        self._patch_method(slimnet.SlimModel, "predict",
                           self._wrap(slimnet.SlimModel.predict, "slimnet.predict"))

    def _counting_backward(self, traced_backward):
        tracer = self

        @functools.wraps(traced_backward)
        def backward(loss, *args, **kwargs):
            tracer.count(BACKWARD_NODES, graph_size(loss))
            return traced_backward(loss, *args, **kwargs)

        return backward

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        doc = {"op_kinds": self.op_kinds, "names": self.name_table,
               "name_ids": self.name_ids.tolist(), "starts": self.starts.tolist(),
               "ends": self.ends.tolist(), "parents": self.parents.tolist(),
               "ops": self.ops.tolist(),
               "counts": [[op, name, n] for (op, name), n in sorted(self.counts.items())]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other (nothing here assumes a single thread),
    so their intervals are merged before they are subtracted.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(starts[c], s), min(ends[c], e)) for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def inside(names, parents, target: str) -> list[bool]:
    """For each span, whether some ancestor is named `target`.  Parents
    always precede their children, so one forward pass suffices."""
    out = [False] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            out[i] = out[p] or names[p] == target
    return out
