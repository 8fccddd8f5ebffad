"""Checkpoint files: one JSON document holding the architecture, every
parameter array (shortest round-trip repr, exact float64 round-trip), the
training seed, the step count, and the training mode."""

from __future__ import annotations

from dataclasses import asdict

from . import jsonio
from .errors import ConfigError
from .jsonio import field, list_of
from .slimnet import Architecture, ParamStore
from .trainer import MODES

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, bank: ParamStore, seed: int, step: int, mode: str) -> None:
    doc = {
        "architecture": asdict(bank.arch),
        "params": {name: t.data for name, t in sorted(bank.params.items())},
        "seed": int(seed),
        "step": int(step),
        "mode": mode,
    }
    jsonio.dump_exact(doc, path)


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    doc = jsonio.load(path)
    arch = Architecture(
        input_dim=field(doc, "architecture.input_dim", int),
        block_max_widths=field(doc, "architecture.block_max_widths", list_of(int)),
        layers_per_block=field(doc, "architecture.layers_per_block", int),
        class_count=field(doc, "architecture.class_count", int),
    )
    bank = ParamStore.from_arrays(arch, field(doc, "params", dict))
    meta = {"seed": field(doc, "seed", int), "step": field(doc, "step", int),
            "mode": field(doc, "mode", str, "slimda")}
    if meta["mode"] not in MODES:  # it picks the deployment head
        raise ConfigError(f"field mode: must be one of {MODES}, got {meta['mode']!r}")
    return bank, meta
