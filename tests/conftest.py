"""Shared fixtures.

`observe_step` runs one training step and reports what it did through the
calls the step already makes: `sample_width_configs` (the model batch),
`domain_confusion_targets` and `distillation_loss` (each term's loss and
the distillation targets) and `sgd_step` (the gradient the update
applied).  A test then takes each term's own gradient with `ad.gradients`
and rebuilds the applied one from weights it computes itself.
"""

import contextlib
from typing import NamedTuple
from unittest import mock

import pytest

from slimadapt import autodiff as ad
from slimadapt import trainer


class Distill(NamedTuple):
    """One `distillation_loss` call: its target-batch target and the
    (classifier, extractor) losses it returned."""

    target_t: object
    cls: ad.Tensor
    ext: ad.Tensor


class StepProbe:
    """One step's sampled configs, its models' `DcGradTargets` and its
    `Distill` calls (both in model order), and the name -> gradient dict
    that its SGD update applied to the bank."""

    def __init__(self, params):
        self.params = params
        self.configs = None
        self.dc = []
        self.distill = []
        self.applied = None

    @property
    def cls_losses(self):
        """The classifier-side losses: confusion terms, then distillation terms."""
        return [t.classifier_loss for t in self.dc] + [d.cls for d in self.distill]

    @property
    def ext_losses(self):
        """The extractor-side losses, in the order of `cls_losses`."""
        return [t.extractor_loss for t in self.dc] + [d.ext for d in self.distill]

    def gradients(self, losses):
        """Each loss's own gradient dict over the bank (one backward each)."""
        return [ad.gradients(loss, self.params) for loss in losses]

    def applied_to(self, prefix):
        """The applied gradient of the parameters whose names start with `prefix`."""
        return {n: g for n, g in self.applied.items() if n.startswith(prefix)}


def _spy(fn, record):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        record(out, *args)
        return out
    return wrapper


def run_observed(step_fn, bank, *args):
    """Run `step_fn(bank, *args)` and return its `StepProbe`."""
    probe = StepProbe(bank.params)
    sgd_step = trainer.sgd_step

    def record_update(params, grads, state):
        probe.applied = dict(grads)
        return sgd_step(params, grads, state)

    seams = {
        "sample_width_configs": _spy(trainer.sample_width_configs,
                                     lambda out, *_: setattr(probe, "configs", out)),
        "domain_confusion_targets": _spy(trainer.domain_confusion_targets,
                                         lambda out, *_: probe.dc.append(out)),
        "distillation_loss": _spy(trainer.distillation_loss,
                                  lambda out, routed_t, target_t, *_:
                                  probe.distill.append(Distill(target_t, *out))),
        "sgd_step": record_update,
    }
    with contextlib.ExitStack() as stack:
        for name, fn in seams.items():
            stack.enter_context(mock.patch.object(trainer, name, fn))
        step_fn(bank, *args)
    return probe


@pytest.fixture(scope="session")
def observe_step():
    """`run_observed`; session-scoped, so hypothesis tests may use it."""
    return run_observed
