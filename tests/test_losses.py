"""Domain-confusion loss values and gradient routing.

Analytic oracles: every closed-form value below (2 ln K, 2 ln 2, ln 2,
-log floor) is evaluated inline from the defining expression rather than
hard-coded as a decimal.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimadapt import autodiff as ad
from slimadapt import losses
from slimadapt.errors import UsageError
from slimadapt.slimnet import Architecture, ParamStore

K = 12
ARCH = Architecture(input_dim=4, block_max_widths=(8,), layers_per_block=1, class_count=K)


def fresh_model(seed=0):
    store = ParamStore(ARCH, np.random.default_rng(seed))
    return store.slice(ARCH.full_config())


def zero_heads(model, heads=("s", "t", "a")):
    """Zeroed classifier parameters produce exactly uniform predictions."""
    for h in heads:
        model.store.params[f"c.{h}.w"] = ad.Tensor(
            np.zeros_like(model.store[f"c.{h}.w"].data), requires_grad=True, name=f"c.{h}.w")
        model.store.params[f"c.{h}.b"] = ad.Tensor(
            np.zeros(K), requires_grad=True, name=f"c.{h}.b")


def margin_heads(model, label, margin=40.0, heads=("s", "t")):
    """Zero weights plus a large bias on one class: that class's probability
    is 1 up to e^-margin, so log terms vanish below 1e-9."""
    zero_heads(model, heads)
    for h in heads:
        bias = np.zeros(K)
        bias[label] = margin
        model.store.params[f"c.{h}.b"] = ad.Tensor(bias, requires_grad=True, name=f"c.{h}.b")


def routed(model, xs, xt):
    """The model's `routed_probs` records of the source and target batches."""
    return [model.routed_probs(model.features(x)) for x in (xs, xt)]


def parts(model, xs, ys, xt):
    """The model's confusion-loss parts on one batch."""
    return losses.domain_confusion_targets(*routed(model, xs, xt), ys).parts


def task_loss(model, batch) -> float:
    """Both task heads' cross-entropy on the labelled source batch."""
    p = parts(model, *batch)
    return p.task_s + p.task_t


def domain_discrimination(model, xs, xt):
    """The domain-discrimination term as a tensor on the heads' route,
    built from `routed_probs` as `domain_confusion_targets` builds it."""
    (heads_s, _), (heads_t, _) = (model.routed_probs(model.features(x)) for x in (xs, xt))
    src = ad.slice_cols(heads_s["st"], 0, K).sum(axis=1)
    tgt = ad.slice_cols(heads_t["st"], K, 2 * K).sum(axis=1)
    return -ad.log(src).mean() - ad.log(tgt).mean()


@pytest.fixture
def batch():
    rng = np.random.default_rng(42)
    xs = rng.normal(size=(6, ARCH.input_dim))
    ys = np.full(6, 3)
    xt = rng.normal(size=(6, ARCH.input_dim))
    return xs, ys, xt


class TestTaskLoss:
    def test_both_heads_uniform(self, batch):
        model = fresh_model()
        zero_heads(model)
        assert abs(task_loss(model, batch) - 2 * math.log(K)) < 1e-9

    def test_one_head_perfect_one_uniform(self, batch):
        model = fresh_model()
        zero_heads(model)
        margin_heads(model, label=3, heads=("s",))
        assert abs(task_loss(model, batch) - math.log(K)) < 1e-9

    def test_both_heads_perfect(self, batch):
        model = fresh_model()
        margin_heads(model, label=3)
        assert abs(task_loss(model, batch)) < 1e-9

    def test_label_out_of_range(self, batch):
        xs, _, xt = batch
        with pytest.raises(UsageError):
            parts(fresh_model(), xs, np.full(6, K), xt)


class TestDomainDiscrimination:
    def test_uniform_joint_head(self, batch):
        model = fresh_model()
        zero_heads(model)
        assert abs(parts(model, *batch).domain_disc - 2 * math.log(2)) < 1e-9

    def test_symmetric_parameters_give_equal_terms(self, batch):
        # With identical heads the joint halves are equal, so the source
        # and target terms coincide on any data.
        xs, ys, _ = batch
        model = fresh_model(seed=5)
        model.store.params["c.t.w"] = ad.Tensor(model.store["c.s.w"].data.copy(),
                                                requires_grad=True, name="c.t.w")
        model.store.params["c.t.b"] = ad.Tensor(model.store["c.s.b"].data.copy(),
                                                requires_grad=True, name="c.t.b")
        with_same = parts(model, xs, ys, xs).domain_disc
        gst = model.probs(model.features(xs).data, "st")
        src = ad.slice_cols(gst, 0, K).sum(axis=1).data
        tgt = ad.slice_cols(gst, K, 2 * K).sum(axis=1).data
        np.testing.assert_allclose(src, tgt, atol=1e-12)
        assert with_same >= 2 * math.log(2) - 1e-12


class TestConfusion:
    def test_domain_confusion_minimum_at_half_half(self, batch):
        # Identical heads split the joint mass exactly 1/2 per half; the
        # domain-level term then reaches its minimum 2 ln 2.
        model = fresh_model()
        margin_heads(model, label=3)  # identical s and t heads
        assert abs(parts(model, *batch).dom_confusion - 2 * math.log(2)) < 1e-9

    def test_category_confusion_half_mass_on_true_class(self, batch):
        model = fresh_model()
        margin_heads(model, label=3)
        assert abs(parts(model, *batch).cat_confusion - math.log(2)) < 1e-9

    def test_category_confusion_clamped_divergence(self, batch):
        # Pushing the true class's joint mass to zero is clamped at the
        # probability floor instead of diverging.
        model = fresh_model()
        zero_heads(model)
        for h in ("s", "t"):
            bias = np.zeros(K)
            bias[3] = -200.0
            model.store.params[f"c.{h}.b"] = ad.Tensor(bias, requires_grad=True)
        cat = parts(model, *batch).cat_confusion
        assert np.isfinite(cat)
        assert abs(cat - (-math.log(losses.PROB_FLOOR))) < 1e-6

    def test_extractor_loss_analytic_minimum(self, batch):
        # Perfectly confused and perfectly discriminating heads: category
        # term ln 2 plus domain term 2 ln 2.
        xs, ys, xt = batch
        model = fresh_model()
        margin_heads(model, label=3)
        targets = losses.domain_confusion_targets(*routed(model, xs, xt), ys, w_ent=0.0)
        assert abs(targets.extractor_loss.item() - 3 * math.log(2)) < 1e-9


def entropy_min(model, batch) -> float:
    """The entropy-minimization part of the model's confusion losses."""
    return parts(model, *batch).entropy_min


class TestEntropyMin:
    def test_one_hot_prediction(self, batch):
        model = fresh_model()
        margin_heads(model, label=5)
        assert abs(entropy_min(model, batch)) < 1e-9

    def test_uniform_prediction(self, batch):
        model = fresh_model()
        zero_heads(model)
        assert abs(entropy_min(model, batch) - math.log(K)) < 1e-9

    def test_permutation_invariance(self, batch):
        model = fresh_model(seed=7)
        base = entropy_min(model, batch)
        # permute output classes by permuting both task heads' columns
        perm = np.random.default_rng(0).permutation(K)
        for h in ("s", "t"):
            w = model.store[f"c.{h}.w"].data[:, perm].copy()
            b = model.store[f"c.{h}.b"].data[perm].copy()
            model.store.params[f"c.{h}.w"] = ad.Tensor(w, requires_grad=True)
            model.store.params[f"c.{h}.b"] = ad.Tensor(b, requires_grad=True)
        assert abs(entropy_min(model, batch) - base) < 1e-12


class TestRoutingAndParts:
    def test_all_parts_nonnegative(self, batch):
        xs, ys, xt = batch
        for seed in range(5):
            t = losses.domain_confusion_targets(*routed(fresh_model(seed), xs, xt), ys)
            p = t.parts
            for v in (p.task_s, p.task_t, p.domain_disc, p.cat_confusion,
                      p.dom_confusion, p.entropy_min):
                assert v >= 0

    def test_classifier_loss_never_touches_extractor(self, batch):
        xs, ys, xt = batch
        model = fresh_model(seed=3)
        t = losses.domain_confusion_targets(*routed(model, xs, xt), ys)
        grads = ad.gradients(t.classifier_loss, model.store.params)
        assert all(name.startswith("c.") for name in grads)
        assert any(name.startswith("c.s") for name in grads)
        assert any(name.startswith("c.t") for name in grads)

    def test_extractor_loss_never_touches_classifiers(self, batch):
        xs, ys, xt = batch
        model = fresh_model(seed=4)
        t = losses.domain_confusion_targets(*routed(model, xs, xt), ys)
        grads = ad.gradients(t.extractor_loss, model.store.params)
        assert all(name.startswith("f.") for name in grads)
        assert grads, "extractor must receive gradient"

    def test_deterministic_for_fixed_inputs(self, batch):
        xs, ys, xt = batch
        a = losses.domain_confusion_targets(*routed(fresh_model(9), xs, xt), ys)
        b = losses.domain_confusion_targets(*routed(fresh_model(9), xs, xt), ys)
        assert a.classifier_loss.item() == b.classifier_loss.item()
        assert a.extractor_loss.item() == b.extractor_loss.item()

    def test_one_classifier_step_decreases_domain_discrimination(self, batch):
        xs, ys, xt = batch
        model = fresh_model(seed=11)
        before = domain_discrimination(model, xs, xt)
        assert before.item() == parts(model, *batch).domain_disc
        classifier = {k: v for k, v in model.store.params.items() if k.startswith("c.")}
        grads = ad.gradients(before, classifier)
        state = ad.SgdState(lr=0.05, momentum=0.0)
        params = {k: v for k, v in classifier.items() if k in grads}
        ad.sgd_step(params, grads, state)
        after = parts(model, *batch).domain_disc
        assert after < before.item()


def mask_and_sum_targets(routed_s, routed_t, ys, w_ent=0.1):
    """Reference: the two loss roles and the parts built with the task and
    category terms as a one-hot mask product, a row sum, a log and a mean
    per term, every other term as `domain_confusion_targets` builds it."""
    def picked_log(probs, labels, classes):
        return ad.log((probs * losses.one_hot(labels, classes)).sum(axis=1))

    (cls_s, ext_s), (cls_t, ext_t) = routed_s, routed_t
    k = cls_s["s"].shape[1]
    task_s = -picked_log(cls_s["s"], ys, k).mean()
    task_t = -picked_log(cls_s["t"], ys, k).mean()
    disc = -losses._half_log_mean(cls_s["st"], k, 0) - losses._half_log_mean(cls_t["st"], k, 1)
    cat = -0.5 * (picked_log(ext_s["st"], ys, 2 * k).mean()
                  + picked_log(ext_s["st"], ys + k, 2 * k).mean())
    dom = -(losses._half_log_mean(ext_t["st"], k, 0) + losses._half_log_mean(ext_t["st"], k, 1))
    p = ext_t["task"]
    ent = -(p * ad.log(p)).sum(axis=1).mean()
    parts = losses.DcLossParts(task_s=task_s.item(), task_t=task_t.item(), domain_disc=disc.item(),
                               cat_confusion=cat.item(), dom_confusion=dom.item(),
                               entropy_min=ent.item())
    return task_s + task_t + disc, cat + dom + w_ent * ent, parts


class TestCrossEntropyTerms:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 12), rows=st.integers(2, 64), layers=st.integers(1, 3),
           scale=st.floats(0.1, 30.0), seed=st.integers(0, 2**16))
    def test_match_mask_and_sum_reference(self, k, rows, layers, scale, seed):
        # The cross-entropy terms reach the reference's gradients bit for
        # bit; their values differ only in the order the logs are summed.
        arch = Architecture(input_dim=5, block_max_widths=(8, 6), layers_per_block=layers,
                            class_count=k)
        rng = np.random.default_rng(seed)
        model = ParamStore(arch, rng).slice(arch.full_config())
        for h in ("s", "t"):
            model.store[f"c.{h}.w"].data *= scale
        xs, xt = rng.normal(size=(rows, 5)), rng.normal(size=(rows, 5))
        ys = rng.integers(0, k, size=rows)
        got = losses.domain_confusion_targets(*routed(model, xs, xt), ys)
        cls_ref, ext_ref, parts_ref = mask_and_sum_targets(*routed(model, xs, xt), ys)
        for loss, ref in ((got.classifier_loss, cls_ref), (got.extractor_loss, ext_ref)):
            grads = ad.gradients(loss, model.store.params)
            ref_grads = ad.gradients(ref, model.store.params)
            assert grads.keys() == ref_grads.keys()
            for name, g in grads.items():
                assert np.array_equal(g, ref_grads[name]), name
        for name, ref in vars(parts_ref).items():
            assert abs(getattr(got.parts, name) - ref) <= 1e-15 * abs(ref), name
