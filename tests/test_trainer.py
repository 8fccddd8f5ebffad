"""Trainer mechanics: model-batch sampling, confidence weighting,
ensemble targets, sharpening, distillation, and gradient routing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimadapt import autodiff as ad
from slimadapt.datasets import DomainDataset, ShiftSpec, make_dataset
from slimadapt.errors import ConfigError, NumericError, UsageError
from slimadapt.losses import domain_confusion_targets, one_hot
from slimadapt.seeding import named_rng
from slimadapt.slimnet import Architecture, ParamStore, SlimModel
from slimadapt.trainer import (
    ConfidencePolicy,
    TrainerConfig,
    confidence,
    distillation_loss,
    ensemble,
    init_bank,
    sample_width_configs,
    sharpen,
    train,
    train_step,
    train_step_baseline,
    train_step_inplaced,
)

ARCH = Architecture(input_dim=6, block_max_widths=(16, 24), layers_per_block=1, class_count=3)


def tiny_dataset(n=64, seed=0):
    return make_dataset(ShiftSpec("MIXED", 0.8, noise_std=1.0), K=3, d=6,
                        n_s=n, n_t=n, seed=seed)


def task_probs(models, x):
    """Each model's task prediction on `x` (train-mode features, array heads)."""
    return [m.probs(m.features(x).data, "task") for m in models]


def routed(model, xs, xt):
    """The model's `routed_probs` records of the source and target batches."""
    return [model.routed_probs(model.features(x)) for x in (xs, xt)]


def slimda_ext_weights(configs, cfg):
    """slimda's extractor-term weights, recomputed from the sampled configs:
    confusion by confidence, SEED by its complement (zero if all confident)."""
    conf = confidence(configs, cfg.policy, ARCH)
    anti = 1 - conf
    return conf / conf.sum(), anti / anti.sum() if anti.sum() > 0 else np.zeros_like(conf)


def small_batch(seed=0, n=16):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, ARCH.input_dim))
    ys = rng.integers(0, ARCH.class_count, size=n)
    xt = rng.normal(size=(n, ARCH.input_dim))
    return xs, ys, xt


class TestSampling:
    def test_m2_is_exactly_largest_and_smallest(self):
        configs = sample_width_configs(np.random.default_rng(0), ARCH, 2)
        assert configs[0].widths == ARCH.block_max_widths
        assert configs[1].widths == ARCH.min_widths()

    def test_sorted_by_flops_descending_and_anchored(self):
        configs = sample_width_configs(np.random.default_rng(1), ARCH, 10)
        flops = [c.flops for c in configs]
        assert flops == sorted(flops, reverse=True)
        assert configs[0].widths == ARCH.block_max_widths
        assert any(c.widths == ARCH.min_widths() for c in configs)

    def test_reproducible_under_fixed_seed(self):
        a = sample_width_configs(np.random.default_rng(5), ARCH, 8)
        b = sample_width_configs(np.random.default_rng(5), ARCH, 8)
        assert [c.widths for c in a] == [c.widths for c in b]

    def test_m_below_two_rejected(self):
        with pytest.raises(UsageError):
            sample_width_configs(np.random.default_rng(0), ARCH, 1)

    @pytest.mark.parametrize("m", [2.5, 3.0])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(UsageError, match="model batch size must be >= 2"):
            sample_width_configs(np.random.default_rng(0), ARCH, m)

    def test_width_coverage_over_many_draws(self):
        # Each block's sampled widths should cover at least half of the
        # legal range across 1000 draws.
        rng = np.random.default_rng(7)
        seen = [set() for _ in range(ARCH.n_blocks)]
        for _ in range(1000):
            for cfg in sample_width_configs(rng, ARCH, 10):
                for b, w in enumerate(cfg.widths):
                    seen[b].add(w)
        for b, (lo, hi) in enumerate(zip(ARCH.min_widths(), ARCH.block_max_widths)):
            assert len(seen[b]) >= 0.5 * (hi - lo + 1)


class TestConfidence:
    def test_hard_values(self):
        configs = [ARCH.full_config(), ARCH.smallest_config()]
        conf = confidence(configs, ConfidencePolicy(lam=0.5, mode="hard"), ARCH)
        assert conf[0] == 1.0  # ratio 1.0 >= lam
        assert conf[1] == 0.0  # tiny ratio

    def test_hard_threshold_tie_counts_as_confident(self):
        # Synthetic ratio exactly at lam: covered through a config whose
        # flops hit exactly half of full.
        policy = ConfidencePolicy(lam=1.0, mode="hard")
        conf = confidence([ARCH.full_config()], policy, ARCH)
        assert conf[0] == 1.0

    def test_general_s1_equals_ratio(self):
        # g = 0.5*(2r-1) + 0.5 = r, checked at r = 0.75 via direct formula
        a = 2 * 0.75 - 1
        assert 0.5 * np.sign(a) * abs(a) ** 1 + 0.5 == pytest.approx(0.75)

    def test_general_small_s_matches_hard_off_threshold(self):
        r = np.linspace(0.05, 0.95, 19)
        r = r[np.abs(r - 0.5) > 1e-6]
        hard = (r >= 0.5).astype(float)
        a = 2 * r - 1
        general = 0.5 * np.sign(a) * np.abs(a) ** 1e-6 + 0.5
        assert np.max(np.abs(general - hard)) < 1e-3

    def test_general_gives_half_at_threshold(self):
        a = 0.0
        assert 0.5 * np.sign(a) * abs(a) ** 0.3 + 0.5 == pytest.approx(0.5)


class TestEnsembleAndSharpen:
    def test_single_confident_model(self):
        bank = init_bank(ARCH, 1)
        models = [bank.slice(c) for c in (ARCH.full_config(), ARCH.smallest_config())]
        xt = np.random.default_rng(2).normal(size=(8, ARCH.input_dim))
        parts = task_probs(models, xt)
        g = ensemble(parts, np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, parts[0], atol=1e-12)

    def test_two_equal_weights_average(self):
        bank = init_bank(ARCH, 1)
        cfgs = [ARCH.full_config(), ARCH.make_config((8, 12))]
        models = [bank.slice(c) for c in cfgs]
        xt = np.random.default_rng(3).normal(size=(5, ARCH.input_dim))
        parts = task_probs(models, xt)
        g = ensemble(parts, np.array([1.0, 1.0]))
        np.testing.assert_allclose(g, (parts[0] + parts[1]) / 2, atol=1e-12)

    def test_ensemble_rows_are_distributions(self):
        bank = init_bank(ARCH, 4)
        configs = sample_width_configs(np.random.default_rng(0), ARCH, 5)
        models = [bank.slice(c) for c in configs]
        xt = np.random.default_rng(5).normal(size=(6, ARCH.input_dim))
        g = ensemble(task_probs(models, xt), np.array([1.0, 1.0, 0.5, 0.0, 0.0]))
        assert np.all(g >= 0)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-9)

    def test_sharpen_identity_at_tau_one(self):
        g = np.array([[0.2, 0.3, 0.5]])
        np.testing.assert_allclose(sharpen(g, 1.0), g, atol=1e-12)

    def test_sharpen_uniform_fixed_point(self):
        g = np.full((3, 4), 0.25)
        np.testing.assert_allclose(sharpen(g, 0.5), g, atol=1e-12)

    def test_sharpen_hand_value(self):
        # square-and-normalize at tau = 0.5: [0.49, 0.09] / 0.58
        got = sharpen(np.array([[0.7, 0.3]]), 0.5)
        np.testing.assert_allclose(got, [[0.49 / 0.58, 0.09 / 0.58]], atol=1e-12)

    def test_sharpen_preserves_argmax_and_reduces_entropy(self):
        rng = np.random.default_rng(11)
        g = rng.dirichlet(np.ones(5), size=200)
        out = sharpen(g, 0.5)
        assert np.array_equal(out.argmax(axis=1), g.argmax(axis=1))
        ent = lambda p: -(p * np.log(np.clip(p, 1e-300, 1))).sum(axis=1)
        assert np.all(ent(out) <= ent(g) + 1e-12)

    def test_sharpen_rejects_bad_tau(self):
        with pytest.raises(UsageError):
            sharpen(np.array([[1.0]]), 0.0)

    def test_sharpen_rejects_nan_tau(self):
        with pytest.raises(UsageError, match="tau must be positive, got nan"):
            sharpen(np.array([[0.7, 0.3]]), float("nan"))


class TestDistillationLoss:
    def test_prediction_equal_to_target_hits_entropy_floor(self):
        # Cross-entropy of a distribution against itself is its entropy.
        rng = np.random.default_rng(0)
        g_seed = rng.dirichlet(np.ones(4), size=6)
        ce = ad.cross_entropy(ad.log(ad.Tensor(g_seed)), g_seed).item()
        want = (-(g_seed * np.log(g_seed)).sum(axis=1)).mean()
        assert abs(ce - want) < 1e-9

    def test_one_hot_target_matched_goes_to_zero(self):
        onehot = np.eye(3)[[0, 2]]
        ce = ad.cross_entropy(ad.log(ad.Tensor(onehot)), onehot).item()
        assert abs(ce) < 1e-6  # floor-clamped zeros contribute nothing

    def test_batch_permutation_invariance(self):
        bank = init_bank(ARCH, 3)
        model = bank.slice(ARCH.make_config((8, 12)))
        xs, ys, xt = small_batch(4)
        g_seed = np.random.default_rng(1).dirichlet(np.ones(3), size=len(xt))
        routed = lambda x: model.routed_probs(model.features(x), ("s", "t", "a"))
        base = distillation_loss(routed(xt), g_seed, routed(xs), one_hot(ys, 3))[0].item()
        perm = np.random.default_rng(2).permutation(len(xt))
        again = distillation_loss(routed(xt[perm]), g_seed[perm], routed(xs[perm]),
                                  one_hot(ys[perm], 3))[0].item()
        assert abs(base - again) < 1e-9


class TestStepRouting:
    def test_seed_gradients_never_reach_task_heads(self, observe_step):
        bank = init_bank(ARCH, 6)
        cfg = TrainerConfig(model_batch_size=4, epochs=1)
        xs, ys, xt = small_batch(7)
        probe = observe_step(train_step, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             named_rng(0, "model"))
        for grads in probe.gradients(d.cls for d in probe.distill):
            assert all(name.startswith("c.a") for name in grads)
        for grads in probe.gradients(t.classifier_loss for t in probe.dc):
            assert all(name.startswith(("c.s", "c.t")) for name in grads)
        for grads in probe.gradients(probe.ext_losses):
            assert all(name.startswith("f.") for name in grads)

    def test_extractor_mixture_matches_reconstruction(self, observe_step):
        bank = init_bank(ARCH, 8)
        cfg = TrainerConfig(model_batch_size=5, epochs=1)
        xs, ys, xt = small_batch(9)
        probe = observe_step(train_step, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             named_rng(1, "model"))
        w_dc, w_seed = slimda_ext_weights(probe.configs, cfg)
        dc_ext = probe.gradients(t.extractor_loss for t in probe.dc)
        seed_ext = probe.gradients(d.ext for d in probe.distill)
        assert set(probe.applied) == set(bank.params)
        for name, got in probe.applied_to("f.").items():
            want = sum(w * g.get(name, 0.0) for w, g in zip(w_dc, dc_ext))
            want = want + sum(w * g.get(name, 0.0) for w, g in zip(w_seed, seed_ext))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_hard_policy_largest_model_is_always_confident(self, observe_step):
        bank = init_bank(ARCH, 9)
        cfg = TrainerConfig(model_batch_size=6)
        xs, ys, xt = small_batch(10)
        probe = observe_step(train_step, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             named_rng(2, "model"))
        assert confidence(probe.configs, cfg.policy, ARCH)[0] == 1.0

    def test_degenerate_batch_equals_single_model_gradients(self, observe_step):
        # An architecture whose smallest config IS the full config makes
        # every sampled batch identical models; the averaged step must
        # reproduce a single model's gradients exactly.
        arch = Architecture(input_dim=3, block_max_widths=(1,), layers_per_block=1, class_count=2)
        bank = init_bank(arch, 0)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(6, 3))
        ys = rng.integers(0, 2, size=6)
        xt = rng.normal(size=(6, 3))
        cfg = TrainerConfig(model_batch_size=2, w_ent=0.1)
        probe = observe_step(train_step_baseline, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             np.random.default_rng(0))
        # bank params moved during the step; recompute the oracle on a fresh bank
        fresh = init_bank(arch, 0)
        single = domain_confusion_targets(*routed(fresh.slice(arch.full_config()), xs, xt), ys,
                                          w_ent=0.1)
        want_cls = ad.gradients(single.classifier_loss, fresh.params)
        for name, got in probe.applied_to("c.").items():
            # the unread deployment head "a" is applied a zero gradient
            np.testing.assert_allclose(got, want_cls.get(name, 0.0), atol=1e-12)

    def test_parameter_isolation_single_step(self):
        # Combining gradients of two narrow models and applying one update
        # never touches store entries outside the union of their slices.
        bank = init_bank(ARCH, 12)
        xs, ys, xt = small_batch(13)
        narrow = [ARCH.make_config((4, 6)), ARCH.make_config((8, 6))]
        losses = []
        for mdl in (bank.slice(c) for c in narrow):
            t = domain_confusion_targets(*routed(mdl, xs, xt), ys, w_ent=0.1)
            losses += [t.classifier_loss, t.extractor_loss]
        grads = ad.gradients(sum(loss * 0.25 for loss in losses), bank.params)
        combined = {n: grads.get(n, np.zeros(p.shape)) for n, p in bank.params.items()}
        before = {k: v.copy() for k, v in bank.state_arrays().items()}
        ad.sgd_step(bank.params, combined, ad.SgdState(lr=0.05, momentum=0.9))
        w = bank["f.b0.l0.w"].data
        assert np.array_equal(w[:, 8:], before["f.b0.l0.w"][:, 8:])  # outside widest slice
        assert not np.array_equal(w[:, :4], before["f.b0.l0.w"][:, :4])
        cw = bank["c.s.w"].data
        assert np.array_equal(cw[6:, :], before["c.s.w"][6:, :])


STEP_FNS = {"slimda": train_step, "baseline": train_step_baseline,
            "inplaced": train_step_inplaced}


def _weighted_sum(weights, grad_dicts):
    """Reference mixture: sum_j w_j * grads_j over the union of names."""
    out = {}
    for w, grads in zip(weights, grad_dicts):
        for name, g in grads.items():
            out[name] = out.get(name, 0.0) + w * g
    return out


def _assert_grads_close(got, want, atol=1e-12):
    # A name missing on one side reads zero on the other: zero-weight terms
    # never enter the fused graph, but do enter the reference as w * g = 0.
    for name in set(got) | set(want):
        np.testing.assert_allclose(got.get(name, 0.0), want.get(name, 0.0), rtol=0, atol=atol)


class TestFusedStep:
    """One backward over the weighted loss sum equals the per-loss
    gradients mixed with the same weights."""

    @pytest.mark.parametrize("mode", ["baseline", "inplaced"])
    def test_fused_gradients_match_per_loss_reconstruction(self, mode, observe_step):
        bank = init_bank(ARCH, 40)
        cfg = TrainerConfig(mode=mode, model_batch_size=5)
        xs, ys, xt = small_batch(41)
        probe = observe_step(STEP_FNS[mode], bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             named_rng(5, "model"))
        m = len(probe.configs)
        per_cls, per_ext = probe.gradients(probe.cls_losses), probe.gradients(probe.ext_losses)
        assert len(per_cls) == len(per_ext) == m
        assert set(probe.applied) == set(bank.params)
        cls_grads, ext_grads = probe.applied_to("c."), probe.applied_to("f.")
        _assert_grads_close(cls_grads, _weighted_sum([1 / m] * m, per_cls))
        _assert_grads_close(ext_grads, _weighted_sum([1 / m] * m, per_ext))
        assert all(n.startswith("c.") for grads in per_cls for n in grads)
        assert all(n.startswith("f.") for grads in per_ext for n in grads)

    @settings(max_examples=15, deadline=None)
    @given(m=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 20))
    def test_slimda_fused_gradients_match_weighted_per_loss_sum(self, m, seed, n, observe_step):
        bank = init_bank(ARCH, seed)
        cfg = TrainerConfig(model_batch_size=m)
        xs, ys, xt = small_batch(seed, n=n)
        probe = observe_step(train_step, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             named_rng(seed, "model"))
        w_dc, w_seed = slimda_ext_weights(probe.configs, cfg)
        assert len(probe.dc) == len(probe.distill) == m
        _assert_grads_close(probe.applied_to("c."), _weighted_sum(
            [1 / m] * (2 * m), probe.gradients(probe.cls_losses)))
        _assert_grads_close(probe.applied_to("f."), _weighted_sum(
            list(w_dc) + list(w_seed), probe.gradients(probe.ext_losses)))

    @pytest.mark.parametrize("mode", sorted(STEP_FNS))
    def test_one_backward_per_step(self, mode, monkeypatch):
        calls = []
        original = ad.backward
        monkeypatch.setattr(ad, "backward", lambda loss: calls.append(1) or original(loss))
        bank = init_bank(ARCH, 42)
        cfg = TrainerConfig(mode=mode, model_batch_size=4)
        xs, ys, xt = small_batch(43)
        STEP_FNS[mode](bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg, named_rng(6, "model"))
        assert len(calls) == 1

    @pytest.mark.parametrize("mode, heads", [("slimda", 3), ("baseline", 2), ("inplaced", 2)])
    def test_each_head_product_once_per_model_and_domain(self, mode, heads, monkeypatch):
        """A step computes heads x 2 domains x m head products (slimda's
        "s", "t" and "a"; the task heads otherwise), all through
        `affine_routes`: it never calls `head_logits`, and its only
        matmuls are the feature layers'."""
        calls = {"affine_routes": 0, "head_logits": 0, "matmul": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ad, "affine_routes", counted("affine_routes", ad.affine_routes))
        monkeypatch.setattr(ad, "matmul", counted("matmul", ad.matmul))
        monkeypatch.setattr(SlimModel, "head_logits",
                            counted("head_logits", SlimModel.head_logits))
        m = 5
        cfg = TrainerConfig(mode=mode, model_batch_size=m)
        STEP_FNS[mode](init_bank(ARCH, 44), ad.SgdState(lr=0.01, momentum=0.9), *small_batch(45), cfg,
                       named_rng(7, "model"))
        layers = ARCH.n_blocks * ARCH.layers_per_block
        assert calls == {"affine_routes": heads * 2 * m, "head_logits": 0,
                         "matmul": 2 * m * layers}


class TestNonFiniteStep:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", ["f.b0.l0.w", "c.s.w"])
    @pytest.mark.parametrize("mode", sorted(STEP_FNS))
    def test_overflowing_weights_fail_the_step_and_change_nothing(self, mode, name):
        """A weight column at 1e308.  No op checks its output: the overflow
        surfaces at the step's boundaries (log, loss values, updated
        parameters), and the failed step leaves every parameter and
        momentum buffer as it was."""
        bank = init_bank(ARCH, 50)
        cfg = TrainerConfig(mode=mode, model_batch_size=4)
        state, rng = ad.SgdState(lr=0.01, momentum=0.9), named_rng(8, "model")
        xs, ys, xt = small_batch(51)
        STEP_FNS[mode](bank, state, xs, ys, xt, cfg, rng)  # fills the momentum buffers
        bank[name].data[:, 0] = 1e308
        params = {n: p.data.tobytes() for n, p in bank.params.items()}
        buffers = {n: b.tobytes() for n, b in state.buffers.items()}
        assert set(buffers) == set(params)
        with pytest.raises(NumericError):
            STEP_FNS[mode](bank, state, xs, ys, xt, cfg, rng)
        assert {n: p.data.tobytes() for n, p in bank.params.items()} == params
        assert {n: b.tobytes() for n, b in state.buffers.items()} == buffers


class TestStepGraph:
    """A step builds no op node that its fused loss does not reach, except
    the heads it reads for their values alone."""

    @staticmethod
    def unreached(monkeypatch, mode, xs, ys, xt):
        """The op nodes one step builds that `backward` never visits."""
        built, losses = [], []
        node, gradients = ad._node, ad.gradients

        def record_node(*args):
            built.append(node(*args))
            return built[-1]

        def record_loss(loss, params):
            losses.append(loss)
            return gradients(loss, params)

        monkeypatch.setattr(ad, "_node", record_node)
        monkeypatch.setattr(ad, "gradients", record_loss)
        STEP_FNS[mode](init_bank(ARCH, 60), ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt,
                       TrainerConfig(mode=mode, model_batch_size=4), named_rng(9, "model"))
        (loss,) = losses
        reached, stack = {id(loss)}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if parent.requires_grad and id(parent) not in reached:
                    reached.add(id(parent))
                    stack.append(parent)
        return [t for t in built if id(t) not in reached]

    def test_baseline_builds_only_what_its_loss_reaches(self, monkeypatch):
        assert self.unreached(monkeypatch, "baseline", *small_batch(61)) == []

    def test_inplaced_builds_only_the_teachers_value_only_heads(self, monkeypatch):
        """The teacher's source-batch task prediction is a constant target:
        its "s", "t" and "task" heads are built for their values only."""
        xs, ys, xt = small_batch(62)
        teacher = init_bank(ARCH, 60).slice(ARCH.full_config())
        want = teacher.probs(teacher.features(xs).data, "task")
        unreached = self.unreached(monkeypatch, "inplaced", xs, ys, xt)
        assert sorted(t.name for t in unreached) == ["add", "mul", "softmax", "softmax"]
        (task,) = [t for t in unreached if t.name == "mul"]
        assert task.data.tobytes() == want.tobytes()


class TestInplaced:
    def test_teacher_prediction_is_distillation_target(self, observe_step):
        bank = init_bank(ARCH, 14)
        cfg = TrainerConfig(mode="inplaced", model_batch_size=3)
        xs, ys, xt = small_batch(15)
        probe = observe_step(train_step_inplaced, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             named_rng(3, "model"))
        fresh = init_bank(ARCH, 14)
        teacher = fresh.slice(probe.configs[0])
        want = teacher.probs(teacher.features(xt, mode="train").data, "task")
        assert len(probe.distill) == 2  # one call per student
        for call in probe.distill:
            np.testing.assert_allclose(call.target_t, want, atol=1e-12)

    def test_students_receive_both_head_and_feature_gradients(self, observe_step):
        bank = init_bank(ARCH, 15)
        cfg = TrainerConfig(mode="inplaced", model_batch_size=3)
        xs, ys, xt = small_batch(16)
        probe = observe_step(train_step_inplaced, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                             named_rng(4, "model"))
        student = probe.distill[0]
        student_cls, student_ext = probe.gradients((student.cls, student.ext))
        assert any(name.startswith(("c.s", "c.t")) for name in student_cls)
        assert all(not name.startswith("c.a") for name in student_cls)
        assert all(name.startswith("f.") for name in student_ext)


class TestTrainLoop:
    def test_zero_epochs_leaves_bank_unchanged(self):
        bank = init_bank(ARCH, 20)
        before = {k: v.copy() for k, v in bank.state_arrays().items()}
        log = train(bank, tiny_dataset(), TrainerConfig(epochs=0, batch_size=16,
                                                        model_batch_size=2))
        assert log == []
        for k, v in bank.state_arrays().items():
            np.testing.assert_array_equal(v, before[k])

    def test_log_length_and_keys(self):
        bank = init_bank(ARCH, 21)
        log = train(bank, tiny_dataset(), TrainerConfig(epochs=2, batch_size=32,
                                                        model_batch_size=2))
        assert len(log) == 2
        for row in log:
            for key in ("epoch", "mode", "steps", "loss_task", "loss_dd", "loss_conf", "loss_ent",
                        "loss_seed", "probe_acc_1", "probe_acc_64th", "seconds"):
                assert key in row

    def test_epoch_with_one_row_left_over(self):
        """257 rows at batch 128 leave one row over; it joins the last batch
        instead of reaching train-mode BN alone."""
        bank = init_bank(ARCH, 22)
        log = train(bank, tiny_dataset(n=257), TrainerConfig(epochs=1, batch_size=128,
                                                             model_batch_size=2))
        assert log[0]["steps"] == 2

    def test_bitwise_deterministic_parameter_trajectory(self):
        cfg = TrainerConfig(epochs=2, batch_size=16, model_batch_size=3, seed=5)
        ds = tiny_dataset(seed=2)
        bank_a, bank_b = init_bank(ARCH, 5), init_bank(ARCH, 5)
        log_a = train(bank_a, ds, cfg)
        log_b = train(bank_b, ds, cfg)
        for k in bank_a.params:
            np.testing.assert_array_equal(bank_a[k].data, bank_b[k].data)
        for ra, rb in zip(log_a, log_b):
            assert ra["loss_task"] == rb["loss_task"]
            assert ra["loss_seed"] == rb["loss_seed"]

    def test_modes_share_data_and_model_streams(self, observe_step):
        # First sampled model batch must be identical across modes.
        caps = {}
        for mode in ("slimda", "baseline", "inplaced"):
            bank = init_bank(ARCH, 30)
            cfg = TrainerConfig(mode=mode, model_batch_size=5)
            xs, ys, xt = small_batch(31)
            fn = {"slimda": train_step, "baseline": train_step_baseline,
                  "inplaced": train_step_inplaced}[mode]
            probe = observe_step(fn, bank, ad.SgdState(lr=0.01, momentum=0.9), xs, ys, xt, cfg,
                                 named_rng(9, "model"))
            caps[mode] = [c.widths for c in probe.configs]
        assert caps["slimda"] == caps["baseline"] == caps["inplaced"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainerConfig(mode="other")
        with pytest.raises(ConfigError):
            TrainerConfig(model_batch_size=1)
        with pytest.raises(ConfigError):
            TrainerConfig(tau=0.0)

    @pytest.mark.parametrize("make,name", [
        (lambda: TrainerConfig(tau=math.nan), "tau"),
        (lambda: TrainerConfig(w_ent=math.nan), "w_ent"),
        (lambda: TrainerConfig(w_ent=math.inf), "w_ent"),
        (lambda: TrainerConfig(w_ent=-0.1), "w_ent"),
        (lambda: ConfidencePolicy(s=math.nan), "s"),
        (lambda: TrainerConfig(batch_size=math.nan), "batch_size"),
        (lambda: TrainerConfig(batch_size=1), "batch_size"),
        (lambda: TrainerConfig(model_batch_size=math.nan), "model_batch_size"),
    ], ids=["tau-nan", "w_ent-nan", "w_ent-inf", "w_ent-negative", "s-nan", "batch_size-nan",
            "batch_size-one", "model_batch_size-nan"])
    def test_nan_and_out_of_range_values_are_refused(self, make, name):
        """Each guard is written so that NaN fails it."""
        with pytest.raises(ConfigError, match=rf"^{name} must"):
            make()

    @pytest.mark.parametrize("field,value", [
        ("epochs", 1.5), ("epochs", 2.0), ("epochs", True), ("epochs", math.nan),
        ("batch_size", 16.5), ("batch_size", "16"), ("model_batch_size", 2.5),
        ("seed", 1.5), ("seed", -1), ("seed", True), ("seed", math.nan),
    ])
    def test_integer_fields_refuse_other_values_by_name(self, field, value):
        """A float, a bool, a string or a negative seed is refused when the
        config is built, not by a bare TypeError or ValueError in `train`."""
        with pytest.raises(ConfigError, match=rf"^{field} must be >= \d, got .*; integers only$"):
            TrainerConfig(**{field: value})

    def test_numpy_integer_fields_accepted(self):
        cfg = TrainerConfig(epochs=np.int64(1), batch_size=np.int32(16),
                            model_batch_size=np.int64(3), seed=np.uint32(7))
        assert (cfg.epochs, cfg.batch_size, cfg.model_batch_size, cfg.seed) == (1, 16, 3, 7)
