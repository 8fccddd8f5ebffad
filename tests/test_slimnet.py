"""Slimmable network tests.

The slicing oracle is a standalone network: copy a sub-model's sliced
weights into a freshly assembled plain-numpy forward pass of exactly
those widths, and require identical outputs.  The oracle path never
touches the autodiff engine or the slicing code.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slimadapt import autodiff as ad
from slimadapt.errors import ConfigError, NumericError, UsageError
from slimadapt.search import anchor_discrepancy
from slimadapt.slimnet import (
    BN_EPS,
    EVAL_BATCH,
    Architecture,
    ParamStore,
    _eval_layer,
    adabn_pass,
    adabn_recalibrate,
    flops_per_sample,
    flops_step,
)

ARCH = Architecture(input_dim=6, block_max_widths=(16, 24), layers_per_block=2, class_count=3)


@pytest.fixture
def store():
    return ParamStore(ARCH, np.random.default_rng(0))


def standalone_forward(store, widths, x, head="s"):
    """Plain-numpy train-mode forward of a freshly 'built' network whose
    weights are copied out of the sliced store regions."""
    arch = store.arch
    h = np.asarray(x, dtype=np.float64)
    prev = arch.input_dim
    for i, w in enumerate(widths):
        for j in range(arch.layers_per_block):
            in_w = prev if j == 0 else w
            base = f"f.b{i}.l{j}"
            weight = store[f"{base}.w"].data[:in_w, :w].copy()
            gamma = store[f"{base}.bn_g"].data[:w].copy()
            beta = store[f"{base}.bn_b"].data[:w].copy()
            h = h @ weight
            mu, var = h.mean(axis=0), h.var(axis=0)
            h = gamma * (h - mu) / np.sqrt(var + 1e-5) + beta
            h = np.maximum(h, 0.0)
        prev = w
    cw = store[f"c.{head}.w"].data[: widths[-1]].copy()
    cb = store[f"c.{head}.b"].data.copy()
    return h @ cw + cb


def quadratic_adabn(store, widths, x, batch_size):
    """Reference AdaBN in plain numpy: every BN layer's input is re-derived
    from the raw input, batch by batch, through all earlier layers in eval
    mode with the statistics fixed so far (L(L+1)/2 layer forwards)."""
    arch = store.arch
    layers = []
    prev = arch.input_dim
    for i, w in enumerate(widths):
        for j in range(arch.layers_per_block):
            in_w = prev if j == 0 else w
            base = f"f.b{i}.l{j}"
            layers.append((store[f"{base}.w"].data[:in_w, :w], store[f"{base}.bn_g"].data[:w],
                           store[f"{base}.bn_b"].data[:w]))
        prev = w
    means, variances = [], []
    for weight, _, _ in layers:
        acts = []
        for lo in range(0, len(x), batch_size):
            h = x[lo:lo + batch_size]
            for (w_j, g_j, beta_j), mu, var in zip(layers, means, variances):
                xhat = (h @ w_j - mu) * (1.0 / np.sqrt(var + BN_EPS))
                h = g_j * xhat + beta_j
                h = np.where(h > 0, h, 0.0)
            acts.append(h @ weight)
        # Two passes over the batches: column sums over n, then the mean
        # squared deviation from that mean.
        mean = sum(h.sum(axis=0) for h in acts) / len(x)
        means.append(mean)
        variances.append(sum(((h - mean) ** 2).sum(axis=0) for h in acts) / len(x))
    return means, variances


def sliced_logits(store, widths, x, head="s"):
    model = store.slice(store.arch.make_config(widths))
    feats = model.features(x, mode="train")
    return model.head_logits(feats.data, head)


class TestConfigs:
    def test_full_and_smallest(self):
        assert ARCH.full_config().widths == (16, 24)
        assert ARCH.smallest_config().widths == (2, 3)

    def test_illegal_widths_rejected(self):
        with pytest.raises(ConfigError):
            ARCH.make_config((1, 24))  # below 1/8 of 16
        with pytest.raises(ConfigError):
            ARCH.make_config((16, 25))
        with pytest.raises(ConfigError):
            ARCH.make_config((16,))

    @pytest.mark.parametrize("widths", ["816", (8, 8.5), (8, True), 8, None, (8, "6")],
                             ids=["string", "float", "bool", "int", "none", "string-item"])
    def test_block_widths_must_be_a_list_or_tuple_of_ints(self, widths):
        """Nothing is coerced: "816" is not the widths (8, 1, 6), 8.5 is not
        8 and True is not 1."""
        with pytest.raises(ConfigError, match="^block_max_widths must be a list or tuple of ints"):
            Architecture(input_dim=6, block_max_widths=widths)

    def test_block_widths_take_numpy_ints_and_lists(self):
        arch = Architecture(input_dim=6, block_max_widths=[np.int64(16), 24])
        assert arch.block_max_widths == (16, 24) and type(arch.block_max_widths[0]) is int

    def test_classifier_heads_are_disjoint_tensors(self, store):
        ids = {id(store[f"c.{h}.w"]) for h in ("s", "t", "a")}
        assert len(ids) == 3

    def test_slimmable_layer_is_weight_gamma_beta(self, store):
        """BN cancels a pre-BN bias, so the Linear layers carry none."""
        names = {f"f.b{i}.l{j}.{p}" for i in range(ARCH.n_blocks)
                 for j in range(ARCH.layers_per_block) for p in ("w", "bn_g", "bn_b")}
        assert {n for n in store.params if n.startswith("f.")} == names
        model = store.slice(ARCH.make_config((8, 12)))
        layers = list(model.layers())
        assert len(layers) == ARCH.n_blocks * ARCH.layers_per_block
        for k, (weight, gamma, beta) in enumerate(layers):
            width = 8 if k < ARCH.layers_per_block else 12
            assert weight.shape[1] == gamma.shape[0] == beta.shape[0] == width


class TestSlicing:
    def test_full_config_identical_to_full_forward(self, store):
        x = np.random.default_rng(1).normal(size=(8, ARCH.input_dim))
        full = sliced_logits(store, ARCH.block_max_widths, x)
        again = sliced_logits(store, ARCH.block_max_widths, x)
        np.testing.assert_array_equal(full, again)

    def test_standalone_copy_oracle(self, store):
        rng = np.random.default_rng(2)
        for _ in range(50):
            widths = tuple(
                int(rng.integers(lo, hi + 1))
                for lo, hi in zip(ARCH.min_widths(), ARCH.block_max_widths)
            )
            x = rng.normal(size=(5, ARCH.input_dim))
            got = sliced_logits(store, widths, x)
            want = standalone_forward(store, widths, x)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_forward_is_pure(self, store):
        x = np.random.default_rng(3).normal(size=(4, ARCH.input_dim))
        a = sliced_logits(store, (8, 12), x)
        b = sliced_logits(store, (8, 12), x)
        np.testing.assert_array_equal(a, b)

    def test_gradients_zero_outside_sliced_region(self, store):
        x = np.random.default_rng(4).normal(size=(6, ARCH.input_dim))
        widths = (8, 12)
        model = store.slice(ARCH.make_config(widths))
        feats = model.features(x, mode="train")
        loss = sum(route["s"].sum() for route in model.routed_probs(feats))
        grads = ad.backward(loss)
        w0 = grads[store["f.b0.l0.w"]]
        assert np.all(w0[:, widths[0]:] == 0)
        assert np.any(w0[:, : widths[0]] != 0)
        w1 = grads[store["f.b1.l0.w"]]
        assert np.all(w1[widths[0]:, :] == 0)
        assert np.all(w1[:, widths[1]:] == 0)
        cw = grads[store["c.s.w"]]
        assert np.all(cw[widths[1]:, :] == 0)


class TestHeads:
    def test_probability_heads_are_distributions(self, store):
        x = np.random.default_rng(5).normal(size=(7, ARCH.input_dim))
        model = store.slice(ARCH.make_config((8, 12)))
        feats = model.features(x, mode="train").data
        for head in ("s", "t", "a", "st", "task"):
            p = model.probs(feats, head)
            assert np.all(p >= 0)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_st_head_halves_equal_when_heads_identical(self, store):
        store.params["c.t.w"] = ad.Tensor(store["c.s.w"].data.copy(), requires_grad=True)
        store.params["c.t.b"] = ad.Tensor(store["c.s.b"].data.copy(), requires_grad=True)
        x = np.random.default_rng(6).normal(size=(5, ARCH.input_dim))
        model = store.slice(ARCH.full_config())
        feats = model.features(x, mode="train").data
        p = model.probs(feats, "st")
        k = ARCH.class_count
        np.testing.assert_allclose(p[:, :k], p[:, k:], atol=1e-12)

    def test_joint_softmax_dilutes_per_class_mass(self, store):
        # For any finite logits, the 2K-way softmax puts strictly less mass
        # on class k than the K-way softmax over the same source logits.
        x = np.random.default_rng(7).normal(size=(5, ARCH.input_dim))
        model = store.slice(ARCH.full_config())
        feats = model.features(x, mode="train").data
        g_s = model.probs(feats, "s")
        g_st = model.probs(feats, "st")
        assert np.all(g_st[:, : ARCH.class_count] < g_s)

    def test_zero_input_zero_params_gives_zero_features(self):
        arch = Architecture(input_dim=4, block_max_widths=(8,), layers_per_block=1, class_count=2)
        store = ParamStore(arch, np.random.default_rng(0))
        x = np.zeros((3, 4))
        model = store.slice(arch.full_config())
        feats = model.features(x, mode="train")
        np.testing.assert_allclose(feats.data, 0.0, atol=1e-12)

    def test_single_row_train_batch_rejected(self, store):
        model = store.slice(ARCH.full_config())
        with pytest.raises(UsageError):
            model.features(np.ones((1, ARCH.input_dim)), mode="train")

    def test_eval_without_recalibration_rejected(self, store):
        model = store.slice(ARCH.full_config())
        with pytest.raises(UsageError):
            model.features(np.ones((4, ARCH.input_dim)), mode="eval")

    def test_unknown_forward_mode_rejected(self, store):
        model = store.slice(ARCH.full_config())
        with pytest.raises(UsageError):
            model.features(np.ones((4, ARCH.input_dim)), mode="test")


class TestRoutedProbs:
    """`routed_probs` builds each head's logits once and serves every
    probability head in two routes, each equal to `probs`."""

    KEYS = {"s", "t", "a", "st", "task"}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9))
    def test_equals_probs_bit_for_bit_at_every_width(self, seed, n):
        rng = np.random.default_rng(seed)
        store = ParamStore(ARCH, rng)
        widths = tuple(int(rng.integers(lo, hi + 1))
                       for lo, hi in zip(ARCH.min_widths(), ARCH.block_max_widths))
        model = store.slice(ARCH.make_config(widths))
        feats = model.features(rng.normal(size=(n, ARCH.input_dim)))
        to_heads, to_features = model.routed_probs(feats, ("s", "t", "a"))
        assert set(to_heads) == set(to_features) == self.KEYS
        for key in self.KEYS:
            want = model.probs(feats.data, key).tobytes()
            assert to_heads[key].data.tobytes() == want
            assert to_features[key].data.tobytes() == want

    def test_each_route_reaches_only_its_side(self, store):
        model = store.slice(ARCH.make_config((8, 12)))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, ARCH.input_dim))
        to_heads, to_features = model.routed_probs(model.features(x), ("s", "t", "a"))
        project = {k: rng.normal(size=p.shape) for k, p in to_heads.items()}
        loss = lambda probs: sum((probs[k] * project[k]).sum() for k in sorted(self.KEYS))
        head_grads = ad.gradients(loss(to_heads), store.params)
        assert set(head_grads) == {f"c.{h}.{p}" for h in "sta" for p in "wb"}
        feature_grads = ad.gradients(loss(to_features), store.params)
        assert feature_grads and all(name.startswith("f.") for name in feature_grads)
        assert all(np.any(g != 0) for g in {**head_grads, **feature_grads}.values())

    def test_task_heads_are_required(self, store):
        model = store.slice(ARCH.full_config())
        feats = model.features(np.ones((4, ARCH.input_dim)))
        with pytest.raises(ConfigError):
            model.routed_probs(feats, ("s", "a"))


class TestFlops:
    def test_single_layer_hand_count(self):
        arch = Architecture(input_dim=4, block_max_widths=(8,), layers_per_block=1, class_count=2)
        # 4*8 mult-adds * 2 for the layer, plus 2*K*feature for the head
        assert flops_per_sample(arch, (8,)) == 2 * 4 * 8 + 2 * 2 * 8

    def test_full_ratio_is_one(self):
        cfg = ARCH.full_config()
        assert cfg.flops / ARCH.full_config().flops == 1.0

    def test_one_eighth_channels_near_one_64th_flops(self):
        # Deep MLP dominated by hidden-hidden layers: scaling every width
        # by 1/8 scales FLOPs by ~1/64.
        arch = Architecture(input_dim=4, block_max_widths=(256, 256), layers_per_block=4,
                            class_count=4)
        ratio = arch.smallest_config().flops / arch.full_config().flops
        assert abs(ratio * 64 - 1.0) < 0.05

    def test_monotone_in_every_block(self):
        base = ARCH.make_config((8, 12))
        for b in range(ARCH.n_blocks):
            widths = list(base.widths)
            widths[b] += 1
            assert ARCH.make_config(widths).flops > base.flops

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_channel_step_is_the_flops_difference(self, data):
        arch, widths = draw_arch_and_widths(data)
        maxes = arch.block_max_widths
        block = data.draw(st.integers(0, len(maxes) - 1))
        step = data.draw(st.sampled_from([1, -1]))
        after = list(widths)
        after[block] += step
        assume(arch.min_widths()[block] <= after[block] <= maxes[block])
        want = flops_per_sample(arch, after) - flops_per_sample(arch, widths)
        assert flops_step(arch, widths, block, step) == want


    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_flops_and_parameters_follow_layer_shapes(self, data):
        """`flops_per_sample` equals the per-block, per-layer loop it
        replaced; the store's names, shapes and random draws, and a
        sub-model's sliced layers, follow `layer_shapes`."""
        arch, widths = draw_arch_and_widths(data)
        assert flops_per_sample(arch, widths) == loop_flops(arch, widths)
        shapes = arch.layer_shapes(widths)
        assert [base for base, _, _ in shapes] == [
            f"f.b{i}.l{j}" for i in range(arch.n_blocks) for j in range(arch.layers_per_block)]
        store = ParamStore(arch, np.random.default_rng(5))
        want = loop_store_arrays(arch, np.random.default_rng(5))
        assert list(store.params) == list(want)
        assert all(store[n].data.tobytes() == a.tobytes() for n, a in want.items())
        for base, in_w, w in arch.layer_shapes(arch.block_max_widths):
            assert store[f"{base}.w"].shape == (in_w, w)
            assert store[f"{base}.bn_g"].shape == store[f"{base}.bn_b"].shape == (w,)
        model = store.slice(arch.make_config(widths))
        assert [(wt.shape, g.shape, b.shape) for wt, g, b in model.layers(arrays=True)] == [
            ((in_w, w), (w,), (w,)) for _, in_w, w in shapes]


def draw_arch_and_widths(data):
    """A random architecture of 1-5 blocks and a legal config of it."""
    maxes = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=5))
    arch = Architecture(input_dim=data.draw(st.integers(1, 32)),
                        block_max_widths=tuple(maxes),
                        layers_per_block=data.draw(st.integers(1, 3)),
                        class_count=data.draw(st.integers(2, 10)))
    return arch, [data.draw(st.integers(lo, hi)) for lo, hi in zip(arch.min_widths(), maxes)]


def loop_flops(arch, widths):
    """Per-sample FLOPs as a loop over blocks and their layers: 2 * in * out
    per layer plus the deployment head."""
    total, prev = 0, arch.input_dim
    for w in widths:
        for layer in range(arch.layers_per_block):
            total += 2 * (prev if layer == 0 else w) * w
        prev = w
    return float(total + 2 * arch.class_count * widths[-1])


def loop_store_arrays(arch, rng):
    """The store's initial arrays, drawn block by block and layer by layer,
    then the heads."""
    arrays, prev = {}, arch.input_dim
    for i, width in enumerate(arch.block_max_widths):
        for j in range(arch.layers_per_block):
            fan_in = prev if j == 0 else width
            arrays[f"f.b{i}.l{j}.w"] = rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, width))
            arrays[f"f.b{i}.l{j}.bn_g"] = np.ones(width)
            arrays[f"f.b{i}.l{j}.bn_b"] = np.zeros(width)
        prev = width
    feat = arch.feature_dim_full
    for head in ParamStore.HEADS:
        arrays[f"c.{head}.w"] = rng.normal(0.0, 1.0 / math.sqrt(feat), (feat, arch.class_count))
        arrays[f"c.{head}.b"] = np.zeros(arch.class_count)
    return arrays


class TestAdaBN:
    def test_single_batch_consistency_with_train_forward(self, store):
        # Recalibrating on exactly one train batch makes eval equal train.
        x = np.random.default_rng(8).normal(size=(32, ARCH.input_dim))
        model = store.slice(ARCH.make_config((8, 12)))
        adabn_recalibrate(model, x)
        train_out = model.features(x, mode="train").data
        eval_out = model.features(x, mode="eval")
        np.testing.assert_allclose(eval_out, train_out, atol=1e-9)

    def test_idempotent(self, store):
        x = np.random.default_rng(9).normal(size=(600, ARCH.input_dim))
        model = store.slice(ARCH.make_config((4, 20)))
        s1 = adabn_recalibrate(model, x)
        s2 = adabn_recalibrate(model, x)
        for a, b in zip(s1.means, s2.means):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(s1.variances, s2.variances):
            np.testing.assert_array_equal(a, b)

    def test_order_invariant_within_tolerance(self, store):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(600, ARCH.input_dim))
        model = store.slice(ARCH.make_config((8, 12)))
        s1 = adabn_recalibrate(model, x)
        perm = rng.permutation(len(x))
        s2 = adabn_recalibrate(store.slice(ARCH.make_config((8, 12))), x[perm])
        for a, b in zip(s1.means, s2.means):
            np.testing.assert_allclose(a, b, atol=1e-10)
        for a, b in zip(s1.variances, s2.variances):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_stats_are_per_config(self, store):
        # Different widths see different activations on asymmetric data.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, ARCH.input_dim)) + np.arange(ARCH.input_dim)
        wide = store.slice(ARCH.make_config((16, 24)))
        narrow = store.slice(ARCH.make_config((2, 3)))
        s_wide = adabn_recalibrate(wide, x)
        s_narrow = adabn_recalibrate(narrow, x)
        assert s_wide.means[0].shape != s_narrow.means[0].shape
        # The first layer's leading columns coincide (the input is never
        # sliced); from the second layer on the active fan-in differs.
        assert not np.allclose(s_wide.means[1][:2], s_narrow.means[1])

    def test_variances_nonnegative(self, store):
        x = np.random.default_rng(12).normal(size=(30, ARCH.input_dim))
        model = store.slice(ARCH.make_config((8, 12)))
        stats = adabn_recalibrate(model, x)
        for v in stats.variances:
            assert np.all(v >= 0)

    def test_empty_data_rejected(self, store):
        model = store.slice(ARCH.full_config())
        with pytest.raises(UsageError):
            adabn_recalibrate(model, np.zeros((0, ARCH.input_dim)))

    @pytest.mark.parametrize("layers_per_block", [1, 2])
    @pytest.mark.parametrize("widths", [(16, 24), (5, 9), (2, 3)])
    @pytest.mark.parametrize("n", [600, 512, 37])
    def test_one_pass_matches_quadratic_reference_bit_for_bit(self, layers_per_block, widths, n):
        arch = Architecture(input_dim=6, block_max_widths=(16, 24),
                            layers_per_block=layers_per_block, class_count=3)
        store = ParamStore(arch, np.random.default_rng(layers_per_block))
        x = np.random.default_rng(14).normal(size=(n, arch.input_dim)) * 2.0 + 0.3
        stats = adabn_recalibrate(store.slice(arch.make_config(widths)), x)
        means, variances = quadratic_adabn(store, widths, x, EVAL_BATCH)
        assert len(stats.means) == len(means) == arch.n_blocks * layers_per_block
        for got, want in zip(stats.means + stats.variances, means + variances):
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(60, 800),
           widths=st.sampled_from([(16, 24), (8, 12), (2, 3)]))
    def test_stats_invariant_to_order_and_batch_size(self, seed, n, widths):
        """`EVAL_BATCH`-row batches of shuffled rows against the reference
        run on all rows as one batch."""
        store = ParamStore(ARCH, np.random.default_rng(0))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, ARCH.input_dim)) + 0.5
        ref_means, ref_variances = quadratic_adabn(store, widths, x, len(x))
        got = adabn_recalibrate(store.slice(ARCH.make_config(widths)), x[rng.permutation(len(x))])
        for a, b in zip(ref_means + ref_variances, got.means + got.variances):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("head", ["a", "st", "task"])
    @pytest.mark.parametrize("layers_per_block", [1, 2])
    @pytest.mark.parametrize("widths", [(16, 24), (5, 9)])
    @pytest.mark.parametrize("n", [512, 300])
    def test_calibrated_probs_equal_predict_bit_for_bit(self, head, layers_per_block, widths, n):
        arch = Architecture(input_dim=6, block_max_widths=(16, 24),
                            layers_per_block=layers_per_block, class_count=3)
        store = ParamStore(arch, np.random.default_rng(layers_per_block))
        x = np.random.default_rng(15).normal(size=(n, arch.input_dim)) * 2.0 + 0.3
        model = store.slice(arch.make_config(widths))
        adabn_recalibrate(model, x)
        np.testing.assert_array_equal(model.calibrated_probs(head),
                                      model.predict(x, head=head))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_shared_pass_matches_each_config_recalibrated_alone(self, data):
        """The slicing oracle for the shared pass: configs that share
        leading widths (and duplicates) get the statistics and predictions
        of their own one-config pass, to 1e-12."""
        maxes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
        arch = Architecture(input_dim=data.draw(st.integers(1, 6)), block_max_widths=tuple(maxes),
                            layers_per_block=data.draw(st.integers(1, 3)), class_count=3)
        legal = [st.integers(lo, hi) for lo, hi in zip(arch.min_widths(), maxes)]
        base = data.draw(st.tuples(*legal))
        configs = []
        for _ in range(data.draw(st.integers(1, 6))):
            keep = data.draw(st.integers(0, len(maxes)))  # leading blocks shared with base
            configs.append(arch.make_config(base[:keep] + data.draw(st.tuples(*legal[keep:]))))
        configs += data.draw(st.lists(st.sampled_from(configs), max_size=3))
        n = data.draw(st.integers(2, 3 * EVAL_BATCH))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        store = ParamStore(arch, rng)
        x = rng.normal(size=(n, arch.input_dim)) * 2.0 + 0.3
        seen = []
        for i, model in adabn_pass(store, configs, x):
            seen.append(i)
            assert model.config == configs[i]
            alone = store.slice(configs[i])
            adabn_recalibrate(alone, x)
            got, want = model.bn.means + model.bn.variances, alone.bn.means + alone.bn.variances
            assert [g.shape for g in got] == [w.shape for w in want]
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.calibrated_probs("a"), alone.calibrated_probs("a"),
                                       rtol=0, atol=1e-12)
        assert sorted(seen) == list(range(len(configs)))

    def test_shared_pass_of_one_config_is_the_recalibration(self, store):
        x = np.random.default_rng(16).normal(size=(300, ARCH.input_dim))
        config = ARCH.make_config((5, 9))
        (i, model), = adabn_pass(store, [config], x)
        alone = store.slice(config)
        adabn_recalibrate(alone, x)
        assert i == 0
        for got, want in zip(model.bn.means + model.bn.variances,
                             alone.bn.means + alone.bn.variances):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(model.calibrated_probs("task"),
                                      alone.calibrated_probs("task"))

    def test_shared_pass_keeps_gradients_on_between_models(self, store):
        """A caller holding a yielded model still builds train-mode graphs."""
        x = np.random.default_rng(17).normal(size=(20, ARCH.input_dim))
        configs = [ARCH.make_config((8, 12)), ARCH.make_config((8, 20))]
        for _, model in adabn_pass(store, configs, x):
            assert model.features(x[:4]).requires_grad

    def test_calibrated_probs_need_recalibration(self, store):
        with pytest.raises(UsageError):
            store.slice(ARCH.make_config((8, 12))).calibrated_probs("a")

    def test_predict_shape_and_normalization(self, store):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(600, ARCH.input_dim))
        model = store.slice(ARCH.make_config((8, 12)))
        adabn_recalibrate(model, x)
        p = model.predict(x, head="a")
        assert p.shape == (600, ARCH.class_count)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


class TestEvalLayer:
    """`_eval_layer` is eval-mode BN then ReLU, in place on arrays; a
    plain numpy expression in the same ufunc order is the reference."""

    @staticmethod
    def reference(z, gamma, beta, mean, var):
        """BN with statistics (mean, var) then ReLU, NaN/Inf in the BN
        output (before the ReLU could clip -inf to 0) raised as
        NumericError.  `gamma * v` is `_eval_layer`'s `v *= gamma`:
        multiplication commutes exactly."""
        normed = gamma * ((z - mean) * (1.0 / np.sqrt(var + BN_EPS))) + beta
        if not np.isfinite(normed).all():
            raise NumericError("non-finite batchnorm output")
        return np.maximum(normed, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), width=st.integers(1, 12),
           z_scale=st.sampled_from([1e-3, 1.0, 1e3, 1e150]),
           var_scale=st.sampled_from([0.0, 1e-8, 1.0, 1e6, 1e300]),
           affine_scale=st.sampled_from([0.0, 1.0, 1e3, 1e200]))
    def test_equals_numpy_batchnorm_then_relu_bit_for_bit(self, seed, n, width, z_scale,
                                                           var_scale, affine_scale):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, width)) * z_scale
        mean = rng.normal(size=width) * z_scale
        var = rng.uniform(0.0, 2.0, size=width) * var_scale
        gamma = rng.normal(size=width) * affine_scale
        beta = rng.normal(size=width) * affine_scale
        with np.errstate(all="ignore"):
            try:
                want = self.reference(z, gamma, beta, mean, var)
            except NumericError:
                with pytest.raises(NumericError):
                    _eval_layer(z.copy(), gamma, beta, mean, var)
                return
            got = _eval_layer(z.copy(), gamma, beta, mean, var)
        assert got.tobytes() == want.tobytes()

    def test_overflow_to_minus_inf_raises_before_the_relu(self):
        """ReLU would turn -inf into 0; the check runs before it."""
        z = np.array([[-1.0], [1.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            _eval_layer(z, np.array([1e308]), np.array([-1e308]), np.zeros(1), np.ones(1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteEval:
    """An overflowing weight raises NumericError on every eval path: a
    feature weight in the eval forward, a head weight in the heads'
    probabilities."""

    @staticmethod
    def overflowing_store(name):
        """One weight of `name` at 1e308; for a head its first column, so
        that its logits overflow wherever the features sum past ~1.8."""
        store = ParamStore(ARCH, np.random.default_rng(0))
        if name.startswith("c."):
            store[name].data[:, 0] = 1e308
        else:
            store[name].data[0, 0] = 1e308
        return store

    @pytest.mark.parametrize("name", ["f.b0.l0.w", "f.b1.l1.w"])
    def test_recalibration_raises(self, name):
        x = np.random.default_rng(18).normal(size=(40, ARCH.input_dim)) * 3.0
        model = self.overflowing_store(name).slice(ARCH.full_config())
        with pytest.raises(NumericError):
            adabn_recalibrate(model, x)

    @pytest.mark.parametrize("name", ["f.b0.l0.w", "f.b1.l1.w"])
    def test_shared_pass_raises(self, name):
        x = np.random.default_rng(19).normal(size=(40, ARCH.input_dim)) * 3.0
        configs = [ARCH.make_config(w) for w in ((8, 12), (8, 20), (16, 24), (4, 3))]
        with pytest.raises(NumericError):
            list(adabn_pass(self.overflowing_store(name), configs, x))

    def test_predict_raises(self, store):
        x = np.random.default_rng(20).normal(size=(40, ARCH.input_dim)) * 3.0
        model = store.slice(ARCH.full_config())
        adabn_recalibrate(model, x)
        store["f.b1.l0.w"].data[0, 0] = 1e308
        with pytest.raises(NumericError):
            model.predict(x)

    def test_overflowing_head_raises_in_calibrated_probs(self):
        """Recalibration never reads a head; the head's probabilities raise,
        in a lone recalibration and in a shared pass alike."""
        x = np.random.default_rng(18).normal(size=(40, ARCH.input_dim)) * 3.0
        store = self.overflowing_store("c.a.w")
        model = store.slice(ARCH.full_config())
        adabn_recalibrate(model, x)
        model.calibrated_probs("s")  # the other heads stay finite
        with pytest.raises(NumericError):
            model.calibrated_probs("a")
        configs = [ARCH.make_config(w) for w in ((8, 12), (8, 20), (16, 24), (4, 3))]
        for _, model in adabn_pass(store, configs, x):
            with pytest.raises(NumericError):
                model.calibrated_probs("a")

    def test_predict_raises_on_an_overflowing_head(self, store):
        x = np.random.default_rng(20).normal(size=(40, ARCH.input_dim)) * 3.0
        model = store.slice(ARCH.full_config())
        adabn_recalibrate(model, x)
        store["c.a.w"].data[:, 0] = 1e308
        with pytest.raises(NumericError):
            model.predict(x)

    @pytest.mark.parametrize("name", ["f.b0.l0.w", "f.b1.l1.w", "c.a.w"])
    def test_anchor_discrepancy_raises(self, name):
        x = np.random.default_rng(21).normal(size=(40, ARCH.input_dim)) * 3.0
        with pytest.raises(NumericError):
            anchor_discrepancy(self.overflowing_store(name), ARCH.make_config((8, 12)), x)
