"""Engine-level gradient and optimizer tests.

The central oracle is central finite differences: for any scalar-valued
graph f(x), d f/d x_i ~= (f(x + h e_i) - f(x - h e_i)) / 2h.  Autodiff
gradients must match it to high relative accuracy on float64.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slimadapt import autodiff as ad
from slimadapt.errors import ConfigError, NumericError, UsageError


def finite_difference(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f(*arrays) w.r.t. each array."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(*arrays)
            flat[i] = orig - h
            lo = f(*arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def check_grads(build, arrays, rtol=1e-4):
    """Compare autodiff gradients of build(*tensors) against the FD oracle."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    got = ad.backward(loss)

    def f(*arrs):
        with ad.no_grad():
            return build(*[ad.Tensor(a) for a in arrs]).item()

    want = finite_difference(f, [a.copy() for a in arrays])
    for t, w in zip(tensors, want):
        g = got.get(t, np.zeros_like(w))
        scale = np.maximum(np.abs(w), 1.0)
        assert np.max(np.abs(g - w) / scale) < rtol, f"autodiff {g} vs FD {w}"


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = ad.softmax(ad.Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.normal(size=(7, 5)) * 30)
        s = ad.softmax(x, axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_log_softmax_consistent(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(6, 9)) * 50)
        np.testing.assert_allclose(
            np.exp(ad.log_softmax(x, axis=1).data), ad.softmax(x, axis=1).data, atol=1e-9
        )

    def test_softmax_stable_for_large_logits(self):
        x = ad.Tensor([[1000.0, 0.0], [-1000.0, 0.0]])
        s = ad.softmax(x, axis=1)
        np.testing.assert_allclose(s.data, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_cross_entropy_matching_onehot_goes_to_zero(self):
        logits = ad.Tensor([[60.0, 0.0, 0.0]])
        target = np.array([[1.0, 0.0, 0.0]])
        loss = ad.cross_entropy(ad.log_softmax(logits, axis=1), target)
        assert abs(loss.item()) < 1e-9

    def test_cross_entropy_uniform_prediction(self):
        # -log(1/K) for K = 12, any one-hot target
        k = 12
        logits = ad.Tensor(np.zeros((4, k)))
        target = np.eye(k)[[0, 3, 7, 11]]
        loss = ad.cross_entropy(ad.log_softmax(logits, axis=1), target)
        assert abs(loss.item() - math.log(k)) < 1e-12

    def test_batchnorm_train_zero_mean_pre_affine(self):
        x = ad.Tensor(np.tile([1.5, -2.0, 7.0], (5, 1)) + np.arange(5)[:, None])
        out = ad.batchnorm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)), mode="train")
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)

    def test_batchnorm_identical_rows(self):
        x = ad.Tensor(np.tile([4.0, -1.0], (6, 1)))
        out = ad.batchnorm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), mode="train")
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_batchnorm_eval_uses_running_stats(self):
        x = ad.Tensor([[2.0, 4.0]])
        stats = (np.array([1.0, 1.0]), np.array([4.0, 1.0]))
        out = ad.batchnorm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                           mode="eval", stats=stats, eps=0.0)
        np.testing.assert_allclose(out.data, [[0.5, 3.0]], atol=1e-12)

    def test_batchnorm_batch_of_one_rejected(self):
        x = ad.Tensor([[1.0, 2.0]])
        with pytest.raises(UsageError):
            ad.batchnorm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), mode="train")

    def test_shape_mismatch_is_config_error(self):
        with pytest.raises(ConfigError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))

    def test_non_finite_output_is_numeric_error(self):
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([0.0]))

    def test_concat_and_slice_cols_roundtrip(self):
        a = ad.Tensor(np.arange(6.0).reshape(2, 3))
        b = ad.Tensor(np.arange(4.0).reshape(2, 2))
        c = ad.concat([a, b], axis=1)
        np.testing.assert_array_equal(ad.slice_cols(c, 0, 3).data, a.data)
        np.testing.assert_array_equal(ad.slice_cols(c, 3, 5).data, b.data)


class TestBackward:
    def test_square_derivative(self):
        x = ad.Tensor([3.0], requires_grad=True)
        grads = ad.backward((x * x).sum())
        np.testing.assert_allclose(grads[x], [6.0], atol=1e-12)

    def test_mean_relu_hand_gradient(self):
        x = ad.Tensor([-1.0, 2.0], requires_grad=True)
        grads = ad.backward(ad.relu(x).mean())
        np.testing.assert_allclose(grads[x], [0.0, 0.5], atol=1e-12)

    def test_backward_twice_without_rebuild_is_refused(self):
        x = ad.Tensor([2.0], requires_grad=True)
        loss = (x * x).sum()
        ad.backward(loss)
        with pytest.raises(UsageError):
            ad.backward(loss)

    def test_backward_needs_scalar(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            ad.backward(x * x)

    def test_shared_subgraph_two_losses(self):
        # Two roots over one forward subgraph must each get clean gradients.
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        h = x * x
        g1 = ad.backward(h.sum())
        g2 = ad.backward((h * h).sum())
        np.testing.assert_allclose(g1[x], [2.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(g2[x], [4.0, 32.0], atol=1e-12)

    def test_detach_blocks_gradient(self):
        x = ad.Tensor([3.0], requires_grad=True)
        y = (x * x).detach()
        loss = (y * x).sum()
        grads = ad.backward(loss)
        np.testing.assert_allclose(grads[x], [9.0], atol=1e-12)  # d(9*x)/dx, not 3x^2

    @pytest.mark.parametrize("grad_a, grad_b", [(False, True), (True, False)])
    def test_matmul_vjp_skips_operand_without_grad(self, grad_a, grad_b):
        rng = np.random.default_rng(12)
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=grad_a)
        b = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=grad_b)
        g = rng.normal(size=(3, 2))
        da, db = ad.matmul(a, b)._vjp(g)
        assert (da is None) != grad_a and (db is None) != grad_b
        if grad_a:
            np.testing.assert_allclose(da, g @ b.data.T, atol=1e-12)
        else:
            np.testing.assert_allclose(db, a.data.T @ g, atol=1e-12)

    def test_matmul_fd(self):
        rng = np.random.default_rng(7)
        check_grads(lambda a, b: (a @ b).sum(),
                    [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])

    def test_batchnorm_train_fd(self):
        rng = np.random.default_rng(8)
        check_grads(
            lambda x, g, b: ad.batchnorm(x, g, b, mode="train").sum(),
            [rng.normal(size=(5, 3)), rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)],
        )

    def test_batchnorm_eval_fd(self):
        rng = np.random.default_rng(9)
        stats = (rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
        check_grads(
            lambda x, g, b: (ad.batchnorm(x, g, b, mode="eval", stats=stats) * 0.5).sum(),
            [rng.normal(size=(4, 3)), rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)],
        )

    def test_softmax_cross_entropy_fd(self):
        rng = np.random.default_rng(10)
        target = np.eye(4)[rng.integers(0, 4, size=5)]
        check_grads(
            lambda x: ad.cross_entropy(ad.log_softmax(x, axis=1), target),
            [rng.normal(size=(5, 4))],
        )

    def test_clip_interior_fd(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.2, 0.8, size=(4, 3))  # strictly inside the clip band
        check_grads(lambda t: ad.log(ad.clip(t, 1e-12, 1.0)).mean(), [x])


def _random_graph(rng):
    """A random composition of up to 5 ops over small tensors speaking to
    the FD oracle; returns (build function, input arrays)."""
    n = int(rng.integers(2, 6))
    d = int(rng.integers(2, 8))
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, d)) / np.sqrt(d)
    gamma = rng.uniform(0.5, 1.5, size=d)
    beta = rng.normal(size=d) * 0.1
    ops = rng.integers(0, 5, size=int(rng.integers(1, 6)))
    target = np.eye(d)[rng.integers(0, d, size=n)]

    def build(xt, wt, gt, bt):
        h = xt @ wt
        for op in ops:
            if op == 0:
                h = ad.relu(h)
            elif op == 1:
                h = ad.batchnorm(h, gt, bt, mode="train")
            elif op == 2:
                h = ad.softmax(h, axis=1) + h
            elif op == 3:
                h = h @ wt
            else:
                h = h * 0.5 + xt
        return ad.cross_entropy(ad.log_softmax(h, axis=1), target)

    return build, [x, w, gamma, beta]


def test_random_graphs_match_finite_differences():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        build, arrays = _random_graph(rng)
        check_grads(build, arrays, rtol=1e-4)


GRAPH_OPS = ("matmul", "add", "mul", "relu", "softmax", "log_softmax", "batchnorm",
             "leading_slice", "concat")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(st.sampled_from(GRAPH_OPS), min_size=2, max_size=4))
def test_random_op_compositions_match_finite_differences(seed, ops):
    """2-4 ops composed in any order over five parameters.  Each op that
    needs a second operand carves it out of a parameter with
    `leading_slice`, so every parameter's gradient outside the used
    corner must come back exactly zero."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    top = d * 5  # widest a graph gets: each concat adds d columns
    arrays = [rng.normal(size=(n, d)), rng.normal(size=(top, d)) / np.sqrt(d),
              rng.normal(size=(n, top)), rng.uniform(0.5, 1.5, size=top),
              rng.normal(size=top) * 0.1]
    relu_inputs = []

    def forward(x, w, y, gamma, beta):
        h = x
        for op in ops:
            width = h.shape[1]
            if op == "matmul":
                h = h @ ad.leading_slice(w, (width, d))
            elif op == "add":
                h = h + ad.leading_slice(y, (n, width))
            elif op == "mul":
                h = h * ad.leading_slice(y, (n, width))
            elif op == "relu":
                relu_inputs.append(h.data)
                h = ad.relu(h)
            elif op == "softmax":
                h = ad.softmax(h, axis=1)
            elif op == "log_softmax":
                h = ad.log_softmax(h, axis=1)
            elif op == "batchnorm":
                h = ad.batchnorm(h, ad.leading_slice(gamma, (width,)),
                                 ad.leading_slice(beta, (width,)), mode="train")
            elif op == "leading_slice":
                h = ad.leading_slice(h, (n, max(1, width - 1)))
            else:
                h = ad.concat([h, x], axis=1)
        return h

    with ad.no_grad():
        shape = forward(*[ad.Tensor(a) for a in arrays]).shape
    # Central differences step 1e-5 across every input; a ReLU input that
    # close to its kink has no derivative there to compare.
    assume(all(np.abs(r).min() > 1e-3 for r in relu_inputs))
    project = rng.normal(size=shape)
    check_grads(lambda *ts: (forward(*ts) * project).sum(), arrays, rtol=1e-4)


class TestSgd:
    def test_vanilla_step(self):
        p = ad.Tensor([1.0], requires_grad=True, name="p")
        state = ad.SgdState(lr=0.1, momentum=0.0)
        ad.sgd_step({"p": p}, {"p": np.array([2.0])}, state)
        np.testing.assert_allclose(p.data, [0.8], atol=1e-12)

    def test_momentum_recursion(self):
        # mu=0.9, lr=0.1, g=1 from p=0: p1=-0.1, p2=-0.29
        p = ad.Tensor([0.0], requires_grad=True, name="p")
        state = ad.SgdState(lr=0.1, momentum=0.9)
        ad.sgd_step({"p": p}, {"p": np.array([1.0])}, state)
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-12)
        ad.sgd_step({"p": p}, {"p": np.array([1.0])}, state)
        np.testing.assert_allclose(p.data, [-0.29], atol=1e-12)

    def test_zero_gradient_leaves_params(self):
        p = ad.Tensor([5.0, -3.0], requires_grad=True, name="p")
        state = ad.SgdState(lr=0.5, momentum=0.9)
        ad.sgd_step({"p": p}, {"p": np.zeros(2)}, state)
        np.testing.assert_array_equal(p.data, [5.0, -3.0])

    def test_missing_gradient_is_usage_error(self):
        p = ad.Tensor([1.0], requires_grad=True, name="p")
        with pytest.raises(UsageError):
            ad.sgd_step({"p": p}, {}, ad.SgdState(lr=0.1))

    def test_non_finite_update_commits_nothing(self):
        # The last parameter's gradient carries an inf: the step must fail
        # before any parameter or momentum buffer changes.
        params = {name: ad.Tensor(np.arange(3.0) + k, requires_grad=True, name=name)
                  for k, name in enumerate(("a", "b", "c"))}
        state = ad.SgdState(lr=0.1, momentum=0.9)
        ad.sgd_step(params, {name: np.ones(3) for name in params}, state)
        before = {name: p.data.tobytes() for name, p in params.items()}
        buffers = {name: buf.tobytes() for name, buf in state.buffers.items()}
        grads = {name: np.full(3, 0.5) for name in params}
        grads["c"] = np.array([0.5, 0.5, np.inf])
        with pytest.raises(NumericError):
            ad.sgd_step(params, grads, state)
        assert {name: p.data.tobytes() for name, p in params.items()} == before
        assert {name: buf.tobytes() for name, buf in state.buffers.items()} == buffers

    def test_updates_do_not_mutate_old_arrays(self):
        p = ad.Tensor([1.0], requires_grad=True, name="p")
        before = p.data
        ad.sgd_step({"p": p}, {"p": np.array([1.0])}, ad.SgdState(lr=0.1, momentum=0.0))
        np.testing.assert_array_equal(before, [1.0])


class TestLrSchedule:
    def test_start_value(self):
        assert ad.lr_schedule(0.0) == pytest.approx(0.01)

    def test_end_value(self):
        assert ad.lr_schedule(1.0) == pytest.approx(0.01 / 11 ** 0.75, rel=1e-12)
        assert ad.lr_schedule(1.0) == pytest.approx(0.0016557, rel=1e-4)

    def test_alpha_zero_is_constant(self):
        for p in (0.0, 0.3, 1.0):
            assert ad.lr_schedule(p, alpha=0.0) == pytest.approx(0.01)

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            ad.lr_schedule(1.5)
        with pytest.raises(UsageError):
            ad.lr_schedule(-0.1)


class TestLeadingSliceScatter:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gradient_is_upstream_in_the_corner_and_zero_outside(self, data):
        """Backward through a leading-corner slice scatters the upstream
        gradient into the corner and leaves exactly 0 everywhere else."""
        shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
        sizes = tuple(data.draw(st.integers(1, d)) for d in shape)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        x = rng.normal(size=shape)
        upstream = rng.normal(size=sizes)

        def build(t):
            return (ad.leading_slice(t, sizes) * ad.Tensor(upstream)).sum()

        t = ad.Tensor(x, requires_grad=True)
        grad = ad.backward(build(t))[t]
        corner = tuple(slice(0, s) for s in sizes)
        assert grad.shape == shape
        np.testing.assert_array_equal(grad[corner], upstream)
        outside = np.ones(shape, dtype=bool)
        outside[corner] = False
        assert np.all(grad[outside] == 0.0)
        check_grads(build, [x])
