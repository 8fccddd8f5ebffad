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

    def test_softmax_log_consistent(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(6, 9)) * 50)
        np.testing.assert_allclose(
            np.exp(ad.log(ad.softmax(x, axis=1)).data), ad.softmax(x, axis=1).data, atol=1e-9
        )

    def test_softmax_stable_for_large_logits(self):
        x = ad.Tensor([[1000.0, 0.0], [-1000.0, 0.0]])
        s = ad.softmax(x, axis=1)
        np.testing.assert_allclose(s.data, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_cross_entropy_matching_onehot_goes_to_zero(self):
        logits = ad.Tensor([[60.0, 0.0, 0.0]])
        target = np.array([[1.0, 0.0, 0.0]])
        loss = ad.cross_entropy(ad.log(ad.softmax(logits, axis=1)), target)
        assert abs(loss.item()) < 1e-9

    def test_cross_entropy_uniform_prediction(self):
        # -log(1/K) for K = 12, any one-hot target
        k = 12
        logits = ad.Tensor(np.zeros((4, k)))
        target = np.eye(k)[[0, 3, 7, 11]]
        loss = ad.cross_entropy(ad.log(ad.softmax(logits, axis=1)), target)
        assert abs(loss.item() - math.log(k)) < 1e-12

    def test_batchnorm_train_zero_mean_pre_affine(self):
        x = ad.Tensor(np.tile([1.5, -2.0, 7.0], (5, 1)) + np.arange(5)[:, None])
        out = ad.batchnorm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)

    def test_batchnorm_identical_rows(self):
        x = ad.Tensor(np.tile([4.0, -1.0], (6, 1)))
        out = ad.batchnorm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_batchnorm_batch_of_one_rejected(self):
        x = ad.Tensor([[1.0, 2.0]])
        with pytest.raises(UsageError):
            ad.batchnorm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))

    def test_shape_mismatch_is_config_error(self):
        with pytest.raises(ConfigError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))))

    def test_non_finite_output_is_numeric_error(self):
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([0.5, math.nan]))

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

    def test_constant_from_data_blocks_gradient(self):
        x = ad.Tensor([3.0], requires_grad=True)
        y = ad.Tensor((x * x).data)
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
            lambda x, g, b: ad.batchnorm(x, g, b).sum(),
            [rng.normal(size=(5, 3)), rng.uniform(0.5, 1.5, size=3), rng.normal(size=3)],
        )

    def test_softmax_cross_entropy_fd(self):
        rng = np.random.default_rng(10)
        target = np.eye(4)[rng.integers(0, 4, size=5)]
        check_grads(
            lambda x: ad.cross_entropy(ad.log(ad.softmax(x, axis=1)), target),
            [rng.normal(size=(5, 4))],
        )

    def test_log_interior_fd(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.2, 0.8, size=(4, 3))  # strictly inside the clamp band
        check_grads(lambda t: ad.log(t).mean(), [x])


class TestAffineRoutes:
    """`affine_routes` is `x @ w + b` once, as two nodes that split its
    gradient: the first reaches only (w, b), the second only x."""

    @staticmethod
    def operands(seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4),
                rng.normal(size=(5, 4)))

    def test_both_routes_hold_one_product(self):
        x, w, b, _ = self.operands(20)
        to_params, to_x = ad.affine_routes(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert to_params.data is to_x.data
        assert to_params.data.tobytes() == (x @ w + b).tobytes()

    def test_parameter_route_fd_and_reach(self):
        x, w, b, project = self.operands(21)
        check_grads(lambda wt, bt: (ad.affine_routes(ad.Tensor(x), wt, bt)[0] * project).sum(),
                    [w, b])
        tensors = [ad.Tensor(a, requires_grad=True) for a in (x, w, b)]
        grads = ad.backward((ad.affine_routes(*tensors)[0] * project).sum())
        assert set(grads) == set(tensors[1:])

    def test_feature_route_fd_and_reach(self):
        x, w, b, project = self.operands(22)
        check_grads(lambda xt: (ad.affine_routes(xt, ad.Tensor(w), ad.Tensor(b))[1]
                                * project).sum(), [x])
        tensors = [ad.Tensor(a, requires_grad=True) for a in (x, w, b)]
        grads = ad.backward((ad.affine_routes(*tensors)[1] * project).sum())
        assert set(grads) == {tensors[0]}

    def test_shape_mismatch_is_config_error(self):
        x, w, b, _ = self.operands(23)
        with pytest.raises(ConfigError):
            ad.affine_routes(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b[:3]))
        with pytest.raises(ConfigError):
            ad.affine_routes(ad.Tensor(x.T), ad.Tensor(w), ad.Tensor(b))


def numpy_formula_batchnorm(x, gamma, beta, g, eps=1e-5):
    """Training-mode BN through `np.mean` and `np.var`, and its VJP at `g`:
    the oracle `ad.batchnorm` must match byte for byte."""
    n = x.shape[0]
    mu = x.mean(axis=0)
    inv = 1.0 / np.sqrt(x.var(axis=0) + eps)
    xhat = (x - mu) * inv
    dxhat = g * gamma
    dx = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return gamma * xhat + beta, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


class TestBitForBitOps:
    """`batchnorm` centres its input once and `log` clamps with a max then a
    min; both give the bytes of the numpy formulas they replace."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40), width=st.integers(1, 9),
           offset=st.sampled_from([0.0, 1.0, 1e4, 1e8, -3e12]),
           scale=st.sampled_from([1e-6, 1.0, 1e3]), constant=st.lists(st.booleans(), max_size=9))
    def test_batchnorm_matches_the_mean_and_var_formula(self, seed, n, width, offset, scale,
                                                        constant):
        """Columns far from zero and constant columns included: the
        forward and all three VJP outputs are the formula's bytes."""
        rng = np.random.default_rng(seed)
        x = offset + scale * rng.normal(size=(n, width))
        for j, flat in enumerate(constant[:width]):
            if flat:
                x[:, j] = x[0, j]
        gamma, beta = rng.uniform(0.5, 1.5, size=width), rng.normal(size=width)
        g = rng.normal(size=(n, width))
        out = ad.batchnorm(ad.Tensor(x, requires_grad=True), ad.Tensor(gamma, requires_grad=True),
                           ad.Tensor(beta, requires_grad=True))
        want = numpy_formula_batchnorm(x, gamma, beta, g)
        got = (out.data, *out._vjp(g))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_log_matches_log_of_numpy_clip(self, data):
        """0, negatives, values exactly at either bound, just above 1 and
        +-inf: `log`'s values are `np.log` of `np.clip(p, PROB_FLOOR, 1)`
        and its VJP is `g / clipped` where the clip leaves `p` as it was, 0
        elsewhere, byte for byte; a NaN input raises."""
        floor = ad.PROB_FLOOR
        special = st.sampled_from([floor, 1.0, np.nextafter(1.0, 2.0), np.nextafter(floor, 0.0),
                                   math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5])
        values = data.draw(st.lists(st.one_of(special, st.floats(allow_nan=False)),
                                    min_size=1, max_size=30))
        p = np.array(values)
        g = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=p.size,
                                        max_size=p.size)))
        out = ad.log(ad.Tensor(p, requires_grad=True))
        clipped = np.clip(p, floor, 1.0)
        assert out.data.tobytes() == np.log(clipped).tobytes()
        # the gradient passes exactly where clamping leaves the value as it was
        mask = clipped == p
        (grad,) = out._vjp(g)
        assert grad.tobytes() == ((g / clipped) * mask).tobytes()
        assert mask.tobytes() == (out._vjp(np.ones_like(p))[0] != 0).tobytes()
        with pytest.raises(NumericError):
            ad.log(ad.Tensor(np.append(p, math.nan)))


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
                h = ad.batchnorm(h, gt, bt)
            elif op == 2:
                h = ad.softmax(h, axis=1) + h
            elif op == 3:
                h = h @ wt
            else:
                h = h * 0.5 + xt
        return ad.cross_entropy(ad.log(ad.softmax(h, axis=1)), target)

    return build, [x, w, gamma, beta]


def test_random_graphs_match_finite_differences():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        build, arrays = _random_graph(rng)
        check_grads(build, arrays, rtol=1e-4)


GRAPH_OPS = ("matmul", "affine", "add", "mul", "relu", "softmax", "log_of_softmax", "batchnorm",
             "leading_slice", "concat")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(st.sampled_from(GRAPH_OPS), min_size=2, max_size=4))
def test_random_op_compositions_match_finite_differences(seed, ops):
    """2-4 ops composed in any order over five parameters.  Each op that
    needs a second operand carves it out of a parameter with
    `leading_slice`, so every parameter's gradient outside the used
    corner must come back exactly zero.  "affine" joins the two routes of
    `affine_routes` as `to_params + to_x - ad.Tensor(to_params.data)`: the value
    of `h @ w + b`, with each operand's gradient through its own route."""
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
            elif op == "affine":
                to_params, to_x = ad.affine_routes(h, ad.leading_slice(w, (width, d)),
                                                   ad.leading_slice(beta, (d,)))
                h = to_params + to_x - ad.Tensor(to_params.data)
            elif op == "add":
                h = h + ad.leading_slice(y, (n, width))
            elif op == "mul":
                h = h * ad.leading_slice(y, (n, width))
            elif op == "relu":
                relu_inputs.append(h.data)
                h = ad.relu(h)
            elif op == "softmax":
                h = ad.softmax(h, axis=1)
            elif op == "log_of_softmax":
                h = ad.log(ad.softmax(h, axis=1))
            elif op == "batchnorm":
                h = ad.batchnorm(h, ad.leading_slice(gamma, (width,)),
                                 ad.leading_slice(beta, (width,)))
            elif op == "leading_slice":
                h = ad.leading_slice(h, (n, max(1, width - 1)))
            else:
                h = ad.concat([h, x], axis=1)
        return h

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
