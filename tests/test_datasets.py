"""Dataset generator tests.

Independent oracles: a hand-rolled 1-nearest-neighbour classifier and a
least-squares linear classifier, both trained on source only, measure how
much the target domain deviates from it.
"""

import numpy as np
import pytest

from slimadapt.datasets import (
    DomainDataset,
    ShiftSpec,
    batches,
    load_dataset,
    make_dataset,
    save_dataset,
)
from slimadapt.errors import ConfigError, LabelLeakageError, UsageError


def nn1_accuracy(train_x, train_y, test_x, test_y):
    """1-NN accuracy, chunked to keep the distance matrix small."""
    hits = 0
    for lo in range(0, len(test_x), 256):
        chunk = test_x[lo:lo + 256]
        d2 = ((chunk[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
        hits += (train_y[d2.argmin(axis=1)] == test_y[lo:lo + 256]).sum()
    return hits / len(test_x)


def linear_accuracy(train_x, train_y, test_x, test_y, k):
    """One-hot least-squares classifier trained on source."""
    a = np.hstack([train_x, np.ones((len(train_x), 1))])
    w, *_ = np.linalg.lstsq(a, np.eye(k)[train_y], rcond=None)
    scores = np.hstack([test_x, np.ones((len(test_x), 1))]) @ w
    return (scores.argmax(axis=1) == test_y).mean()


class TestGeneration:
    def test_same_seed_bitwise_identical(self):
        spec = ShiftSpec("MIXED", 1.0, noise_std=1.0)
        a = make_dataset(spec, K=4, d=8, n_s=200, n_t=200, seed=7)
        b = make_dataset(spec, K=4, d=8, n_s=200, n_t=200, seed=7)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.xt, b.xt)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_class_balance_within_ten_percent(self):
        ds = make_dataset(ShiftSpec("MIXED", 0.5), K=4, d=8, n_s=1000, n_t=998, seed=0)
        counts = np.bincount(ds.ys, minlength=4)
        assert counts.max() - counts.min() <= 0.1 * counts.mean()
        counts_t = np.bincount(ds.target_labels(evaluation=True), minlength=4)
        assert counts_t.max() - counts_t.min() <= 0.1 * counts_t.mean()

    def test_zero_magnitude_domains_match(self):
        # With no shift a source-trained 1-NN classifier does equally well
        # on both domains (within 2 points).
        ds = make_dataset(ShiftSpec("MIXED", 0.0, noise_std=0.8), K=4, d=8,
                          n_s=1200, n_t=1200, seed=3)
        yt = ds.target_labels(evaluation=True)
        acc_s = nn1_accuracy(ds.xs[:1000], ds.ys[:1000], ds.xs[1000:], ds.ys[1000:])
        acc_t = nn1_accuracy(ds.xs[:1000], ds.ys[:1000], ds.xt[:200], yt[:200])
        assert abs(acc_s - acc_t) < 0.02 + 0.05  # sampling slack on 200 points

    def test_rotation_pi_swaps_symmetric_classes(self):
        # The centered two-moons construction maps moon A onto moon B under
        # a 180-degree rotation, so a source-trained linear classifier
        # collapses to (at best) chance on the target.
        ds = make_dataset(ShiftSpec("ROTATION", np.pi, noise_std=0.2), K=2, d=2,
                          n_s=1500, n_t=800, seed=1)
        yt = ds.target_labels(evaluation=True)
        acc_src = linear_accuracy(ds.xs, ds.ys, ds.xs, ds.ys, 2)
        acc_tgt = linear_accuracy(ds.xs, ds.ys, ds.xt, yt, 2)
        assert acc_src > 0.8
        assert acc_tgt < 0.6

    def test_shift_monotonicity_on_average(self):
        # Average source-trained linear accuracy on target never increases
        # with the shift magnitude.
        mags = [0.0, 0.5, 1.0, 1.5]
        avg = []
        for m in mags:
            accs = []
            for seed in range(5):
                ds = make_dataset(ShiftSpec("MIXED", m, noise_std=1.0), K=4, d=8,
                                  n_s=800, n_t=800, seed=seed)
                yt = ds.target_labels(evaluation=True)
                accs.append(linear_accuracy(ds.xs, ds.ys, ds.xt, yt, 4))
            avg.append(np.mean(accs))
        for lo, hi in zip(avg[1:], avg[:-1]):
            assert lo <= hi + 0.01

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ConfigError):
            make_dataset(ShiftSpec("MIXED", 1.0), K=1, d=8, n_s=100, n_t=100, seed=0)
        with pytest.raises(ConfigError):
            make_dataset(ShiftSpec("MIXED", 1.0), K=4, d=1, n_s=100, n_t=100, seed=0)
        with pytest.raises(ConfigError):
            ShiftSpec("SHEAR", 1.0)

    @pytest.mark.parametrize("kwargs,name", [(dict(magnitude=float("nan")), "magnitude"),
                                             (dict(magnitude=float("inf")), "magnitude"),
                                             (dict(noise_std=float("nan")), "noise_std")],
                             ids=["magnitude-nan", "magnitude-inf", "noise_std-nan"])
    def test_non_finite_shift_parameters_rejected(self, kwargs, name):
        with pytest.raises(ConfigError, match=rf"^{name} must"):
            ShiftSpec(**dict(dict(kind="MIXED", magnitude=1.0), **kwargs))


class TestLabelGuard:
    def test_training_path_access_raises(self):
        ds = make_dataset(ShiftSpec("MIXED", 1.0), K=3, d=4, n_s=60, n_t=60, seed=0)
        with pytest.raises(LabelLeakageError):
            ds.target_labels()
        with pytest.raises(LabelLeakageError):
            ds.target_labels(evaluation=False)

    def test_evaluation_access_works(self):
        ds = make_dataset(ShiftSpec("MIXED", 1.0), K=3, d=4, n_s=60, n_t=60, seed=0)
        yt = ds.target_labels(evaluation=True)
        assert yt.shape == (60,)

    def test_loader_refuses_hidden_section_by_default(self, tmp_path):
        ds = make_dataset(ShiftSpec("MIXED", 1.0), K=3, d=4, n_s=30, n_t=30, seed=0)
        path = tmp_path / "ds.json"
        save_dataset(path, ds)
        blind = load_dataset(path)
        with pytest.raises(UsageError):
            blind.target_labels(evaluation=True)
        seeing = load_dataset(path, evaluation=True)
        np.testing.assert_array_equal(seeing.target_labels(evaluation=True),
                                      ds.target_labels(evaluation=True))


class TestLabelValues:
    """The constructor refuses labels that are not whole numbers, naming
    the array, instead of truncating them to int64."""

    @staticmethod
    def build(ys, yt_hidden=None):
        return DomainDataset(np.zeros((3, 2)), ys, np.zeros((3, 2)), 3, ShiftSpec("MIXED", 1.0),
                             0, yt_hidden=yt_hidden)

    @pytest.mark.parametrize("bad", [[1.7, 0.5, 2.9], [0, 1, float("nan")], [0, 1, float("inf")],
                                     ["a", "b", "c"]], ids=["fractions", "nan", "inf", "strings"])
    @pytest.mark.parametrize("name", ["ys", "yt_hidden"])
    def test_non_integer_labels_are_named(self, name, bad):
        args = (bad, None) if name == "ys" else ([0, 1, 2], bad)
        with pytest.raises(ConfigError, match=rf"dataset array {name} "):
            self.build(*args)

    def test_whole_numbers_load_as_int64(self):
        ds = self.build(np.array([2.0, 0.0, 1.0]), yt_hidden=[1, 2, 0])
        assert ds.ys.dtype == np.int64 and ds.ys.tolist() == [2, 0, 1]
        assert ds.target_labels(evaluation=True).tolist() == [1, 2, 0]


class TestBatches:
    def make(self, n_s=100, n_t=80):
        rng = np.random.default_rng(0)
        return DomainDataset(rng.normal(size=(n_s, 3)), rng.integers(0, 2, n_s),
                             rng.normal(size=(n_t, 3)), 2, ShiftSpec("MIXED", 0.0), 0)

    def test_batch_count(self):
        ds = self.make()
        got = list(batches(ds, 32, np.random.default_rng(1)))
        assert len(got) == int(np.ceil(100 / 32))

    @pytest.mark.parametrize("n_s, n_t, batch_size", [
        (65, 40, 32), (257, 257, 128), (100, 80, 33), (100, 80, 32), (100, 80, 2), (9, 9, 4),
        (10, 10, 10)])
    def test_no_batch_of_one_row(self, n_s, n_t, batch_size):
        """Batches are the consecutive batch_size-row chunks of one shuffled
        epoch, except that a lone last row joins the batch before it."""
        ds = self.make(n_s, n_t)
        got = list(batches(ds, batch_size, np.random.default_rng(4)))
        longest = max(n_s, n_t)
        rng = np.random.default_rng(4)
        perm_s, perm_t = rng.permutation(n_s), rng.permutation(n_t)
        chunks = [np.arange(lo, min(lo + batch_size, longest))
                  for lo in range(0, longest, batch_size)]
        if len(chunks[-1]) == 1:
            chunks[-2:] = [np.concatenate(chunks[-2:])]
        assert len(got) == len(chunks)
        for (xs, ys, xt), sel in zip(got, chunks):
            assert len(xs) >= 2
            np.testing.assert_array_equal(xs, ds.xs[perm_s[sel % n_s]])
            np.testing.assert_array_equal(ys, ds.ys[perm_s[sel % n_s]])
            np.testing.assert_array_equal(xt, ds.xt[perm_t[sel % n_t]])
        if longest % batch_size == 1:
            assert [len(b[0]) for b in got[-2:]] == [batch_size, batch_size + 1]

    def test_epoch_covers_both_domains(self):
        ds = self.make()
        seen_s, seen_t = set(), set()
        for xs, ys, xt in batches(ds, 16, np.random.default_rng(2)):
            for row in xs:
                seen_s.add(row.tobytes())
            for row in xt:
                seen_t.add(row.tobytes())
        assert len(seen_s) == 100
        assert len(seen_t) == 80

    def test_fixed_rng_identical_sequence(self):
        ds = self.make()
        a = [x[0].tobytes() for x in batches(ds, 16, np.random.default_rng(3))]
        b = [x[0].tobytes() for x in batches(ds, 16, np.random.default_rng(3))]
        assert a == b

    def test_oversized_batch_rejected(self):
        ds = self.make(n_s=10, n_t=100)
        with pytest.raises(UsageError):
            list(batches(ds, 11, np.random.default_rng(0)))


class TestRoundTrip:
    def test_save_is_deterministic_and_exact(self, tmp_path):
        ds = make_dataset(ShiftSpec("SCALING", 0.7, noise_std=0.9), K=3, d=5,
                          n_s=40, n_t=40, seed=9)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(p1, ds)
        save_dataset(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()
        back = load_dataset(p1, evaluation=True)
        np.testing.assert_array_equal(back.xs, ds.xs)
        np.testing.assert_array_equal(back.xt, ds.xt)
        assert back.spec == ds.spec
