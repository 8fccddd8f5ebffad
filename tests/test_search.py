"""Architecture-selection tests.

A small bank trained for a handful of epochs serves as the shared
fixture; the exhaustive oracle enumerates every legal configuration of a
two-block architecture and compares greedy winners against the true
optimum per budget.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimadapt import search
from slimadapt.datasets import DEFAULT_TASK, ShiftSpec, make_dataset
from slimadapt.errors import SearchError, UsageError
from slimadapt.search import (
    SearchPlan,
    SearchStep,
    anchor_discrepancy,
    config_accuracy,
    correlate,
    correlation_coefficients,
    discrepancy_between,
    inherited_greedy_search,
    linear_budget_ladder,
    random_bands,
    recalibrated,
    sample_config_at_budget,
    sample_configs_spanning,
)
from slimadapt.seeding import named_rng
from slimadapt.slimnet import Architecture, ParamStore, SlimModel, flops_per_sample, flops_step
from slimadapt.trainer import TrainerConfig, init_bank, train

ARCH = Architecture(input_dim=6, block_max_widths=(16, 24), layers_per_block=1, class_count=3)


def trained_bank(arch):
    ds = make_dataset(ShiftSpec("MIXED", 0.8, noise_std=1.0), K=3, d=6,
                      n_s=400, n_t=400, seed=0)
    bank = init_bank(arch, 0)
    train(bank, ds, TrainerConfig(epochs=4, batch_size=64, model_batch_size=4, seed=0))
    return bank, ds


@pytest.fixture(scope="module")
def trained():
    return trained_bank(ARCH)


@pytest.fixture(scope="module", params=[1, 2], ids=["1-layer-blocks", "2-layer-blocks"])
def trained_deep(request, trained):
    """The trained bank, and a three-block bank with 2 layers per block
    (whose slimmest config can still grow into the lowest rung's band)."""
    if request.param == 1:
        return trained
    return trained_bank(Architecture(input_dim=6, block_max_widths=(16, 24, 32),
                                     layers_per_block=2, class_count=3))


def per_candidate_ladder(bank, plan, target_x, target_y=None, head="a"):
    """The greedy ladder with every candidate recalibrated on its own, one
    AdaBN pass each: the reference the shared-prefix pass must match."""
    arch = bank.arch
    rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=(11,)))
    anchor_probs = recalibrated(bank, arch.full_config(), target_x).calibrated_probs("a")
    full = arch.full_config().flops
    current, steps = arch.smallest_config(), []
    for ratio in plan.budgets(arch):
        budget = ratio * full
        lo_f, hi_f = budget * (1 - plan.tolerance), min(budget * (1 + plan.tolerance), full)
        candidates, tries = [], 0
        while len(candidates) < plan.q and tries < 200 * plan.q:
            tries += 1
            grown = search._grow_candidate(rng, arch, current, lo_f, hi_f)
            if grown is not None:
                candidates.append(grown)
        best = None
        for cfg, saturated in candidates:
            model = recalibrated(bank, cfg, target_x)
            delta = discrepancy_between(model, anchor_probs)
            if best is None or delta < best[0]:
                best = (delta, cfg, saturated, model)
        delta, current, saturated, model = best
        accuracy = None
        if target_y is not None:
            accuracy = float((model.calibrated_probs(head).argmax(axis=1) == target_y).mean())
        steps.append(SearchStep(budget_ratio=ratio, config=current, delta=delta,
                                saturated=saturated, accuracy=accuracy))
    return steps


def choice_sample_config_at_budget(rng, arch, budget, tolerance=0.02, max_tries=200):
    """`sample_config_at_budget` as it was when each step's block came from
    `rng.choice`: the reference for the configs it returns and the
    generator state it leaves."""
    lo_f, hi_f = budget * (1 - tolerance), budget * (1 + tolerance)
    lows, highs = arch.min_widths(), arch.block_max_widths
    if hi_f < arch.smallest_config().flops or lo_f > arch.full_config().flops:
        raise SearchError(f"budget {budget:.1f} outside the reachable FLOPs range")
    for _ in range(max_tries):
        widths = [int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs)]
        flops = flops_per_sample(arch, widths)
        for _ in range(4 * sum(highs)):
            if lo_f <= flops <= hi_f:
                return arch.make_config(widths)
            if flops < lo_f:
                step, movable = 1, [b for b in range(len(widths)) if widths[b] < highs[b]]
            else:
                step, movable = -1, [b for b in range(len(widths)) if widths[b] > lows[b]]
            if not movable:
                break
            b = int(rng.choice(movable))
            flops += flops_step(arch, widths, b, step)
            widths[b] += step
    raise SearchError(f"no legal config found within ±{tolerance:.0%} of budget {budget:.1f}")


def choice_grow_candidate(rng, arch, base, lo_f, hi_f):
    """`search._grow_candidate` as it was with `rng.choice` (see above)."""
    widths, flops = list(base.widths), base.flops
    highs = arch.block_max_widths
    while True:
        if flops > hi_f:
            return None
        if flops >= lo_f:
            return arch.make_config(widths), False
        grow = [b for b in range(len(widths)) if widths[b] < highs[b]]
        if not grow:
            return arch.make_config(widths), True
        b = int(rng.choice(grow))
        flops += flops_step(arch, widths, b, 1)
        widths[b] += 1


def rebuilt_sample_config_at_budget(rng, arch, budget, tolerance=0.02, max_tries=200):
    """`sample_config_at_budget` as it was when each step rebuilt the lists
    of blocks that may move: the reference for the kept, ascending lists."""
    lo_f, hi_f = budget * (1 - tolerance), budget * (1 + tolerance)
    lows, highs = arch.min_widths(), arch.block_max_widths
    if hi_f < arch.smallest_config().flops or lo_f > arch.full_config().flops:
        raise SearchError(f"budget {budget:.1f} outside the reachable FLOPs range")
    for _ in range(max_tries):
        widths = [int(rng.integers(lo, hi + 1)) for lo, hi in zip(lows, highs)]
        flops = flops_per_sample(arch, widths)
        for _ in range(4 * sum(highs)):
            if lo_f <= flops <= hi_f:
                return arch.make_config(widths)
            if flops < lo_f:
                step, movable = 1, [b for b in range(len(widths)) if widths[b] < highs[b]]
            else:
                step, movable = -1, [b for b in range(len(widths)) if widths[b] > lows[b]]
            if not movable:
                break
            b = movable[int(rng.integers(len(movable)))]
            flops += flops_step(arch, widths, b, step)
            widths[b] += step
    raise SearchError(f"no legal config found within ±{tolerance:.0%} of budget {budget:.1f}")


def rebuilt_grow_candidate(rng, arch, base, lo_f, hi_f):
    """`search._grow_candidate` as it was when each step rebuilt the list
    of growable blocks (see above)."""
    widths, flops = list(base.widths), base.flops
    highs = arch.block_max_widths
    while True:
        if flops > hi_f:
            return None
        if flops >= lo_f:
            return arch.make_config(widths), False
        grow = [b for b in range(len(widths)) if widths[b] < highs[b]]
        if not grow:
            return arch.make_config(widths), True
        b = grow[int(rng.integers(len(grow)))]
        flops += flops_step(arch, widths, b, 1)
        widths[b] += 1


class TestDiscrepancy:
    def test_anchor_scores_zero_against_itself(self, trained):
        bank, ds = trained
        score = anchor_discrepancy(bank, ARCH.full_config(), ds.xt)
        assert score.delta == 0.0

    def test_hand_value_single_sample(self):
        # anchor row [1, 0], candidate row [0, 1] -> squared distance 2
        anchor = np.array([[1.0, 0.0]])
        cand = np.array([[0.0, 1.0]])
        assert float(((cand - anchor) ** 2).sum()) / 1 == 2.0

    def test_symmetric_in_the_two_outputs(self, trained):
        bank, ds = trained
        a = recalibrated(bank, ARCH.make_config((8, 12)), ds.xt)
        b_probs = recalibrated(bank, ARCH.make_config((12, 20)), ds.xt).predict(ds.xt, head="a")
        d1 = discrepancy_between(a, b_probs)
        a_probs = a.predict(ds.xt, head="a")
        b = recalibrated(bank, ARCH.make_config((12, 20)), ds.xt)
        d2 = discrepancy_between(b, a_probs)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_invariant_to_target_order(self, trained):
        bank, ds = trained
        cfg = ARCH.make_config((6, 10))
        base = anchor_discrepancy(bank, cfg, ds.xt).delta
        perm = np.random.default_rng(0).permutation(len(ds.xt))
        shuffled = anchor_discrepancy(bank, cfg, ds.xt[perm]).delta
        assert shuffled == pytest.approx(base, abs=1e-9)

    def test_unrecalibrated_candidate_rejected(self, trained):
        bank, ds = trained
        model = bank.slice(ARCH.make_config((8, 12)))
        with pytest.raises(UsageError):
            discrepancy_between(model, np.zeros((len(ds.xt), 3)))


class TestEvalInputShapes:
    """A label or anchor array that does not match the target set is a
    UsageError naming the argument, not a broadcast."""

    def test_config_accuracy_with_one_label_is_named(self, trained):
        bank, ds = trained
        x = ds.xt[:50]
        with pytest.raises(UsageError, match=r"target_y has shape \(1,\), not \(50,\)"):
            config_accuracy(bank, ARCH.make_config((8, 12)), x, np.array([1]))

    @pytest.mark.parametrize("rows", [3, 1])
    def test_anchor_probs_of_other_rows_are_named(self, trained, rows):
        bank, ds = trained
        anchor = np.full((rows, 3), 1 / 3)
        with pytest.raises(UsageError, match=rf"anchor_probs has shape \({rows}, 3\), not "
                                             rf"\({len(ds.xt)}, 3\)"):
            anchor_discrepancy(bank, ARCH.make_config((8, 12)), ds.xt, anchor_probs=anchor)


BAD_LABELS = {"outside": 7, "negative": -1, "fraction": 1.5, "nan": float("nan")}


class TestEvalLabelValues:
    """A `target_y` value that is not an integer label in [0, K) is a
    UsageError naming `target_y` on every labelled path, not an accuracy
    of 0.0."""

    @pytest.mark.parametrize("bad", BAD_LABELS.values(), ids=BAD_LABELS.keys())
    def test_config_accuracy(self, trained, bad):
        bank, ds = trained
        with pytest.raises(UsageError, match="target_y holds values"):
            config_accuracy(bank, ARCH.make_config((8, 12)), ds.xt[:50], np.full(50, bad))

    @pytest.mark.parametrize("bad", BAD_LABELS.values(), ids=BAD_LABELS.keys())
    @pytest.mark.parametrize("head", ["a", "task"])
    def test_anchor_discrepancy(self, trained, bad, head):
        bank, ds = trained
        y = np.full(len(ds.xt), bad)
        with pytest.raises(UsageError, match="target_y holds values"):
            anchor_discrepancy(bank, ARCH.make_config((8, 12)), ds.xt, target_y=y, head=head)

    @pytest.mark.parametrize("bad", BAD_LABELS.values(), ids=BAD_LABELS.keys())
    def test_labelled_ladder(self, trained, bad):
        bank, ds = trained
        y = ds.target_labels(evaluation=True).astype(float)
        y[-1] = bad
        with pytest.raises(UsageError, match="target_y holds values"):
            inherited_greedy_search(bank, SearchPlan(k=2, q=2, seed=0), ds.xt, target_y=y)

    def test_whole_number_floats_are_labels(self, trained):
        bank, ds = trained
        y = ds.target_labels(evaluation=True)
        config = ARCH.make_config((8, 12))
        assert config_accuracy(bank, config, ds.xt, y.astype(float)) == \
            config_accuracy(bank, config, ds.xt, y)


class TestBudgetSampling:
    def test_sampled_config_lands_in_band(self):
        rng = np.random.default_rng(1)
        full = ARCH.full_config().flops
        for ratio in (0.2, 0.3, 0.7):
            cfg = sample_config_at_budget(rng, ARCH, ratio * full, tolerance=0.02)
            assert abs(cfg.flops - ratio * full) <= 0.02 * ratio * full

    def test_band_narrower_than_channel_granularity_errors(self):
        # At ratio 0.1 of this tiny architecture no integer width pair
        # lands inside +-2%; bounded retries must surface a search error.
        rng = np.random.default_rng(1)
        with pytest.raises(SearchError):
            sample_config_at_budget(rng, ARCH, 0.1 * ARCH.full_config().flops,
                                    tolerance=0.02, max_tries=50)

    def test_unreachable_budget_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(SearchError):
            sample_config_at_budget(rng, ARCH, ARCH.full_config().flops * 2, tolerance=0.02)
        with pytest.raises(SearchError):
            sample_config_at_budget(rng, ARCH, ARCH.smallest_config().flops * 0.5,
                                    tolerance=0.02)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), layers_per_block=st.integers(1, 3),
           maxes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           ratio=st.floats(0.0, 1.1), tolerance=st.floats(0.001, 0.2))
    def test_lands_in_band_or_raises(self, seed, layers_per_block, maxes, ratio, tolerance):
        arch = Architecture(input_dim=5, block_max_widths=tuple(maxes),
                            layers_per_block=layers_per_block, class_count=3)
        budget = ratio * arch.full_config().flops
        try:
            cfg = sample_config_at_budget(np.random.default_rng(seed), arch, budget,
                                          tolerance=tolerance, max_tries=10)
        except SearchError:
            return
        assert budget * (1 - tolerance) <= cfg.flops <= budget * (1 + tolerance)
        assert cfg == arch.make_config(cfg.widths)

    @pytest.mark.parametrize("tolerance", [-0.1, 1.5])
    def test_tolerance_outside_unit_interval_rejected(self, tolerance):
        with pytest.raises(UsageError, match=r"tolerance must be in \[0, 1\)"):
            sample_config_at_budget(np.random.default_rng(1), ARCH,
                                    0.25 * ARCH.full_config().flops, tolerance=tolerance)

    def test_linear_ladder_endpoints(self):
        budgets = linear_budget_ladder(ARCH, 6)
        assert len(budgets) == 6
        assert budgets[-1] == pytest.approx(ARCH.full_config().flops)
        assert budgets[0] > ARCH.smallest_config().flops


class TestOneIntegerDraw:
    """Each growth step picks its block with one integer draw; that gives
    the draws and the generator state of the `rng.choice` walk it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), layers_per_block=st.integers(1, 3),
           maxes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           ratio=st.floats(0.0, 1.1), tolerance=st.floats(0.001, 0.2))
    def test_budget_sampler_draws_as_choice_did(self, seed, layers_per_block, maxes, ratio,
                                                tolerance):
        arch = Architecture(input_dim=5, block_max_widths=tuple(maxes),
                            layers_per_block=layers_per_block, class_count=3)
        budget = ratio * arch.full_config().flops
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = []
        for sampler, rng in ((sample_config_at_budget, got_rng),
                             (choice_sample_config_at_budget, want_rng)):
            try:
                outcomes.append(sampler(rng, arch, budget, tolerance, max_tries=5))
            except SearchError:
                outcomes.append(SearchError)
        assert outcomes[0] == outcomes[1]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), layers_per_block=st.integers(1, 3),
           maxes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
           ratio=st.floats(0.0, 1.1), tolerance=st.floats(0.001, 0.2))
    def test_grow_candidate_draws_as_choice_did(self, data, seed, layers_per_block, maxes,
                                                ratio, tolerance):
        arch = Architecture(input_dim=5, block_max_widths=tuple(maxes),
                            layers_per_block=layers_per_block, class_count=3)
        base = arch.make_config(data.draw(st.tuples(
            *[st.integers(lo, hi) for lo, hi in zip(arch.min_widths(), maxes)])))
        budget = ratio * arch.full_config().flops
        lo_f, hi_f = budget * (1 - tolerance), budget * (1 + tolerance)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert search._grow_candidate(got_rng, arch, base, lo_f, hi_f) == \
                choice_grow_candidate(want_rng, arch, base, lo_f, hi_f)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestKeptMovableLists:
    """The growth and budget walks keep their lists of movable blocks
    across steps instead of rebuilding them; each gives the configs and
    the generator state of the rebuilding loop it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), layers_per_block=st.integers(1, 3),
           maxes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
           ratio=st.floats(0.0, 1.1), tolerance=st.floats(0.0, 0.2))
    def test_budget_sampler_matches_the_rebuilding_loop(self, seed, layers_per_block, maxes,
                                                        ratio, tolerance):
        arch = Architecture(input_dim=5, block_max_widths=tuple(maxes),
                            layers_per_block=layers_per_block, class_count=3)
        budget = ratio * arch.full_config().flops
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            outcomes = []
            for sampler, rng in ((sample_config_at_budget, got_rng),
                                 (rebuilt_sample_config_at_budget, want_rng)):
                try:
                    outcomes.append(sampler(rng, arch, budget, tolerance, max_tries=5))
                except SearchError:
                    outcomes.append(SearchError)
            assert outcomes[0] == outcomes[1]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(12))
    def test_budget_sampler_on_a_wide_bank_matches_the_rebuilding_loop(self, seed):
        """Narrow bands on the default task's widths: walks that cross the
        band both ways and pin blocks at either limit."""
        arch = Architecture(input_dim=16, block_max_widths=(32, 64, 128, 256), class_count=4)
        full = arch.full_config().flops
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for ratio in (1 / 32, 1 / 16, 0.3, 0.5, 0.97, 1.0):
            for tolerance in (0.0, 0.002, 0.02):
                outcomes = []
                for sampler, rng in ((sample_config_at_budget, got_rng),
                                     (rebuilt_sample_config_at_budget, want_rng)):
                    try:
                        outcomes.append(sampler(rng, arch, ratio * full, tolerance, max_tries=3))
                    except SearchError:
                        outcomes.append(SearchError)
                assert outcomes[0] == outcomes[1]
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), layers_per_block=st.integers(1, 3),
           maxes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
           ratio=st.floats(0.0, 1.1), tolerance=st.floats(0.0, 0.2))
    def test_grow_candidate_matches_the_rebuilding_loop(self, data, seed, layers_per_block,
                                                        maxes, ratio, tolerance):
        arch = Architecture(input_dim=5, block_max_widths=tuple(maxes),
                            layers_per_block=layers_per_block, class_count=3)
        base = arch.make_config(data.draw(st.tuples(
            *[st.integers(lo, hi) for lo, hi in zip(arch.min_widths(), maxes)])))
        budget = ratio * arch.full_config().flops
        lo_f, hi_f = budget * (1 - tolerance), budget * (1 + tolerance)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert search._grow_candidate(got_rng, arch, base, lo_f, hi_f) == \
                rebuilt_grow_candidate(want_rng, arch, base, lo_f, hi_f)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


GEOMETRIC = [1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]


class TestDefaultLadder:
    # Slimmest config (2, 3): 80 FLOPs.  The 1/32 band is [84.8, 88.2] at
    # ±2%, [82.2, 90.8] at ±5%, and the cheapest one-channel step costs 24.
    GAPPED = Architecture(input_dim=6, block_max_widths=(16, 24), layers_per_block=2,
                          class_count=3)

    @pytest.mark.parametrize("tolerance", [0.02, 0.05])
    def test_unreachable_lowest_band_falls_back_to_linear(self, tolerance):
        arch = self.GAPPED
        assert arch.smallest_config().flops == 80
        assert min(flops_step(arch, arch.min_widths(), b, 1) for b in range(2)) == 24
        full = arch.full_config().flops
        assert SearchPlan(tolerance=tolerance).budgets(arch) == \
            [b / full for b in linear_budget_ladder(arch, 6)]

    def test_ladder_completes_on_the_gapped_architecture(self):
        """The geometric ladder raised SearchError on its first rung here."""
        bank = ParamStore(self.GAPPED, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(50, self.GAPPED.input_dim))
        plan = SearchPlan(tolerance=0.05)
        steps = inherited_greedy_search(bank, plan, x)
        assert [s.budget_ratio for s in steps] == plan.budgets(self.GAPPED)
        full = self.GAPPED.full_config().flops
        for step in steps:
            budget = step.budget_ratio * full
            assert budget * 0.95 <= step.config.flops <= budget * 1.05

    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_rungs_no_candidate_grows_into_are_skipped(self, seed):
        """At tolerance 0.02 the 0.5145 rung's winner, (15, 13) or (16, 12),
        is wider in block 0 than every config in the 0.6763 and 0.8382
        bands: those rungs get no step, and the ladder goes on from that
        winner to full width."""
        bank = ParamStore(self.GAPPED, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(50, self.GAPPED.input_dim))
        plan = SearchPlan(seed=seed)
        budgets = plan.budgets(self.GAPPED)
        steps = inherited_greedy_search(bank, plan, x)
        assert [s.budget_ratio for s in steps] == [budgets[i] for i in (0, 1, 2, 5)]
        assert steps[2].config.widths in ((15, 13), (16, 12))
        assert steps[-1].config == self.GAPPED.full_config()

    def test_a_ladder_with_no_reachable_rung_is_a_search_error(self):
        """85 FLOPs lies between the slimmest config (80) and its cheapest
        one-channel step (104), so no candidate lands in its ±2% band."""
        bank = ParamStore(self.GAPPED, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(50, self.GAPPED.input_dim))
        gap = 85 / self.GAPPED.full_config().flops
        steps = inherited_greedy_search(bank, SearchPlan(budget_ratios=(gap, 1.0)), x)
        assert [s.budget_ratio for s in steps] == [1.0]
        with pytest.raises(SearchError):
            inherited_greedy_search(bank, SearchPlan(budget_ratios=(gap,)), x)

    @pytest.mark.parametrize("blocks", [(32, 64, 128, 256), (8, 16, 32, 64)])
    @pytest.mark.parametrize("layers_per_block", [1, 2])
    def test_benchmark_architectures_keep_the_geometric_ladder(self, blocks, layers_per_block):
        arch = Architecture(input_dim=DEFAULT_TASK["d"], block_max_widths=blocks,
                            layers_per_block=layers_per_block, class_count=DEFAULT_TASK["K"])
        assert SearchPlan().budgets(arch) == GEOMETRIC

    def test_a_k_above_the_flops_levels_is_refused_by_name(self):
        """FLOPs are even integers, so no ladder on ARCH holds more than
        (full - slimmest) / 2 + 1 = 526 distinct rungs; the default ladder
        refuses a larger k, and an explicit one does not read k."""
        levels = int(ARCH.full_config().flops - ARCH.smallest_config().flops) // 2 + 1
        assert levels == 526
        assert len(SearchPlan(k=levels).budgets(ARCH)) == levels
        with pytest.raises(UsageError, match=r"^search\.k: need k <= 526, .* got 527$"):
            SearchPlan(k=levels + 1).budgets(ARCH)
        assert SearchPlan(k=levels + 1, budget_ratios=(0.5, 1.0)).budgets(ARCH) == [0.5, 1.0]

    def test_slimmest_config_inside_the_band_keeps_the_geometric_ladder(self):
        arch = Architecture(input_dim=5, block_max_widths=(8,), class_count=3)
        full = arch.full_config().flops
        assert arch.smallest_config().flops / full == 1 / 8
        assert SearchPlan(k=4).budgets(arch) == GEOMETRIC[2:]


def one_band(bank, ratio, n, target_x, seed=0, tolerance=0.02, **kwargs):
    """`random_bands` over a plan of one budget: that band's scores."""
    plan = SearchPlan(budget_ratios=(ratio,), tolerance=tolerance, seed=seed, n_random=n)
    [(got_ratio, scores)] = random_bands(bank, plan, target_x, **kwargs)
    assert got_ratio == ratio
    return scores


class TestRandomSearch:
    def test_n1_returns_that_config(self, trained):
        bank, ds = trained
        scores = one_band(bank, 0.5, 1, ds.xt, seed=3)
        assert len(scores) == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_samples_rejected(self, trained, n):
        bank, ds = trained
        with pytest.raises(UsageError, match="n >= 1"):
            one_band(bank, 0.5, n, ds.xt, seed=3)

    def test_no_samples_rejected_before_recalibrating(self, trained):
        bank, ds = trained
        with mock.patch.object(search, "recalibrated", side_effect=AssertionError("recalibrated")):
            with pytest.raises(UsageError, match="n >= 1"):
                one_band(bank, 0.5, 0, ds.xt, seed=3)

    @pytest.mark.parametrize("n", [1.5, 2.0, True])
    def test_non_integer_n_rejected_before_recalibrating(self, trained, n):
        """A float (2.0 included) or a bool is no count: it is refused by
        name before the anchor is recalibrated, not run as int(n) configs."""
        bank, ds = trained
        with mock.patch.object(search, "recalibrated", side_effect=AssertionError("recalibrated")):
            with pytest.raises(UsageError, match="n >= 1"):
                one_band(bank, 0.5, n, ds.xt, seed=3)

    @pytest.mark.parametrize("tolerance", [-0.1, 1.5])
    def test_tolerance_outside_unit_interval_rejected(self, trained, tolerance):
        bank, ds = trained
        with pytest.raises(UsageError, match=r"tolerance must be in \[0, 1\)"):
            one_band(bank, 0.25, 3, ds.xt, seed=3, tolerance=tolerance)

    def test_all_results_within_band(self, trained):
        bank, ds = trained
        budget = 0.4 * ARCH.full_config().flops
        scores = one_band(bank, 0.4, 10, ds.xt, seed=4)
        for s in scores:
            assert abs(s.config.flops - budget) <= 0.02 * budget

    @pytest.mark.parametrize("labelled", [False, True])
    def test_bands_sample_each_budget_from_one_stream(self, trained, labelled):
        bank, ds = trained
        plan = SearchPlan(k=3, tolerance=0.05, seed=6, n_random=4)
        y = ds.target_labels(evaluation=True) if labelled else None
        got = list(random_bands(bank, plan, ds.xt, target_y=y))
        rng, full = named_rng(plan.seed, "search"), ARCH.full_config().flops
        want = []
        for r in plan.budgets(ARCH):
            configs = [sample_config_at_budget(rng, ARCH, r * full, 0.05) for _ in range(4)]
            want.append((r, [anchor_discrepancy(bank, c, ds.xt, target_y=y) for c in configs]))
        assert got == want


class TestGreedy:
    def test_budgets_increase_and_winners_nest(self, trained):
        bank, ds = trained
        plan = SearchPlan(k=4, q=6, seed=0)
        steps = inherited_greedy_search(bank, plan, ds.xt)
        assert len(steps) == 4
        ratios = [s.budget_ratio for s in steps]
        assert ratios == sorted(ratios)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        prev = bank.arch.smallest_config().widths
        for step in steps:
            assert all(w >= p for w, p in zip(step.config.widths, prev))
            prev = step.config.widths
        flops = [s.config.flops for s in steps]
        assert all(b >= a for a, b in zip(flops, flops[1:]))

    def test_single_step_dominates_smallest(self, trained):
        bank, ds = trained
        steps = inherited_greedy_search(bank, SearchPlan(k=1, q=4, seed=1), ds.xt)
        assert len(steps) == 1
        small = bank.arch.min_widths()
        assert all(w >= s for w, s in zip(steps[0].config.widths, small))

    def test_explicit_budget_ratios(self, trained):
        bank, ds = trained
        plan = SearchPlan(q=4, seed=2, budget_ratios=(0.25, 0.5, 1.0))
        steps = inherited_greedy_search(bank, plan, ds.xt)
        assert [s.budget_ratio for s in steps] == [0.25, 0.5, 1.0]

    @pytest.mark.parametrize("head", ["a", "task"])
    def test_labelled_ladder_reads_accuracy_without_changing_selection(self, trained, head):
        bank, ds = trained
        plan = SearchPlan(k=3, q=5, seed=3)
        yt = ds.target_labels(evaluation=True)
        blind = inherited_greedy_search(bank, plan, ds.xt)
        labelled = inherited_greedy_search(bank, plan, ds.xt, target_y=yt, head=head)
        assert all(s.accuracy is None for s in blind)
        assert [dataclasses.replace(s, accuracy=None) for s in labelled] == blind
        for step in labelled:
            assert step.accuracy == config_accuracy(bank, step.config, ds.xt, yt, head)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("labelled", [False, True])
    def test_shared_pass_ladder_matches_per_candidate_reference(self, trained_deep, seed,
                                                                labelled):
        bank, ds = trained_deep
        plan = SearchPlan(seed=seed)
        yt = ds.target_labels(evaluation=True) if labelled else None
        got = inherited_greedy_search(bank, plan, ds.xt, target_y=yt)
        want = per_candidate_ladder(bank, plan, ds.xt, target_y=yt)
        assert [(s.budget_ratio, s.config, s.saturated, s.accuracy) for s in got] == \
            [(s.budget_ratio, s.config, s.saturated, s.accuracy) for s in want]
        np.testing.assert_allclose([s.delta for s in got], [s.delta for s in want],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("yield_order", [list, lambda items: list(items)[::-1]])
    def test_duplicate_candidates_go_to_the_first_grown(self, trained, monkeypatch, yield_order):
        """Duplicates score alike, so the first in grow order wins, in
        whatever order the shared pass yields them.  Here the full config
        (delta 0) is grown three times, and only the first copy is
        unsaturated."""
        bank, ds = trained
        narrow, full = ARCH.make_config((8, 12)), ARCH.full_config()
        grown = iter([(narrow, False), (full, False), (full, True), (full, True)])
        monkeypatch.setattr(search, "_grow_candidate", lambda *args: next(grown))
        shared = search.adabn_pass
        monkeypatch.setattr(search, "adabn_pass", lambda *a, **k: yield_order(shared(*a, **k)))
        step, = inherited_greedy_search(bank, SearchPlan(q=4, budget_ratios=(1.0,)), ds.xt)
        assert (step.config, step.delta, step.saturated) == (full, 0.0, False)

    def test_bad_ratio_ladder_rejected(self):
        with pytest.raises(UsageError):
            SearchPlan(budget_ratios=(0.5, 0.5)).budgets(ARCH)
        with pytest.raises(UsageError):
            SearchPlan(budget_ratios=(0.5, 1.5)).budgets(ARCH)

    @pytest.mark.parametrize("field", ["k", "q"])
    def test_nan_ladder_size_rejected(self, field):
        with pytest.raises(UsageError, match=r"need k >= 1 and q >= 1"):
            SearchPlan(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["k", "q"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3"])
    def test_non_integer_ladder_size_rejected(self, field, value):
        """A float, a bool or a string for `k` or `q` is refused by name,
        before any ladder is built."""
        with pytest.raises(UsageError, match=rf"need k >= 1 and q >= 1 as integers, got {field}="):
            SearchPlan(**{field: value})

    @pytest.mark.parametrize("field", ["k", "q"])
    def test_numpy_integer_ladder_size_accepted(self, field):
        assert getattr(SearchPlan(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("value", [1.5, 2.0, -1, True, float("nan"), "3"])
    def test_bad_seed_rejected(self, value):
        """A seed that numpy's SeedSequence would refuse (or read as 1, for
        True) is refused by name when the plan is built."""
        with pytest.raises(UsageError, match=r"^seed must be >= 0, got .*; integers only$"):
            SearchPlan(seed=value)

    def test_numpy_integer_seed_accepted(self):
        assert SearchPlan(seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("value", [0, -1, 1.5, True])
    def test_bad_random_sample_count_rejected(self, value):
        """The plan owns random search's per-band count: a count below one,
        a float or a bool is refused by the config field's name when the
        plan is built."""
        with pytest.raises(UsageError, match=r"^search\.n_random: .*n >= 1"):
            SearchPlan(n_random=value)

    def test_random_sample_count_is_the_last_field(self):
        """Appended last, so a positional plan keeps its meaning."""
        assert [f.name for f in dataclasses.fields(SearchPlan)][-1] == "n_random"
        assert SearchPlan(6, 20, 0, 0.02, None).n_random == SearchPlan.n_random == 100


class TestScoringPasses:
    """Scores and accuracies come from each config's own calibration: no
    second forward through `SlimModel.predict`.  `anchor_discrepancy` runs
    one AdaBN pass per scored config plus one for the anchor; the greedy
    ladder recalibrates the anchor, then each rung's candidates in one
    shared pass that yields every candidate once."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"predict": [], "adabn": [], "passes": []}
        predict, adabn, shared = SlimModel.predict, search.adabn_recalibrate, search.adabn_pass
        monkeypatch.setattr(SlimModel, "predict",
                            lambda *a, **k: calls["predict"].append(1) or predict(*a, **k))
        monkeypatch.setattr(search, "adabn_recalibrate",
                            lambda *a, **k: calls["adabn"].append(1) or adabn(*a, **k))

        def counted_pass(*args, **kwargs):
            calls["passes"].append(0)
            for item in shared(*args, **kwargs):
                calls["passes"][-1] += 1
                yield item

        monkeypatch.setattr(search, "adabn_pass", counted_pass)
        return calls

    @pytest.mark.parametrize("labelled", [False, True])
    def test_greedy_ladder(self, trained, counted, labelled):
        bank, ds = trained
        plan = SearchPlan(k=3, q=4, seed=0, tolerance=0.05)
        yt = ds.target_labels(evaluation=True) if labelled else None
        steps = inherited_greedy_search(bank, plan, ds.xt, target_y=yt)
        assert len(steps) == plan.k
        assert len(counted["predict"]) == 0
        assert len(counted["adabn"]) == 1  # the anchor
        assert counted["passes"] == [plan.q] * plan.k

    @pytest.mark.parametrize("head", ["a", "task"])
    def test_anchor_discrepancy(self, trained, counted, head):
        bank, ds = trained
        score = anchor_discrepancy(bank, ARCH.make_config((8, 12)), ds.xt,
                                   target_y=ds.target_labels(evaluation=True), head=head)
        assert score.accuracy is not None
        assert len(counted["predict"]) == 0
        assert len(counted["adabn"]) == 2


class TestCorrelationTools:
    def test_perfect_anticorrelation_detected(self):
        # The package's own coefficients on an exactly decreasing line.
        deltas = np.array([1.0, 2.0, 3.0, 4.0])
        pearson, spearman = correlation_coefficients(deltas, 1 - 0.1 * deltas)
        assert pearson == pytest.approx(-1.0)
        assert spearman == -1.0

    def test_too_few_configs_rejected(self, trained):
        bank, ds = trained
        with pytest.raises(UsageError):
            correlate(bank, [ARCH.full_config()], ds.xt, np.zeros(len(ds.xt), dtype=int))

    def test_correlate_rejects_zero_variance_configs(self, trained):
        bank, ds = trained
        yt = ds.target_labels(evaluation=True)
        with pytest.raises(UsageError, match="zero variance"):
            correlate(bank, [ARCH.full_config()] * 3, ds.xt, yt)

    def test_coefficients_undefined_without_range(self):
        varied = [0.1, 0.3, 0.2, 0.5]
        assert correlation_coefficients([0.2] * 4, varied) is None
        assert correlation_coefficients(varied, [0.49] * 4) is None
        assert correlation_coefficients([0.1], [0.5]) is None

    def test_coefficients_match_scipy(self):
        from scipy import stats
        rng = np.random.default_rng(4)
        for n in (2, 5, 40):
            deltas = rng.uniform(0, 1, n)
            accs = np.round(rng.uniform(0, 1, n), 1)  # ties, as accuracies have
            pearson, spearman = correlation_coefficients(list(deltas), list(accs))
            assert pearson == stats.pearsonr(deltas, accs).statistic
            assert spearman == stats.spearmanr(deltas, accs).statistic

    @pytest.mark.parametrize("deltas,accs", [
        ([0.1, 0.2, np.nan, 0.4], [0.5, 0.7, 0.6, 0.8]),
        ([0.1, 0.2, 0.3, 0.4], [0.5, np.nan, 0.6, 0.6]),
        ([0.1, 0.2, np.inf, 0.4], [0.5, 0.7, 0.6, 0.8]),
        ([0.1, -np.inf, 0.3], [0.5, 0.7, 0.6]),
    ], ids=["nan-delta", "nan-acc", "inf", "minus-inf"])
    def test_non_finite_coefficients_follow_scipy(self, deltas, accs):
        """NaN makes both coefficients NaN; an infinity makes Pearson NaN
        and leaves Spearman's ranks defined, as in scipy."""
        import warnings
        from scipy import stats
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = correlation_coefficients(deltas, accs)
            want = (stats.pearsonr(deltas, accs).statistic, stats.spearmanr(deltas, accs).statistic)
        np.testing.assert_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 60), scale=st.integers(-8, 8),
           levels=st.integers(1, 6))
    def test_coefficients_equal_scipy_statistics(self, data, n, scale, levels):
        """The numpy coefficients are scipy's statistics bit for bit, with
        ties (few distinct values), two points and magnitudes 1e-8 to 1e8;
        None exactly when one input has zero range."""
        from scipy import stats
        whole = st.integers(-10 ** 6, 10 ** 6)
        deltas = np.array(data.draw(st.lists(whole, min_size=n, max_size=n))) * 10.0 ** scale
        accs = np.array(data.draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
        got = correlation_coefficients(list(deltas), list(accs))
        if np.ptp(deltas) == 0 or np.ptp(accs) == 0:
            assert got is None
        else:
            assert got == (stats.pearsonr(deltas, accs).statistic,
                           stats.spearmanr(deltas, accs).statistic)

    def test_spearman_equals_scipy(self):
        from scipy import stats
        rng = np.random.default_rng(5)
        for n in (2, 3, 17, 60):
            x, y = rng.uniform(0, 1, n), np.round(rng.uniform(0, 1, n), 1)  # ties in y
            assert search._spearman(x, y) == stats.spearmanr(x, y).statistic
        assert search._spearman(np.ones(4), np.arange(4.0)) is None

    def test_capacity_spearman_is_scipys_over_flops_and_accuracy(self, trained):
        """`correlate` also reports Spearman's rho between the configs'
        FLOPs and their `config_accuracy`, scipy's statistic bit for bit."""
        from scipy import stats
        bank, ds = trained
        yt = ds.target_labels(evaluation=True)
        configs = sample_configs_spanning(np.random.default_rng(2), bank.arch, 12)
        accs = [config_accuracy(bank, c, ds.xt, yt) for c in configs]
        rho = correlate(bank, configs, ds.xt, yt).capacity_spearman
        assert rho == stats.spearmanr([c.flops for c in configs], accs).statistic

    def test_capacity_spearman_is_none_over_configs_of_equal_flops(self, trained):
        bank, ds = trained
        configs = [ARCH.make_config(w) for w in [(3, 24), (6, 14), (9, 9), (12, 6), (15, 4)]]
        assert len({c.flops for c in configs}) == 1
        rep = correlate(bank, configs, ds.xt, ds.target_labels(evaluation=True))
        assert rep.capacity_spearman is None

    def test_spanning_sampler_is_legal_and_wide(self):
        rng = np.random.default_rng(6)
        configs = sample_configs_spanning(rng, ARCH, 50)
        ratios = [c.flops / ARCH.full_config().flops for c in configs]
        assert min(ratios) < 0.3
        assert max(ratios) > 0.6

    def test_config_accuracy_deterministic(self, trained):
        bank, ds = trained
        yt = ds.target_labels(evaluation=True)
        cfg = ARCH.make_config((8, 12))
        a = config_accuracy(bank, cfg, ds.xt, yt)
        b = config_accuracy(bank, cfg, ds.xt, yt)
        assert a == b

    @pytest.mark.parametrize("head", ["a", "task"])
    def test_score_accuracy_equals_config_accuracy(self, trained, head):
        bank, ds = trained
        yt = ds.target_labels(evaluation=True)
        for widths in [(16, 24), (8, 12), (2, 5)]:
            cfg = ARCH.make_config(widths)
            score = anchor_discrepancy(bank, cfg, ds.xt, target_y=yt, head=head)
            assert score.accuracy == config_accuracy(bank, cfg, ds.xt, yt, head=head)
            assert score.delta == anchor_discrepancy(bank, cfg, ds.xt).delta
        assert anchor_discrepancy(bank, cfg, ds.xt).accuracy is None

    @pytest.mark.parametrize("head", ["a", "task"])
    def test_correlate_recalibrates_once_per_config(self, trained, monkeypatch, head):
        bank, ds = trained
        calls = []
        original = search.adabn_recalibrate
        monkeypatch.setattr(search, "adabn_recalibrate",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        configs = sample_configs_spanning(np.random.default_rng(7), ARCH, 6)
        correlate(bank, configs, ds.xt, ds.target_labels(evaluation=True), head=head)
        assert len(calls) == len(configs) + 1  # one per config, one for the anchor


class TestDistinctScores:
    """Random search and correlate score each distinct config once, with
    `anchor_discrepancy`; a repeated config reuses its first score, which
    equals the config's own `anchor_discrepancy` bit for bit."""

    POOL = [ARCH.make_config(w) for w in ((2, 3), (8, 12), (16, 24), (5, 20), (12, 6))]

    @settings(max_examples=20, deadline=None)
    @given(picks=st.lists(st.integers(0, len(POOL) - 1), min_size=3, max_size=8))
    def test_repeats_reuse_the_first_score(self, trained, picks):
        bank, ds = trained
        yt = ds.target_labels(evaluation=True)
        configs = [self.POOL[i] for i in picks]
        alone = {c: anchor_discrepancy(bank, c, ds.xt, target_y=yt) for c in set(configs)}
        calls = []

        def counted(bank, config, *args, **kwargs):
            calls.append(config)
            return anchor_discrepancy(bank, config, *args, **kwargs)

        samples = iter(configs)
        with mock.patch.object(search, "anchor_discrepancy", counted), \
                mock.patch.object(search, "sample_config_at_budget",
                                  lambda *args, **kwargs: next(samples)):
            scores = one_band(bank, 1.0, len(configs), ds.xt, target_y=yt)
        assert calls == list(dict.fromkeys(configs))  # once per distinct config
        assert [(s.config, s.delta, s.accuracy) for s in scores] == \
            [(c, alone[c].delta, alone[c].accuracy) for c in configs]

        calls.clear()
        with mock.patch.object(search, "anchor_discrepancy", counted):
            try:
                report = correlate(bank, configs, ds.xt, yt)
                got = (report.pearson, report.spearman)
            except UsageError:  # zero variance: undefined
                got = None
        assert calls == list(dict.fromkeys(configs))
        assert got == correlation_coefficients([alone[c].delta for c in configs],
                                               [alone[c].accuracy for c in configs])
