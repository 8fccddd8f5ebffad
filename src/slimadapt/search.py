"""Architecture selection on unlabelled target data.

The selection signal is the anchor discrepancy: the mean squared
difference between a candidate sub-model's deployment-head predictions
and the full-width model's, both AdaBN-recalibrated on the target set.
Since the largest model is statistically the most accurate one in a
trained bank, a smaller discrepancy predicts higher accuracy, which
makes the score usable without labels.

Search strategies: random sampling inside a FLOPs band, and an inherited
greedy ladder that walks from the slimmest configuration to the full one,
at each budget widening the previous winner by randomly distributed
channel increments and keeping the lowest-discrepancy candidate.

Every scored config is recalibrated once, and its score (and accuracy,
with labels) is read from that calibration.  A rung's candidates all grow
from one winner and share long width prefixes, so the ladder calibrates
them in one shared `adabn_pass` per rung.  Random search and `correlate`
sample unrelated configs, which share only the input layer; they
recalibrate config by config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scipy_stats

from .errors import SearchError, UsageError
from .slimnet import (Architecture, ParamStore, SlimModel, WidthConfig, adabn_pass,
                      adabn_recalibrate, flops_per_sample, flops_step)

__all__ = [
    "DiscrepancyScore",
    "SearchPlan",
    "SearchStep",
    "CorrelationReport",
    "correlation_coefficients",
    "recalibrated",
    "anchor_discrepancy",
    "discrepancy_between",
    "config_accuracy",
    "sample_configs_spanning",
    "sample_config_at_budget",
    "random_search",
    "inherited_greedy_search",
    "correlate",
    "monotonicity_probe",
    "linear_budget_ladder",
]


@dataclass(frozen=True)
class DiscrepancyScore:
    """A config's anchor discrepancy; `accuracy` is its target accuracy
    from the same recalibrated model when labels were given."""

    config: WidthConfig
    delta: float
    accuracy: float | None = None


@dataclass(frozen=True)
class SearchStep:
    budget_ratio: float
    config: WidthConfig
    delta: float
    saturated: bool = False
    accuracy: float | None = None  # with labels: from the ladder's own recalibration


@dataclass(frozen=True)
class CorrelationReport:
    pearson: float
    spearman: float


@dataclass(frozen=True)
class SearchPlan:
    """Budget ladder for the inherited greedy search.

    The default ladder is geometric, halving from full FLOPs k times
    (k = 6 gives 1/32, 1/16, ..., 1/2, 1), which concentrates budgets in
    the capacity region where accuracy actually varies.  When no legal
    config can land in the lowest geometric rung's band (the slimmest
    model is too large for it, or its cheapest one-channel step jumps past
    it), the FLOPs gap between the slimmest and the full model is divided
    into k equal increments instead.  An explicit `budget_ratios` list
    (fractions of full FLOPs, strictly increasing) overrides both; an
    empty one does not.  `tolerance`, each band's half-width over its budget, is in [0, 1).
    """

    k: int = 6
    q: int = 20
    seed: int = 0
    tolerance: float = 0.02
    budget_ratios: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.k < 1 or self.q < 1:
            raise UsageError(f"need k >= 1 and q >= 1, got k={self.k}, q={self.q}")
        _check_tolerance(self.tolerance)

    def budgets(self, arch: Architecture) -> list[float]:
        full = arch.full_config().flops
        lo = arch.smallest_config().flops / full
        if self.budget_ratios:
            ratios = [float(r) for r in self.budget_ratios]
            # Written so that a NaN ratio fails each check.
            if not all(a < b for a, b in zip(ratios, ratios[1:])):
                raise UsageError("budget ratios must be strictly increasing")
            if not (lo < ratios[0] and ratios[-1] <= 1.0 + 1e-12):
                raise UsageError(f"budget ratios must lie in ({lo:.4f}, 1]")
            return ratios
        geometric = [2.0 ** -(self.k - 1 - i) for i in range(self.k)]
        if _may_land_in_band(arch, geometric[0] * full, self.tolerance):
            return geometric
        return [r / full for r in linear_budget_ladder(arch, self.k)]


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < 1.0:
        raise UsageError(f"search tolerance must be in [0, 1), got {tolerance}")


def _may_land_in_band(arch: Architecture, budget: float, tolerance: float) -> bool:
    """False when no legal config lands within ±tolerance of `budget`
    because the band lies below the slimmest config, or between it and the
    cheapest one-channel step from it: FLOPs grow with every width, so
    every other config costs at least that step more than the slimmest."""
    smallest = arch.smallest_config()
    lo_f, hi_f = budget * (1 - tolerance), budget * (1 + tolerance)
    if smallest.flops >= lo_f:
        return smallest.flops <= hi_f
    steps = [flops_step(arch, smallest.widths, b, 1) for b in range(arch.n_blocks)
             if smallest.widths[b] < arch.block_max_widths[b]]
    return bool(steps) and smallest.flops + min(steps) <= hi_f


def linear_budget_ladder(arch: Architecture, k: int) -> list[float]:
    """k absolute FLOPs budgets splitting [smallest, full] into equal parts."""
    lo = arch.smallest_config().flops
    hi = arch.full_config().flops
    return [lo + (i + 1) * (hi - lo) / k for i in range(k)]


def recalibrated(bank: ParamStore, config: WidthConfig, target_x: np.ndarray) -> SlimModel:
    model = bank.slice(config)
    adabn_recalibrate(model, target_x)
    return model


def _squared_distance(probs: np.ndarray, anchor_probs: np.ndarray) -> float:
    """Mean over samples of the squared distance between two prediction sets."""
    return float(((probs - anchor_probs) ** 2).sum()) / len(probs)


def _accuracy(probs: np.ndarray, target_y: np.ndarray) -> float:
    return float((probs.argmax(axis=1) == np.asarray(target_y)).mean())


def discrepancy_between(candidate: SlimModel, anchor_probs: np.ndarray) -> float:
    """Squared output distance to the anchor's predictions, per sample,
    on the target set the candidate was recalibrated on (a UsageError
    before recalibration)."""
    return _squared_distance(candidate.calibrated_probs("a"), anchor_probs)


def anchor_discrepancy(bank: ParamStore, config: WidthConfig, target_x: np.ndarray,
                       anchor_probs: np.ndarray | None = None,
                       target_y: np.ndarray | None = None, head: str = "a") -> DiscrepancyScore:
    """Score one configuration against the full-width anchor.

    Both the candidate and the anchor are recalibrated on `target_x`, and
    their predictions come from that recalibration pass; pass
    `anchor_probs` to reuse the anchor's predictions across many calls.
    With `target_y` (evaluation only), the score also carries the
    config's accuracy under `head`, read from the same recalibration.
    """
    if anchor_probs is None:
        anchor_probs = _anchor_probs(bank, target_x)
    candidate = recalibrated(bank, config, target_x)
    probs = candidate.calibrated_probs("a")
    accuracy = None
    if target_y is not None:
        head_probs = probs if head == "a" else candidate.calibrated_probs(head)
        accuracy = _accuracy(head_probs, target_y)
    return DiscrepancyScore(config=config, delta=_squared_distance(probs, anchor_probs),
                            accuracy=accuracy)


def _anchor_probs(bank: ParamStore, target_x: np.ndarray) -> np.ndarray:
    return recalibrated(bank, bank.arch.full_config(), target_x).calibrated_probs("a")


def config_accuracy(bank: ParamStore, config: WidthConfig, target_x: np.ndarray,
                    target_y: np.ndarray, head: str = "a") -> float:
    """Target accuracy of one width after AdaBN (evaluation paths only)."""
    model = recalibrated(bank, config, target_x)
    return _accuracy(model.predict(target_x, head=head), target_y)


def sample_configs_spanning(rng: np.random.Generator, arch: Architecture, n: int) -> list[WidthConfig]:
    """n configurations spanning the FLOPs range.

    Widths are drawn log-uniformly per block: FLOPs are quadratic in the
    widths, so uniform widths would pile most samples into the mid-range
    and leave the small-capacity tail nearly unsampled.
    """
    lows, highs = arch.min_widths(), arch.block_max_widths
    out = []
    for _ in range(n):
        widths = []
        for lo, hi in zip(lows, highs):
            w = int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))
            widths.append(min(max(w, lo), hi))
        out.append(arch.make_config(tuple(widths)))
    return out


def sample_config_at_budget(rng: np.random.Generator, arch: Architecture, budget: float,
                            tolerance: float = 0.02, max_tries: int = 200) -> WidthConfig:
    """A random legal config whose FLOPs land within ±tolerance of budget.

    Starts from a uniform random config and walks single-channel steps on
    random blocks toward the budget, tracking FLOPs step by step; channel
    granularity is 1, so any reachable band of this relative width is hit
    quickly.  `tolerance` is in [0, 1), as in `SearchPlan`.
    """
    _check_tolerance(tolerance)
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


def random_search(bank: ParamStore, budget: float, n: int, target_x: np.ndarray,
                  rng: np.random.Generator, tolerance: float = 0.02,
                  anchor_probs: np.ndarray | None = None,
                  target_y: np.ndarray | None = None, head: str = "a"
                  ) -> tuple[WidthConfig, list[DiscrepancyScore]]:
    """Sample n configs inside the budget band, return the lowest-score one
    together with the whole score list (with accuracies when `target_y`
    is given, as in `anchor_discrepancy`)."""
    if n < 1:
        raise UsageError(f"random search needs n >= 1 configs, got {n}")
    configs = [sample_config_at_budget(rng, bank.arch, budget, tolerance) for _ in range(n)]
    if anchor_probs is None:
        anchor_probs = _anchor_probs(bank, target_x)
    scores = [anchor_discrepancy(bank, cfg, target_x, anchor_probs=anchor_probs,
                                 target_y=target_y, head=head) for cfg in configs]
    best = min(scores, key=lambda s: s.delta)
    return best.config, scores


def _grow_candidate(rng: np.random.Generator, arch: Architecture, base: WidthConfig,
                    lo_f: float, hi_f: float) -> tuple[WidthConfig, bool] | None:
    """Widen `base` by single channels on random blocks until its FLOPs
    reach [lo_f, hi_f]; returns (config, saturated), or None when a step
    overshoots hi_f (the caller retries)."""
    widths, flops = list(base.widths), base.flops
    highs = arch.block_max_widths
    while True:
        if flops > hi_f:
            return None
        if flops >= lo_f:
            return arch.make_config(widths), False
        grow = [b for b in range(len(widths)) if widths[b] < highs[b]]
        if not grow:
            return arch.make_config(widths), True  # every block at its max
        b = grow[int(rng.integers(len(grow)))]
        flops += flops_step(arch, widths, b, 1)
        widths[b] += 1


def inherited_greedy_search(bank: ParamStore, plan: SearchPlan, target_x: np.ndarray,
                            target_y: np.ndarray | None = None,
                            head: str = "a") -> list[SearchStep]:
    """Walk the budget ladder from the slimmest configuration upward.

    At each budget, q candidates are grown out of the previous winner by
    adding channels to random blocks until the budget band is reached;
    one shared AdaBN pass calibrates them all, and the lowest-discrepancy
    candidate (the first grown on a tie) wins and seeds the next budget,
    so winners are blockwise non-decreasing along the ladder.  A budget no
    candidate grows into gets no step (SearchError if no budget is reached).
    With `target_y` (evaluation only), each step also carries its winner's
    accuracy under `head`, read from the model the ladder recalibrated;
    selection never reads the labels.
    """
    arch = bank.arch
    rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=(11,)))
    anchor_probs = _anchor_probs(bank, target_x)
    full = arch.full_config().flops

    current = arch.smallest_config()
    steps: list[SearchStep] = []
    for ratio in plan.budgets(arch):
        budget = ratio * full
        lo_f, hi_f = budget * (1 - plan.tolerance), budget * (1 + plan.tolerance)
        hi_f = min(hi_f, full)
        candidates: list[tuple[WidthConfig, bool]] = []
        tries = 0
        while len(candidates) < plan.q and tries < 200 * plan.q:  # 200 tries per candidate
            tries += 1
            grown = _grow_candidate(rng, arch, current, lo_f, hi_f)
            if grown is not None:
                candidates.append(grown)
        if not candidates:
            continue
        best = None  # (delta, index, model) of the first candidate with the lowest delta
        for i, model in adabn_pass(bank, [cfg for cfg, _ in candidates], target_x):
            delta = discrepancy_between(model, anchor_probs)
            if best is None or (delta, i) < best[:2]:
                best = (delta, i, model)
        delta, i, model = best
        current, saturated = candidates[i]
        accuracy = None if target_y is None else _accuracy(model.calibrated_probs(head), target_y)
        steps.append(SearchStep(budget_ratio=ratio, config=current, delta=delta,
                                saturated=saturated, accuracy=accuracy))
    if not steps:
        raise SearchError("could not grow candidates into any budget of the ladder")
    return steps


def correlate(bank: ParamStore, configs, target_x: np.ndarray, target_y: np.ndarray,
              head: str = "a") -> CorrelationReport:
    """Pearson and Spearman correlation between anchor discrepancies and
    true target accuracies over a set of configurations (evaluation only).

    Each config is recalibrated once (`anchor_discrepancy` with labels),
    and that one model gives both its discrepancy and its accuracy.
    """
    configs = list(configs)
    if len(configs) < 3:
        raise UsageError(f"correlation needs at least 3 configs, got {len(configs)}")
    anchor_probs = _anchor_probs(bank, target_x)
    scores = [anchor_discrepancy(bank, cfg, target_x, anchor_probs=anchor_probs,
                                 target_y=target_y, head=head) for cfg in configs]
    deltas = [s.delta for s in scores]
    accs = [s.accuracy for s in scores]
    coefficients = correlation_coefficients(deltas, accs)
    if coefficients is None:
        raise UsageError("correlation undefined: zero variance in scores or accuracies")
    pearson, spearman = coefficients
    return CorrelationReport(pearson=pearson, spearman=spearman)


def correlation_coefficients(deltas, accs) -> tuple[float, float] | None:
    """(Pearson, Spearman) between scores and accuracies, or None when the
    correlation is undefined: zero range in the scores or the accuracies."""
    deltas, accs = np.asarray(deltas, dtype=float), np.asarray(accs, dtype=float)
    if np.ptp(deltas) == 0 or np.ptp(accs) == 0:
        return None
    return (float(scipy_stats.pearsonr(deltas, accs).statistic),
            float(scipy_stats.spearmanr(deltas, accs).statistic))


def monotonicity_probe(bank: ParamStore, target_x: np.ndarray, target_y: np.ndarray,
                       n: int, rng: np.random.Generator, head: str = "a") -> float:
    """Spearman rank correlation between FLOPs and true target accuracy
    over n spanning configurations (checks that capacity buys accuracy)."""
    if n < 3:
        raise UsageError(f"monotonicity probe needs n >= 3, got {n}")
    configs = sample_configs_spanning(rng, bank.arch, n)
    accs = [config_accuracy(bank, c, target_x, target_y, head=head) for c in configs]
    coefficients = correlation_coefficients([c.flops for c in configs], accs)
    if coefficients is None:
        raise UsageError("monotonicity probe undefined: zero variance")
    return coefficients[1]

