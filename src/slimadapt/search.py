"""Architecture selection on unlabelled target data.

The selection signal is the anchor discrepancy: the mean squared
difference between a candidate sub-model's deployment-head predictions
and the full-width model's, both AdaBN-recalibrated on the target set.
Every search takes that head as `head` ("a" by default; the CLI passes
the checkpoint mode's `deploy_head`), and reads the anchor, each score
and each accuracy under it through one distance, `discrepancy_between`.
Since the largest model is statistically the most accurate one in a
trained bank, a smaller discrepancy predicts higher accuracy, which
makes the score usable without labels.

Search strategies: random sampling in each FLOPs band (`random_bands`),
and an inherited greedy ladder that walks from the slimmest configuration
to the full one, at each budget widening the previous winner by randomly
distributed channel increments and keeping the lowest-discrepancy one.

Every scored config is recalibrated once, and its score (and accuracy,
with labels) is read from that calibration.  A rung's candidates all grow
from one winner and share long width prefixes, so the ladder calibrates
them in one shared `adabn_pass` per rung.  Random search and `correlate`
score each distinct config once, and a repeat reuses its score: the
band sampler often repeats a config, and on the `cli_deep` benchmark's
bank 32-42 of `correlate --n 10`'s 60 samples are distinct (seeds 1-10).

The Pearson and Spearman coefficients are computed in numpy by scipy's
own arithmetic, so they equal the `scipy.stats` statistics bit for bit
while the package needs only numpy at run time; scipy is a test-only
oracle.  Importing `scipy.stats` took about 0.46 s and 73 MiB of a cold
CLI start (scipy 1.17, Python 3.11, 2-core x86-64 box).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import SearchError, UsageError, is_int_at_least
from .seeding import named_rng
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
    "random_bands",
    "inherited_greedy_search",
    "correlate",
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
    """Pearson and Spearman between scores and accuracies, and Spearman
    between FLOPs and accuracies (None when either has zero range)."""

    pearson: float
    spearman: float
    capacity_spearman: float | None


@dataclass(frozen=True)
class SearchPlan:
    """Budget ladder of both searches: `q` candidates a greedy rung, `n_random` configs a band.

    The default ladder is geometric, halving from full FLOPs k times
    (k = 6 gives 1/32, 1/16, ..., 1/2, 1), which concentrates budgets in
    the capacity region where accuracy actually varies.  When no legal
    config can land in the lowest geometric rung's band (the slimmest
    model is too large for it, or its cheapest one-channel step jumps past
    it), the FLOPs gap between the slimmest and the full model is divided
    into k equal increments instead.  FLOPs are even integers, so neither
    ladder takes a k above the (full - slimmest) / 2 + 1 FLOPs levels of
    the architecture.  An explicit `budget_ratios` list
    (fractions of full FLOPs, strictly increasing) overrides both; an
    empty one does not.  `tolerance`, each band's half-width over its budget, is in [0, 1).
    """

    k: int = 6
    q: int = 20
    seed: int = 0
    tolerance: float = 0.02
    budget_ratios: tuple[float, ...] | None = None
    n_random: int = 100

    def __post_init__(self):
        for name in ("k", "q"):
            n = getattr(self, name)
            if not is_int_at_least(n, 1):
                raise UsageError(f"need k >= 1 and q >= 1 as integers, got {name}={n!r}")
        if not is_int_at_least(self.n_random, 1):
            raise UsageError(f"search.n_random: need n >= 1 as an integer, got {self.n_random!r}")
        if not is_int_at_least(self.seed, 0):  # numpy's generators take no negative seed
            raise UsageError(f"seed must be >= 0, got {self.seed!r}; integers only")
        _check_tolerance(self.tolerance)

    def budgets(self, arch: Architecture) -> list[float]:
        full, slimmest = arch.full_config().flops, arch.smallest_config().flops
        if self.budget_ratios:
            lo = slimmest / full
            ratios = [float(r) for r in self.budget_ratios]
            # Written so that a NaN ratio fails each check.
            if not all(a < b for a, b in zip(ratios, ratios[1:])):
                raise UsageError("budget ratios must be strictly increasing")
            if not (lo < ratios[0] and ratios[-1] <= 1.0 + 1e-12):
                raise UsageError(f"budget ratios must lie in ({lo:.4f}, 1]")
            return ratios
        levels = int(full - slimmest) // 2 + 1  # FLOPs are even integers
        if self.k > levels:
            raise UsageError(f"search.k: need k <= {levels}, the FLOPs levels of this "
                             f"architecture, got {self.k}")
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


def _accuracy(probs: np.ndarray, target_y: np.ndarray) -> float:
    """Share of rows whose most probable class is the label in `target_y`,
    which must hold one integer label in [0, K) per row of `probs`."""
    target_y, k = np.asarray(target_y), probs.shape[1]
    if target_y.shape != probs.shape[:1]:
        raise UsageError(f"target_y has shape {target_y.shape}, not ({len(probs)},)")
    if not np.isin(target_y, np.arange(k)).all():
        raise UsageError(f"target_y holds values that are not integer labels in [0, {k})")
    return float((probs.argmax(axis=1) == target_y).mean())


def discrepancy_between(probs: np.ndarray, anchor_probs: np.ndarray) -> float:
    """Mean over rows of the squared distance between a candidate's
    predictions and the anchor's, both read under one head on one target
    set (a UsageError when their shapes differ)."""
    if np.shape(anchor_probs) != probs.shape:
        raise UsageError(f"anchor_probs has shape {np.shape(anchor_probs)}, not {probs.shape}")
    return float(((probs - anchor_probs) ** 2).sum()) / len(probs)


def anchor_discrepancy(bank: ParamStore, config: WidthConfig, target_x: np.ndarray,
                       anchor_probs: np.ndarray | None = None,
                       target_y: np.ndarray | None = None, head: str = "a") -> DiscrepancyScore:
    """Score one configuration against the full-width anchor under `head`.

    Both the candidate and the anchor are recalibrated on `target_x`, and
    their `head` predictions come from that recalibration pass.  Pass
    `anchor_probs` to reuse the anchor's predictions across many calls; it
    must be the anchor's under the same `head`.  With `target_y`
    (evaluation only), the score also carries the config's accuracy, read
    from the same predictions as its delta.
    """
    if anchor_probs is None:
        anchor_probs = _anchor_probs(bank, target_x, head)
    probs = recalibrated(bank, config, target_x).calibrated_probs(head)
    accuracy = None if target_y is None else _accuracy(probs, target_y)
    return DiscrepancyScore(config=config, delta=discrepancy_between(probs, anchor_probs),
                            accuracy=accuracy)


def _scores(bank, configs, target_x, anchor_probs, target_y, head) -> list[DiscrepancyScore]:
    """Each config's `anchor_discrepancy`, in order, computed once per distinct config."""
    scored = {c: anchor_discrepancy(bank, c, target_x, anchor_probs, target_y, head)
              for c in dict.fromkeys(configs)}
    return [scored[c] for c in configs]


def _anchor_probs(bank: ParamStore, target_x: np.ndarray, head: str) -> np.ndarray:
    return recalibrated(bank, bank.arch.full_config(), target_x).calibrated_probs(head)


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
                            tolerance: float = SearchPlan.tolerance, max_tries: int = 200) -> WidthConfig:
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
        # The blocks that may gain (up) or lose (down) a channel, ascending.
        up = [b for b in range(len(widths)) if widths[b] < highs[b]]
        down = [b for b in range(len(widths)) if widths[b] > lows[b]]
        for _ in range(4 * sum(highs)):
            if lo_f <= flops <= hi_f:
                return arch.make_config(widths)
            # Step toward the band: the blocks that can move, the limit that
            # stops them, and the list a block joins when it leaves `start`.
            step, movable, limit, other, start = (1, up, highs, down, lows) if flops < lo_f \
                else (-1, down, lows, up, highs)
            if not movable:
                break
            i = int(rng.integers(len(movable)))
            b = movable[i]
            flops += flops_step(arch, widths, b, step)
            widths[b] += step
            if widths[b] == limit[b]:
                del movable[i]
            if widths[b] - step == start[b]:
                bisect.insort(other, b)
    raise SearchError(f"no legal config found within ±{tolerance:.0%} of budget {budget:.1f}")


def random_bands(bank: ParamStore, plan: SearchPlan, target_x: np.ndarray,
                 target_y: np.ndarray | None = None, head: str = "a"):
    """Yield (budget ratio, scores) per budget of `plan`: `plan.n_random` configs
    drawn from `named_rng(plan.seed, "search")` within ±`plan.tolerance` of the
    budget, each distinct one scored once under `head` against one recalibrated
    anchor (with accuracies when `target_y` is given, as in `anchor_discrepancy`)."""
    rng = named_rng(plan.seed, "search")
    arch = bank.arch
    full = arch.full_config().flops
    anchor_probs = _anchor_probs(bank, target_x, head)
    for ratio in plan.budgets(arch):
        configs = [sample_config_at_budget(rng, arch, ratio * full, plan.tolerance)
                   for _ in range(plan.n_random)]
        yield ratio, _scores(bank, configs, target_x, anchor_probs, target_y, head)


def _grow_candidate(rng: np.random.Generator, arch: Architecture, base: WidthConfig,
                    lo_f: float, hi_f: float) -> tuple[WidthConfig, bool] | None:
    """Widen `base` by single channels on random blocks until its FLOPs
    reach [lo_f, hi_f]; returns (config, saturated), or None when a step
    overshoots hi_f (the caller retries)."""
    widths, flops = list(base.widths), base.flops
    highs = arch.block_max_widths
    grow = [b for b in range(len(widths)) if widths[b] < highs[b]]  # ascending, kept across steps
    while True:
        if flops > hi_f:
            return None
        if flops >= lo_f:
            return arch.make_config(widths), False
        if not grow:
            return arch.make_config(widths), True  # every block at its max
        i = int(rng.integers(len(grow)))
        b = grow[i]
        flops += flops_step(arch, widths, b, 1)
        widths[b] += 1
        if widths[b] == highs[b]:
            del grow[i]


def inherited_greedy_search(bank: ParamStore, plan: SearchPlan, target_x: np.ndarray,
                            target_y: np.ndarray | None = None,
                            head: str = "a") -> list[SearchStep]:
    """Walk the budget ladder from the slimmest configuration upward.

    At each budget, q candidates are grown out of the previous winner by
    adding channels to random blocks until the budget band is reached;
    one shared AdaBN pass calibrates them all, and the candidate whose
    `head` predictions sit closest to the anchor's (the first grown on a
    tie) wins and seeds the next budget, so winners are blockwise
    non-decreasing along the ladder.  A budget no candidate grows into gets
    no step (SearchError if no budget is reached).  With `target_y`
    (evaluation only), each step also carries its winner's accuracy, read
    from the predictions it was scored by; selection never reads the labels.
    """
    arch = bank.arch
    rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=(11,)))
    anchor_probs = _anchor_probs(bank, target_x, head)
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
        scored = ((i, model.calibrated_probs(head))
                  for i, model in adabn_pass(bank, [cfg for cfg, _ in candidates], target_x))
        delta, i, probs = min((discrepancy_between(p, anchor_probs), i, p) for i, p in scored)
        current, saturated = candidates[i]
        accuracy = None if target_y is None else _accuracy(probs, target_y)
        steps.append(SearchStep(budget_ratio=ratio, config=current, delta=delta,
                                saturated=saturated, accuracy=accuracy))
    if not steps:
        raise SearchError("could not grow candidates into any budget of the ladder")
    return steps


def correlate(bank: ParamStore, configs, target_x: np.ndarray, target_y: np.ndarray,
              head: str = "a") -> CorrelationReport:
    """Pearson and Spearman correlation between anchor discrepancies and
    true target accuracies over a set of configurations (evaluation only),
    and Spearman's rho between FLOPs and the same accuracies, which checks
    the anchor's assumption that capacity buys accuracy.

    Each distinct config is recalibrated once (`anchor_discrepancy` with
    labels), and that one model's `head` predictions give both its
    discrepancy and its accuracy; the anchor is read under `head` too.
    """
    configs = list(configs)
    if len(configs) < 3:
        raise UsageError(f"correlation needs at least 3 configs, got {len(configs)}")
    scores = _scores(bank, configs, target_x, _anchor_probs(bank, target_x, head), target_y, head)
    deltas = [s.delta for s in scores]
    accs = [s.accuracy for s in scores]
    coefficients = correlation_coefficients(deltas, accs)
    if coefficients is None:
        raise UsageError("correlation undefined: zero variance in scores or accuracies")
    pearson, spearman = coefficients
    return CorrelationReport(pearson=pearson, spearman=spearman,
                             capacity_spearman=_spearman([c.flops for c in configs], accs))


def correlation_coefficients(deltas, accs) -> tuple[float, float] | None:
    """(Pearson, Spearman) between scores and accuracies, or None when the
    correlation is undefined: zero range in the scores or the accuracies."""
    deltas, accs = np.asarray(deltas, dtype=float), np.asarray(accs, dtype=float)
    spearman = _spearman(deltas, accs)
    return None if spearman is None else (float(_pearson(deltas, accs)), spearman)


def _spearman(x, y) -> float | None:
    """Spearman's rho, equal to scipy's `spearmanr` statistic, or None when
    x or y has zero range and the correlation is undefined."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r by scipy's `pearsonr` arithmetic, so it equals its
    statistic bit for bit: each centred vector is scaled by its largest
    magnitude before its norm (no premature overflow), and r is clipped to
    [-1, 1] and, for two points, rounded to exactly +-1."""
    unit = []
    for v in (x, y):
        centred = v - v.mean()
        scale = np.abs(centred).max()
        unit.append(centred / (scale * np.linalg.vector_norm(centred / scale)))
    r = np.clip(np.vecdot(*unit), -1.0, 1.0)
    return np.round(r) if len(x) == 2 else r


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing their mean rank (an exact
    half-integer), as scipy's `rankdata`; a NaN makes every rank NaN, as
    `spearmanr` returns NaN then."""
    ordered = np.sort(v)  # NaN sorts last
    if np.isnan(ordered[-1]):
        return np.full(len(v), np.nan)
    return (np.searchsorted(ordered, v, "left") + np.searchsorted(ordered, v, "right") + 1) / 2
