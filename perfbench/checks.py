"""Output checks of the benchmark's workloads.

Each check returns a list of error strings; an empty list means the
output is correct.  A non-empty list turns the op it checks into a failed
op, so corrupted outputs show up in `ok_ratio` and the `failed` count.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-12

# CSV headers as the README documents them and the CLI writes them.
METRICS_HEADER = ("epoch,mode,loss_task,loss_dd,loss_conf,loss_ent,loss_seed,"
                  "probe_acc_1,probe_acc_64th,seconds")
SEARCH_HEADER = "step,budget_ratio,widths,delta,flops,accuracy"
SCATTER_HEADER = "budget_ratio,delta,accuracy"
SUMMARY_HEADER = "budget_ratio,pearson,spearman,n"


def check_losses(losses: dict) -> list[str]:
    return [f"non-finite loss part {k}={v!r}" for k, v in losses.items()
            if not math.isfinite(float(v))]


def check_params(arrays: dict) -> list[str]:
    return [f"non-finite parameter {name}" for name, arr in arrays.items()
            if not np.all(np.isfinite(arr))]


def check_score(delta: float) -> list[str]:
    if not math.isfinite(delta) or delta < 0:
        return [f"score {delta!r} is not a finite non-negative number"]
    return []


def check_ladder(steps, arch, plan, rescore) -> list[str]:
    """Greedy ladder invariants.

    Every winner lies in its budget band or is flagged saturated, winners
    never shrink a block, every delta is finite and >= 0, and each equals
    `rescore(config)` (a fresh `anchor_discrepancy`) to SCORE_TOL.
    """
    errors = []
    budgets = plan.budgets(arch)
    if len(steps) != len(budgets):
        errors.append(f"{len(steps)} ladder steps for {len(budgets)} budgets")
    full = arch.full_config().flops
    prev = arch.smallest_config().widths
    for step, ratio in zip(steps, budgets):
        lo = ratio * full * (1 - plan.tolerance)
        hi = min(ratio * full * (1 + plan.tolerance), full)
        if not step.saturated and not lo <= step.config.flops <= hi:
            errors.append(f"winner {step.config} ({step.config.flops:.0f} FLOPs) outside "
                          f"band [{lo:.0f}, {hi:.0f}] at ratio {ratio:.4f}")
        if any(w < p for w, p in zip(step.config.widths, prev)):
            errors.append(f"winner {step.config} shrinks a block of {prev}")
        prev = step.config.widths
        errors += check_score(step.delta)
        again = rescore(step.config)
        if not abs(again - step.delta) <= SCORE_TOL:
            errors.append(f"winner {step.config} delta {step.delta!r} != rescored {again!r}")
    return errors


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def _finite_cells(rows, cols, what) -> list[str]:
    errors = []
    for i, row in enumerate(rows):
        for c in cols:
            try:
                ok = math.isfinite(float(row[c]))
            except (ValueError, IndexError):
                ok = False
            if not ok:
                errors.append(f"{what} row {i} column {c} is not a finite number: {row}")
    return errors


def _unit_interval(rows, col, what) -> list[str]:
    return [f"{what} row {i} accuracy {row[col]} outside [0, 1]"
            for i, row in enumerate(rows) if not 0.0 <= float(row[col]) <= 1.0]


def check_metrics_csv(out_dir: Path, epochs: int) -> list[str]:
    header, rows = _read_csv(Path(out_dir) / "metrics.csv")
    errors = [] if header == METRICS_HEADER else [f"metrics.csv header {header!r}"]
    if len(rows) != epochs:
        errors.append(f"metrics.csv has {len(rows)} rows, expected {epochs}")
    return errors


def check_correlate(out_dir: Path, bands: int, n: int) -> list[str]:
    """`correlate --n n`: n scatter rows per band, one summary row per band."""
    out_dir = Path(out_dir)
    header, rows = _read_csv(out_dir / "correlate_scatter.csv")
    errors = [] if header == SCATTER_HEADER else [f"correlate_scatter.csv header {header!r}"]
    if len(rows) != bands * n:
        errors.append(f"correlate_scatter.csv has {len(rows)} rows, expected {bands} x {n}")
    errors += _finite_cells(rows, (0, 1, 2), "correlate_scatter.csv")
    if not errors:
        errors += [f"correlate_scatter.csv row {i} delta {row[1]} < 0"
                   for i, row in enumerate(rows) if float(row[1]) < 0]
        errors += _unit_interval(rows, 2, "correlate_scatter.csv")
    header, rows = _read_csv(out_dir / "correlate_summary.csv")
    if header != SUMMARY_HEADER:
        errors.append(f"correlate_summary.csv header {header!r}")
    if len(rows) != bands:
        errors.append(f"correlate_summary.csv has {len(rows)} rows, expected {bands}")
    errors += _finite_cells(rows, (0,), "correlate_summary.csv")
    # An empty pearson/spearman cell reports a band whose correlation is
    # undefined (zero variance); anything else must be a correlation.
    for i, row in enumerate(rows):
        cells = row[1:3] if len(row) == 4 else []
        if len(row) != 4 or row[3] != str(n):
            errors.append(f"correlate_summary.csv row {i} is not budget,pearson,spearman,{n}")
        errors += [f"correlate_summary.csv row {i} correlation {c!r} not in [-1, 1]"
                   for c in cells if c != "" and not _is_correlation(c)]
    return errors


def _is_correlation(cell: str) -> bool:
    try:
        return -1.0 <= float(cell) <= 1.0
    except ValueError:
        return False


def check_search(out_dir: Path, rungs: int) -> list[str]:
    """`search --reveal-labels`: one row per rung, with an accuracy column."""
    header, rows = _read_csv(Path(out_dir) / "search.csv")
    errors = [] if header == SEARCH_HEADER else [f"search.csv header {header!r}"]
    if len(rows) != rungs:
        errors.append(f"search.csv has {len(rows)} rows, expected {rungs}")
    errors += _finite_cells(rows, (1, 3, 4, 5), "search.csv")
    if not errors:
        errors += [f"search.csv row {i} delta {row[3]} < 0"
                   for i, row in enumerate(rows) if float(row[3]) < 0]
        errors += _unit_interval(rows, 5, "search.csv")
        widths = [tuple(int(w) for w in row[2].split("|")) for row in rows]
        errors += [f"search.csv row {i} shrinks a block: {a} -> {b}"
                   for i, (a, b) in enumerate(zip(widths, widths[1:]), start=1)
                   if any(y < x for x, y in zip(a, b))]
    return errors
