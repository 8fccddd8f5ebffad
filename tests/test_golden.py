"""The pipeline against its committed golden record (`golden_record.py`).

A change that moves any pinned outcome fails here: chosen widths, skipped
rungs, CSV headers, row counts and non-decimal cells exactly, floats
within the record's stated tolerance.
"""

import json
import math
import re

import pytest

import golden_record

DECIMAL = re.compile(r"-?\d+\.(\d+)")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    want = json.loads(golden_record.RECORD.read_text(encoding="utf-8"))
    got = golden_record.compute(tmp_path_factory.mktemp("golden"))
    return json.loads(json.dumps(got)), want  # the same JSON types on both sides


def _close(got: float, want: float, tol: dict) -> bool:
    return math.isclose(got, want, rel_tol=tol["rel"], abs_tol=tol["abs"])


def _printed_close(got: str, want: str, tol: dict) -> bool:
    """Two cells printed with the same number of decimals: within `tol`, or
    at most `printed_last_digits` units apart in their last digit."""
    g, w = DECIMAL.fullmatch(got), DECIMAL.fullmatch(want)
    if not (g and w and len(g.group(1)) == len(w.group(1))):
        return False
    units = abs(int(got.replace(".", "")) - int(want.replace(".", "")))
    return units <= tol["printed_last_digits"] or _close(float(got), float(want), tol)


def _mismatches(got, want, tol, path="") -> list[str]:
    """Where `got` differs from `want`: containers by structure, floats
    within `tol`, printed decimals within their last digit, the rest exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], tol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {len(got) if isinstance(got, list) else got!r} items "
                    f"!= {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, tol, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want, tol) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, str) and isinstance(got, str) and _printed_close(got, want, tol):
        return []
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("part", ["cli", "steps", "ladder"])
def test_matches_golden_record(records, part):
    got, want = records
    assert got["tolerance"] == want["tolerance"]
    assert _mismatches(got[part], want[part], want["tolerance"], part) == []


def test_record_pins_what_it_claims():
    """The committed record holds the pipeline's discrete outcomes."""
    want = json.loads(golden_record.RECORD.read_text(encoding="utf-8"))
    cli = want["cli"]
    assert all(entry["exit"] == 0 for entry in cli.values())
    assert cli["search-labels"]["files"]["search.csv"]["header"].endswith(",accuracy")
    assert len(cli["train"]["files"]["metrics.csv"]["rows"]) == \
        golden_record.CLI_CONFIG["trainer"]["epochs"]
    assert {mode: len(r["metrics"]) for mode, r in want["steps"].items()} == \
        dict.fromkeys(("slimda", "baseline", "inplaced"), golden_record.STEPS_PER_MODE)
    assert want["ladder"]["rungs"] and all(len(r["widths"]) == 4 for r in want["ladder"]["rungs"])


def test_comparison_flags_moved_outcomes():
    tol = {"rel": 1e-6, "abs": 1e-12, "printed_last_digits": 1}
    assert _mismatches({"w": [8, 16], "d": 0.5}, {"w": [8, 16], "d": 0.5 + 1e-9}, tol) == []
    assert _mismatches({"w": [8, 17]}, {"w": [8, 16]}, tol)
    assert _mismatches([1, 2], [1, 2, 3], tol)
    assert _mismatches(["0.1235"], ["0.1234"], tol) == []  # one unit in the last digit
    assert _mismatches(["0.1236"], ["0.1234"], tol)
    assert _mismatches(["8|16|32|64"], ["8|16|32|63"], tol)
    assert _mismatches(["3"], ["2"], tol)
    assert _mismatches(0.5, 0.6, tol)
    assert _mismatches(True, 1, tol)
