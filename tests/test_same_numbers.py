"""`same_numbers.py --compare`: the gate of the same-numbers CI job.  It
matches two outputs by name and fails on a changed common line that
`MOVED` does not declare, or on a `MOVED` name whose line did not change."""

import os
from unittest import mock

import pytest

with mock.patch.dict(os.environ):  # the script pins BLAS threads for its own runs only
    import same_numbers

BASE = {"params.slimda": "a1", "ladder.seed1": "b1", "cli.seed1.eval.eval.csv": "c1"}


def test_the_same_lines_pass():
    report, ok = same_numbers.compare(BASE, dict(BASE), moved=())
    assert ok and report == ["3 common lines, 0 changed (0 declared in MOVED)"]


def test_a_changed_line_fails_unless_moved_declares_it():
    head = dict(BASE, **{"ladder.seed1": "b2"})
    report, ok = same_numbers.compare(BASE, head, moved=())
    assert not ok and "changed  ladder.seed1  (not in MOVED)" in report
    report, ok = same_numbers.compare(BASE, head, moved=("ladder.seed1",))
    assert ok and "changed  ladder.seed1" in report


@pytest.mark.parametrize("moved", [("ladder.seed1",), ("ladder.seed9",)], ids=["same", "absent"])
def test_a_moved_name_whose_line_did_not_change_fails(moved):
    report, ok = same_numbers.compare(BASE, dict(BASE), moved=moved)
    assert not ok and report[-1].startswith(f"unmoved  {moved[0]}")


def test_added_and_removed_names_are_reported_apart_and_pass():
    head = {"params.slimda": "a1", "ladder.seed1": "b1", "random.seed1": "d1"}
    report, ok = same_numbers.compare(BASE, head, moved=())
    assert ok
    assert report[1:] == ["added    random.seed1", "removed  cli.seed1.eval.eval.csv"]


def test_compare_reads_two_files(tmp_path, capsys):
    base, head = tmp_path / "base.txt", tmp_path / "head.txt"
    base.write_text("".join(f"{name} {digest}\n" for name, digest in BASE.items()))
    head.write_text(base.read_text().replace("b1", "b2"))
    assert same_numbers.main(["--compare", str(base), str(base)]) == 0
    assert same_numbers.main(["--compare", str(base), str(head)]) == 1
    assert "changed  ladder.seed1  (not in MOVED)" in capsys.readouterr().out
