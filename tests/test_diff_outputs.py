"""tools/diff_outputs.py on a small pair of output trees."""

import io
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import diff_outputs  # noqa: E402


def make_trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.txt").write_text("iters=10 psnr=20.5\n")
        (root / "run" / "mask.mrm").write_bytes(b"\x00\x01")
    (parent / "run" / "bound.csv").write_text("iter,measured,bound\r\n1,0.5,2.0\r\n2,0.25,4.0\r\n")
    (change / "run" / "bound.csv").write_text("iter,measured,bound\r\n1,0.5,2.0\r\n2,0.25,4.004\r\n")
    (parent / "run" / "verify.stdout").write_text(
        "seed 1: pass bound: max violation -1.000e-01\nseed 2: pass bound: max violation -2.0e-01\n")
    (change / "run" / "verify.stdout").write_text(
        "seed 1: pass bound: max violation -1.000e-01\nseed 2: FAIL bound: max violation 3.0e-01\n")
    (parent / "run" / "summary.txt").write_text("psnr=20.0 ratio=1.0e-05\n")
    (change / "run" / "summary.txt").write_text("psnr=20.5 ratio=1.0e-05\n")
    (parent / "run" / "image.mrt").write_bytes(b"\xff\x00")
    (change / "run" / "image.mrt").write_bytes(b"\xff\x01")
    (parent / "run" / "gone.csv").write_text("a\r\n")
    (change / "run" / "new.csv").write_text("a\r\n")
    return parent, change


def test_report_on_a_small_tree(tmp_path):
    parent, change = make_trees(tmp_path)
    out = io.StringIO()
    assert diff_outputs.diff_trees(parent, change, out) is False
    lines = out.getvalue().splitlines()
    assert lines[0] == "identical: 2 of 8 files"
    assert "differs: run/bound.csv max_rel=1.000e-03" in lines
    assert "differs (binary): run/image.mrt" in lines
    assert "differs: run/summary.txt max_rel=2.500e-02" in lines
    assert "differs (structure): run/verify.stdout" in lines
    assert "only in parent: run/gone.csv" in lines
    assert "only in change: run/new.csv" in lines
    assert "verdict differs: run/verify.stdout:2" in lines
    assert lines[-1] == "verdict lines that differ: 1"


def test_identical_trees_exit_0_and_usage_errors_exit_2(tmp_path):
    parent, change = make_trees(tmp_path)
    assert diff_outputs.main([str(parent), str(parent)]) == 0
    assert diff_outputs.main([str(parent), str(change)]) == 1
    assert diff_outputs.main([str(parent)]) == 2
    assert diff_outputs.main([str(parent), str(tmp_path / "missing")]) == 2


def test_layout_change_is_structural(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    parent.mkdir()
    change.mkdir()
    (parent / "t.csv").write_text("a,b\r\n1,2\r\n")
    (change / "t.csv").write_text("a,b\r\n1,2,3\r\n")
    (parent / "s.txt").write_text("pass at 1\n")
    (change / "s.txt").write_text("pass near 1\n")
    out = io.StringIO()
    diff_outputs.diff_trees(parent, change, out)
    assert "differs (structure): t.csv" in out.getvalue()
    assert "differs (structure): s.txt" in out.getvalue()
    assert out.getvalue().endswith("verdict lines that differ: 0\n")


def test_resolved_config_ignores_only_its_out_line(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    configs = {  # run: (parent text, change text)
        "moved": ("seed = 7\nout = runs/p\n", "seed = 7\nout = runs/c\n"),
        "reseeded": ("seed = 7\nout = x\n", "seed = 9\nout = x\n"),
        "renamed": ("kind = a\nout = x\n", "kind = b\nout = y\n"),
    }
    for run, texts in configs.items():
        for root, text in zip((parent, change), texts):
            (root / run).mkdir(parents=True)
            (root / run / "config_resolved.cfg").write_text(text)
    (parent / "moved" / "notes.txt").write_text("out = runs/p\n")
    (change / "moved" / "notes.txt").write_text("out = runs/c\n")
    out = io.StringIO()
    assert diff_outputs.diff_trees(parent, change, out) is False
    assert out.getvalue().splitlines() == [
        "identical: 1 of 4 files",
        "differs (structure): moved/notes.txt",
        "differs (structure): renamed/config_resolved.cfg",
        "differs: reseeded/config_resolved.cfg max_rel=2.857e-01",
        "verdict lines that differ: 0",
    ]


def test_relative_change():
    assert diff_outputs.relative_change(1.0, 1.0) == 0.0
    assert diff_outputs.relative_change(float("nan"), float("nan")) == 0.0
    assert diff_outputs.relative_change(float("inf"), float("inf")) == 0.0
    assert diff_outputs.relative_change(0.5, 0.25) == 0.25
    assert diff_outputs.relative_change(30.0, 20.0) == 0.5
    assert diff_outputs.relative_change(float("inf"), 1.0) == float("inf")
    assert diff_outputs.relative_change(float("nan"), 1.0) == float("inf")
