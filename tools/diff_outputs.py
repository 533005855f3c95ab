"""Compare two output trees of sdred runs, file by file.

    python tools/diff_outputs.py PARENT_DIR CHANGE_DIR

Files are paired by their path relative to each directory.  The report
gives the number of byte-identical files, then one line per file that
differs: for CSV files the largest |a - b| / max(1, |b|) over numeric
cells (b from PARENT_DIR), for other text files the same over the numbers
in the text, and for binary files only that they differ.  A CSV or text
file whose non-numeric content differs is reported as a structural
difference.  Verdict lines (a line holding the word ``pass`` or ``FAIL``)
are compared word for word, and every pair whose verdict words differ is
listed.  In ``config_resolved.cfg`` the echoed ``out = <dir>`` line names
the output directory itself and is left out of the comparison.

Exit status: 0 when every file is byte-identical (a resolved config apart
from its ``out`` line), 1 when anything differs, 2 on a usage error.  Only
the standard library is used.
"""

import csv
import io
import math
import re
import sys
from pathlib import Path

# A decimal or scientific number, or a special float value as repr writes it.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|inf|nan)")
_VERDICT = re.compile(r"\b(pass|FAIL)\b")
# The echoed output directory in a resolved config.
_OUT_LINE = re.compile(rb"^out = .*(?:\r?\n|$)", re.MULTILINE)


def relative_change(a, b):
    """|a - b| / max(1, |b|), with 0 for equal values (infinities and NaN included)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b) / max(1.0, abs(b))
    return math.inf if math.isnan(diff) else diff


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(parent_text, change_text):
    """Largest relative change over numeric cells, or None if the layout differs."""
    rows_a = list(csv.reader(io.StringIO(change_text)))
    rows_b = list(csv.reader(io.StringIO(parent_text)))
    if len(rows_a) != len(rows_b):
        return None
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            return None
        for cell_a, cell_b in zip(row_a, row_b):
            a, b = _as_float(cell_a), _as_float(cell_b)
            if a is None or b is None:
                if cell_a != cell_b:
                    return None
                continue
            worst = max(worst, relative_change(a, b))
    return worst


def compare_text(parent_text, change_text):
    """Largest relative change over the numbers in a text, or None if the words differ."""
    if _NUMBER.split(parent_text) != _NUMBER.split(change_text):
        return None
    worst = 0.0
    for cell_a, cell_b in zip(_NUMBER.findall(change_text), _NUMBER.findall(parent_text)):
        worst = max(worst, relative_change(float(cell_a), float(cell_b)))
    return worst


def verdict_changes(parent_text, change_text):
    """(line number, parent line, change line) for each line whose verdict words differ."""
    lines_b = parent_text.splitlines()
    lines_a = change_text.splitlines()
    changes = []
    for number in range(max(len(lines_a), len(lines_b))):
        line_a = lines_a[number] if number < len(lines_a) else ""
        line_b = lines_b[number] if number < len(lines_b) else ""
        if _VERDICT.findall(line_a) != _VERDICT.findall(line_b):
            changes.append((number + 1, line_b, line_a))
    return changes


def _read(root, name):
    """The bytes of a file, without the ``out`` line of a resolved config."""
    raw = (root / name).read_bytes()
    return _OUT_LINE.sub(b"", raw) if Path(name).name == "config_resolved.cfg" else raw


def _files(root):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def diff_trees(parent_dir, change_dir, out=sys.stdout):
    """Write the comparison report to ``out``; return True if every file is identical."""
    parent_dir, change_dir = Path(parent_dir), Path(change_dir)
    parent_files, change_files = _files(parent_dir), _files(change_dir)
    common = sorted(parent_files & change_files)
    identical = 0
    lines = []
    verdicts = []
    for name in common:
        raw_b, raw_a = _read(parent_dir, name), _read(change_dir, name)
        if raw_a == raw_b:
            identical += 1
            continue
        try:
            text_b, text_a = raw_b.decode(), raw_a.decode()
        except UnicodeDecodeError:
            lines.append(f"differs (binary): {name}")
            continue
        worst = (compare_csv if name.endswith(".csv") else compare_text)(text_b, text_a)
        if worst is None:
            lines.append(f"differs (structure): {name}")
        else:
            lines.append(f"differs: {name} max_rel={worst:.3e}")
        verdicts += [(name, *change) for change in verdict_changes(text_b, text_a)]
    lines += [f"only in parent: {name}" for name in sorted(parent_files - change_files)]
    lines += [f"only in change: {name}" for name in sorted(change_files - parent_files)]
    print(f"identical: {identical} of {len(parent_files | change_files)} files", file=out)
    for line in lines:
        print(line, file=out)
    for name, number, line_b, line_a in verdicts:
        print(f"verdict differs: {name}:{number}\n  parent: {line_b}\n  change: {line_a}",
              file=out)
    print(f"verdict lines that differ: {len(verdicts)}", file=out)
    return not lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(a).is_dir() for a in argv):
        print("usage: python tools/diff_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    return 0 if diff_trees(*argv) else 1


if __name__ == "__main__":
    sys.exit(main())
