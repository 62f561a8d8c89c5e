"""``scripts/compare_outputs.py`` on this repository: it finds no difference
between the tree and itself, and lists every output that a changed report
label, error message or flat-reader handover alters."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_outputs.py"


def compare(parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
         "--rounds", "1"],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )


def test_tree_against_itself_is_identical():
    proc = compare(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout
    md5s = [line.split()[2] for line in proc.stdout.splitlines() if " md5 " in line]
    assert len(md5s) == 2 and md5s[0] == md5s[1]


def copy_tree(tmp_path):
    change = tmp_path / "change"
    for part in ("src", "perfbench", "tests/goldens"):
        shutil.copytree(ROOT / part, change / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    return change


def test_changed_report_label_is_found(tmp_path):
    change = copy_tree(tmp_path)
    cli = change / "src" / "frobval" / "cli.py"
    text = cli.read_text()
    assert text.count('("noetherian", report.noetherian)') == 1
    cli.write_text(text.replace('("noetherian", report.noetherian)',
                                '("Noetherian", report.noetherian)'))
    proc = compare(ROOT, change)
    assert proc.returncode == 1
    listed = [line for line in proc.stdout.splitlines() if line.startswith("difference: ")]
    assert listed and "(text)" in proc.stdout
    assert not any(line.endswith("(json)") for line in listed)
    assert f"{len(listed)} of " in proc.stdout


def test_changed_error_message_is_found(tmp_path):
    # no golden, workload or selftest output holds a parse error: only the
    # failing scripts see the reworded message, in both formats
    change = copy_tree(tmp_path)
    lexer = change / "src" / "frobval" / "lexer.py"
    text = lexer.read_text()
    assert text.count(", got {got}") == 1
    lexer.write_text(text.replace(", got {got}", ", but got {got}"))
    proc = compare(ROOT, change)
    assert proc.returncode == 1
    listed = [line for line in proc.stdout.splitlines() if line.startswith("difference: ")]
    assert listed and all(line.startswith("difference: error ") for line in listed)
    assert {line.rsplit(" ", 1)[1] for line in listed} == {"(text)", "(json)"}
    assert f"{len(listed)} of " in proc.stdout


def test_flat_reader_without_a_handover_is_found(tmp_path):
    # a flat reader that reads texts longer than the literal limit itself
    # reads the 1,001-digit literal, which the token reader rejects; no other
    # script holds so long an expression
    change = copy_tree(tmp_path)
    function_field = change / "src" / "frobval" / "function_field.py"
    text = function_field.read_text()
    limit = " or len(text) > LITERAL_DIGIT_LIMIT"
    assert text.count(limit) == 1
    function_field.write_text(text.replace(limit, ""))
    proc = compare(ROOT, change)
    assert proc.returncode == 1
    listed = [line for line in proc.stdout.splitlines() if line.startswith("difference: ")]
    assert listed == ["difference: error long-literal (text)",
                      "difference: error long-literal (json)"], proc.stdout
