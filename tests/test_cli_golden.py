"""Byte-for-byte CLI output on a fixed command list.

`golden_cli.json` holds, for each command, the argv and the stdout, stderr,
exit code and `--out` file contents that the CLI produced before it was
rebuilt around its command tables.  It is the invariant that makes deleting
CLI code safe, so it is compared as captured and never regenerated as a
whole: a change that moves the float noise digits of an arc quadrature
re-records exactly the cases that moved and lists each moved field.  In an
argv, `{tmp}` stands for a fresh temporary directory, and it replaces that
directory's path in the captured text.
"""

import json
from pathlib import Path

import pytest

from circleforge.cli import ARC_OPS, COMMANDS, MOMENTS, main

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CIRCLEFORGE_CACHE", raising=False)
    tmp = str(tmp_path)
    code = main([arg.replace("{tmp}", tmp) for arg in case["argv"]])
    captured = capsys.readouterr()
    files = {
        p.name: p.read_bytes().decode() for p in sorted(tmp_path.iterdir()) if p.is_file()
    }
    assert code == case["code"]
    assert captured.out.replace(tmp, "{tmp}") == case["out"]
    assert captured.err.replace(tmp, "{tmp}") == case["err"]
    assert files == case["files"]


def test_golden_covers_every_handler():
    # each subcommand, --op and --moment prints through a handler of its own,
    # and only an exit-0 golden case in each format guards that handler's bytes
    covered = set()
    for argv in (case["argv"] for case in GOLDEN if case["code"] == 0):
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        names = [argv[0]] + [f"{flag} {argv[argv.index(flag) + 1]}"
                             for flag in ("--op", "--moment") if flag in argv]
        covered |= {(name, fmt) for name in names}
    names = [*COMMANDS, *(f"--op {op}" for op in ARC_OPS),
             *(f"--moment {moment}" for moment in MOMENTS)]
    assert {(name, fmt) for name in names for fmt in ("json", "csv")} - covered == set()
