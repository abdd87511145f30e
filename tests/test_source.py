"""Checks that hold for every line of the package source."""

from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fedval"
MAX_LINE = 110


def test_no_source_line_is_longer_than_the_limit():
    too_long = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in sorted(SOURCE.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert too_long == []
