"""Checks that hold for every line of the package source, and for the README that states its contract."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import fedval

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "fedval"
README = ROOT / "README.md"
MAX_LINE = 110
MAX_README_LINES = 400


def test_no_source_line_is_longer_than_the_limit():
    too_long = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in sorted(SOURCE.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert too_long == []


def test_readme_stays_under_its_line_limit():
    # the contract; how the fast paths work goes to NOTES.md
    assert len(README.read_text(encoding="utf-8").splitlines()) < MAX_README_LINES


def _readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(_readme_python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_readme_python_blocks())))
def test_readme_python_block_runs_as_written(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_readme_python_blocks()[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out != ""


def _api_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Python API\n")
    return text[start : text.index("\n## ", start + 1)]


def test_readme_api_section_names_every_public_name():
    api = _api_section()
    assert [name for name in fedval.__all__ if not re.search(rf"`(\w+\.)*{name}\b", api)] == []


def _private_names():
    """Every `_`-prefixed, non-dunder name bound in a fedval module or on a class it defines."""
    names = set()
    for info in pkgutil.iter_modules(fedval.__path__):
        module = importlib.import_module(f"fedval.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") and not name.startswith("__"):
                names.add(name)
            if inspect.isclass(value) and value.__module__.startswith("fedval"):
                names.update(a for a in vars(value) if a.startswith("_") and not a.startswith("__"))
    return names


def test_readme_names_no_private_helper():
    text = README.read_text(encoding="utf-8")
    assert "_reuse_last" in _private_names() and "_adopt" in _private_names()
    assert sorted(name for name in _private_names() if re.search(rf"(?<!\w){name}\b", text)) == []
