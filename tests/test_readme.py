"""The README's library example runs, and the package exports what it names."""

import re
from pathlib import Path

import descregions

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    exec(compile(_library_block(), str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in descregions.__all__ if not hasattr(descregions, name)]
    assert missing == []


def test_the_readme_lists_every_export():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("The package root exports ", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([A-Za-z_]+)`", paragraph.split("Faces and restrictions", 1)[0]))
    assert named == set(descregions.__all__)
