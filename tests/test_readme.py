"""README's "Library quick start" block runs and prints what its comments say,
and every exported name is one of its "Key entry points" or used in the package."""

from __future__ import annotations

import ast
import contextlib
import io
from pathlib import Path

import matchstab

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_comments():
    code = _quick_start()
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def _key_entry_points() -> set[str]:
    text = README.read_text(encoding="utf-8").split("Key entry points:", 1)[1]
    paragraph = text.split("\n\n", 1)[0]
    # `first_pass_scan(graph, ...)` names first_pass_scan, `matchstab.oracle` oracle
    return {
        ref.split("(", 1)[0].rsplit(".", 1)[-1]
        for ref in paragraph.split("`")[1::2]
    }


def test_every_export_is_an_entry_point_or_used_inside_the_package():
    # an exported name that only the tests call is test-only API in src/
    package = Path(matchstab.__file__).parent
    imported = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update(alias.name for alias in node.names)
    entry_points = _key_entry_points()
    assert {"solve_fractional", "first_pass_scan", "oracle"} <= entry_points
    unused = [name for name in matchstab.__all__ if name not in entry_points | imported]
    assert unused == []
