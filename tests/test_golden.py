"""Replay every run command on every fixture against stored documents.

`tests/golden/fixtures.json` holds, for each command in `RUN_COMMANDS` and
each `fixtures/*.json`, the exit code and the exact stdout of
`matchstab <command> fixtures/<name>.json`. A change that alters any result
document byte for byte fails here. To regenerate after an intended output
change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from matchstab.cli import RUN_COMMANDS, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "fixtures.json"


def _fixture_names() -> list[str]:
    return sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))


def _run(command: str, name: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, f"fixtures/{name}"])
    return {"exit_code": code, "stdout": out.getvalue()}


def _cases() -> list[tuple[str, str]]:
    return [(c, name) for c in RUN_COMMANDS for name in _fixture_names()]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(f"{c} {name}" for c, name in _cases())


@pytest.mark.parametrize("command,name", _cases())
def test_fixture_document_is_unchanged(command, name, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _run(command, name) == golden[f"{command} {name}"]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    table = {f"{c} {name}": _run(c, name) for c, name in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
