"""Every printed document is json's own text of its value, byte for byte,
and a CLI call leaves no garbage for the cyclic collector.

`certify`'s text writers render the vertex lists and large fields (vertex
sets, x, matchings, odd cycles and edge sets, covers, events and
diagnostics) as JSON text, a `certify.Fragment`, and `certify.render`, the
one writer of a document's text, places each fragment at its depth in the
document; a batch line is the compact re-encoding of that indented text.
No dict of the whole document is ever built, so each test here reads the
printed text back and holds it to the bytes json gives for the value it
reads:

- a single-file document, like every `verify` report, is
  `json.dumps(json.loads(out), indent=2)` and a newline;
- a batch line is `json.dumps(json.loads(line), separators=(",", ":"))`
  and a newline, and it is the compact text of the single-file document of
  its instance.

The golden tables pin the single-file bytes, so the batch lines are pinned
with them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchstab
from conftest import bench_families
from matchstab import cli
from matchstab.certify import render
from matchstab.cli import ORACLE_SUBCOMMANDS, RUN_COMMANDS
from test_golden import _instance_path
from test_instance_cli import FORGED_CLAIMS, _instance

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _printed(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code and stdout, one single-file document or
    none, after checking that the document is json's indented text of the
    value it reads back as."""
    code, out = _main(argv)
    if out:
        assert out == _dumps(json.loads(out))
    return code, out


def _verify_printed(tmp_path, instance, text: str) -> str:
    """The `verify` report on the result document `text`, checked as
    `_printed` checks a document."""
    result = tmp_path / "result.json"
    result.write_text(text, encoding="utf-8")
    return _printed(["verify", str(instance), "--result", str(result)])[1]


def _batch_lines(argv: list[str]) -> list[str]:
    """The lines main(argv) prints, each checked to be json's compact text
    of the value it reads back as."""
    lines = [line + "\n" for line in _main(argv)[1].split("\n")[:-1]]
    for line in lines:
        assert line == _compact(json.loads(line))
    return lines


def _assert_batch_prints_the_singles(head: list[str], singles: dict) -> None:
    """A batch of `head` on the instance files of `singles`, in its order,
    prints the compact text of each one's single-file document. One file
    alone is named twice, since a single file prints its document indented."""
    paths = list(singles) * (2 if len(singles) == 1 else 1)
    lines = _batch_lines([*head, *map(str, paths)])
    assert lines == [_compact(json.loads(singles[path])) for path in paths]


@pytest.mark.parametrize("golden", ["fixtures", "lp_suite"])
def test_every_golden_document_its_report_and_its_batch_line_print_as_json_does(
    tmp_path, golden
):
    table = json.loads((ROOT / "tests" / "golden" / f"{golden}.json").read_text(encoding="utf-8"))
    batches: dict[str, dict] = {}
    for case, row in table.items():
        if not row["stdout"]:  # an input error prints no document
            continue
        doc = json.loads(row["stdout"])
        assert render(doc) == _dumps(doc) == row["stdout"]
        assert render(doc, compact=True) == _compact(doc)
        command, name = case.split(" ", 1)
        instance = _instance_path(f"{golden}.json", name, tmp_path)
        _verify_printed(tmp_path, instance, row["stdout"])
        batches.setdefault(command, {})[instance] = row["stdout"]
    assert sum(map(len, batches.values())) > 30
    for command, singles in batches.items():
        _assert_batch_prints_the_singles([command], singles)


@pytest.mark.parametrize("row", range(len(FORGED_CLAIMS)))
def test_every_forged_document_and_its_report_print_as_json_does(tmp_path, row):
    command, fixture, edit, _failing = FORGED_CLAIMS[row]
    instance = _instance(tmp_path, fixture)
    _code, out = _printed([command, str(instance)])
    doc = json.loads(out)
    edit(doc)
    assert render(doc) == _dumps(doc)
    _verify_printed(tmp_path, instance, json.dumps(doc))


@pytest.mark.parametrize("sub", ORACLE_SUBCOMMANDS)
def test_every_oracle_document_and_batch_line_print_as_json_does(sub):
    singles = {}
    for name in FIXTURES:
        path = ROOT / "fixtures" / f"{name}.json"
        code, out = _printed(["oracle", sub, str(path)])
        if code == 0:  # min-m-stabilizer refuses a fixture without a matching
            singles[path] = out
    assert len(singles) >= (1 if sub == "min-m-stabilizer" else len(FIXTURES))
    _assert_batch_prints_the_singles(["oracle", sub], singles)


@pytest.mark.parametrize("workload", ["tri-chain", "dense-lp", "mstab-sparse", "desk-batch"])
def test_one_bench_round_its_reports_and_batch_lines_print_as_json_does(
    tmp_path, monkeypatch, workload
):
    families = bench_families(monkeypatch)
    batches: dict[str, dict] = {}
    for i, inst in enumerate(families.Generator(workload, 1).round()):
        instance = tmp_path / f"{i}.json"
        instance.write_text(inst.to_json(), encoding="utf-8")
        for command in families.COMMANDS[workload]:
            _code, out = _printed([command, str(instance)])
            _verify_printed(tmp_path, instance, out)
            batches.setdefault(command, {})[instance] = out
    for command, singles in batches.items():
        _assert_batch_prints_the_singles([command], singles)


EDGE_CASES = {
    "empty dict": {},
    "empty list": [],
    "empty containers": {"outputs": {}, "certificates": {}, "S": [], "F": [[]], "x": [{}, []]},
    "null": {
        "outputs": {"S": ["a"], "gamma": 1, "nu_before": None, "nu_after": "2"},
        "certificates": {"diagnostics": [{"reason": "flower", "vertex": "a", "other": None}]},
    },
    "flags": {"verified": False, "checks": [{"name": "a", "ok": True}, {"name": "b", "ok": False}]},
    "counts": {"gamma": 0, "size": 12345678901234567890, "lower_bound": -1, "F": [["a", "b"]]},
    "timing last": {"command": "gamma", "outputs": {"gamma": 2}, "certificates": {},
                    "timing_seconds": 0.0012345678901234567},
    "small timing": {"outputs": {"stable": True}, "timing_seconds": 1e-05},
    "nested": {"a": [[["b", 1, None, True, {"c": [{}]}]]]},
}


@pytest.mark.parametrize("doc", EDGE_CASES.values(), ids=EDGE_CASES)
def test_the_writer_prints_each_edge_case(doc):
    assert (render(doc), render(doc, compact=True)) == (_dumps(doc), _compact(doc))


def _timed(doc: dict) -> bool:
    return list(doc)[-1] == "timing_seconds" and type(doc["timing_seconds"]) is float


@pytest.mark.parametrize("command", [*RUN_COMMANDS, "verify"])
def test_a_timed_document_and_batch_line_end_with_the_timing(tmp_path, command):
    instance = ROOT / "fixtures" / "fig9m.json"
    if command == "verify":
        _code, out = _main(["gamma", str(instance)])
        result = tmp_path / "result.json"
        result.write_text(out, encoding="utf-8")
        argv = ["--timing", "verify", str(instance), "--result", str(result)]
    else:
        argv = ["--timing", command, str(instance)]
        # the timing of each line of a batch, printed as json prints the float
        lines = _batch_lines([*argv, str(instance)])
        untimed = json.loads(_main([command, str(instance)])[1])
        for line in lines:
            doc = json.loads(line)
            assert _timed(doc) and {**untimed, "timing_seconds": doc["timing_seconds"]} == doc
        assert len(lines) == 2
    _code, out = _printed(argv)
    assert _timed(json.loads(out))


# every character class json escapes or passes through: quotes, a
# backslash, Latin-1, a non-BMP emoji (a surrogate pair), control
# characters, U+2028, a space, a slash and the empty label
ODD_LABELS = ['"q"', "\\", "é", "\U0001F600", "\n", "\t", "\u0001", "\u2028", " ", "a/b", ""]
# a weight-4 triangle with a pendant edge (x = 1/2 on it, as on fig9), a
# weight-2 triangle and a path; M leaves "q", the emoji and the controls exposed
ODD_EDGES = [(0, 1, 4), (0, 2, 4), (1, 2, 4), (2, 3, 1), (3, 4, 1), (4, 5, 2), (5, 6, 2),
             (4, 6, 2), (6, 7, 1), (7, 8, 3), (8, 9, 1), (9, 10, 2)]
ODD_INSTANCE = {
    "vertices": ODD_LABELS,
    "edges": [{"u": ODD_LABELS[u], "v": ODD_LABELS[v], "w": str(w)} for u, v, w in ODD_EDGES],
    "matching": [[ODD_LABELS[u], ODD_LABELS[v]] for u, v in ((1, 2), (7, 8), (9, 10))],
}

_RUN_EACH = r"""
import contextlib
import io
import json
import sys

from matchstab.cli import main

instance, workdir, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
runs = []
for command in commands:
    result = f"{workdir}/{command}"
    for argv in ([command, instance], ["verify", instance, "--result", result]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        runs.append([code, out.getvalue()])
        if argv[0] == command:
            with open(result, "w", encoding="utf-8") as f:
                f.write(out.getvalue())
print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
"""


def test_odd_labels_print_as_json_writes_them_and_verify(tmp_path):
    instance = tmp_path / "odd.json"
    instance.write_text(json.dumps(ODD_INSTANCE, ensure_ascii=False), encoding="utf-8")
    runs = []
    for command in RUN_COMMANDS:
        code, out = _printed([command, str(instance)])
        assert code in (0, 2)
        runs.append([code, out])
        (tmp_path / command).write_text(out, encoding="utf-8")
        code, report = _printed(["verify", str(instance), "--result", str(tmp_path / command)])
        assert (code, json.loads(report)["verified"]) == (0, True), report
        runs.append([code, report])
        # a batch line of odd labels, and one after it
        fig9m = ROOT / "fixtures" / "fig9m.json"
        singles = {instance: out, fig9m: _main([command, str(fig9m)])[1]}
        _assert_batch_prints_the_singles([command], singles)
    printed = "".join(out for _code, out in runs)
    for label in ODD_LABELS[:-1]:
        assert json.dumps(label) in printed  # every label appears in some document
    # the same bytes from every call under python -O, in one subprocess
    workdir = tmp_path / "optimized"
    workdir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_EACH, str(instance), str(workdir), json.dumps(RUN_COMMANDS)],
        capture_output=True,
        text=True,
        env=dict(
            os.environ, PYTHONOPTIMIZE="1", PYTHONPATH=str(Path(matchstab.__file__).parents[1])
        ),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"optimize": 1, "runs": runs}


def _no_cyclic_garbage(argv: list[str]) -> tuple[int, str, int]:
    """main(argv)'s exit code and stdout, and the number of objects the
    cyclic collector finds after it, run with the collector disabled."""
    gc.collect()
    gc.disable()
    try:
        code, out = _main(argv)
        return code, out, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", RUN_COMMANDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_a_call_leaves_no_cyclic_garbage(tmp_path, command, name):
    instance = str(ROOT / "fixtures" / f"{name}.json")
    code, out, garbage = _no_cyclic_garbage([command, instance])
    assert garbage == 0
    if not out:
        assert (command, code) == ("m-stabilize", 1)  # a fixture without a matching
        return
    result = tmp_path / "result.json"
    result.write_text(out, encoding="utf-8")
    code, _report, garbage = _no_cyclic_garbage(["verify", instance, "--result", str(result)])
    assert (code, garbage) == (0, 0)
