from __future__ import annotations

import ast
import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

import matchstab
from conftest import bench_families, count_calls
from matchstab import cli, oracle
from matchstab.cli import main
from matchstab.errors import MatchstabError, ParseError
from matchstab.graph import Matching
from matchstab.instance import parse_instance

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_fixtures():
    for name in ("fig6", "fig7", "fig8", "fig9", "fig9m"):
        text = (FIXTURES / f"{name}.json").read_text()
        doc = json.loads(text)
        index = {label: i for i, label in enumerate(doc["vertices"])}
        instance = parse_instance(text)
        assert instance.graph.labels == tuple(doc["vertices"])
        assert instance.graph.edges == tuple(
            (*sorted((index[e["u"]], index[e["v"]])), Fraction(e["w"])) for e in doc["edges"]
        )
        pairs = [(index[a], index[b]) for a, b in doc.get("matching", [])]
        assert instance.matching == (Matching.from_pairs(pairs) if "matching" in doc else None)


def test_parse_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_instance("not json")
    with pytest.raises(ParseError):
        parse_instance('{"vertices": ["a", "a"], "edges": []}')
    with pytest.raises(ParseError):
        parse_instance('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": 0.5}]}')
    with pytest.raises(ParseError):
        parse_instance('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "-1"}]}')
    with pytest.raises(ParseError):
        parse_instance(
            '{"vertices": ["a", "b", "c"], "edges": [{"u": "a", "v": "b", "w": "1"}],'
            ' "matching": [["a", "c"]]}'
        )


def _parse_weight_by_fraction(raw: str, where: str) -> Fraction:
    """A weight string parsed through `Fraction(raw)`, which must not see
    an underscore, since it reads digit groups only from Python 3.11."""
    try:
        if "_" in raw:
            raise ValueError(f"{raw!r} has an underscore")
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: cannot parse weight {raw!r}") from exc
    if value < 0:
        raise ParseError(f"{where}: weight {raw!r} is negative")
    return value


@pytest.mark.parametrize(
    "raw",
    ["0", "007", "12", " 7", "+7", "-0", "-1", "1_000", "\u0663", "3/4", "0.5", "1e3", "",
     pytest.param("9" * 5000, id="5000 digits")],
)
def test_weight_strings_parse_as_fraction_parses_them(raw):
    # `parse_instance` reads ASCII digits with `int`: the value, not its
    # type, must be the one `Fraction(raw)` gives
    doc = json.dumps({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": raw}]})

    def outcome(parse):
        try:
            value = parse()
        except ParseError as exc:
            return "ParseError", str(exc)
        return "value", value

    assert outcome(lambda: parse_instance(doc).graph.edges[0][2]) == outcome(
        lambda: _parse_weight_by_fraction(raw, "edges[0]")
    )


def _cli_in_subprocess(*args) -> subprocess.CompletedProcess:
    """`python -m matchstab` with `args`, stopped after 10 s, so that a hang
    fails the test instead of stalling the suite."""
    return subprocess.run(
        [sys.executable, "-m", "matchstab", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(matchstab.__file__).parents[1])),
        timeout=10,
    )


def test_importing_the_cli_generates_no_dataclass():
    # a run command pays for the import: the value classes and records are
    # plain classes and NamedTuples, so `dataclasses` is never loaded
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import matchstab.cli, sys; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(matchstab.__file__).parents[1])),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = ast.literal_eval(proc.stdout)
    assert "matchstab.cli" in loaded and "dataclasses" not in loaded


def test_importing_the_cli_loads_no_pathlib():
    # the instance and --result files are read with `open`
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import matchstab.cli, sys; print('pathlib' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(matchstab.__file__).parents[1])),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("weight", ["1e999999999", "1e-999999999", "1e5000"])
def test_a_weight_whose_exponent_is_too_large_is_refused(tmp_path, weight):
    # `Fraction` alone would expand 10**999999999, and 10**5000 parses but
    # has more digits than an int may print; the refusal takes under 10 s
    instance = tmp_path / "huge.json"
    edges = [{"u": "a", "v": "b", "w": weight}]
    instance.write_text(json.dumps({"vertices": ["a", "b"], "edges": edges}), encoding="utf-8")
    proc = _cli_in_subprocess("gamma", str(instance))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"matchstab: error: {instance}: edges[0]: cannot parse weight {weight!r}\n"
    )


def test_a_loop_or_a_parallel_edge_is_named_by_its_labels(tmp_path, capsys):
    # the instance file names its vertices only by label: c-c is no "loop at
    # vertex 2", and b-c beside c-b no "parallel edge (1,2)"
    instance = tmp_path / "bad.json"
    for ends, message in (
        ([("c", "c")], "loop at vertex c not allowed"),
        ([("b", "c"), ("c", "b")], "parallel edge (b,c)"),
    ):
        edges = [{"u": u, "v": v, "w": "1"} for u, v in ends]
        instance.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": edges}))
        assert _run(capsys, "gamma", str(instance)) == (
            1, "", f"matchstab: error: {instance}: {message}\n"
        )


def test_a_document_value_whose_exponent_is_too_large_is_malformed(tmp_path, capsys):
    instance = str(FIXTURES / "fig9.json")
    doc = json.loads(_run(capsys, "solve-fractional", instance)[1])
    doc["outputs"]["nu_f"] = "1e999999999"
    proc = _cli_in_subprocess("verify", instance, "--result", str(_write(tmp_path, doc)))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("matchstab: error: malformed result document: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("weights", [["9" * 4300] * 2, ["1e4300"]], ids=["nines", "1e4300"])
def test_a_printed_value_of_more_than_4300_digits_is_an_input_error(tmp_path, weights):
    # nu_f is 2 * (10**4300 - 1), or 10**4300: 4301 digits, one more than an
    # int may print
    labels = ["a", "b", "c", "d"][: 2 * len(weights)]
    edges = [{"u": labels[2 * i], "v": labels[2 * i + 1], "w": w} for i, w in enumerate(weights)]
    instance = tmp_path / "long.json"
    instance.write_text(json.dumps({"vertices": labels, "edges": edges}), encoding="utf-8")
    proc = _cli_in_subprocess("solve-fractional", str(instance))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "matchstab: error: an exact value has more than 4300 digits, too many to print\n"
    )


# JSON that Python's decoder refuses: nesting past its recursion limit, and
# an integer literal past its int digit limit
_UNDECODABLE = {
    "nested": "[" * 200000 + "]" * 200000,
    "long": '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": ' + "9" * 5000 + "}]}",
}


@pytest.mark.parametrize("text", _UNDECODABLE.values(), ids=_UNDECODABLE)
@pytest.mark.parametrize("role", ["instance", "result"])
def test_json_the_decoder_refuses_is_an_input_error(tmp_path, role, text):
    path = tmp_path / "undecodable.json"
    path.write_text(text, encoding="utf-8")
    if role == "instance":
        proc = _cli_in_subprocess("gamma", str(path))
    else:
        proc = _cli_in_subprocess("verify", str(FIXTURES / "fig8.json"), "--result", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("matchstab: error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_gamma_command(capsys):
    code, out, _err = _run(capsys, "gamma", str(FIXTURES / "fig6.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"] == {"gamma": 2}


def test_stabilize_vertices_command(capsys):
    code, out, _err = _run(capsys, "stabilize-vertices", str(FIXTURES / "fig9.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["S"] == ["p"]
    assert doc["outputs"]["nu_before"] == "5"
    assert doc["outputs"]["nu_after"] == "4"


def test_m_stabilize_infeasible_exit_code(capsys):
    code, out, _err = _run(capsys, "m-stabilize", str(FIXTURES / "fig9m.json"))
    assert code == 2
    doc = json.loads(out)
    assert doc["outputs"]["status"] == "infeasible"


def test_m_stabilize_requires_matching(capsys):
    code, _out, err = _run(capsys, "m-stabilize", str(FIXTURES / "fig9.json"))
    assert code == 1
    assert "matching" in err


def test_check_stability_single_edge(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(
        '{"vertices": ["u", "v"], "edges": [{"u": "u", "v": "v", "w": "3"}]}'
    )
    code, out, _err = _run(capsys, "check-stability", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["stable"] is True


def test_unknown_command_and_bad_file(capsys):
    code, _out, err = _run(capsys, "frobnicate", str(FIXTURES / "fig9.json"))
    assert code == 1 and "invalid choice" in err
    code, _out, err = _run(capsys, "gamma", "no-such-file.json")
    assert code == 1 and "no-such-file" in err


def test_outputs_are_byte_identical(capsys):
    _code, first, _err = _run(capsys, "min-cycles", str(FIXTURES / "fig6.json"))
    _code, second, _err = _run(capsys, "min-cycles", str(FIXTURES / "fig6.json"))
    assert first == second
    assert "timing" not in first


def test_verify_appends_its_timing_under_timing(tmp_path, capsys):
    fig8 = str(FIXTURES / "fig8.json")
    result = _write(tmp_path, json.loads(_run(capsys, "gamma", fig8)[1]))
    _code, plain, _err = _run(capsys, "verify", fig8, "--result", str(result))
    code, out, err = _run(capsys, "--timing", "verify", fig8, "--result", str(result))
    timed = json.loads(out)
    assert list(timed)[-1] == "timing_seconds"
    seconds = timed.pop("timing_seconds")
    assert (code, err, timed) == (0, "", json.loads(plain))
    assert type(seconds) is float and seconds >= 0


def test_oracle_subcommands(tmp_path, capsys):
    code, out, _err = _run(capsys, "oracle", "nu", str(FIXTURES / "fig8.json"))
    assert code == 0 and json.loads(out)["outputs"]["nu"] == "8"
    code, out, _err = _run(capsys, "oracle", "min-edge-stabilizer", str(FIXTURES / "fig8.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["size"] == 1 and doc["outputs"]["F"] == [["q", "r"]]
    code, out, _err = _run(capsys, "oracle", "min-m-stabilizer", str(FIXTURES / "fig9m.json"))
    assert json.loads(out)["outputs"]["status"] == "infeasible"
    # the unit path a-b-c-d with M = {bc}: deleting either end leaves M maximum
    # on a path, and "a" is the lower of the two
    path = tmp_path / "p4.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"u": u, "v": v, "w": "1"} for u, v in ("ab", "bc", "cd")],
        "matching": [["b", "c"]],
    }))
    code, out, _err = _run(capsys, "oracle", "min-m-stabilizer", str(path))
    assert code == 0 and json.loads(out)["outputs"] == {"status": "feasible", "S": ["a"]}


def test_verify_roundtrip(tmp_path, capsys):
    for command, fixture in [
        ("solve-fractional", "fig8.json"),
        ("min-cycles", "fig6.json"),
        ("gamma", "fig9.json"),
        ("stabilize-vertices", "fig9.json"),
        ("stabilize-edges", "fig6.json"),
        ("check-stability", "fig8.json"),
    ]:
        instance = str(FIXTURES / fixture)
        code, out, _err = _run(capsys, command, instance)
        assert code == 0
        result_path = tmp_path / "result.json"
        result_path.write_text(out)
        code, out, _err = _run(capsys, "verify", instance, "--result", str(result_path))
        assert code == 0, (command, out)
        assert json.loads(out)["verified"] is True


def _bench_instance(
    tmp_path, monkeypatch, family: str, size: int, over_six=False, with_matching=False
) -> Path:
    """The instance file of a `family` graph of bench/families.py drawn
    from random.Random(1), each weight k written as "k/6" if `over_six`,
    with the bench's greedy M if `with_matching`."""
    families = bench_families(monkeypatch)
    rng = random.Random(1)
    n, edges = families._FAMILY_GRAPHS[family](rng, size)
    matching = families._greedy_matching(rng, edges) if with_matching else None
    weights = tuple((u, v, f"{w}/6" if over_six else w) for (u, v), w in sorted(edges.items()))
    path = tmp_path / f"{family}-{size}.json"
    path.write_text(families.Generated(family, size, n, weights, matching).to_json())
    return path


def _bench_facts(doc: dict, report: dict) -> dict:
    """What the rows of BENCH_DOCUMENTS pin of a document and its report."""
    outputs, certificates = doc["outputs"], doc["certificates"]
    facts = {key: outputs[key] for key in ("gamma", "nu_f", "nu_after") if key in outputs}
    facts["|S|"] = len(outputs.get("S", certificates.get("S", [])))
    cover = certificates.get("cover", certificates.get("surviving_cover", {}))
    facts["cover denominator > 1"] = any(Fraction(y).denominator > 1 for y in cover.values())
    checks = {check["name"]: check["ok"] for check in report["checks"]}
    facts["x_outweighs_M"] = checks.get("x_outweighs_M")
    return facts


# (the `_bench_instance` arguments, command, exit code, the facts the
# document and its report must show). A tri-chain has gamma = t and
# nu_f = 6t, and deleting one vertex per triangle leaves nu = 4t.
BENCH_DOCUMENTS = [
    ("tri", 1280, False, False, "min-cycles", 0, {"gamma": 1280, "nu_f": str(6 * 1280)}),
    ("tri", 1280, False, False, "stabilize-vertices", 0,
     {"gamma": 1280, "|S|": 1280, "nu_after": str(4 * 1280)}),
    ("tri", 40, True, False, "min-cycles", 0,
     {"gamma": 40, "|S|": 0, "cover denominator > 1": True}),
    ("tri", 40, True, False, "stabilize-vertices", 0,
     {"gamma": 40, "|S|": 40, "cover denominator > 1": True}),
    ("tri", 40, True, False, "stabilize-edges", 0,
     {"gamma": 40, "|S|": 40, "cover denominator > 1": True}),
    ("dense", 40, False, False, "solve-fractional", 0, {}),
    ("dense", 40, True, False, "solve-fractional", 0, {}),
    ("dense", 40, True, False, "min-cycles", 0, {}),
    ("sparse", 400, False, True, "m-stabilize", 2, {"x_outweighs_M": True}),
]


@pytest.mark.parametrize(
    "family, size, over_six, with_matching, command, exit_code, facts",
    BENCH_DOCUMENTS,
    ids=[f"{row[4]} {row[0]} {row[1]}{' k/6' * row[2]}" for row in BENCH_DOCUMENTS],
)
def test_verify_roundtrip_on_bench_instances(
    tmp_path, capsys, monkeypatch, family, size, over_six, with_matching, command, exit_code, facts
):
    instance = _bench_instance(tmp_path, monkeypatch, family, size, over_six, with_matching)
    code, out, _err = _run(capsys, command, str(instance))
    assert code == exit_code
    doc = json.loads(out)
    result_path = tmp_path / "result.json"
    result_path.write_text(out)
    code, out, _err = _run(capsys, "verify", str(instance), "--result", str(result_path))
    report = json.loads(out)
    assert (code, report["verified"]) == (0, True), report
    got = _bench_facts(doc, report)
    assert {key: got[key] for key in facts} == facts


def test_verify_catches_tampering(tmp_path, capsys):
    instance = str(FIXTURES / "fig9.json")
    _code, out, _err = _run(capsys, "stabilize-vertices", instance)
    doc = json.loads(out)
    doc["certificates"]["surviving_cover"]["q"] = "1"
    result_path = tmp_path / "tampered.json"
    result_path.write_text(json.dumps(doc))
    code, out, _err = _run(capsys, "verify", instance, "--result", str(result_path))
    assert code == 1
    assert json.loads(out)["verified"] is False


@pytest.mark.parametrize(
    "where,key,value,expected_checks",
    [
        (
            "cover",
            "p",
            "0",
            {
                "instance_sha256_matches": True,
                "x_is_basic_feasible": True,
                "cover_is_feasible": False,
                "strong_duality": False,
                "complementary_slackness": False,
                "matched_and_odd_cycles_equal_x": True,
                "nu_f_equals_cover_total": False,
            },
        ),
        (
            "x",
            0,
            "3/4",
            {
                "instance_sha256_matches": True,
                "x_is_basic_feasible": False,
                "nu_f_equals_cover_total": True,
            },
        ),
    ],
)
def test_verify_reports_tampered_pair_as_failed_checks(
    tmp_path, capsys, where, key, value, expected_checks
):
    instance = str(FIXTURES / "fig8.json")
    _code, out, _err = _run(capsys, "solve-fractional", instance)
    doc = json.loads(out)
    if where == "cover":
        doc["certificates"]["cover"][key] = value
    else:
        doc["outputs"]["x"][key]["x"] = value
    result_path = tmp_path / "tampered.json"
    result_path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "verify", instance, "--result", str(result_path))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verified"] is False
    # the pair checks are skipped when x is not a basic fractional matching
    assert {c["name"]: c["ok"] for c in report["checks"]} == expected_checks


def test_verify_rejects_a_negative_cover_on_an_unstable_graph(tmp_path, capsys):
    # a unit triangle is not stable (nu = 1 < nu_f = 3/2), but y = 1/2 on the
    # triangle and -1/2 on an isolated vertex covers every edge with total 1
    instance = tmp_path / "triangle.json"
    instance.write_text(json.dumps({
        "vertices": ["a", "b", "c", "z"],
        "edges": [{"u": u, "v": v, "w": "1"} for u, v in ("ab", "bc", "ac")],
    }))
    doc = {
        "command": "stabilize-vertices",
        "outputs": {"S": [], "gamma": 1, "nu_before": "1", "nu_after": "1"},
        "certificates": {
            "surviving_matching": [["a", "b"]],
            "surviving_cover": {"a": "1/2", "b": "1/2", "c": "1/2", "z": "-1/2"},
        },
    }
    result_path = tmp_path / "forged.json"
    result_path.write_text(json.dumps(doc))
    code, out, _err = _run(capsys, "verify", str(instance), "--result", str(result_path))
    assert code == 1
    checks = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
    assert checks["cover_feasible_on_residual"] is False


def test_verify_rejects_a_cover_lowered_by_a_foreign_denominator(tmp_path, capsys, monkeypatch):
    # fig8 and the bench's dense K_40 have integer weights; 1/1000003 gives
    # the cover a common denominator that the weights' denominator does not
    # divide
    for instance in (FIXTURES / "fig8.json", _bench_instance(tmp_path, monkeypatch, "dense", 40)):
        doc = json.loads(_run(capsys, "solve-fractional", str(instance))[1])
        cover = doc["certificates"]["cover"]
        label = next(v for v, y in cover.items() if Fraction(y) > 0)
        cover[label] = str(Fraction(cover[label]) - Fraction(1, 1000003))
        result_path = tmp_path / "lowered.json"
        result_path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "verify", str(instance), "--result", str(result_path))
        assert code == 1 and err == "", instance
        report = json.loads(out)
        assert report["verified"] is False
        assert {c["name"] for c in report["checks"] if not c["ok"]} == {
            "cover_is_feasible",
            "strong_duality",
            "complementary_slackness",
            "nu_f_equals_cover_total",
        }


# a path a-b-c whose matching {ab} is already maximum: m-stabilize is feasible
FEASIBLE_M = {
    "vertices": ["a", "b", "c"],
    "edges": [{"u": "a", "v": "b", "w": "2"}, {"u": "b", "v": "c", "w": "1"}],
    "matching": [["a", "b"]],
}


def _write(tmp_path, doc) -> Path:
    path = tmp_path / "result.json"
    path.write_text(json.dumps(doc))
    return path


def _set(section, key, value):
    def edit(doc):
        doc[section][key] = value

    return edit


# fig9m's triangle pqr, with M = {qr, ps}, beside a matched edge ab of weight 5
# and an M-exposed t on the edge at of weight 5: X = {t}, and on G - delta(X)
# the x of the triangle at 1/2 plus ab at 1 weighs 11 > w(M) = 10
INFEASIBLE_M = {
    "vertices": ["p", "q", "r", "s", "a", "b", "t"],
    "edges": [
        {"u": "p", "v": "q", "w": "4"}, {"u": "p", "v": "r", "w": "4"},
        {"u": "q", "v": "r", "w": "4"}, {"u": "p", "v": "s", "w": "1"},
        {"u": "a", "v": "b", "w": "5"}, {"u": "a", "v": "t", "w": "5"},
    ],
    "matching": [["q", "r"], ["p", "s"], ["a", "b"]],
}

# the instances rows may name besides the fixtures; None is FEASIBLE_M
INSTANCES = {None: FEASIBLE_M, "infeasible_m": INFEASIBLE_M}


def _instance(tmp_path, fixture) -> Path:
    """The instance file of `fixture`: a fixture's, or one of INSTANCES."""
    if fixture not in INSTANCES:
        return FIXTURES / f"{fixture}.json"
    path = tmp_path / f"{fixture or 'feasible_m'}.json"
    path.write_text(json.dumps(INSTANCES[fixture]))
    return path


class Malformed(NamedTuple):
    """A forgery that verify cannot read: its diagnostic, and no report."""

    diagnostic: str


def _not_a_string(got: str) -> Malformed:
    """A document that gives an exact value as a JSON number, which
    `Fraction` alone would take, or as any other JSON value but a string."""
    return Malformed(f"malformed result document: an exact value must be a string, got {got}")


def _floats(doc):
    """The float forgery of a fig9 `solve-fractional` document: nu_f, one x
    and one cover value as the numbers they stand for."""
    doc["outputs"]["nu_f"] = 6.0
    doc["outputs"]["x"][0]["x"] = 0.5
    doc["certificates"]["cover"]["p"] = 2.0


# (command, fixture, forgery, the checks it fails, or Malformed for a
# document that cannot be read); verified in process here and, every row
# in one subprocess, under python -O below
FORGED_CLAIMS = [
        ("stabilize-vertices", "fig9", lambda d: d.pop("instance_sha256"),
         {"instance_sha256_matches"}),
        ("stabilize-vertices", "fig9", lambda d: d.update(instance_sha256="0" * 64),
         {"instance_sha256_matches"}),
        ("stabilize-vertices", "fig9", _set("certificates", "surviving_matching",
                                            [["q", "r"], ["r", "s"]]),
         {"matching_pairs_disjoint"}),
        ("check-stability", "fig8", _set("certificates", "max_matching",
                                         [["q", "r"], ["r", "s"]]),
         {"matching_pairs_disjoint"}),
        ("solve-fractional", "fig8", _set("outputs", "nu_f", "999"),
         {"nu_f_equals_cover_total"}),
        ("min-cycles", "fig6", _set("outputs", "nu_f", "7"), {"nu_f_equals_cover_total"}),
        ("min-cycles", "fig6", lambda d: d["outputs"]["x"][3].update(x="1/2"),
         {"x_is_basic_feasible"}),
        # 2x = 2/3 is no half count, which a reader that took it for 2 would miss
        ("min-cycles", "fig6", lambda d: d["outputs"]["x"][3].update(x="1/3"),
         {"x_is_basic_feasible"}),
        ("stabilize-vertices", "fig9", _set("outputs", "nu_after", "100"),
         {"nu_after_equals_cover_total"}),
        ("stabilize-vertices", "fig9", _set("outputs", "gamma", 2), {"S_size_equals_gamma"}),
        ("stabilize-edges", "fig6", _set("outputs", "size", 7), {"size_equals_F"}),
        ("stabilize-edges", "fig6", _set("outputs", "lower_bound", 2),
         {"lower_bound_is_half_gamma"}),
        ("stabilize-edges", "fig6", _set("outputs", "upper_bound", 7),
         {"upper_bound_is_gamma_times_delta"}),
        ("stabilize-edges", "fig6",
         lambda d: d["outputs"].update(gamma=3, lower_bound=2, upper_bound=9),
         {"S_size_equals_gamma"}),
        ("m-stabilize", "fig9m", _set("outputs", "w_M", "4"), {"w_M_equals_matching_weight"}),
        ("m-stabilize", None, _set("outputs", "residual_nu_f", "3"),
         {"residual_nu_f_equals_cover_total"}),
        ("check-stability", "fig8", _set("outputs", "nu", "7"), {"nu_equals_witness_weight"}),
        ("check-stability", "fig8", _set("outputs", "nu_f", "999"),
         {"nu_f_equals_cover_total"}),
        ("check-stability", "fig8", _set("outputs", "stable", True),
         {"stable_iff_nu_equals_nu_f", "nu_equals_tau_f"}),
        ("stabilize-edges", "fig6", lambda d: d["outputs"]["F"].append(["1", "8"]),
         {"F_edges_in_graph"}),
        ("solve-fractional", "fig8", _set("outputs", "matched", [["p", "q"]]),
         {"matched_and_odd_cycles_equal_x"}),
        ("min-cycles", "fig6", _set("outputs", "odd_cycles", [["1", "2", "3"]]),
         {"matched_and_odd_cycles_equal_x"}),
        ("m-stabilize", "fig9m", _set("outputs", "status", "banana"), {"infeasible_reported"}),
        ("m-stabilize", None, _set("outputs", "status", "banana"), {"infeasible_reported"}),
        # S names a vertex whose star is a proper part of F, and which the
        # cover names
        ("stabilize-edges", "fig9", _set("certificates", "S", ["s"]),
         {"F_equals_stars_of_S", "cover_only_on_residual"}),
        ("stabilize-edges", "fig7", _set("certificates", "S", ["4"]),
         {"F_equals_stars_of_S", "cover_only_on_residual"}),
        # S1 and S2 must split S, and S may name only M-exposed vertices
        ("m-stabilize", None, lambda d: d["outputs"].update(S1=["a"], S2=["b", "c"]),
         {"S_is_S1_plus_S2"}),
        ("m-stabilize", "fig9m", _set("outputs", "S1", ["p"]),
         {"S_is_S1_plus_S2", "infeasible_prints_no_stabilizer"}),
        ("m-stabilize", "fig9m", lambda d: d["outputs"].update(S=["p", "q"], S1=["p"], S2=["q"]),
         {"S_is_M_exposed", "infeasible_prints_no_stabilizer"}),
        # an infeasible document prints no stabilizer, and its x is a basic
        # fractional matching of G - delta(X), X the M-exposed vertices,
        # heavier than M; a feasible one relabelled infeasible has no x
        ("m-stabilize", None, _set("outputs", "status", "infeasible"),
         Malformed("malformed result document: KeyError('x')")),
        ("m-stabilize", "infeasible_m", lambda d: d["outputs"].update(S=["t"], S1=["t"]),
         {"infeasible_prints_no_stabilizer"}),
        ("m-stabilize", "infeasible_m", lambda d: d["certificates"]["diagnostics"].append(
            {"reason": "flower", "vertex": "t", "other": None}),
         {"infeasible_prints_no_stabilizer"}),
        ("m-stabilize", "fig9m", _set("certificates", "x", [{"u": "p", "v": "s", "x": "1"},
                                                            {"u": "q", "v": "r", "x": "1"}]),
         {"x_outweighs_M"}),
        ("m-stabilize", "fig9m", lambda d: d["certificates"]["x"][0].update(x="1"),
         {"x_is_basic_feasible"}),
        # the entry x_ab = 1 moved onto at, at the M-exposed t
        ("m-stabilize", "infeasible_m", lambda d: d["certificates"]["x"][3].update(v="t"),
         {"x_avoids_M_exposed"}),
        # an exact value given as a JSON number, which verified while the
        # values were read by `Fraction` alone
        ("solve-fractional", "fig9", _floats, _not_a_string("2.0")),
        ("solve-fractional", "fig9", _set("outputs", "nu_f", 6.0), _not_a_string("6.0")),
        ("solve-fractional", "fig9", lambda d: d["outputs"]["x"][0].update(x=0.5),
         _not_a_string("0.5")),
        ("solve-fractional", "fig9", lambda d: d["certificates"]["cover"].update(p=2.0),
         _not_a_string("2.0")),
        ("gamma", "fig6", lambda d: d["certificates"]["cover"].update({"4": 0.25}),
         _not_a_string("0.25")),
        ("check-stability", "fig8", _set("outputs", "nu", 8.0), _not_a_string("8.0")),
        ("check-stability", "fig8", _set("outputs", "nu_f", 9), _not_a_string("9")),
        ("stabilize-vertices", "fig9", _set("outputs", "nu_after", 4.0), _not_a_string("4.0")),
        ("stabilize-vertices", "fig9", lambda d: d["certificates"]["surviving_cover"].update(q=2),
         _not_a_string("2")),
        ("m-stabilize", "fig9m", _set("outputs", "w_M", 5.0), _not_a_string("5.0")),
        ("m-stabilize", None, _set("outputs", "residual_nu_f", 2.0), _not_a_string("2.0")),
        ("m-stabilize", None, lambda d: d["certificates"]["residual_cover"].update(b=1.5),
         _not_a_string("1.5")),
        # an exact value given as a JSON array or object, which the caches of
        # the exact values cannot hash
        ("solve-fractional", "fig9", _set("outputs", "nu_f", ["1"]), _not_a_string('["1"]')),
        ("solve-fractional", "fig9", _set("outputs", "nu_f", {"a": 1}),
         _not_a_string('{"a": 1}')),
        ("solve-fractional", "fig9", lambda d: d["outputs"]["x"][0].update(x=["1"]),
         _not_a_string('["1"]')),
        ("solve-fractional", "fig9", lambda d: d["outputs"]["x"][0].update(x={"a": 1}),
         _not_a_string('{"a": 1}')),
        ("solve-fractional", "fig9", lambda d: d["certificates"]["cover"].update(p=["1"]),
         _not_a_string('["1"]')),
        ("solve-fractional", "fig9", lambda d: d["certificates"]["cover"].update(p={"a": 1}),
         _not_a_string('{"a": 1}')),
]


def _forged_outcome(failing) -> list:
    """[exit code, stderr, failed checks] that verify gives a row's forgery."""
    if isinstance(failing, Malformed):
        return [1, f"matchstab: error: {failing.diagnostic}\n", []]
    return [1, "", sorted(failing)]


@pytest.mark.parametrize("command,fixture,edit,failing", FORGED_CLAIMS)
def test_verify_rejects_each_forged_claim(tmp_path, capsys, command, fixture, edit, failing):
    instance = _instance(tmp_path, fixture)
    _code, out, _err = _run(capsys, command, str(instance))
    doc = json.loads(out)
    code, out, err = _run(capsys, "verify", str(instance), "--result", str(_write(tmp_path, doc)))
    assert code == 0 and json.loads(out)["verified"] is True
    edit(doc)
    code, out, err = _run(capsys, "verify", str(instance), "--result", str(_write(tmp_path, doc)))
    if isinstance(failing, Malformed):
        assert (code, out, err) == (1, "", f"matchstab: error: {failing.diagnostic}\n")
        return
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verified"] is False
    assert {c["name"] for c in report["checks"] if not c["ok"]} == failing


def test_verify_of_m_stabilize_needs_the_instance_matching(tmp_path, capsys):
    instance = _instance(tmp_path, None)
    result = _write(tmp_path, json.loads(_run(capsys, "m-stabilize", str(instance))[1]))
    unmatched = tmp_path / "unmatched.json"
    unmatched.write_text(json.dumps({k: v for k, v in FEASIBLE_M.items() if k != "matching"}))
    code, out, err = _run(capsys, "verify", str(unmatched), "--result", str(result))
    assert (code, out) == (1, "")
    assert err == "matchstab: error: verifying m-stabilize needs the instance matching\n"


_VERIFY_EACH = r"""
import contextlib
import io
import json
import sys

from matchstab.cli import main

outcomes = []
for instance, result in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", instance, "--result", result])
    checks = json.loads(out.getvalue())["checks"] if out.getvalue() else []
    outcomes.append([code, err.getvalue(), sorted(c["name"] for c in checks if not c["ok"])])
print(json.dumps({"optimize": sys.flags.optimize, "outcomes": outcomes}))
"""


def test_verify_rejects_each_forged_claim_under_dash_o(tmp_path, capsys):
    # every check must be an explicit one, not an assert, so the whole table
    # runs again in one python -O subprocess
    jobs = []
    for row, (command, fixture, edit, _failing) in enumerate(FORGED_CLAIMS):
        instance = _instance(tmp_path, fixture)
        doc = json.loads(_run(capsys, command, str(instance))[1])
        edit(doc)
        result = tmp_path / f"forged-{row}.json"
        result.write_text(json.dumps(doc))
        jobs.append([str(instance), str(result)])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _VERIFY_EACH, json.dumps(jobs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(matchstab.__file__).parents[1])),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert out["outcomes"] == [_forged_outcome(failing) for *_row, failing in FORGED_CLAIMS]


@pytest.mark.parametrize(
    "document", [[], "m-stabilize", 3, None], ids=["list", "string", "number", "null"]
)
def test_verify_reports_a_result_that_is_not_an_object(tmp_path, capsys, document):
    instance = str(FIXTURES / "fig9.json")
    code, out, err = _run(capsys, "verify", instance, "--result", str(_write(tmp_path, document)))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verified"] is False
    assert report["checks"] == [{"name": "result_is_object", "ok": False}]


def test_verify_reports_a_nested_field_of_the_wrong_type(tmp_path, capsys):
    # a cover given as a list, not an object mapping labels to values
    instance = str(FIXTURES / "fig8.json")
    doc = json.loads(_run(capsys, "solve-fractional", instance)[1])
    doc["certificates"]["cover"] = []
    code, out, err = _run(capsys, "verify", instance, "--result", str(_write(tmp_path, doc)))
    assert code == 1 and out == ""
    assert err.startswith("matchstab: error: malformed result document: AttributeError(")


def _append(section, key, entry):
    def edit(doc):
        doc[section][key].append(entry)

    return edit


def _swapped_first_x(section):
    def edit(doc):
        first = doc[section]["x"][0]
        doc[section]["x"].append({**first, "u": first["v"], "v": first["u"]})

    return edit


def _doubled(*places):
    def edit(doc):
        for section, key in places:
            doc[section][key] *= 2

    return edit


@pytest.mark.parametrize(
    "command,fixture,edit,name",
    [
        # the two forgeries that verified before lists read as sets were
        # checked for repeats: the first x entry repeated, and S and the
        # surviving matching doubled
        ("solve-fractional", "fig9",
         lambda d: d["outputs"]["x"].append(d["outputs"]["x"][0]), "x"),
        ("stabilize-vertices", "fig9",
         _doubled(("outputs", "S"), ("certificates", "surviving_matching")), "S"),
        ("solve-fractional", "fig9", _swapped_first_x("outputs"), "x"),
        ("min-cycles", "fig9", _swapped_first_x("outputs"), "x"),
        ("gamma", "fig9", _swapped_first_x("certificates"), "x"),
        ("check-stability", "fig9", _swapped_first_x("certificates"), "x"),
        ("stabilize-vertices", "fig9", _append("certificates", "surviving_matching", ["r", "q"]),
         "surviving_matching"),
        ("stabilize-edges", "fig9", _append("outputs", "F", ["q", "p"]), "F"),
        ("stabilize-edges", "fig9", _append("certificates", "S", "p"), "S"),
        ("stabilize-edges", "fig9", _append("certificates", "surviving_matching", ["q", "r"]),
         "surviving_matching"),
        ("m-stabilize", None, _set("outputs", "S", ["c", "c"]), "S"),
        ("m-stabilize", None, _set("outputs", "S1", ["c", "c"]), "S1"),
        ("m-stabilize", "fig9m", _set("outputs", "S", ["s", "s"]), "S"),
        ("m-stabilize", "fig9m", _set("outputs", "S1", ["s", "s"]), "S1"),
        ("m-stabilize", "fig9m", _set("outputs", "S2", ["p", "s", "p"]), "S2"),
        ("check-stability", "fig9", _append("certificates", "max_matching", ["s", "p"]),
         "max_matching"),
    ],
)
def test_verify_refuses_a_repeated_entry_of_a_set(tmp_path, capsys, command, fixture, edit, name):
    instance = _instance(tmp_path, fixture)
    doc = json.loads(_run(capsys, command, str(instance))[1])
    code, out, err = _run(capsys, "verify", str(instance), "--result", str(_write(tmp_path, doc)))
    assert code == 0 and json.loads(out)["verified"] is True
    edit(doc)
    code, out, err = _run(capsys, "verify", str(instance), "--result", str(_write(tmp_path, doc)))
    assert (code, out) == (1, "")
    assert err == f"matchstab: error: malformed result document: {name} names an entry twice\n"


REPEATED_KEYS = [
    # a cover that names p twice: json.loads alone keeps the last value, 2,
    # and the document verified
    ("solve-fractional", '"p": "2",', '"p": "0", "p": "2",'),
    ("stabilize-vertices", '"q": "2",', '"q": "0", "q": "2",'),
    ("solve-fractional", '"x": "1/2"', '"x": "1", "x": "1/2"'),
    ("gamma", '"command": "gamma",', '"command": "solve-fractional", "command": "gamma",'),
]


@pytest.mark.parametrize("command,key,repeated", REPEATED_KEYS)
def test_verify_refuses_a_repeated_key(tmp_path, capsys, command, key, repeated):
    instance = str(FIXTURES / "fig9.json")
    text = _run(capsys, command, instance)[1]
    result = tmp_path / "result.json"
    result.write_text(text)
    assert _run(capsys, "verify", instance, "--result", str(result))[0] == 0
    result.write_text(text.replace(key, repeated, 1))
    name = key.split('"')[1]
    assert _run(capsys, "verify", instance, "--result", str(result)) == (
        1,
        "",
        f'matchstab: error: {result}: malformed result document: an object names the key "{name}"'
        " twice\n",
    )


def test_verify_refuses_a_repeated_cover_key_under_dash_o(tmp_path, capsys):
    instance = str(FIXTURES / "fig9.json")
    command, key, repeated = REPEATED_KEYS[0]
    result = tmp_path / "result.json"
    result.write_text(_run(capsys, command, instance)[1].replace(key, repeated, 1))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "matchstab", "verify", instance, "--result", str(result)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(matchstab.__file__).parents[1])),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f'matchstab: error: {result}: malformed result document: an object names the key "p" twice\n'
    )


_EDGE = '{"u": "a", "v": "b", "w": "1"}'
INSTANCE_REPEATED_KEYS = [
    # json.loads alone keeps the last value: the edge solves with weight 5,
    # the instance has two vertices and no matching
    ("w", '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1", "w": "5"}]}'),
    ("vertices", f'{{"vertices": ["a", "b", "c"], "vertices": ["a", "b"], "edges": [{_EDGE}]}}'),
    ("matching", f'{{"vertices": ["a", "b"], "edges": [{_EDGE}], "matching": [["a", "b"]], '
     '"matching": []}'),
    # the last "vertices" lacks b, so the edge is refused too: the key comes first
    ("vertices", f'{{"vertices": ["a", "b"], "edges": [{_EDGE}], "vertices": ["a"]}}'),
]


@pytest.mark.parametrize("key,text", INSTANCE_REPEATED_KEYS)
def test_an_instance_that_repeats_a_key_is_refused(tmp_path, capsys, key, text):
    path = tmp_path / "instance.json"
    path.write_text(text)
    message = f'malformed instance: an object names the key "{key}" twice'
    for command in ("solve-fractional", "m-stabilize"):
        assert _run(capsys, command, str(path)) == (1, "", f"matchstab: error: {path}: {message}\n")


def test_an_instance_that_repeats_a_key_is_refused_under_pythonoptimize(tmp_path):
    env = dict(
        os.environ, PYTHONOPTIMIZE="1", PYTHONPATH=str(Path(matchstab.__file__).parents[1])
    )
    for pos, (key, text) in enumerate(INSTANCE_REPEATED_KEYS):
        path = tmp_path / f"instance{pos}.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "matchstab", "solve-fractional", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f'matchstab: error: {path}: malformed instance: an object names the key "{key}" twice\n'
        )


@pytest.mark.parametrize(
    "command,fixture,key,value,want",
    [
        # each equals the printed value in Python, so each verified as long
        # as counts and flags were read by value alone
        ("gamma", "fig9", "gamma", True, "an integer"),
        ("stabilize-vertices", "fig9", "gamma", True, "an integer"),
        ("check-stability", "fig9", "stable", 0, "true or false"),
        ("stabilize-edges", "fig9", "gamma", True, "an integer"),
        ("stabilize-edges", "fig9", "size", 3.0, "an integer"),
        ("stabilize-edges", "fig9", "lower_bound", True, "an integer"),
        ("stabilize-edges", "fig9", "upper_bound", 3.0, "an integer"),
    ],
)
def test_verify_refuses_a_count_or_flag_of_another_json_type(
    tmp_path, capsys, command, fixture, key, value, want
):
    instance = str(FIXTURES / f"{fixture}.json")
    doc = json.loads(_run(capsys, command, instance)[1])
    assert doc["outputs"][key] == value and type(doc["outputs"][key]) is not type(value)
    doc["outputs"][key] = value
    assert _run(capsys, "verify", instance, "--result", str(_write(tmp_path, doc))) == (
        1, "", f"matchstab: error: malformed result document: {key} must be {want}, "
        f"got {json.dumps(value)}\n"
    )


def test_batch_runs_in_input_order(capsys):
    code, out, _err = _run(
        capsys,
        "gamma",
        str(FIXTURES / "fig6.json"),
        str(FIXTURES / "fig9.json"),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["outputs"]["gamma"] == 2
    assert json.loads(lines[1])["outputs"]["gamma"] == 1


def test_batch_prints_documents_before_a_failing_file(capsys, monkeypatch):
    # fig9m's document is out before fig6, which has no matching, fails
    monkeypatch.chdir(FIXTURES.parent)
    code, out, err = _run(capsys, "m-stabilize", "fixtures/fig9m.json", "fixtures/fig6.json")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1
    single = _run(capsys, "m-stabilize", "fixtures/fig9m.json")[1]
    assert json.loads(lines[0]) == json.loads(single)
    assert err == 'matchstab: error: fixtures/fig6.json: m-stabilize needs a "matching" field\n'


def test_jobs_flag_is_gone(capsys):
    fig6 = str(FIXTURES / "fig6.json")
    code, out, err = _run(capsys, "--jobs", "2", "gamma", fig6)
    assert code == 1 and out == "" and "invalid choice" in err
    code, out, err = _run(capsys, "gamma", "--jobs", "2", fig6)
    assert code == 1 and out == "" and "unrecognized arguments: --jobs" in err


def test_only_the_printed_nu_runs_the_oracle(capsys, monkeypatch):
    # ν comes from exact_nu, and every oracle entry point for ν_f and γ
    # builds the 2^n table; both are counted at the module attribute,
    # whatever name a caller imported
    nu_calls = count_calls(monkeypatch, oracle, "exact_nu")
    basic_calls = count_calls(monkeypatch, oracle, "_basic_table")
    for command, calls in [
        ("check-stability", (1, 0)),  # nu only; nu_f is the certified pair's
        ("stabilize-edges", (0, 0)),
        ("stabilize-vertices", (1, 0)),  # the printed nu_before
    ]:
        nu_calls[0] = basic_calls[0] = 0
        code, _out, _err = _run(capsys, command, str(FIXTURES / "fig9.json"))
        assert code == 0
        assert (nu_calls[0], basic_calls[0]) == calls, command
    importers = []
    for path in sorted(Path(matchstab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any("oracle" in name.split(".") for name in names):
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_commands_past_the_oracle_budget(tmp_path, capsys):
    # 13 vertices: four weight-4 triangles and a weight-1 pendant edge
    vertices = [f"v{i}" for i in range(13)]
    edges = [(3 * t + a, 3 * t + b, "4") for t in range(4) for a, b in ((0, 1), (0, 2), (1, 2))]
    edges.append((0, 12, "1"))
    instance = tmp_path / "big.json"
    instance.write_text(json.dumps({
        "vertices": vertices,
        "edges": [{"u": vertices[u], "v": vertices[v], "w": w} for u, v, w in edges],
    }))
    code, out, _err = _run(capsys, "stabilize-vertices", str(instance))
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["nu_before"] is None
    result = tmp_path / "result.json"
    result.write_text(out)
    code, out, _err = _run(capsys, "verify", str(instance), "--result", str(result))
    assert code == 0 and json.loads(out)["verified"] is True
    code, _out, _err = _run(capsys, "stabilize-edges", str(instance))
    assert code == 0
    code, out, err = _run(capsys, "check-stability", str(instance))
    assert code == 1 and out == ""
    assert err == "matchstab: error: nu oracle limited to 12 vertices\n"


SELFTEST_PASS = (
    "selftest min-cycles-vs-oracle: ok (20 random graphs)\n"
    "selftest vertex-stabilizer-vs-oracle: ok (12 random graphs)\n"
    "selftest walk-dp-vs-enumeration: ok (12 random runs)\n"
    "selftest m-stabilizer-vs-oracle: ok (8 random runs)\n"
    "selftest: PASS\n"
)


def test_selftest_smoke(capsys):
    for seed in ("0", "3"):
        code, out, _err = _run(capsys, "selftest", "--seed", seed)
        assert code == 0
        assert "selftest: PASS" in out
        assert out == SELFTEST_PASS


# ---------------------------------------------------------------------------
# argv handling: a plain run command or `verify` builds no parser; any other
# argv gets one argparse tree, a parser for `--timing` with a subparser for
# each command and its own arguments


def _choices(*names: str) -> str:
    """The choices an argparse error lists, each written as the running
    argparse writes one, read off the error of a reference parser with one
    argument: quoted, as by Python 3.11 and 3.12.1, or bare, as by 3.13.13."""
    reference = cli._Parser()
    reference.add_argument("a", choices=["c"])
    try:
        reference.parse_args(["d"])
    except ParseError as exc:
        written = str(exc).removeprefix("argument a: invalid choice: 'd' ")
        quoted = {"(choose from 'c')": True, "(choose from c)": False}[written]
    return ", ".join(f"'{name}'" if quoted else name for name in names)


_CHOICES = _choices(
    "solve-fractional", "min-cycles", "stabilize-vertices", "stabilize-edges",
    "m-stabilize", "check-stability", "gamma", "oracle", "verify", "selftest",
)
_ORACLE_CHOICES = _choices(
    "nu", "nu-f", "gamma", "stable", "min-vertex-stabilizer", "min-edge-stabilizer",
    "min-m-stabilizer",
)
_GAMMA_FIG8 = json.loads((Path(__file__).parent / "golden" / "fixtures.json").read_text())[
    "gamma fig8.json"
]["stdout"]
_F = "fixtures/fig8.json"

# (argv, exit code, stdout, stderr) as the argparse tree of
# `cli._parse_with_parser`, one subparser per command, prints them; "exit" is
# the SystemExit code of -h
ARGV_TABLE = [
    ([], 1, "", "matchstab: error: the following arguments are required: command\n"),
    (["--timing"], 1, "", "matchstab: error: the following arguments are required: command\n"),
    (["frobnicate", _F], 1, "",
     f"matchstab: error: argument command: invalid choice: 'frobnicate' (choose from {_CHOICES})\n"),
    (["--jobs", "2", "gamma", _F], 1, "",
     f"matchstab: error: argument command: invalid choice: '2' (choose from {_CHOICES})\n"),
    (["gamma", "--jobs", "2", _F], 1, "", "matchstab: error: unrecognized arguments: --jobs\n"),
    (["gamma"], 1, "", "matchstab: error: the following arguments are required: instances\n"),
    (["gamma", _F, "--timing"], 1, "", "matchstab: error: unrecognized arguments: --timing\n"),
    (["oracle"], 1, "",
     "matchstab: error: the following arguments are required: oracle_command, instances\n"),
    (["oracle", "frob", _F], 1, "",
     "matchstab: error: argument oracle_command: invalid choice: 'frob' "
     f"(choose from {_ORACLE_CHOICES})\n"),
    (["oracle", "nu"], 1, "", "matchstab: error: the following arguments are required: instances\n"),
    (["verify", _F], 1, "", "matchstab: error: the following arguments are required: --result\n"),
    (["verify", "--result"], 1, "", "matchstab: error: argument --result: expected one argument\n"),
    (["selftest", "--seed", "x"], 1, "", "matchstab: error: argument --seed: invalid int value: 'x'\n"),
    (["selftest", "extra"], 1, "", "matchstab: error: unrecognized arguments: extra\n"),
    (["--tim", "gamma", _F], 0, _GAMMA_FIG8[:-3] + ',\n  "timing_seconds": T\n}\n', ""),
    (["gamma", "--", _F], 0, _GAMMA_FIG8, ""),
    (["gamma", "-h"], "exit 0",
     "usage: matchstab gamma [-h] instances [instances ...]\n\npositional arguments:\n"
     "  instances\n\noptions:\n  -h, --help  show this help message and exit\n", ""),
]


@pytest.mark.parametrize(
    "argv, code, out, err", ARGV_TABLE, ids=[" ".join(row[0]) or "(empty)" for row in ARGV_TABLE]
)
def test_argv_outcomes_are_unchanged(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.chdir(FIXTURES.parent)
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = f"exit {exc.code}"
    captured = capsys.readouterr()
    stdout = re.sub(r'"timing_seconds": [0-9.e-]+', '"timing_seconds": T', captured.out)
    assert (got, stdout, captured.err) == (code, out, err)


def test_each_call_builds_at_most_one_parser_tree(tmp_path, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    fig8 = str(FIXTURES / "fig8.json")
    result = tmp_path / "result.json"
    result.write_text(_run(capsys, "gamma", fig8)[1])
    assert built == []  # the plain forms build none
    _run(capsys, "verify", fig8, "--result", str(result))
    assert built == []
    # one top-level parser, and one subparser for each command
    commands = (*cli.RUN_COMMANDS, "oracle", "verify", "selftest")
    tree = ["matchstab", *(f"matchstab {command}" for command in commands)]
    for argv in (["--timing", "gamma", fig8], ["gamma", "--", fig8],
                 ["verify", "--result", str(result), fig8], ["oracle", "nu", fig8],
                 ["selftest", "--seed", "x"], ["frobnicate"], []):
        before = len(built)
        _run(capsys, *argv)
        assert [p.prog for p in built[before:]] == tree, argv
    # a second identical call builds its own tree again
    before = len(built)
    _run(capsys, "gamma", "--", fig8)
    _run(capsys, "gamma", "--", fig8)
    fresh = built[before:]
    assert len(fresh) == 2 * len(tree) and len({id(p) for p in fresh}) == len(fresh)


_PLAIN_PATHS = (
    ["a.json"],
    ["", "with space.json"],
    ["caf\u00e9 \u03b3.json", "w=1.json", "@args.txt"],
    ["verify"],
    ["a.json", "verify", "gamma"],
)
PLAIN_ARGV = [[command, *paths] for command in cli.RUN_COMMANDS for paths in _PLAIN_PATHS] + [
    ["verify", "P.json", "--result", "R.json"],
    ["verify", "verify", "--result", "caf\u00e9 @=.json"],
    ["verify", "", "--result", ""],
]


def test_a_plain_argv_parses_as_the_parser_tree_parses_it(monkeypatch):
    expected = [cli._parse_with_parser(list(argv)) for argv in PLAIN_ARGV]

    def refuse(argv):
        raise AssertionError(f"{argv} built a parser")

    monkeypatch.setattr(cli, "_parse_with_parser", refuse)
    for argv, namespace in zip(PLAIN_ARGV, expected):
        assert cli._parse_args(list(argv)) == namespace, argv


def test_every_other_argv_takes_the_parser_tree(capsys, monkeypatch):
    taken = []
    parse = cli._parse_with_parser

    def recorded(argv):
        taken.append(argv)
        return parse(argv)

    monkeypatch.setattr(cli, "_parse_with_parser", recorded)
    others = [argv for argv, *_outcome in ARGV_TABLE] + [
        ["--timing", "gamma", _F], ["gamma", "-1"], ["verify", "--result", "R.json", _F],
        ["oracle", "nu", _F], ["selftest", "--seed", "3"],
    ]
    for argv in others:
        with contextlib.suppress(MatchstabError, SystemExit):
            cli._parse_args(list(argv))
        assert taken[-1:] == [argv], argv


# ---------------------------------------------------------------------------
# instance and result files: read once, hashed as bytes, decoded as UTF-8

_NOT_UTF8 = b'{"vertices": ["a\xff"], "edges": []}'
_DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 16: invalid start byte"


@pytest.mark.parametrize("command", [["gamma"], ["solve-fractional"], ["oracle", "nu"]])
def test_a_non_utf8_instance_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(_NOT_UTF8)
    code, out, err = _run(capsys, *command, str(path))
    assert (code, out, err) == (1, "", f"matchstab: error: {path}: {_DECODE_ERROR}\n")


def test_verify_of_a_non_utf8_instance_is_an_input_error(tmp_path, capsys):
    fig8 = str(FIXTURES / "fig8.json")
    result = tmp_path / "result.json"
    result.write_text(_run(capsys, "gamma", fig8)[1])
    path = tmp_path / "bad.json"
    path.write_bytes(_NOT_UTF8)
    code, out, err = _run(capsys, "verify", str(path), "--result", str(result))
    assert (code, out, err) == (1, "", f"matchstab: error: {path}: {_DECODE_ERROR}\n")


def test_verify_of_a_non_utf8_result_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(_NOT_UTF8)
    code, out, err = _run(capsys, "verify", str(FIXTURES / "fig8.json"), "--result", str(path))
    assert (code, out, err) == (1, "", f"matchstab: error: {path}: {_DECODE_ERROR}\n")


# (argv, the path as given, its OS error): a file that cannot be read
_MISSING = "fixtures/missing.json"
_UNREADABLE = [
    (["gamma", _MISSING], _MISSING, "[Errno 2] No such file or directory"),
    (["verify", _F, "--result", _MISSING], _MISSING, "[Errno 2] No such file or directory"),
    (["gamma", "fixtures"], "fixtures", "[Errno 21] Is a directory"),
]


@pytest.mark.parametrize(
    "argv, path, error", _UNREADABLE, ids=[" ".join(row[0]) for row in _UNREADABLE]
)
def test_an_unreadable_file_is_an_input_error_that_names_it(capsys, monkeypatch, argv, path, error):
    monkeypatch.chdir(FIXTURES.parent)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (1, "", f"matchstab: error: {path}: {error}: {path!r}\n")


def _count_reads(monkeypatch) -> list[str]:
    """The name of each file the CLI opens, as the calls come."""
    reads = []

    def counted(path, *args, **kwargs):
        reads.append(os.path.basename(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counted, raising=False)
    return reads


def test_the_instance_file_is_read_once_and_hashed_as_bytes(tmp_path, capsys, monkeypatch):
    # CRLF newlines: the hash is of the bytes, the parse of the decoded text
    path = tmp_path / "crlf.json"
    data = (FIXTURES / "fig8.json").read_bytes().replace(b"\n", b"\r\n")
    path.write_bytes(data)
    reads = _count_reads(monkeypatch)
    code, out, _err = _run(capsys, "gamma", str(path))
    assert code == 0 and reads == ["crlf.json"]
    doc = json.loads(out)
    assert doc["instance_sha256"] == hashlib.sha256(data).hexdigest()
    assert doc["outputs"] == {"gamma": 1}
    result = tmp_path / "result.json"
    result.write_text(out)
    reads.clear()
    code, out, _err = _run(capsys, "verify", str(path), "--result", str(result))
    assert code == 0 and json.loads(out)["verified"] is True
    assert sorted(reads) == ["crlf.json", "result.json"]


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_a_json_error_reads_as_after_newline_translation(tmp_path, capsys, newline):
    # a text-mode read turns \r\n and \r into \n, and JSON error positions count them
    path = tmp_path / "broken.json"
    path.write_bytes(b'{\n "vertices": ["a"],\n "edges": [}\n'.replace(b"\n", newline))
    code, out, err = _run(capsys, "gamma", str(path))
    with pytest.raises(ParseError) as expected:
        parse_instance(path.read_text(encoding="utf-8"))
    assert (code, out, err) == (1, "", f"matchstab: error: {path}: {expected.value}\n")
    assert "line 3" in err


def _unknown_label_instance(tmp_path) -> Path:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["a"], "edges": [{"u": "a", "v": "b", "w": 1}]}))
    return path


def test_a_batch_names_the_instance_file_that_fails_to_parse(tmp_path, capsys):
    fig8, bad = str(FIXTURES / "fig8.json"), _unknown_label_instance(tmp_path)
    code, out, _err = _run(capsys, "gamma", fig8)
    assert code == 0
    line = json.dumps(json.loads(out), separators=(",", ":")) + "\n"
    error = f"matchstab: error: {bad}: edges[0]: unknown vertex label\n"
    assert _run(capsys, "gamma", fig8, str(bad)) == (1, line, error)


def test_verify_names_the_instance_file_that_fails_to_parse(tmp_path, capsys):
    fig8, bad = str(FIXTURES / "fig8.json"), _unknown_label_instance(tmp_path)
    result = tmp_path / "result.json"
    result.write_text(_run(capsys, "gamma", fig8)[1])
    error = f"matchstab: error: {bad}: edges[0]: unknown vertex label\n"
    assert _run(capsys, "verify", str(bad), "--result", str(result)) == (1, "", error)
