"""`verify` reads every field a result document prints.

A printed field that `verify` never reads is a claim nobody checks: a
forgery there still verifies. Each golden document is verified here with
its `outputs` and `certificates` wrapped in a dict that records every key
read through `[]` and `.get`. The fields left unread must be exactly the
escape list below, each with the ROADMAP item that will close it; a change
that makes `verify` read one more field removes its entry.

Reading a field is not yet checking it. Every golden fixture document also
goes through a sweep of single mutations, and every golden document through
a sweep of the mutations of its covers and their totals. `verify` must
refute each mutant, apart from those under a rule of ESCAPE_PREFIXES, which
lie in a field UNREAD names, and the few named in ESCAPES.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from conftest import count_fractions
from matchstab.certify import verify
from matchstab.cli import main
from matchstab.errors import MatchstabError
from matchstab.instance import parse_instance
from test_golden import TABLES
from test_instance_cli import FEASIBLE_M

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

# (document kind, section, key) -> the ROADMAP item that will read it
UNREAD = {
    ("min-cycles", "certificates", "events"): "item 7, a checkable certificate for gamma",
    ("gamma", "certificates", "events"): "item 7, a checkable certificate for gamma",
    ("stabilize-vertices", "outputs", "nu_before"): "item 6, exact nu with a blossom dual",
    ("m-stabilize feasible", "certificates", "diagnostics"): "item 8, the approximation ratio",
}


class _Recorder(dict):
    """A dict that records every key read through `[]` and `.get`."""

    def __init__(self, data: dict, read: set):
        super().__init__(data)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _golden_documents() -> dict[str, tuple[str, str]]:
    """(instance text, document text) of every golden document, by its key
    "<command> <instance>"."""
    out = {}
    for key, entry in json.loads((GOLDEN / "fixtures.json").read_text(encoding="utf-8")).items():
        if entry["stdout"]:
            name = key.split(" ", 1)[1]
            out[key] = ((ROOT / "fixtures" / name).read_text(encoding="utf-8"), entry["stdout"])
    for key, entry in json.loads((GOLDEN / "lp_suite.json").read_text(encoding="utf-8")).items():
        _commands, text = TABLES["lp_suite.json"][key.split(" ", 1)[1]]
        out[key] = (text(), entry["stdout"])
    return out


def _feasible_m_document(tmp_path) -> tuple[str, str]:
    instance = tmp_path / "feasible_m.json"
    instance.write_text(json.dumps(FEASIBLE_M), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["m-stabilize", str(instance)]) == 0
    return instance.read_text(encoding="utf-8"), out.getvalue()


def test_verify_makes_no_fraction_on_a_golden_document(monkeypatch, tmp_path):
    # each exact value is read as (num, den) and every check is decided on
    # integers, so a valid document costs no Fraction; the instances, some
    # with weights such as "1/2", are parsed before the count starts
    documents = [*_golden_documents().values(), _feasible_m_document(tmp_path)]
    checked = [
        (parse_instance(text), hashlib.sha256(text.encode("utf-8")).hexdigest(), json.loads(doc))
        for text, doc in documents
    ]
    fractions = count_fractions(monkeypatch)
    for instance, digest, doc in checked:
        report, code = verify(instance, digest, doc)
        assert (code, report["verified"]) == (0, True), doc["command"]
    assert fractions[0] == 0 and len(checked) == 31 + 48 + 1


def test_verify_reads_every_printed_field(tmp_path):
    documents = list(_golden_documents().values())
    assert len(documents) == 31 + 48
    documents.append(_feasible_m_document(tmp_path))
    unread = set()
    kinds = set()
    for instance_text, text in documents:
        doc = json.loads(text)
        read = {section: set() for section in ("", "outputs", "certificates")}
        for section in ("outputs", "certificates"):
            doc[section] = _Recorder(doc[section], read[section])
        doc = _Recorder(doc, read[""])
        kind = doc["command"]
        if kind == "m-stabilize":
            kind = f"m-stabilize {doc['outputs']['status']}"
        kinds.add(kind)
        for section in read.values():
            section.clear()
        digest = hashlib.sha256(instance_text.encode("utf-8")).hexdigest()
        report, code = verify(parse_instance(instance_text), digest, doc)
        assert (code, report["verified"]) == (0, True), (kind, report)
        assert read[""] == {"command", "instance_sha256", "outputs", "certificates"}
        for section in ("outputs", "certificates"):
            unread.update((kind, section, key) for key in doc[section] if key not in read[section])
    assert kinds == {
        "solve-fractional", "min-cycles", "gamma", "stabilize-vertices", "stabilize-edges",
        "m-stabilize feasible", "m-stabilize infeasible", "check-stability",
    }
    assert unread == set(UNREAD)


def _mutations(value, labels: set):
    """Every single mutation of a JSON value, as (what changed, the mutant):
    each object key deleted, or renamed to each vertex label it is not yet;
    each list entry dropped or duplicated; each boolean flipped; each count,
    and each exact value string, set to one more, one less and 0; each
    vertex label swapped for every other one. The mutant shares the parts
    it leaves unchanged with `value`, which stays as it was."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield f"{key} deleted", {k: v for k, v in value.items() if k != key}
            if key in labels:
                for other in sorted(labels - value.keys()):
                    yield f"{key} renamed {other}", {
                        other if k == key else k: v for k, v in value.items()
                    }
            for what, new in _mutations(child, labels):
                yield f"{key}.{what}", {**value, key: new}
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield f"[{i}] dropped", value[:i] + value[i + 1:]
            yield f"[{i}] duplicated", value[: i + 1] + value[i:]
            for what, new in _mutations(child, labels):
                yield f"[{i}].{what}", value[:i] + [new] + value[i + 1:]
    elif isinstance(value, bool):
        yield "flipped", not value
    elif isinstance(value, int):
        for new in sorted({value - 1, value + 1, 0} - {value}):
            yield f"= {new}", new
    elif isinstance(value, str):
        if value in labels:
            for other in sorted(labels - {value}):
                yield f"= {other}", other
        try:
            number = Fraction(value)
        except ValueError:
            return
        for new in sorted({number - 1, number + 1, Fraction(0)} - {number}):
            yield f"= {new}", str(new)


# (command, mutation prefix) -> the ROADMAP item that will close every
# escape under it: the fields UNREAD names are read by no check yet
ESCAPE_PREFIXES = {
    ("min-cycles", "certificates.events"): UNREAD[("min-cycles", "certificates", "events")],
    ("gamma", "certificates.events"): UNREAD[("gamma", "certificates", "events")],
    ("stabilize-vertices", "outputs.nu_before"):
        UNREAD[("stabilize-vertices", "outputs", "nu_before")],
}

ZERO_ENTRY = "a deleted cover entry of value 0 makes the claims the document makes"

# (document, mutation) -> why the mutant still verifies: it makes the
# claims the document makes, or it is in a field UNREAD names
ESCAPES = {
    ("m-stabilize feasible_m", "certificates.diagnostics deleted"): UNREAD[
        ("m-stabilize feasible", "certificates", "diagnostics")
    ],
    ("m-stabilize feasible_m", "certificates.residual_cover.c deleted"): ZERO_ENTRY,
    ("stabilize-vertices fig7", "certificates.surviving_cover.4 deleted"): ZERO_ENTRY,
    ("stabilize-vertices fig9", "certificates.surviving_cover.s deleted"): ZERO_ENTRY,
    ("stabilize-vertices fig9m", "certificates.surviving_cover.s deleted"): ZERO_ENTRY,
    ("stabilize-edges fig7", "certificates.surviving_cover.4 deleted"): ZERO_ENTRY,
    ("stabilize-edges fig9", "certificates.surviving_cover.s deleted"): ZERO_ENTRY,
    ("stabilize-edges fig9m", "certificates.surviving_cover.s deleted"): ZERO_ENTRY,
}

# the fields whose mutations the cover sweep makes: the covers, and the
# totals each document compares with its cover
COVER_FIELDS = ("cover", "surviving_cover", "residual_cover", "nu_f", "nu_after", "residual_nu_f")


def _cover_mutations(doc: dict, labels: set):
    """The single mutations of `doc` that change one of its COVER_FIELDS,
    named as `_mutations` names them."""
    for section in ("outputs", "certificates"):
        fields = doc[section]
        for key in COVER_FIELDS:
            if key in fields:
                yield f"{section}.{key} deleted", {
                    **doc, section: {k: v for k, v in fields.items() if k != key}
                }
                for what, new in _mutations(fields[key], labels):
                    yield f"{section}.{key}.{what}", {**doc, section: {**fields, key: new}}


def _escapes(documents, mutations) -> tuple[int, set]:
    """(the number of mutants, the (document, mutation) pairs that escape)
    over `documents`, given as (name, instance text, document text): each
    mutant `mutations(doc, labels)` yields must exit 1, with a report of
    `"verified": false` or with an input error."""
    escaped, mutants = set(), 0
    for name, instance_text, text in documents:
        instance = parse_instance(instance_text)
        digest = hashlib.sha256(instance_text.encode("utf-8")).hexdigest()
        for what, mutant in mutations(json.loads(text), set(instance.graph.labels)):
            mutants += 1
            try:
                _report, code = verify(instance, digest, mutant)
            except MatchstabError:
                code = 1
            if code != 1:
                escaped.add((name, what))
    return mutants, escaped


def _named_documents(tmp_path, keys) -> list[tuple[str, str, str]]:
    """(name, instance text, document text) of the golden documents whose
    keys `keys` accepts, named "<command> <instance>", and of the feasible
    `m-stabilize` document of the path a-b-c, "m-stabilize feasible_m"."""
    documents = [
        (key.removesuffix(".json"), *pair) for key, pair in _golden_documents().items() if keys(key)
    ]
    return documents + [("m-stabilize feasible_m", *_feasible_m_document(tmp_path))]


def _rule_of(name: str, what: str):
    """The rule of ESCAPE_PREFIXES that names the mutation `what` of the
    document `name`, or None."""
    command = name.split(" ", 1)[0]
    return next(
        (
            (rule_command, prefix) for rule_command, prefix in ESCAPE_PREFIXES
            if command == rule_command and what.startswith((prefix + ".", prefix + " "))
        ),
        None,
    )


def test_every_single_mutation_of_a_golden_document_is_refuted(tmp_path):
    # ROADMAP item 1's mutation sweep, over every golden fixture document
    # and the feasible m-stabilize one of the path a-b-c
    documents = _named_documents(tmp_path, lambda key: key.endswith(".json"))
    assert len(documents) == 31 + 1

    def mutations(doc, labels):
        yield from (("not an object", value) for value in ([], doc["command"], 3, None))
        yield from _mutations(doc, labels)

    mutants, escaped = _escapes(documents, mutations)
    assert mutants >= 4600
    assert {(name, what) for name, what in escaped if _rule_of(name, what) is None} == set(
        ESCAPES
    )
    # each rule still names an escape
    assert {_rule_of(name, what) for name, what in escaped} - {None} == set(ESCAPE_PREFIXES)


def test_every_cover_mutation_of_a_golden_document_is_refuted(tmp_path):
    # the sweep over the covers and their totals alone, also on the 48
    # documents of tests/golden/lp_suite.json
    documents = _named_documents(tmp_path, lambda key: True)
    assert len(documents) == 31 + 48 + 1
    mutants, escaped = _escapes(documents, _cover_mutations)
    assert mutants >= 10000
    assert escaped == {
        (name, what) for name, what in ESCAPES if what.split(".")[1].split(" ")[0] in COVER_FIELDS
    }
