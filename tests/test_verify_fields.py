"""`verify` reads every field a result document prints.

A printed field that `verify` never reads is a claim nobody checks: a
forgery there still verifies. Each golden document is verified here with
its `outputs` and `certificates` wrapped in a dict that records every key
read through `[]` and `.get`. The fields left unread must be exactly the
escape list below, each with the ROADMAP item that will close it; a change
that makes `verify` read one more field removes its entry.

Reading a field is not yet checking it. The `m-stabilize` documents also go
through a sweep of single mutations, each of which `verify` must refute,
apart from the few named in ESCAPES.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from matchstab.certify import verify
from matchstab.cli import main
from matchstab.errors import MatchstabError
from matchstab.instance import parse_instance
from test_golden_lp import GRAPHS, _instance_text
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
        out[key] = (_instance_text(GRAPHS[key.split(" ", 1)[1]]), entry["stdout"])
    return out


def _feasible_m_document(tmp_path) -> tuple[str, str]:
    instance = tmp_path / "feasible_m.json"
    instance.write_text(json.dumps(FEASIBLE_M), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["m-stabilize", str(instance)]) == 0
    return instance.read_text(encoding="utf-8"), out.getvalue()


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


# (document, mutation) -> why the mutant still verifies: it makes the
# claims the document makes, or it is in a field UNREAD names
ESCAPES = {
    ("m-stabilize feasible_m", "certificates.diagnostics deleted"): UNREAD[
        ("m-stabilize feasible", "certificates", "diagnostics")
    ],
    ("m-stabilize feasible_m", "certificates.residual_cover.c deleted"):
        "the cover omits a vertex of value 0",
}


def test_every_single_mutation_of_an_m_stabilize_document_is_refuted(tmp_path):
    # ROADMAP item 1's mutation sweep, over the m-stabilize documents: every
    # golden one and the feasible one of the path a-b-c
    documents = [
        (f"m-stabilize {key.split(' ', 1)[1].removesuffix('.json')}", *pair)
        for key, pair in _golden_documents().items() if key.startswith("m-stabilize ")
    ]
    documents.append(("m-stabilize feasible_m", *_feasible_m_document(tmp_path)))
    assert [name for name, *_pair in documents] == ["m-stabilize fig9m", "m-stabilize feasible_m"]
    escaped, mutants = set(), 0
    for name, instance_text, text in documents:
        instance = parse_instance(instance_text)
        digest = hashlib.sha256(instance_text.encode("utf-8")).hexdigest()
        doc = json.loads(text)
        labels = set(instance.graph.labels)
        whole = [("not an object", value) for value in ([], "m-stabilize", 3, None)]
        for what, mutant in whole + list(_mutations(doc, labels)):
            mutants += 1
            try:
                _report, code = verify(instance, digest, mutant)
            except MatchstabError:
                code = 1
            if code != 1:
                escaped.add((name, what))
    assert mutants >= 90
    assert escaped == set(ESCAPES)
