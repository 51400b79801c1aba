"""`verify` reads every field a result document prints.

A printed field that `verify` never reads is a claim nobody checks: a
forgery there still verifies. Each golden document is verified here with
its `outputs` and `certificates` wrapped in a dict that records every key
read through `[]` and `.get`. The fields left unread must be exactly the
escape list below, each with the ROADMAP item that will close it; a change
that makes `verify` read one more field removes its entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from matchstab.certify import verify
from matchstab.cli import main
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
    ("m-stabilize infeasible", "certificates", "diagnostics"): "item 8, the approximation ratio",
    ("m-stabilize infeasible", "outputs", "residual_nu_f"):
        "items 1 and 5, an infeasibility certificate",
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


def _documents() -> list[tuple[str, str]]:
    """(instance text, document text) of every golden document, and of the
    feasible `m-stabilize` document of the path a-b-c, which no fixture has."""
    out = []
    for key, entry in json.loads((GOLDEN / "fixtures.json").read_text(encoding="utf-8")).items():
        if entry["stdout"]:
            name = key.split(" ", 1)[1]
            out.append(((ROOT / "fixtures" / name).read_text(encoding="utf-8"), entry["stdout"]))
    for key, entry in json.loads((GOLDEN / "lp_suite.json").read_text(encoding="utf-8")).items():
        out.append((_instance_text(GRAPHS[key.split(" ", 1)[1]]), entry["stdout"]))
    return out


def _feasible_m_document(tmp_path) -> tuple[str, str]:
    instance = tmp_path / "feasible_m.json"
    instance.write_text(json.dumps(FEASIBLE_M), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["m-stabilize", str(instance)]) == 0
    return instance.read_text(encoding="utf-8"), out.getvalue()


def test_verify_reads_every_printed_field(tmp_path):
    documents = _documents()
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
