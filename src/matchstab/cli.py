"""Command-line interface: run the solvers on instance files, emit certified
JSON result documents, and re-verify such documents with pure arithmetic
(`certify.verify`).

Every numeric value in a result document is an exact fraction string; counts
are plain integers. Identical inputs produce byte-identical output (timing is
only emitted under --timing for that reason).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Optional

from . import oracle as oracle_mod
from .certify import cycles_doc, labels_doc, load_result, pairs_doc, verify
from .cycles import AugmentationEvent, FrustrationEvent, reduce_cycles
from .errors import BudgetExceeded, MatchingRequired, MatchstabError, ParseError, UnknownCommand
from .graph import BasicFractionalMatching, FractionalVertexCover, Matching, WeightedGraph
from .instance import Instance, parse_instance
from .lp import solve_fractional
from .mstab import INFEASIBLE, m_vertex_stabilizer
from .stabilizers import edge_stabilizer_approx, min_vertex_stabilizer

RUN_COMMANDS = (
    "solve-fractional",
    "min-cycles",
    "stabilize-vertices",
    "stabilize-edges",
    "m-stabilize",
    "check-stability",
    "gamma",
)
ORACLE_SUBCOMMANDS = (
    "nu",
    "nu-f",
    "gamma",
    "stable",
    "min-vertex-stabilizer",
    "min-edge-stabilizer",
    "min-m-stabilizer",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        if "invalid choice" in message:
            raise UnknownCommand(message)
        raise ParseError(message)


# the int-to-str digit limit in force; 0, or a Python before 3.10.7, means none
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _exact_str(value) -> str:
    """str(value) for an exact value, or MatchstabError when its numerator
    or denominator has more digits than Python may convert to a string."""
    limit = _max_str_digits()
    for part in (value.numerator, value.denominator):
        # 8**limit < 10**limit, so a shorter part has at most `limit` digits
        if limit and part.bit_length() > 3 * limit and abs(part) >= 10**limit:
            raise MatchstabError(f"an exact value has more than {limit} digits, too many to print")
    return str(value)


def _edges_doc(graph: WeightedGraph, indices) -> list[list[str]]:
    ends = graph.ends
    return [[graph.label_of(ends[i][0]), graph.label_of(ends[i][1])] for i in indices]


def _x_entries(bfm: BasicFractionalMatching) -> list[dict[str, str]]:
    """The nonzero entries of x, in the edge order of the graph x lives on."""
    graph = bfm.graph
    ends, values = graph.ends, bfm.values
    return [
        {"u": graph.label_of(ends[i][0]), "v": graph.label_of(ends[i][1]), "x": str(values[i])}
        for i in bfm.support
    ]


def _cover_doc(graph: WeightedGraph, cover: FractionalVertexCover, removed=()) -> dict[str, str]:
    """y on every vertex that is not in the stabilizer's S, `removed`."""
    y, removed = cover.values, set(removed)
    return {graph.label_of(v): _exact_str(y[v]) for v in range(graph.n) if v not in removed}


def _event_doc(graph: WeightedGraph, event) -> dict[str, Any]:
    if isinstance(event, AugmentationEvent):
        return {
            "event": event.kind,
            "cycles": cycles_doc(graph, event.cycles),
            "rounded_at": [graph.label_of(v) for v in event.rounded_at],
            "path": [graph.label_of(v) for v in event.path],
        }
    assert isinstance(event, FrustrationEvent)
    return {
        "event": "frustrated_tree",
        "cycles": cycles_doc(graph, [event.root_cycle]),
        "deleted_vertices": [graph.label_of(v) for v in event.deleted_vertices],
    }


def _run_command(command: str, instance: Instance, path: str, digest: str) -> tuple[dict, int]:
    graph = instance.graph
    outputs: dict[str, Any] = {}
    certificates: dict[str, Any] = {}
    exit_code = 0

    if command == "solve-fractional":
        bfm, cover = solve_fractional(graph)
        outputs = {
            "nu_f": _exact_str(bfm.weight),
            "x": _x_entries(bfm),
            "matched": pairs_doc(graph, bfm.matched),
            "odd_cycles": cycles_doc(graph, bfm.odd_cycles),
        }
        certificates = {
            "cover": _cover_doc(graph, cover),
        }
    elif command in ("min-cycles", "gamma"):
        result = reduce_cycles(graph)
        x_entries = _x_entries(result.solution)
        if command == "gamma":
            # x is printed once: among the outputs of min-cycles, here in the certificate
            outputs = {"gamma": result.gamma}
            certificates = {"x": x_entries}
        else:
            outputs = {
                "gamma": result.gamma,
                "nu_f": _exact_str(result.weight),
                "x": x_entries,
                "matched": pairs_doc(graph, result.solution.matched),
                "odd_cycles": cycles_doc(graph, result.solution.odd_cycles),
            }
        certificates["cover"] = _cover_doc(graph, result.cover)
        certificates["events"] = [_event_doc(graph, e) for e in result.events]
    elif command == "stabilize-vertices":
        result = min_vertex_stabilizer(graph)
        try:
            nu_before: Optional[str] = _exact_str(oracle_mod.exact_nu(graph)[0])
        except BudgetExceeded:
            nu_before = None  # the 2/3 guarantee holds but is not reported
        outputs = {
            "S": labels_doc(graph, result.removed),
            "gamma": result.gamma,
            "nu_before": nu_before,
            "nu_after": _exact_str(result.nu_after),
        }
        certificates = {
            "surviving_matching": pairs_doc(graph, result.surviving_matching),
            "surviving_cover": _cover_doc(graph, result.surviving_cover, result.removed),
        }
    elif command == "stabilize-edges":
        result = edge_stabilizer_approx(graph)
        outputs = {
            "F": _edges_doc(graph, result.removed_edges),
            "size": len(result.removed_edges),
            "gamma": result.gamma,
            "lower_bound": result.lower_bound,
            "upper_bound": result.upper_bound,
        }
        vertex_stab = result.vertex_result
        certificates = {
            "S": labels_doc(graph, vertex_stab.removed),
            "surviving_matching": pairs_doc(graph, vertex_stab.surviving_matching),
            "surviving_cover": _cover_doc(graph, vertex_stab.surviving_cover, vertex_stab.removed),
        }
    elif command == "m-stabilize":
        if instance.matching is None:
            raise MatchingRequired(f'{path}: m-stabilize needs a "matching" field')
        result = m_vertex_stabilizer(graph, instance.matching)
        outputs = {
            "status": result.status,
            "S": labels_doc(graph, result.removed),
            "S1": labels_doc(graph, result.first_phase),
            "S2": labels_doc(graph, result.second_phase),
            "w_M": _exact_str(result.matching_weight),
        }
        certificates = {
            "diagnostics": [
                {
                    "reason": reason,
                    "vertex": graph.label_of(u),
                    "other": graph.label_of(v) if v is not None else None,
                }
                for reason, u, v in result.diagnostics
            ],
        }
        if result.status == INFEASIBLE:
            # x lives on G - delta(X), X the M-exposed vertices, and outweighs M
            certificates["x"] = _x_entries(result.x)
            exit_code = 2
        else:
            outputs["residual_nu_f"] = _exact_str(result.residual_nu_f)
            certificates["residual_cover"] = _cover_doc(graph, result.residual_cover, result.removed)
    elif command == "check-stability":
        nu, witness = oracle_mod.exact_nu(graph)
        bfm, cover = solve_fractional(graph)
        nu_f = bfm.weight  # the pair is proven optimal, so w(x) = nu_f
        outputs = {"stable": nu == nu_f, "nu": _exact_str(nu), "nu_f": _exact_str(nu_f)}
        certificates = {
            "max_matching": pairs_doc(graph, witness),
            "x": _x_entries(bfm),
            "cover": _cover_doc(graph, cover),
        }
    else:  # pragma: no cover - guarded by the parser
        raise UnknownCommand(command)

    doc = {
        "command": command,
        "instance_sha256": digest,
        "outputs": outputs,
        "certificates": certificates,
    }
    return doc, exit_code


def _run_oracle(sub: str, instance: Instance, path: str, digest: str) -> tuple[dict, int]:
    graph = instance.graph
    outputs: dict[str, Any] = {}
    if sub == "nu":
        value, witness = oracle_mod.exact_nu(graph)
        outputs = {"nu": _exact_str(value), "matching": pairs_doc(graph, witness)}
    elif sub == "nu-f":
        outputs = {"nu_f": _exact_str(oracle_mod.exact_nu_f(graph))}
    elif sub == "gamma":
        outputs = {"gamma": oracle_mod.brute_gamma(graph)}
    elif sub == "stable":
        outputs = {"stable": oracle_mod.is_stable(graph)}
    elif sub == "min-vertex-stabilizer":
        subset = oracle_mod.brute_min_vertex_stabilizer(graph)
        outputs = {"S": labels_doc(graph, subset), "size": len(subset)}
    elif sub == "min-edge-stabilizer":
        subset = oracle_mod.brute_min_edge_stabilizer(graph)
        outputs = {
            "F": _edges_doc(graph, sorted(subset)),
            "size": len(subset),
        }
    elif sub == "min-m-stabilizer":
        if instance.matching is None:
            raise MatchingRequired(f'{path}: min-m-stabilizer needs a "matching" field')
        result = oracle_mod.brute_min_m_stabilizer(graph, instance.matching)
        if result == oracle_mod.INFEASIBLE:
            outputs = {"status": "infeasible"}
        else:
            outputs = {"status": "feasible", "S": labels_doc(graph, result)}
    else:  # pragma: no cover - guarded by the parser
        raise UnknownCommand(sub)
    doc = {
        "command": f"oracle {sub}",
        "instance_sha256": digest,
        "outputs": outputs,
        "certificates": {},
    }
    return doc, 0


# ---------------------------------------------------------------------------
# selftest: compact randomized cross-checks with a fixed seed


def _random_graph(rng, n_max=7, weight_max=5) -> WeightedGraph:
    import itertools as it

    n = rng.randint(2, n_max)
    possible = list(it.combinations(range(n), 2))
    m = rng.randint(0, min(len(possible), n + 3))
    edges = [(u, v, rng.randint(1, weight_max)) for u, v in rng.sample(possible, m)]
    return WeightedGraph.from_edges(n, edges)


def _random_matching(rng, graph: WeightedGraph) -> Matching:
    pairs = []
    used: set[int] = set()
    shuffled = list(graph.ends)
    rng.shuffle(shuffled)
    for u, v in shuffled:
        if u not in used and v not in used and rng.random() < 0.5:
            pairs.append((u, v))
            used.update((u, v))
    return Matching.from_pairs(pairs)


def _run_selftest(seed: int) -> int:
    import random

    from .walks import optimal_walks

    rng = random.Random(seed)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"selftest {name}: {'ok' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1

    ok = True
    for _ in range(20):
        g = _random_graph(rng)
        result = reduce_cycles(g)
        if result.gamma != oracle_mod.brute_gamma(g):
            ok = False
        if result.weight != oracle_mod.exact_nu_f(g):
            ok = False
    report("min-cycles-vs-oracle", ok, "20 random graphs")

    ok = True
    for _ in range(12):
        g = _random_graph(rng)
        res = min_vertex_stabilizer(g)
        if len(res.removed) != len(oracle_mod.brute_min_vertex_stabilizer(g)):
            ok = False
        if not oracle_mod.is_stable(g.delete_stars(res.removed)):
            ok = False
    report("vertex-stabilizer-vs-oracle", ok, "12 random graphs")

    ok = True
    for _ in range(12):
        g = _random_graph(rng, n_max=6)
        matching = _random_matching(rng, g)
        s = rng.randrange(g.n)
        k = rng.randint(0, 6)
        tables = optimal_walks(g, matching, s, k)
        brute = oracle_mod.optimal_walk_values(g, matching, s, k)
        for v in range(g.n):
            expected = brute[k][v]
            got = tables.y2[v] if matching.covers(v) else tables.y1[v]
            if expected != got:
                ok = False
    report("walk-dp-vs-enumeration", ok, "12 random runs")

    ok = True
    for _ in range(8):
        g = _random_graph(rng)
        matching = _random_matching(rng, g)
        res = m_vertex_stabilizer(g, matching)
        brute = oracle_mod.brute_min_m_stabilizer(g, matching)
        if brute == oracle_mod.INFEASIBLE:
            if res.status != INFEASIBLE:
                ok = False
        else:
            if res.status != "feasible" or len(res.removed) > 2 * len(brute):
                ok = False
    report("m-stabilizer-vs-oracle", ok, "8 random runs")

    print(f"selftest: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def _parse_args(args_list: list[str]) -> argparse.Namespace:
    """The Namespace of argv.

    The two plain forms build no parser: `<run command> PATH [PATH ...]`
    and `verify PATH --result PATH`, where no PATH starts with `-`. Building the two argparse parsers costs about a third
    of a whole desk-scale command, and these forms are nearly every call.
    Every other argv goes through `_parse_with_parsers`, so `--timing`,
    `--`, `-h` and every error keep argparse's own handling and messages;
    on the plain forms it returns the same Namespace."""
    command, rest = args_list[0] if args_list else None, args_list[1:]
    dashed = [i for i, arg in enumerate(rest) if arg.startswith("-")]
    if command in RUN_COMMANDS and rest and not dashed:
        return argparse.Namespace(timing=False, command=command, rest=rest, instances=rest)
    if command == "verify" and len(rest) == 3 and rest[1] == "--result" and dashed == [1]:
        return argparse.Namespace(
            timing=False, command=command, rest=rest, instance=rest[0], result=rest[2]
        )
    return _parse_with_parsers(args_list)


def _parse_with_parsers(args_list: list[str]) -> argparse.Namespace:
    """Parse argv in two stages: `--timing` and the command name first, then
    the rest with a parser built for that one command alone."""
    parser = _Parser(prog="matchstab", description=__doc__)
    parser.add_argument("--timing", action="store_true", help="append wall-clock timing")
    parser.add_argument("command", choices=(*RUN_COMMANDS, "oracle", "verify", "selftest"))
    rest = parser.add_argument("rest", nargs=argparse.REMAINDER, help="the command's arguments")
    rest.required = False  # an empty argv reports the missing command alone
    args = parser.parse_args(args_list)
    p = _Parser(prog=f"matchstab {args.command}")
    if args.command == "verify":
        p.add_argument("instance")
        p.add_argument("--result", required=True, help="result document to re-check")
    elif args.command == "selftest":
        p.add_argument("--seed", type=int, default=0)
    else:
        if args.command == "oracle":
            p.add_argument("oracle_command", choices=ORACLE_SUBCOMMANDS)
        p.add_argument("instances", nargs="+")
    return p.parse_args(args.rest, namespace=args)


def _load_instance(path: str) -> tuple[Instance, str]:
    """The parsed instance file and the sha256 of its bytes, read once."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if "\r" in text:  # the newline translation of a text-mode read
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_instance(text), hashlib.sha256(data).hexdigest()


def _emit(doc: dict, timing: Optional[float], compact: bool) -> None:
    if timing is not None:
        doc = dict(doc)
        doc["timing_seconds"] = timing
    if compact:
        sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(args_list)
        if args.command == "selftest":
            return _run_selftest(args.seed)
        if args.command == "verify":
            try:
                result_doc = load_result(Path(args.result).read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ParseError(f"{args.result}: {exc}") from exc
            doc, code = verify(*_load_instance(args.instance), result_doc)
            _emit(doc, None, compact=False)
            return code

        final = 0
        for path in args.instances:  # one document per line when there are several
            started = time.monotonic()
            instance, digest = _load_instance(path)
            if args.command == "oracle":
                doc, code = _run_oracle(args.oracle_command, instance, path, digest)
            else:
                doc, code = _run_command(args.command, instance, path, digest)
            elapsed = time.monotonic() - started
            _emit(doc, elapsed if args.timing else None, compact=len(args.instances) > 1)
            final = max(final, code)
        return final
    except MatchstabError as exc:
        print(f"matchstab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
