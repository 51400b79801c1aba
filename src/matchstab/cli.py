"""Command-line interface: argv, files and their bytes, exit codes, and the
dispatch of each command to its solver or oracle; `selftest` too.

The CLI writes no JSON: `certify` is the codec of the result document, with
the envelope, each field's writer, `render`, which writes a document's
text, and `verify`, which reads the fields back with pure arithmetic. The
CLI fills the envelope with those writers, adds `timing_seconds` under
--timing, and prints what `render` returns. Every numeric value in a result
document is an exact fraction string; counts are plain integers. Identical
inputs produce byte-identical output (timing is only emitted under --timing
for that reason).

The format is a contract. A single-file document, like every `verify`
report, is exactly `json.dumps(doc, indent=2)` of its value and one
trailing newline: a two-space indent, ASCII only with `\\uXXXX` escapes,
keys in the order written. Several instance files print one compact line
each, the compact re-encoding of that indented text,
`json.dumps(json.loads(text), separators=(",", ":"))`.

A run command or oracle subcommand has one failure rule. The inputs it
refuses, BudgetExceeded and MatchingRequired, exit 1 like every other input
error. Any other exception raised while it computes its document failed
inside a solver: no document is printed, and stderr names the failure, by
`_internal_error`, and the instance's sha256, with exit code 3. The solvers
hold no `assert`, so a run does the same under `python -O`.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Any, Optional

from . import oracle as oracle_mod
from .certify import (
    cover_doc, diagnostics_doc, document, events_doc, exact_str, fractional_doc, labels_doc,
    load_result, pairs_doc, quoted_labels, render, surviving_doc, verify, x_entries,
)
from .cycles import reduce_cycles
from .errors import BudgetExceeded, MatchingRequired, MatchstabError, ParseError
from .graph import Matching, WeightedGraph
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
        raise ParseError(message)


def _run_command(command: str, instance: Instance, path: str, digest: str) -> tuple[dict, int]:
    graph = instance.graph
    names = quoted_labels(graph)
    outputs: dict[str, Any] = {}
    certificates: dict[str, Any] = {}
    exit_code = 0

    if command == "solve-fractional":
        bfm, cover = solve_fractional(graph)
        outputs = fractional_doc(names, bfm)
        certificates = {"cover": cover_doc(names, cover)}
    elif command in ("min-cycles", "gamma"):
        result = reduce_cycles(graph)
        if command == "gamma":
            # x is printed once: among the outputs of min-cycles, here in the certificate
            outputs = {"gamma": result.gamma}
            certificates = {"x": x_entries(names, result.solution)}
        else:
            outputs = {"gamma": result.gamma, **fractional_doc(names, result.solution)}
        certificates["cover"] = cover_doc(names, result.cover)
        certificates["events"] = events_doc(names, result.events)
    elif command == "stabilize-vertices":
        result = min_vertex_stabilizer(graph)
        try:
            nu_before: Optional[str] = exact_str(oracle_mod.exact_nu(graph)[0])
        except BudgetExceeded:
            nu_before = None  # the 2/3 guarantee holds but is not reported
        outputs = {
            "S": labels_doc(names, result.removed),
            "gamma": result.gamma,
            "nu_before": nu_before,
            "nu_after": exact_str(result.nu_after),
        }
        certificates = surviving_doc(names, result)
    elif command == "stabilize-edges":
        result = edge_stabilizer_approx(graph)
        outputs = {
            "F": pairs_doc(names, [graph.ends[i] for i in result.removed_edges]),
            "size": len(result.removed_edges),
            "gamma": result.gamma,
            "lower_bound": result.lower_bound,
            "upper_bound": result.upper_bound,
        }
        vertex_stab = result.vertex_result
        certificates = {
            "S": labels_doc(names, vertex_stab.removed), **surviving_doc(names, vertex_stab)
        }
    elif command == "m-stabilize":
        if instance.matching is None:
            raise MatchingRequired(f'{path}: m-stabilize needs a "matching" field')
        result = m_vertex_stabilizer(graph, instance.matching)
        outputs = {
            "status": result.status,
            "S": labels_doc(names, result.removed),
            "S1": labels_doc(names, result.first_phase),
            "S2": labels_doc(names, result.second_phase),
            "w_M": exact_str(result.matching_weight),
        }
        certificates = {"diagnostics": diagnostics_doc(names, result.diagnostics)}
        if result.status == INFEASIBLE:
            # x lives on G - delta(X), X the M-exposed vertices, and outweighs M
            certificates["x"] = x_entries(names, result.x)
            exit_code = 2
        else:
            outputs["residual_nu_f"] = exact_str(result.residual_nu_f)
            certificates["residual_cover"] = cover_doc(names, result.residual_cover, result.removed)
    elif command == "check-stability":
        nu, witness = oracle_mod.exact_nu(graph)
        bfm, cover = solve_fractional(graph)
        nu_f = bfm.weight  # the pair is proven optimal, so w(x) = nu_f
        outputs = {"stable": nu == nu_f, "nu": exact_str(nu), "nu_f": exact_str(nu_f)}
        certificates = {
            "max_matching": pairs_doc(names, witness.sorted_pairs()),
            "x": x_entries(names, bfm),
            "cover": cover_doc(names, cover),
        }
    return document(command, digest, outputs, certificates), exit_code


def _run_oracle(sub: str, instance: Instance, path: str, digest: str) -> tuple[dict, int]:
    graph = instance.graph
    names = quoted_labels(graph)
    outputs: dict[str, Any] = {}
    if sub == "nu":
        value, witness = oracle_mod.exact_nu(graph)
        outputs = {"nu": exact_str(value), "matching": pairs_doc(names, witness.sorted_pairs())}
    elif sub == "nu-f":
        outputs = {"nu_f": exact_str(oracle_mod.exact_nu_f(graph))}
    elif sub == "gamma":
        outputs = {"gamma": oracle_mod.brute_gamma(graph)}
    elif sub == "stable":
        outputs = {"stable": oracle_mod.is_stable(graph)}
    elif sub == "min-vertex-stabilizer":
        subset = oracle_mod.brute_min_vertex_stabilizer(graph)
        outputs = {"S": labels_doc(names, subset), "size": len(subset)}
    elif sub == "min-edge-stabilizer":
        subset = oracle_mod.brute_min_edge_stabilizer(graph)
        edges = [graph.ends[i] for i in sorted(subset)]
        outputs = {"F": pairs_doc(names, edges), "size": len(subset)}
    elif sub == "min-m-stabilizer":
        if instance.matching is None:
            raise MatchingRequired(f'{path}: min-m-stabilizer needs a "matching" field')
        result = oracle_mod.brute_min_m_stabilizer(graph, instance.matching)
        if result == oracle_mod.INFEASIBLE:
            outputs = {"status": "infeasible"}
        else:
            outputs = {"status": "feasible", "S": labels_doc(names, result)}
    return document(f"oracle {sub}", digest, outputs, {}), 0


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

    def min_cycles() -> bool:
        g = _random_graph(rng)
        result = reduce_cycles(g)
        gamma, nu_f = oracle_mod.brute_gamma(g), oracle_mod.exact_nu_f(g)
        return result.gamma == gamma and result.weight == nu_f

    def vertex_stabilizer() -> bool:
        g = _random_graph(rng)
        res = min_vertex_stabilizer(g)
        brute = oracle_mod.brute_min_vertex_stabilizer(g)
        return len(res.removed) == len(brute) and oracle_mod.is_stable(g.delete_stars(res.removed))

    def walk_dp() -> bool:
        g = _random_graph(rng, n_max=6)
        matching = _random_matching(rng, g)
        s, k = rng.randrange(g.n), rng.randint(0, 6)
        tables = optimal_walks(g, matching, s, k)
        brute = oracle_mod.optimal_walk_values(g, matching, s, k)[k]
        return all(
            brute[v] == (tables.y2[v] if matching.covers(v) else tables.y1[v]) for v in range(g.n)
        )

    def m_stabilizer() -> bool:
        g = _random_graph(rng)
        matching = _random_matching(rng, g)
        res = m_vertex_stabilizer(g, matching)
        brute = oracle_mod.brute_min_m_stabilizer(g, matching)
        if brute == oracle_mod.INFEASIBLE:
            return res.status == INFEASIBLE
        return res.status == "feasible" and len(res.removed) <= 2 * len(brute)

    # every run of every check runs, in this order, so that a seed always
    # draws the same instances and prints the same lines
    checks = (
        ("min-cycles-vs-oracle", min_cycles, 20, "random graphs"),
        ("vertex-stabilizer-vs-oracle", vertex_stabilizer, 12, "random graphs"),
        ("walk-dp-vs-enumeration", walk_dp, 12, "random runs"),
        ("m-stabilizer-vs-oracle", m_stabilizer, 8, "random runs"),
    )
    failures = 0
    for name, trial, runs, what in checks:
        ok = all([trial() for _ in range(runs)])
        print(f"selftest {name}: {'ok' if ok else 'FAIL'} ({runs} {what})")
        failures += not ok
    print(f"selftest: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def _parse_args(args_list: list[str]) -> argparse.Namespace:
    """The Namespace of argv.

    The two plain forms build no parser: `<run command> PATH [PATH ...]`
    and `verify PATH --result PATH`, where no PATH starts with `-`.
    Building the argparse tree costs about 0.8 ms (Python 3.11 on a
    2-CPU Xeon), and these forms are nearly every call. Every other argv goes
    through `_parse_with_parser`, so `--timing`, `--`, `-h` and every
    error keep argparse's own handling and messages; on the plain forms it
    returns the same Namespace."""
    command, rest = args_list[0] if args_list else None, args_list[1:]
    dashed = [i for i, arg in enumerate(rest) if arg.startswith("-")]
    if command in RUN_COMMANDS and rest and not dashed:
        return argparse.Namespace(timing=False, command=command, instances=rest)
    if command == "verify" and len(rest) == 3 and rest[1] == "--result" and dashed == [1]:
        return argparse.Namespace(timing=False, command=command, instance=rest[0], result=rest[2])
    return _parse_with_parser(args_list)


def _parse_with_parser(args_list: list[str]) -> argparse.Namespace:
    """Parse argv with one argparse tree: `--timing`, then a subparser for
    each command and its own arguments."""
    parser = _Parser(prog="matchstab", description=__doc__)
    parser.add_argument("--timing", action="store_true", help="append wall-clock timing")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in (*RUN_COMMANDS, "oracle"):
        p = commands.add_parser(name)
        if name == "oracle":
            p.add_argument("oracle_command", choices=ORACLE_SUBCOMMANDS)
        p.add_argument("instances", nargs="+")
    p = commands.add_parser("verify")
    p.add_argument("instance")
    p.add_argument("--result", required=True, help="result document to re-check")
    commands.add_parser("selftest").add_argument("--seed", type=int, default=0)
    return parser.parse_args(args_list)


def _read(path: str) -> tuple[bytes, str]:
    """A file's bytes, read once, and their UTF-8 text with the newline
    translation of a text-mode read."""
    with open(path, "rb") as f:
        data = f.read()
    return data, data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_instance(path: str) -> tuple[Instance, str]:
    """The parsed instance file and the sha256 of its bytes, read once. A
    file that cannot be read or parsed is a ParseError that names it."""
    try:
        data, text = _read(path)
        instance = parse_instance(text)
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return instance, hashlib.sha256(data).hexdigest()


def _emit(doc: dict, timing: Optional[float], compact: bool) -> None:
    if timing is not None:
        doc = {**doc, "timing_seconds": timing}
    sys.stdout.write(render(doc, compact))


def _internal_error(exc: Exception) -> str:
    """What failed inside a solver: a MatchstabError by its message, which
    for a NotOptimalPair names the failed checks, and any other exception
    by its type and the module:line it was raised at."""
    if isinstance(exc, MatchstabError):
        return str(exc)
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return f"{type(exc).__name__} at {tb.tb_frame.f_globals['__name__']}:{tb.tb_lineno}"


def main(argv: Optional[list[str]] = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(args_list)
        if args.command == "selftest":
            return _run_selftest(args.seed)
        if args.command == "verify":
            started = time.monotonic()
            try:
                result_doc = load_result(_read(args.result)[1])
            except (OSError, ValueError, RecursionError) as exc:
                # ValueError covers undecodable bytes, malformed JSON, a
                # repeated key (a ParseError) and an integer literal past
                # Python's int digit limit
                raise ParseError(f"{args.result}: {exc}") from exc
            doc, code = verify(*_load_instance(args.instance), result_doc)
            _emit(doc, time.monotonic() - started if args.timing else None, compact=False)
            return code

        final = 0
        for path in args.instances:  # one document per line when there are several
            started = time.monotonic()
            instance, digest = _load_instance(path)
            try:
                if args.command == "oracle":
                    doc, code = _run_oracle(args.oracle_command, instance, path, digest)
                else:
                    doc, code = _run_command(args.command, instance, path, digest)
            except (BudgetExceeded, MatchingRequired):
                raise  # the two inputs a command refuses
            except Exception as exc:
                # anything else failed inside a solver: not an input error
                failed = _internal_error(exc)
                print(f"matchstab: internal error: {path}: {failed} (instance sha256 {digest})",
                      file=sys.stderr)
                return 3
            elapsed = time.monotonic() - started
            _emit(doc, elapsed if args.timing else None, compact=len(args.instances) > 1)
            final = max(final, code)
        return final
    except MatchstabError as exc:
        print(f"matchstab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
