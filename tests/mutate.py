"""Mutation testing of `verify`'s trusted base, run by hand:

    python tests/mutate.py certify._verify certify._halves_from_entries

A mutant is the package with one small fault planted in one function of
TRUSTED_BASE (tests/test_trusted_base.py), named here without its
`matchstab.` prefix. The operators:

- a comparison swapped: `<` and `<=`, `>` and `>=`, `==` and `!=`, `in` and
  `not in`, `is` and `is not`;
- `and` for `or`, or the reverse;
- an int constant moved by +1 or by -1;
- one `checks.append(...)` statement dropped.

Each mutant is written into a copy of the repository's files (tracked and
untracked, not ignored), so that every path a test derives from its own
file leads to the mutant: the mutated function replaces the original as
`ast.unparse` prints it, padded with blank lines to its old length, so
every other line keeps its number. The unmutated function, printed the same
way, runs first as the control and must pass. Then the verify-heavy
modules run on each mutant, stopping at the first failure, and the whole
of tier-1 runs only on their survivors. A mutant that tier-1 does not
reject is a test gap, a forgery class that no test presents, or an
equivalent mutant, such as a check that decides nothing; each survivor is
printed for the reader to sort into one or the other.

Pytest does not collect this file, as its name does not start with
`test_`. It is too slow for tier-1: each mutant runs pytest once or twice.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matchstab"

# the modules that present the most forged documents to `verify`
VERIFY_HEAVY = [
    "tests/test_verify_fields.py",
    "tests/test_instance_cli.py",
    "tests/test_cover_checks.py",
    "tests/test_codec.py",
    "tests/test_fault_injection.py",
]
TIMEOUT_S = 900  # per pytest run: a mutant may loop forever

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}


def trusted_base() -> set[str]:
    """TRUSTED_BASE, read from the test's source, so that nothing is imported."""
    tree = ast.parse((ROOT / "tests" / "test_trusted_base.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRUSTED_BASE"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_trusted_base.py defines no TRUSTED_BASE")


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    """The function `qualname` ("f" or "Class.f") at the top of `tree`."""
    body = tree.body
    *classes, name = qualname.split(".")
    for part in classes:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == part).body
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SystemExit(f"no function {qualname}")


def _is_check_append(node: ast.AST) -> bool:
    call = node.value if isinstance(node, ast.Expr) else None
    return (
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "append" and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "checks"
    )


def mutations(function: ast.FunctionDef):
    """Each mutation of `function` as (description, path, apply): `path`
    finds the node in a deep copy of `function`, and `apply` plants the
    fault in that node in place."""
    out = []

    def walk(node, path):
        for field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for i, child in enumerate(children):
                if isinstance(child, ast.AST):
                    visit(child, path + ((field, i if isinstance(value, list) else None),))

    def visit(node, path):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    swap = SWAPS[type(op)]
                    out.append((
                        f"line {line}: `{SYMBOLS[type(op)]}` -> `{SYMBOLS[swap]}`", path,
                        lambda n, k=k, swap=swap: n.ops.__setitem__(k, swap()),
                    ))
        elif isinstance(node, ast.BoolOp):
            other = ast.Or if isinstance(node.op, ast.And) else ast.And
            out.append((
                f"line {line}: `{'and' if other is ast.Or else 'or'}` -> "
                f"`{'or' if other is ast.Or else 'and'}`", path,
                lambda n, other=other: setattr(n, "op", other()),
            ))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                out.append((
                    f"line {line}: {node.value} -> {node.value + step}", path,
                    lambda n, step=step: setattr(n, "value", n.value + step),
                ))
        elif _is_check_append(node):
            out.append((
                f"line {line}: drop `{ast.unparse(node)[:60]}`", path,
                lambda n: setattr(n, "value", ast.Constant(None)),
            ))
        walk(node, path)

    walk(function, ())
    return out


def _node_at(node: ast.AST, path) -> ast.AST:
    for field, i in path:
        node = getattr(node, field) if i is None else getattr(node, field)[i]
    return node


def printed(source_lines: list[str], function: ast.FunctionDef, new: ast.FunctionDef) -> str:
    """The module's source with `function` replaced by `new`, printed by
    `ast.unparse` at its indentation and padded to its line count."""
    first = min([function.lineno] + [d.lineno for d in function.decorator_list])
    last = function.end_lineno
    indent = " " * function.col_offset
    text = [indent + line if line else line for line in ast.unparse(new).split("\n")]
    text += [""] * (last - first + 1 - len(text))
    return "".join(
        source_lines[:first - 1] + [line + "\n" for line in text] + source_lines[last:]
    )


def copy_repository(work: Path) -> None:
    """The repository's files, tracked and untracked but not ignored, as
    they are on disk, into `work`."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, work / name)


def run_tests(work: Path, modules: list[str]) -> str:
    """"pass", "timeout", or "fail" and the test that failed first, of
    pytest on `modules` in `work`, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             *modules],
            cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "pass"
    failed = [line.split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "fail: " + (failed[0].split(" ", 1)[1] if failed else f"exit {proc.returncode}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", help='e.g. "certify._verify"')
    parser.add_argument("--work", type=Path,
                        help="an empty directory for the copy, kept (default: a temporary one)")
    args = parser.parse_args(argv)

    base = trusted_base()
    for name in args.functions:
        if f"matchstab.{name}" not in base:
            parser.error(f"{name} is not in TRUSTED_BASE")
    with tempfile.TemporaryDirectory(prefix="matchstab-mutants-") as temporary:
        work = args.work or Path(temporary)
        copy_repository(work)
        survivors = [s for name in args.functions for s in run_function(work, name)]
    print(f"{len(survivors)} survivors" + "".join(f"\n  {s}" for s in survivors))
    return 0


def run_function(work: Path, name: str) -> list[str]:
    """Run the control and every mutant of the function `name` in `work`,
    printing each outcome; returns the survivors."""
    survivors = []
    module, qualname = name.split(".", 1)
    target = work / "src" / "matchstab" / f"{module}.py"
    original = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    lines = original.splitlines(keepends=True)
    function = find_function(ast.parse(original), qualname)
    target.write_text(printed(lines, function, function), encoding="utf-8")
    if run_tests(work, VERIFY_HEAVY) != "pass":
        raise SystemExit(f"{name}: the control, the function as printed, fails")
    found = mutations(function)
    print(f"{name}: {len(found)} mutants", flush=True)
    for description, path, apply in found:
        mutant = copy.deepcopy(function)
        apply(_node_at(mutant, path))
        target.write_text(printed(lines, function, ast.fix_missing_locations(mutant)),
                          encoding="utf-8")
        start = time.monotonic()
        outcome = run_tests(work, VERIFY_HEAVY)
        if outcome == "pass":
            outcome = "tier-1 " + run_tests(work, ["tests"])
        print(f"  {name} {description}: {outcome} ({time.monotonic() - start:.0f} s)", flush=True)
        if outcome == "tier-1 pass":
            survivors.append(f"{name} {description}")
    target.write_text(original, encoding="utf-8")
    return survivors


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
