"""Seeded end-to-end benchmark of the matchstab CLI.

    python3 bench/run.py --workload tri-chain --seed 1 --seconds 25 --trace 0

Generates seeded instance files (see ``families.py`` for the workloads),
drives them serially through ``matchstab.cli.main`` in this one process with
stdout captured, re-checks every result document with ``matchstab verify``
and with independent checks, and prints each metric by name with its unit
and sample count. The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

One operation takes one instance through its workload's command list and
then verifies every document it produced. A run measures a fixed number of
whole rounds of the workload's size ladder, ``--seconds`` over the nominal
round time (``families.ROUND_S``), so it lasts about ``--seconds`` and a
faster commit times the same instances as a slower one.

Each round starts with the set-up a per-instance CLI user pays: a fresh
import of ``matchstab`` and generating and writing the round's instance
files. ``setup_s`` is the median of these over the rounds, so that, like
every other metric, it samples the whole run and not one moment of it.

Times are scaled to a reference machine speed. On a 2-CPU host shared with
other tenants the speed of the cores changed by up to a third between runs,
so a fixed mix of Python work that never touches matchstab
(``calibration_s``) is timed between operations, and each operation's times
are multiplied by ``CAL_REF_S`` over the mean of the calibrations before and
after it. The same metrics without scaling are printed on the ``unscaled``
line; ``collect.py`` records the spread over seeds of both.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces every
operation, reports the per-layer metrics per operation and the traced
``cmd_s`` median, and writes the spans to
``.bench_work/spans-<workload>-seed<seed>.jsonl``. The same seed times the
same instances with and without tracing, so the tracing overhead is the
difference of the two runs' ``cmd_s`` medians (``collect.py`` reports it).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import families
import tracing

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"

# Calibration time at the reference speed: about the median on a 2-CPU x86
# host with Python 3.11 while other tenants load its cores.
CAL_REF_S = 0.005

PREDICTED_DOMINANT = {
    "tri-chain": ("cycles", "edmonds"),
    "dense-lp": ("lp",),
    "mstab-sparse": ("walks",),
    "desk-batch": ("oracle", "cli", "instance"),
}


def import_matchstab():
    """Import ``matchstab.cli`` afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "matchstab" or m.startswith("matchstab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("matchstab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"matchstab imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def _best_of_three(work) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - started)
    return best


def _arithmetic() -> None:
    total = 0
    for i in range(40000):
        total += i * i % 7


def _containers() -> None:
    for i in range(600):
        items = tuple(range(i % 17))
        table = {x: (x, i) for x in items}
        sorted(table, reverse=True)
        frozenset(items)


def _json_round_trip() -> None:
    json.loads(json.dumps({"edges": [{"u": f"v{i}", "w": str(i)} for i in range(300)]}))


def calibration_s() -> float:
    """Time a fixed mix of Python work that never touches matchstab."""
    return sum(_best_of_three(w) for w in (_arithmetic, _containers, _json_round_trip))


def clear_caches() -> None:
    """Drop every memo in the package, as a fresh CLI process would start."""
    for mod in tracing.package_modules():
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def write_instances(insts, directory: Path):
    directory.mkdir(parents=True)
    out = []
    for i, inst in enumerate(insts):
        path = directory / f"{i:02d}-{inst.family}{inst.size}.json"
        path.write_text(inst.to_json(), encoding="utf-8")
        out.append((inst, path))
    return out


class OperationError(Exception):
    """The program crashed or exited with an unexpected code."""


class Runner:
    def __init__(self, workload: str, tracer: tracing.Tracer, traced: bool):
        self.workload = workload
        self.commands = families.COMMANDS[workload]
        self.cli = None  # the freshly imported matchstab.cli of the current round
        self.tracer = tracer
        self.traced = traced
        self.records: list[dict] = []
        self.problems: list[str] = []

    def _call(self, argv: list[str]) -> tuple[int, str, float]:
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash inside the program fails the operation
                raise OperationError(f"{argv[0]} raised {type(exc).__name__}: {exc}") from exc
            elapsed = time.perf_counter() - started
        if code not in families.expected_exit_codes(argv[0]):
            raise OperationError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return code, out.getvalue(), elapsed

    def operation(self, inst, path: Path, cal_before: float) -> tuple[list[str], float]:
        """Run one instance through the command list.

        Returns its documents and the calibration time measured after it;
        ``cal_before`` is the one measured before.

        A crash or an unexpected exit code fails the operation; a document
        that ``verify`` rejects or that the independent checks contradict
        fails it and also makes the run incorrect. ``op_s`` runs from the
        first command to the last verify or the crash; the independent
        checks come after it.
        """
        tr = self.tracer
        tr.op = len(self.records)
        texts, codes, errors, wrong = [], {}, [], []
        cmd_s = verify_s = 0.0
        started, ended = time.perf_counter(), None
        try:
            tr.phase = "cmd" if self.traced else None
            for command in self.commands:
                code, text, elapsed = self._call([command, str(path)])
                cmd_s += elapsed
                texts.append(text)
                codes[command] = code
                path.with_suffix(f".{command}.out").write_text(text, encoding="utf-8")
            tr.phase = "verify" if self.traced else None
            for command in self.commands:
                result = path.with_suffix(f".{command}.out")
                _code, text, elapsed = self._call(["verify", str(path), "--result", str(result)])
                verify_s += elapsed
                report = json.loads(text)
                if not report["verified"]:
                    failing = [c["name"] for c in report["checks"] if not c["ok"]]
                    wrong.append(f"{command}: verify rejects the document: {failing}")
            tr.phase = None
            ended = time.perf_counter()
            docs = {c: json.loads(t) for c, t in zip(self.commands, texts)}
            wrong += families.check(self.workload, inst, docs, codes)
        except OperationError as exc:
            errors.append(str(exc))
        except (ValueError, KeyError, TypeError) as exc:
            wrong.append(f"malformed document: {exc!r}")
        finally:
            tr.phase = None
            if ended is None:
                ended = time.perf_counter()
        cal_after = calibration_s()
        self.records.append({
            "cmd_s": cmd_s, "verify_s": verify_s, "op_s": ended - started,
            "scale": CAL_REF_S / ((cal_before + cal_after) / 2),
            "ok": not (errors or wrong), "wrong": bool(wrong),
        })
        for p in errors + wrong:
            self.problems.append(f"{path.parent.name}/{path.name}: {p}")
        return texts, cal_after


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records: list[dict], setups: list[tuple[float, float]], scaled: bool) -> dict:
    """The end-to-end metrics as name -> (value, unit, note); ``setups``
    holds (seconds, scale) per set-up."""
    def t(r, key):
        return r[key] * (r["scale"] if scaled else 1.0)

    ok = [r for r in records if r["ok"]]
    out = {}
    for key in ("cmd_s", "verify_s"):
        values = [t(r, key) for r in ok]
        tail, pct = percentile_tail(values)
        out[f"{key}.p50"] = (statistics.median(values), "s", f"n={len(values)} completed")
        out[f"{key}.tail"] = (tail, "s", f"p{pct:.0f}, n={len(values)} completed")
    wall = sum(t(r, "op_s") for r in records)
    out["instances_per_s"] = (
        len(ok) / wall, "1/s",
        f"{len(ok)} completed in {wall:.4g} s of operations, failed ones included",
    )
    out["setup_s"] = (
        statistics.median(s * (scale if scaled else 1.0) for s, scale in setups), "s",
        f"median of n={len(setups)} rounds (import matchstab, write the round)",
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(families.LADDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    n_rounds = max(2, round(args.seconds / families.ROUND_S[args.workload]))
    gen = families.Generator(args.workload, args.seed)
    tracer = tracing.Tracer()
    runner = Runner(args.workload, tracer, trace)
    digest = hashlib.sha256()
    setups: list[tuple[float, float]] = []
    cal = calibration_s()
    try:
        for rnd in range(n_rounds):
            started = time.perf_counter()
            runner.cli = import_matchstab()
            batch = write_instances(gen.round(), work / f"r{rnd}")
            elapsed = time.perf_counter() - started
            cal_after = calibration_s()
            setups.append((elapsed, CAL_REF_S / ((cal + cal_after) / 2)))
            cal = cal_after
            if trace:
                tracer.install()
            try:
                for inst, path in batch:
                    texts, cal = runner.operation(inst, path, cal)
                    for text in texts:
                        digest.update(text.encode("utf-8"))
            finally:
                tracer.uninstall()
            shutil.rmtree(work / f"r{rnd}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} operations in "
        f"{n_rounds} rounds of {attempted // n_rounds}, commands {' '.join(runner.commands)}"
    )
    print(
        f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} operations failed, "
        f"{wrong} of them with a wrong document; timings sample the completed ones)"
    )
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"digest_sha256 {digest.hexdigest()} (all result documents of the run)")

    if failed == attempted:
        print("no operation completed, so there are no timings to report", file=sys.stderr)
        return 1
    metrics: dict[str, dict] = {}

    def report(name: str, value: float, unit: str, note: str) -> None:
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<44} {value:>14.6g} {unit:<10} {note}")

    done = {op: r["scale"] for op, r in enumerate(records) if r["ok"]}
    if not trace:
        for name, (value, unit, note) in end_to_end(records, setups, True).items():
            report(name, value, unit, note)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report("peak_rss_mb", peak, "MB", "n=1, whole run")
        raw = {k: v[0] for k, v in end_to_end(records, setups, False).items()}
        raw["speed_factor.p50"] = statistics.median(done.values())
        print("unscaled " + json.dumps(raw))
    else:
        cmd_s = [records[op]["cmd_s"] * scale for op, scale in done.items()]
        layer = tracer.summary(done, sum(cmd_s))
        for name, (value, unit) in layer.items():
            report(name, value, unit, f"n={len(done)} traced operations")
        report("trace.cmd_s.p50_traced", statistics.median(cmd_s), "s", f"n={len(done)}")
        shares = {m: layer[f"{m}.share_of_cmd"][0] for m in tracing.LAYERS}
        predicted = PREDICTED_DOMINANT[args.workload]
        share = sum(shares[m] for m in predicted)
        top = sorted(shares, key=shares.get, reverse=True)[:3]
        verdict = "confirmed" if share >= 0.5 else "contradicted"
        print(
            f"prediction {'+'.join(predicted)} dominates cmd_s: {verdict} "
            f"(self-time share {share:.3f}; top layers "
            + ", ".join(f"{m} {shares[m]:.3f}" for m in top) + ")"
        )
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
