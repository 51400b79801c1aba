"""Spans around the public functions of every ``matchstab`` module.

The tracer is installed from outside the program: each public module-level
function is replaced by a timing wrapper in every ``matchstab`` namespace
that holds it (``matchstab.cycles.grow_tree`` as well as
``matchstab.edmonds.grow_tree``), and put back afterwards. Methods are not
wrapped, so their time counts toward the calling function. Spans are kept in
memory as (name, start, end, parent, operation, phase) and written out at the
end; a few algorithm counts are read off arguments and return values at the
same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "cli", "instance", "lp", "graph", "cycles",
    "edmonds", "walks", "mstab", "stabilizers", "oracle",
)

# Functions whose calls, inclusive and self time are reported by name.
REPORTED = (
    "cli.main",
    "instance.parse_instance",
    "lp.solve_fractional",
    "lp.bipartite_max_weight_matching",
    "lp.normalize_to_basic",
    "lp.verify_optimal_pair",
    "graph.tight_edges",
    "graph.decompose",
    "cycles.reduce_cycles",
    "cycles.build_auxiliary",
    "cycles.apply_augmentation",
    "edmonds.grow_tree",
    "walks.optimal_walks",
    "walks.detect_structures",
    "mstab.m_vertex_stabilizer",
    "stabilizers.min_vertex_stabilizer",
    "stabilizers.edge_stabilizer_approx",
    "oracle.exact_nu",
    "oracle.exact_nu_f",
)

COUNTS = (
    "cycles.augmentations",
    "cycles.frustrations",
    "edmonds.grow_tree.augmenting",
    "walks.dp_iterations",
    "walks.relaxations_computed",
    "mstab.deletions",
    "mstab.feasible",
    "mstab.infeasible",
    "oracle.refused",
)


def _after_reduce_cycles(counts, args, kwargs, result):
    for event in result.events:
        kind = type(event).__name__
        if kind == "AugmentationEvent":
            counts["cycles.augmentations"] += 1
        elif kind == "FrustrationEvent":
            counts["cycles.frustrations"] += 1


def _after_grow_tree(counts, args, kwargs, result):
    if type(result).__name__ == "AugmentingPath":
        counts["edmonds.grow_tree.augmenting"] += 1


def _after_optimal_walks(counts, args, kwargs, result):
    # Every iteration relaxes both endpoints of every edge once.
    counts["walks.dp_iterations"] += result.k
    counts["walks.relaxations_computed"] += result.k * 2 * result.graph.m


def _after_m_vertex_stabilizer(counts, args, kwargs, result):
    counts["mstab.deletions"] += len(result.first_phase) + len(result.second_phase)
    counts[f"mstab.{result.status}"] += 1


_AFTER = {
    "cycles.reduce_cycles": _after_reduce_cycles,
    "edmonds.grow_tree": _after_grow_tree,
    "walks.optimal_walks": _after_optimal_walks,
    "mstab.m_vertex_stabilizer": _after_m_vertex_stabilizer,
}
_REFUSERS = ("oracle.exact_nu", "oracle.exact_nu_f")

_NAME, _START, _END, _PARENT, _OP, _PHASE, _CHILD = range(7)


def package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "matchstab" or name.startswith("matchstab."))
    ]


class Tracer:
    """Records spans while ``phase`` is set; ``phase = None`` passes through."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(Counter)  # operation -> counts
        self.op = -1
        self.phase = None
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)
        refuser = name in _REFUSERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, tracer.phase, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if refuser and type(exc).__name__ == "BudgetExceeded":
                    tracer.counts[tracer.op]["oracle.refused"] += 1
                raise
            finally:
                span[_END] = end = time.perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent][_CHILD] += end - span[_START]
            if after is not None:
                after(tracer.counts[tracer.op], args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = package_modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summary(self, ops: dict[int, float], cmd_total_s: float) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics over the operations ``ops`` and each
        layer's share of their command time, as name -> (value, unit).

        ``ops`` maps each operation to the speed factor its times are scaled
        by; ``cmd_total_s`` is already scaled.
        """
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        layer_cmd_self: defaultdict = defaultdict(float)
        for span in self.spans:
            if span[_OP] not in ops:
                continue
            name = span[_NAME]
            scale = ops[span[_OP]]
            duration = (span[_END] - span[_START]) * scale
            own = duration - span[_CHILD] * scale
            calls[name] += 1
            inclusive[name] += duration
            self_s[name] += own
            if span[_PHASE] == "cmd":
                layer_cmd_self[name.partition(".")[0]] += own
        per_op = max(len(ops), 1)
        counts = sum((self.counts[op] for op in ops), Counter())
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            out[f"{name}.calls"] = (calls[name] / per_op, "calls/op")
            out[f"{name}.s"] = (inclusive[name] / per_op, "s/op")
            out[f"{name}.self_s"] = (self_s[name] / per_op, "s/op")
        for name in COUNTS:
            out[name] = (counts[name] / per_op, "count/op")
        grown = calls["edmonds.grow_tree"]
        augmenting = counts["edmonds.grow_tree.augmenting"]
        out["edmonds.augmenting_ratio"] = (augmenting / grown if grown else 0.0, "ratio")
        for layer in LAYERS:
            share = layer_cmd_self[layer] / cmd_total_s if cmd_total_s else 0.0
            out[f"{layer}.share_of_cmd"] = (share, "ratio")
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][_START] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op, phase, _child in self.spans:
                fh.write(
                    json.dumps([name, start - origin, end - origin, parent, op, phase])
                    + "\n"
                )
