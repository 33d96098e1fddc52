"""Span recording for the traced benchmark run.

Wrappers are installed on the names each ``dpweights`` module looks up at
call time (for example ``dpweights.classify.is_solid``), never inside the
package's own code.  Each wrapped call records one span: name, start, end,
parent span and operation id.  Spans stay in flat in-memory arrays until
``Tracer.write`` dumps them at the end of the run.

Self time of a span is its duration minus the time covered by its direct
child spans; spans nest strictly because the program is single-threaded.
"""
from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

# A note receives (args, result, counters) and records result-derived counts.
Note = Callable[[tuple, object, Counter], None]


def _note_true(counter: str) -> Note:
    def note(args: tuple, result: object, counters: Counter) -> None:
        if result:
            counters[counter] += 1
    return note


def _note_len(counter: str | Callable[[tuple], str]) -> Note:
    def note(args: tuple, result: object, counters: Counter) -> None:
        key = counter(args) if callable(counter) else counter
        counters[key] += len(result)  # type: ignore[arg-type]
    return note


def _note_instantiate(args: tuple, result: object, counters: Counter) -> None:
    series, sporadic = result  # type: ignore[misc]
    counters["tables.instantiate.series"] += len(series)
    counters["tables.instantiate.sporadic"] += len(sporadic)


def _note_classification(args: tuple, result: object, counters: Counter) -> None:
    counters["classify.kept_series"] += len(result.two_param) + len(result.one_param)  # type: ignore[attr-defined]


def _enumerate_name(args: tuple) -> str:
    return f"classify.enumerate.c{args[0]}"


# (module, attribute looked up there, span name or a function of the call's
# arguments giving it, note)
SPANS: tuple[tuple[str, str, str | Callable[[tuple], str], Note | None], ...] = (
    ("dpweights.cli", "classify_index", "cli.classify_index", _note_classification),
    ("dpweights.cli", "expand_classification", "cli.expand_classification", None),
    ("dpweights.cli", "brute_force", "cli.brute_force", None),
    ("dpweights.cli", "quasismooth_divisibility", "cli.quasismooth_divisibility", None),
    ("dpweights.cli", "quasismooth_monomial", "cli.quasismooth_monomial", None),
    ("dpweights.cli", "is_valid", "cli.is_valid", None),
    ("dpweights.cli", "contains", "cli.contains", None),
    ("dpweights.cli", "obstruction_report", "cli.obstruction_report", None),
    ("dpweights.classify", "enumerate_class", _enumerate_name,
     _note_len(lambda args: _enumerate_name(args) + ".series")),
    ("dpweights.classify", "is_solid", "classify.is_solid", _note_true("classify.is_solid.true")),
    ("dpweights.classify", "make_series", "classify.make_series", None),
    ("dpweights.classify", "instantiate", "classify.instantiate", _note_instantiate),
    ("dpweights.classify", "canonical_key", "classify.canonical_key", None),
    ("dpweights.classify", "contains", "classify.contains", None),
    ("dpweights.classify", "quasismooth_divisibility", "classify.quasismooth_divisibility", None),
    ("dpweights.classify", "expand", "classify.expand", _note_len("series.expand.members")),
    ("dpweights.oracle", "quasismooth_monomial", "oracle.quasismooth_monomial", _note_true("oracle.hits")),
)

# Quintuple construction is too cheap to span; these lookups only count.
QUINTUPLE_LOOKUPS = ("dpweights.cli", "dpweights.classify", "dpweights.oracle", "dpweights.series")


class Tracer:
    """In-memory span store plus result-derived counters, split into passes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.op = -1
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.passes: list[tuple[int, int, Counter]] = []
        self._pass_start = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str | Callable[[tuple], str], note: Note | None = None) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        fixed = self._id(name) if isinstance(name, str) else None
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args))  # type: ignore[operator]
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, result, counters)
            return result

        return traced

    def counting(self, cls: type) -> Callable:
        """``cls`` counting constructions into ``core.quintuple.built``."""
        counters = self.counters

        def build(*args, **kwargs):
            counters["core.quintuple.built"] += 1
            return cls(*args, **kwargs)

        return build

    def install(self) -> Callable[[], None]:
        """Swap every traced lookup in; returns the function that swaps them back."""
        saved: list[tuple[object, str, object]] = []
        for module_name, attr, name, note in SPANS:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(getattr(module, attr), name, note))
        for module_name in QUINTUPLE_LOOKUPS:
            module = importlib.import_module(module_name)
            saved.append((module, "Quintuple", module.Quintuple))
            module.Quintuple = self.counting(module.Quintuple)

        def restore() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def begin_pass(self) -> None:
        self._pass_start = len(self.starts)
        self.counters.clear()

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.starts), Counter(self.counters)))

    def summarize(self, lo: int, hi: int) -> tuple[Counter, Counter, Counter]:
        """Calls per name, self seconds per name, and calls per (name, parent name)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child[p - lo] += self.ends[i] - self.starts[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        under: Counter = Counter()
        names = self.names
        for i in range(lo, hi):
            name = names[self.name_ids[i]]
            calls[name] += 1
            self_s[name] += self.ends[i] - self.starts[i] - child[i - lo]
            p = self.parents[i]
            if p >= lo:
                under[name, names[self.name_ids[p]]] += 1
        return calls, self_s, under

    def write(self, stem: Path, seed: int) -> None:
        """Dump spans as ``<stem>.json`` (layout) and ``<stem>.bin`` (arrays)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name_id", self.name_ids), ("parent", self.parents), ("op", self.ops),
                   ("start", self.starts), ("end", self.ends)]
        header = {
            "seed": seed,
            "spans": len(self.starts),
            "names": self.names,
            "passes": [[lo, hi] for lo, hi, _ in self.passes],
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, arr in columns:
                arr.tofile(fh)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(calls: Counter, self_s: Counter, under: Counter, counters: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    def both(metric: str, *spans: str) -> None:
        put(f"{metric}.calls", sum(calls[s] for s in spans), "count")
        put(f"{metric}.s", sum(self_s[s] for s in spans), "s")

    both("conditions.is_solid", "classify.is_solid")
    put("conditions.is_solid.pass_ratio",
        _ratio(counters["classify.is_solid.true"], calls["classify.is_solid"]), "ratio")
    put("core.quintuple.built", counters["core.quintuple.built"], "count")
    for c in range(1, 7):
        span = f"classify.enumerate.c{c}"
        put(f"{span}.s", self_s[span], "s")
        put(f"{span}.candidates", under["classify.is_solid", span], "count")
        put(f"{span}.series", counters[f"{span}.series"], "count")
    put("classify.dedupe.s", self_s["classify.canonical_key"], "s")
    put("classify.dedupe.collapses", calls["classify.canonical_key"] - counters["classify.kept_series"], "count")
    both("series.make_series", "classify.make_series")
    put("classify.sporadic_filter.s", self_s["classify.contains"], "s")
    put("classify.sporadic_filter.contains_calls", calls["classify.contains"], "count")
    both("conditions.divisibility", "cli.quasismooth_divisibility", "classify.quasismooth_divisibility")
    both("classify.self_check", "classify.quasismooth_divisibility")
    both("conditions.is_valid", "cli.is_valid")
    both("conditions.monomial", "cli.quasismooth_monomial", "oracle.quasismooth_monomial")
    put("oracle.brute_force.s", self_s["cli.brute_force"], "s")
    put("oracle.candidates", calls["oracle.quasismooth_monomial"], "count")
    put("oracle.hits", counters["oracle.hits"], "count")
    put("oracle.hit_ratio", _ratio(counters["oracle.hits"], calls["oracle.quasismooth_monomial"]), "ratio")
    put("series.expand.s", self_s["classify.expand"], "s")
    put("series.expand.members", counters["series.expand.members"], "count")
    put("classify.expand_classification.s", self_s["cli.expand_classification"], "s")
    both("classify.classify_index", "cli.classify_index")
    both("series.contains", "cli.contains", "classify.contains")
    both("obstructions.report", "cli.obstruction_report")
    put("tables.instantiate.s", self_s["classify.instantiate"], "s")
    put("tables.instantiate.series", counters["tables.instantiate.series"], "count")
    put("tables.instantiate.sporadic", counters["tables.instantiate.sporadic"], "count")
    put("cli.self_s", self_s["cli.main"], "s")
    return out
