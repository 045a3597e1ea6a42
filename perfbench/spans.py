"""Spans and counters around ernn's public functions, from outside the package.

Each wrapper is installed on the module attribute its caller looks up at
call time (``ernn.reducer.plan`` for compile_formula's call to plan,
``ernn.layout.validate`` for plan's call to validate, and so on), so no
source under src/ changes and an untraced run executes the original
functions unwrapped. Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


def _units(counts: Counter, args, _result) -> None:
    counts["network.unit_evals"] += len(args[0].neurons)


def _plan_done(counts: Counter, _args, layout) -> None:
    counts["layout.plans_ok"] += 1
    counts["layout.placements"] += len(layout.placements)


def _realized(counts: Counter, _args, realization) -> None:
    counts["layout.points"] += len(realization.points)


def _profiles(counts: Counter, _args, result) -> None:
    counts["oracle.profiles"] += len(result)


# (module, attribute looked up by the caller, span name, result hook).
# A span name of None means count calls only, under the name in the last
# field: these are called tens of thousands of times per pass and a span
# each would dominate the trace.
TARGETS = (
    ("ernn.formula", "parse_formula", "formula.parse", None),
    ("ernn.reducer", "check_assignment", "formula.check_assignment", None),
    ("ernn.reducer", "compile_formula", "reducer.compile", None),
    ("ernn.reducer", "witness", "reducer.witness", None),
    ("ernn.reducer", "verify", "reducer.verify", None),
    ("ernn.reducer", "extract", "reducer.extract", None),
    ("ernn.reducer", "plan", "layout.plan", _plan_done),
    ("ernn.layout", "validate", "layout.validate", None),
    ("ernn.reducer", "realize", "layout.realize", _realized),
    ("ernn.layout", "layout_to_json", "layout.json_dump", None),
    ("ernn.layout", "layout_from_json", "layout.json_parse", None),
    ("ernn.layout", "intersect", None, "geometry.intersect_calls"),
    ("ernn.layout", "signed_value", None, "geometry.signed_value_calls"),
    ("ernn.reducer", "witness_neurons", "gadgets.witness_neurons", None),
    ("ernn.reducer", "exact_fit", "network.exact_fit", None),
    ("ernn.network", "evaluate", "network.evaluate", _units),
    ("ernn.reducer", "evaluate", "network.evaluate", _units),
    ("ernn.network", "max_gradient_norm_bound", "network.gradient_bound", None),
    ("ernn.network", "network_to_json", "network.json_dump", None),
    ("ernn.network", "network_from_json", "network.json_parse", None),
    ("ernn.network", "instance_to_json", "network.instance_json_dump", None),
    ("ernn.network", "instance_from_json", "network.instance_json_parse", None),
    ("ernn.oracle", "fit_cpwl_1d_oracle", "oracle.fit", _profiles),
)


class Tracer:
    """Records [name, start, end, parent index, op id] per wrapped call."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, hook) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for mod_name, attr, name, extra in TARGETS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                if name is None:
                    setattr(mod, attr, self.counter(extra, fn))
                else:
                    setattr(mod, attr, self.span(name, fn, extra))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
