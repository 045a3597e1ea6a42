"""The benchmark tracer wraps ernn functions by module attribute; keep them there."""

import importlib
import types
from pathlib import Path

from ernn.formula import parse_formula

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    # Executed from source, so nothing is written next to the benchmark.
    mod = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_every_trace_target_resolves():
    spans = _spans_module()
    assert spans.TARGETS
    for mod_name, attr, _span, _extra in spans.TARGETS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (
            f"{mod_name}.{attr}"
        )


def test_trace_hooks_read_what_ernn_returns():
    spans = _spans_module()
    reducer = importlib.import_module("ernn.reducer")
    tracer = spans.Tracer()
    with tracer.installed():
        reducer.compile_formula(parse_formula("inv X Y\n"))
    assert tracer.counts["layout.plans_ok"] == 1
    assert tracer.counts["layout.placements"] > 0
    assert tracer.counts["layout.points"] > 0
    assert tracer.calls()["layout.validate"] >= 1
