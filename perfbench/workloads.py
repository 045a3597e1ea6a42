"""The roundtrip, verify_stream and certify workloads, and their metrics.

Each workload is one client in a closed loop: it issues an operation, waits
for the answer, checks it against a reference built without ernn, and only
then issues the next. A run sets the workload up SETUP_REPEATS times
(the median is setup_s) and then runs whole passes over the
workload's fixed operation list. The number of passes is --seconds divided
by the pass's nominal duration at the commit that defined the benchmark, so
both sides of a comparison do the same work and order statistics stay
comparable. Reported times are calibrated by the host probe (see probe.py);
the raw times are printed next to them.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import ernn.formula as formula
import ernn.gadgets as gadgets
import ernn.layout as layout
import ernn.network as network
import ernn.oracle as oracle
import ernn.reducer as reducer
from ernn.geometry import Point2
from ernn.network import HiddenNeuron, Network

import corpus
from probe import HostProbe
from spans import Tracer

F = Fraction
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_PROBE_S = 1.0  # a setup shorter than this is calibrated over this window
TAIL_BEYOND = 10
WITNESS_REPEATS = 9  # a witness takes 2-30 ms

# Captured before any wrapper is installed: the checks below must not show
# up in the traced layers.
_evaluate = network.evaluate


# ---------------------------------------------------------------------------
# Passes and operations
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """What one pass (or one setup) did: stage sums, latencies, outcomes."""

    stages: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    latencies: List[float] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    failed: int = 0
    unexpected: int = 0
    instance_bytes: int = 0
    digest_changes: int = 0

    def timed(self, stage: str, fn: Callable, *args, repeat: int = 1):
        """Call fn; add to the stage the median duration of `repeat` calls.

        Stages a workload calls only a few milliseconds per pass are
        repeated so that scheduler noise does not swamp them.
        """
        durations = []
        for _ in range(repeat):
            t = perf_counter()
            out = fn(*args)
            durations.append(perf_counter() - t)
        self.stages[stage] += statistics.median(durations)
        return out


@dataclass
class Op:
    """run() is the timed request; check() compares its answer to the reference.

    known_defect names an open ROADMAP defect that makes this operation fail
    at the commit that defined the benchmark; such failures still count in
    `failed` but do not make the run incorrect.
    """

    label: str
    run: Callable[[Record], object]
    check: Callable[[object, Record], bool]
    known_defect: Optional[str] = None


def _json_bytes(bundle) -> int:
    return len(network.instance_to_json(bundle.instance).encode()) + len(
        layout.layout_to_json(bundle.layout).encode()
    )


def _compile(rec: Record, shape: corpus.Shape):
    return rec.timed("compile", reducer.compile_formula, formula.parse_formula(shape.text))


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def roundtrip_outputs(item: corpus.Item, rec: Record):
    """parse -> compile -> instance and sidecar JSON out and back -> witness
    -> network JSON -> verify -> extract, as the CLI steps chain them."""
    parsed = formula.parse_formula(item.shape.text)
    bundle = rec.timed("compile", reducer.compile_formula, parsed)
    instance_text = network.instance_to_json(bundle.instance)
    sidecar_text = layout.layout_to_json(bundle.layout)
    served = replace(
        bundle,
        instance=network.instance_from_json(instance_text),
        layout=layout.layout_from_json(sidecar_text),
    )
    net = rec.timed("witness", reducer.witness, served, item.assignment, repeat=WITNESS_REPEATS)
    network_text = network.network_to_json(net)
    report = rec.timed("verify", reducer.verify, net, served.instance)
    got = rec.timed("extract", reducer.extract, served, net)
    return bundle, served, (instance_text, sidecar_text, network_text), report, got


class Roundtrip:
    name = "roundtrip"
    nominal_pass_s = 30.0

    def setup(self, seed: int, rec: Record):
        digests = json.loads((HERE / "digests.json").read_text())
        return corpus.roundtrip_items(seed), digests

    def ops(self, state) -> List[Op]:
        items, digests = state

        def make(item: corpus.Item) -> Op:
            def check(out, rec: Record) -> bool:
                bundle, served, texts, report, got = out
                want = digests.get(item.key)
                if want != [sha256_hex(t) for t in texts]:
                    rec.digest_changes += 1
                rec.instance_bytes += len(texts[0].encode()) + len(texts[1].encode())
                return (
                    served.instance == bundle.instance
                    and served.layout == bundle.layout
                    and report.fits
                    and report.total_loss == 0
                    and got == item.assignment
                    and corpus.holds(item.shape.constraints, got)
                )

            return Op(item.key, lambda rec: roundtrip_outputs(item, rec), check)

        return [make(item) for item in items]


# ---------------------------------------------------------------------------
# verify_stream
# ---------------------------------------------------------------------------

def _own_value(neurons, p: Point2) -> Tuple[F, F]:
    """Both outputs at p, computed here so a reference verdict never comes from ernn."""
    f1 = f2 = F(0)
    for u in neurons:
        pre = u.a1 * p.x1 + u.a2 * p.x2 + u.b
        if pre > 0:
            f1 += u.c1 * pre
            f2 += u.c2 * pre
    return f1, f2


def _rational(rng: random.Random, top: int, den: int) -> F:
    return F(rng.randint(-top, top), rng.randint(1, den))


def _perturbed(net: Network, rng: random.Random) -> Network:
    """Acceptance test 07's perturbation: one unit's (a, b) scaled by 101/100."""
    i = rng.randrange(len(net.neurons))
    u = net.neurons[i]
    k = F(101, 100)
    bent = replace(u, a1=u.a1 * k, a2=u.a2 * k, b=u.b * k)
    return Network(net.neurons[:i] + (bent,) + net.neurons[i + 1:])


def _rescaled(net: Network, rng: random.Random) -> Network:
    """(a, b) * k and c / k per unit, k > 0: the same function, other normals."""
    units = []
    for u in net.neurons:
        k = F(rng.randint(2, 5))
        units.append(HiddenNeuron(u.a1 * k, u.a2 * k, u.b * k, u.c1 / k, u.c2 / k))
    return Network(tuple(units))


def _padded(net: Network, rng: random.Random) -> Network:
    """The witness plus 1-5 units that are zero everywhere: over the budget."""
    dead = tuple(
        HiddenNeuron(F(0), F(0), F(-1), _rational(rng, 9, 4), _rational(rng, 9, 4))
        for _ in range(rng.randint(1, 5))
    )
    return Network(net.neurons + dead)


def _random_net(bundle, rng: random.Random) -> Network:
    """As many units as the budget, arbitrary directions, missing data point 0."""
    p0, want = bundle.instance.points[0]
    while True:
        units = []
        while len(units) < bundle.instance.hidden_neurons:
            a1, a2 = _rational(rng, 9, 5), _rational(rng, 9, 5)
            if a1 or a2:
                units.append(
                    HiddenNeuron(a1, a2, _rational(rng, 20000, 7), _rational(rng, 6, 5), _rational(rng, 6, 5))
                )
        if _own_value(units, p0) != want:
            return Network(tuple(units))


@dataclass(frozen=True)
class Request:
    kind: str
    text: str
    bundle: object
    accept: bool  # the paper's answer
    assignment: Optional[Dict[str, F]]


class VerifyStream:
    name = "verify_stream"
    nominal_pass_s = 25.0

    # Per pass, against the reference instance (60 units, 520 points):
    # 8 witnesses, 2 rescaled witnesses, 4 perturbations, 2 random networks
    # and 2 padded witnesses; against F_3 (159 units, 1377 points): one
    # witness and one perturbation. Mostly valid submissions, so the
    # median and tail latencies fall inside the accepted requests.
    def setup(self, seed: int, rec: Record):
        rng = random.Random(seed)
        requests: List[Request] = []

        def add(kind: str, net: Network, bundle, accept: bool, assignment=None) -> None:
            requests.append(Request(kind, network.network_to_json(net), bundle, accept, assignment))

        ref = _compile(rec, corpus.REFERENCE)
        big = _compile(rec, corpus.chain(3))
        rec.instance_bytes = _json_bytes(ref) + _json_bytes(big)

        seen: List[Dict[str, F]] = []
        nets: List[Network] = []
        for _ in range(8):
            a = corpus.sample_assignment(corpus.REFERENCE, rng, seen)
            seen.append(a)
            nets.append(rec.timed("witness", reducer.witness, ref, a, repeat=WITNESS_REPEATS))
            add("witness", nets[-1], ref, True, a)
        for a, net in zip(seen[:2], nets):
            add("rescaled", _rescaled(net, rng), ref, True, a)
            add("padded", _padded(net, rng), ref, False)
        for net in nets[:4]:
            add("perturbed", _perturbed(net, rng), ref, False)
        for _ in range(2):
            add("random", _random_net(ref, rng), ref, False)

        a = corpus.sample_assignment(corpus.chain(3), rng)
        net = rec.timed("witness", reducer.witness, big, a, repeat=WITNESS_REPEATS)
        add("witness", net, big, True, a)
        add("perturbed", _perturbed(net, rng), big, False)
        rng.shuffle(requests)
        return requests

    def ops(self, requests: List[Request]) -> List[Op]:
        def make(req: Request) -> Op:
            def run(rec: Record):
                net = network.network_from_json(req.text)
                report = rec.timed("verify", reducer.verify, net, req.bundle.instance)
                got = rec.timed("extract", reducer.extract, req.bundle, net) if report.fits else None
                return report, got

            def check(out, rec: Record) -> bool:
                report, got = out
                if report.fits != req.accept:
                    return False
                return not req.accept or got == req.assignment

            defect = "ROADMAP 3a: width budget not enforced" if req.kind == "padded" else None
            return Op(req.kind, run, check, defect)

        return [make(r) for r in requests]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

_KINDS = {
    "variable": gadgets.Variable(),
    "inversion": gadgets.Inversion(),
    "lower_bound_12": gadgets.LowerBound((1, 2)),
    "lower_bound_1": gadgets.LowerBound((1,)),
    "lower_bound_2": gadgets.LowerBound((2,)),
}


def fd_checks(net: Network, bound: F, samples: List[Point2]) -> bool:
    """Finite differences of evaluate at the samples, checked against the bound.

    A sample counts only where no unit changes sides between p, p + h e1
    and p + h e2; there the difference quotient is the exact gradient, which
    must equal the sum of the active units' c * a and stay within the bound.
    """
    h = F(1, 1000)
    used = 0
    for p in samples:
        probes = (p, Point2(p.x1 + h, p.x2), Point2(p.x1, p.x2 + h))
        sides = [
            tuple(u.a1 * q.x1 + u.a2 * q.x2 + u.b > 0 for u in net.neurons) for q in probes
        ]
        if sides[0] != sides[1] or sides[0] != sides[2]:
            continue
        f0, fx, fy = (_evaluate(net, q) for q in probes)
        for j in range(2):
            grad = ((fx[j] - f0[j]) / h, (fy[j] - f0[j]) / h)
            own = [F(0), F(0)]
            for u, on in zip(net.neurons, sides[0]):
                if on:
                    c = u.c1 if j == 0 else u.c2
                    own[0] += c * u.a1
                    own[1] += c * u.a2
            if list(grad) != own or grad[0] ** 2 + grad[1] ** 2 > bound:
                return False
        used += 1
    return used > 0


class Certify:
    name = "certify"
    nominal_pass_s = 25.0

    def setup(self, seed: int, rec: Record):
        """Compile, witness, verify and extract the two networks to be bounded.

        A bound is only certified for a witness that fits and extracts, so
        those stages run here; the timed loop is the oracle and the bound.
        """
        rng = random.Random(seed)
        witnesses = {}
        bytes_ = 0
        for shape in (corpus.REFERENCE, corpus.chain(1)):
            bundle = _compile(rec, shape)
            bytes_ += _json_bytes(bundle)
            assignment = corpus.candidate_assignments(shape)[0]
            net = rec.timed("witness", reducer.witness, bundle, assignment, repeat=WITNESS_REPEATS)
            report = rec.timed("verify", reducer.verify, net, bundle.instance)
            got = rec.timed("extract", reducer.extract, bundle, net)
            pts = [p for p, _y in bundle.instance.points]
            samples = [
                Point2(p.x1 + F(rng.randint(-400, 400), 97), p.x2 + F(rng.randint(-400, 400), 89))
                for p in rng.sample(pts, 24)
            ]
            verified = report.fits and got == assignment
            witnesses[shape.name] = (net, verified, samples)
        rec.instance_bytes = bytes_
        templates = {
            name: [(e.offset, e.labels) for e in gadgets.template(kind).entries]
            for name, kind in _KINDS.items()
        }
        return witnesses, templates

    def ops(self, state) -> List[Op]:
        witnesses, templates = state
        out = []
        for name, k, g, want in corpus.ORACLE_CASES:
            def run(rec: Record, name=name, k=k, g=g):
                return oracle.fit_cpwl_1d_oracle(templates[name], k, g)

            def check(fits, rec: Record, want=want) -> bool:
                return tuple((p.breakpoints, p.slopes, p.breakpoint_values) for p in fits) == want

            out.append(Op(f"oracle {name} k={k} 1/{g}", run, check))

        for name, (net, verified, samples) in witnesses.items():
            def run(rec: Record, net=net):
                return network.max_gradient_norm_bound(net)

            def check(bound, rec: Record, name=name, net=net, verified=verified, samples=samples) -> bool:
                return (
                    verified
                    and bound == corpus.GRADIENT_BOUNDS[name]
                    and fd_checks(net, bound, samples)
                )

            out.append(Op(f"bound {name}", run, check))
        return out


WORKLOADS = {w.name: w for w in (Roundtrip(), VerifyStream(), Certify())}


# ---------------------------------------------------------------------------
# Running and reporting
# ---------------------------------------------------------------------------

def _attempt(op: Op, rec: Record) -> None:
    t = perf_counter()
    rec.starts.append(t)
    try:
        out = op.run(rec)
        rec.latencies.append(perf_counter() - t)
        ok = op.check(out, rec)
    except Exception:
        rec.latencies.append(perf_counter() - t)
        print(f"operation {op.label} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        rec.failed += 1
        if op.known_defect is None:
            rec.unexpected += 1
        print(f"operation {op.label}: wrong answer ({op.known_defect or 'unexpected'})", file=sys.stderr)


def run_passes(
    ops: List[Op], passes: int, seconds: int, tracer: Optional[Tracer]
) -> Tuple[List[Record], List[Record]]:
    """Whole passes over ops, untraced; with a tracer, each operation also
    runs traced right after its untraced run, so machine drift hits both
    alike and their difference is the tracing overhead."""
    plain: List[Record] = []
    traced: List[Record] = []
    start = perf_counter()
    last = 0.0
    for i in range(passes):
        if plain and perf_counter() - start + last > 3 * seconds:
            break  # far slower than the nominal pass: stay inside the run's time limit
        t = perf_counter()
        rec, trec = Record(), Record()
        for j, op in enumerate(ops):
            _attempt(op, rec)
            if tracer is not None:
                tracer.op = i * len(ops) + j
                with tracer.installed():
                    _attempt(op, trec)
        plain.append(rec)
        if tracer is not None:
            traced.append(trec)
        last = perf_counter() - t
    return plain, traced


def print_ops(ops: List[Op], records: List[Record]) -> None:
    """One row per operation: its latency in each pass."""
    for j, op in enumerate(ops):
        times = " ".join(f"{r.latencies[j]:.4f}" for r in records if j < len(r.latencies))
        print(f"  {op.label:32s} {times} s")


Metrics = Dict[str, Tuple[float, float, str]]  # calibrated value, raw value, unit


def end_to_end(records: List[Record], setups: List[Record], setup_s: float, host) -> Metrics:
    """The user-visible metrics, each timing divided by the host slowdown of
    its phase; an operation's latency by the slowdown measured during it."""
    raw = [x for r in records for x in r.latencies]
    cal = [
        lat / host.op(start, lat)
        for r in records
        for start, lat in zip(r.starts, r.latencies)
    ]
    n = len(raw)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    print(
        f"op_tail_s is the p{100 * (tail_index + 1) / n:.1f} latency: "
        f"{n - 1 - tail_index} of {n} samples lie beyond it"
    )
    failed = sum(r.failed for r in records)
    bytes_ = float(records[0].instance_bytes or setups[0].instance_bytes)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out: Metrics = {
        "setup_s": (setup_s / host.setup, setup_s, "s"),
        "ops_per_s": (n / sum(cal), n / sum(raw), "1/s"),
        "op_p50_s": (statistics.median(cal), statistics.median(raw), "s"),
        "op_tail_s": (sorted(cal)[tail_index], sorted(raw)[tail_index], "s"),
    }
    for stage in ("compile", "witness", "verify", "extract"):
        per_pass = [r.stages[stage] for r in records if stage in r.stages]
        if per_pass:
            value, slow = statistics.median(per_pass), host.loop
        else:  # a stage the timed loop never runs: timed in the setups
            value, slow = statistics.median(s.stages[stage] for s in setups), host.setup
        out[f"{stage}_s"] = (value / slow, value, "s")
    out["instance_bytes"] = (bytes_, bytes_, "bytes")
    out["peak_rss_mb"] = (rss, rss, "MB")
    out["ok_frac"] = ((n - failed) / n, (n - failed) / n, "ratio")
    return out


# (span name, self-time metric, call-count metric or None)
LAYER_SPANS = (
    ("layout.plan", "layout.plan_s", "layout.plan_calls"),
    ("layout.validate", "layout.validate_s", "layout.validate_calls"),
    ("layout.realize", "layout.realize_s", "layout.realize_calls"),
    ("layout.json_dump", "layout.json_dump_s", None),
    ("layout.json_parse", "layout.json_parse_s", None),
    ("network.exact_fit", "network.exact_fit_s", "network.exact_fit_calls"),
    ("network.evaluate", "network.evaluate_s", "network.evaluate_calls"),
    ("network.gradient_bound", "network.gradient_bound_s", "network.gradient_bound_calls"),
    ("network.json_parse", "network.json_parse_s", None),
    ("network.json_dump", "network.json_dump_s", None),
    ("network.instance_json_parse", "network.instance_json_parse_s", None),
    ("network.instance_json_dump", "network.instance_json_dump_s", None),
    ("gadgets.witness_neurons", "gadgets.witness_neurons_s", "gadgets.witness_neurons_calls"),
    ("oracle.fit", "oracle.fit_s", "oracle.calls"),
    ("formula.parse", "formula.parse_s", None),
    ("formula.check_assignment", "formula.check_assignment_s", None),
    ("reducer.compile", "reducer.compile_self_s", None),
    ("reducer.witness", "reducer.witness_self_s", None),
    ("reducer.verify", "reducer.verify_self_s", None),
    ("reducer.extract", "reducer.extract_self_s", None),
)
COUNTS = (
    "layout.placements",
    "layout.points",
    "geometry.intersect_calls",
    "geometry.signed_value_calls",
    "network.unit_evals",
    "oracle.profiles",
)


def _layer(span: str) -> str:
    """The layer a span's time belongs to in the printed split."""
    if span in ("network.exact_fit", "network.evaluate"):
        return "network exact evaluation"
    if span == "network.gradient_bound":
        return "network gradient bound"
    return span.split(".")[0]


def per_layer(tracer: Tracer, traced: List[Record], untraced: List[Record], host) -> Metrics:
    """Per pass: each layer's self time and counts from the traced passes."""
    passes = len(traced)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out: Metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value / host.loop if unit == "s" else value, value, unit)

    for span, time_metric, calls_metric in LAYER_SPANS:
        put(time_metric, self_s[span] / passes, "s")
        if calls_metric is not None:
            put(calls_metric, calls[span] / passes, "count")
    validated = calls["layout.validate"]
    put("layout.plan_yield", counts["layout.plans_ok"] / validated if validated else 0.0, "ratio")
    for key in COUNTS:
        put(key, counts[key] / passes, "count")
    put("reducer.output_digest_changes", sum(r.digest_changes for r in traced) / passes, "count")
    plain = sum(sum(r.latencies) for r in untraced) / len(untraced)
    with_spans = sum(sum(r.latencies) for r in traced) / passes
    put("trace.overhead_pct", 100 * (with_spans / plain - 1), "%")
    put("trace.spans", len(tracer.spans) / passes, "count")
    put("host.slowdown", host.loop, "ratio")

    total = sum(self_s.values())
    shares: Dict[str, float] = defaultdict(float)
    for span, t in self_s.items():
        shares[_layer(span)] += t
    print("span self time by layer: " + ", ".join(
        f"{k} {100 * v / total:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
    ))
    return out


class HostSlowdown:
    """The probe's slowdown in the setup phase, the timed loop, and per operation."""

    def __init__(self, probe: HostProbe, setup_start: float, loop_start: float, loop_end: float) -> None:
        self.probe = probe
        self.setup = probe.slowdown(setup_start, max(loop_start, setup_start + SETUP_PROBE_S))
        self.loop = probe.slowdown(loop_start, loop_end)

    def op(self, start: float, latency: float) -> float:
        return self.probe.slowdown(start, start + latency, default=self.loop)


def _is_ernn(module_name: str) -> bool:
    return module_name == "ernn" or module_name.startswith("ernn.")


def import_seconds() -> float:
    """Time a fresh import of ernn, then put the modules in use back."""
    loaded = {k: m for k, m in sys.modules.items() if _is_ernn(k)}
    for k in loaded:
        del sys.modules[k]
    t = perf_counter()
    importlib.import_module("ernn")
    took = perf_counter() - t
    for k in [k for k in sys.modules if _is_ernn(k)]:
        del sys.modules[k]
    sys.modules.update(loaded)
    gc.collect()  # the discarded modules are cycles; free them before the next import
    return took


def run(name: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> dict:
    workload = WORKLOADS[name]
    setups: List[Record] = []
    durations = []
    state = None
    tracer = Tracer() if trace else None
    with HostProbe() as probe:
        setup_start = perf_counter()
        for _ in range(SETUP_REPEATS):
            rec = Record()
            took = import_seconds()
            t = perf_counter()
            state = workload.setup(seed, rec)
            durations.append(took + perf_counter() - t)
            setups.append(rec)
        setup_s = statistics.median(durations)
        ops = workload.ops(state)
        passes = max(1, round(seconds / workload.nominal_pass_s))
        loop_start = perf_counter()
        records, traced = run_passes(ops, passes, seconds, tracer)
        loop_end = perf_counter()
    host = HostSlowdown(probe, setup_start, loop_start, loop_end)
    print(
        f"host slowdown: setup {host.setup:.4f}, loop {host.loop:.4f} "
        f"({len(probe.samples)} probe samples); raw latencies:"
    )
    print_ops(ops, records)
    if tracer is not None:
        metrics = per_layer(tracer, traced, records, host)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
        records = records + traced
    else:
        metrics = end_to_end(records, setups, setup_s, host)

    attempted = sum(len(r.latencies) for r in records)
    failed = sum(r.failed for r in records)
    print(f"{'metric':34s} {'calibrated':>12s} {'raw':>12s} unit")
    for key, (value, raw, unit) in metrics.items():
        print(f"{key:34s} {value:12.6g} {raw:12.6g} {unit}")
    return {
        "correct": all(r.unexpected == 0 for r in records),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, _raw, u) in metrics.items()},
    }
