"""Benchmark of the ernn pipeline.

    python3 perfbench/run.py --workload {roundtrip,verify_stream,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the benchmark imports ernn from
./src, never from an installed copy, and exits with 2 if it cannot. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs every
operation untraced and then traced, prints the per-layer metrics and the
tracing overhead, and writes the spans to .bench_out/. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Workloads and metrics are listed in BENCHMARK.json at
the root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("roundtrip", "verify_stream", "certify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # Compiling the sources on every run keeps import time comparable
    # between runs and leaves no bytecode in the checkout.
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ernn
    except ImportError as exc:
        print(f"perfbench: cannot import ernn from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(ernn.__file__).resolve().parents:
        print(f"perfbench: ernn was imported from {ernn.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
