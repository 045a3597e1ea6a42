"""Rewrite perfbench/digests.json from the current ernn sources.

    python3 perfbench/record_digests.py

For every (formula, candidate assignment) pair the roundtrip workload can
meet, stores the sha256 of the instance, sidecar and network JSON that
ernn produces. Run it only when a change to the output bytes is intended;
the roundtrip trace reports every formula whose bytes differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = {}
    for item in corpus.all_roundtrip_items():
        _bundle, _served, texts, report, got = workloads.roundtrip_outputs(item, workloads.Record())
        if not (report.fits and got == item.assignment):
            print(f"{item.key}: round trip failed; not recording", file=sys.stderr)
            return 1
        out[item.key] = [workloads.sha256_hex(t) for t in texts]
        print(item.key, flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
