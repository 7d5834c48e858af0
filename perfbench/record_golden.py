"""Record ``golden.json`` from the tripack in ``src/``, at the default seed.

    python3 perfbench/record_golden.py

Sets up every workload with seed 0 and runs one untraced pass without a
golden file.  Per call it keeps the values that are unique (nu, tau,
nustar, planar status) or the known failure the call ended with, keyed by
command, graph digest and arguments, so fixed instances are checked at
every seed.  It refuses to record when any call fails the gate.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import GOLDEN, PASS_SECONDS, WORK, run_pass, setup

SEED = 0


def main() -> int:
    calls: dict[str, dict] = {}
    known: dict[str, int] = {}
    WORK.mkdir(exist_ok=True)
    for workload in sorted(PASS_SECONDS):
        work = Path(tempfile.mkdtemp(prefix=f"golden-{workload}-", dir=WORK))
        try:
            setup(workload, SEED, work)
            result = run_pass(work, traced=False, golden=None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        wrong = [c for c in result["calls"] if c["verdict"] == "wrong"]
        if wrong:
            for c in wrong:
                print(f"WRONG {c['id']}: {c['reason']}", file=sys.stderr)
            return 1
        known[workload] = sum(c["verdict"] == "known" for c in result["calls"])
        for c in result["calls"]:
            entry = {"id": c["id"]}
            if c["verdict"] == "known":
                entry["failure"] = c["failure"]
            else:
                entry["values"] = c["values"]
            calls[c["key"]] = entry
    GOLDEN.write_text(json.dumps(
        {"seed": SEED, "known_failures": known, "calls": dict(sorted(calls.items()))},
        indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.name}: {len(calls)} calls, known failures per pass {known}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
