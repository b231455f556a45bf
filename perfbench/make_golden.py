#!/usr/bin/env python3
"""Write perfbench/golden_seed1.json: one round of every workload at the default seed.

    python3 perfbench/make_golden.py

The record holds each operation's result as the program returns it, or
{"error": <exception name>} where it raised. run.py compares later runs on
the default seed against it; regenerate it only when the expected results
change on purpose.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    record = {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as workdir:
        for workload in wl.WORKLOADS:
            record[workload] = {
                inst.id: wl.run_instance(inst, workdir)[0]
                for inst in wl.build_inputs(workload, wl.DEFAULT_SEED)
            }
    (HERE / f"golden_seed{wl.DEFAULT_SEED}.json").write_text(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
