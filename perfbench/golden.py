#!/usr/bin/env python3
"""Regenerate golden.json: the per-channel and CSV digests of every variant of
every workload, at benchmark and self-test size, under the deterministic
schedule.

    python3 perfbench/golden.py

Run it only when a workload's definition changes; a change to the program
must reproduce the checked-in digests, not rewrite them. It refuses to write
when a run fails its oracle.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from workloads import SIZES, VARIANTS, make


def main() -> int:
    golden: dict = {}
    for size in ("bench", "tiny"):
        for name in run.WORKLOADS:
            for variant in range(VARIANTS):
                wl = dataclasses.replace(make(name, variant, size), schedule="deterministic")
                sample, digests = run.run_once(wl, None)
                if sample.problems:
                    print(f"{name}/{size}/{variant}: {sample.problems}", file=sys.stderr)
                    return 1
                golden.setdefault(size, {}).setdefault(name, {})[str(variant)] = digests
            print(f"{size} {name}: {VARIANTS} variants, parameters {SIZES[name][size]}")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
