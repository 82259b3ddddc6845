#!/usr/bin/env python3
"""Write bench/references.json: the output digest of every op, per seed.

    python3 bench/make_references.py [SEEDS]     (default 20: seeds 0..19)

Run it from the root of a checkout whose outputs are known to be right
(each op's own check must pass).  Every op runs twice, under two hash
seeds, and the two digests must agree, so a reference never depends on
set order.  The benchmark fails an op whose digest differs from the
reference for its seed; seeds without a reference rely on the checks.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench


def digests(workload: str, seed: int) -> dict:
    result = bench.Run(workload, seed, seconds=0, trace=False)
    result.references = {}
    if workload == "cli":
        commands = bench.cli_commands(result)
        for command in commands:
            bench.cli_command(result, command, traced=False, layers=[])
    else:
        bench.batch_round(result, traced=False, expected_ops=0)
    if result.failures:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(result.failures[:3]))
    return result.digests


def main() -> int:
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    os.makedirs(bench.OUT, exist_ok=True)
    refs = {}
    for workload in bench.WORKLOADS:
        refs[workload] = {}
        for seed in range(seeds):
            first = digests(workload, seed)
            bench.ENV_OVERRIDES["PYTHONHASHSEED"] = "1"
            second = digests(workload, seed)
            bench.ENV_OVERRIDES["PYTHONHASHSEED"] = "0"
            if first != second:
                raise SystemExit(f"{workload} seed {seed}: outputs depend on the hash seed")
            refs[workload][str(seed)] = first
            print(f"{workload} seed {seed}: {len(first)} ops", flush=True)
    with open(bench.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
