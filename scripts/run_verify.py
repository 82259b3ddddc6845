#!/usr/bin/env python3
"""Run the deterministic identity battery and print the report.

Usage: python scripts/run_verify.py [seed] [cases]

Runs the battery twice with the same seed and refuses to pass unless the
two reports agree byte for byte, which is the determinism contract the
CLI's verify command promises.
"""

import sys

from lefscalc.errors import LefscalcError
from lefscalc.reports import print_report
from lefscalc.verify import VerifyConfig, run_all


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    cases = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    try:
        config = VerifyConfig(seed=seed, cases=cases)
    except LefscalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    first = run_all(config)
    second = run_all(config)
    text = print_report(first, as_json=False)
    print(text)
    if first != second:
        print("reports differ between two identical runs", file=sys.stderr)
        return 1
    if not first.all_ok:
        return 1
    print(f"\nrepeatable: two runs with seed {seed} agree ({first.digest[:16]}...)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
