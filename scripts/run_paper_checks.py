#!/usr/bin/env python3
"""Run every reproduction check and print a summary table.

Usage:
    python scripts/run_paper_checks.py [--seed N] [--sample N] [--jsonl FILE]

Exits nonzero if any check fails.  --sample trims the randomized sweeps
for a quick look; the defaults match the acceptance suite.
"""

import argparse
import sys

from epist2int import harness


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sample", type=int, default=None,
                    help="override sample counts for the randomized checks")
    ap.add_argument("--jsonl", help="also write reports as JSON lines to this file")
    args = ap.parse_args()

    try:
        reports = harness.run_checks(harness.ALL_CHECKS, args.seed, args.sample)
    except ValueError as exc:
        ap.error(str(exc))
    print(harness.summary_table(reports))
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            for r in reports:
                fh.write(r.to_json_line() + "\n")
        print(f"wrote {args.jsonl}")
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"\n{r.name} failures: {r.details.get('failures')}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
