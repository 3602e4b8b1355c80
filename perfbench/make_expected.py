#!/usr/bin/env python3
"""Build ``expected.json``: the stored answer fingerprint per workload and seed.

Run from the repository root::

    python3 perfbench/make_expected.py --seeds 0-19

For every workload and seed it records the fingerprint of the full-size
answer (the in-memory ``gsim_join`` pairs for the join workloads and
the sharded one, the sequence of query answers for the index workload)
and cross-checks the program against ``naive_join`` on a scaled-down
instance of the same seed.  The index workload's answers are also
checked against one ``gsim_join`` over every graph the script touches.
A failed cross-check stops the script without writing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-19")
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import EXPECTED_PATH, WORKLOADS, load_expected

    expected = load_expected()
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"expected-{os.getpid()}")
    try:
        for name in args.workload or list(WORKLOADS):
            for seed in parse_seeds(args.seeds):
                os.makedirs(scratch, exist_ok=True)
                started = time.perf_counter()
                record = WORKLOADS[name](seed, False, scratch, use_expected=False).reference()
                shutil.rmtree(scratch, ignore_errors=True)
                bad = [k for k in ("small_matches_naive", "answers_match_join")
                       if record.get(k) is False]
                if bad:
                    print(f"{name} seed {seed}: cross-check failed: {bad}", file=sys.stderr)
                    return 1
                expected.setdefault(name, {})[str(seed)] = record
                print(f"{name} seed {seed}: {record} "
                      f"({time.perf_counter() - started:.1f}s)", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    ordered = {
        name: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
        for name, by_seed in sorted(expected.items())
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump(ordered, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
