"""Compare two saved outputs of perfbench/run.py: metric changes beside digest changes.

    python3 perfbench/run.py --workload open_demo --seed 1 --seconds 50 --trace 0 > a.txt
    ... (change the program) ...
    python3 perfbench/run.py --workload open_demo --seed 1 --seconds 50 --trace 0 > b.txt
    python3 perfbench/compare.py a.txt b.txt

For each metric it prints both values and the relative change.  For each
experiment seed present in both files it prints whether the SHA-256 of the
output set is unchanged.  A speed-up that changes a digest changed the bytes
the program writes.  Exit code 1 when any digest differs.
"""

from __future__ import annotations

import json
import sys


def load(path) -> tuple[dict, dict]:
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.startswith("{")]
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (details_a, result_a), (details_b, result_b) = load(argv[0]), load(argv[1])
    for label, details, result in (("a", details_a, result_a), ("b", details_b, result_b)):
        print(f"{label}: {details['workload']} seed={details['seed']} trace={details['trace']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"machine={details['machine']}")
        print(f"   experiment wall time: median {details['experiment_s']['median']:.4g} s "
              f"over {details['experiment_s']['samples']} experiments")
    print(f"{'metric':40s} {'a':>16s} {'b':>16s} {'change':>9s}  unit")
    for name, metric in result_a["metrics"].items():
        a = metric["value"]
        b = result_b["metrics"].get(name, {}).get("value")
        change = f"{(b - a) / a:+.1%}" if b is not None and a else "n/a"
        print(f"{name:40s} {a:16.6g} {b if b is not None else float('nan'):16.6g} "
              f"{change:>9s}  {metric['unit']}")
    changed = 0
    for seed in sorted(set(details_a["digests"]) & set(details_b["digests"]), key=int):
        same = details_a["digests"][seed] == details_b["digests"][seed]
        changed += not same
        print(f"digest seed {seed}: {'unchanged' if same else 'CHANGED'} "
              f"{details_a['digests'][seed][:16]} -> {details_b['digests'][seed][:16]}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
