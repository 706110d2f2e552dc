#!/usr/bin/env python3
"""Compare two sets of perfbench results, one row per workload.

Each input is a JSONL file that `perfbench/run.py --record FILE` appended
to, one line per run. Bounds and directions come from BENCHMARK.json. A
metric is "worse"/"better" when its median moved by more than its bound,
"same" when not, and "unresolved" when the run-to-run spread of either side
exceeds the bound (unless every run of the change beats every base run).

    python3 perfbench/compare.py parent.jsonl change.jsonl
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--bench", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}
    rows = benchstats.compare(load(args.base), load(args.change), specs)
    worse = False
    for workload, cells in rows:
        text = "  ".join("%s %+.1f%% %s" % (name, 100 * delta, verdict)
                         for name, delta, verdict in cells)
        print("%-12s %s" % (workload, text))
        worse |= any(v == "worse" for _, _, v in cells)
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
