"""Per-layer metrics of two sets of traced runs, side by side.

    python3 perfbench/compare.py --before a1.out a2.out --after b1.out b2.out

Each file holds the standard output of one ``run.py --trace 1`` run, whose
last line is the JSON result. For every per-layer metric the script prints
the median over each set and the ratio after/before, so a change can show in
which layer its saving appears. Compare runs of one workload at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from spans import metric_names


def load(path: str) -> dict[str, float]:
    last = Path(path).read_text().strip().splitlines()[-1]
    return {name: m["value"] for name, m in json.loads(last)["metrics"].items()}


def medians(paths: list[str]) -> dict[str, float]:
    runs = [load(p) for p in paths]
    names = {name for run in runs for name in run}
    return {name: statistics.median(run[name] for run in runs if name in run)
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    before, after = medians(args.before), medians(args.after)
    print(f"{'metric':40s} {'before':>14s} {'after':>14s} {'after/before':>13s}")
    for name in metric_names():
        if name not in before and name not in after:
            continue
        b, a = before.get(name, float("nan")), after.get(name, float("nan"))
        ratio = f"{a / b:13.3f}" if b else f"{'-':>13s}"
        print(f"{name:40s} {b:14.6g} {a:14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
