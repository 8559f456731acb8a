"""Run-to-run spread of the end-to-end metrics, raw beside normalized.

    python3 perfbench/spread.py --workloads train tune --seeds 1 2 3 4 5

Runs ``run.py`` once per (workload, seed), one run at a time, and
prints for every end-to-end metric the median of the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, for
the host-normalized value and for the raw seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = next(
        json.loads(line[len("# raw "):])
        for line in lines if line.startswith("# raw ")
    )
    if result["failed"] or not result["correct"]:
        notes = [line for line in lines if line.strip().startswith("note:")]
        print(f"{workload} seed {seed}: correct {result['correct']}, "
              f"failed {result['failed']}: {notes}", flush=True)
    return result, raw


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["train", "tune", "scaleout", "recover"])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        runs = [one_run(workload, s, args.seconds) for s in args.seeds]
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}")
        print(f"  {'metric':14s} {'median':>12s} {'spread':>8s} "
              f"{'raw median':>12s} {'raw spread':>10s}")
        for name in runs[0][0]["metrics"]:
            norm = [r["metrics"][name]["value"] for r, _ in runs]
            raw = [x["raw"].get(name) for _, x in runs]
            line = (f"  {name:14s} {statistics.median(norm):12.6g} "
                    f"{spread(norm):8.1%}")
            if None not in raw:
                line += (f" {statistics.median(raw):12.6g} "
                         f"{spread(raw):10.1%}")
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
