"""Run the end-to-end benchmark.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

With one ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are a human report giving, for each time, the raw
seconds beside the host-normalized value and the sample count.

Without ``--workload`` (or with ``--workload all``) each workload runs in
its own process and the combined report is printed; the exit code is 1
if any op failed.  Run from the root of a checkout: the program is
imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SECONDS = 20


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all",
        help="train, tune, scaleout, recover, or all (default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up and print it as JSON (used by the harness)",
    )
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_lines(outcome) -> list[str]:
    lines = [
        f"workload {outcome.workload}: attempted {outcome.attempted}, "
        f"failed {outcome.failed}, correct {outcome.correct}, "
        f"samples {outcome.samples}"
    ]
    for name, (value, unit) in outcome.metrics.items():
        raw = outcome.raw.get(name)
        extra = f"   (raw {_fmt(raw)} {unit})" if raw is not None else ""
        lines.append(f"  {name:32s} {_fmt(value):>12s} {unit:6s}{extra}")
    for name, value in outcome.raw.items():
        if name not in outcome.metrics:
            lines.append(f"  {name:32s} {_fmt(value):>12s} s")
    lines.extend(f"  note: {note}" for note in outcome.notes[:20])
    return lines


def run_one(args: argparse.Namespace) -> int:
    from harness import run_workload, setup_only

    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in report_lines(outcome):
        print(line)
    print("# raw " + json.dumps({
        "workload": outcome.workload, "raw": outcome.raw,
        "samples": outcome.samples,
    }))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("# raw "):
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
