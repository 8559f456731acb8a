"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from harness import END_TO_END, per_layer_units, run_workload  # noqa: E402
from probe import FOREIGN_CPU_LIMIT, Probe  # noqa: E402
from spans import SPANS, Bucket, Tracer, _resolve, wrapped_leftovers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer metrics that count work (as opposed to timing it).
_COUNT_UNITS = ("count", "B")


def _counts(outcome) -> dict[str, float]:
    counts = {
        name: value
        for name, (value, unit) in outcome.metrics.items()
        if unit in _COUNT_UNITS
    }
    counts["synth.prune_share"] = outcome.metrics["synth.prune_share"][0]
    counts["runtime.detect_hit_share"] = (
        outcome.metrics["runtime.detect_hit_share"][0]
    )
    return counts


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_with_one_seed(name):
    first = run_workload(name, seed=3, seconds=0.0, trace=True)
    second = run_workload(name, seed=3, seconds=0.0, trace=True)
    assert first.correct and second.correct
    assert first.failed == second.failed == 0
    assert _counts(first) == _counts(second)
    # The counts name real work on the layers the workload exercises.
    nonzero = {k for k, v in _counts(first).items() if v}
    expected = {
        "train": {"runtime.allreduce.calls", "runtime.grad.calls",
                  "plan.ops", "plan.wire_bytes"},
        "tune": {"synth.candidates", "synth.simulated", "synth.pruned",
                 "plan.match_wires.calls", "plan.compile.calls"},
        "scaleout": {"sim.dag_ops", "sim.validate.calls",
                     "collectives.emit.calls"},
        "recover": {"topology.search.calls", "plan.check.calls",
                    "runtime.ckpt.save.calls", "runtime.ckpt.load.calls",
                    "runtime.aborts", "runtime.reembeds",
                    "runtime.detect_hit_share"},
    }[name]
    assert expected <= nonzero


def test_traced_run_restores_every_wrapped_function():
    originals = {}
    for targets in SPANS.values():
        for target in targets:
            owner, attr = _resolve(target)
            originals[target] = owner.__dict__[attr]
    run_workload("scaleout", seed=0, seconds=0.0, trace=True)
    assert wrapped_leftovers() == []
    for target, original in originals.items():
        owner, attr = _resolve(target)
        assert owner.__dict__[attr] is original


def test_tracer_reaches_names_imported_into_other_modules():
    # ``import repro.synth.tune`` would bind the re-exported function.
    tune_mod = importlib.import_module("repro.synth.tune")
    original = tune_mod.compile_candidate
    tracer = Tracer()
    bucket = Bucket.empty()
    with tracer.record(bucket):
        assert tune_mod.compile_candidate is not original
        assert wrapped_leftovers()
    assert tune_mod.compile_candidate is original
    assert wrapped_leftovers() == []


def test_untraced_run_executes_unwrapped_code():
    outcome = run_workload("scaleout", seed=0, seconds=0.0, trace=True)
    assert outcome.metrics["collectives.simulate.calls"][0] == 3
    workload = WORKLOADS["scaleout"]()
    workload.load()
    workload.prepare(0)
    files = set()

    def profile(frame, event, arg):
        if event == "call":
            files.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        workload.op(1)
    finally:
        sys.setprofile(None)
    assert any("repro" in f for f in files)
    assert os.path.join(BENCH, "spans.py") not in files


def test_probe_guard_sees_program_threads_burning_cpu():
    probe = Probe()
    probe.read()
    assert probe.read().foreign_cpu_share <= FOREIGN_CPU_LIMIT
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        time.sleep(0.01)
        reading = probe.read()
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert reading.foreign_cpu_share > FOREIGN_CPU_LIMIT


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        per_layer_units()
    )


def test_end_to_end_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "scaleout", "--seed", "0", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
