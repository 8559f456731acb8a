"""Closed-loop driver: set-up, timed ops bracketed by probes, checks.

One workload runs in this process with one op in flight.  Each op is
bracketed by host-speed probes (:mod:`probe`) and every time is reported
host-normalized; the raw seconds are kept beside each value for the
human report.  With tracing on, every input runs twice — untraced, then
traced — so the traced and untraced samples see the same inputs and
their ratio is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from probe import FOREIGN_CPU_LIMIT, Probe, ProbeReading, normalization
from spans import SETUP_SPANS, SPANS, Bucket, Tracer
from workloads import WORKLOADS, Workload

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Work counts read off op outputs (per traced op).
_OUTPUT_COUNTS = (
    "synth.candidates", "synth.simulated", "synth.pruned", "sim.dag_ops",
    "runtime.aborts", "runtime.reembeds",
)


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (traced run): name -> unit."""
    units: dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    for span in SETUP_SPANS:
        units[f"setup.{span}.self_s"] = "s"
    units["plan.ops"] = "count"
    units["plan.wire_bytes"] = "B"
    for name in _OUTPUT_COUNTS:
        units[name] = "count"
    units.update({
        "synth.prune_share": "ratio",
        "sim.ops_per_s": "1/s",
        "runtime.detect_hit_share": "ratio",
        "host.probe_s": "s",
        "host.foreign_cpu_share": "ratio",
        "harness.residual_s": "s",
        "trace.overhead": "ratio",
    })
    return units


#: Number of set-ups timed per run (this process plus fresh children).
SETUP_SAMPLES = 3

#: The program's source tree in the checkout the benchmark runs from.
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@dataclass
class OpRecord:
    """One timed op."""

    index: int
    traced: bool
    raw_s: float
    factor: float
    foreign_cpu_share: float
    error: str | None
    digest: object = None
    bucket: Bucket | None = None
    counts: dict = field(default_factory=dict)

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor

    @property
    def guard_ok(self) -> bool:
        return self.foreign_cpu_share <= FOREIGN_CPU_LIMIT


#: Seconds an op's threads may take to end after the op returns.
_QUIESCE_TIMEOUT = 5.0

#: One entry per OS thread of this process (Linux).
_TASKS = "/proc/self/task"


@dataclass(frozen=True)
class Idle:
    """The threads of this process while the program is idle."""

    threads: frozenset
    os_threads: int

    @classmethod
    def now(cls) -> "Idle":
        return cls(frozenset(threading.enumerate()), len(os.listdir(_TASKS)))


def _quiesce(idle: Idle) -> str | None:
    """Wait until the process has no threads beyond ``idle``.

    Runs inside the timed region: an op ends when the threads it started
    have ended, and the next probe must see the program idle.  A joined
    Python thread still unmaps its stack and exits in the kernel
    afterwards, so the OS thread count is awaited too.  Returns an error
    when a thread outlives the timeout.
    """
    deadline = time.perf_counter() + _QUIESCE_TIMEOUT
    for thread in threading.enumerate():
        if thread not in idle.threads:
            thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    while (len(os.listdir(_TASKS)) > idle.os_threads
           and time.perf_counter() < deadline):
        time.sleep(0.0002)
    alive = [t.name for t in threading.enumerate() if t not in idle.threads]
    if alive or len(os.listdir(_TASKS)) > idle.os_threads:
        return f"threads outlived the op: {alive[:5]}"
    return None


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))


def _timed_setup(workload: Workload, probe: Probe, seed: int,
                 tracer: Tracer | None = None,
                 bucket: Bucket | None = None):
    """Set up ``workload`` (import -> inputs -> warm-up op).

    Returns ``(raw seconds, normalization factor, warm-up digest,
    warm-up error)``.
    """
    idle = Idle.now()
    before = probe.read()
    start = time.perf_counter()
    workload.load()
    if tracer is not None:
        tracer.bucket = bucket
        tracer.install()
    try:
        workload.prepare(seed)
        try:
            out = workload.op(0)
            digest, error = workload.digest(0, out), _quiesce(idle)
        except Exception as exc:  # a failed op is counted, not fatal
            digest, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.restore()
    raw = time.perf_counter() - start
    return raw, normalization(before, probe.read()), digest, error


def setup_only(name: str, seed: int) -> dict:
    """One set-up sample, for a child process of :func:`run_workload`."""
    probe = Probe()
    try:
        probe.read()
        raw, factor, _digest, error = _timed_setup(
            WORKLOADS[name](), probe, seed
        )
    finally:
        probe.close()
    return {"raw_s": raw, "norm_s": raw * factor, "error": error}


def _child_setups(name: str, seed: int, count: int) -> list[dict]:
    samples = []
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
             "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up child failed ({proc.returncode}): {proc.stderr}"
            )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class RunOutcome:
    """Everything one run measured."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    raw: dict[str, float]
    samples: dict[str, int]
    notes: list[str]


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> RunOutcome:
    probe = Probe()
    try:
        return _run(WORKLOADS[name](), probe, seed, seconds, trace)
    finally:
        probe.close()


def _run(workload: Workload, probe: Probe, seed: int, seconds: float,
         trace: bool) -> RunOutcome:
    probe.read()  # the first reading pays one-off start-up costs
    tracer = Tracer() if trace else None
    setup_bucket = Bucket.empty()
    if tracer is not None:
        workload.load()  # the tracer can only wrap imported modules
    setup_raw, setup_factor, warm_digest, warm_error = _timed_setup(
        workload, probe, seed, tracer, setup_bucket
    )
    if tracer is not None:
        workload.attach(tracer)

    idle = Idle.now()
    records: list[OpRecord] = []
    probes: list[ProbeReading] = []
    before = probe.read()
    probes.append(before)
    start = time.perf_counter()
    index = 1
    while True:
        for traced in ((False, True) if trace else (False,)):
            bucket = None
            if traced:
                bucket = Bucket.empty()
                tracer.bucket = bucket
                tracer.install()
            t0 = time.perf_counter()
            try:
                out, error = workload.op(index), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            error = error or _quiesce(idle)
            raw = time.perf_counter() - t0
            if traced:
                tracer.restore()
            after = probe.read()
            probes.append(after)
            record = OpRecord(
                index=index,
                traced=traced,
                raw_s=raw,
                factor=normalization(before, after),
                foreign_cpu_share=max(before.foreign_cpu_share,
                                      after.foreign_cpu_share),
                error=error,
                bucket=bucket,
            )
            if out is not None:
                record.digest = workload.digest(index, out)
                record.counts = workload.counts(record.digest)
            del out
            records.append(record)
            before = after
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and index % workload.cycle == 0:
            break
        index += 1
    # High-water mark of the workload itself, before any checker runs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check([warm_digest] + [r.digest for r in records])
    warm_ok, op_ok = checks[0], checks[1:]
    notes = []
    if warm_error:
        notes.append(f"warm-up op raised {warm_error}")
    failed = 0
    for record, ok in zip(records, op_ok):
        if record.error or not ok or not record.guard_ok:
            failed += 1
            why = record.error or (
                "output check failed" if not ok else
                f"foreign CPU share {record.foreign_cpu_share:.3f} "
                "during its probes"
            )
            notes.append(f"op {record.index}: {why}")
    setups = [{"raw_s": setup_raw, "norm_s": setup_raw * setup_factor}]
    if not trace:
        setups += _child_setups(workload.name, seed, SETUP_SAMPLES - 1)
    notes.extend(
        f"set-up warm-up op raised {s['error']}" for s in setups[1:]
        if s["error"]
    )
    # A raised op has no digest, so its check is False too.
    correct = warm_ok and all(op_ok) and not any(s.get("error") for s in setups)

    good = [
        r for r, ok in zip(records, op_ok)
        if ok and r.guard_ok and r.error is None
    ]
    untraced = [r for r in good if not r.traced]
    if trace:
        metrics, raw = _per_layer(
            workload, good, untraced, probes, setup_bucket, setup_factor
        )
    else:
        metrics, raw = _end_to_end(workload, untraced, setups, peak_rss_mb)
    samples = {
        "ops": len(untraced),
        "traced_ops": len(good) - len(untraced),
        "probes": len(probes),
    }
    return RunOutcome(
        workload=workload.name,
        correct=bool(correct),
        attempted=len(records),
        failed=failed,
        metrics=metrics,
        raw=raw,
        samples=samples,
        notes=notes,
    )


def _end_to_end(workload, ops, setups, peak_rss_mb):
    norm = [r.norm_s for r in ops]
    raw_s = [r.raw_s for r in ops]
    metrics = {
        "setup_s": statistics.median(s["norm_s"] for s in setups),
        "op_p50_s": statistics.median(norm),
        "op_tail_s": percentile(norm, workload.tail_pct),
        "ops_per_s": len(norm) / sum(norm),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(s["raw_s"] for s in setups),
        "op_p50_s": statistics.median(raw_s),
        "op_tail_s": percentile(raw_s, workload.tail_pct),
        "ops_per_s": len(raw_s) / sum(raw_s),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, raw


def _per_layer(workload, good, untraced, probes, setup_bucket, setup_factor):
    units = per_layer_units()
    traced = [r for r in good if r.traced]
    n = len(traced)
    values = {name: 0.0 for name in units}
    for r in traced:
        for span, seconds in r.bucket.self_s.items():
            values[f"{span}.self_s"] += seconds * r.factor
        for span, calls in r.bucket.calls.items():
            values[f"{span}.calls"] += calls
        for counter, amount in r.bucket.counters.items():
            if counter not in workload.setup_counters:
                values[counter] += amount
        for counter, amount in r.counts.items():
            if counter in values:
                values[counter] += amount
    # Totals -> per op (one division, so constant counts stay exact).
    values = {name: value / n for name, value in values.items()}
    for counter in workload.setup_counters:
        values[counter] = float(setup_bucket.counters[counter])
    for span in SETUP_SPANS:
        values[f"setup.{span}.self_s"] = (
            setup_bucket.self_s[span] * setup_factor
        )
    candidates = sum(r.counts.get("synth.candidates", 0) for r in traced)
    pruned = sum(r.counts.get("synth.pruned", 0) for r in traced)
    values["synth.prune_share"] = pruned / candidates if candidates else 0.0
    if values["sim.run.self_s"] > 0:
        values["sim.ops_per_s"] = values["sim.dag_ops"] / values["sim.run.self_s"]
    crashes = sum(r.counts.get("runtime.crashes", 0) for r in traced)
    hits = sum(r.counts.get("runtime.detect_hits", 0) for r in traced)
    values["runtime.detect_hit_share"] = hits / crashes if crashes else 0.0
    values["host.probe_s"] = statistics.median(p.seconds for p in probes)
    values["host.foreign_cpu_share"] = max(
        p.foreign_cpu_share for p in probes
    )
    mean_traced = sum(r.norm_s for r in traced) / n
    covered = sum(values[f"{span}.self_s"] for span in SPANS)
    values["harness.residual_s"] = mean_traced - covered
    traced_p50 = statistics.median(r.norm_s for r in traced)
    untraced_p50 = statistics.median(r.norm_s for r in untraced)
    values["trace.overhead"] = traced_p50 / untraced_p50
    raw = {
        "traced_op_mean_s": mean_traced,
        "traced_op_p50_s": traced_p50,
        "untraced_op_p50_s": untraced_p50,
        "spans_plus_residual_s": covered + values["harness.residual_s"],
    }
    return {k: (v, units[k]) for k, v in values.items()}, raw
