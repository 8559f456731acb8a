"""Per-layer spans recorded from the benchmark's own files.

The tracer wraps the public functions at each layer boundary of
``repro`` (see :data:`SPANS`) for the length of one traced op and puts
the originals back afterwards, so untraced ops run unwrapped code.  A
module-level function is replaced everywhere a ``repro`` module holds a
reference to it (``from x import f`` copies the reference into the
importer's namespace); a method is replaced on its class.

Each span records its self time — its duration minus the part its child
spans cover — and its call count, per bucket (``setup`` or one op).
Spans are only timed on the thread that installed the tracer; calls on
the virtual GPUs' kernel threads are counted but not timed, since their
time is already inside the caller's span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: Span name -> ``module:qualname`` of every function wrapped for it.
SPANS: dict[str, tuple[str, ...]] = {
    "runtime.trainer": ("repro.runtime.elastic:ElasticTrainer.train",),
    "runtime.allreduce": (
        "repro.runtime.allreduce:TreeAllReduceRuntime.run",
        "repro.plan.interpreter:PlanInterpreter.run",
    ),
    "runtime.drain": ("repro.runtime.recovery:drain_aborted_run",),
    "runtime.detect": ("repro.runtime.recovery:detect_dead_gpus",),
    "runtime.ckpt.save": ("repro.runtime.checkpoint:Checkpointer.save",),
    "runtime.ckpt.load": (
        "repro.runtime.checkpoint:Checkpointer.load_latest",
    ),
    "topology.search": ("repro.topology.tree_search:search_degraded_pair",),
    "plan.check": ("repro.runtime.elastic:ElasticTrainer.plan_check_for",),
    "plan.compile": ("repro.plan.passes:compile_plan",),
    "plan.verify": ("repro.plan.verifier:verify_plan",),
    "plan.match_wires": ("repro.plan.verifier:match_wires",),
    "plan.lower": ("repro.plan.lowering:lower_to_dag",),
    "plan.simulate": ("repro.plan.lowering:simulate_plan",),
    "synth.search": ("repro.synth.search:search_structures",),
    "synth.tune": ("repro.synth.tune:tune",),
    "synth.raws": (
        "repro.synth.search:synthesize_raws",
        "repro.synth.tune:_builder_raws",
    ),
    "synth.compile": ("repro.synth.search:compile_candidate",),
    "synth.score": ("repro.synth.search:score_candidate",),
    "analyze.bound": ("repro.analyze.contention:static_lower_bound",),
    "collectives.emit": (
        "repro.collectives.ring:ring_allreduce",
        "repro.collectives.double_tree:double_tree_allreduce",
    ),
    "collectives.simulate": ("repro.collectives.base:simulate_on_fabric",),
    "sim.validate": ("repro.sim.dag:Dag.validate",),
    "sim.run": ("repro.sim.engine:DagSimulator.run",),
    "sim.oracle": ("repro.sim.oracle:check_plan_ordering",),
    # The gradient function is an input, not a repro function: the train
    # workload registers it with Tracer.wrap_attribute.
    "runtime.grad": (),
}

#: Spans whose setup-time self time is reported (``setup.<span>.self_s``).
SETUP_SPANS = ("plan.check", "plan.compile", "plan.verify", "synth.search")

_MARK = "__perfbench_original__"


def _count_plan(bucket: "Bucket", result) -> None:
    """Add a compiled plan's op count and SEND bytes to ``bucket``."""
    compiled = result[0]
    bucket.counters["plan.ops"] += len(compiled.ops)
    bucket.counters["plan.wire_bytes"] += float(
        sum(op.nbytes for op in compiled.ops if op.kind == "send")
    )


@dataclass
class Bucket:
    """Self time and calls per span for one stretch of traced work."""

    self_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, float]

    @classmethod
    def empty(cls) -> "Bucket":
        return cls(defaultdict(float), defaultdict(int), defaultdict(float))


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs span wrappers, records into the current bucket, restores."""

    def __init__(self) -> None:
        self.bucket = Bucket.empty()
        self._owner: int | None = None
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._extra: list[tuple[str, object, str]] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, span: str, fn):
        counts_plan = span == "plan.compile"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bucket = self.bucket
            bucket.calls[span] += 1
            if threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[0]
                bucket.self_s[span] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if counts_plan:
                _count_plan(bucket, result)
                if self._stack:
                    # Counting is tracer work: keep it out of the parent's
                    # self time (it lands in the harness residual).
                    self._stack[-1][1] += time.perf_counter() - end
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- install / restore ----------------------------------------------

    def wrap_attribute(self, span: str, owner: object, attr: str) -> None:
        """Also wrap ``owner.attr`` (e.g. an instance's callback) as
        ``span`` whenever the tracer is installed."""
        self._extra.append((span, owner, attr))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._owner = threading.get_ident()
        modules = _repro_modules()
        for span, targets in SPANS.items():
            for target in targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr]
                wrapper = self._wrap(span, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        for span, owner, attr in self._extra:
            self._patch(owner, attr, self._wrap(span, getattr(owner, attr)))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        # A module imported while the tracer was installed copied a
        # wrapper into its namespace with ``from x import f``.
        for module, attr, wrapper in _wrapped_module_attrs():
            setattr(module, attr, getattr(wrapper, _MARK))
        self._owner = None

    def record(self, bucket: Bucket):
        """Context manager: install, record into ``bucket``, restore."""
        return _Recording(self, bucket)


class _Recording:
    def __init__(self, tracer: Tracer, bucket: Bucket) -> None:
        self.tracer = tracer
        self.bucket = bucket

    def __enter__(self) -> Bucket:
        self.tracer.bucket = self.bucket
        self.tracer.install()
        return self.bucket

    def __exit__(self, *exc) -> None:
        self.tracer.restore()


def _repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _wrapped_module_attrs() -> list[tuple[object, str, object]]:
    return [
        (module, attr, value)
        for module in _repro_modules()
        for attr, value in list(vars(module).items())
        if hasattr(value, _MARK)
    ]


def wrapped_leftovers() -> list[str]:
    """Every ``repro`` module or class attribute still holding a span
    wrapper (empty after a correct restore)."""
    found = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in _wrapped_module_attrs()
    ]
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{attr}.{method}"
                    for method, fn in vars(value).items()
                    if hasattr(fn, _MARK)
                )
    return found
