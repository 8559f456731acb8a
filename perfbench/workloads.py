"""The four workloads: what one op is, and how its output is checked.

Every workload imports ``repro`` only inside :meth:`Workload.load`, so
the harness can time set-up from before the import.  Ops call public
``repro`` functions through their module (``self.synth.tune``), never
through a reference bound at set-up, so a traced op reaches the span
wrappers.  Ops are indexed by *input*: input 0 is the warm-up op, and in
a traced run each input runs twice (untraced, then traced).

An op's output is reduced to a small digest right after the op, outside
the timed region; all checks run on the digests after the timed loop,
once the peak memory has been sampled.
"""

from __future__ import annotations

import hashlib
import importlib

import numpy as np

from expected import EXPECTED_TUNE

_MIB = 1 << 20


def _sha(array: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(array).tobytes(), digest_size=16
    ).hexdigest()


class Workload:
    """One closed-loop workload (one op in flight)."""

    name = ""
    #: Percentile reported as ``op_tail_s`` (>= 10 samples beyond it at
    #: the benchmark's run length on the reference machine).
    tail_pct = 90.0
    #: The timed loop stops only after a whole number of input cycles,
    #: so per-op counts are identical between runs with one seed.
    cycle = 1
    #: Counters taken from the traced set-up instead of the ops (work
    #: done once in set-up that every op then uses).
    setup_counters: tuple[str, ...] = ()

    def load(self) -> None:
        """Import the ``repro`` modules the workload calls."""

    def prepare(self, seed: int) -> None:
        """Build every input from ``seed`` and the program's state."""
        raise NotImplementedError

    def attach(self, tracer) -> None:
        """Register instance attributes the tracer should also wrap."""

    def op(self, index: int):
        raise NotImplementedError

    def digest(self, index: int, output) -> object:
        """What the checks and counters need from one op's output."""
        return output

    def counts(self, digest) -> dict[str, float]:
        """Per-op work counts read off the output."""
        return {}

    def check(self, digests: list) -> list[bool]:
        """Per op (``None`` digest = the op raised): output correct?"""
        raise NotImplementedError


class Train(Workload):
    """8-GPU DGX-1 data-parallel SGD through ``ElasticTrainer.train``."""

    name = "train"
    tail_pct = 90.0
    setup_counters = ("plan.ops", "plan.wire_bytes")
    params = 1 << 18
    layers = 16
    chunks_per_tree = 8
    learning_rate = 0.01

    def load(self) -> None:
        self.layers_mod = importlib.import_module("repro.dnn.layers")
        self.runtime = importlib.import_module("repro.runtime")
        self.dgx1 = importlib.import_module("repro.topology.dgx1")
        self.dgx1_trees = importlib.import_module("repro.topology.dgx1_trees")

    def network(self):
        # Parameters grow with depth (Fig. 17's ResNet profile): layer i
        # holds a share proportional to i + 1.
        weights = range(1, self.layers + 1)
        total = sum(weights)
        params = [self.params * w // total for w in weights]
        params[-1] += self.params - sum(params)
        spec = self.layers_mod.LayerSpec
        return self.layers_mod.NetworkModel(
            name="perfbench-train",
            layers=tuple(
                spec(name=f"L{i}", params=p, fwd_flops=2.0 * p)
                for i, p in enumerate(params)
            ),
        )

    def prepare(self, seed: int) -> None:
        rt = self.runtime
        rng = np.random.default_rng(seed)
        self.net = self.network()
        self.targets = [rng.normal(size=self.params) for _ in range(8)]
        self.w0 = rng.normal(size=self.params)
        self.weights = self.w0
        self.trees = self.dgx1_trees.dgx1_trees()
        self.trainer = rt.ElasticTrainer(
            self.dgx1.dgx1_topology(),
            self.net,
            rt.quadratic_gradient(self.targets),
            trees=self.trees,
            detour_map=self.dgx1_trees.DETOURED_EDGES,
            chunks_per_tree=self.chunks_per_tree,
            learning_rate=self.learning_rate,
            spin=rt.SpinConfig(timeout=30.0),
            detour_preference=self.dgx1.DETOUR_NODES,
        )

    def attach(self, tracer) -> None:
        tracer.wrap_attribute("runtime.grad", self.trainer, "gradient_fn")

    def op(self, index: int):
        report = self.trainer.train(self.weights, iterations=1)
        self.weights = report.weights
        return report

    def digest(self, index: int, output) -> object:
        return _sha(output.weights)

    def check(self, digests: list) -> list[bool]:
        rt = self.runtime
        order = rt.tree_reduce_order(self.trees, self.trainer.layout)
        expected = self.w0
        ok = []
        for digest in digests:
            if digest is None:
                ok.append(False)
                continue
            expected = rt.serial_reference(
                self.net,
                rt.quadratic_gradient(self.targets),
                expected,
                nnodes=8,
                iterations=1,
                learning_rate=self.learning_rate,
                reduce_order=order,
            )
            ok.append(_sha(expected) == digest)
        return ok


class Tune(Workload):
    """Plan autotuning, one (topology, size) per op."""

    name = "tune"
    tail_pct = 80.0
    cycle = 10

    def load(self) -> None:
        self.synth = importlib.import_module("repro.synth")
        self.search = importlib.import_module("repro.synth.search")
        self.tune_mod = importlib.import_module("repro.synth.tune")
        self.dgx1 = importlib.import_module("repro.topology.dgx1")

    def prepare(self, seed: int) -> None:
        degraded = self.dgx1.dgx1_topology().without_link(3, 7)
        degraded.name = "dgx1-nolink37"
        self.topologies = [self.dgx1.dgx1_topology(), degraded]
        self.structures = [
            self.search.search_structures(t) for t in self.topologies
        ]
        grid = [
            (t, size)
            for t in range(len(self.topologies))
            for size in self.tune_mod.SWEEP_SIZES
        ]
        assert len(grid) == self.cycle
        order = np.random.default_rng(seed).permutation(len(grid))
        # The warm-up op (input 0) always tunes the first grid point, so
        # set-up time does not depend on the seed.
        self.inputs = [grid[0]] + [grid[i] for i in order]

    def op(self, index: int):
        t, size = self.inputs[0 if index == 0 else 1 + index % self.cycle]
        return self.synth.tune(
            self.topologies[t], sizes=(size,), structures=self.structures[t]
        )

    def digest(self, index: int, output) -> object:
        best = output.winners[0].best
        return (
            output.topology_name,
            output.winners[0].nbytes,
            best.strategy,
            best.source,
            best.pipeline,
            best.time,
            output.candidates,
            output.simulated,
            output.pruned,
        )

    def counts(self, digest) -> dict[str, float]:
        return {
            "synth.candidates": digest[6],
            "synth.simulated": digest[7],
            "synth.pruned": digest[8],
        }

    def check(self, digests: list) -> list[bool]:
        return [
            d is not None and EXPECTED_TUNE.get((d[0], d[1])) == d[2:]
            for d in digests
        ]


class Scaleout(Workload):
    """One Fig. 14 point: ring, baseline and overlapped double tree."""

    name = "scaleout"
    tail_pct = 75.0
    nodes = 32
    nbytes = 16 * _MIB
    nchunks = 64

    def load(self) -> None:
        self.collectives = importlib.import_module("repro.collectives")
        self.switch = importlib.import_module("repro.topology.switch")
        self.fig14 = importlib.import_module(
            "repro.experiments.fig14_scaleout"
        )

    def prepare(self, seed: int) -> None:
        # The point is fixed (the paper's); the seed has nothing to vary.
        del seed

    def op(self, index: int):
        col = self.collectives
        n, size = self.nodes, float(self.nbytes)
        fabric = self.switch.fat_tree_fabric(n, radix=16, lanes=2)
        return tuple(
            col.simulate_on_fabric(schedule, fabric)
            for schedule in (
                col.ring_allreduce(n, size),
                col.double_tree_allreduce(
                    n, size, nchunks=self.nchunks, overlapped=False
                ),
                col.double_tree_allreduce(
                    n, size, nchunks=self.nchunks, overlapped=True
                ),
            )
        )

    def digest(self, index: int, output) -> object:
        ring, base, over = output
        return (
            ring.total_time,
            base.total_time,
            over.total_time,
            base.turnaround,
            over.turnaround,
            sum(len(o.schedule.dag.ops) for o in output),
        )

    def counts(self, digest) -> dict[str, float]:
        return {"sim.dag_ops": digest[5]}

    def check(self, digests: list) -> list[bool]:
        (row,) = self.fig14.run(
            nodes=(self.nodes,), sizes=((self.nbytes, self.nchunks),)
        )
        want = (
            row.ring_time,
            row.baseline_time,
            row.overlapped_time,
            row.baseline_turnaround,
            row.overlapped_turnaround,
        )
        return [d is not None and d[:5] == want for d in digests]


#: Victims of the recover warm-up op: a fixed pair of median cost, so
#: set-up time does not depend on the seed.
WARM_UP_VICTIMS = (0, 3)


class Recover(Workload):
    """Crash, cascade crash and rejoin on DGX-1, fresh trainer per op.

    Op time depends on the victims (0.55-1.06 s over the 56 ordered
    pairs), so victims are drawn in balanced cycles of 8 ops: each cycle
    takes a seeded permutation of the GPUs as first victims and the same
    permutation rotated by a seeded offset as second victims, so every
    GPU dies exactly once first and once second per cycle.
    """

    name = "recover"
    tail_pct = 55.0
    cycle = 8
    params = 4096
    iterations = 8
    learning_rate = 0.02

    def load(self) -> None:
        self.layers_mod = importlib.import_module("repro.dnn.layers")
        self.runtime = importlib.import_module("repro.runtime")
        self.dgx1 = importlib.import_module("repro.topology.dgx1")
        self.dgx1_trees = importlib.import_module("repro.topology.dgx1_trees")

    def prepare(self, seed: int) -> None:
        spec = self.layers_mod.LayerSpec
        self.net = self.layers_mod.NetworkModel(
            name="perfbench-recover",
            layers=(spec(name="L0", params=self.params, fwd_flops=1e6),),
        )
        self.rng = np.random.default_rng(seed)
        self.gradient_fn = self.runtime.quadratic_gradient(
            [self.rng.normal(size=self.params) for _ in range(8)]
        )
        self.w0 = self.rng.normal(size=self.params)
        self.cycles: dict[int, tuple[list[int], int]] = {}

    def victims_of(self, index: int) -> tuple[int, int]:
        if index == 0:
            return WARM_UP_VICTIMS
        # Inputs 1..8 form cycle 0, 9..16 cycle 1, ...; cycles are drawn
        # in the order inputs first ask for them, which is increasing.
        number = (index - 1) // self.cycle
        if number not in self.cycles:
            order = [int(g) for g in self.rng.permutation(8)]
            self.cycles[number] = (order, int(self.rng.integers(1, 8)))
        order, offset = self.cycles[number]
        position = index % self.cycle
        return order[position], order[(position + offset) % 8]

    def op(self, index: int):
        rt = self.runtime
        first, second = self.victims_of(index)
        events = (
            rt.MembershipEvent("crash", first, 2),
            rt.MembershipEvent("crash", second, 4),
            rt.MembershipEvent("join", first, 6),
            rt.MembershipEvent("join", second, 6),
        )
        trainer = rt.ElasticTrainer(
            self.dgx1.dgx1_topology(),
            self.net,
            self.gradient_fn,
            trees=self.dgx1_trees.dgx1_trees(),
            detour_map=self.dgx1_trees.DETOURED_EDGES,
            learning_rate=self.learning_rate,
            spin=rt.SpinConfig(timeout=10.0),
            detour_preference=self.dgx1.DETOUR_NODES,
            checkpointer=rt.Checkpointer(rt.MemoryBackend()),
            checkpoint_every=2,
        )
        report = trainer.train(
            self.w0, iterations=self.iterations, events=events
        )
        return (first, second), trainer.layout, report

    def digest(self, index: int, output) -> object:
        victims, layout, report = output
        crashes = [r for r in report.records if r.event.kind == "crash"]
        return dict(
            victims=victims,
            detected=tuple(r.dead_detected for r in crashes),
            weights=report.weights,
            segments=report.segments,
            layout=layout,
            aborts=sum(1 for r in crashes if r.dead_detected),
            reembeds=len(report.records),
        )

    def counts(self, digest) -> dict[str, float]:
        hits = sum(
            1
            for victim, found in zip(digest["victims"], digest["detected"])
            if found == (victim,)
        )
        return {
            "runtime.aborts": digest["aborts"],
            "runtime.reembeds": digest["reembeds"],
            "runtime.crashes": len(digest["victims"]),
            "runtime.detect_hits": hits,
        }

    def check(self, digests: list) -> list[bool]:
        ok = []
        for d in digests:
            if d is None:
                ok.append(False)
                continue
            expected = self.runtime.elastic_serial_reference(
                self.net,
                self.gradient_fn,
                self.w0,
                segments=d["segments"],
                layout=d["layout"],
                iterations=self.iterations,
                learning_rate=self.learning_rate,
            )
            ok.append(
                d["detected"] == tuple((v,) for v in d["victims"])
                and bool(np.array_equal(d["weights"], expected))
            )
        return ok


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Train, Tune, Scaleout, Recover)
}
