"""Outputs recorded when the benchmark was defined.

``EXPECTED_TUNE[(topology, nbytes)]`` is the tuner's winner for one
``tune`` op — ``(strategy, source, pipeline, simulated seconds)`` — and
its ``(candidates, simulated, pruned)`` counts, from
``repro.synth.tune(topo, sizes=(nbytes,), structures=search_structures(topo))``
with the default search seed.  A change that moves any of these changes
the tuner's output and is reported as failed ``tune`` ops.
"""

EXPECTED_TUNE = {
    ("dgx1", 64000.0): (
        "halving_doubling", "builder", 1, 1.6479999999999998e-05, 18, 5, 13),
    ("dgx1", 1000000.0): (
        "double_tree", "synth", 2, 5.8500000000000006e-05, 18, 8, 10),
    ("dgx1", 4000000.0): (
        "double_tree", "synth", 2, 0.00015599999999999994, 18, 7, 11),
    ("dgx1", 16000000.0): (
        "double_tree", "synth", 2, 0.000546, 18, 7, 11),
    ("dgx1", 64000000.0): (
        "double_tree", "synth", 2, 0.0021060000000000002, 18, 5, 13),
    ("dgx1-nolink37", 64000.0): (
        "double_tree", "synth", 1, 2.0879999999999997e-05, 16, 9, 7),
    ("dgx1-nolink37", 1000000.0): (
        "double_tree", "synth", 2, 5.8500000000000006e-05, 16, 11, 5),
    ("dgx1-nolink37", 4000000.0): (
        "double_tree", "synth", 2, 0.00015599999999999994, 16, 5, 11),
    ("dgx1-nolink37", 16000000.0): (
        "double_tree", "synth", 2, 0.000546, 16, 5, 11),
    ("dgx1-nolink37", 64000000.0): (
        "double_tree", "synth", 2, 0.0021060000000000002, 16, 5, 11),
}
