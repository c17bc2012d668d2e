"""Self-test of the benchmark: seeded inputs and per-layer counts repeat.

    python3 -m pytest bench/test_bench.py

Each workload runs two traced passes on the same seed; every count the
traced pass records must come out identical, a different seed must draw
different inputs, and scaling leaves times taken at reference speed alone.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

COUNTS = [name for name, _ in run.LAYER_COUNTS]


def test_seed_fixes_the_inputs():
    def key(seed):
        drawn = inputs.seeded(seed)
        games = [drawn[k].payoffs.tolist() for k in ("game3", "game3_stat", "game4")]
        return games, [(f.a, f.b, f.p) for f in drawn["frontiers"]]

    assert key(7) == key(7)
    assert key(7) != key(8)


@pytest.mark.parametrize("workload", ["escape", "stationary", "bargaining"])
def test_counts_repeat_exactly(workload):
    _, _, ops, _ = run.set_up(workload, seed=3)
    seen = []
    for _ in range(2):
        tracer = spans.Tracer()
        _, _, failures = run.run_pass(ops, run.GAUGES[workload], tracer)
        assert not failures
        seen.append({name: tracer.counts.get(name, 0) for name in COUNTS})
    assert seen[0] == seen[1]
    assert all(seen[0][name] > 0 for name in COUNTS)


def test_scaling_keeps_times_at_reference_speed():
    assert run.scaled([2.0, 3.0], [1.0, 1.0, 2.0]) == pytest.approx([2.0, 2.0])
