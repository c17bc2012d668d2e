"""Benchmark of the ldl library: escape, stationary and bargaining workloads.

    python3 bench/run.py --workload escape --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
After set-up and one untimed warm-up pass, the workload's op list is run in
passes until ``--seconds`` would be exceeded (at least two passes, or two of
each kind when traced).
Every op's answer is checked after its pass.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are printed, the spans being
written to ``.bench_out/``.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.

Every time in the JSON is scaled to a reference machine speed.
The CPU speed a shared host gives this process drifts by 10-30 % over
seconds to minutes, and every op slows and speeds up with it, so a fixed
gauge (a few milliseconds of the kind of interpreter and numpy work the
workload's ops do, without calling the library) runs before the first op
of each pass and after every op, outside their timing.  A gauge reads its
time over its time at reference speed, and each op's latency is divided by
the mean of the two readings either side of it: the seconds it would take
at reference speed.  Each set-up rep is divided by the median of three
readings of the heap gauge taken just before it.  A change to the library
moves the scaled times as it moves the raw ones; the raw times are printed
too.

Everything runs in this one process with BLAS and OpenMP pinned to one
thread, apart from the short-lived interpreters that time a cold import.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 15
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ldl; "
                "print(time.perf_counter() - t)")
_GAUGE_X = np.linspace(0.0, 1.0, 20_000)
_GAUGE_M = np.linspace(0.0, 1.0, 650 * 650).reshape(650, 650)

LAYER_TIMES = (
    "escape.exit_reduced", "paths.enumerate_block_paths", "chain.path_cost",
    "escape.exit_bruteforce", "stability.transition_cost_matrix",
    "stability.arborescence_root", "escape.exit_bruteforce_two_pop",
    "chain.transition_matrix", "chain.transition_matrix_two_pop",
    "stability.elimination", "stability.elimination_two_pop",
    "bargaining.stable_division", "bargaining.crossings",
    "bargaining.solve_solutions", "games.validate_one_pop",
    "games.validate_two_pop", "games.ndg_build", "cli.main",
)
LAYER_COUNTS = (
    ("paths.block_specs", "count"), ("escape.witness_steps", "count"),
    ("escape.two_pop_witness_steps", "count"), ("chain.kernel_states", "count"),
    ("chain.kernel_nonzeros", "count"), ("chain.kernel_bytes", "bytes_computed"),
    ("bargaining.grid_cells", "count"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("escape", "stationary", "bargaining"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import ldl from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "ldl", "__init__.py")):
        raise SystemExit(f"error: no ldl sources under {SRC}; run from a checkout")
    sys.path[:0] = [HERE, SRC]
    import ldl
    if os.path.dirname(os.path.dirname(os.path.abspath(ldl.__file__))) != SRC:
        raise SystemExit(f"error: imported ldl from {ldl.__file__}, not {SRC}")


def _heap_work() -> None:
    """Heap and dict work on small tuples, as in the Dijkstra searches."""
    heap, seen = [], {}
    for i in range(2000):
        key = (i * 7919) % 1009
        heapq.heappush(heap, (key, i))
        seen[(key, i & 63)] = i
    while heap:
        heapq.heappop(heap)


def _vector_work() -> None:
    """Numpy passes over a grid that fits in the L2 cache, as in the scans."""
    for _ in range(10):
        y = np.sqrt(_GAUGE_X) * _GAUGE_X
        y = np.maximum(y[1:] - y[:-1], 0.0)
        y.argmax()
        np.cumsum(y)


def _matrix_work() -> None:
    """Rank-one updates of a matrix larger than the L2 cache, as in GTH."""
    for _ in range(2):
        _GAUGE_M + np.outer(_GAUGE_M[0], _GAUGE_M[:, 0])


# Seconds each part takes at reference speed: its median on the machine the
# benchmark was written on, a 2-vCPU KVM guest on an Intel Xeon (Sapphire
# Rapids) host.
REF_PART_S = {_heap_work: 0.002, _vector_work: 0.00145, _matrix_work: 0.002}
# The gauge of each workload: the parts its ops resemble.
GAUGES = {
    "escape": (_heap_work,),
    "stationary": (_heap_work, _vector_work, _matrix_work),
    "bargaining": (_heap_work, _vector_work),
}
# Set-up is mostly interpreter work, the cold import above all.
SETUP_GAUGE = (_heap_work,)


def gauge(parts) -> float:
    """Time of ``parts`` over their time at reference speed.

    The parts do not call the library, so the reading follows the speed the
    host gives this process at the moment; 1.0 is reference speed.
    """
    start = time.perf_counter()
    for part in parts:
        part()
    return (time.perf_counter() - start) / sum(REF_PART_S[p] for p in parts)


def scaled(seconds, gauges) -> list[float]:
    """Each time at reference speed, by the gauges read either side of it."""
    return [2 * t / (before + after)
            for t, before, after in zip(seconds, gauges, gauges[1:])]


def cold_import_seconds() -> float:
    """ldl import time, numpy included, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def set_up(workload: str, seed: int):
    """Seeded inputs, committed references and the op lists; timed per rep."""
    import inputs
    import reference
    import workloads

    start = time.perf_counter()
    with open(reference.REFERENCES) as fh:
        ctx = workloads.Context(json.load(fh))
    build_ops, build_probes = workloads.WORKLOADS[workload]
    seeded = inputs.seeded(seed)
    ops, probes = build_ops(seeded, ctx), build_probes(ctx)
    return time.perf_counter() - start, ctx, ops, probes


def run_op(op):
    try:
        return op.run(), None
    except Exception as exc:  # a raising op is a failed op, not a crash
        return None, f"raised {type(exc).__name__}: {str(exc)[:200]}"


def check_op(op, result, error):
    if error is not None:
        return error
    try:
        return op.check(result)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {str(exc)[:200]}"


def run_pass(ops, parts, tracer=None):
    """One pass over the op list: (raw latencies, gauges, failures).

    The gauge of ``parts`` is read before the first op and after every op,
    outside the latencies, so ``scaled(latencies, gauges)`` brings them to
    reference speed.
    """
    import spans

    latencies, gauges, outcomes = [], [gauge(parts)], []
    for op in ops:
        # Each op starts from a collected heap, so when the collector runs
        # inside it depends on the op alone, not on what ran before.
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            outcomes.append(run_op(op))
        else:
            tracer.op = op.name
            with spans.instrumented(tracer), tracer.span("op"):
                outcomes.append(run_op(op))
            tracer.tally()
        latencies.append(time.perf_counter() - t0)
        gauges.append(gauge(parts))
    failures = {}
    for op, (result, error) in zip(ops, outcomes):
        problem = check_op(op, result, error)
        if problem is not None:
            failures[op.name] = problem
    return latencies, gauges, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import spans

    gauge(SETUP_GAUGE)  # its first call is slower
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        reading = statistics.median(gauge(SETUP_GAUGE) for _ in range(3))
        seconds, ctx, ops, probes = set_up(args.workload, args.seed)
        setup_raw.append(seconds + cold_import_seconds())
        setup_scaled.append(setup_raw[-1] / reading)
    setup_s = statistics.median(setup_scaled)
    parts = GAUGES[args.workload]
    gauge(parts)  # its first call is slower: numpy sets up the ufunc loops

    # Per timed pass: scaled and raw latencies, and their sum, the pass time.
    walls, traced_walls, latencies, raw_latencies = [], [], [], []
    tracers, trace_factors, gauge_means = [], [], []
    failures, attempted, failed = {}, 0, 0
    warm = True
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        tracer = spans.Tracer() if traced else None
        t0 = time.perf_counter()
        raw, gauges, bad = run_pass(ops, parts, tracer)
        lat = scaled(raw, gauges)
        spent = time.perf_counter() - t0
        attempted += len(ops)
        failed += len(bad)
        for name, problem in bad.items():
            failures.setdefault(name, problem)
        if warm:
            # The first pass is checked but not timed: it warms the
            # interpreter, the allocator and the CPU before measuring starts.
            warm, start = False, time.perf_counter()
            continue
        gauge_means.append(statistics.fmean(gauges))
        if traced:
            traced_walls.append(sum(lat))
            tracers.append(tracer)
            trace_factors.append(1 / gauge_means[-1])
        else:
            walls.append(sum(lat))
            latencies.append(lat)
            raw_latencies.append(raw)
        enough = len(walls) >= 2 and (not args.trace or len(traced_walls) >= 2)
        if enough and time.perf_counter() - start + spent > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe_failures = {}
    for op in probes:
        problem = check_op(op, *run_op(op))
        if problem is not None:
            probe_failures[op.name] = problem

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "passes": len(walls), "traced_passes": len(traced_walls),
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"gauge mean reading {statistics.fmean(gauge_means):.4f} over "
          f"{len(gauge_means)} passes (1 is reference speed); "
          f"raw mean pass {statistics.fmean(map(sum, raw_latencies)):.4f} s; "
          f"raw median set-up {statistics.median(setup_raw):.4f} s")
    print("op median latency: scaled, raw")
    for op, samples, raw in zip(ops, zip(*latencies), zip(*raw_latencies)):
        print(f"op {1000 * statistics.median(samples):10.2f} ms "
              f"{1000 * statistics.median(raw):10.2f} ms  {op.name}")
    for name, problem in failures.items():
        print(f"FAILED op {name}: {problem}")
    for op in probes:
        status = probe_failures.get(op.name, "passed")
        print(f"probe {op.name}: {status}")
    # Share of distinct ops, probes included, that failed at least once; it
    # does not depend on how many passes fitted in the run.
    failed_frac = (len(failures) + len(probe_failures)) / (len(ops) + len(probes))
    print(f"failed_frac {failed_frac:.6f} ({len(failures)} of {len(ops)} ops, "
          f"{len(probe_failures)} of {len(probes)} probes; {failed} of "
          f"{attempted} op runs failed)")

    samples = [x for lat in latencies for x in lat]
    if args.trace:
        metrics = layer_metrics(tracers, trace_factors, traced_walls, walls, ctx,
                                failed_frac)
        write_spans(args, tracers)
    else:
        metrics = {
            # The mean pass rather than the median: over a run's few passes
            # it varies less from run to run.
            "wall_s": (statistics.fmean(walls), "s"),
            "call_p50_ms": (1000 * float(np.percentile(samples, 50)), "ms"),
            "call_p90_ms": (1000 * float(np.percentile(samples, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"latency samples {len(samples)} ({len(ops)} ops x {len(walls)} passes)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracers, factors, traced_walls, walls, ctx, failed_frac) -> dict:
    """Per-pass medians of layer self times, each pass scaled by its mean
    gauge, and the counts of one pass."""
    selfs = [t.self_times() for t in tracers]
    out = {}
    for name in LAYER_TIMES:
        out[name + "_s"] = (statistics.median(
            f * s.get(name, 0.0) for s, f in zip(selfs, factors)), "s")
    for name, unit in LAYER_COUNTS:
        out[name] = (tracers[0].counts.get(name, 0), unit)
    out["stability.residual_max"] = (ctx.residual_max, "abs")
    out["trace_overhead_s"] = (
        statistics.fmean(traced_walls) - statistics.fmean(walls), "s")
    out["failed_frac"] = (failed_frac, "ratio")
    return out


def write_spans(args, tracers) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    doc = [{"pass": k, "counts": dict(t.counts),
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                      for n, s, e, p, o in t.spans]}
           for k, t in enumerate(tracers)]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
