"""In-memory spans around calls into the library's layers.

A traced pass replaces selected library functions, wherever a module of the
``ldl`` package holds a reference to them, with wrappers that record a span
(name, start, end, parent, op id) and restores the originals afterwards.
No library file is edited: the wrappers live here, around the calls one
module makes into another.  A layer's self time is its spans' duration minus
the part covered by their child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import ldl


def _two_pop(args) -> bool:
    return bool(args) and isinstance(args[0], ldl.TwoPopGame)


def _suffixed(stem: str):
    """Span name that separates two-population calls from one-population ones."""
    return lambda args: stem + "_two_pop" if _two_pop(args) else stem


# (module, function, span name or function of the call's positional args).
# invariant_measure's span keeps only the solve once kernel assembly, its
# child, is subtracted, hence the "elimination" name.
TARGETS = (
    ("ldl.games", "validate_one_pop", "games.validate_one_pop"),
    ("ldl.games", "validate_two_pop", "games.validate_two_pop"),
    ("ldl.games", "ndg_build", "games.ndg_build"),
    ("ldl.chain", "transition_matrix", _suffixed("chain.transition_matrix")),
    ("ldl.chain", "path_cost", "chain.path_cost"),
    ("ldl.paths", "enumerate_block_paths", "paths.enumerate_block_paths"),
    ("ldl.escape", "exit_bruteforce", _suffixed("escape.exit_bruteforce")),
    ("ldl.escape", "exit_reduced", "escape.exit_reduced"),
    ("ldl.stability", "transition_cost_matrix", "stability.transition_cost_matrix"),
    ("ldl.stability", "arborescence_root", "stability.arborescence_root"),
    ("ldl.stability", "invariant_measure", _suffixed("stability.elimination")),
    ("ldl.bargaining", "stable_division", "bargaining.stable_division"),
    ("ldl.bargaining", "crossings", "bargaining.crossings"),
    ("ldl.bargaining", "solve_solutions", "bargaining.solve_solutions"),
    ("ldl.cli", "main", "cli.main"),
)


class Tracer:
    """Collects spans and per-layer counts for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.results: list[tuple] = []   # (span name, return value), untallied
        self._stack: list[int] = []
        self.op: str = ""

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def tally(self) -> None:
        """Turn the return values seen since the last call into counts.

        Runs between ops, outside every span, so counting costs no layer
        time; it also releases the kernels the calls returned.
        """
        for name, result in self.results:
            if name.startswith("chain.transition_matrix"):
                states, P = result
                self.counts["chain.kernel_states"] += len(states)
                self.counts["chain.kernel_nonzeros"] += int(np.count_nonzero(P))
                self.counts["chain.kernel_bytes"] += int(P.nbytes)
            elif name == "escape.exit_bruteforce":
                self.counts["escape.witness_steps"] += len(result.witness) - 1
            elif name == "escape.exit_bruteforce_two_pop":
                self.counts["escape.two_pop_witness_steps"] += len(result.witness) - 1
            elif name == "bargaining.stable_division":
                self.counts["bargaining.grid_cells"] += len(result.per_m_binding) + 1
        self.results.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)


def _wrap(fn, name, tracer: Tracer):
    namer = name if callable(name) else (lambda args: name)
    if inspect.isgeneratorfunction(fn):
        # Time each step of the block-path generator on its own and count
        # the specs it yields.
        def gen_wrapper(*args, **kwargs):
            label = namer(args)
            it = fn(*args, **kwargs)
            while True:
                with tracer.span(label):
                    item = next(it, StopIteration)
                if item is StopIteration:
                    return
                tracer.counts["paths.block_specs"] += 1
                yield item

        return gen_wrapper

    def wrapper(*args, **kwargs):
        label = namer(args)
        with tracer.span(label):
            result = fn(*args, **kwargs)
        tracer.results.append((label, result))
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Route every ``ldl`` module's reference to a target through a span."""
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "ldl" or key.startswith("ldl."))]
    saved = []
    for module_name, attr, name in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrap(original, name, tracer)
        for module in modules:
            if getattr(module, attr, None) is original:
                saved.append((module, attr, original))
                setattr(module, attr, wrapped)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
