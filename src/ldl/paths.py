"""Straight escape paths: the block form the reduced search prices.

A block path leaves the status-quo strategy in runs of identical moves
(first t1 switches to one target, then t2 to the next, and so on) and exits
the basin exactly at its final state.  Under the structural conditions the
search needs only the straight ones, a single run to one target; the
paper's comparison principles and straightening, which prove this, are
checked in the tests.  ``_straight_run`` prices a run as the least-cost
search prices moves, and ``_run_exit`` scans one population's run once for
its exit and its cost to it: the enumeration reads the exit,
``exit_reduced`` the cost, and the search's ``_path_bounds`` the cost of
each run out of a convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .chain import CostRule, Move, Path, check_population, cost_vector, faced_products
from .errors import ConditionError
from .games import OnePopGame, TwoPopGame, check_convention, is_number


@dataclass(frozen=True)
class BlockSpec:
    """Runs of identical moves away from the status-quo strategy.

    ``targets[l]`` receives ``counts[l]`` consecutive switches; targets and
    counts are integers (not bools), targets are distinct, counts positive,
    and the total number of switches cannot exceed n.
    """

    targets: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not all(is_number(v, numbers.Integral) for v in (*self.targets, *self.counts)):
            raise ConditionError("block targets and counts must be integers")
        if len(self.targets) != len(self.counts):
            raise ConditionError("targets and counts must have equal length")
        if len(set(self.targets)) != len(self.targets):
            raise ConditionError("block targets must be distinct")
        if any(c < 1 for c in self.counts):
            raise ConditionError("block counts must be positive")

    @property
    def total_moves(self) -> int:
        return sum(self.counts)

    def realize(self, k: int, n: int, mbar: int) -> Path:
        """The path the blocks induce starting from the convention."""
        if self.total_moves > n:
            raise ConditionError("block path moves more agents than exist")
        moves = []
        for tgt, cnt in zip(self.targets, self.counts):
            moves += [Move(mbar, tgt)] * cnt
        return Path.walk(tuple(n if i == mbar else 0 for i in range(k)), moves)


# ---------------------------------------------------------------------------
# The straight escape paths


_CHUNK = 1 << 14  # counts priced per pass where a run is scanned


def _straight_run(game, n: int, start: int, j: int, rule: CostRule,
                  lo: int = 0, hi: Optional[int] = None) -> tuple:
    """Each population's basin flags and move weights along the run of
    ``start -> j`` moves from convention ``start``, at the counts c of j in
    [lo, hi) (to n by default), each on its own row, so a chunk rounds as
    the whole run.  ``flags[p][c - lo]``: ``start`` is a weak best reply of
    population p, as the search and ``in_basin`` decide;
    ``weights[p][c - lo]``: p's next move under ``rule``, as ``step_cost``."""
    c = np.arange(lo, n + 1 if hi is None else min(hi, n + 1))
    counts = np.zeros((len(c), game.k))
    counts[:, start] = n - c
    counts[:, j] = c
    flags, weights = [], []  # each population's, facing c agents on j
    for pop in game.populations:
        prod = faced_products(game, pop, counts)
        flags.append(prod[:, start] >= prod.max(axis=1))
        weights.append(cost_vector(game, rule, prod / n, start, pop)[:, j])
    return flags, weights


def _run_exit(game: OnePopGame, n: int, start: int, j: int, rule: CostRule) -> tuple:
    """The first count of the one-population ``start -> j`` run whose
    ``start`` flag is off, and the run's cost to it; (None, inf) where the
    run never leaves the basin.  The run is scanned ``_CHUNK`` counts at a
    time, in O(k ``_CHUNK``) memory, and its weights are added one move at
    a time in path order (``np.cumsum`` adds sequentially), each chunk
    starting from the running total, as the search and ``path_cost`` add
    them."""
    total = 0.0
    for lo in range(0, n + 1, _CHUNK):
        (flags,), (weights,) = _straight_run(game, n, start, j, rule, lo, lo + _CHUNK)
        sums = np.concatenate(([total], weights)).cumsum()
        if not flags.all():
            count = int(flags.argmin())
            return lo + count, float(sums[count])
        total = float(sums[-1])
    return None, math.inf


def _first(terminal: np.ndarray) -> int:
    """The first terminal count along a run; one past the run's last count,
    which indexes no state, where there is none."""
    return int(terminal.argmax()) if terminal.any() else len(terminal)


def _path_bounds(game, n: int, start: int, rule: CostRule) -> float:
    """The cost of the cheapest of a family of real escape paths out of
    convention ``start``'s basin, ``inf`` where none leaves it: for each
    j, the straight run of ``start -> j`` moves, and for two populations up
    to one such run per population, in either order.

    Weights are added in path order as the search adds them, but for the
    second population's b moves, which all face the first run's fixed count
    and so cost b times one weight (about b ulps off b additions).  Until
    the first run leaves the basin, the second ends where the first
    population's flag turns, a count that reads only the second's: O(n)
    per j and order."""
    others = sorted(set(range(game.k)) - {start})
    if len(game.populations) == 1:  # one population: the straight runs
        return min((_run_exit(game, n, start, j, rule)[1] for j in others), default=math.inf)
    bound = math.inf
    for j in others:
        flags, weights = _straight_run(game, n, start, j, rule)
        for x, y in ((0, 1), (1, 0)):  # x's run first, facing y on start
            stop = _first(~(flags[x][0] & flags[y]))
            total = np.concatenate(([0.0], np.repeat(weights[x][0], n), [math.inf])).cumsum()
            # x's run halts at a < stop; y's run then ends at the first
            # count b where x's flag turns, if y's flag at a is set.
            turn = _first(~flags[x][1:]) + 1
            ok = (np.arange(n + 1) < stop) & flags[y] & (turn <= n)
            second = total[:-1] + min(turn, n) * weights[y]
            bound = min(bound, total[stop], np.where(ok, second, math.inf).min())
    return float(bound)


def enumerate_block_paths(game: OnePopGame, n: int,
                          mbar: int) -> Iterator[BlockSpec]:
    """The straight block escape paths from the convention ``mbar``.

    For each target u != mbar in ascending order, the mbar->u run to its
    exit, the first count whose ``mbar`` flag is off (``_run_exit``); a run
    that uses up the status-quo agents inside the basin has no spec.  Under
    the structural conditions one of these k-1 at most is a least-cost
    escape: the paper's theorem says the most likely escapes are repeated
    identical mistakes from the status quo to one other convention.
    """
    if isinstance(game, TwoPopGame):
        raise ConditionError("the reduced search covers one-population games only")
    check_convention(game, mbar)
    n = check_population(n)
    for u in sorted(set(range(game.k)) - {mbar}):
        count, _ = _run_exit(game, n, mbar, u, CostRule.LOGIT)
        if count == 0:  # every run starts at the convention
            raise ConditionError("the convention itself is outside its basin")
        if count is not None:
            yield BlockSpec((u,), (count,))
