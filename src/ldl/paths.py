"""Straight escape paths: the block form the reduced search prices.

A block path leaves the status-quo strategy in runs of identical moves
(first t1 switches to one target, then t2 to the next, and so on) and exits
the basin exactly at its final state.  Under the structural conditions the
search needs only the straight ones, a single run to one target; the
paper's comparison principles and straightening, which prove this, are
checked in the tests.  ``_straight_run`` prices a run as the least-cost
search prices moves; the enumeration reads its basin flags,
``exit_reduced`` its weights, and the search's ``_path_bounds`` both.
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


def _straight_run(game, n: int, start: int, j: int, targets, rule: CostRule,
                  lo: int = 0, hi: Optional[int] = None) -> tuple:
    """Each population's basin flags and move weights along the run of
    ``start -> j`` moves from convention ``start``, at the counts c of j in
    [lo, hi) (to n by default), each on its own row, so a chunk rounds as
    the whole run.  ``flags[p][c - lo, t]``: ``targets[t]`` is a weak best
    reply of population p, as the search and ``in_basin`` decide;
    ``weights[p][c - lo]``: p's next move under ``rule``, as ``step_cost``."""
    c = np.arange(lo, n + 1 if hi is None else min(hi, n + 1))
    counts = np.zeros((len(c), game.k))
    counts[:, start] = n - c
    counts[:, j] = c
    flags, weights = [], []  # each population's, facing c agents on j
    for pop in game.populations:
        prod = faced_products(game, pop, counts)
        flags.append(prod[:, list(targets)] >= prod.max(axis=1, keepdims=True))
        weights.append(cost_vector(game, rule, prod / n, start, pop)[:, j])
    return flags, weights


def _chunks(game: OnePopGame, n: int, mbar: int, u: int, stop: int) -> Iterator[tuple]:
    """Each chunk of the ``mbar -> u`` run below ``stop``, lowest first: its
    first count, ``mbar`` flags and logit weights, in O(k ``_CHUNK``) memory."""
    for lo in range(0, stop, _CHUNK):
        (flags,), (weights,) = _straight_run(game, n, mbar, u, (mbar,), CostRule.LOGIT,
                                             lo, min(lo + _CHUNK, stop))
        yield lo, flags[:, 0], weights


def _first(terminal: np.ndarray) -> np.ndarray:
    """The first terminal count along a run, per target; one past the run's
    last count, which indexes no state, where there is none."""
    return np.where(terminal.any(axis=0), terminal.argmax(axis=0), terminal.shape[0])


def _totals(run: np.ndarray) -> np.ndarray:
    """A run's cost to each count, its weights added one at a time in path
    order as the search and ``path_cost`` add them (``np.cumsum`` adds
    sequentially); inf one past the last."""
    return np.concatenate(([0.0], run, [math.inf])).cumsum()


def _path_bounds(game, n: int, start: int, targets, leaving: bool,
                 rule: CostRule) -> list:
    """Each target's cost along the cheapest of a family of real paths out
    of convention ``start``, ``inf`` where none reaches a state terminal
    for it: for each j, the straight run of ``start -> j`` moves, and for
    two populations up to one such run per population, in either order.

    Weights are added in path order as the search adds them, but for the
    second population's b moves, which all face the first run's fixed count
    and so cost b times one weight (about b ulps off b additions).  Until
    the first run is terminal, the second ends where the first population's
    flag turns, a count that reads only the second's: O(n) per j and order."""
    bounds = np.full(len(targets), math.inf)
    for j in sorted(set(range(game.k)) - {start}):
        flags, weights = _straight_run(game, n, start, j, targets, rule)
        if len(flags) == 1:  # one population: the straight run
            costs = [_totals(weights[0][:n])[_first(flags[0] ^ leaving)]]
        else:
            costs = []
            for x, y in ((0, 1), (1, 0)):  # x's run first, facing y on start
                stop = _first((flags[x][:1] & flags[y]) ^ leaving)
                total = _totals(np.repeat(weights[x][:1], n))
                # x's run halts at a < stop; y's run then ends at the first
                # count b where x's flag turns, if y's flag at a is set.
                turn = _first(flags[x][1:] ^ leaving) + 1
                ok = (np.arange(n + 1)[:, None] < stop) & flags[y] & (turn <= n)
                second = total[:-1, None] + np.minimum(turn, n) * weights[y][:, None]
                costs += [total[stop], np.where(ok, second, np.inf).min(axis=0)]
        bounds = np.minimum(bounds, np.min(costs, axis=0))
    return bounds.tolist()


def enumerate_block_paths(game: OnePopGame, n: int,
                          mbar: int) -> Iterator[BlockSpec]:
    """The straight block escape paths from the convention ``mbar``.

    For each target u != mbar in ascending order, the mbar->u run to its
    first count whose ``mbar`` flag is off, scanned in chunks; a run that
    uses up the status-quo agents inside the basin has no spec.  Under the
    structural conditions one of these k-1 at most is a least-cost escape:
    the paper's theorem says the most likely escapes are repeated identical
    mistakes from the status quo to one other convention.
    """
    if isinstance(game, TwoPopGame):
        raise ConditionError("the reduced search covers one-population games only")
    check_convention(game, mbar)
    n = check_population(n)
    for u in sorted(set(range(game.k)) - {mbar}):
        count = next((lo + int(flags.argmin()) for lo, flags, _
                      in _chunks(game, n, mbar, u, n + 1) if not flags.all()), None)
        if count == 0:  # every run starts at the convention
            raise ConditionError("the convention itself is outside its basin")
        if count is not None:
            yield BlockSpec((u,), (count,))


def _cheapest_spec(game: OnePopGame, n: int, mbar: int, specs) -> tuple:
    """The least cost over the straight ``specs`` and the first spec at it
    (target order, as enumerated): each run's weights to its count, added
    one move at a time as ``path_cost`` adds them along the witness, each
    chunk's sum starting from the running total."""
    def cost(spec: BlockSpec) -> float:
        total = 0.0
        for _, _, weights in _chunks(game, n, mbar, *spec.targets, *spec.counts):
            total = float(np.concatenate(([total], weights)).cumsum()[-1])
        return total

    return min(((cost(spec), spec) for spec in specs), key=lambda pair: pair[0])
