"""Path construction and the comparison-principle machinery.

The central objects are escape paths out of a convention's basin and their
reduction to "block" form: a block path leaves the status-quo strategy in
runs of identical moves (first t1 switches to one target, then t2 to the
next, and so on) and exits the basin exactly at its final state.  Under the
structural conditions the search needs only the straight ones, a single run
to one target.  ``_straight_run`` prices a run as the least-cost search
prices moves; the enumeration reads its basin flags, ``exit_reduced`` its
weights, and the search's ``_path_bounds`` both.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .chain import (
    CostRule,
    Move,
    Path,
    State,
    apply_move,
    check_population,
    cost_vector,
    faced_products,
    in_basin,
    path_cost,
    payoff_vector,
)
from .errors import ConditionError, LdlError
from .games import NEAR_TIE, OnePopGame, TwoPopGame, check_convention, is_number


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


def convention_of(state: State) -> int:
    """Index of the strategy all agents play; error if the state is mixed."""
    n = sum(state)
    for i, c in enumerate(state):
        if c == n:
            return i
    raise ConditionError(f"state {state} is not a convention")


# ---------------------------------------------------------------------------
# Comparison principles as executable identities


def cp1_delta(game: OnePopGame, x: State, mbar: int, i: int, k: int, l: int) -> float:
    """Cost gap from postponing the switch away from the status-quo strategy.

    Compares the two-step paths (mbar->k then i->l) and (i->k then mbar->l)
    from ``x`` and returns the second minus the first; under the strict
    bandwagon property it is (A[m,m]-A[l,m]-A[m,i]+A[l,i])/n > 0.
    """
    if i == mbar or k in (i, mbar) or l in (i, mbar):
        raise ConditionError("indices must satisfy i != mbar, k,l not in {i, mbar}")
    n = sum(x)
    gamma1 = Path.walk(x, (Move(mbar, k), Move(i, l)))
    gamma2 = Path.walk(x, (Move(i, k), Move(mbar, l)))
    for probe in (x, gamma1.states[1], gamma2.states[1]):
        if not in_basin(game, probe, mbar):
            raise ConditionError("comparison states must lie in the basin")
    delta = gamma2.cost(game) - gamma1.cost(game)
    a = game.payoffs
    closed = (a[mbar, mbar] - a[l, mbar] - a[mbar, i] + a[l, i]) / n
    if abs(delta - closed) > 1e-12:
        raise LdlError(f"first comparison identity violated: {delta} vs {closed}")
    return delta


def _check_pair(game: OnePopGame, mbar: int, i: int, j: int) -> None:
    """Refuse a status quo and pair of targets that are not distinct strategies."""
    for index in (mbar, i, j):
        check_convention(game, index)
    if i == j or mbar in (i, j):
        raise ConditionError("indices mbar, i, j must be distinct")


def cp2_delta(game: OnePopGame, n: int, mbar: int, i: int, j: int) -> float:
    """State-free cost gap between the two orders of a pair of status-quo moves.

    Doing mbar->j before mbar->i costs this much more than the reverse order,
    at every basin state: (A[j,i]-A[j,m]+A[m,j]-A[m,i]-A[i,j]+A[i,m])/n.
    """
    n = check_population(n)
    _check_pair(game, mbar, i, j)
    a = game.payoffs
    return (a[j, i] - a[j, mbar] + a[mbar, j] - a[mbar, i]
            - a[i, j] + a[i, mbar]) / n


def cp2_direct(game: OnePopGame, x: State, mbar: int, i: int, j: int) -> float:
    """Direct two-path cost difference that ``cp2_delta`` predicts.

    Requires x and both intermediate states to lie in the basin.
    """
    _check_pair(game, mbar, i, j)
    gamma1 = Path.walk(x, (Move(mbar, i), Move(mbar, j)))
    gamma2 = Path.walk(x, (Move(mbar, j), Move(mbar, i)))
    for probe in (x, gamma1.states[1], gamma2.states[1]):
        if not in_basin(game, probe, mbar):
            raise ConditionError("comparison states must lie in the basin")
    return gamma2.cost(game) - gamma1.cost(game)


def run_cost_closed_form(game: OnePopGame, x: State, mbar: int, k: int,
                         rho: int) -> float:
    """Cost of ``rho`` consecutive mbar->k switches from ``x``, in closed form.

    Valid while the visited states stay in the basin of the convention.
    """
    n = sum(x)
    a = game.payoffs
    pi = payoff_vector(game, x)
    drop = pi[mbar] - pi[k]
    curvature = (-a[mbar, mbar] + a[mbar, k] + a[k, mbar] - a[k, k]) / n
    return rho * drop + rho * (rho - 1) / 2.0 * curvature


def build_exchange_triple(
    game: OnePopGame,
    x: State,
    mbar: int,
    k: int,
    eta: int,
    rho: int,
    middle: Sequence[Move],
) -> tuple[Path, Path, Path]:
    """The three reorderings whose costs satisfy the exchange identity.

    gamma does eta mbar->k moves, then ``middle``, then rho more mbar->k
    moves; gamma_prime brings the later run forward; gamma_second pushes the
    earlier run back.  eta*(I' - I) + rho*(I'' - I) = 0 whenever every
    visited state stays in the basin.
    """
    run = [Move(mbar, k)] * eta
    run2 = [Move(mbar, k)] * rho
    middle = list(middle)
    return (Path.walk(x, run + middle + run2), Path.walk(x, run + run2 + middle),
            Path.walk(x, middle + run + run2))


# ---------------------------------------------------------------------------
# Escape-path normal form


def first_exit_prefix(game: OnePopGame, states: Sequence[State], mbar: int) -> list:
    """Truncate at the first state outside the basin (inclusive)."""
    out = []
    for s in states:
        out.append(s)
        if not in_basin(game, s, mbar):
            break
    return out


def is_escape_path(game: OnePopGame, states: Sequence[State], mbar: int) -> bool:
    return (
        len(states) >= 2
        and all(in_basin(game, s, mbar) for s in states[:-1])
        and not in_basin(game, states[-1], mbar)
    )


def _merge_runs_once(game: OnePopGame, path: Path, mbar: int) -> Optional[Path]:
    """One exchange-identity rewrite toward block form; None when already there.

    Both merged orders permute the path's status-quo moves, so each is
    feasible and ends where the path ends, outside the basin.  Each is cut
    at its first exit, and the cheaper is returned (the earlier on a tie).
    """
    targets = [mv.dst for mv in path.moves]
    runs = []  # (target, start, length)
    for t, tgt in enumerate(targets):
        if runs and runs[-1][0] == tgt and runs[-1][1] + runs[-1][2] == t:
            runs[-1] = (tgt, runs[-1][1], runs[-1][2] + 1)
        else:
            runs.append((tgt, t, 1))
    seen = {}
    pair = None
    for idx, (tgt, _, _) in enumerate(runs):
        if tgt in seen:
            pair = (seen[tgt], idx)
            break
        seen[tgt] = idx
    if pair is None:
        return None
    a_idx, b_idx = pair
    tgt, a_start, eta = runs[a_idx]
    _, b_start, rho = runs[b_idx]
    middle = targets[a_start + eta:b_start]
    prefix = targets[:a_start]
    suffix = targets[b_start + rho:]
    merged_early = prefix + [tgt] * (eta + rho) + middle + suffix
    merged_late = prefix + middle + [tgt] * (eta + rho) + suffix

    cands = []
    for seq in (merged_early, merged_late):
        walked = Path.walk(path.states[0], [Move(mbar, t) for t in seq])
        exit_at = len(first_exit_prefix(game, walked.states, mbar)) - 1
        cands.append(Path.walk(path.states[0], walked.moves[:exit_at]))
    return min(cands, key=lambda p: path_cost(game, CostRule.LOGIT, p))


def straighten(game: OnePopGame, path: Path) -> Path:
    """Rewrite an escape path into block form without increasing its cost.

    Phase one removes every transition whose source is not the status-quo
    strategy by a local case analysis (cancel a there-and-back pair, collapse
    a detour, or swap the order of two adjacent moves); phase two collects
    equal moves into consecutive runs using the exchange identity, keeping
    whichever reordering is cheaper.  A path already in block form is
    returned unchanged; a path phase two cannot bring into block form
    raises ``LdlError``.
    """
    states = list(path.states)
    mbar = convention_of(states[0])
    if not is_escape_path(game, states, mbar):
        raise ConditionError("input path does not escape the basin")
    original_cost = path_cost(game, CostRule.LOGIT, path)

    # Phase one: only moves out of mbar remain afterwards.
    while True:
        current = Path(states)
        moves = current.moves
        idx = next(
            (t for t in range(len(moves) - 1, -1, -1) if moves[t].src != mbar), None
        )
        if idx is None:
            break
        i, l = moves[idx].src, moves[idx].dst
        if idx == len(moves) - 1:
            # Retarget the final transition to originate from mbar.
            states[idx + 1] = apply_move(states[idx], Move(mbar, l))
        else:
            kk = moves[idx + 1].dst
            if kk == i and l == mbar:
                del states[idx + 1:idx + 3]  # the pair cancels exactly
            elif kk == i:
                del states[idx + 1]          # collapse to a single mbar->l move
            elif l == mbar:
                del states[idx + 1]          # collapse to a single i->kk move
            else:
                alt = apply_move(states[idx], Move(mbar, l))
                if not in_basin(game, alt, mbar):
                    states = states[:idx + 1] + [alt]
                else:
                    states[idx + 1] = alt    # swapped order reaches the same state
        states = first_exit_prefix(game, states, mbar)
        if not is_escape_path(game, states, mbar):
            raise LdlError("straightening lost the escape property")

    # Phase two: collect identical moves into consecutive runs.
    while (merged := _merge_runs_once(game, current, mbar)) is not None:
        if merged.cost(game) > current.cost(game) + NEAR_TIE:
            break   # an early basin exit broke the identity
        current = merged

    if not _is_block_sequence([mv.dst for mv in current.moves]):
        raise LdlError("straightening left a path that is not in block form")
    if current.cost(game) > original_cost + NEAR_TIE:
        raise LdlError("straightening increased the path cost")
    return current


def _is_block_sequence(seq: Sequence[int]) -> bool:
    seen = set()
    last = None
    for t in seq:
        if t != last and t in seen:
            return False
        seen.add(t)
        last = t
    return True


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
    order as the search and ``path_cost`` add them; inf one past the last."""
    return np.array([*itertools.accumulate(run.tolist(), initial=0.0), math.inf])


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
    one move at a time as ``path_cost`` adds them along the witness."""
    def cost(spec: BlockSpec) -> float:
        total = 0.0
        for _, _, weights in _chunks(game, n, mbar, *spec.targets, *spec.counts):
            total = functools.reduce(operator.add, weights.tolist(), total)
        return total

    return min(((cost(spec), spec) for spec in specs), key=lambda pair: pair[0])
