"""Path construction and the comparison-principle machinery.

The central objects are escape paths out of a convention's basin and their
reduction to "block" form: a block path leaves the status-quo strategy in
runs of identical moves (first t1 switches to one target, then t2 to the
next, and so on) and exits the basin exactly at its final state.  Under the
structural conditions the search needs only the straight ones, a single run
to one target: ``enumerate_block_paths`` solves each of the k-1 runs' exits
in closed form and ``cheapest_block_path`` prices them in O(k) before one
O(n) witness is realized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .chain import (
    CostRule,
    Move,
    Path,
    State,
    apply_move,
    convention_state,
    in_basin,
    path_cost,
    payoff_vector,
)
from .errors import ConditionError, LdlError
from .games import NEAR_TIE, OnePopGame


@dataclass(frozen=True)
class BlockSpec:
    """Runs of identical moves away from the status-quo strategy.

    ``targets[l]`` receives ``counts[l]`` consecutive switches; targets are
    distinct and the total number of switches cannot exceed n.
    """

    targets: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
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


def cp2_delta(game: OnePopGame, n: int, mbar: int, i: int, j: int) -> float:
    """State-free cost gap between the two orders of a pair of status-quo moves.

    Doing mbar->j before mbar->i costs this much more than the reverse order,
    at every basin state: (A[j,i]-A[j,m]+A[m,j]-A[m,i]-A[i,j]+A[i,m])/n.
    """
    if i == j or mbar in (i, j):
        raise ConditionError("indices mbar, i, j must be distinct")
    a = game.payoffs
    return (a[j, i] - a[j, mbar] + a[mbar, j] - a[mbar, i]
            - a[i, j] + a[i, mbar]) / n


def cp2_direct(game: OnePopGame, x: State, mbar: int, i: int, j: int) -> float:
    """Direct two-path cost difference that ``cp2_delta`` predicts.

    Requires x and both intermediate states to lie in the basin.
    """
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


def enumerate_block_paths(game: OnePopGame, n: int,
                          mbar: int) -> Iterator[BlockSpec]:
    """The straight block escape paths from the convention ``mbar``.

    For each target u != mbar in ascending order, the spec of one mbar->u
    run whose last switch first leaves the basin, so at most k-1 specs; a
    target whose run uses up the status-quo agents inside the basin has
    none.  Under the structural conditions one of them is a least-cost
    escape path: the paper's theorem says the most likely escapes consist
    only of repeated identical mistakes from the status quo to one other
    convention, so no spec with two targets is needed.
    """
    start = convention_state(game, n, mbar)
    if not in_basin(game, start, mbar):
        raise ConditionError("the convention itself is outside its basin")
    for u in range(game.k):
        if u != mbar:
            length = _run_exit(game, start, mbar, u)
            if length is not None:
                yield BlockSpec((u,), (length,))


def _shifted(state: State, mbar: int, tgt: int, count: int) -> State:
    """``state`` after ``count`` switches from ``mbar`` to ``tgt``."""
    out = list(state)
    out[mbar] -= count
    out[tgt] += count
    return tuple(out)


def _run_exit(game: OnePopGame, state: State, mbar: int, tgt: int) -> Optional[int]:
    """Length of the mbar->tgt run from the basin state ``state`` whose last
    switch first leaves the basin; None if the status-quo agents run out first.

    Along the run every payoff gap (A y)_j - (A y)_mbar grows linearly in the
    run length, with slope s_j, so the exit is min_j floor(-gap_j/s_j) + 1
    over s_j > 0.  ``in_basin`` confirms it, inside one switch before and
    outside at it, stepping if not, so float-rounded ties are decided as a
    switch-by-switch walk decides them.
    """
    a = game.payoffs
    pay = a @ np.asarray(state, dtype=float)
    slopes = a[:, tgt] - a[:, mbar] - (a[mbar, tgt] - a[mbar, mbar])
    avail = state[mbar]
    r = avail + 1
    for gap, s in zip((pay - pay[mbar]).tolist(), slopes.tolist()):
        if s > 0 and -gap < s * r:
            r = min(r, math.floor(-gap / s) + 1)
    while r > 1 and not in_basin(game, _shifted(state, mbar, tgt, r - 1), mbar):
        r -= 1
    while r <= avail and in_basin(game, _shifted(state, mbar, tgt, r), mbar):
        r += 1
    return r if r <= avail else None


def cheapest_block_path(
    game: OnePopGame, n: int, mbar: int
) -> Optional[tuple[float, BlockSpec, Path]]:
    """The cheapest straight escape path from ``mbar``: (cost, spec, path).

    Each spec of ``enumerate_block_paths`` is priced in closed form by
    ``run_cost_closed_form``, exact since every state before the last lies
    in the basin.  The specs priced within ``NEAR_TIE`` of the least are
    realized and re-priced with ``path_cost`` in target order, and the
    first strict minimum wins.  None when no run leaves the basin.
    """
    start = convention_state(game, n, mbar)
    priced = [(run_cost_closed_form(game, start, mbar, spec.targets[0],
                                    spec.counts[0]), spec)
              for spec in enumerate_block_paths(game, n, mbar)]
    lo = min((price for price, _ in priced), default=math.inf)
    best = None
    for price, spec in priced:
        if price > lo + NEAR_TIE:
            continue
        path = spec.realize(game.k, n, mbar)
        cost = path_cost(game, CostRule.LOGIT, path)
        if best is None or cost < best[0]:
            best = (cost, spec, path)
    return best
