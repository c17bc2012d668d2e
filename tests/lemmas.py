"""The paper's lemmas made executable, as an independent check of the library.

The theorem that the most likely escape paths consist only of repeated
identical mistakes rests on two comparison principles and on straightening
any escape path into block form.  The library's reduced search prices only
the straight runs the theorem leaves; the functions here rebuild the
argument path by path, so the tests can check the identities and compare
straightened paths with the solvers' costs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ldl.chain import (
    CostRule,
    Move,
    Path,
    State,
    _reviser,
    apply_move,
    check_population,
    cost_vector,
    in_basin,
    path_cost,
    payoff_vector,
)
from ldl.errors import ConditionError, LdlError
from ldl.games import NEAR_TIE, OnePopGame, TwoPopGame, check_convention


def hat_s(game: TwoPopGame, pop: str, state: State) -> frozenset[int]:
    """Permissible deviation targets under the intentional rule at ``state``.

    A strategy is permissible when its convention payoff weakly beats the
    convention payoff of every current best reply of ``pop``.
    """
    pay = _reviser(game, state, pop)[1]
    costs = cost_vector(game, CostRule.INTENTIONAL, pay, 0, pop)
    return frozenset(np.flatnonzero(np.isfinite(costs)).tolist())


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

