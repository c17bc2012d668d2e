"""Discrete simplex state space, payoffs, per-step costs, and revision kernels.

States are plain tuples of agent counts: a one-population state is a
length-k tuple summing to n, a two-population state is a pair
``(alpha_counts, beta_counts)`` with both summing to n.  The population
size is always recoverable as ``sum(counts)``, so it is not carried
separately.  Public states stay such tuples, though the least-cost
search keys each state by one int inside.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    AdjacencyError,
    ConditionError,
    GuardrailExceeded,
    InfeasibleMoveError,
    UnsupportedRuleError,
)
from .games import Game, OnePopGame, TwoPopGame, check_convention

State = tuple  # tuple[int, ...] (one-pop) or (tuple[int, ...], tuple[int, ...])

KERNEL_STATE_CAP = 50_000  # states (or state pairs) of an exact kernel
# States a least-cost search may settle, and the largest n whose reduced-
# search witness (up to n + 1 states) is built.
ONE_POP_SEARCH_CAP = 1_000_000
TWO_POP_SEARCH_CAP = 10_000_000


class CostRule(Enum):
    """Revision rules the per-step cost is defined for.

    LOGIT is the unintentional logit rule; INTENTIONAL restricts deviations
    to strategies whose convention payoff would improve the deviator's
    population (two-population games only); UNIFORM charges one unit per
    non-best-response; BETTER_REPLY charges the payoff drop relative to the
    agent's current strategy.
    """

    LOGIT = "logit"
    INTENTIONAL = "intentional"
    UNIFORM = "uniform"
    BETTER_REPLY = "better"


@dataclass(frozen=True)
class Move:
    """A single agent's switch from ``src`` to ``dst``.

    ``pop`` is None for one-population games, else "alpha" or "beta".
    """

    src: int
    dst: int
    pop: Optional[str] = None


def is_two_pop_state(state: State) -> bool:
    return len(state) == 2 and isinstance(state[0], tuple)


def apply_move(state: State, move: Move) -> State:
    if move.pop is None:
        if state[move.src] < 1:
            raise InfeasibleMoveError(f"no agent plays strategy {move.src}")
        c = list(state)
        c[move.src] -= 1
        c[move.dst] += 1
        return tuple(c)
    side = 0 if move.pop == "alpha" else 1
    counts = list(state[side])
    if counts[move.src] < 1:
        raise InfeasibleMoveError(f"no {move.pop} agent plays strategy {move.src}")
    counts[move.src] -= 1
    counts[move.dst] += 1
    out = list(state)
    out[side] = tuple(counts)
    return tuple(out)


def move_between(x: State, y: State) -> Move:
    """The unique move turning ``x`` into ``y``; AdjacencyError otherwise."""
    if is_two_pop_state(x) != is_two_pop_state(y):
        raise AdjacencyError("mixed one- and two-population states")
    if is_two_pop_state(x):
        if x[0] == y[0]:
            inner = move_between(x[1], y[1])
            return Move(inner.src, inner.dst, "beta")
        if x[1] == y[1]:
            inner = move_between(x[0], y[0])
            return Move(inner.src, inner.dst, "alpha")
        raise AdjacencyError("both populations changed in one step")
    diff = [b - a for a, b in zip(x, y)]
    src = [i for i, d in enumerate(diff) if d == -1]
    dst = [i for i, d in enumerate(diff) if d == 1]
    if len(src) != 1 or len(dst) != 1 or any(d not in (-1, 0, 1) for d in diff):
        raise AdjacencyError(f"states {x} -> {y} are not one move apart")
    return Move(src[0], dst[0])


def check_population(n: int) -> int:
    """Refuse a bool, a non-integer, or below 1; return n as a Python int."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ConditionError(f"population size n={n!r} must be an integer")
    if n < 1:
        raise ConditionError(f"population size n={n} must be at least 1")
    return int(n)


def convention_state(game: Game, n: int, m: int) -> State:
    """The monomorphic state where every agent plays ``m``."""
    check_convention(game, m)
    n = check_population(n)
    e = tuple(n if i == m else 0 for i in range(game.k))
    if isinstance(game, TwoPopGame):
        return (e, e)
    return e


# ---------------------------------------------------------------------------
# Payoffs


def faced_products(game: Game, pop: Optional[str], counts: np.ndarray) -> np.ndarray:
    """Unnormalized payoffs of ``pop``'s revisers facing each float row of
    ``counts``, stacked to round like ``A @ c`` (``counts @ A.T`` moves ties)."""
    if pop is None:
        matrix = game.payoffs
    else:
        matrix = game.alpha if pop == "alpha" else game.beta.T
    return np.matmul(matrix[None], counts[:, :, None])[:, :, 0]


def payoff_vector(game: OnePopGame, counts: Sequence[int]) -> np.ndarray:
    """Expected payoff of each strategy at the state given by ``counts``."""
    c = np.asarray(counts, dtype=float)
    return game.payoffs @ c / c.sum()


def payoff_vector_alpha(game: TwoPopGame, beta_counts: Sequence[int]) -> np.ndarray:
    c = np.asarray(beta_counts, dtype=float)
    return game.alpha @ c / c.sum()


def payoff_vector_beta(game: TwoPopGame, alpha_counts: Sequence[int]) -> np.ndarray:
    c = np.asarray(alpha_counts, dtype=float)
    return c @ game.beta / c.sum()


def payoff(game: Game, i: int, state: State, pop: Optional[str] = None) -> float:
    """Expected payoff to strategy ``i`` at ``state`` (``pop`` for two-pop games)."""
    if isinstance(game, TwoPopGame):
        if pop == "alpha":
            return float(payoff_vector_alpha(game, state[1])[i])
        if pop == "beta":
            return float(payoff_vector_beta(game, state[0])[i])
        raise ConditionError("two-population payoff needs pop='alpha' or 'beta'")
    return float(payoff_vector(game, state)[i])


def _pop_payoffs(game: TwoPopGame, state: State, pop: str) -> np.ndarray:
    if pop == "alpha":
        return payoff_vector_alpha(game, state[1])
    return payoff_vector_beta(game, state[0])


# ---------------------------------------------------------------------------
# Basins of attraction


def in_basin(game: Game, state: State, m: int) -> bool:
    """Weak-inequality basin membership: ``m`` is a (possibly tied) best reply.

    The package's one discrete basin test: the block-path enumeration and
    the public API use it, and the least-cost search applies it to a batch
    of states' products, rounded alike.  It compares unnormalized
    payoffs, ``A @ counts`` (for two populations ``alpha @ beta_counts``
    and ``alpha_counts @ beta``), with the weak ``>=``.  Ties are exact for
    integer payoffs; with short-decimal payoffs a tie is decided by the
    float rounding of these sums.
    """
    if isinstance(game, TwoPopGame):
        pa = game.alpha @ np.asarray(state[1], dtype=float)
        pb = np.asarray(state[0], dtype=float) @ game.beta
        return bool(pa[m] >= pa.max() and pb[m] >= pb.max())
    pay = game.payoffs @ np.asarray(state, dtype=float)
    return bool(pay[m] >= pay.max())


def basin(game: OnePopGame, n: int, m: int,
          guardrail: int = ONE_POP_SEARCH_CAP) -> frozenset:
    """All states of the size-n simplex where ``m`` is a weak best reply."""
    n = check_population(n)
    total = num_states(n, game.k)
    if total > guardrail:
        raise GuardrailExceeded(
            f"{total} states exceeds the cap of {guardrail}; "
            "raise the guardrail explicitly to proceed"
        )
    return frozenset(s for s in enumerate_states(n, game.k) if in_basin(game, s, m))


# ---------------------------------------------------------------------------
# Step costs


def hat_s(game: TwoPopGame, pop: str, state: State) -> frozenset[int]:
    """Permissible deviation targets under the intentional rule at ``state``.

    A strategy is permissible when its convention payoff weakly beats the
    convention payoff of every current best reply of ``pop``.
    """
    pay = _pop_payoffs(game, state, pop)
    costs = cost_vector(game, CostRule.INTENTIONAL, pay, 0, pop)
    return frozenset(np.flatnonzero(np.isfinite(costs)).tolist())


def step_cost(game: Game, rule: CostRule, state: State, move: Move) -> float:
    """Exponential decay rate of the move's probability under ``rule``.

    Nonnegative; zero exactly on best-response targets; +inf for moves the
    intentional rule forbids.
    """
    counts, pay = _reviser(game, state, move)
    if counts[move.src] < 1:
        who = "agent" if move.pop is None else f"{move.pop} agent"
        raise InfeasibleMoveError(f"no {who} plays strategy {move.src}")
    return float(cost_vector(game, rule, pay, move.src, move.pop)[move.dst])


def _reviser(game: Game, state: State, move: Move) -> tuple:
    """Counts of the mover's population and the payoffs its revisers face."""
    if isinstance(game, TwoPopGame):
        if move.pop not in ("alpha", "beta"):
            raise ConditionError("two-population moves need pop='alpha' or 'beta'")
        counts = state[0 if move.pop == "alpha" else 1]
        return counts, _pop_payoffs(game, state, move.pop)
    if move.pop is not None:
        raise ConditionError("one-population moves must not carry a pop tag")
    return state, payoff_vector(game, state)


def cost_vector(game: Game, rule: CostRule, pay: np.ndarray, src: int,
                pop: Optional[str]) -> np.ndarray:
    """Cost of each choice (re-choosing ``src`` included) of a reviser of
    ``pop`` who now plays ``src`` and faces the payoffs ``pay``.

    The package's one per-rule cost dispatch: step costs, the kernel and
    the least-cost searches all price moves with it.  A 2-D ``pay`` is a
    stack of payoff rows, priced row by row to the same bits.
    """
    if rule is CostRule.BETTER_REPLY:
        return np.maximum(pay[..., src, None] - pay, 0.0)
    top = pay.max(axis=-1, keepdims=True)
    if rule is CostRule.LOGIT:
        return top - pay
    if rule is CostRule.INTENTIONAL:
        if pop is None:
            raise UnsupportedRuleError(
                "the intentional rule is defined for two-population games only"
            )
        conv = np.diag(game.matrix(pop))
        cutoff = np.where(pay == top, conv, -np.inf).max(axis=-1, keepdims=True)
        return np.where(conv >= cutoff, top - pay, np.inf)
    if rule is CostRule.UNIFORM:
        return np.where(pay == top, 0.0, 1.0)
    raise UnsupportedRuleError(f"unknown rule {rule}")


def _choice_probabilities(costs: np.ndarray, beta: float) -> np.ndarray:
    """Row-wise softmax of -beta * cost, stable for large beta; inf costs get
    weight 0, masked before beta multiplies so beta = 0 makes no NaN."""
    finite = np.isfinite(costs)
    if not finite.any(axis=-1).all():
        raise ConditionError("no permissible choice at this state")
    low = np.where(finite, costs, np.inf).min(axis=-1, keepdims=True)
    w = np.where(finite, np.exp(-beta * np.where(finite, costs - low, 0.0)), 0.0)
    return w / w.sum(axis=-1, keepdims=True)


def _check_beta(beta: float) -> None:
    if not np.isfinite(beta) or beta < 0:
        raise ConditionError("beta must be finite and nonnegative")


def transition_probability(
    game: Game, rule: CostRule, state: State, move: Move, beta: float
) -> float:
    """Probability that one revision step produces exactly ``move``.

    A revising agent is drawn uniformly (for two populations: population
    with probability 1/2 each, then an agent uniformly inside it), then
    chooses among all strategies with log-weights ``-beta * cost``.  Under
    the logit rules this is the standard logit kernel; self-transitions
    absorb the remaining mass.
    """
    _check_beta(beta)
    counts, pay = _reviser(game, state, move)
    if counts[move.src] < 1:
        return 0.0
    probs = _choice_probabilities(
        cost_vector(game, rule, pay, move.src, move.pop), beta
    )
    share = 0.5 if isinstance(game, TwoPopGame) else 1.0
    return share * counts[move.src] / sum(counts) * float(probs[move.dst])


# ---------------------------------------------------------------------------
# Paths


def path_cost(game: Game, rule: CostRule, states: Sequence[State]) -> float:
    """Total cost of a state sequence; +inf propagates; 0 for trivial paths."""
    total = 0.0
    for x, y in zip(states, states[1:]):
        mv = move_between(x, y)
        c = step_cost(game, rule, x, mv)
        if math.isinf(c):
            return math.inf
        total += c
    return total


# ---------------------------------------------------------------------------
# State enumeration and ranking


def num_states(n: int, k: int) -> int:
    return math.comb(n + k - 1, k - 1)


def comp_rank(counts: Sequence[int] | np.ndarray) -> int | np.ndarray:
    """Colexicographic rank of a count vector among all of its (n, k) peers.

    A 2-D integer array is ranked row by row in one pass.
    """
    cols = counts.T if isinstance(counts, np.ndarray) else counts
    r = 0
    s = 0
    for i in range(1, len(cols)):
        s = s + cols[i - 1]
        term = 1  # comb(s + i - 1, i), built exactly one factor at a time
        for t in range(1, i + 1):
            term = term * (s - 1 + t) // t
        r = r + term
    return r


def enumerate_states(n: int, k: int) -> Iterator[tuple]:
    """All count vectors summing to n, in increasing colexicographic rank."""
    if k == 1:
        yield (n,)
        return
    for s in range(n + 1):
        for head in enumerate_states(s, k - 1):
            yield head + (n - s,)


# ---------------------------------------------------------------------------
# Full revision kernel


def transition_matrix(
    game: Game, n: int, beta: float, rule: CostRule = CostRule.LOGIT,
    guardrail: int = KERNEL_STATE_CAP, *, banded: bool = False,
) -> tuple[list, np.ndarray]:
    """One-step kernel over the enumerated (colex-ordered) state space.

    Returns (states, P) with P[a, b] the probability of moving from
    states[a] to states[b]; rows sum to one.  With ``banded``, P is the
    N x (2w + 1) band ``P[a, b - a + w]``, w the largest rank shift of one
    move: n + 1 for one population with three strategies, that times the
    side's state count for two populations.  Each population's choice
    probabilities are priced in one stacked pass over its side's states.
    """
    n = check_population(n)
    _check_beta(beta)
    two_pop = isinstance(game, TwoPopGame)
    k = game.k
    side_states = list(enumerate_states(n, k))
    M = len(side_states)
    size = M * M if two_pop else M
    if size > guardrail:
        what = "state pairs" if two_pop else "states"
        raise GuardrailExceeded(f"{size} {what} exceeds cap {guardrail}")
    counts = np.array(side_states)
    a = np.arange(size)
    # Per population: its side index in each state, the rank stride of that
    # index, and the index of the side whose counts its revisers face.
    if two_pop:
        states = [(x, y) for x in side_states for y in side_states]
        pops = (("alpha", a // M, M, a % M), ("beta", a % M, 1, a // M))
        share = 0.5 * counts / n
    else:
        states = side_states
        pops = ((None, a, 1, a),)
        share = counts / n
    unit = np.eye(k, dtype=int)
    stay = np.zeros(size)
    rows, cols, vals = [], [], []
    # only the better-reply rule looks at the reviser's own strategy
    own = range(k) if rule is CostRule.BETTER_REPLY else range(1)
    for pop, mine, stride, faced in pops:
        pay = faced_products(game, pop, counts.astype(float)) / n
        q = np.stack([_choice_probabilities(cost_vector(game, rule, pay, i, pop), beta)
                      for i in own], axis=1)
        q = np.broadcast_to(q, (M, k, k))  # q[c, i, j]: a reviser playing i picks j
        for i in range(k):  # source, then target: ``stay`` sums as a per-move loop
            ok = counts[mine, i] > 0
            for j in range(k):
                if j == i:
                    continue
                p = share[mine, i] * q[faced, i, j]
                stay += p  # infeasible moves carry probability 0
                dst = comp_rank(counts - unit[i] + unit[j])
                rows.append(a[ok])
                cols.append((a + (dst[mine] - mine) * stride)[ok])
                vals.append(p[ok])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    w = int(np.abs(cols - rows).max())
    band = np.zeros((size, 2 * w + 1))
    band[rows, cols - rows + w] = np.concatenate(vals)
    band[:, w] = 1.0 - stay
    if banded:
        return states, band
    P = np.zeros((size, size))
    r, d = np.nonzero(band)
    P[r, r + d - w] = band[r, d]
    return states, P
