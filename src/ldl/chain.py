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
from dataclasses import dataclass, field
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
from .games import Game, OnePopGame, TwoPopGame, check_convention, is_number

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
    """``state`` after ``move``; InfeasibleMoveError when the move's pop tag
    does not fit the state, either end is not a strategy, or no agent plays
    its source."""
    if (move.pop not in (None, "alpha", "beta")
            or (move.pop is None) == is_two_pop_state(state)):
        raise InfeasibleMoveError(f"a move with pop={move.pop!r} does not fit {state}")
    side = None if move.pop is None else (0 if move.pop == "alpha" else 1)
    counts = list(state if side is None else state[side])
    if not (0 <= move.src < len(counts) and 0 <= move.dst < len(counts)):
        raise InfeasibleMoveError(f"move {move.src} -> {move.dst} is not between "
                                  f"strategies 0..{len(counts) - 1}")
    if counts[move.src] < 1:
        who = "agent" if side is None else f"{move.pop} agent"
        raise InfeasibleMoveError(f"no {who} plays strategy {move.src}")
    counts[move.src] -= 1
    counts[move.dst] += 1
    if side is None:
        return tuple(counts)
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


def check_population(n: int, what: str = "population size n") -> int:
    """Refuse a bool, a non-integer, or below 1; return n as a Python int."""
    if not is_number(n, numbers.Integral):
        raise ConditionError(f"{what}={n!r} must be an integer")
    if n < 1:
        raise ConditionError(f"{what}={n} must be at least 1")
    return int(n)


def check_guardrail(guardrail: Optional[int],
                    default: Optional[int] = None) -> Optional[int]:
    """``default`` for None, else the cap checked as a population size is."""
    return default if guardrail is None else check_population(guardrail, "guardrail")


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
    ``counts``, stacked to round like ``M @ c`` (``counts @ M.T`` moves ties)."""
    return np.matmul(game.oriented(pop)[None], counts[:, :, None])[:, :, 0]


def payoff_vector(game: Game, counts: Sequence[int],
                  pop: Optional[str] = None) -> np.ndarray:
    """Expected payoff of each strategy to ``pop``'s revisers facing ``counts``:
    the state for one population, the other population's counts for two."""
    c = np.asarray(counts, dtype=float)
    return game.oriented(pop) @ c / c.sum()


def _sides(state: State, pop: Optional[str]) -> tuple:
    """``pop``'s own counts at ``state`` and the counts its revisers face."""
    if pop is None:
        return state, state
    return (state[0], state[1]) if pop == "alpha" else (state[1], state[0])


def payoff(game: Game, i: int, state: State, pop: Optional[str] = None) -> float:
    """Expected payoff to strategy ``i`` at ``state`` (``pop`` for two-pop games)."""
    return float(_reviser(game, state, pop)[1][i])


# ---------------------------------------------------------------------------
# Basins of attraction


def in_basin(game: Game, state: State, m: int) -> bool:
    """Weak-inequality basin membership: ``m`` is a (possibly tied) best reply.

    The package's one discrete basin test: the public API uses it, and the
    least-cost search and ``paths._straight_run`` apply it to a stack of
    states' products, rounded alike.  It compares each population's
    unnormalized payoffs, ``M @ faced_counts`` with M its oriented matrix
    (``A @ counts``; for two populations ``alpha @ beta_counts`` and
    ``beta.T @ alpha_counts``, bit-equal to ``alpha_counts @ beta``), with
    the weak ``>=``.  Ties are exact for integer payoffs; with short-decimal
    payoffs a tie is decided by the float rounding of these sums.  A bad
    ``m``, or a state not of the game's shape, is refused (``ConditionError``).
    """
    check_convention(game, m)
    sides = state if isinstance(game, TwoPopGame) else (state,)
    if len(sides) != len(game.populations) or any(np.shape(s) != (game.k,)
                                                  for s in sides):
        raise ConditionError(f"state {state!r} does not fit a game of {game.k} strategies")
    return _in_basin(game, state, m)


def _in_basin(game: Game, state: State, m: int) -> bool:
    """``in_basin`` for a convention and a state already checked."""
    for pop in game.populations:
        pay = game.oriented(pop) @ np.asarray(_sides(state, pop)[1], dtype=float)
        if not pay[m] >= pay.max():
            return False
    return True


def basin(game: OnePopGame, n: int, m: int,
          guardrail: int = ONE_POP_SEARCH_CAP) -> frozenset:
    """All states of the size-n simplex where ``m`` is a weak best reply;
    a two-population game, whose states are pairs, is refused."""
    if isinstance(game, TwoPopGame):
        raise ConditionError("basin enumerates one-population states only")
    check_convention(game, m)  # once, not once per state
    n = check_population(n)
    guardrail = check_guardrail(guardrail)
    total = num_states(n, game.k)
    if total > guardrail:
        raise GuardrailExceeded(
            f"{total} states exceeds the cap of {guardrail}; "
            "raise the guardrail explicitly to proceed"
        )
    return frozenset(s for s in enumerate_states(n, game.k) if _in_basin(game, s, m))


# ---------------------------------------------------------------------------
# Step costs


def step_cost(game: Game, rule: CostRule, state: State, move: Move) -> float:
    """Exponential decay rate of the move's probability under ``rule``.

    Nonnegative; zero exactly on best-response targets; +inf for moves the
    intentional rule forbids.
    """
    counts, pay = _reviser(game, state, move.pop)
    if counts[move.src] < 1:
        who = "agent" if move.pop is None else f"{move.pop} agent"
        raise InfeasibleMoveError(f"no {who} plays strategy {move.src}")
    return float(cost_vector(game, rule, pay, move.src, move.pop)[move.dst])


def _reviser(game: Game, state: State, pop: Optional[str]) -> tuple:
    """Counts of ``pop`` at ``state`` and the payoffs its revisers face; a pop
    tag the game does not have is refused by ``oriented``."""
    own, faced = _sides(state, pop)
    return own, payoff_vector(game, faced, pop)


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
        conv = np.diag(game.oriented(pop))
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
    with np.errstate(over="ignore"):  # -inf past double range: weight 0, the limit
        w = np.where(finite, np.exp(-beta * np.where(finite, costs - low, 0.0)), 0.0)
    return w / w.sum(axis=-1, keepdims=True)


def _check_beta(beta: float) -> None:
    if not (is_number(beta) and math.isfinite(beta) and beta >= 0):
        raise ConditionError("beta must be finite and nonnegative")


# ---------------------------------------------------------------------------
# Paths


@dataclass(frozen=True)
class Path:
    """A sequence of states, each one move from the last, and those moves.

    ``Path(states)`` derives every link's move with ``move_between`` and so
    refuses a broken link (``AdjacencyError``); ``Path.walk`` builds the
    path from its moves instead, adjacent by construction.
    """

    states: tuple
    moves: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states = tuple(tuple(s) if not isinstance(s, tuple) else s for s in self.states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "moves", tuple(
            move_between(x, y) for x, y in zip(states, states[1:])))

    @classmethod
    def walk(cls, start: State, moves: Sequence[Move]) -> Path:
        """The path that applies ``moves`` in turn from ``start``; a self-move
        is refused (``AdjacencyError``), and so is an infeasible move
        (``InfeasibleMoveError``, from ``apply_move``)."""
        moves = tuple(moves)
        state = start if isinstance(start, tuple) else tuple(start)
        states = [state]
        for mv in moves:
            if mv.src == mv.dst:
                raise AdjacencyError(f"move {mv.src} -> {mv.dst} changes no state")
            state = apply_move(state, mv)
            states.append(state)
        return cls._trusted(tuple(states), moves)

    @classmethod
    def _trusted(cls, states: tuple, moves: tuple) -> Path:
        """The path of tuple ``states`` and the ``moves`` between them, taken
        as they are: the caller guarantees that each move links its states."""
        path = object.__new__(cls)
        object.__setattr__(path, "states", states)
        object.__setattr__(path, "moves", moves)
        return path

    def __len__(self) -> int:
        return len(self.states)

    def cost(self, game: Game, rule: CostRule = CostRule.LOGIT) -> float:
        return path_cost(game, rule, self)


def path_cost(game: Game, rule: CostRule, path: Path | Sequence[State]) -> float:
    """Total cost of a path's moves, a state sequence first built into a
    ``Path``; +inf propagates; 0 for trivial paths."""
    if not isinstance(path, Path):
        path = Path(path)
    total = 0.0
    for x, mv in zip(path.states, path.moves):
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
    r = 0 * cols[0]  # one zero per row of a 2-D array
    s = 0
    for i in range(1, len(cols)):
        s = s + cols[i - 1]
        term = 1  # comb(s + i - 1, i), built exactly one factor at a time
        for t in range(1, i + 1):
            term = term * (s - 1 + t) // t
        r = r + term
    return r


def enumerate_states(n: int, k: int) -> Iterator[tuple]:
    """All count vectors summing to n, in increasing colexicographic rank.

    Level s, the states whose last count is n - s, is built as one list,
    and only one level is held at a time.
    """
    if k == 1:
        yield (n,)
    elif k == 2:
        for s in range(n + 1):
            yield (s, n - s)
    else:
        for s in range(n + 1):
            yield from _level(n, s, k)


def _level(n: int, s: int, k: int) -> list:
    """Level s of the count vectors summing to n over k >= 3 strategies:
    those over the first k - 1 strategies summing to s, in colex order,
    each followed by n - s."""
    if k == 3:
        return [(t, s - t, n - s) for t in range(s + 1)]
    tail = (n - s,)
    return [head + tail for t in range(s + 1) for head in _level(s, t, k - 1)]


# ---------------------------------------------------------------------------
# Full revision kernel


def transition_matrix(
    game: Game, n: int, beta: float, rule: CostRule = CostRule.LOGIT,
    guardrail: Optional[int] = None,
) -> tuple[list, np.ndarray]:
    """One-step kernel over the enumerated (colex-ordered) state space.

    Returns (states, band), ``band[a, b - a + w]`` the probability of moving
    from states[a] to states[b] (rows sum to one), w the largest rank shift
    of one move: n + 1 for one population with three strategies, that times
    the side's state count for two populations.  At most ``guardrail``
    states (default ``KERNEL_STATE_CAP``); each population's choice
    probabilities are priced in one stacked pass over its side's states.
    """
    n = check_population(n)
    _check_beta(beta)
    guardrail = check_guardrail(guardrail, KERNEL_STATE_CAP)
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
    return states, band
