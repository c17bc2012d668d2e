"""One- and two-population coordination games and their structural validation.

Payoffs are stored as double-precision matrices.  Strict inequalities
(coordination, the bandwagon margins) are tested with exact comparisons:
the example games carry integer or short-decimal payoffs, so no tolerance
band is needed, and a tolerance would blur genuinely weak inequalities.
Only solved mixed equilibria use a residual tolerance (``EQ_TOL``), since
they come out of a floating-point linear solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConditionError

EQ_TOL = 1e-10        # residual accepted for solved indifference systems
POS_TOL = 1e-12       # strict-positivity cutoff for support weights
NEAR_TIE = 1e-9       # two computed costs or splits equal up to rounding
FULL_SUPPORT_SCAN_MAX_K = 8   # beyond this the support scan is truncated


@dataclass(frozen=True, eq=False)
class OnePopGame:
    """Symmetric one-population game.

    ``payoffs[i, j]`` is the payoff to an agent playing ``i`` against an
    opponent playing ``j``.  Strategies are 0-based indices.
    """

    payoffs: np.ndarray

    def __post_init__(self):
        a = np.array(self.payoffs, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConditionError(f"payoff matrix must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ConditionError("need at least two strategies")
        if not np.all(np.isfinite(a)):
            raise ConditionError("payoff entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "payoffs", a)

    @property
    def k(self) -> int:
        return self.payoffs.shape[0]


@dataclass(frozen=True, eq=False)
class TwoPopGame:
    """Two-population bimatrix game.

    An alpha-agent playing row ``i`` against a beta-agent playing column
    ``j`` receives ``alpha[i, j]``; the beta-agent receives ``beta[i, j]``.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=float)
        b = np.array(self.beta, dtype=float)
        for name, m in (("alpha", a), ("beta", b)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ConditionError(f"{name} payoff matrix must be square")
            if not np.all(np.isfinite(m)):
                raise ConditionError(f"{name} payoff entries must be finite")
        if a.shape != b.shape:
            raise ConditionError("alpha and beta matrices must have equal shape")
        if a.shape[0] < 2:
            raise ConditionError("need at least two strategies")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def k(self) -> int:
        return self.alpha.shape[0]

    def matrix(self, pop: str) -> np.ndarray:
        if pop == "alpha":
            return self.alpha
        if pop == "beta":
            return self.beta
        raise ValueError(f"unknown population {pop!r}")


Game = Union[OnePopGame, TwoPopGame]


def tech_game(b1: float, b2: float, b3: float, d: float) -> OnePopGame:
    """Three-technology choice game with cyclic cross effects of size ``d``."""
    return OnePopGame([[b1, -d, d], [d, b2, -d], [-d, d, b3]])


def mbp_margin(game: OnePopGame, i: int, j: int, k: int) -> float:
    """Positive-feedback margin of i over j when the opponent shifts k -> i.

    Strict positivity on all distinct triples is the bandwagon condition.
    """
    a = game.payoffs
    return (a[i, i] - a[j, i]) - (a[i, k] - a[j, k])


def skew(game: OnePopGame, i: int, j: int, k: int) -> float:
    """Cyclic payoff asymmetry over the triple (i, j, k); zero for potential games.

    Equals ``mbp_margin(i, j, k) - mbp_margin(i, k, j)`` exactly.
    """
    a = game.payoffs
    return (a[i, j] - a[j, i]) + (a[j, k] - a[k, j]) + (a[k, i] - a[i, k])


@dataclass(frozen=True)
class SupportCheck:
    """Outcome of the mixed-equilibrium solve for one support set."""

    support: tuple[int, ...]
    status: str  # "ok" | "absent" | "degenerate"
    point: Optional[object] = None  # ndarray (one-pop) or (ndarray, ndarray)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ConditionReport:
    """Validation record for the structural conditions a solver relies on."""

    coordination: bool
    bandwagon: bool
    supports_ok: tuple[SupportCheck, ...]
    conflict_of_interest: Optional[bool] = None
    partial: bool = False   # True when the support scan was truncated (k > 8)

    @property
    def supports_all_ok(self) -> bool:
        return all(s.ok for s in self.supports_ok)

    @property
    def condition_holds(self) -> bool:
        return self.coordination and self.bandwagon and self.supports_all_ok

    def failures(self) -> list[str]:
        out = []
        if not self.coordination:
            out.append("coordination fails: some off-convention reply is weakly better")
        if not self.bandwagon:
            out.append("bandwagon property fails on some strategy triple")
        for s in self.supports_ok:
            if not s.ok:
                out.append(f"support {s.support}: {s.status}")
        return out


def _support_family(k: int) -> tuple[list[tuple[int, ...]], bool]:
    strategies = range(k)
    if k <= FULL_SUPPORT_SCAN_MAX_K:
        fam = [
            tuple(c)
            for size in range(1, k + 1)
            for c in combinations(strategies, size)
        ]
        return fam, False
    fam = [(i,) for i in strategies]
    fam += [tuple(c) for c in combinations(strategies, 2)]
    fam.append(tuple(strategies))
    return fam, True


def _solve_support_one_pop(game: OnePopGame, support: Sequence[int]):
    """Solve the indifference system on ``support``; returns (status, point)."""
    a = game.payoffs
    t = tuple(support)
    m = len(t)
    if m == 1:
        i = t[0]
        p = np.zeros(game.k)
        p[i] = 1.0
        others = [q for q in range(game.k) if q != i]
        if others and max(a[q, i] for q in others) >= a[i, i]:
            return "absent", None
        return "ok", p
    lhs = np.zeros((m, m))
    rhs = np.zeros(m)
    for row, i in enumerate(t[1:]):
        lhs[row, :] = (a[t[0]] - a[i])[list(t)]
    lhs[m - 1, :] = 1.0
    rhs[m - 1] = 1.0
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return "degenerate", None
    if not np.all(np.isfinite(sol)) or np.any(sol <= POS_TOL):
        return "absent", None
    p = np.zeros(game.k)
    p[list(t)] = sol
    payoffs = a @ p
    common = payoffs[t[0]]
    if max(abs(payoffs[i] - common) for i in t) > EQ_TOL:
        return "degenerate", None
    for q in range(game.k):
        if q not in t and payoffs[q] > common + EQ_TOL:
            return "absent", None
    return "ok", p


def _solve_support_two_pop(game: TwoPopGame, support: Sequence[int]):
    """Mixed equilibrium with both populations supported on ``support``.

    The beta side must be indifferent over the support given the alpha
    mixture and vice versa; the two linear systems are independent.
    """
    t = tuple(support)
    m = len(t)
    k = game.k
    if m == 1:
        i = t[0]
        pa = np.zeros(k)
        pb = np.zeros(k)
        pa[i] = pb[i] = 1.0
        alpha_ok = all(game.alpha[q, i] < game.alpha[i, i] for q in range(k) if q != i)
        beta_ok = all(game.beta[i, q] < game.beta[i, i] for q in range(k) if q != i)
        return ("ok", (pa, pb)) if alpha_ok and beta_ok else ("absent", None)

    def solve(system_rows):
        lhs = np.zeros((m, m))
        rhs = np.zeros(m)
        for row, vec in enumerate(system_rows):
            lhs[row, :] = vec
        lhs[m - 1, :] = 1.0
        rhs[m - 1] = 1.0
        try:
            sol = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)) or np.any(sol <= POS_TOL):
            return "absent"
        full = np.zeros(k)
        full[list(t)] = sol
        return full

    # p_beta makes alpha indifferent over t: rows (A^a[t0] - A^a[i]) on t.
    p_beta = solve([(game.alpha[t[0]] - game.alpha[i])[list(t)] for i in t[1:]])
    # p_alpha makes beta indifferent over t: columns of A^b.
    p_alpha = solve([(game.beta[:, t[0]] - game.beta[:, i])[list(t)] for i in t[1:]])
    if p_beta is None or p_alpha is None:
        return "degenerate", None
    if isinstance(p_beta, str) or isinstance(p_alpha, str):
        return "absent", None

    pay_a = game.alpha @ p_beta
    pay_b = p_alpha @ game.beta
    for pay in (pay_a, pay_b):
        common = pay[t[0]]
        if max(abs(pay[i] - common) for i in t) > EQ_TOL:
            return "degenerate", None
        for q in range(k):
            if q not in t and pay[q] > common + EQ_TOL:
                return "absent", None
    return "ok", (p_alpha, p_beta)


def mixed_equilibrium(game: OnePopGame, support: Sequence[int]) -> Optional[np.ndarray]:
    """Mixed Nash equilibrium with the given support, or None if absent.

    Degenerate (rank-deficient) indifference systems report absence rather
    than guessing a point.
    """
    if len(support) == 0:
        raise ConditionError("support must be nonempty")
    status, p = _solve_support_one_pop(game, support)
    return p if status == "ok" else None


def mixed_equilibrium_two_pop(
    game: TwoPopGame, support: Sequence[int]
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Two-population mixed equilibrium (p_alpha, p_beta) on ``support``."""
    if len(support) == 0:
        raise ConditionError("support must be nonempty")
    status, pair = _solve_support_two_pop(game, support)
    return pair if status == "ok" else None


def validate_one_pop(game: OnePopGame) -> ConditionReport:
    """Check coordination, the strict bandwagon property, and mixed-equilibrium
    existence per support."""
    a = game.payoffs
    k = game.k
    coordination = all(
        a[i, i] > a[j, i] for i in range(k) for j in range(k) if j != i
    )
    bandwagon = all(
        mbp_margin(game, i, j, l) > 0 for i, j, l in permutations(range(k), 3)
    )
    family, partial = _support_family(k)
    checks = tuple(
        SupportCheck(t, *_solve_support_one_pop(game, t)) for t in family
    )
    return ConditionReport(coordination, bandwagon, checks, None, partial)


def check_convention(game: Game, m: int) -> None:
    """Refuse a convention index outside 0..k-1; the message is 1-based."""
    if not 0 <= m < game.k:
        raise ConditionError(f"convention {m + 1} outside 1..{game.k} (1-based)")


def tilde_s(game: TwoPopGame, m: int, pop: str) -> frozenset[int]:
    """Strategies whose convention payoff weakly beats convention ``m`` for ``pop``."""
    mat = game.matrix(pop)
    return frozenset(l for l in range(game.k) if mat[l, l] >= mat[m, m])


def conflict_of_interest(game: TwoPopGame, m: int) -> bool:
    """True when, apart from ``m`` itself, the strategies preferred by the two
    populations partition the rest of the strategy set."""
    sa = tilde_s(game, m, "alpha")
    sb = tilde_s(game, m, "beta")
    full = frozenset(range(game.k))
    return (sa | sb) == full and (sa & sb) == frozenset({m})


def validate_two_pop(game: TwoPopGame, m: int) -> ConditionReport:
    """Check coordination, the weak bandwagon property, support solvability,
    and conflict of interest at convention ``m``."""
    check_convention(game, m)
    a, b = game.alpha, game.beta
    k = game.k
    coordination = all(
        a[i, i] > a[j, i] and b[i, i] > b[i, j]
        for i in range(k)
        for j in range(k)
        if j != i
    )
    weak_bandwagon = True
    for mb, i, j in permutations(range(k), 3):
        if a[mb, mb] - a[i, mb] < a[mb, j] - a[i, j]:
            weak_bandwagon = False
            break
        if b[mb, mb] - b[mb, i] < b[j, mb] - b[j, i]:
            weak_bandwagon = False
            break
    family, partial = _support_family(k)
    checks = tuple(
        SupportCheck(t, *_solve_support_two_pop(game, t)) for t in family
    )
    return ConditionReport(
        coordination, weak_bandwagon, checks, conflict_of_interest(game, m), partial
    )


def ndg_build(frontier, L: int) -> TwoPopGame:
    """Discretized demand game on ``frontier`` with ``L`` grid cells.

    Demands are ``delta * s`` for s = 1..L-1 with ``delta = s_bar / L``;
    strategy index ``s - 1`` (0-based) carries demand ``delta * s``.
    Compatible demands pay (demand, frontier value); incompatible pay zero.
    """
    if int(L) != L or L < 3:
        raise ConditionError("L must be an integer >= 3")
    L = int(L)
    try:
        s_bar = float(frontier.s_bar)
        f0 = float(frontier(s_bar / L))
    except (AttributeError, TypeError) as exc:
        raise ConditionError("frontier must expose s_bar and be callable") from exc
    if not np.isfinite(s_bar) or s_bar <= 0 or not np.isfinite(f0):
        raise ConditionError("invalid frontier")
    delta = s_bar / L
    k = L - 1
    alpha = np.zeros((k, k))
    beta = np.zeros((k, k))
    for i in range(1, L):
        for j in range(i, L):
            alpha[i - 1, j - 1] = delta * i
            beta[i - 1, j - 1] = frontier(delta * j)
    return TwoPopGame(alpha, beta)


# ---------------------------------------------------------------------------
# JSON interchange


def game_to_json(game: Game, indent: Optional[int] = None) -> str:
    if isinstance(game, OnePopGame):
        doc = {"type": "one_population", "payoffs": game.payoffs.tolist()}
    else:
        doc = {
            "type": "two_population",
            "alpha": game.alpha.tolist(),
            "beta": game.beta.tolist(),
        }
    return json.dumps(doc, indent=indent, sort_keys=True)


def game_from_json(text: Union[str, dict]) -> Game:
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict) or "type" not in doc:
        raise ConditionError("game document must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "one_population":
        if "payoffs" not in doc:
            raise ConditionError("one_population document needs 'payoffs'")
        return OnePopGame(doc["payoffs"])
    if kind == "two_population":
        if "alpha" not in doc or "beta" not in doc:
            raise ConditionError("two_population document needs 'alpha' and 'beta'")
        return TwoPopGame(doc["alpha"], doc["beta"])
    raise ConditionError(f"unknown game type {kind!r}")
