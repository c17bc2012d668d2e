"""One- and two-population coordination games and their structural validation.

Each population has one oriented payoff matrix M (``oriented``): its
revisers' payoff vector is ``M @ faced_counts``.  M is ``payoffs`` for one
population, and ``alpha`` (against beta's counts) or ``beta.T`` (against
alpha's) for two, so every per-population formula is written once.

Payoffs are stored as double-precision matrices.  Strict inequalities
(coordination, the bandwagon margins) are tested with exact comparisons:
the example games carry integer or short-decimal payoffs, so no tolerance
band is needed, and a tolerance would blur genuinely weak inequalities.
The package's tolerances:

- ``NEAR_TIE`` (1e-9): two computed costs, splits or cell counts equal up
  to rounding; also the continuum's basin band and decomposition checks.
- ``EQ_TOL`` (1e-10): the residual of a solved indifference system here,
  and of a bisection root in ``bargaining``.
- ``POS_TOL`` (1e-12): strict positivity of a solved support weight.
- ``continuum.SIMPLEX_TOL`` (1e-12): a point lies on the simplex.
- Two literal 1e-12 ties, ``stable_division``'s winners and
  ``escape_term_two_pop``'s driving population, keep their own value,
  since merging them would change answers.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConditionError

EQ_TOL = 1e-10        # residual accepted for solved indifference systems
POS_TOL = 1e-12       # strict-positivity cutoff for support weights
NEAR_TIE = 1e-9       # two computed costs or splits equal up to rounding
FULL_SUPPORT_SCAN_MAX_K = 8   # beyond this the support scan is truncated

# The most cells a demand grid may hold: ``bargaining``'s grid pass (about
# 115-140 bytes a cell at its peak: 10**6 cells, delta = 3e-6 on s_bar = 3,
# take about 0.3 s and 115 MB above the interpreter's baseline, and
# delta = 1e-5, 300,000 cells, about 0.1 s and 42 MB, on a 2-vCPU KVM
# guest), and each of ``ndg_build``'s two (L - 1) x (L - 1) matrices, so
# L <= 1,001 there.
MAX_GRID = 1_000_000


def is_number(x, kind: type = numbers.Real) -> bool:
    """``x`` is a ``kind`` (``numbers.Real`` or ``numbers.Integral``); a bool
    never is, nor is a str or None."""
    return isinstance(x, kind) and not isinstance(x, bool)


def all_numbers(raw) -> bool:
    """``raw`` is a number or an array (or nested list) of them: a str, bool
    or None anywhere in it is not.  A numeric ndarray passes unscanned."""
    if isinstance(raw, np.ndarray) and raw.dtype.kind in "iuf":
        return True
    return all(is_number(x) for x in np.array(raw, dtype=object).flat)


def _payoff_matrix(raw, name: str) -> np.ndarray:
    """``raw`` as a read-only square float matrix of finite entries; a
    string or boolean entry is refused, not converted."""
    malformed = ConditionError(f"{name} must be an array of finite numbers "
                               "in rows of equal length")
    if not all_numbers(raw):
        raise malformed
    try:
        a = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise malformed from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConditionError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ConditionError(f"{name} entries must be finite")
    if a.shape[0] < 2:
        raise ConditionError("need at least two strategies")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class OnePopGame:
    """Symmetric one-population game.

    ``payoffs[i, j]`` is the payoff to an agent playing ``i`` against an
    opponent playing ``j``.  Strategies are 0-based indices.
    """

    payoffs: np.ndarray
    populations = (None,)  # the ``pop`` tags of ``oriented``

    def __post_init__(self):
        object.__setattr__(self, "payoffs", _payoff_matrix(self.payoffs, "payoff matrix"))

    @property
    def k(self) -> int:
        return self.payoffs.shape[0]

    def oriented(self, pop: Optional[str] = None) -> np.ndarray:
        """The matrix M whose ``M @ counts`` are the revisers' payoffs."""
        if pop is not None:
            raise ConditionError(f"one-population games take no pop tag, got {pop!r}")
        return self.payoffs


@dataclass(frozen=True, eq=False)
class TwoPopGame:
    """Two-population bimatrix game.

    An alpha-agent playing row ``i`` against a beta-agent playing column
    ``j`` receives ``alpha[i, j]``; the beta-agent receives ``beta[i, j]``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    populations = ("alpha", "beta")

    def __post_init__(self):
        a = _payoff_matrix(self.alpha, "alpha payoff matrix")
        b = _payoff_matrix(self.beta, "beta payoff matrix")
        if a.shape != b.shape:
            raise ConditionError("alpha and beta matrices must have equal shape")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def k(self) -> int:
        return self.alpha.shape[0]

    def oriented(self, pop: str) -> np.ndarray:
        """The matrix M whose ``M @ faced_counts`` are ``pop``'s payoffs: alpha
        reads its rows against beta's counts, beta (as ``beta.T``) its columns
        against alpha's.  Its diagonal is ``pop``'s convention payoffs."""
        if pop == "alpha":
            return self.alpha
        if pop == "beta":
            return self.beta.T
        raise ConditionError(f"two-population games need pop='alpha' or 'beta', "
                             f"got {pop!r}")


Game = Union[OnePopGame, TwoPopGame]


def tech_game(b1: float, b2: float, b3: float, d: float) -> OnePopGame:
    """Three-technology choice game with cyclic cross effects of size ``d``."""
    return OnePopGame([[b1, -d, d], [d, b2, -d], [-d, d, b3]])


def mbp_margin(game: OnePopGame, i: int, j: int, k: int) -> float:
    """Positive-feedback margin of i over j when the opponent shifts k -> i.

    Strict positivity on all distinct triples is the bandwagon condition.
    """
    return _margin(game.payoffs, i, j, k)


def _margin(a, i: int, j: int, k: int) -> float:
    """``mbp_margin`` on an oriented matrix ``a``, an array or nested lists."""
    return (a[i][i] - a[j][i]) - (a[i][k] - a[j][k])


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


_STATUSES = ("ok", "absent", "degenerate")  # a support's worst side decides


def _stacked_solve(lhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems ``lhs @ x = e_last`` in one call, bit-equal
    to one call each; a stack LAPACK finds exactly singular is solved again
    one system at a time to mark which are.  Returns the solutions (0 where
    singular) and that mark."""
    rhs = np.zeros(lhs.shape[:2] + (1,))
    rhs[:, -1] = 1.0
    try:
        return np.linalg.solve(lhs, rhs)[..., 0], np.zeros(len(lhs), bool)
    except np.linalg.LinAlgError:
        sol, singular = np.zeros(rhs.shape[:2]), np.zeros(len(lhs), bool)
        for s, (a, b) in enumerate(zip(lhs, rhs)):
            try:
                sol[s] = np.linalg.solve(a, b)[:, 0]
            except np.linalg.LinAlgError:
                singular[s] = True
        return sol, singular


class _Layout:
    """The index arrays of a support family on k strategies: its supports
    grouped by size (their rows and the supports as an array), which
    strategies each holds, its first strategy, and whether it is a
    singleton."""

    def __init__(self, family: list, k: int):
        self.family = family
        members: dict[int, list[int]] = {}
        for q, t in enumerate(family):
            members.setdefault(len(t), []).append(q)
        self.groups = [(np.array(rows), np.array([family[q] for q in rows]))
                       for rows in members.values()]
        self.inside = np.zeros((len(family), k), bool)
        for rows, t in self.groups:
            self.inside[rows[:, None], t] = True
        self.first = np.array([t[0] for t in family])
        self.single = self.inside.sum(axis=1, keepdims=True) == 1


@functools.cache
def _family_layout(k: int) -> tuple[_Layout, bool]:
    """``_support_family(k)``'s layout, built once per k, and whether the
    family is truncated."""
    family, partial = _support_family(k)
    return _Layout(family, k), partial


def _solve_supports(mat: np.ndarray, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Solve one population's indifference system on each support of
    ``layout``'s family, with ``mat`` its oriented matrix: each support's
    index into ``_STATUSES`` and, row by row, the faced population's mixture
    (meaningful where the status is ok).

    The systems of one size are solved as one stack.  A singleton is absent
    when some other strategy pays at least as much against it.  A larger
    support is degenerate when singular, absent when a weight is not above
    ``POS_TOL``, degenerate when its payoffs differ by more than ``EQ_TOL``,
    and absent when an outside strategy pays more than ``EQ_TOL`` above them.
    """
    count, k = len(layout.family), len(mat)
    p = np.zeros((count, k))
    singular = np.zeros(count, bool)
    for rows, t in layout.groups:
        m = t.shape[1]
        if m == 1:
            p[rows, t[:, 0]] = 1.0
            continue
        sub = mat[t[:, :, None], t[:, None, :]]
        lhs = np.ones((len(rows), m, m))  # t0's row less each other's, then sum 1
        lhs[:, :-1] = sub[:, :1] - sub[:, 1:]
        p[rows[:, None], t], singular[rows] = _stacked_solve(lhs)
    inside = layout.inside
    absent = singular | (inside & ~(np.isfinite(p) & (p > POS_TOL))).any(axis=1)
    p[absent] = 0.0
    payoffs = np.matmul(mat[None], p[:, :, None])[:, :, 0]  # rounds like mat @ p
    common = payoffs[np.arange(count), layout.first][:, None]
    uneven = (inside & (np.abs(payoffs - common) > EQ_TOL)).any(axis=1)
    beats = np.where(layout.single, payoffs >= common, payoffs > common + EQ_TOL)
    beaten = (beats & ~inside).any(axis=1)
    status = beaten.astype(int)
    status[uneven] = 2
    status[absent] = 1
    status[singular] = 2
    return status, p


def _support_checks(game: Game, layout: _Layout) -> tuple[SupportCheck, ...]:
    """Every population supported on each support of ``layout``'s family:
    each side is solved on its oriented matrix, and a degenerate side is
    reported before an absent one.  A two-population point is (p_alpha,
    p_beta); each side's solve yields the mixture of the population it
    faces, hence the reversal."""
    sides = [_solve_supports(game.oriented(pop), layout) for pop in game.populations]
    worst = np.maximum.reduce([status for status, _ in sides]).tolist()
    points = list(zip(*(p for _, p in reversed(sides))))
    return tuple(SupportCheck(tuple(t), _STATUSES[status]) if status else
                 SupportCheck(tuple(t), "ok", pt if len(pt) > 1 else pt[0])
                 for t, status, pt in zip(layout.family, worst, points))


def mixed_equilibrium(game: Game, support: Sequence[int]) -> Optional[object]:
    """Mixed Nash equilibrium with the given support, or None if absent; for
    two populations the pair (p_alpha, p_beta).

    Degenerate (rank-deficient) indifference systems report absence rather
    than guessing a point.
    """
    t = tuple(support)
    if not t:
        raise ConditionError("support must be nonempty")
    if len(set(t)) != len(t) or not all(
            is_number(i, numbers.Integral) and 0 <= i < game.k for i in t):
        raise ConditionError(f"support {t} must list distinct strategies "
                             f"in 0..{game.k - 1}")
    return _support_checks(game, _Layout([t], game.k))[0].point


def strict_conventions(game: Game) -> list[bool]:
    """Per strategy m, whether every population's ``M[m, m]`` beats each
    ``M[j, m]``, j != m (M its oriented matrix): m is a strict convention."""
    mats = [game.oriented(pop).tolist() for pop in game.populations]
    return [all(a[m][m] > a[j][m] for a in mats for j in range(game.k) if j != m)
            for m in range(game.k)]


def _bandwagon(game: Game, strict: bool) -> bool:
    """Every population's margins over distinct triples are ``> 0`` (strict)
    or ``>= 0`` (weak)."""
    for pop in game.populations:
        a = game.oriented(pop).tolist()
        for triple in permutations(range(game.k), 3):
            margin = _margin(a, *triple)
            if not (margin > 0 if strict else margin >= 0):
                return False
    return True


def _validate(game: Game, strict: bool,
              conflict: Optional[bool] = None) -> ConditionReport:
    """Coordination, the bandwagon margins and each support, on every
    population's oriented matrix."""
    layout, partial = _family_layout(game.k)
    return ConditionReport(all(strict_conventions(game)), _bandwagon(game, strict),
                           _support_checks(game, layout), conflict, partial)


def validate_one_pop(game: OnePopGame) -> ConditionReport:
    """Check coordination, the strict bandwagon property, and mixed-equilibrium
    existence per support."""
    return _validate(game, strict=True)


def check_convention(game: Game, m: int) -> None:
    """Refuse a convention index that is not an integer in 0..k-1; the
    message is 1-based."""
    if not is_number(m, numbers.Integral):
        raise ConditionError(f"convention index {m!r} must be an integer")
    if not 0 <= m < game.k:
        raise ConditionError(f"convention {m + 1} outside 1..{game.k} (1-based)")


def tilde_s(game: TwoPopGame, m: int, pop: str) -> frozenset[int]:
    """Strategies whose convention payoff weakly beats convention ``m`` for ``pop``."""
    conv = np.diag(game.oriented(pop))
    return frozenset(l for l in range(game.k) if conv[l] >= conv[m])


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
    return _validate(game, strict=False, conflict=conflict_of_interest(game, m))


def ndg_build(frontier, L: int) -> TwoPopGame:
    """Discretized demand game on ``frontier`` with ``L`` grid cells.

    Demands are ``delta * s`` for s = 1..L-1 with ``delta = s_bar / L``;
    strategy index ``s - 1`` (0-based) carries demand ``delta * s``.
    Compatible demands pay (demand, frontier value); incompatible pay zero.
    ``L`` is an integer >= 3 whose two (L - 1) x (L - 1) payoff matrices
    hold at most ``MAX_GRID`` cells each, so L <= 1,001.
    """
    if not (is_number(L) and (isinstance(L, numbers.Integral) or math.isfinite(L))
            and L == int(L) and L >= 3):
        raise ConditionError(f"L must be an integer >= 3, got {L!r}")
    L = int(L)
    if (L - 1) ** 2 > MAX_GRID:
        raise ConditionError(f"L={L} gives payoff matrices of {(L - 1) ** 2} cells, "
                             f"above the supported {MAX_GRID}")
    try:
        s_bar = float(frontier.s_bar)
        f0 = float(frontier(s_bar / L))
    except (AttributeError, TypeError) as exc:
        raise ConditionError("frontier must expose s_bar and be callable") from exc
    if not np.isfinite(s_bar) or s_bar <= 0 or not np.isfinite(f0):
        raise ConditionError("invalid frontier")
    delta = s_bar / L
    demands = [delta * s for s in range(1, L)]
    values = np.array([float(frontier(x)) for x in demands])  # one call per demand
    alpha, beta = np.zeros((L - 1, L - 1)), np.zeros((L - 1, L - 1))
    for i, demand in enumerate(demands):  # compatible: column j >= row i
        alpha[i, i:] = demand
        beta[i, i:] = values[i:]
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
