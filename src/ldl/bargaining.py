"""Bargaining frontiers, the three division solutions, and the discrete
demand-game machinery that selects stochastically stable divisions.

The frontier family f(x) = (a (1 - x/b))**p with a, b > 0 and 0 < p < 1 is
decreasing and strictly concave by construction, covers both benchmark
frontiers used in the tests, and keeps every root bracketable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConditionError
from .games import EQ_TOL, MAX_GRID, NEAR_TIE, all_numbers, is_number


def _pow(base, e: float):
    """``base ** e`` by libm's pow, one element at a time for an array.

    numpy's vector pow can differ from libm in the last bit, which r2 and l1
    amplify, and a grid must equal its cells evaluated one at a time.  A base
    that is not positive goes through numpy, so ``0 ** e`` with ``e < 0`` is
    inf with numpy's divide-by-zero warning."""
    if isinstance(base, float):  # np.float64 is one
        return math.pow(base, e) if base > 0 else float(np.float64(base) ** e)
    pos = base > 0
    out = np.empty(base.shape) if pos.all() else base ** e  # numpy where base <= 0
    kept = base[pos]
    out[pos] = np.fromiter(map(math.pow, kept.tolist(), repeat(e)), float, kept.size)
    return out


@dataclass(frozen=True)
class Frontier:
    """Concave decreasing bargaining frontier f(x) = (a (1 - x/b))**p on [0, b].

    ``value`` and ``derivative`` take plain float arithmetic for a float x
    (np.float64 included) and numpy for an array; both round alike.
    """

    a: float
    b: float
    p: float

    def __post_init__(self):
        params = (self.a, self.b, self.p)
        if not (all(is_number(v) and math.isfinite(v) for v in params)
                and self.a > 0 and self.b > 0 and 0 < self.p < 1):
            raise ConditionError("frontier needs finite numbers a > 0, b > 0, "
                                 "0 < p < 1")

    @property
    def s_bar(self) -> float:
        return self.b

    def _base(self, x):
        """a (1 - x/b), clipped at 0: a float for a float x, else an array.
        A str, bool or None x, alone or inside an array, is refused."""
        if isinstance(x, float):
            return self.a * max(1.0 - float(x) / self.b, 0.0)
        if not all_numbers(x):
            raise ConditionError(f"the frontier takes numbers, got {x!r}")
        return self.a * np.maximum(1.0 - np.asarray(x, dtype=float) / self.b, 0.0)

    def value(self, x):
        """f at x: a float for a scalar x, an array for an array."""
        return _pow(self._base(x), self.p)

    __call__ = value

    def derivative(self, x):
        return -(self.p * self.a / self.b) * _pow(self._base(x), self.p - 1.0)


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ConditionError("no sign change on the bracketing interval")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or (hi - lo) <= 1e-15 * max(1.0, abs(mid)):
            break
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(fn(mid)) > EQ_TOL:
        raise ConditionError(f"bisection residual {fn(mid):.3e} above tolerance")
    return mid


@dataclass(frozen=True)
class BargainingSolutions:
    """The split each solution concept assigns to the first population."""

    s_nash: float
    s_intentional: float
    s_egalitarian: float

    @property
    def ordering(self) -> str:
        if abs(self.s_nash - self.s_egalitarian) <= NEAR_TIE:
            return "coincident"
        if self.s_nash > self.s_intentional > self.s_egalitarian:
            return "nash_above"
        if self.s_egalitarian > self.s_intentional > self.s_nash:
            return "egalitarian_above"
        return "unordered"


# The defining functions of the Nash, intentional and egalitarian splits.
_GAPS = (lambda f, x: f(x) / x + f.derivative(x),
         lambda f, x: (f(x) / x) ** 2 + f.derivative(x),
         lambda f, x: f(x) - x)


def _split(frontier: Frontier, gap) -> float:
    s = frontier.s_bar
    return _bisect(lambda x: gap(frontier, x), s * 1e-9, s * (1 - 1e-12))


def solve_solutions(frontier: Frontier) -> BargainingSolutions:
    """Roots of f/s = -f', (f/s)^2 = -f', and f(s) = s by bracketed bisection.

    Each defining function is strictly monotone on (0, s_bar), so the roots
    are unique; residuals are held below 1e-10.
    """
    return BargainingSolutions(*(_split(frontier, gap) for gap in _GAPS))


# ---------------------------------------------------------------------------
# Demand-game transition terms


def _grid_size(frontier: Frontier, delta: float) -> int:
    if not (is_number(delta) and math.isfinite(delta) and delta > 0):
        raise ConditionError(f"delta must be positive and finite, got {delta!r}")
    L = frontier.s_bar / delta
    if abs(L - round(L)) > NEAR_TIE or round(L) < 3:
        raise ConditionError("delta must divide s_bar into at least 3 cells")
    if round(L) > MAX_GRID:
        raise ConditionError(f"grid of {round(L)} cells exceeds the supported "
                             f"{MAX_GRID}")
    return int(round(L))


def rl_functions(frontier: Frontier, delta: float, m: float) -> tuple[float, float, float, float]:
    """The four neighbor-transition costs out of demand ``m``.

    r1/r2 price the move to the next higher demand (driven by the second and
    first population respectively); l1/l2 price the move to the next lower
    demand.  ``m`` may be fractional for crossing searches; it must keep the
    higher demand on the grid (m + 1 <= L - 1).
    """
    L = _grid_size(frontier, delta)
    if not is_number(m):
        raise ConditionError(f"demand index {m!r} must be a number")
    if not 1 <= m <= L - 2:
        raise ConditionError(f"demand index {m} outside 1..{L - 2}")
    return _neighbour_terms(frontier, delta, delta * m)


def _neighbour_terms(f: Frontier, delta: float, x):
    """(r1, r2, l1, l2) at demand ``x`` (a float or a 1-D array), from f at
    x - delta, x and x + delta.  Over an array f is evaluated once per
    distinct point: where a cell's x - delta (x + delta) is the x of the
    cell before (after) it bit for bit, as in most cells of a grid, that
    cell's value is reused, which has the bits of a fresh evaluation."""
    lo, hi = x - delta, x + delta
    if not isinstance(x, np.ndarray):
        below, here, above = f(lo), f(x), f(hi)
    else:
        here = f.value(x)
        below, above = np.roll(here, 1), np.roll(here, -1)
        fresh_lo, fresh_hi = lo != np.roll(x, 1), hi != np.roll(x, -1)
        values = f.value(np.concatenate((lo[fresh_lo], hi[fresh_hi])))
        below[fresh_lo], above[fresh_hi] = np.split(values, [np.count_nonzero(fresh_lo)])
    r1 = (here - above) * x / hi
    r2 = x * (here - above) / here
    l1 = here * delta / x
    l2 = delta * here / below
    return r1, r2, l1, l2


_TERMS = ("r1", "r2", "l1", "l2")   # argmin ties resolve in this order
_TERM_POPULATION = {"r1": "beta", "r2": "alpha", "l1": "beta", "l2": "alpha"}
_TERM_DIRECTION = {"r1": +1, "r2": +1, "l1": -1, "l2": -1}


@dataclass(frozen=True)
class CrossingPoints:
    """Real-valued demand indices where opposing transition terms balance."""

    mu_star: Optional[float]        # r1 = l1
    mu_double_star: Optional[float]  # r2 = l2
    mu_intentional: Optional[float]  # r2 = l1


def _crossing(frontier: Frontier, delta: float, L: int, num_idx: int,
              den_idx: int) -> Optional[float]:
    """Where two of the ``_neighbour_terms`` balance on 1..L - 2, if they do."""
    lo, hi = 1.0, float(L - 2)

    def gap(mu: float) -> float:
        vals = _neighbour_terms(frontier, delta, delta * mu)
        return vals[num_idx] - vals[den_idx]

    if hi <= lo or gap(lo) * gap(hi) > 0:
        return None
    return _bisect(gap, lo, hi)


def crossings(frontier: Frontier, delta: float) -> CrossingPoints:
    L = _grid_size(frontier, delta)
    return CrossingPoints(*(_crossing(frontier, delta, L, *pair)
                            for pair in ((0, 2), (1, 3), (1, 2))))


@dataclass(frozen=True)
class StableDivision:
    """Exhaustive-argmax result for the discrete demand game."""

    rule: str
    delta: float
    m_star: int
    m_star_all: tuple[int, ...]
    x_star: float
    radius: float
    binding_term: str
    driving_population: str
    transition_direction: int
    crossing_candidate: Optional[float]
    crossing_agrees: bool
    per_m_binding: tuple[str, ...]
    warnings: tuple[str, ...] = ()


def stable_division(frontier: Frontier, delta: float,
                    rule: str = "unintentional", *,
                    solutions: Optional[BargainingSolutions] = None
                    ) -> StableDivision:
    """Division maximizing the escape radius over every demand index.

    The per-index radius is the minimum of the neighbor-transition terms (the
    minimum over all alternative demands is attained at a neighbor, by
    monotonicity of the term families).  The argmax is exhaustive; the
    crossing-based candidate is computed as a cross-check and any
    disagreement beyond one grid cell is surfaced as a warning.  Only the
    crossing the rule reads is solved, and the splits that pick it for the
    unintentional rule come from ``solutions`` when a caller has them.
    """
    if rule not in ("unintentional", "intentional"):
        raise ConditionError("rule must be 'unintentional' or 'intentional'")
    L = _grid_size(frontier, delta)
    warnings = []
    if L == 3:
        warnings.append("coarsest valid grid (L = 3): results are indicative only")

    cells = np.arange(1, L)
    terms = np.array(_neighbour_terms(frontier, delta, delta * cells))
    terms[:2, -1] = np.inf          # the top demand has no higher neighbour
    terms[2:, 0] = np.inf           # demand 1 has no lower neighbour
    if rule == "intentional":
        terms[[0, 3]] = np.inf      # r1 and l2 are unintentional moves
    radii = terms.min(axis=0)
    binding_idx = np.full(radii.shape, 3)
    for i in (2, 1, 0):  # the first least term wins, as with argmin
        binding_idx[terms[i] == radii] = i
    winners = tuple((cells[radii >= radii.max() - 1e-12]).tolist())
    m_star = winners[0]
    if len(winners) > 1:
        warnings.append(
            f"argmax tie between demands {winners}; x_star uses their midpoint"
        )
        x_star = delta * (sum(winners) / len(winners))
    else:
        x_star = delta * m_star

    if rule == "intentional":
        pair = (1, 2)                       # r2 = l1
    else:
        if solutions is None:
            nash, egal = (_split(frontier, gap) for gap in _GAPS[::2])
        else:
            nash, egal = solutions.s_nash, solutions.s_egalitarian
        pair = (0, 2) if nash > egal else (1, 3)   # r1 = l1, else r2 = l2
    candidate = _crossing(frontier, delta, L, *pair)
    agrees = candidate is not None and abs(candidate - m_star) <= 1.0 + NEAR_TIE
    if candidate is not None and not agrees:
        warnings.append(
            f"crossing candidate {candidate:.3f} disagrees with exhaustive "
            f"argmax {m_star}"
        )

    bindings = tuple(np.array(_TERMS, dtype=object)[binding_idx].tolist())
    binding = bindings[m_star - 1]
    return StableDivision(
        rule=rule,
        delta=delta,
        m_star=m_star,
        m_star_all=winners,
        x_star=x_star,
        radius=float(radii[m_star - 1]),
        binding_term=binding,
        driving_population=_TERM_POPULATION[binding],
        transition_direction=_TERM_DIRECTION[binding],
        crossing_candidate=candidate,
        crossing_agrees=agrees,
        per_m_binding=bindings,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class SweepRow:
    delta: float
    m_star: int
    x_star: float
    target: float
    error: float
    binding_term: str
    driving_population: str
    warning: str = ""


def convergence_sweep(frontier: Frontier, deltas: Sequence[float],
                      rule: str = "unintentional") -> list[SweepRow]:
    """Stable divisions over the grid steps ``deltas``, one row each in the
    order given, with distance to the limiting solution (Nash split for the
    unintentional rule, the intentional split otherwise)."""
    sol = solve_solutions(frontier)
    target = sol.s_nash if rule == "unintentional" else sol.s_intentional
    rows = []
    for d in deltas:
        res = stable_division(frontier, d, rule, solutions=sol)
        rows.append(
            SweepRow(
                delta=d,
                m_star=res.m_star,
                x_star=res.x_star,
                target=target,
                error=abs(res.x_star - target),
                binding_term=res.binding_term,
                driving_population=res.driving_population,
                warning="; ".join(res.warnings),
            )
        )
    return rows
