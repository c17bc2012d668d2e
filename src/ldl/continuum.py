"""Infinite-population path costs on the continuous simplex.

Straight segments parallel to a strategy edge, oblique (staircase-limit)
segments, the cost functional over admissible block paths, and the
three-strategy inter-convention transition costs in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConditionError
from .games import NEAR_TIE, OnePopGame, mixed_equilibrium, skew

SIMPLEX_TOL = 1e-12


def as_simplex_point(p: Sequence[float]) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.ndim != 1:
        raise ConditionError("a simplex point must be a vector")
    if np.any(q < -SIMPLEX_TOL) or abs(q.sum() - 1.0) > SIMPLEX_TOL:
        raise ConditionError(f"{p!r} is not a point of the simplex")
    return q


def payoffs_at(game: OnePopGame, p: np.ndarray) -> np.ndarray:
    """Linear payoff extension; accepts any vector, not only simplex points."""
    return game.payoffs @ p


def in_closed_basin(game: OnePopGame, mbar: int, p: Sequence[float]) -> bool:
    pay = payoffs_at(game, np.asarray(p, dtype=float))
    return bool(pay[mbar] >= pay.max() - NEAR_TIE)


def on_basin_boundary(game: OnePopGame, mbar: int, p: Sequence[float]) -> bool:
    pay = payoffs_at(game, np.asarray(p, dtype=float))
    top = max(pay[l] for l in range(game.k) if l != mbar)
    return bool(pay[mbar] >= top - NEAR_TIE and top >= pay[mbar] - NEAR_TIE)


def straight_cost(game: OnePopGame, mbar: int, p: Sequence[float],
                  q: Sequence[float]) -> float:
    """Limit cost per unit population of the straight path from p to q.

    Requires q = p + alpha (e_i - e_j) for a strategy pair (i, j) and both
    endpoints in the closed basin.  Equals half the transferred mass times
    the payoff gap of the target strategy evaluated at p + q.
    """
    p = as_simplex_point(p)
    q = as_simplex_point(q)
    d = q - p
    if np.all(np.abs(d) <= SIMPLEX_TOL):
        return 0.0
    gain = [l for l in range(game.k) if d[l] > SIMPLEX_TOL]
    lose = [l for l in range(game.k) if d[l] < -SIMPLEX_TOL]
    if len(gain) != 1 or len(lose) != 1:
        raise ConditionError("endpoints are not collinear along a strategy pair")
    i, j = gain[0], lose[0]
    for point in (p, q):
        if not in_closed_basin(game, mbar, point):
            raise ConditionError("straight segments must stay in the closed basin")
    pay = payoffs_at(game, p + q)
    return 0.5 * float(p[j] - q[j]) * float(pay[mbar] - pay[i])


def oblique_cost(game: OnePopGame, mbar: int, p: Sequence[float],
                 q: Sequence[float], a: float, b: float) -> float:
    """Limit cost of the staircase path whose displacement is
    a (e_m' - e_j) + b (e_m' - e_mbar) with a, b >= 0.

    The target strategy m' and the secondary source j are inferred from the
    displacement and checked against the supplied decomposition.
    """
    p = as_simplex_point(p)
    q = as_simplex_point(q)
    if a < -SIMPLEX_TOL or b < -SIMPLEX_TOL:
        raise ConditionError("decomposition weights must be nonnegative")
    d = q - p
    gain = [l for l in range(game.k) if d[l] > SIMPLEX_TOL]
    if len(gain) != 1:
        raise ConditionError("an oblique segment feeds exactly one strategy")
    mprime = gain[0]
    if mprime == mbar:
        raise ConditionError("the fed strategy must differ from the convention")
    recon = np.zeros(game.k)
    recon[mprime] = a + b
    recon[mbar] -= b
    sources = [l for l in range(game.k)
               if d[l] < -SIMPLEX_TOL and l != mbar]
    if b == 0 and not sources:
        sources = [mbar]
    if len(sources) > 1:
        raise ConditionError("more than one secondary source strategy")
    j = sources[0] if sources else mbar
    if j != mbar:
        recon[j] -= a
    else:
        recon[mbar] -= a
    if np.max(np.abs(recon - d)) > NEAR_TIE:
        raise ConditionError("decomposition (a, b) does not match q - p")
    for point in (p, q):
        if not in_closed_basin(game, mbar, point):
            raise ConditionError("oblique segments must stay in the closed basin")
    pay = payoffs_at(game, p + q)
    return 0.5 * (a + b) * float(pay[mbar] - pay[mprime])


@dataclass(frozen=True)
class ContinuumBlockPath:
    """Piecewise straight path leaving the convention along given targets.

    Segment ``l`` moves mass ``lengths[l]`` from the convention strategy to
    ``targets[l]``; induced points must stay in the closed basin and the
    terminal point is expected on its boundary.
    """

    mbar: int
    targets: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.targets) != len(self.lengths):
            raise ConditionError("targets and lengths must have equal length")
        if any(t < 0 for t in self.lengths):
            raise ConditionError("segment lengths must be nonnegative")
        if sum(self.lengths) > 1 + SIMPLEX_TOL:
            raise ConditionError("total transferred mass exceeds one")

    def points(self, k: int) -> list[np.ndarray]:
        p = np.zeros(k)
        p[self.mbar] = 1.0
        out = [p.copy()]
        for tgt, t in zip(self.targets, self.lengths):
            p = p.copy()
            p[tgt] += t
            p[self.mbar] -= t
            out.append(p)
        return out


def omega(game: OnePopGame, path: ContinuumBlockPath,
          require_boundary: bool = True) -> float:
    """Total cost of an admissible continuum block path.

    The closed basin is an intersection of half-spaces, hence convex, so a
    segment lies in it when both its endpoints do.
    """
    pts = path.points(game.k)
    for p in pts:
        if not in_closed_basin(game, path.mbar, p):
            raise ConditionError("path leaves the closed basin")
    if require_boundary and not on_basin_boundary(game, path.mbar, pts[-1]):
        raise ConditionError("terminal point is not on the basin boundary")
    total = 0.0
    for p, q in zip(pts, pts[1:]):
        total += straight_cost(game, path.mbar, p, q)
    return total


# ---------------------------------------------------------------------------
# Three-strategy inter-convention transition costs


@dataclass(frozen=True)
class ThreeStrategyTransitionCosts:
    """Limit transition costs out of convention 0 for a three-strategy game.

    ``c01``/``c02`` are the normalized limit costs of reaching the basins
    of strategies 1 and 2; routes record whether the cheaper path is the
    direct edge or passes through the other convention's boundary mixture.
    Strategy relabeling applied to orient the cyclic asymmetry is reported
    so callers can map routes back.
    """

    c01: float
    c02: float
    route_01: str
    route_02: str
    skew: float
    relabeled: bool
    candidates: dict
    note: str = ""

    def cost(self, target: int) -> float:
        if target == 1:
            return self.c01
        if target == 2:
            return self.c02
        raise ConditionError("target must be strategy 1 or 2")


def _direct_edge_cost(game: OnePopGame, frm: int, to: int) -> float:
    p = mixed_equilibrium(game, (frm, to))
    if p is None:
        raise ConditionError(f"no pairwise mixture for strategies {frm}, {to}")
    e = np.zeros(game.k)
    e[frm] = 1.0
    return straight_cost(game, frm, e, p)


def _via_cost(game: OnePopGame, mid: int, far: int) -> float:
    """Cost of edge 0 -> mid mixture, then oblique to the full mixture."""
    p_pair = mixed_equilibrium(game, (0, mid))
    q_full = mixed_equilibrium(game, (0, mid, far))
    if p_pair is None or q_full is None:
        raise ConditionError("required mixed equilibria are absent")
    a = float(p_pair[mid] - q_full[mid])
    b = float(p_pair[0] - q_full[0])
    if a < -NEAR_TIE or b < -NEAR_TIE:
        raise ConditionError(
            "the through-route decomposition has a negative component"
        )
    leg = oblique_cost(game, 0, p_pair, q_full, max(a, 0.0), max(b, 0.0))
    return _direct_edge_cost(game, 0, mid) + leg


def transition_cost_limit_3(game: OnePopGame) -> ThreeStrategyTransitionCosts:
    """Limit costs of the transitions 0 -> 1 and 0 -> 2 for k = 3 games.

    The orientation with positive cyclic asymmetry makes 0 -> 1 a direct
    edge transition while 0 -> 2 may shortcut through the (0, 1) boundary;
    a negative asymmetry is handled by relabeling strategies 1 and 2, and a
    zero asymmetry (potential game) is flagged since every route ties.
    """
    if game.k != 3:
        raise ConditionError("closed-form transitions require exactly 3 strategies")
    s = skew(game, 0, 2, 1)  # positive when collecting 0->1 moves first is cheaper
    note = ""
    relabeled = False
    work = game
    if s < 0:
        perm = [0, 2, 1]
        work = OnePopGame(game.payoffs[np.ix_(perm, perm)])
        relabeled = True
    elif s == 0:
        note = "zero cyclic asymmetry (potential game): route costs tie"

    direct_near = _direct_edge_cost(work, 0, 1)     # transition to strategy 1
    direct_far = _direct_edge_cost(work, 0, 2)
    via = _via_cost(work, 1, 2)
    far_cost = min(direct_far, via)
    far_route = "direct" if direct_far <= via else "via"
    candidates = {
        "near_direct": direct_near,
        "far_direct": direct_far,
        "far_via": via,
    }
    if relabeled:
        # In original labels the near target is strategy 2.
        return ThreeStrategyTransitionCosts(
            c01=far_cost,
            c02=direct_near,
            route_01="direct" if far_route == "direct" else "via_2",
            route_02="direct",
            skew=s,
            relabeled=True,
            candidates=candidates,
            note=note,
        )
    return ThreeStrategyTransitionCosts(
        c01=direct_near,
        c02=far_cost,
        route_01="direct",
        route_02="direct" if far_route == "direct" else "via_1",
        skew=s,
        relabeled=False,
        candidates=candidates,
        note=note,
    )
