"""Shared test games, seeded generators, and the dense kernel."""

from __future__ import annotations

import numpy as np

from ldl import OnePopGame, TwoPopGame, in_basin, tech_game, validate_one_pop
from ldl.chain import enumerate_states, transition_matrix

TWO_STRATEGY = OnePopGame([[2, 0], [0, 1]])
TECH = tech_game(16, 16, 16, 1)
TECH_SKEWED = tech_game(16, 16, 16, 4)      # strong cyclic asymmetry
TECH_UNEVEN = tech_game(16, 12, 24, 1)      # asymmetric benefits, conclusive maxmin
# Coordination + bandwagon game where the 1->3 transition prefers the
# two-leg route comparison to bite (used for the oblique-route lemmas).
ROUTED = OnePopGame([[10, 0, 2], [3, 9, 4], [1, 2, 8]])
# One-decimal game whose n=30 escape from strategy 3 ends at (0, 11, 19),
# where strategies 2 and 3 tie in exact arithmetic but not in float sums.
DECIMAL_TIE = OnePopGame([[1.9, 0, -0.2], [-0.1, 1.6, -0.1], [0.2, -0.3, 1.0]])
# Two populations with opposed preferences: alpha prefers convention 0,
# beta convention 1.
TWO_POP_2X2 = TwoPopGame([[2, 0], [0, 1]], [[1, 0], [0, 2]])


def alpha_payoffs(game: TwoPopGame, beta_counts) -> np.ndarray:
    """Alpha's payoff vector against beta's counts, formed apart from ``ldl``."""
    c = np.asarray(beta_counts, dtype=float)
    return game.alpha @ c / c.sum()


def beta_payoffs(game: TwoPopGame, alpha_counts) -> np.ndarray:
    """Beta's payoff vector against alpha's counts, formed apart from ``ldl``."""
    c = np.asarray(alpha_counts, dtype=float)
    return c @ game.beta / c.sum()


def random_condition_a_games(count: int, seed: int, k: int = 3) -> list[OnePopGame]:
    """Seeded rejection sampler for games passing the full structural check."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 20000:
            raise RuntimeError("generator rejection rate unexpectedly high")
        a = rng.integers(-3, 4, size=(k, k)).astype(float)
        for i in range(k):
            a[i, i] = float(rng.integers(8, 21))
        game = OnePopGame(a)
        if validate_one_pop(game).condition_holds:
            out.append(game)
    return out


def random_decimal_games(count: int, seed: int, k: int = 3) -> list[OnePopGame]:
    """The integer sampler's games with payoffs over ten: one-decimal
    payoffs, whose exact ties float sums may break."""
    games = (OnePopGame(g.payoffs / 10)
             for g in random_condition_a_games(count, seed, k))
    return [g for g in games if validate_one_pop(g).condition_holds]


def random_basin_states(game: OnePopGame, n: int, mbar: int, count: int,
                        seed: int, min_mbar: int = 2,
                        interior_moves: tuple = ()) -> list[tuple]:
    """Sample basin states (with replacement) whose listed follow-up moves
    also stay in the basin."""
    pool = []
    for s in enumerate_states(n, game.k):
        if s[mbar] < min_mbar or not in_basin(game, s, mbar):
            continue
        ok = True
        for mv_path in interior_moves:
            probe = s
            try:
                from ldl import Move, apply_move

                for (i, j) in mv_path:
                    probe = apply_move(probe, Move(i, j))
                    if not in_basin(game, probe, mbar):
                        ok = False
                        break
            except Exception:
                ok = False
            if not ok:
                break
        if ok:
            pool.append(s)
    if not pool:
        raise RuntimeError("no admissible basin states for this configuration")
    rng = np.random.default_rng(seed)
    return [pool[r] for r in rng.integers(0, len(pool), size=count)]


def dense_kernel(*args, **kwargs) -> tuple[list, np.ndarray]:
    """``transition_matrix``'s states and its band spread out to the N x N
    kernel, P[a, b] = band[a, b - a + w]."""
    states, band = transition_matrix(*args, **kwargs)
    w = band.shape[1] // 2
    P = np.zeros((len(states), len(states)))
    rows, diag = np.nonzero(band)
    P[rows, rows + diag - w] = band[rows, diag]
    return states, P
