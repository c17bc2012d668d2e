"""Benchmark inputs: the paper's fixed instances and seeded draws.

Everything here is derived from the ``--seed`` argument alone, so one seed
always yields the same games and frontiers.  The random games come from a
rejection sampler: integer payoffs are drawn and kept only when the
library's structural check (coordination, bandwagon, mixed equilibria on
every support) holds, which is what every escape solver requires; the seed
relabels their strategies.  The frontiers are drawn from small parameter
lists.  The library only ever receives the finished games and frontiers.
"""

from __future__ import annotations

import numpy as np

import ldl

# Paper instances.
TECH = ((16, -1, 1), (1, 16, -1), (-1, 1, 16))            # tech_game(16,16,16,1)
TECH_UNEVEN = ((16, -1, 1), (1, 12, -1), (-1, 1, 24))     # tech_game(16,12,24,1)
TECH_STAT = ((16, -1, 1), (1, 17, -1), (-1, 1, 18))       # tech_game(16,17,18,1)
TWO_POP_2X2 = (((2, 0), (0, 1)), ((1, 0), (0, 2)))        # (alpha, beta)
PANEL_A = (1.0, 3.0, 0.5)                                 # Frontier(a, b, p)
PANEL_B = (3.0, 1.0, 0.5)

MAX_ATTEMPTS = 20_000
# The sampler's own seed.  The condition-holding games it draws vary widely
# in how long each solver takes on them (10 to 220 ms for one op), so a
# sampler driven by ``--seed`` changed the work in a pass from seed to seed.
# The games are drawn with this fixed seed instead, and ``--seed`` relabels
# their strategies: a relabelled game is a different input with the same
# work, since relabelling only permutes the conventions among the ops.
SAMPLER_SEED = 1


def one_pop(payoffs) -> ldl.OnePopGame:
    return ldl.OnePopGame(np.array(payoffs, dtype=float))


def two_pop(pair) -> ldl.TwoPopGame:
    return ldl.TwoPopGame(np.array(pair[0], dtype=float),
                          np.array(pair[1], dtype=float))


def frontier(abp) -> ldl.Frontier:
    return ldl.Frontier(*abp)


def random_game(rng: np.random.Generator, k: int) -> ldl.OnePopGame:
    """Condition-holding k-strategy game: diagonal 8..20, off-diagonal -3..3."""
    for _ in range(MAX_ATTEMPTS):
        a = rng.integers(-3, 4, size=(k, k)).astype(float)
        a[np.diag_indices(k)] = rng.integers(8, 21, size=k)
        game = ldl.OnePopGame(a)
        if ldl.validate_one_pop(game).condition_holds:
            return game
    raise RuntimeError(f"no condition-holding k={k} game in {MAX_ATTEMPTS} draws")


def relabelled(rng: np.random.Generator, game: ldl.OnePopGame) -> ldl.OnePopGame:
    """``game`` with its strategies put in a random order."""
    order = rng.permutation(game.k)
    return ldl.OnePopGame(game.payoffs[np.ix_(order, order)])


def random_frontier(rng: np.random.Generator) -> ldl.Frontier:
    """Frontier (a (1 - x/b))**p with an integer b, so b / L is a grid step."""
    a = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]))
    b = float(rng.integers(1, 5))
    p = float(rng.choice([0.3, 0.4, 0.5, 0.6, 0.7]))
    return ldl.Frontier(a, b, p)


def seeded(seed: int) -> dict:
    """The seeded part of every workload's inputs, drawn in a fixed order."""
    sampler = np.random.default_rng(SAMPLER_SEED)
    games = [random_game(sampler, k) for k in (3, 3, 4)]
    rng = np.random.default_rng(seed)
    game3, game3_stat, game4 = (relabelled(rng, g) for g in games)
    return {
        "game3": game3,
        "game3_stat": game3_stat,
        "game4": game4,
        "frontiers": (random_frontier(rng), random_frontier(rng)),
    }


def describe(obj) -> str:
    """Short, stable text form of a game or frontier for op names and logs."""
    if isinstance(obj, ldl.OnePopGame):
        return "A=" + str(obj.payoffs.astype(int).tolist()).replace(" ", "")
    if isinstance(obj, ldl.Frontier):
        return f"frontier({obj.a:g},{obj.b:g},{obj.p:g})"
    return type(obj).__name__
