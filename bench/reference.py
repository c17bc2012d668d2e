"""Independent stationary-distribution reference for the benchmark checks.

The revision kernel is assembled here from the model's definition, not from
``ldl.chain``: a revising agent is drawn uniformly (for two populations, a
population with probability 1/2 first), then picks among all strategies
with logit weights exp(beta * payoff).  The stationary vector comes from
dense GTH elimination (Grassmann, Taksar and Heyman 1985), which is
subtraction-free and so exact to rounding even on stiff chains.  An LU
solve of pi P = pi is not used: on these kernels it loses the tiny
couplings and can put the mass on the wrong convention.

``python3 bench/reference.py`` recomputes the committed
``bench/references.json`` for the fixed instances.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import combinations

import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def compositions(n: int, k: int) -> np.ndarray:
    """Every count vector of length k summing to n (stars and bars)."""
    rows = []
    for bars in combinations(range(n + k - 1), k - 1):
        edges = (-1,) + bars + (n + k - 1,)
        rows.append([edges[t + 1] - edges[t] - 1 for t in range(k)])
    return np.array(rows, dtype=np.int64)


def _index(states: np.ndarray, n: int):
    """Map count vectors to row numbers through a base-(n+1) key."""
    radix = (n + 1) ** np.arange(states.shape[1], dtype=np.int64)
    keys = states @ radix
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def lookup(rows: np.ndarray) -> np.ndarray:
        return order[np.searchsorted(sorted_keys, rows @ radix)]

    return lookup


def _logit(payoffs: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(beta * (payoffs - payoffs.max(axis=1, keepdims=True)))
    return w / w.sum(axis=1, keepdims=True)


def kernel_one_pop(a: np.ndarray, n: int, beta: float):
    k = a.shape[0]
    states = compositions(n, k)
    lookup = _index(states, n)
    choice = _logit(states @ a.T / n, beta)
    P = np.zeros((len(states), len(states)))
    for i in range(k):
        rows = np.nonzero(states[:, i])[0]
        for j in range(k):
            if j == i:
                continue
            moved = states[rows].copy()
            moved[:, i] -= 1
            moved[:, j] += 1
            P[rows, lookup(moved)] += states[rows, i] / n * choice[rows, j]
    P[np.diag_indices_from(P)] = 1.0 - P.sum(axis=1)
    return [tuple(int(c) for c in s) for s in states], P


def kernel_two_pop(alpha: np.ndarray, beta_m: np.ndarray, n: int, beta: float):
    k = alpha.shape[0]
    side = compositions(n, k)
    lookup = _index(side, n)
    size = len(side)
    choice_a = _logit(side @ alpha.T / n, beta)   # indexed by beta counts
    choice_b = _logit(side @ beta_m / n, beta)    # indexed by alpha counts
    P = np.zeros((size * size, size * size))
    every = np.arange(size)
    for i in range(k):
        rows = np.nonzero(side[:, i])[0]
        for j in range(k):
            if j == i:
                continue
            moved = side[rows].copy()
            moved[:, i] -= 1
            moved[:, j] += 1
            dest = lookup(moved)
            share = 0.5 * side[rows, i] / n
            # alpha agent moves: alpha row changes, beta counts stay.
            P[(rows[:, None] * size + every).ravel(),
              (dest[:, None] * size + every).ravel()] += (
                share[:, None] * choice_a[every, j][None, :]).ravel()
            # beta agent moves: beta row changes, alpha counts stay.
            P[(every[:, None] * size + rows).ravel(),
              (every[:, None] * size + dest).ravel()] += (
                choice_b[every, j][:, None] * share[None, :]).ravel()
    P[np.diag_indices_from(P)] = 1.0 - P.sum(axis=1)
    states = [(tuple(int(c) for c in side[x]), tuple(int(c) for c in side[y]))
              for x in range(size) for y in range(size)]
    return states, P


def gth(P: np.ndarray) -> np.ndarray:
    """Stationary vector by GTH elimination with column scaling."""
    A = np.array(P, dtype=float)
    size = A.shape[0]
    for k in range(size - 1, 0, -1):
        out = A[k, :k].sum()
        if out <= 0.0:
            raise ArithmeticError("departure mass underflowed")
        A[:k, k] /= out
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(size)
    pi[0] = 1.0
    for k in range(1, size):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def kernel(game: dict, n: int, beta: float):
    if game["type"] == "one_population":
        return kernel_one_pop(np.array(game["payoffs"], dtype=float), n, beta)
    return kernel_two_pop(np.array(game["alpha"], dtype=float),
                          np.array(game["beta"], dtype=float), n, beta)


def convention_states(game: dict, n: int) -> list:
    k = len(game["payoffs"] if game["type"] == "one_population" else game["alpha"])
    out = []
    for m in range(k):
        e = tuple(n if i == m else 0 for i in range(k))
        out.append(e if game["type"] == "one_population" else (e, e))
    return out


def convention_masses(game: dict, n: int, beta: float) -> list[float]:
    """Stationary mass of each convention state, from the dense GTH solve."""
    states, P = kernel(game, n, beta)
    pi = gth(P)
    index = {s: x for x, s in enumerate(states)}
    return [float(pi[index[s]]) for s in convention_states(game, n)]


def residual(game: dict, n: int, beta: float, states: list, pi) -> float:
    """max |pi P - pi| with P assembled here, for a vector in ``states`` order."""
    ref_states, P = kernel(game, n, beta)
    index = {s: x for x, s in enumerate(ref_states)}
    v = np.zeros(len(ref_states))
    v[[index[s] for s in states]] = pi
    return float(np.abs(v @ P - v).max())


def fixed_cases() -> dict:
    """The committed cases: (game document, n, beta) by case name."""
    import inputs
    import ldl

    ndg = ldl.ndg_build(inputs.frontier(inputs.PANEL_A), 4)
    tech = {"type": "one_population", "payoffs": [list(r) for r in inputs.TECH_STAT]}
    cases = {}
    for beta in (1.0, 2.0, 4.0):
        cases[f"tech_stat n=40 beta={beta:g}"] = (tech, 40, beta)
    cases["tech_stat n=62 beta=1"] = (tech, 62, 1.0)
    cases["ndg_A L=4 n=6 beta=1"] = (json.loads(ldl.game_to_json(ndg)), 6, 1.0)
    cases["two_pop_2x2 n=30 beta=1"] = (
        {"type": "two_population",
         "alpha": [list(r) for r in inputs.TWO_POP_2X2[0]],
         "beta": [list(r) for r in inputs.TWO_POP_2X2[1]]}, 30, 1.0)
    return cases


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [here, os.path.join(os.path.dirname(here), "src")]
    out = {}
    for name, (game, n, beta) in fixed_cases().items():
        out[name] = convention_masses(game, n, beta)
        print(name, out[name], flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
