"""Stochastic stability: radius and transition-cost matrices, the maxmin
sufficient tests, minimum-cost rooted trees, and exact finite-noise
stationary distributions."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import (
    CostRule,
    check_population,
    comp_rank,
    convention_state,
    num_states,
    transition_matrix,
)
from .errors import ConditionError, GuardrailExceeded, LdlError, UnsupportedRuleError
from .escape import (
    EscapeResult,
    _least_cost_search,
    escape_term_two_pop,
    pairwise_escape_term,
)
from .games import NEAR_TIE, TwoPopGame, is_number

EXHAUSTIVE_TREE_CAP = 9
TREE_METHODS = ("auto", "exhaustive", "edmonds")
BETA_CAP = 64.0
GTH_BLOCK = 16  # states eliminated together by the stationary solve
_PANEL = 1 << 15  # entries of a Schur complement product formed at once (256 KB)


def radius_matrix(game, rule: CostRule = CostRule.LOGIT) -> np.ndarray:
    """Limit escape costs between ordered convention pairs, read-only:
    ``[i, j]`` is the closed-form cost of tipping convention i toward j,
    and the diagonal is NaN."""
    k = game.k
    values = np.full((k, k), np.nan)
    two_pop = isinstance(game, TwoPopGame)
    if two_pop and rule not in (CostRule.LOGIT, CostRule.INTENTIONAL):
        raise UnsupportedRuleError(
            "two-population radii exist for the logit rules only"
        )
    for m in range(k):
        for j in range(k):
            if j != m:
                values[m, j] = (escape_term_two_pop(game, m, j, rule)[0] if two_pop
                                else pairwise_escape_term(game, m, j, rule))
    values.flags.writeable = False
    return values


def incidence(values: np.ndarray) -> np.ndarray:
    """Row-wise argmin indicator; near-ties within ``NEAR_TIE`` all get a
    1.  The cost matrix is refused as ``maxmin_test_matrix`` refuses it."""
    values = _cost_matrix(values)
    k = values.shape[0]
    inc = np.zeros((k, k), dtype=int)
    for i in range(k):
        row = [(values[i, j], j) for j in range(k) if j != i]
        lo = min(v for v, _ in row)
        for v, j in row:
            if v <= lo + NEAR_TIE:
                inc[i, j] = 1
    return inc


def cycles(inc: np.ndarray) -> list[tuple[int, ...]]:
    """All simple directed cycles of the incidence graph, canonically rotated."""
    k = inc.shape[0]
    found = set()

    def dfs(path: list[int]):
        head = path[-1]
        for nxt in range(k):
            if not inc[head, nxt]:
                continue
            if nxt == path[0]:
                cyc = tuple(path)
                lo = cyc.index(min(cyc))
                found.add(cyc[lo:] + cyc[:lo])
            elif nxt not in path and nxt > path[0]:
                dfs(path + [nxt])

    for start in range(k):
        dfs([start])
    out = sorted(found)
    if not out:
        raise LdlError("an incidence graph always contains a cycle")
    return out


@dataclass(frozen=True)
class StabilityReport:
    """Maxmin analysis of a radius (or transition-cost) matrix."""

    radii: tuple[float, ...]
    candidates: tuple[int, ...]
    local_resistance: bool
    unique_cycle: bool
    cycle_list: tuple[tuple[int, ...], ...]
    stable: Optional[int]
    note: str = ""

    @property
    def conclusive(self) -> bool:
        return self.stable is not None


def _cost_matrix(values) -> np.ndarray:
    """``values`` as a float array, refused unless it is square over k >= 2
    conventions and finite off its diagonal (which is never read)."""
    values = np.asarray(values, dtype=float)
    k = values.shape[0] if values.ndim else 0
    if values.shape != (k, k) or k < 2:
        raise ConditionError(f"a cost matrix must be k x k with k >= 2, "
                             f"got shape {values.shape}")
    if not np.isfinite(values[~np.eye(k, dtype=bool)]).all():
        raise ConditionError("a cost matrix must be finite off its diagonal")
    return values


def maxmin_test_matrix(values: np.ndarray) -> StabilityReport:
    values = _cost_matrix(values)
    k = values.shape[0]
    radii = tuple(
        float(min(values[i, j] for j in range(k) if j != i)) for i in range(k)
    )
    hi = max(radii)
    candidates = tuple(i for i in range(k) if radii[i] >= hi - NEAR_TIE)
    cyc = tuple(cycles(incidence(values)))
    if len(candidates) != 1:
        return StabilityReport(
            radii, candidates, False, len(cyc) == 1, cyc, None,
            "tied maxmin candidates; inconclusive",
        )
    i_star = candidates[0]
    inbound = max(values[j, i_star] for j in range(k) if j != i_star)
    outbound = radii[i_star]
    local = inbound < outbound - NEAR_TIE
    unique = len(cyc) == 1 and i_star in cyc[0]
    stable = i_star if (local or unique) else None
    note = "" if stable is not None else "neither sufficient test holds"
    return StabilityReport(radii, candidates, local, unique, cyc, stable, note)


def maxmin_test(game, rule: CostRule = CostRule.LOGIT) -> StabilityReport:
    """Sufficient-condition test on the closed-form radius matrix.

    Inconclusive reports (ties, or neither test holding) leave ``stable``
    unset; resolve them with the oracle operations below instead of guessing.
    """
    return maxmin_test_matrix(radius_matrix(game, rule))


# ---------------------------------------------------------------------------
# Exact transition costs between conventions


def transition_cost_bruteforce(
    game,
    n: int,
    i: int,
    j: int,
    rule: CostRule = CostRule.LOGIT,
    guardrail: Optional[int] = None,
) -> EscapeResult:
    """Exact minimum cost of travelling from convention i into j's basin.

    Least-cost search over the whole simplex; unlike the escape problem the
    path may cross other basins on the way.
    """
    if i == j:
        raise ConditionError("source and destination conventions must differ")
    return _least_cost_search(game, n, i, (j,), leaving=False, rule=rule,
                              guardrail=guardrail)[0]


def transition_cost_matrix(
    game, n: int, rule: CostRule = CostRule.LOGIT,
    guardrail: Optional[int] = None,
) -> np.ndarray:
    """Normalized exact transition costs for every ordered convention pair,
    each ``transition_cost_bruteforce``'s, from one search per source."""
    k = game.k
    out = np.full((k, k), np.nan)
    for i in range(k):
        others = [j for j in range(k) if j != i]
        found = _least_cost_search(game, n, i, others, leaving=False, rule=rule,
                                   guardrail=guardrail)
        out[i, others] = [res.normalized for res in found]
    return out


# ---------------------------------------------------------------------------
# Minimum-cost rooted trees


def _tree_cost_exhaustive(values: np.ndarray, root: int) -> float:
    k = values.shape[0]
    others = [v for v in range(k) if v != root]
    best = math.inf
    for parents in itertools.product(range(k), repeat=len(others)):
        if any(p == v for v, p in zip(others, parents)):
            continue
        # every vertex must reach the root through the parent map
        ok = True
        lookup = dict(zip(others, parents))
        for v in others:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = lookup[cur]
            if not ok:
                break
        if not ok:
            continue
        cost = sum(values[v, p] for v, p in zip(others, parents))
        best = min(best, cost)
    return best


def _tree_cost_edmonds(values: np.ndarray, root: int) -> float:
    """Minimum spanning in-tree cost by cycle contraction.

    Works on the reversed graph so the usual out-arborescence recursion
    applies: arc (u, v) there carries the original cost values[v, u].
    """
    k = values.shape[0]
    arcs = [
        (u, v, float(values[v, u]))
        for u in range(k)
        for v in range(k)
        if u != v and v != root
    ]

    def solve(nodes: list[int], arcs: list[tuple], root: int) -> float:
        best_in = {}
        for u, v, w in arcs:
            if v != root and (v not in best_in or w < best_in[v][2]):
                best_in[v] = (u, v, w)
        for v in nodes:
            if v != root and v not in best_in:
                raise LdlError("disconnected cost matrix")
        # hunt for a cycle among the chosen arcs
        cyc = None
        for v in nodes:
            if v == root:
                continue
            seen = [v]
            cur = v
            while True:
                cur = best_in[cur][0]
                if cur == root:
                    break
                if cur in seen:
                    cyc = seen[seen.index(cur):]
                    break
                seen.append(cur)
            if cyc:
                break
        if not cyc:
            return sum(a[2] for a in best_in.values())
        cyc_set = set(cyc)
        cyc_cost = sum(best_in[v][2] for v in cyc)
        super_node = max(nodes) + 1
        new_nodes = [v for v in nodes if v not in cyc_set] + [super_node]
        new_arcs = []
        for u, v, w in arcs:
            if u in cyc_set and v in cyc_set:
                continue
            if v in cyc_set:
                new_arcs.append((u, super_node, w - best_in[v][2]))
            elif u in cyc_set:
                new_arcs.append((super_node, v, w))
            else:
                new_arcs.append((u, v, w))
        return cyc_cost + solve(new_nodes, new_arcs, root)

    return solve(list(range(k)), arcs, root)


@dataclass(frozen=True)
class ArborescenceResult:
    roots: tuple[int, ...]
    tree_costs: tuple[float, ...]
    method: str


def arborescence_root(values: np.ndarray, method: str = "auto") -> ArborescenceResult:
    """Roots of the cheapest spanning in-trees of a complete cost matrix
    (k x k, k >= 2, finite off the diagonal, or refused).

    ``method`` is "exhaustive" (refused above 9 vertices), "edmonds", or
    "auto" (exhaustive up to 6 vertices, contraction beyond); any other
    value is refused.
    """
    if method not in TREE_METHODS:
        raise ConditionError(f"unknown tree method {method!r}; "
                             f"expected one of {', '.join(TREE_METHODS)}")
    values = _cost_matrix(values)
    k = values.shape[0]
    if method == "auto":
        method = "exhaustive" if k <= 6 else "edmonds"
    if method == "exhaustive" and k > EXHAUSTIVE_TREE_CAP:
        raise GuardrailExceeded(
            f"exhaustive tree search is refused beyond {EXHAUSTIVE_TREE_CAP} vertices"
        )
    solver = _tree_cost_exhaustive if method == "exhaustive" else _tree_cost_edmonds
    costs = tuple(solver(values, r) for r in range(k))
    lo = min(costs)
    roots = tuple(r for r in range(k) if costs[r] <= lo + NEAR_TIE)
    return ArborescenceResult(roots, costs, method)


# ---------------------------------------------------------------------------
# Exact stationary distributions


_UNDERFLOW = ("stationary solve lost conditioning: transition weights "
              "underflow at this noise level")


def _gth_stationary(entries: tuple, dist: np.ndarray) -> np.ndarray:
    """Stationary distribution of the kernel given by its nonzero entries,
    ``entries = (i, j, P[i, j])`` as three arrays, by block GTH
    state-censoring elimination over its envelope.

    The states are stably sorted by ``dist``, their distance from state 0
    (which is the only state at distance 0), and the kernel is banded
    in that order, padded by ``GTH_BLOCK`` so that a block's front never
    reads past the band.  ``lo[k]`` is the first state coupled to k or to
    any later state; eliminating states last first, the fill of row and
    column k never passes it.  The states go ``GTH_BLOCK`` at a time from
    the top.  A block K = [k0, k1) is coupled only to the rest
    R = [lo[k0], k0): its rows over K and R are copied to a buffer, last
    state first, and eliminated there one state at a time (pivot = the
    row's sum over the states below it; normalize; rank-1 update of the
    block's rows below).  R then gets its whole Schur complement as one
    product, ``RR += (RK M) Rn``, formed ``_PANEL`` entries at a time: Rn
    is the block's normalized rows over R and M = (I - N)^-1 for N its
    normalized rows over K, which is nilpotent and substochastic, so M is
    summed by doubling as (I + N)(I + N^2)(I + N^4)... from nonnegative
    terms.  ``RK M`` (R's columns at elimination time) and the block's own
    columns and rows go back into the band, where the back-substitution
    reads them a block at a time.  Subtraction-free, so it stays accurate
    on stiff kernels (large beta) where a generic LU solve of pi P = pi
    loses the tiny couplings.  State 0 is left last and anchors the
    back-substitution.  Returns pi in the kernel's own state order.
    """
    rows, cols, vals = entries
    size = len(dist)
    order = np.argsort(dist, kind="stable")
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    r, c = rank[rows], rank[cols]
    w = int(np.abs(c - r).max()) + GTH_BLOCK
    band = np.zeros((size, 2 * w + 1))
    band[r, c - r + w] = vals
    lo = np.arange(size)
    np.minimum.at(lo, np.maximum(r, c), np.minimum(r, c))
    lo = np.minimum.accumulate(lo[::-1])[::-1].tolist()
    # A[i, j] is band[i, j - i + w]; only entries with |i - j| <= w are read
    step = band.strides[1]
    A = np.lib.stride_tricks.as_strided(
        band.reshape(-1)[w:], shape=(size, size),
        strides=(band.strides[0] - step, step),
    )
    upper = np.triu(np.ones((GTH_BLOCK, GTH_BLOCK)), 1)
    eye = np.eye(GTH_BLOCK)
    depart = np.empty(size)
    tiny = np.finfo(float).tiny
    blocks = [(max(k1 - GTH_BLOCK, 1), k1) for k1 in range(size, 1, -GTH_BLOCK)]
    for k0, k1 in blocks:
        a, b = lo[k0], k1 - k0
        K = slice(k1 - 1, k0 - 1, -1)  # the block's states, last first
        F = np.concatenate((A[K, K], A[K, a:k0]), axis=1)
        for q in range(b):
            row = F[q, q + 1:]
            s = np.add.reduce(row)
            if s <= tiny:
                raise LdlError(_UNDERFLOW)
            depart[k1 - 1 - q] = s
            row /= s
            if q + 1 < b:
                F[q + 1:, q + 1:] += F[q + 1:, q, None] * row
        N = F[:, :b] * upper[:b, :b]
        M = N + eye[:b, :b]
        power = 2
        while power < b:
            N = N @ N
            M += M @ N
            power *= 2
        C = A[a:k0, K] @ M
        # k0 > a: with R empty, state k0 would have had no pivot
        RR, Rn, panel = A[a:k0, a:k0], F[:, b:], max(_PANEL // (k0 - a), 1)
        for i in range(0, k0 - a, panel):
            RR[i:i + panel] += C[i:i + panel] @ Rn
        A[a:k0, K] = C
        A[K, K] = F[:, :b]
    with np.errstate(over="raise", invalid="raise"):
        try:
            x = np.zeros(size)
            x[0] = 1.0
            for k0, k1 in reversed(blocks):
                a = lo[k0]
                y = x[a:k0] @ A[a:k0, k0:k1]
                for k in range(k0, k1):
                    x[k] = (y[k - k0] + x[k0:k] @ A[k0:k, k]) / depart[k]
        except FloatingPointError as exc:
            raise LdlError(_UNDERFLOW) from exc
    if not np.all(np.isfinite(x)):
        raise LdlError("stationary solve produced non-finite mass")
    return x[rank] / x.sum()


def invariant_measure(
    game, n: int, beta: float, rule: CostRule = CostRule.LOGIT,
    guardrail: Optional[int] = None,
) -> tuple[list, np.ndarray]:
    """Exact stationary distribution of the revision chain.

    Block GTH elimination over the kernel's envelope at every size, the
    states taken in order of distance from state 0: the number of agents
    not playing the last strategy, summed over populations (one
    population's colex order already is that order).  O(N (b + B)) memory
    for N states (at most ``guardrail``, default ``KERNEL_STATE_CAP``),
    bandwidth b in that order and B = ``GTH_BLOCK``.  The arithmetic is the
    envelope's, at most N b^2, done as one small step per state inside its
    block and a few matrix products per block: 0.42 s at 20,301 states for
    ``tech_game(16, 17, 18, 1)`` at n = 200, and 16-18 ms for the
    two-population demand game at L = 4, n = 6, on a 2-vCPU guest.  The law
    is unique for finite beta; an ``LdlError`` reports transition weights
    underflowing.  The masses come back in ``states``' colex order.
    """
    states, band = transition_matrix(game, n, beta, rule, guardrail)
    rows, diag = np.divmod(np.flatnonzero(band), band.shape[1])
    entries = rows, rows + diag - band.shape[1] // 2, band[rows, diag]
    del band  # the colex band goes before the solve builds its own
    # agents not playing the last strategy, over both sides for two populations
    last = np.array(states)[..., -1].reshape(len(states), -1)
    return states, _gth_stationary(entries, (n - last).sum(axis=1))


def convention_mass(game, n: int, beta: float, m: int,
                    rule: CostRule = CostRule.LOGIT,
                    guardrail: Optional[int] = None) -> float:
    """Stationary mass of the convention where everyone plays ``m``."""
    target = convention_state(game, n, m)
    states, pi = invariant_measure(game, n, beta, rule, guardrail)
    if isinstance(game, TwoPopGame):
        index = comp_rank(target[0]) * num_states(n, game.k) + comp_rank(target[1])
    else:
        index = comp_rank(target)
    return float(pi[index])


def beta_ladder_trace(
    game,
    n: int,
    m: int,
    rule: CostRule = CostRule.LOGIT,
    beta0: float = 1.0,
    mass_target: float = 0.5,
    beta_cap: float = BETA_CAP,
) -> list[tuple[float, float]]:
    """Stationary mass of convention ``m`` while doubling beta.

    Stops as soon as the mass exceeds ``mass_target``, beta passes the cap,
    or the solve loses conditioning; returns the sound (beta, mass) pairs.
    Each of ``beta0`` (finite and positive, or doubling never moves it),
    ``beta_cap`` (at least ``beta0``) and ``mass_target`` must be a number;
    a NaN cap or target would end the ladder before its first rung or
    never.  A refused input raises rather than ending the ladder.
    """
    if not (is_number(beta0) and math.isfinite(beta0) and beta0 > 0):
        raise ConditionError(f"beta0 must be finite and positive, got {beta0!r}")
    if not (is_number(beta_cap) and beta_cap >= beta0):
        raise ConditionError(f"beta_cap must be a number at least beta0={beta0!r}, "
                             f"got {beta_cap!r}")
    if not is_number(mass_target) or math.isnan(mass_target):
        raise ConditionError(f"mass_target must be a number, not NaN; got {mass_target!r}")
    out = []
    beta = beta0
    while beta <= beta_cap:
        try:
            mass = convention_mass(game, n, beta, m, rule)
        except (ConditionError, GuardrailExceeded, UnsupportedRuleError):
            raise
        except LdlError:  # the weights underflow at this beta
            break
        out.append((beta, mass))
        if mass > mass_target:
            break
        beta *= 2.0
    return out


# ---------------------------------------------------------------------------
# Orchestration


@dataclass(frozen=True)
class StabilityAnalysis:
    report: StabilityReport
    radius: np.ndarray
    oracle_costs: Optional[np.ndarray] = None
    oracle_tree: Optional[ArborescenceResult] = None
    measure_trace: Optional[list] = None
    stable: Optional[int] = None


def resolve_stability(
    game,
    rule: CostRule = CostRule.LOGIT,
    oracle_n: Optional[int] = None,
    measure_n: Optional[int] = None,
    guardrail: Optional[int] = None,
) -> StabilityAnalysis:
    """The stochastically stable convention: the maxmin test on the radius
    matrix decides first, else the unique root of the least-cost rooted tree
    over the exact transition costs at ``oracle_n``, when it is given."""
    if measure_n is not None:  # read only once a convention is found
        measure_n = check_population(measure_n, "measure_n")
    radius = radius_matrix(game, rule)
    report = maxmin_test_matrix(radius)
    oracle_costs = oracle_tree = None
    stable = report.stable
    if oracle_n is not None:
        oracle_costs = transition_cost_matrix(game, oracle_n, rule, guardrail)
        oracle_tree = arborescence_root(oracle_costs)
        if stable is None and len(oracle_tree.roots) == 1:
            stable = oracle_tree.roots[0]
    trace = None
    if measure_n is not None and stable is not None:
        trace = beta_ladder_trace(game, measure_n, stable, rule)
    return StabilityAnalysis(report, radius, oracle_costs, oracle_tree, trace, stable)
