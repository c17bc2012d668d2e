"""Minimum-cost escape from a convention.

Three routes to the same number: an exact Dijkstra oracle over the discrete
state space, a reduced search that prices only the k-1 straight runs out of
the convention (the paper's theorem: under the structural conditions the
most likely escape is one run of identical mistakes), and the closed-form
infinite-population limits.  The oracle and the reduced search agree at
every population size; the limits are their asymptotic value.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import (
    ONE_POP_SEARCH_CAP,
    TWO_POP_SEARCH_CAP,
    CostRule,
    Path,
    check_guardrail,
    check_population,
    convention_state,
    cost_vector,
    faced_products,
)
from .errors import (
    ConditionError,
    GuardrailExceeded,
    LdlError,
    UnsupportedRuleError,
)
from .games import (
    NEAR_TIE,
    OnePopGame,
    TwoPopGame,
    check_convention,
    conflict_of_interest,
    strict_conventions,
    tilde_s,
    validate_one_pop,
    validate_two_pop,
)
from .paths import BlockSpec, _cheapest_spec, _path_bounds, enumerate_block_paths


@dataclass(frozen=True)
class EscapeResult:
    """Outcome of an escape (or transition) cost computation.

    ``n`` is None for infinite-population limits, in which case ``cost``
    and ``normalized`` coincide.  ``argmin_targets`` lists every strategy
    attaining the limit minimum; ``driving_population`` is set for
    two-population limits.
    """

    n: Optional[int]
    convention: int
    rule: CostRule
    cost: float
    normalized: float
    witness: Optional[Path] = None
    block: Optional[BlockSpec] = None
    argmin_targets: Optional[tuple[int, ...]] = None
    driving_population: Optional[str] = None
    provenance: str = "oracle"


# ---------------------------------------------------------------------------
# The least-cost search behind the oracle and the exact transition costs


def _price(game, rule: CostRule, targets, pop: Optional[str], counts) -> tuple:
    """Basin masks (bit p: ``targets[p]`` is a best reply) and move weights,
    as plain lists, of ``pop``'s revisers facing each row of the array
    ``counts``, in one vectorized pass.  The weights are those of the moves
    i -> j != i in canonical order: for one population (the faced counts are
    its own) a flat row, ``inf`` where no agent plays i; for two a row of
    k - 1 per source i."""
    k = game.k
    counts = np.asarray(counts, dtype=float)
    prod = faced_products(game, pop, counts)
    best = prod[:, list(targets)] >= prod.max(axis=1, keepdims=True)
    masks = (best @ _bits(len(targets))).tolist()
    pay = prod / counts.sum(axis=1, keepdims=True)
    better = rule is CostRule.BETTER_REPLY
    costs = (np.stack([cost_vector(game, rule, pay, i, pop) for i in range(k)], axis=1)
             if better else cost_vector(game, rule, pay, 0, pop)[:, None])
    src, dst = np.nonzero(~np.eye(k, dtype=bool))  # the moves i -> j != i, in order
    moves = costs[:, src if better else 0, dst]
    if pop is not None:
        return masks, moves.reshape(-1, k, k - 1).tolist()
    return masks, np.where(counts[:, src] > 0, moves, np.inf).tolist()


@functools.cache
def _bits(count: int) -> np.ndarray:
    """Bit p of a basin mask for each p < ``count``, as Python ints."""
    return np.array([1 << p for p in range(count)], dtype=object)


def _digits(keys: list, radix: int, k: int) -> np.ndarray:
    """The k digits in radix ``radix`` of each int key, least significant
    first, as an object array of Python ints: exact past 2**63."""
    powers = np.array([radix ** i for i in range(k)], dtype=object)
    return np.array(keys, dtype=object)[:, None] // powers % radix


def _least_cost_search(game, n: int, start: int, targets, leaving: bool,
                       rule: CostRule, guardrail: Optional[int]) -> list:
    """Least-cost paths from convention ``start`` to the first settled state
    outside (``leaving``) or inside the basin of each of ``targets``: one
    ``EscapeResult`` per target, each what a search for it alone returns,
    since the settle order does not depend on the targets.

    A state is keyed by one int, its counts as digits in radix ``n + 1``
    (alpha's, then beta's), so a move adds a constant.  Moves are relaxed
    in the canonical order (population, source, target) and only strict
    improvements push, so witnesses are deterministic and each state is
    expanded once: a popped entry above its state's distance is stale.  A
    state expanded before its prices has every side (a population and the
    key of the counts it faces) found since the last batch decoded and
    priced in one pass; one population's prices are dropped once used.  A
    price row holds only the moves i -> j != i, so no self-move is probed.

    A move is dropped before its probe when ``d + w`` exceeds U, the largest
    of ``_path_bounds``'s target costs with ``NEAR_TIE`` relative slack for
    their summation order; U is ``inf`` when some target has no bounding
    path.  The answers cannot change:

    - every state expanded before the search returns has ``d <= D* <= U``,
      D* the largest target cost returned, since each bound is the cost of
      a real path and the search finds none dearer than it;
    - a dropped move would only have stored a tentative distance above U,
      and any later relaxation of that state to U or less still strictly
      improves, as before;
    - so the expanded states, their ``(d, counter)`` order, distances,
      parents, witnesses and the guardrail count are unchanged.  Only the
      pushes and the states sent to ``_price`` shrink.

    The bound is computed after every refusal of bad input, so those keep
    their type and message.
    """
    for target in targets:
        check_convention(game, target)
    convention_state(game, n, start)  # refuses a bad n or start
    two_pop = isinstance(game, TwoPopGame)
    guardrail = check_guardrail(
        guardrail, TWO_POP_SEARCH_CAP if two_pop else ONE_POP_SEARCH_CAP)
    k = game.k
    radix = int(n) + 1  # a numpy n would wrap keys past 2**63
    powers = [radix ** i for i in range(k)]
    place = radix * powers[-1]
    pops = game.populations
    steps = [[[(pj - pi) * place ** side for pj in powers if pj != pi] for pi in powers]
             for side in range(len(pops))]  # the key change of each move i -> j != i
    shifts = [s for row in steps[0] for s in row]
    bounds = _path_bounds(game, radix - 1, start, targets, leaving, rule)
    cap = max(bounds) * (1 + NEAR_TIE)
    remaining = (1 << len(targets)) - 1  # bit p: targets[p] not yet reached
    flip = remaining if leaving else 0
    results = [None] * len(targets)

    def faced(x):  # the key of the counts each population's revisers face
        return divmod(x, place) if two_pop else (x,)

    def price():  # every side found since the last batch
        columns = zip(*map(faced, found)) if two_pop else (found,)
        for pop, known, keys in zip(pops, prices, columns):
            batch = [f for f in dict.fromkeys(keys) if f not in known]
            if batch:
                counts = _digits(batch, radix, k)
                entries = zip(*_price(game, rule, targets, pop, counts))
                if two_pop:  # with the sources of the population faced
                    entries = ((*e, [i for i, c in enumerate(r) if c])
                               for e, r in zip(entries, counts.tolist()))
                known.update(zip(batch, entries))
        found.clear()

    prices = tuple({} for _ in pops)  # faced key -> (mask, weights[, sources])
    x = (radix - 1) * powers[start] * (1 + place if two_pop else 1)  # all play start
    found = [x]  # states discovered since the last batch
    dist = {x: 0.0}
    parent: dict = {x: None}
    heap = [(0.0, 0, x)]
    counter = 1
    expanded = 0
    inf = math.inf
    while heap:
        d, _, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        expanded += 1
        if two_pop:
            fa, fb = divmod(x, place)
            alpha, beta = prices[0].get(fa), prices[1].get(fb)
            if alpha is None or beta is None:
                price()
                alpha, beta = prices[0][fa], prices[1][fb]
            (mask_a, rows_a, src_b), (mask_b, rows_b, src_a) = alpha, beta
            mask = mask_a & mask_b
            # A population's own counts are the counts the other one faces.
            runs = [(steps[0][i], rows_a[i]) for i in src_a]
            runs += [(steps[1][i], rows_b[i]) for i in src_b]
        else:
            if (entry := prices[0].pop(x, None)) is None:
                price()
                entry = prices[0].pop(x)
            mask, weights = entry
            runs = ((shifts, weights),)
        hit = (mask ^ flip) & remaining
        if hit:
            keys, y = [], x
            while y is not None:
                keys += faced(y)
                y = parent[y]
            keys.reverse()  # from the start, alpha's key before beta's
            sides = list(map(tuple, _digits(keys, radix, k).tolist()))
            res = EscapeResult(n=n, convention=start, rule=rule, cost=d,
                               normalized=d / n, witness=Path(tuple(
                                   zip(sides[::2], sides[1::2]) if two_pop else sides)))
            results = [res if hit >> p & 1 else r for p, r in enumerate(results)]
            remaining ^= hit
            if not remaining:
                return results
        if expanded > guardrail:
            raise GuardrailExceeded(
                f"search expanded more than {guardrail} states; "
                "raise the guardrail to proceed"
            )
        for moves, weights in runs:
            for s, w in zip(moves, weights):
                nd = d + w
                if nd > cap:
                    continue
                y = x + s
                old = dist.get(y, inf)
                if nd < old:
                    if old == inf:  # distances are finite, so y is new
                        found.append(y)
                    dist[y] = nd
                    parent[y] = x
                    heapq.heappush(heap, (nd, counter, y))
                    counter += 1
    raise LdlError("no terminal state is reachable")


def _require_strict_convention(game, m: int) -> None:
    if not strict_conventions(game)[m]:
        raise ConditionError(f"strategy {m} is not a strict Nash convention")


def _require_condition(game, m: int) -> None:
    report = (
        validate_two_pop(game, m)
        if isinstance(game, TwoPopGame)
        else validate_one_pop(game)
    )
    if not report.condition_holds:
        raise ConditionError(
            "game fails structural validation: " + "; ".join(report.failures())
        )


# ---------------------------------------------------------------------------
# Oracle and reduced solvers


def exit_bruteforce(
    game,
    n: int,
    mbar: int,
    rule: CostRule = CostRule.LOGIT,
    guardrail: Optional[int] = None,
    validate: bool = True,
) -> EscapeResult:
    """Exact minimum escape cost by least-cost search over the basin.

    Edges are single-agent moves, the terminal set is every state strictly
    outside the basin, and ties between equal-cost paths resolve to the
    first witness found under the canonical move order.
    """
    check_convention(game, mbar)
    _require_strict_convention(game, mbar)
    if validate:
        _require_condition(game, mbar)
    return _least_cost_search(game, n, mbar, (mbar,), leaving=True, rule=rule,
                              guardrail=guardrail)[0]


def exit_reduced(game: OnePopGame, n: int, mbar: int) -> EscapeResult:
    """Minimum escape cost over the straight block paths (logit rule).

    Equals the oracle value: under the structural conditions, which are
    always checked, a least-cost escape consists of repeated identical
    mistakes from the status quo to one other convention, so pricing the
    k-1 straight runs suffices.  ``paths._cheapest_spec`` prices each spec
    of ``enumerate_block_paths`` by the running total of its run's weights,
    the bits ``path_cost`` gives its witness; the first least cost in target
    order wins, and its witness is walked once.
    A game that fails the conditions is refused, since a path with two
    targets can then be cheaper, and so is an n above
    ``ONE_POP_SEARCH_CAP``, whose witness would not fit in memory.
    """
    if isinstance(game, TwoPopGame):
        raise ConditionError("the reduced search covers one-population games only")
    check_convention(game, mbar)
    n = check_population(n)
    if n > ONE_POP_SEARCH_CAP:
        raise ConditionError(f"population size n={n} exceeds the reduced "
                             f"search's cap of {ONE_POP_SEARCH_CAP}")
    _require_condition(game, mbar)
    # Read through this module's name for it, as the generator it is, so a
    # wrapper around it (bench/spans.py's) times each step and counts specs.
    specs = list(enumerate_block_paths(game, n, mbar))
    if not specs:
        raise LdlError("no block escape path exists")
    cost, spec = _cheapest_spec(game, n, mbar, specs)
    return EscapeResult(
        n=n,
        convention=mbar,
        rule=CostRule.LOGIT,
        cost=cost,
        normalized=cost / n,
        witness=spec.realize(game.k, n, mbar),
        block=spec,
        provenance="reduced",
    )


# ---------------------------------------------------------------------------
# Infinite-population limits


def _drop_swing(game, pop: Optional[str], m: int, j: int) -> tuple[float, float]:
    """Payoff drop of a ``pop`` agent leaving convention m for j, and the total
    swing (the drop plus j's edge at convention j), on ``pop``'s oriented
    matrix; refuses a pair whose swing is not positive."""
    mat = game.oriented(pop)
    drop = mat[m, m] - mat[j, m]
    swing = drop + (mat[j, j] - mat[m, j])
    if swing <= 0:
        raise ConditionError(
            f"strategies {m}, {j} admit no interior pairwise equilibrium"
        )
    return drop, swing


def pairwise_escape_term(game: OnePopGame, m: int, j: int,
                         rule: CostRule = CostRule.LOGIT) -> float:
    """Limit escape cost per unit population along the straight m -> j route.

    Logit: half the squared payoff drop over the total payoff swing; uniform:
    just the threshold fraction of deviators flipping the best response.
    """
    drop, swing = _drop_swing(game, None, m, j)
    if rule is CostRule.LOGIT:
        return 0.5 * drop * drop / swing
    if rule is CostRule.UNIFORM:
        return drop / swing
    raise UnsupportedRuleError(f"no closed-form limit for rule {rule}")


def exit_limit_one_pop(
    game: OnePopGame, mbar: int, rule: CostRule = CostRule.LOGIT
) -> EscapeResult:
    """Closed-form limit of the normalized escape cost, with all argmins."""
    check_convention(game, mbar)
    if rule not in (CostRule.LOGIT, CostRule.UNIFORM):
        raise UnsupportedRuleError(
            "no limit formula is available for this rule; use the oracle"
        )
    return _closed_form(mbar, rule, {
        j: (pairwise_escape_term(game, mbar, j, rule), None)
        for j in range(game.k) if j != mbar})


def _closed_form(m: int, rule: CostRule, terms: dict) -> EscapeResult:
    """The least of the limit terms ``{j: (cost, driving population)}`` out of
    convention m, with every target within ``NEAR_TIE`` of it."""
    lo = min(v for v, _ in terms.values())
    argmins = tuple(sorted(j for j, (v, _) in terms.items() if v <= lo + NEAR_TIE))
    return EscapeResult(
        n=None,
        convention=m,
        rule=rule,
        cost=lo,
        normalized=lo,
        argmin_targets=argmins,
        driving_population=terms[argmins[0]][1],
        provenance="closed-form",
    )


def two_pop_thresholds(game: TwoPopGame, m: int, j: int) -> tuple[float, float]:
    """Threshold fractions (zeta_alpha, zeta_beta) flipping the best responses.

    zeta_alpha is the fraction of beta-deviators to ``j`` that makes ``j`` a
    best reply for alpha agents; zeta_beta is the mirror image.
    """
    (da, sa), (db, sb) = (_drop_swing(game, pop, m, j) for pop in game.populations)
    return da / sa, db / sb


def escape_term_two_pop(
    game: TwoPopGame, m: int, j: int, rule: CostRule
) -> tuple[float, str]:
    """Limit cost of tipping convention m to j, and the deviating population."""
    (da, sa), (db, sb) = (_drop_swing(game, pop, m, j) for pop in game.populations)
    beta_driven = db * (da / sa)
    alpha_driven = da * (db / sb)
    if rule is CostRule.LOGIT:
        if abs(beta_driven - alpha_driven) <= 1e-12:
            return beta_driven, "tie"
        if beta_driven < alpha_driven:
            return beta_driven, "beta"
        return alpha_driven, "alpha"
    if rule is CostRule.INTENTIONAL:
        in_alpha = j in tilde_s(game, m, "alpha")
        in_beta = j in tilde_s(game, m, "beta")
        if in_alpha and not in_beta:
            return alpha_driven, "alpha"
        if in_beta and not in_alpha:
            return beta_driven, "beta"
        raise ConditionError(
            f"strategy {j} is not exclusive to one population's preferred set"
        )
    raise UnsupportedRuleError(f"no two-population limit for rule {rule}")


def exit_limit_two_pop(
    game: TwoPopGame, m: int, rule: CostRule = CostRule.LOGIT
) -> EscapeResult:
    """Closed-form limit of the two-population escape cost from convention m."""
    check_convention(game, m)
    if rule is CostRule.INTENTIONAL and not conflict_of_interest(game, m):
        raise ConditionError(
            "the intentional limit requires conflicting population interests"
        )
    return _closed_form(m, rule, {j: escape_term_two_pop(game, m, j, rule)
                                  for j in range(game.k) if j != m})
