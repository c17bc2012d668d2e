"""Minimum-cost escape from a convention.

Three routes to the same number: an exact Dijkstra oracle over the discrete
state space, a reduced search that prices only the k-1 straight runs out of
the convention (the paper's theorem: under the structural conditions the
most likely escape is one run of identical mistakes), and the closed-form
infinite-population limits.  The oracle and the reduced search agree at
every population size; the limits are their asymptotic value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import (
    ONE_POP_SEARCH_CAP,
    TWO_POP_SEARCH_CAP,
    CostRule,
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
    tilde_s,
    validate_one_pop,
    validate_two_pop,
)
from .paths import BlockSpec, Path, cheapest_block_path


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


def _price(game, rule: CostRule, target: int, pop: Optional[str],
           faced: list) -> list:
    """Basin flag and cost rows, as pairs ``(inside, rows)``, of the revisers
    of ``pop`` facing each count vector in ``faced``, in one vectorized pass.

    ``inside`` says that ``target`` is a best reply for them, and
    ``rows[i][j]`` is the cost of a reviser playing ``i`` choosing ``j``;
    only the better-reply rule looks at ``i``.
    """
    counts = np.array(faced, dtype=float)
    prod = faced_products(game, pop, counts)
    inside = (prod[:, target] >= prod.max(axis=1)).tolist()
    pay = prod / counts.sum(axis=1, keepdims=True)
    if rule is CostRule.BETTER_REPLY:
        rows = np.stack([cost_vector(game, rule, pay, i, pop)
                         for i in range(game.k)], axis=1).tolist()
    else:
        rows = [[r] * game.k for r in cost_vector(game, rule, pay, 0, pop).tolist()]
    return list(zip(inside, rows))


def _least_cost_search(game, n: int, start: int, target: int, leaving: bool,
                       rule: CostRule, guardrail: Optional[int]) -> EscapeResult:
    """Least-cost path from convention ``start`` to the first settled state
    outside (``leaving``) or inside the basin of convention ``target``.

    A state is keyed by one int, its counts as digits in radix ``n + 1``
    (alpha's, then beta's), so a move adds a constant from a k-by-k table
    per population.  Moves are relaxed in the canonical order (population,
    source, target) and only strict improvements update a state, so
    witnesses are deterministic.  A settled state with no prices yet has
    every side (a population and the key of the counts it faces) found
    since the last batch decoded and priced in one ``_price`` pass; one
    population's prices are dropped once its state is expanded.
    """
    check_convention(game, target)
    convention_state(game, n, start)  # refuses a bad n or start
    two_pop = isinstance(game, TwoPopGame)
    if guardrail is None:
        guardrail = TWO_POP_SEARCH_CAP if two_pop else ONE_POP_SEARCH_CAP
    radix = int(n) + 1  # a numpy n would wrap keys past 2**63
    powers = [radix ** i for i in range(game.k)]
    place = radix * powers[-1]
    pops = ("alpha", "beta") if two_pop else (None,)
    steps = [[[(pj - pi) * place ** side for pj in powers] for pi in powers]
             for side in range(len(pops))]  # the key change of a move i -> j

    def faced(x):  # the key of the counts each population's revisers face
        return divmod(x, place) if two_pop else (x,)

    def decode(f):  # the counts of one population's key
        return [f // p % radix for p in powers]

    prices = tuple({} for _ in pops)  # faced key -> (counts, (inside, rows))
    x = (radix - 1) * powers[start] * (1 + place if two_pop else 1)  # all play start
    found = [x]  # states discovered since the last batch
    dist = {x: 0.0}
    parent: dict = {x: None}
    heap = [(0.0, 0, x)]
    counter = 1
    settled = set()
    while heap:
        d, _, x = heapq.heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        here = faced(x)
        if any(f not in known for known, f in zip(prices, here)):
            for pop, known, keys in zip(pops, prices, zip(*map(faced, found))):
                batch = [f for f in dict.fromkeys(keys) if f not in known]
                if batch:
                    rows = [decode(f) for f in batch]
                    known.update(zip(batch, zip(rows, _price(game, rule, target,
                                                              pop, rows))))
            found.clear()
        priced = [known[f] if two_pop else known.pop(f)
                  for known, f in zip(prices, here)]
        if all(inside for _, (inside, _) in priced) != leaving:
            states = []
            while x is not None:
                states.append(tuple(tuple(decode(f)) for f in reversed(faced(x))))
                x = parent[x]
            return EscapeResult(
                n=n,
                convention=start,
                rule=rule,
                cost=d,
                normalized=d / n,
                witness=Path(tuple(s if two_pop else s[0] for s in reversed(states))),
                provenance="oracle",
            )
        if len(settled) > guardrail:
            raise GuardrailExceeded(
                f"search expanded more than {guardrail} states; "
                "raise the guardrail to proceed"
            )
        # A population's own counts are the counts the other one faces.
        for (_, (_, costs)), (counts, _), moves in zip(priced, priced[::-1], steps):
            for i, (c, row, shift) in enumerate(zip(counts, costs, moves)):
                if c < 1:
                    continue
                for j, w in enumerate(row):
                    if j == i or w == math.inf:
                        continue
                    y = x + shift[j]
                    nd = d + w
                    if nd < dist.get(y, math.inf):
                        if y not in dist:
                            found.append(y)
                        dist[y] = nd
                        parent[y] = x
                        heapq.heappush(heap, (nd, counter, y))
                        counter += 1
    raise LdlError("no terminal state is reachable")


def _require_strict_convention(game, m: int) -> None:
    if isinstance(game, TwoPopGame):
        ok = all(
            game.alpha[m, m] > game.alpha[j, m]
            and game.beta[m, m] > game.beta[m, j]
            for j in range(game.k)
            if j != m
        )
    else:
        a = game.payoffs
        ok = all(a[m, m] > a[j, m] for j in range(game.k) if j != m)
    if not ok:
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
    return _least_cost_search(game, n, mbar, mbar, leaving=True, rule=rule,
                              guardrail=guardrail)


def exit_reduced(game: OnePopGame, n: int, mbar: int) -> EscapeResult:
    """Minimum escape cost over the straight block paths (logit rule).

    Equals the oracle value: under the structural conditions, which are
    always checked, a least-cost escape consists of repeated identical
    mistakes from the status quo to one other convention, so pricing the
    k-1 straight runs suffices.  A game that fails them is refused, since
    a path with two targets can then be cheaper, and so is an n above
    ``ONE_POP_SEARCH_CAP``, whose witness would not fit in memory.
    """
    check_convention(game, mbar)
    n = check_population(n)
    if n > ONE_POP_SEARCH_CAP:
        raise ConditionError(f"population size n={n} exceeds the reduced "
                             f"search's cap of {ONE_POP_SEARCH_CAP}")
    _require_condition(game, mbar)
    best = cheapest_block_path(game, n, mbar)
    if best is None:
        raise LdlError("no block escape path exists")
    cost, spec, states = best
    return EscapeResult(
        n=n,
        convention=mbar,
        rule=CostRule.LOGIT,
        cost=cost,
        normalized=cost / n,
        witness=Path(states),
        block=spec,
        provenance="reduced",
    )


# ---------------------------------------------------------------------------
# Infinite-population limits


def pairwise_escape_term(game: OnePopGame, m: int, j: int,
                         rule: CostRule = CostRule.LOGIT) -> float:
    """Limit escape cost per unit population along the straight m -> j route.

    Logit: half the squared payoff drop over the total payoff swing; uniform:
    just the threshold fraction of deviators flipping the best response.
    """
    a = game.payoffs
    drop = a[m, m] - a[j, m]
    swing = drop + (a[j, j] - a[m, j])
    if swing <= 0:
        raise ConditionError(
            f"strategies {m}, {j} admit no interior pairwise equilibrium"
        )
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
    terms = {
        j: pairwise_escape_term(game, mbar, j, rule)
        for j in range(game.k)
        if j != mbar
    }
    lo = min(terms.values())
    argmins = tuple(sorted(j for j, v in terms.items() if v <= lo + NEAR_TIE))
    return EscapeResult(
        n=None,
        convention=mbar,
        rule=rule,
        cost=lo,
        normalized=lo,
        argmin_targets=argmins,
        provenance="closed-form",
    )


def two_pop_thresholds(game: TwoPopGame, m: int, j: int) -> tuple[float, float]:
    """Threshold fractions (zeta_alpha, zeta_beta) flipping the best responses.

    zeta_alpha is the fraction of beta-deviators to ``j`` that makes ``j`` a
    best reply for alpha agents; zeta_beta is the mirror image.
    """
    a, b = game.alpha, game.beta
    da = a[m, m] - a[j, m]
    sa = da + (a[j, j] - a[m, j])
    db = b[m, m] - b[m, j]
    sb = db + (b[j, j] - b[j, m])
    if sa <= 0 or sb <= 0:
        raise ConditionError(
            f"strategies {m}, {j} admit no interior pairwise equilibrium"
        )
    return da / sa, db / sb


def escape_term_two_pop(
    game: TwoPopGame, m: int, j: int, rule: CostRule
) -> tuple[float, str]:
    """Limit cost of tipping convention m to j, and the deviating population."""
    a, b = game.alpha, game.beta
    zeta_a, zeta_b = two_pop_thresholds(game, m, j)
    beta_driven = (b[m, m] - b[m, j]) * zeta_a
    alpha_driven = (a[m, m] - a[j, m]) * zeta_b
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
    if rule is CostRule.INTENTIONAL and not validate_two_pop(
        game, m
    ).conflict_of_interest:
        raise ConditionError(
            "the intentional limit requires conflicting population interests"
        )
    terms = {}
    for j in range(game.k):
        if j == m:
            continue
        terms[j] = escape_term_two_pop(game, m, j, rule)
    lo = min(v for v, _ in terms.values())
    argmins = tuple(sorted(j for j, (v, _) in terms.items() if v <= lo + NEAR_TIE))
    driving = terms[argmins[0]][1]
    return EscapeResult(
        n=None,
        convention=m,
        rule=rule,
        cost=lo,
        normalized=lo,
        argmin_targets=argmins,
        driving_population=driving,
        provenance="closed-form",
    )
