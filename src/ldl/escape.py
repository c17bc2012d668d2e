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
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .chain import (
    ONE_POP_SEARCH_CAP,
    TWO_POP_SEARCH_CAP,
    CostRule,
    Move,
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
from .paths import BlockSpec, _path_bounds, _run_exit, enumerate_block_paths


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


def _price(game, rule: CostRule, targets, pop: Optional[str], counts,
           *bound: float) -> tuple:
    """Basin masks (bit p: ``targets[p]`` is a best reply; a bool for one
    target) and move weights, as plain lists, of ``pop``'s revisers facing
    each row of the integer array ``counts``, all rows summing to one n, in
    one vectorized pass; given ``bound``, ``_exit_bound``'s pair for a logit
    or intentional escape from m = ``targets[0]``, also each row's terms of
    the lower bound h on the cost still to pay to leave m's basin: h itself
    for one population, and for two the terms (G, T - 1, c) of the lead G
    of ``pop``'s revisers that ``_two_pop_h`` combines with the other
    population's.  The weights are those of the moves i -> j != i in
    canonical order: for one population (the faced counts are its own) a
    flat row, ``inf`` where no agent plays i; for two a row of k - 1 per
    source i.  They have ``cost_vector``'s bits on the payoffs ``prod / n``:
    the stacked matmul promotes integer counts exactly, and the logit row
    max is ``prod``'s over n, as division by n > 0 is monotone.  A 44-row
    batch of TECH at n = 480 takes about 24 us, and its decode 5 us.

    The lead G is the least logit weight ``gap_j`` of a move into j != m:
    inside the basin every costly move (one not into m) of ``pop`` costs at
    least G, bit for bit, and outside it G is 0.  An intentional weight is
    the logit one or ``inf``, so the same holds.  G is taken less tau: the
    weights the search adds round, by a few ulps of the largest payoff per
    move, which tau covers.  For one population no move closes the lead by
    more than D, and a free move (into m) does not close it, so leaving
    takes at least T = floor(G / D) + 1 costly moves, the t-th costing at
    least G - t D.  h is their sum, T G - D T (T - 1) / 2, less a
    ``NEAR_TIE`` share: the bound is exact along a straight run whose every
    move closes the lead by D.  A T off by one through rounding only adds a
    negative term or drops a nonnegative one, so h stays a lower bound.
    For two populations only the other population's moves close G, each by
    at most D, ``_exit_bound``'s entry for ``pop``; the terms are
    T - 1 = floor(G / D) and c = G - D' T - max(D - D', 0) (T - 1), D' the
    entry for the other population."""
    k = game.k
    if counts.dtype == object:  # the digits of wide keys, each at most n
        counts = counts.astype(np.int64)
    prod = faced_products(game, pop, counts)
    top = prod.max(axis=1, keepdims=True)
    if len(targets) == 1:
        masks = (prod[:, targets[0]] >= top[:, 0]).tolist()
    else:
        masks = ((prod[:, list(targets)] >= top) @ _bits(len(targets))).tolist()
    n = sum(counts[0].tolist())
    pay = prod / n
    src, dst = _moves(k)
    if rule is CostRule.LOGIT:
        gap = top / n - pay
        moves = gap.take(dst, axis=1)
    elif rule is CostRule.BETTER_REPLY:
        moves = np.stack([cost_vector(game, rule, pay, i, pop) for i in range(k)],
                         axis=1)[:, src, dst]
    else:
        moves = cost_vector(game, rule, pay, 0, pop).take(dst, axis=1)
    if pop is not None:
        moves = moves.reshape(-1, k, k - 1)
    else:
        moves[counts[:, src] == 0] = np.inf  # no agent plays the source
    if not bound:
        return masks, moves.tolist()
    drops, tau = bound
    if rule is not CostRule.LOGIT:  # INTENTIONAL: its finite weights
        gap = top / n - pay
    gap[:, targets[0]] = np.inf  # the lead: the least gap of a move not into m
    lead = np.maximum(gap.min(axis=1) - tau, 0.0)
    if pop is not None:  # the terms of ``_two_pop_h`` this lead fixes
        own, other = drops if pop == "alpha" else drops[::-1]
        runs = lead // own  # T - 1
        slope = lead - other * (runs + 1) - max(own - other, 0.0) * runs
        return masks, moves.tolist(), list(zip(lead.tolist(), runs.tolist(),
                                               slope.tolist()))
    drop, = drops
    runs = lead // drop  # T - 1
    h = (runs + 1) * (lead - drop / 2 * runs) * (1 - NEAR_TIE)
    return masks, moves.tolist(), h.tolist()


def _exit_bound(game, n: int, m: int) -> tuple:
    """``_price``'s ``bound`` for a logit or intentional escape from m: the
    pair (D per population, tau).  A population's D is the most one costly
    move (one not into m) can close its lead min_{l != m} (pi_m - pi_l): a
    move of its own for one population, of the other for two.  tau is
    ``NEAR_TIE`` times the largest payoff.  () where a free move into m can
    close a lead (the paper's positive feedback rules that out) or no move
    can.  On a population's oriented matrix A, a move i -> j of the counts
    it faces closes its lead over l by (gap[l, i] - gap[l, j]) / n,
    gap = A[m] - A."""
    drops = []
    for pop in game.populations:
        a = game.oriented(pop)
        gap = np.delete(a[m] - a, m, axis=0)
        fall = gap[:, :, None] - gap[:, None, :]  # fall[l, i, j]: move i -> j
        drop = np.delete(fall, m, axis=2).max()
        if (fall[:, :, m] > 0).any() or not drop > 0:
            return ()
        drops.append(float(drop) / n)
    top = max(float(np.abs(game.oriented(pop)).max()) for pop in game.populations)
    return tuple(drops), NEAR_TIE * top


def _two_pop_h(alpha: tuple, beta: tuple) -> float:
    """The lower bound h on the cost still to pay to leave m's basin from a
    two-population state inside it, from each population's lead terms
    (G, T - 1, c) that ``_price`` gives.

    G_a is alpha's lead (less tau), D_a the most a costly beta move closes
    it, and G_b and D_b the same with the roles swapped.  A costly alpha
    move costs at least G_a and closes G_b by at most D_b; alpha's own
    moves leave G_a as it is, and free moves close neither lead.  Leaving
    through alpha's lead takes T_a = floor(G_a / D_a) + 1 costly beta
    moves, and before the last of them at most T_b - 1 costly alpha moves,
    say s, with A the beta moves before each summed over them,
    0 <= A <= s (T_a - 1).  Each move at its least cost, that exit costs
    s G_a + T_a G_b - D_b s T_a - (D_a - D_b) A.  This is linear in A and
    in s, so its least value is at a corner: T_a G_b + min(0, (T_b - 1) c_a),
    with c_a = G_a - D_b T_a - max(D_a - D_b, 0) (T_a - 1).  h is the
    lesser of the two exits, less a ``NEAR_TIE`` share: the exact optimum
    of a relaxed model, monotone in both leads, in which each costly move
    costs its population's lead less D per move of the other population
    made before it."""
    lead_a, runs_a, slope_a = alpha
    lead_b, runs_b, slope_b = beta
    via_a = (runs_a + 1) * lead_b + (runs_b * slope_a if slope_a < 0 else 0.0)
    via_b = (runs_b + 1) * lead_a + (runs_a * slope_b if slope_b < 0 else 0.0)
    return (via_a if via_a < via_b else via_b) * (1 - NEAR_TIE)


@functools.cache
def _moves(k: int) -> tuple:
    """The sources and targets of the moves i -> j != i, in canonical order."""
    return np.nonzero(~np.eye(k, dtype=bool))


@functools.cache
def _bits(count: int) -> np.ndarray:
    """Bit p of a basin mask (or of a set of sources) for each p < ``count``:
    int64 below 63 bits, Python ints past them."""
    return np.array([1 << p for p in range(count)],
                    dtype=np.int64 if count < 63 else object)


@functools.lru_cache(maxsize=4096)
def _sources(pattern: int) -> tuple:
    """The strategies whose bits are set in ``pattern``, in order."""
    return tuple(i for i in range(pattern.bit_length()) if pattern >> i & 1)


@functools.lru_cache(maxsize=64)
def _powers(radix: int, k: int) -> np.ndarray:
    """The place values of k digits in radix ``radix``: int64 when every
    k-digit key is below 2**63, else Python ints, exact at any width."""
    return np.array([radix ** i for i in range(k)],
                    dtype=np.int64 if radix ** k <= 2 ** 63 else object)


def _digits(keys: list, radix: int, k: int) -> np.ndarray:
    """The k digits in radix ``radix`` of each int key, least significant
    first, in the dtype of ``_powers``."""
    powers = _powers(radix, k)
    return np.array(keys, dtype=powers.dtype)[:, None] // powers % radix


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
    A witness's keys are decoded in one pass, and each step's move is read
    off its key change, which no two moves share (beta's are multiples of
    (n + 1)^k), so no ``move_between`` runs.

    An escape (``leaving``, whose one target is ``start``) has a cap U,
    ``_path_bounds``'s cost of a real escape path with ``NEAR_TIE``
    relative slack for its summation order (``inf`` when no bounding path
    leaves the basin).  It uses U twice:

    - a move is dropped before its probe when ``d + w`` exceeds U;
    - a popped state x is not expanded when ``d + h(x)`` exceeds U, h the
      lower bound on the cost still to pay to leave the basin, for a logit
      or intentional escape whose free moves (into ``start``) never close a
      payoff lead: ``_price``'s h for one population, and for two, at a
      state inside the basin, ``_two_pop_h`` of both populations' lead
      terms, each priced once per faced row; h = 0 for every other search.

    The answers cannot change:

    - every state expanded before the search returns has ``d <= D* <= U``,
      D* the escape cost returned, since U is the cost of a real path and
      the search finds none dearer than it;
    - a dropped move would only have stored a tentative distance above U,
      and any later relaxation of that state to U or less still strictly
      improves, as before;
    - h is admissible (the rest of any escape through x costs at least
      h(x)), so a pruned x lies on no escape path of cost U or less, and no
      witness state is pruned: each has ``d + h <= D*``, up to rounding
      that U's slack absorbs;
    - h is consistent (h(x) <= w + h(y) on each move x -> y), so a state
      whose parent is pruned is pruned too.  For one population a costly
      move costs at least the lead G and closes it by at most D, so
      h(x) - h(y) <= G(x), and a free move does not close it.  For two,
      h is the exact optimum of a relaxed model in which a costly move
      costs its population's lead and closes the other's by at most its D;
      a real move costs at least its relaxed cost and leaves both leads at
      least where the relaxed move leaves them, and that optimum is
      monotone in both leads;
    - so the states expanded are an in-order subsequence of those the
      search without h expands, with the same distances, parents and
      ``(d, counter)`` order, and the cost and witness are unchanged.  Only
      the guardrail count (the states expanded), the pushes and the states
      sent to ``_price`` shrink.

    h may equal the exact cost to the exit, so it carries a margin below
    for rounding (``_price``'s tau and ``NEAR_TIE`` share), as U carries
    one above.  A pruned state costs a price lookup (a price row for one
    population) but no relaxation.  It is pruned before the target test,
    which never skips a target: no popped ``d`` exceeds U, since no push
    does, and h is 0 outside the basin.  At TECH n = 480 the escape expands
    227 states and prices 437, against 10,797 of each with h = 0.  The six
    demand-game escapes of the bargaining benchmark (NDG L = 6 and 8,
    n = 40) expand 3,312 states, against 16,511 with h = 0.

    A transition search (not ``leaving``) takes no bound: it expands nearly
    every state below its dearest target, so U drops few moves, and a state
    whose first move in is dropped is found only just before it is
    expanded, which splits the pricing into more and smaller batches.

    Where U is ``inf``, or there is no bound, the cap is the largest finite
    float instead, so a move of weight ``inf`` (out of a strategy no agent
    plays, or one the rule forbids) is still dropped before its probe; it
    could never improve a distance.

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
    src, dst = (a.tolist() for a in _moves(k))
    move_of = {s: Move(i, j, pop) for table, pop in zip(steps, pops)
               for s, i, j in zip(sum(table, []), src, dst)}  # witness steps' moves
    cap, bound = math.inf, ()  # a transition search takes no bound
    if leaving:
        cap = _path_bounds(game, radix - 1, start, rule) * (1 + NEAR_TIE)
        if rule in (CostRule.LOGIT, CostRule.INTENTIONAL):
            bound = _exit_bound(game, radix - 1, start)
    cap = min(cap, sys.float_info.max)
    remaining = (1 << len(targets)) - 1  # bit p: targets[p] not yet reached
    flip = remaining if leaving else 0
    results = [None] * len(targets)

    def price():  # every side found since the last batch
        if two_pop:  # a side recurs across states and batches; divmod splits
            # a key into the counts alpha's, then beta's, revisers face
            batches = ([f for f in dict.fromkeys(keys) if f not in known] for known, keys
                       in zip(prices, zip(*map(divmod, found, repeat(place)))))
        else:  # each state is found once, and priced only after it is found
            batches = (found,)
        for pop, known, batch in zip(pops, prices, batches):
            if batch:
                counts = _digits(batch, radix, k)
                priced = _price(game, rule, targets, pop, counts, *bound)
                if not bound:  # h = 0, or no lead terms: nothing is pruned
                    priced += (repeat(0.0),)
                if two_pop:  # with the sources of the population faced
                    priced += (map(_sources, ((counts > 0) @ _bits(k)).tolist()),)
                known.update(zip(batch, zip(*priced)))
        found.clear()

    # faced key -> (mask, weights, h or lead terms[, sources])
    prices = tuple({} for _ in pops)
    # Each population's key changes, weight rows and sources at the
    # two-population state being expanded, filled in place.  Its own counts
    # are the ones the other faces, so its sources come with the other's
    # price entry.
    sides = [[table, None, None] for table in steps]
    x = (radix - 1) * powers[start] * (1 + place if two_pop else 1)  # all play start
    found = [x]  # states discovered since the last batch
    dist = {x: 0.0}
    parent: dict = {x: None}
    heap = [(0.0, 0, x)]
    heappop, heappush, get = heapq.heappop, heapq.heappush, dist.get
    counter = 1
    expanded = 0
    inf = math.inf
    while heap:
        d, _, x = heappop(heap)
        if d > dist[x]:
            continue
        if two_pop:
            fa, fb = divmod(x, place)
            alpha, beta = prices[0].get(fa), prices[1].get(fb)
            if alpha is None or beta is None:
                price()
                alpha, beta = prices[0][fa], prices[1][fb]
            mask_a, sides[0][1], terms_a, sides[1][2] = alpha
            mask_b, sides[1][1], terms_b, sides[0][2] = beta
            mask = mask_a & mask_b
            if mask and bound and d + _two_pop_h(terms_a, terms_b) > cap:
                continue  # inside the basin; h is 0 outside it
        else:
            if (entry := prices[0].pop(x, None)) is None:
                price()
                entry = prices[0].pop(x)
            mask, weights, h = entry
            if d + h > cap:  # no escape through x costs U or less
                continue
        expanded += 1
        hit = (mask ^ flip) & remaining
        if hit:
            keys, y = [], x
            while y is not None:
                keys.append(y)
                y = parent[y]
            keys.reverse()  # from the start
            digits = _digits(keys, radix, k * len(pops)).tolist()  # alpha's, then beta's
            states = (tuple((tuple(r[:k]), tuple(r[k:])) for r in digits) if two_pop
                      else tuple(map(tuple, digits)))
            witness = Path._trusted(states, tuple(
                map(move_of.__getitem__, map(int.__sub__, keys[1:], keys))))
            res = EscapeResult(n=n, convention=start, rule=rule, cost=d,
                               normalized=d / n, witness=witness)
            results = [res if hit >> p & 1 else r for p, r in enumerate(results)]
            remaining ^= hit
            if not remaining:
                return results
        if expanded > guardrail:
            raise GuardrailExceeded(
                f"search expanded more than {guardrail} states; "
                "raise the guardrail to proceed"
            )
        # A relax body per shape: one population's loop runs flat over its
        # row, without the population and source levels two populations need.
        if two_pop:
            for table, rows, sources in sides:
                for i in sources:
                    for s, w in zip(table[i], rows[i]):
                        nd = d + w
                        if nd > cap:
                            continue
                        y = x + s
                        old = get(y, inf)
                        if nd < old:
                            if old == inf:  # distances are finite, so y is new
                                found.append(y)
                            dist[y] = nd
                            parent[y] = x
                            heappush(heap, (nd, counter, y))
                            counter += 1
        else:
            for s, w in zip(shifts, weights):
                nd = d + w
                if nd > cap:
                    continue
                y = x + s
                old = get(y, inf)
                if nd < old:
                    if old == inf:  # distances are finite, so y is new
                        found.append(y)
                    dist[y] = nd
                    parent[y] = x
                    heappush(heap, (nd, counter, y))
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
    k-1 straight runs suffices.  ``paths._run_exit`` prices each spec of
    ``enumerate_block_paths`` by the running total of its run's weights,
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
    costs = [_run_exit(game, n, mbar, *spec.targets, CostRule.LOGIT)[1] for spec in specs]
    cost = min(costs)
    spec = specs[costs.index(cost)]  # the first least cost, in target order
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
    matrix; refuses a bad index, m == j and a pair whose swing is not
    positive."""
    check_convention(game, m)
    check_convention(game, j)
    if m == j:
        raise ConditionError(f"convention {m + 1} cannot escape to itself")
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
    if isinstance(game, TwoPopGame):
        raise ConditionError("pairwise_escape_term covers one-population games only")
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
    if isinstance(game, TwoPopGame):
        raise ConditionError("exit_limit_one_pop covers one-population games only")
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
    if not isinstance(game, TwoPopGame):
        raise ConditionError("exit_limit_two_pop covers two-population games only")
    check_convention(game, m)
    if rule is CostRule.INTENTIONAL and not conflict_of_interest(game, m):
        raise ConditionError(
            "the intentional limit requires conflicting population interests"
        )
    return _closed_form(m, rule, {j: escape_term_two_pop(game, m, j, rule)
                                  for j in range(game.k) if j != m})
