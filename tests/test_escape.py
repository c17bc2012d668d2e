"""exit-solver: oracle, reduced search, and closed-form limits."""

import heapq
import math
import re
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ldl import (
    ConditionError,
    CostRule,
    Frontier,
    GuardrailExceeded,
    LdlError,
    Move,
    OnePopGame,
    Path,
    TwoPopGame,
    UnsupportedRuleError,
    apply_move,
    exit_bruteforce,
    exit_limit_one_pop,
    exit_limit_two_pop,
    exit_reduced,
    in_basin,
    mixed_equilibrium,
    ndg_build,
    pairwise_escape_term,
    transition_cost_bruteforce,
    transition_cost_matrix,
)
from ldl.chain import (
    ONE_POP_SEARCH_CAP,
    TWO_POP_SEARCH_CAP,
    convention_state,
    cost_vector,
    enumerate_states,
    payoff_vector,
)
from ldl import escape
from ldl.escape import (_digits, _exit_bound, _least_cost_search, _path_bounds,
                        _price, escape_term_two_pop, two_pop_thresholds)
from ldl.games import NEAR_TIE, tech_game
from gamegen import (
    DECIMAL_TIE,
    TECH,
    TECH_UNEVEN,
    TWO_POP_2X2,
    TWO_STRATEGY,
    alpha_payoffs,
    beta_payoffs,
    random_condition_a_games,
    random_decimal_games,
)
from lemmas import run_cost_closed_form

NDG = ndg_build(Frontier(1, 3, 0.5), 6)  # delta = 0.5, demands 1..5
NDG_L4 = ndg_build(Frontier(1, 3, 0.5), 4)


# ---------------------------------------------------------------------------
# Brute-force oracle


def test_two_strategy_exit_logit_exact():
    res = exit_bruteforce(TWO_STRATEGY, 6, 0)
    assert res.cost == pytest.approx(5.0, abs=1e-12)
    assert res.normalized == pytest.approx(5 / 6, abs=1e-12)
    assert [s for s in res.witness.states] == [(6 - t, t) for t in range(6)]


def test_two_strategy_exit_uniform_exact():
    res = exit_bruteforce(TWO_STRATEGY, 6, 0, rule=CostRule.UNIFORM)
    assert res.cost == pytest.approx(4.0, abs=1e-12)
    assert res.normalized == pytest.approx(2 / 3, abs=1e-12)


def test_population_of_one_takes_cheapest_single_move():
    res = exit_bruteforce(TECH, 1, 0)
    assert len(res.witness.moves) == 1
    assert res.cost == pytest.approx(15.0)  # 16 - 1, the cheapest deviation


def test_exit_requires_strict_convention():
    g = OnePopGame([[1, 0], [1, 2]])  # deviating to 1 ties: not strict
    with pytest.raises(ConditionError):
        exit_bruteforce(g, 5, 0, validate=False)


def test_exit_guardrail():
    with pytest.raises(GuardrailExceeded):
        exit_bruteforce(TECH, 40, 0, guardrail=10)


@pytest.mark.parametrize("solve,game", [
    (lambda m: exit_bruteforce(TECH, 10, m), TECH),
    (lambda m: exit_reduced(TECH, 10, m), TECH),
    (lambda m: exit_limit_one_pop(TECH, m), TECH),
    (lambda m: exit_limit_two_pop(NDG, m), NDG),
])
def test_convention_index_range_checked_first(solve, game):
    for m in (-1, game.k):
        with pytest.raises(ConditionError,
                           match=f"convention {m + 1} outside 1..{game.k}"):
            solve(m)


def test_oracle_witness_leaves_the_basin_only_at_its_end_on_decimal_games():
    # The oracle's terminal test and the public in_basin are one predicate,
    # so they break one-decimal ties the same way.
    res = exit_bruteforce(DECIMAL_TIE, 30, 2)
    assert res.witness.states[-1] == (0, 11, 19)
    assert not in_basin(DECIMAL_TIE, (0, 11, 19), 2)
    for g in random_decimal_games(30, seed=5):
        for n in (10, 16, 22, 28, 34, 40):
            for m in range(g.k):
                states = exit_bruteforce(g, n, m).witness.states
                assert all(in_basin(g, s, m) for s in states[:-1])
                assert not in_basin(g, states[-1], m)


def test_better_reply_oracle_runs_and_is_cheaper_than_logit():
    logit = exit_bruteforce(TECH, 9, 0).cost
    better = exit_bruteforce(TECH, 9, 0, rule=CostRule.BETTER_REPLY).cost
    assert 0 <= better <= logit


# ---------------------------------------------------------------------------
# Reduced search equals the oracle


def test_oracle_equivalence_tech():
    for n in (6, 9, 12, 15):
        a = exit_bruteforce(TECH, n, 0).cost
        b = exit_reduced(TECH, n, 0).cost
        assert abs(a - b) <= 1e-9


def test_oracle_equivalence_seeded_k3_and_k4():
    games = random_condition_a_games(6, seed=101) + random_condition_a_games(
        2, seed=103, k=4
    )
    for g in games:
        for m in range(g.k):
            for n in (6, 11, 15):
                a = exit_bruteforce(g, n, m).cost
                b = exit_reduced(g, n, m).cost
                assert abs(a - b) <= 1e-9


def test_reduced_large_population_near_limit():
    res = exit_reduced(TECH, 120, 0)
    assert res.normalized == pytest.approx(3.515625, rel=0.05)
    assert res.block.targets == (1,)


def test_reduced_two_strategy_closed_summation():
    res = exit_reduced(TWO_STRATEGY, 6, 0)
    assert res.block is not None and res.block.targets == (1,)
    rho = res.block.counts[0]
    closed = run_cost_closed_form(TWO_STRATEGY, (6, 0), 0, 1, rho)
    assert res.cost == pytest.approx(closed, abs=1e-12)


# A strict-convention game failing the bandwagon property, whose least-cost
# escape from strategy 3 at n = 5 needs two targets: two switches from 3 to
# 1, then one from 3 to 2, costing 18.4; the cheapest straight run costs 18.6.
NO_BANDWAGON = OnePopGame([[7, 4, -6], [6, 10, -5], [-2, 6, 4]])


def test_reduced_refuses_a_witness_too_large_to_build():
    with pytest.raises(ConditionError, match="cap"):
        exit_reduced(TECH, 10**6 + 1, 0)


@pytest.mark.parametrize("n", ["5", True])
@pytest.mark.parametrize("solve", [exit_bruteforce, exit_reduced])
def test_solvers_refuse_a_population_that_is_not_an_integer(solve, n):
    # "5" once reached the reduced search's cap test as a raw TypeError, and
    # True once passed as an integer, giving witnesses of bool counts.
    with pytest.raises(ConditionError, match="must be an integer"):
        solve(TECH, n, 0)


def test_reduced_refuses_a_game_where_two_targets_win():
    with pytest.raises(ConditionError):
        exit_reduced(NO_BANDWAGON, 5, 2)
    res = exit_bruteforce(NO_BANDWAGON, 5, 2, validate=False)
    assert res.cost == pytest.approx(18.4, abs=1e-9)
    assert {mv.dst for mv in res.witness.moves} == {0, 1}


def test_reduced_refuses_a_two_population_game():
    # once a raw AttributeError: a TwoPopGame has no one-population payoffs
    with pytest.raises(ConditionError, match="one-population"):
        exit_reduced(ndg_build(Frontier(1, 3, 0.5), 4), 6, 0)


# ---------------------------------------------------------------------------
# One-population limits


def test_limit_tech_values():
    res = exit_limit_one_pop(TECH, 0)
    assert res.cost == pytest.approx(3.515625, abs=1e-12)
    assert res.argmin_targets == (1,)
    assert pairwise_escape_term(TECH, 0, 1) == pytest.approx(0.5 * 15**2 / 32)
    assert pairwise_escape_term(TECH, 0, 2) == pytest.approx(0.5 * 17**2 / 32)


@pytest.mark.parametrize("term, game", [
    (pairwise_escape_term, tech_game(16, 17, 18, 1)),
    (two_pop_thresholds, NDG),
    (lambda game, m, j: escape_term_two_pop(game, m, j, CostRule.LOGIT), NDG),
], ids=["pairwise", "thresholds", "two_pop"])
@pytest.mark.parametrize("m, j, message", [
    (-1, 0, "convention 0 outside"), (0, -1, "convention 0 outside"),
    (0, 7, "convention 8 outside"), (7, 0, "convention 8 outside"),
    (True, 0, "must be an integer"), (0, 1.0, "must be an integer"),
    (1, 1, "convention 2 cannot escape to itself"),
])
def test_limit_terms_refuse_bad_index_pairs(term, game, m, j, message):
    # A negative index would read another convention's row; m == j has
    # no swing.
    with pytest.raises(ConditionError, match=message):
        term(game, m, j)


def test_limit_two_strategy_logit_and_uniform_coincide():
    logit = exit_limit_one_pop(TWO_STRATEGY, 0)
    uniform = exit_limit_one_pop(TWO_STRATEGY, 0, rule=CostRule.UNIFORM)
    assert logit.cost == pytest.approx(2 / 3)
    assert uniform.cost == pytest.approx(2 / 3)


def test_limit_symmetric_game_all_targets_tie():
    g = OnePopGame([[5, 1, 1], [1, 5, 1], [1, 1, 5]])
    res = exit_limit_one_pop(g, 0)
    assert res.cost == pytest.approx((5 - 1) / 4)
    assert res.argmin_targets == (1, 2)


def test_uniform_limit_matches_oracle():
    for g in (TECH, random_condition_a_games(1, seed=271)[0]):
        for m in range(g.k):
            lim = exit_limit_one_pop(g, m, rule=CostRule.UNIFORM).cost
            got = exit_bruteforce(g, 120, m, rule=CostRule.UNIFORM).normalized
            assert got == pytest.approx(lim, rel=0.05)


def test_limit_refuses_better_reply():
    with pytest.raises(UnsupportedRuleError):
        exit_limit_one_pop(TECH, 0, rule=CostRule.BETTER_REPLY)


def test_normalized_cost_converges_like_one_over_n():
    limit = exit_limit_one_pop(TECH, 0).cost
    errors = {}
    for n in (15, 30, 60, 120):
        errors[n] = exit_bruteforce(TECH, n, 0).normalized - limit
    assert all(e > 0 for e in errors.values())
    # error * n stays bounded (here: close to the half-step constant)
    scaled = [errors[n] * n for n in (15, 30, 60, 120)]
    assert max(scaled) / min(scaled) < 1.5


def test_two_strategy_error_is_exact_half_step_term():
    res = exit_bruteforce(TWO_STRATEGY, 6, 0)
    limit = exit_limit_one_pop(TWO_STRATEGY, 0)
    assert res.normalized - limit.cost == pytest.approx(1 / 6, abs=1e-12)
    # the finite-n cost is exactly the closed-form run cost of 5 switches
    assert res.cost == pytest.approx(
        run_cost_closed_form(TWO_STRATEGY, (6, 0), 0, 1, 5), abs=1e-12
    )


def test_witness_is_single_mistake_kind_at_large_n():
    res = exit_bruteforce(TECH, 120, 0)
    limit = exit_limit_one_pop(TECH, 0)
    tally = Counter((mv.src, mv.dst) for mv in res.witness.moves)
    (dominant, dom_count), *rest = tally.most_common()
    assert dominant == (0, limit.argmin_targets[0])
    assert sum(c for _, c in rest) <= 2  # at most O(1) boundary moves


def test_single_binding_constraint_at_limit_endpoint():
    res = exit_limit_one_pop(TECH, 0)
    j_star = res.argmin_targets[0]
    q = mixed_equilibrium(TECH, (0, j_star))
    pay = TECH.payoffs @ q
    assert pay[j_star] == pytest.approx(pay[0], abs=1e-10)
    others = [pay[l] for l in range(3) if l not in (0, j_star)]
    assert all(v < pay[0] - 1e-9 for v in others)


# ---------------------------------------------------------------------------
# Two-population limits


def test_ndg_thresholds_match_demand_ratios():
    delta = 0.5
    for m_ix in range(NDG.k):
        for j_ix in range(NDG.k):
            if j_ix <= m_ix:
                continue
            za, _ = two_pop_thresholds(NDG, m_ix, j_ix)
            assert za == pytest.approx((m_ix + 1) / (j_ix + 1), abs=1e-12)


def test_two_pop_limit_matches_case_formulas():
    f = Frontier(1, 3, 0.5)
    delta = 0.5
    m_ix = 1  # demand 2
    m = 2.0 * delta * 2 / 2  # demand value = 1.0
    from ldl.escape import escape_term_two_pop

    for j_ix in range(NDG.k):
        if j_ix == m_ix:
            continue
        got, driver = escape_term_two_pop(NDG, m_ix, j_ix, CostRule.LOGIT)
        dm, dj = delta * (m_ix + 1), delta * (j_ix + 1)
        if j_ix > m_ix:
            expected = min((f(dm) - f(dj)) * dm / dj,
                           dm * (f(dm) - f(dj)) / f(dm))
        else:
            expected = min(f(dm) * (dm - dj) / dm,
                           (dm - dj) * f(dm) / f(dj))
        assert got == pytest.approx(expected, abs=1e-12)


def test_two_pop_limit_unintentional_ndg():
    res = exit_limit_two_pop(NDG, 1)
    f = Frontier(1, 3, 0.5)
    r1 = (f(1.0) - f(1.5)) * 1.0 / 1.5
    assert res.cost == pytest.approx(r1, abs=1e-12)
    assert res.argmin_targets == (2,)
    assert res.driving_population == "beta"


def test_two_pop_limit_intentional_ndg():
    res = exit_limit_two_pop(NDG, 1, rule=CostRule.INTENTIONAL)
    f = Frontier(1, 3, 0.5)
    r2 = 1.0 * (f(1.0) - f(1.5)) / f(1.0)
    assert res.cost == pytest.approx(r2, abs=1e-12)
    assert res.argmin_targets == (2,)
    assert res.driving_population == "alpha"


def test_intentional_upward_transitions_alpha_driven():
    from ldl.escape import escape_term_two_pop

    for m_ix in range(NDG.k - 1):
        for j_ix in range(m_ix + 1, NDG.k):
            _, driver = escape_term_two_pop(NDG, m_ix, j_ix, CostRule.INTENTIONAL)
            assert driver == "alpha"
        for j_ix in range(0, m_ix):
            _, driver = escape_term_two_pop(NDG, m_ix, j_ix, CostRule.INTENTIONAL)
            assert driver == "beta"


def test_intentional_limit_requires_conflict():
    g = ndg_build(Frontier(1, 3, 0.5), 4)
    # a symmetric two-population coordination game has aligned interests
    from ldl import TwoPopGame

    sym = TwoPopGame(TECH.payoffs, TECH.payoffs.T)
    with pytest.raises(ConditionError):
        exit_limit_two_pop(sym, 0, rule=CostRule.INTENTIONAL)
    assert exit_limit_two_pop(g, 1, rule=CostRule.INTENTIONAL).cost > 0


# ---------------------------------------------------------------------------
# Two-population oracle


def test_two_pop_oracle_cost_n20_matches_bent_path_analysis():
    # 13 beta switches to the higher demand plus 3 cheap alpha finishers
    f = Frontier(1, 3, 0.5)
    res = exit_bruteforce(NDG, 20, 1)
    expected = 13 * (f(1.0) - f(1.5)) + 3 * (1.0 - 1.5 * 13 / 20)
    assert res.cost == pytest.approx(expected, abs=1e-9)
    pops = {mv.pop for mv in res.witness.moves}
    assert pops == {"alpha", "beta"}  # the finite-n optimum mixes populations


def test_two_pop_oracle_witness_single_population_at_n40():
    # beta-only because 40 ≡ 1 (mod 3); other n in 10..61 add alpha finishers
    res = exit_bruteforce(NDG, 40, 1)
    moves = res.witness.moves
    assert {mv.pop for mv in moves} == {"beta"}
    assert all(mv.src == 1 for mv in moves)
    assert all(mv.dst == 2 for mv in moves)
    f = Frontier(1, 3, 0.5)
    assert res.cost == pytest.approx(27 * (f(1.0) - f(1.5)), abs=1e-9)


def test_two_pop_oracle_intentional_single_population_at_n20():
    res = exit_bruteforce(NDG, 20, 1, rule=CostRule.INTENTIONAL)
    moves = res.witness.moves
    assert {mv.pop for mv in moves} == {"alpha"}
    assert all(mv.src == 1 for mv in moves)
    assert res.cost == pytest.approx(3 * 1.0, abs=1e-9)


def test_two_pop_oracle_approaches_limit():
    limit = exit_limit_two_pop(NDG, 1).cost
    res = exit_bruteforce(NDG, 40, 1)
    assert res.normalized == pytest.approx(limit, rel=0.05)


# ---------------------------------------------------------------------------
# The batched search against the per-state search it replaced, which
# survives here only as the reference


_FACED_PAYOFFS = {None: payoff_vector, "alpha": alpha_payoffs,
                  "beta": beta_payoffs}


def reference_least_cost_search(game, n, start, target, leaving, rule,
                                guardrail):
    """Price one settled state at a time: its payoff vector, one
    ``cost_vector`` call per side and ``in_basin``; two-population prices
    memoized per side and faced counts.  Returns (cost, witness states)."""
    k = game.k
    two_pop = isinstance(game, TwoPopGame)
    memo = {}

    def prices(pop, faced):
        pay = _FACED_PAYOFFS[pop](game, faced)
        if rule is CostRule.BETTER_REPLY:
            return [cost_vector(game, rule, pay, i, pop).tolist() for i in range(k)]
        return [cost_vector(game, rule, pay, 0, pop).tolist()] * k

    def edges(state):
        if two_pop:
            sides = (("alpha", state[0], state[1]), ("beta", state[1], state[0]))
        else:
            sides = ((None, state, state),)
        out = []
        for pop, counts, faced in sides:
            if two_pop:
                costs = memo.get((pop, faced))
                if costs is None:
                    costs = memo[pop, faced] = prices(pop, faced)
            else:
                costs = prices(pop, faced)
            for i in range(k):
                if counts[i] < 1:
                    continue
                for j, w in enumerate(costs[i]):
                    if j != i and w != math.inf:
                        out.append((Move(i, j, pop), w))
        return out

    origin = convention_state(game, n, start)
    if guardrail is None:
        guardrail = TWO_POP_SEARCH_CAP if two_pop else ONE_POP_SEARCH_CAP
    dist = {origin: 0.0}
    parent = {origin: None}
    heap = [(0.0, 0, origin)]
    counter = 1
    settled = set()
    while heap:
        d, _, x = heapq.heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        if in_basin(game, x, target) != leaving:
            states = [x]
            while parent[states[-1]] is not None:
                states.append(parent[states[-1]])
            return d, tuple(reversed(states))
        if len(settled) > guardrail:
            raise GuardrailExceeded(f"search expanded more than {guardrail} states")
        for move, w in edges(x):
            y = apply_move(x, move)
            nd = d + w
            if nd < dist.get(y, math.inf):
                dist[y] = nd
                parent[y] = x
                heapq.heappush(heap, (nd, counter, y))
                counter += 1
    raise LdlError("no terminal state is reachable")


def assert_witness_moves_are_derived(*results):
    """The moves the search reads off its key shifts are those
    ``move_between`` derives from the witness states."""
    for res in results:
        assert res.witness.moves == Path(res.witness.states).moves


def least_cost_search(game, n, start, target, leaving, rule, guardrail):
    """The library's search for one target, called as the reference is."""
    return _least_cost_search(game, n, start, (target,), leaving, rule,
                              guardrail)[0]


def assert_search_is_reference(game, n, leaving, rule):
    """Every start (and, entering a basin, every other target) agrees with
    the reference: the same cost and witness, or the same refusal."""
    for start in range(game.k):
        for target in (start,) if leaving else set(range(game.k)) - {start}:
            args = (game, n, start, target, leaving, rule, None)
            try:
                want = reference_least_cost_search(*args)
            except LdlError as exc:
                with pytest.raises(type(exc), match=str(exc)):
                    least_cost_search(*args)
                continue
            res = least_cost_search(*args)
            assert (res.cost, res.witness.states) == want, args[1:]
            assert_witness_moves_are_derived(res)


one_pop_games = st.one_of(
    st.just([DECIMAL_TIE]),
    st.builds(lambda make, seed, k: make(1, seed=seed, k=k),
              st.sampled_from((random_condition_a_games, random_decimal_games)),
              st.integers(0, 2**16), st.sampled_from((3, 4))),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(games=one_pop_games, n=st.integers(1, 24), leaving=st.booleans(),
       rule=st.sampled_from((CostRule.LOGIT, CostRule.UNIFORM,
                             CostRule.BETTER_REPLY)))
def test_batched_search_is_the_per_state_search_one_pop(games, n, leaving, rule):
    assume(games)
    assert_search_is_reference(games[0], n if games[0].k == 3 else n // 2 + 1,
                               leaving, rule)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(game=st.sampled_from((NDG_L4, TWO_POP_2X2)), n=st.integers(1, 8),
       leaving=st.booleans(),
       rule=st.sampled_from((CostRule.LOGIT, CostRule.INTENTIONAL)))
def test_batched_search_is_the_per_state_search_two_pop(game, n, leaving, rule):
    assert_search_is_reference(game, n, leaving, rule)


@pytest.mark.parametrize("leaving", [True, False])
def test_batched_search_keeps_the_decimal_tie(leaving):
    # The n = 30 escape from strategy 2 ends where 1 and 2 tie in exact
    # arithmetic; only the per-state rounding of A @ c decides the tie.
    assert_search_is_reference(DECIMAL_TIE, 30, leaving, CostRule.LOGIT)


def assert_guardrail_counts_the_reference(game, n, start, target, rule, states):
    """The smallest guardrail the search finishes under is the reference's:
    both count each expanded state once, whatever its stale heap entries."""
    args = (game, n, start, target, start == target, rule)

    def finishes(guardrail):
        try:
            reference_least_cost_search(*args, guardrail)
        except GuardrailExceeded:
            return False
        return True

    lo, hi = 1, states  # every state of the space
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if finishes(mid) else (mid + 1, hi)
    least_cost_search(*args, lo)
    with pytest.raises(GuardrailExceeded):
        least_cost_search(*args, lo - 1)
    return lo


def test_guardrail_counts_the_reference_settled_states(monkeypatch):
    # h prunes no UNIFORM escape and no transition search, so those count
    # every state the reference settles.
    for start, target, rule in ((0, 0, CostRule.UNIFORM), (0, 1, CostRule.LOGIT)):
        assert assert_guardrail_counts_the_reference(TECH, 60, start, target, rule,
                                                     1891) > 150
    # The LOGIT escape counts the reference's states once h is off (195);
    # with h it expands an in-order subsequence of them: its witness's 30.
    with monkeypatch.context() as patch:
        patch.setattr("ldl.escape._path_bounds", lambda *args: math.inf)
        full = search_record(patch, TECH, 60, 0)
        assert full[3] == assert_guardrail_counts_the_reference(
            TECH, 60, 0, 0, CostRule.LOGIT, 1891)
    pruned = search_record(monkeypatch, TECH, 60, 0)
    assert_pruned_search_is_the_full_one(pruned, full)
    assert [x for _, x in pruned[2]] == list(pruned[1]) and len(full[2]) == 195


def test_guardrail_counts_the_reference_settled_states_two_pop():
    # From the top demand into the lowest one's basin: hundreds of the
    # 45 * 45 states are expanded.
    lo = assert_guardrail_counts_the_reference(NDG_L4, 8, 2, 0, CostRule.LOGIT,
                                               45 * 45)
    assert lo > 600


def test_stacked_products_round_like_single_state_products():
    # The batched search forms A @ c for a stack of states as stacked
    # matrix-vector products; the matrix product C @ A.T sums in another
    # order and disagrees in the last bit on decimal payoffs, which moves
    # basin ties and costs.
    games = [(g.payoffs, None) for g in
             [DECIMAL_TIE] + random_decimal_games(3, seed=11)
             + random_decimal_games(2, seed=12, k=4)]
    games += [(NDG_L4.alpha, "alpha"), (NDG_L4.beta.T, "beta")]
    for matrix, pop in games:
        k = matrix.shape[0]
        counts = np.array(list(enumerate_states(30 if k == 3 else 12, k)), dtype=float)
        stacked = np.matmul(matrix[None], counts[:, :, None])[:, :, 0]
        single = np.array([matrix @ c if pop != "beta" else c @ matrix.T
                           for c in counts])
        assert stacked.tobytes() == single.tobytes()


def test_price_matches_per_state_basin_and_costs():
    cases = [(g, None, rule) for g in [DECIMAL_TIE] + random_decimal_games(2, seed=13)
             for rule in (CostRule.LOGIT, CostRule.UNIFORM, CostRule.BETTER_REPLY)]
    cases += [(NDG_L4, pop, rule) for pop in ("alpha", "beta")
              for rule in (CostRule.LOGIT, CostRule.INTENTIONAL, CostRule.UNIFORM,
                           CostRule.BETTER_REPLY)]
    for game, pop, rule in cases:
        k = game.k
        faced = list(enumerate_states(30 if pop is None else 9, k))
        own = range(k) if rule is CostRule.BETTER_REPLY else [0] * k
        for targets in [(t,) for t in range(k)] + [tuple(range(k))[::-1]]:
            masks, weights = _price(game, rule, targets, pop, np.array(faced))
            assert len(masks) == len(weights) == len(faced)
            for counts, mask, got in zip(faced, masks, weights):
                pay = _FACED_PAYOFFS[pop](game, counts)
                rows = [cost_vector(game, rule, pay, i, pop).tolist() for i in own]
                if pop is None:
                    # the flat row of moves i -> j != i; inf where c_i = 0
                    assert got == [rows[i][j] if counts[i] else math.inf
                                   for i in range(k) for j in range(k) if j != i]
                    assert mask == sum(in_basin(game, counts, t) << p
                                       for p, t in enumerate(targets))
                else:
                    # a row per source i of its moves i -> j != i
                    assert got == [[rows[i][j] for j in range(k) if j != i]
                                   for i in range(k)]


def test_price_basin_flags_compose_to_the_two_pop_basin():
    # A two-population state is inside when both sides' revisers are.
    faced = list(enumerate_states(6, NDG_L4.k))
    targets = tuple(range(NDG_L4.k))
    alpha, _ = _price(NDG_L4, CostRule.LOGIT, targets, "alpha", np.array(faced))
    beta, _ = _price(NDG_L4, CostRule.LOGIT, targets, "beta", np.array(faced))
    for a, a_faced_by_beta in zip(faced, beta):
        for b, b_faced_by_alpha in zip(faced, alpha):
            mask = b_faced_by_alpha & a_faced_by_beta
            for p, target in enumerate(targets):
                assert in_basin(NDG_L4, (a, b), target) == bool(mask >> p & 1)


def test_oracle_batch_schedule_at_n_480(monkeypatch):
    # The batch schedule is pinned: the escape from TECH's convention 0 at
    # n = 480 prices 437 of the 115,921 states in 227 batches, each state
    # once (10,797 before h pruned the search).  It expands only its
    # 227-state witness: the smallest guardrail it finishes under is 226.
    calls = []

    def counting(*args):
        calls.append(len(args[4]))
        return _price(*args)

    monkeypatch.setattr("ldl.escape._price", counting)
    res = exit_bruteforce(TECH, 480, 0)
    assert (len(calls), sum(calls)) == (227, 437)
    assert (res.cost, len(res.witness.states)) == (1695.0000000000002, 227)
    assert res.witness.states == exit_reduced(TECH, 480, 0).witness.states
    assert exit_bruteforce(TECH, 480, 0, guardrail=226) == res
    with pytest.raises(GuardrailExceeded):
        exit_bruteforce(TECH, 480, 0, guardrail=225)


@pytest.mark.parametrize("game", [TECH, TECH_UNEVEN])
def test_oracle_is_the_reduced_search_at_n_2000(game):
    # The north star's n: h keeps the oracle to a few thousand states.
    for m in range(game.k):
        oracle, reduced = exit_bruteforce(game, 2000, m), exit_reduced(game, 2000, m)
        assert abs(oracle.cost - reduced.cost) <= NEAR_TIE * reduced.cost


@pytest.mark.parametrize("game, n, batches, rows", [(TECH_UNEVEN, 90, 350, 5859),
                                                    (TECH, 60, 225, 2331)])
def test_transition_search_batch_schedule(monkeypatch, game, n, batches, rows):
    # The k transition searches of a cost matrix price in a pinned
    # schedule, as the escape at n = 480 does.
    calls = []

    def counting(game, rule, targets, pop, counts):
        calls.append(len(counts))
        return _price(game, rule, targets, pop, counts)

    monkeypatch.setattr("ldl.escape._price", counting)
    transition_cost_matrix(game, n)
    assert (len(calls), sum(calls)) == (batches, rows)


# An escape drops every move dearer than the bound U of its search

# The six two-population escapes of the bargaining benchmark, all at n = 40.
NDG_B = ndg_build(Frontier(3, 1, 0.5), 8)
DEMAND_ESCAPES = [(NDG, m) for m in (0, 1, 2, 4)] + [(NDG_B, m) for m in (0, 1)]

two_pop_rules = st.sampled_from(tuple(CostRule))
one_pop_rules = st.sampled_from((CostRule.LOGIT, CostRule.UNIFORM,
                                 CostRule.BETTER_REPLY))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_search_cost_is_within_the_bound_of_every_target(data):
    games = data.draw(st.one_of(one_pop_games,
                                st.sampled_from(([NDG_L4], [TWO_POP_2X2]))))
    assume(games)
    game = games[0]
    two_pop = isinstance(game, TwoPopGame)
    rule = data.draw(two_pop_rules if two_pop else one_pop_rules)
    n = data.draw(st.integers(1, 8 if two_pop or game.k == 4 else 24))
    for start in range(game.k):
        bound = _path_bounds(game, n, start, rule)
        try:
            res, = _least_cost_search(game, n, start, (start,), True, rule, None)
        except LdlError as exc:  # no bounding path leaves the basin
            assert "no terminal state" in str(exc) and bound == math.inf
            continue
        assert res.cost <= bound * (1 + NEAR_TIE), (start, n, rule)


def search_record(monkeypatch, game, n, m):
    """The escape with the ``(d, state)`` it expands, in order, and the
    smallest guardrail it finishes under: the search stops at its last
    expansion before the guardrail test.  A settled state is expanded
    unless ``d + h > U``, h its ``_price`` bound and U the search's cap
    (read through the module, so a test may replace ``_path_bounds``); the
    guardrail pins that the search counts just those."""
    popped = []

    def heappop(heap):
        popped.append(heap[0][::2])
        return heapq.heappop(heap)

    with monkeypatch.context() as patch:
        patch.setattr("ldl.escape.heapq", SimpleNamespace(
            heappush=heapq.heappush, heappop=heappop))
        res = exit_bruteforce(game, n, m)
    settled = {}
    for d, x in popped:  # a stale entry pops after its state
        settled.setdefault(x, d)
    cap = min(escape._path_bounds(game, n, m, CostRule.LOGIT) * (1 + NEAR_TIE),
              sys.float_info.max)
    counts = _digits(list(settled), n + 1, game.k * len(game.populations))
    h = [0.0] * len(settled)
    if isinstance(game, OnePopGame) and _exit_bound(game, n, m):
        h = _price(game, CostRule.LOGIT, (m,), None, counts, *_exit_bound(game, n, m))[2]
    expanded = [(d, tuple(x)) for d, x, b in zip(settled.values(), counts.tolist(), h)
                if not d + b > cap]  # states as digit tuples, alpha's then beta's
    least = max(len(expanded) - 1, 1)
    exit_bruteforce(game, n, m, guardrail=least)
    if least > 1:
        with pytest.raises(GuardrailExceeded):
            exit_bruteforce(game, n, m, guardrail=least - 1)
    return res.cost, res.witness.states, expanded, least


def assert_pruned_search_is_the_full_one(pruned, full):
    """The same cost and witness; the expanded ``(d, state)`` an in-order
    subsequence of the full search's, and the guardrail no larger."""
    assert pruned[:2] == full[:2]
    rest = iter(full[2])
    assert all(step in rest for step in pruned[2])
    assert pruned[3] <= full[3]


@pytest.mark.parametrize("game, n, m", [(g, 40, m) for g, m in DEMAND_ESCAPES]
                         + [(TECH, 480, 0)])
def test_bound_changes_no_answer(monkeypatch, game, n, m):
    # U = inf turns both prunings off.  Without h (the demand games) the
    # searches expand the same states; with it (TECH) a subsequence.
    pruned = search_record(monkeypatch, game, n, m)
    monkeypatch.setattr("ldl.escape._path_bounds", lambda *args: math.inf)
    full = search_record(monkeypatch, game, n, m)
    assert_pruned_search_is_the_full_one(pruned, full)
    if isinstance(game, TwoPopGame):
        assert pruned == full
    else:
        assert [x for _, x in pruned[2]] == list(pruned[1])
        assert len(full[2]) == 10797


@pytest.mark.parametrize("game, m", DEMAND_ESCAPES)
def test_two_run_bound_is_the_demand_game_escape_cost(game, m):
    bound = _path_bounds(game, 40, m, CostRule.LOGIT)
    cost = exit_bruteforce(game, 40, m).cost
    assert abs(bound - cost) <= NEAR_TIE * cost


def test_bound_prunes_the_priced_rows(monkeypatch):
    # NDG L = 6, n = 40, from demand 2: the search priced 2,037 rows
    # before moves above the bound were dropped.
    rows = []

    def counting(game, rule, targets, pop, counts):
        rows.append(len(counts))
        return _price(game, rule, targets, pop, counts)

    monkeypatch.setattr("ldl.escape._price", counting)
    exit_bruteforce(NDG, 40, 2)
    assert sum(rows) == 1178


def exit_costs(game, n, m):
    """The least cost from each state of m's basin to a state outside it,
    by one Dijkstra run backwards from every outside state over the logit
    moves as ``cost_vector`` prices them; ``inf`` where no path leaves."""
    k = game.k
    states = list(enumerate_states(n, k))
    inside = {x for x in states if in_basin(game, x, m)}
    into = {x: [] for x in states}  # y: (w, x) for each move x -> y, x inside
    for x in inside:
        row = cost_vector(game, CostRule.LOGIT, payoff_vector(game, x), 0, None)
        for i, j in zip(*np.nonzero(~np.eye(k, dtype=bool))):
            if x[i]:
                into[apply_move(x, Move(int(i), int(j)))].append((float(row[j]), x))
    cost = {x: 0.0 for x in states if x not in inside}
    heap = [(0.0, x) for x in cost]
    heapq.heapify(heap)
    while heap:
        c, y = heapq.heappop(heap)
        if c > cost[y]:
            continue
        for w, x in into[y]:
            if c + w < cost.get(x, math.inf):
                cost[x] = c + w
                heapq.heappush(heap, (c + w, x))
    return {x: cost.get(x, math.inf) for x in inside}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(make=st.sampled_from((random_condition_a_games, random_decimal_games)),
       seed=st.integers(0, 2**16), k=st.sampled_from((3, 4)), n=st.integers(1, 24))
def test_exit_bound_is_admissible(make, seed, k, n):
    # h, with its rounding margin, never exceeds the exact cost still to pay
    # from any basin state: k = 3 at n <= 24, k = 4 at n <= 12.
    games = make(1, seed=seed, k=k)
    assume(games)
    game, n = games[0], n if k == 3 else (n + 1) // 2
    for m in range(k):
        bound = _exit_bound(game, n, m)
        if not bound:  # no bound: a free move into m can close its lead
            continue
        exact = exit_costs(game, n, m)
        h = _price(game, CostRule.LOGIT, (m,), None, np.array(list(exact)), *bound)[2]
        assert all(b <= c for b, c in zip(h, exact.values())), (m, n)
        assert h[list(exact).index(convention_state(game, n, m))] > 0


# One search per source against one reference search per ordered pair


def assert_transition_costs_are_reference(game, n, rule, guardrail):
    """Each source's search gives every pair's reference cost and witness,
    or the reference's first refusal, and the matrix holds those costs."""
    refusal = None
    want = np.full((game.k, game.k), np.nan)
    for start in range(game.k):
        others = [j for j in range(game.k) if j != start]
        expect = []
        for target in others:
            try:
                expect.append(reference_least_cost_search(
                    game, n, start, target, False, rule, guardrail))
            except LdlError as exc:
                expect.append(exc)
        failed = [e for e in expect if isinstance(e, LdlError)]
        if failed:
            refusal = refusal or failed[0]
            with pytest.raises(type(failed[0]), match=re.escape(str(failed[0]))):
                _least_cost_search(game, n, start, others, False, rule, guardrail)
            continue
        found = _least_cost_search(game, n, start, others, False, rule, guardrail)
        assert [(r.cost, r.witness.states) for r in found] == expect
        assert_witness_moves_are_derived(*found)
        want[start, others] = [cost / n for cost, _ in expect]
    if refusal is not None:
        with pytest.raises(type(refusal), match=re.escape(str(refusal))):
            transition_cost_matrix(game, n, rule, guardrail)
    else:
        got = transition_cost_matrix(game, n, rule, guardrail)
        assert np.array_equal(got, want, equal_nan=True)


guardrails = st.one_of(st.none(), st.integers(1, 60))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(make=st.sampled_from((random_condition_a_games, random_decimal_games)),
       seed=st.integers(0, 2**16), k=st.sampled_from((3, 4)), n=st.integers(1, 14),
       rule=st.sampled_from((CostRule.LOGIT, CostRule.UNIFORM,
                             CostRule.BETTER_REPLY)),
       guardrail=guardrails)
def test_one_search_per_source_is_the_per_pair_search_one_pop(make, seed, k, n,
                                                              rule, guardrail):
    games = make(1, seed=seed, k=k)
    assume(games)
    assert_transition_costs_are_reference(games[0], n if k == 3 else n // 2 + 1,
                                          rule, guardrail)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(game=st.sampled_from((NDG_L4, TWO_POP_2X2)), n=st.integers(1, 6),
       rule=st.sampled_from((CostRule.LOGIT, CostRule.INTENTIONAL)),
       guardrail=guardrails)
def test_one_search_per_source_is_the_per_pair_search_two_pop(game, n, rule,
                                                              guardrail):
    assert_transition_costs_are_reference(game, n, rule, guardrail)


@pytest.mark.parametrize("rule", list(CostRule))
@pytest.mark.parametrize("game", [NDG_L4, TWO_POP_2X2], ids=["NDG_L4", "TWO_POP_2X2"])
def test_witness_moves_are_the_moves_between_its_states_two_pop(game, rule):
    # A move is read off the key change of its step, where alpha's digits
    # sit below beta's; a table with the halves swapped would tag moves
    # with the wrong population.
    pops = Counter()
    for n in (1, 4, 7):
        for start in range(game.k):
            others = [j for j in range(game.k) if j != start]
            for targets, leaving in (((start,), True), (others, False)):
                try:
                    found = _least_cost_search(game, n, start, targets, leaving, rule,
                                               None)
                except LdlError:  # no terminal state under this rule
                    continue
                assert_witness_moves_are_derived(*found)
                pops.update(mv.pop for res in found for mv in res.witness.moves)
    assert set(pops) == {"alpha", "beta"}


def test_guardrail_refuses_a_source_when_one_pair_would():
    # From convention 0 of TECH_UNEVEN the nearer basin is reached first, so
    # a cap between the two pairs' expansions refuses the source.
    want = [reference_least_cost_search(TECH_UNEVEN, 20, 0, j, False,
                                        CostRule.LOGIT, None) for j in (1, 2)]
    found = _least_cost_search(TECH_UNEVEN, 20, 0, [1, 2], False, CostRule.LOGIT,
                               None)
    assert [(r.cost, r.witness.states) for r in found] == want
    assert want[0][0] != want[1][0]
    mixed = 0
    for guardrail in range(1, 231):
        per_pair = []
        for j in (1, 2):
            try:
                transition_cost_bruteforce(TECH_UNEVEN, 20, 0, j, guardrail=guardrail)
                per_pair.append(True)
            except GuardrailExceeded:
                per_pair.append(False)
        mixed += any(per_pair) and not all(per_pair)
        try:
            _least_cost_search(TECH_UNEVEN, 20, 0, [1, 2], False, CostRule.LOGIT,
                               guardrail)
            assert all(per_pair), guardrail
        except GuardrailExceeded:
            assert not all(per_pair), guardrail
    assert mixed > 10


@pytest.mark.parametrize("guardrail", [math.nan, math.inf, "10", True, False, 0,
                                       -5, 2.0, 1.5])
def test_guardrail_must_be_a_positive_integer(guardrail):
    # nan once ran uncapped, "10" raised a TypeError, True capped at 1 and
    # 0 or -5 reported a guardrail exceeded
    calls = (lambda: exit_bruteforce(TECH, 30, 0, guardrail=guardrail),
             lambda: transition_cost_bruteforce(TECH, 10, 0, 1, guardrail=guardrail),
             lambda: transition_cost_matrix(TECH, 10, guardrail=guardrail),
             lambda: exit_bruteforce(NDG_L4, 3, 0, guardrail=guardrail))
    for call in calls:
        with pytest.raises(ConditionError, match="guardrail"):
            call()


def test_guardrail_accepts_a_numpy_integer():
    want = exit_bruteforce(TECH, 30, 0)
    got = exit_bruteforce(TECH, 30, 0, guardrail=np.int64(10**6))
    assert (got.cost, got.witness.states) == (want.cost, want.witness.states)


# The search keys a state by its counts in radix n + 1.  These keys pass
# 2**63, where fixed-width integers would wrap: up to 10**42 at NDG L = 22
# (k = 21) and n = 9, and up to 8**25 for a k = 25 game at n = 7.
NDG_L22 = ndg_build(Frontier(1, 3, 0.5), 22)


@pytest.mark.parametrize("m, cost, states", [(0, 0.10933484184272359, 6),
                                             (10, 0.2961622685097488, 10)])
def test_search_keys_wider_than_64_bits_two_pop(m, cost, states):
    args = (NDG_L22, 9, m, m, True, CostRule.LOGIT, None)
    res = least_cost_search(*args)
    assert (res.cost, res.witness.states) == reference_least_cost_search(*args)
    assert res.cost == cost and len(res.witness.states) == states
    assert_witness_moves_are_derived(res)


@pytest.mark.parametrize("n", [7, np.int64(7)])
def test_search_keys_wider_than_64_bits_one_pop(n):
    # A numpy n must not carry its fixed width into the keys.
    game = OnePopGame(10 * np.eye(25) + 1)
    res = exit_bruteforce(game, n, 0, validate=False)
    want = reference_least_cost_search(game, 7, 0, 0, True, CostRule.LOGIT, None)
    assert (res.cost, res.witness.states) == want
    assert_witness_moves_are_derived(res)
    assert all(type(c) is int for state in res.witness.states for c in state)


def _divmod_digits(key, radix, k):
    digits = []
    for _ in range(k):
        key, digit = divmod(key, radix)
        digits.append(digit)
    return digits


def test_price_decodes_keys_wider_than_64_bits():
    # NDG L = 22 (k = 21) at n = 9: a side's key has 21 digits in radix 10,
    # past 2**63, and a two-population key 42.
    k, radix = NDG_L22.k, 10
    rng = np.random.default_rng(5)
    faced = [tuple(np.bincount(rng.integers(0, k, 9), minlength=k).tolist())
             for _ in range(40)]
    faced += [tuple(9 * (i == j) for i in range(k)) for j in (0, k - 2, k - 1)]
    keys = [sum(c * radix ** i for i, c in enumerate(counts)) for counts in faced]
    assert max(keys) > 2 ** 63
    digits = _digits(keys, radix, k)
    assert digits.tolist() == [_divmod_digits(f, radix, k) for f in keys]
    assert digits.tolist() == [list(counts) for counts in faced]
    assert all(type(c) is int for row in digits.tolist() for c in row)
    pair = keys[-1] + radix ** k * keys[0]  # alpha's key, then beta's
    assert _digits([pair], radix, 2 * k).tolist() == [
        _divmod_digits(pair, radix, 2 * k)]
    targets = tuple(range(k))
    for pop in ("alpha", "beta"):
        assert (_price(NDG_L22, CostRule.LOGIT, targets, pop, digits)
                == _price(NDG_L22, CostRule.LOGIT, targets, pop, np.array(faced)))


@pytest.mark.parametrize("radix, digits", [(2, 63), (2, 64), (3, 39), (3, 40),
                                           (10, 18), (10, 19), (12, 17), (12, 18)])
def test_digits_either_side_of_2_to_the_63(radix, digits):
    # Keys are decoded in int64 when every key of that many digits is below
    # 2**63 (radix**digits <= 2**63) and as Python ints past that; both
    # give the digits of repeated divmod, as Python ints.  The widths run
    # one digit below and above the switch, and each is read again as the
    # first half of a key twice as long, as a two-population key is.
    top = radix ** digits
    keys = [0, 1, radix - 1, top // 2, top - 1] + [
        key for key in (2 ** 63 - 2, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1) if key < top]
    for width in (digits, 2 * digits):
        got = _digits(keys, radix, width).tolist()
        assert got == [_divmod_digits(key, radix, width) for key in keys]
        assert all(type(c) is int for row in got for c in row)
    assert (_digits(keys, radix, digits).dtype == object) == (top > 2 ** 63)


@pytest.mark.parametrize("count", [62, 63, 64])
def test_price_basin_masks_with_63_or_more_targets(count):
    # Bits are packed in int64 for fewer than 63 targets and as Python ints
    # from 63 on; each mask must have bit p set exactly where targets[p]'s
    # basin holds the counts.
    game = OnePopGame(10 * np.eye(64) + 1)
    targets = tuple(range(64))[::-1][:count]
    rng = np.random.default_rng(count)
    faced = [tuple(5 * (i == j) for i in range(64)) for j in (targets[-1], 0, 63)]
    faced += [tuple(np.bincount(rng.integers(0, k, 5), minlength=64).tolist())
              for k in (1, 2, 64, 64, 64)]
    masks, _ = _price(game, CostRule.LOGIT, targets, None, np.array(faced))
    assert masks == [sum(in_basin(game, counts, t) << p for p, t in enumerate(targets))
                     for counts in faced]
    assert masks[0] == 1 << (count - 1)  # the top bit, at its target's convention
    assert all(type(mask) is int for mask in masks)


def test_oracle_witness_states_are_tuples_of_python_ints():
    # Public states are tuples of Python ints; a numpy integer would leak
    # into what callers print (its repr is np.int64(3) under numpy 2).
    results = [exit_bruteforce(TECH, 30, m, rule)
               for m in range(3) for rule in (CostRule.LOGIT, CostRule.UNIFORM)]
    results += [transition_cost_bruteforce(TECH_UNEVEN, 20, 0, 1),
                exit_bruteforce(NDG_L4, 6, 0),
                exit_bruteforce(TWO_POP_2X2, 9, 1, CostRule.INTENTIONAL),
                least_cost_search(NDG_L22, 9, 0, 0, True, CostRule.LOGIT, None)]
    for res in results:
        for state in res.witness.states:
            sides = state if isinstance(state[0], tuple) else (state,)
            assert type(state) is tuple
            assert all(type(side) is tuple for side in sides)
            assert all(type(c) is int for side in sides for c in side)
