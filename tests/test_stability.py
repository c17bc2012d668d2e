"""stability: radius/incidence machinery, exact transition costs, rooted
trees, and stationary distributions."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldl import (
    ConditionError,
    CostRule,
    Frontier,
    GuardrailExceeded,
    LdlError,
    Move,
    OnePopGame,
    TwoPopGame,
    UnsupportedRuleError,
    apply_move,
    arborescence_root,
    beta_ladder_trace,
    exit_bruteforce,
    incidence,
    invariant_measure,
    maxmin_test,
    ndg_build,
    radius_matrix,
    resolve_stability,
    tech_game,
    transition_cost_bruteforce,
    transition_cost_matrix,
    transition_matrix,
)
from ldl import stability
from ldl.chain import convention_state, path_cost
from ldl.stability import (
    GTH_BLOCK,
    TREE_METHODS,
    convention_mass,
    maxmin_test_matrix,
    cycles,
    _tree_cost_edmonds,
    _tree_cost_exhaustive,
)
from gamegen import (
    ROUTED,
    TECH,
    TECH_UNEVEN,
    TWO_POP_2X2,
    TWO_STRATEGY,
    dense_kernel,
    random_condition_a_games,
)

NDG = ndg_build(Frontier(1, 3, 0.5), 12)  # delta = 0.25, demands 1..11


def test_radius_two_strategy_values():
    rm = radius_matrix(TWO_STRATEGY)
    assert rm[0, 1] == pytest.approx(2 / 3)
    assert rm[1, 0] == pytest.approx(1 / 6)
    assert math.isnan(rm[0, 0])


def test_radius_tech_cyclic_symmetry():
    rm = radius_matrix(TECH)
    assert rm[0, 1] == pytest.approx(3.515625)
    assert rm[0, 2] == pytest.approx(4.515625)
    # equal benefits make the matrix cyclically symmetric
    for (i, j), (a, b) in (((0, 1), (1, 2)), ((1, 2), (2, 0)), ((0, 2), (1, 0))):
        assert rm[i, j] == pytest.approx(rm[a, b])


def test_radius_symmetric_game_all_equal():
    g = OnePopGame([[5, 1, 1], [1, 5, 1], [1, 1, 5]])
    vals = radius_matrix(g)
    off = vals[~np.isnan(vals)]
    assert np.allclose(off, off[0])


def test_incidence_and_unique_cycle_two_strategies():
    rm = radius_matrix(TWO_STRATEGY)
    inc = incidence(rm)
    assert inc.tolist() == [[0, 1], [1, 0]]
    assert cycles(inc) == [(0, 1)]


def test_incidence_reports_ties():
    vals = np.array([[np.nan, 1.0, 1.0], [0.5, np.nan, 2.0], [2.0, 0.5, np.nan]])
    inc = incidence(vals)
    assert inc[0].tolist() == [0, 1, 1]
    assert len(cycles(inc)) >= 2


def test_maxmin_two_strategy_risk_dominant():
    rep = maxmin_test(TWO_STRATEGY)
    assert rep.stable == 0
    assert rep.local_resistance
    assert rep.candidates == (0,)


def test_maxmin_symmetric_ties_inconclusive():
    g = OnePopGame([[5, 1, 1], [1, 5, 1], [1, 1, 5]])
    rep = maxmin_test(g)
    assert rep.candidates == (0, 1, 2)
    assert rep.stable is None


def test_maxmin_uneven_tech_conclusive():
    rep = maxmin_test(TECH_UNEVEN)
    assert rep.stable == 2
    assert rep.local_resistance
    assert rep.radii[2] == pytest.approx(0.5 * 23**2 / 40)


def test_ndg_incidence_steps_to_adjacent_conventions():
    panel_b = ndg_build(Frontier(3, 1, 0.5), 10)
    for game in (NDG, panel_b):
        for rule in (CostRule.LOGIT, CostRule.INTENTIONAL):
            vals = radius_matrix(game, rule)
            inc = incidence(vals)
            for m in range(game.k):
                targets = [j for j in range(game.k) if inc[m, j]]
                assert all(abs(j - m) == 1 for j in targets)


def test_ndg_maxmin_agrees_with_demand_argmax():
    from ldl import stable_division

    div = stable_division(Frontier(1, 3, 0.5), 0.25, "intentional")
    rep = maxmin_test(NDG, CostRule.INTENTIONAL)
    assert rep.stable is not None
    assert rep.stable + 1 == div.m_star  # demand index is 1-based


# ---------------------------------------------------------------------------
# Exact transition costs


def test_transition_cost_k2_equals_exit_cost():
    a = transition_cost_bruteforce(TWO_STRATEGY, 12, 0, 1)
    b = exit_bruteforce(TWO_STRATEGY, 12, 0)
    assert a.cost == pytest.approx(b.cost, abs=1e-12)


def test_transition_cost_dominates_exit_cost():
    n = 30
    exit_cost = exit_bruteforce(TECH, n, 0).cost
    for j in (1, 2):
        c = transition_cost_bruteforce(TECH, n, 0, j)
        assert c.cost >= exit_cost - 1e-12


def test_transition_cost_tech_n60_frozen_values():
    assert transition_cost_bruteforce(TECH, 60, 0, 1).normalized == pytest.approx(
        3.641111111111, abs=1e-9
    )
    assert transition_cost_bruteforce(TECH, 60, 0, 2).normalized == pytest.approx(
        4.657777777778, abs=1e-9
    )


def test_transition_cost_converges_to_radius_minimum():
    rm = radius_matrix(TECH)
    lo_limit = min(rm[0, 1], rm[0, 2])
    lo_60 = min(
        transition_cost_bruteforce(TECH, 60, 0, j).normalized for j in (1, 2)
    )
    assert lo_60 == pytest.approx(lo_limit, rel=0.05)


def test_transition_cost_upper_bounds():
    # always below the straight-line witness; within 5/n for small payoffs
    for g in (TWO_STRATEGY, ROUTED):
        rm = radius_matrix(g)
        for n in (30, 60):
            for i in range(g.k):
                for j in range(g.k):
                    if i == j:
                        continue
                    c = transition_cost_bruteforce(g, n, i, j).normalized
                    witness = _straight_witness_cost(g, n, i, j)
                    assert c <= witness / n + 1e-12
                    assert c <= rm[i, j] + 5 / n


def _straight_witness_cost(game, n, i, j):
    from ldl import in_basin

    state = convention_state(game, n, i)
    states = [state]
    while not in_basin(game, states[-1], j):
        states.append(apply_move(states[-1], Move(i, j)))
    return path_cost(game, CostRule.LOGIT, states)


def test_incidence_agreement_radius_vs_oracle():
    # rows whose argmin margin is well separated agree between R and C^(n)
    n = 60
    for g in (TECH, TECH_UNEVEN, ROUTED):
        rm = radius_matrix(g)
        cm = transition_cost_matrix(g, n)
        inc_r = incidence(rm)
        inc_c = incidence(cm)
        for i in range(g.k):
            row = sorted(rm[i, j] for j in range(g.k) if j != i)
            margin = row[1] - row[0]
            err = max(
                abs(cm[i, j] - rm[i, j]) for j in range(g.k) if j != i
            )
            if margin > 2 * err:
                assert inc_r[i].tolist() == inc_c[i].tolist()


# ---------------------------------------------------------------------------
# Rooted trees


def test_arborescence_two_strategies_picks_cheaper_inflow():
    vals = radius_matrix(TWO_STRATEGY)
    res = arborescence_root(vals)
    assert res.roots == (0,)  # tree toward 0 costs C[1,0] = 1/6


def test_arborescence_all_ties():
    vals = np.full((3, 3), 2.0)
    np.fill_diagonal(vals, np.nan)
    assert arborescence_root(vals).roots == (0, 1, 2)


def test_arborescence_methods_agree_on_random_matrices():
    rng = np.random.default_rng(7)
    for k in (3, 4, 5):
        for _ in range(20):
            vals = rng.uniform(0.1, 5.0, size=(k, k))
            np.fill_diagonal(vals, np.nan)
            for r in range(k):
                assert _tree_cost_edmonds(vals, r) == pytest.approx(
                    _tree_cost_exhaustive(vals, r), abs=1e-9
                )


def test_arborescence_exhaustive_cap():
    vals = np.ones((10, 10))
    with pytest.raises(GuardrailExceeded):
        arborescence_root(vals, method="exhaustive")


def test_arborescence_refuses_unknown_methods():
    vals = radius_matrix(TWO_STRATEGY)
    for method in ("bogus", "Edmonds", ""):
        with pytest.raises(ConditionError, match="auto, exhaustive, edmonds"):
            arborescence_root(vals, method=method)


MALFORMED_COST_MATRICES = [
    (np.ones((2, 3)), "k x k"),
    (np.ones((1, 1)), "k x k"),
    (np.ones(3), "k x k"),
    (np.array([[np.nan, 1, np.nan], [2, np.nan, 3], [1, 2, np.nan]]), "finite"),
    (np.array([[np.nan, np.inf], [1, np.nan]]), "finite"),
    (np.array([[np.nan, 1], [-np.inf, np.nan]]), "finite"),
]


@pytest.mark.parametrize("values, message", MALFORMED_COST_MATRICES)
def test_tree_and_maxmin_refuse_a_malformed_cost_matrix(values, message):
    # A NaN at [0, 2] once gave roots (1,) and a maxmin "stable 1", and a
    # 2 x 3 matrix roots (0, 1).
    for method in TREE_METHODS:
        with pytest.raises(ConditionError, match=message):
            arborescence_root(values, method)
    with pytest.raises(ConditionError, match=message):
        maxmin_test_matrix(values)



@pytest.mark.parametrize("values, message", MALFORMED_COST_MATRICES)
def test_incidence_refuses_a_malformed_cost_matrix(values, message):
    # The NaN at [0, 2] was skipped: incidence gave [[0,1,0],[1,0,0],[1,0,0]]
    # where maxmin_test_matrix refused the same matrix.
    with pytest.raises(ConditionError, match=message):
        incidence(values)


def test_incidence_reads_no_diagonal():
    vals = np.array([[np.nan, 1.0, 2.0], [0.5, np.nan, 2.0], [2.0, 0.5, np.nan]])
    odd = vals.copy()
    np.fill_diagonal(odd, [np.inf, -np.inf, np.nan])
    assert incidence(odd).tolist() == incidence(vals).tolist() == [
        [0, 1, 0], [1, 0, 0], [0, 1, 0]]

def test_maxmin_conclusive_matches_tree_root_seeded_sweep():
    games = random_condition_a_games(50, seed=2025)
    conclusive = 0
    for g in games:
        rep = maxmin_test(g)
        if rep.stable is None:
            continue
        conclusive += 1
        roots = arborescence_root(radius_matrix(g)).roots
        assert rep.stable in roots
    assert conclusive >= 20


# ---------------------------------------------------------------------------
# Stationary distributions


def _birth_death_stationary(game, n, beta):
    """Closed-form stationary law for two-strategy chains (detailed balance)."""
    states, P = dense_kernel(game, n, beta)
    idx = {s: i for i, s in enumerate(states)}
    pi = np.ones(len(states))
    order = sorted(states, key=lambda s: s[0])
    for a, b in zip(order, order[1:]):
        pi[idx[b]] = pi[idx[a]] * P[idx[a], idx[b]] / P[idx[b], idx[a]]
    return states, pi / pi.sum()


def test_invariant_measure_matches_birth_death_oracle():
    for beta in (0.5, 1.0, 4.0, 16.0):
        states, got = invariant_measure(TWO_STRATEGY, 8, beta)
        oracle_states, want = _birth_death_stationary(TWO_STRATEGY, 8, beta)
        assert states == oracle_states
        assert np.abs(got - want).max() <= 1e-12


def test_invariant_measure_reports_lost_conditioning():
    from ldl.errors import LdlError

    with pytest.raises(LdlError):
        invariant_measure(TECH_UNEVEN, 10, 64.0)
    # the ladder stops at the last numerically sound rung instead of raising
    trace = beta_ladder_trace(TECH_UNEVEN, 10, 2, beta0=32.0, mass_target=2.0)
    assert trace and trace[-1][0] == 32.0


def test_invariant_measure_normalized_and_positive():
    for beta in (0.0, 1.0, 8.0):
        states, pi = invariant_measure(TWO_STRATEGY, 8, beta)
        assert abs(pi.sum() - 1.0) <= 1e-10
        assert np.all(pi > 0)


def test_invariant_measure_mass_monotone_in_beta():
    conv = (8, 0)
    masses = []
    for beta in (1.0, 2.0, 4.0, 8.0):
        states, pi = invariant_measure(TWO_STRATEGY, 8, beta)
        masses.append(pi[states.index(conv)])
    assert all(b > a for a, b in zip(masses, masses[1:]))


stationary_games = st.one_of(
    st.builds(lambda seed, k: random_condition_a_games(1, seed=seed, k=k)[0],
              st.integers(0, 2**16), st.sampled_from((3, 4))),
    st.sampled_from((ndg_build(Frontier(1, 3, 0.5), 4), TWO_POP_2X2)),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(game=stationary_games, n=st.integers(1, 6),
       beta=st.sampled_from((0.0, 0.5, 1.0, 4.0)))
def test_invariant_measure_is_a_stationary_law(game, n, beta):
    states, pi = invariant_measure(game, n, beta)
    _, P = dense_kernel(game, n, beta)
    assert np.all(pi >= 0)
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert np.abs(pi @ P - pi).max() <= 1e-12


def test_invariant_measure_guardrail():
    with pytest.raises(GuardrailExceeded):
        invariant_measure(TECH, 500, 1.0)


def test_beta_ladder_reaches_majority_before_cap():
    trace = beta_ladder_trace(TWO_STRATEGY, 8, 0)
    assert trace[-1][1] > 0.5
    assert trace[-1][0] <= 64.0
    masses = [m for _, m in trace]
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_beta_ladder_refuses_bad_inputs():
    # beta0 = 0 never doubles off 0, and a refused rung used to end the
    # ladder as if the solve had lost conditioning
    for beta0 in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConditionError, match="beta0"):
            beta_ladder_trace(TWO_STRATEGY, 4, 0, beta0=beta0, mass_target=0.99)
    with pytest.raises(ConditionError, match="outside 1..2"):
        beta_ladder_trace(TWO_STRATEGY, 4, 2)
    with pytest.raises(GuardrailExceeded):
        beta_ladder_trace(TECH, 500, 0)
    assert beta_ladder_trace(TWO_STRATEGY, 4, 0, beta0=1e-3, mass_target=0.99)


def test_beta_ladder_refuses_a_bad_population_size():
    # the values resolve_stability's dropped measure_n option refused
    for bad in (0, -3, "abc", 2.5, True):
        with pytest.raises(ConditionError, match="population size n"):
            beta_ladder_trace(TWO_STRATEGY, bad, 0)


def test_beta_ladder_refuses_nan_or_low_cap_and_nan_target():
    # A NaN or sub-beta0 cap returned [] without a solve, and a NaN target
    # was never exceeded, so the ladder climbed to the cap.
    for cap in (math.nan, -1.0, 0.5):
        with pytest.raises(ConditionError, match="beta_cap"):
            beta_ladder_trace(TWO_STRATEGY, 4, 0, beta_cap=cap)
    with pytest.raises(ConditionError, match="mass_target"):
        beta_ladder_trace(TWO_STRATEGY, 4, 0, mass_target=math.nan)
    # a cap equal to beta0 solves the one rung, and a target above 1 is allowed
    assert [b for b, _ in beta_ladder_trace(TWO_STRATEGY, 4, 0, beta_cap=1.0)] == [1.0]
    assert beta_ladder_trace(TWO_STRATEGY, 4, 0, mass_target=2.0)[-1][0] == 64.0


def test_beta_ladder_raises_a_refused_rule():
    # An UnsupportedRuleError is an LdlError, and only lost conditioning
    # ends the ladder: these two calls returned [] as if it had.
    with pytest.raises(UnsupportedRuleError, match="unknown rule"):
        beta_ladder_trace(TECH, 4, 0, rule="x")
    with pytest.raises(UnsupportedRuleError, match="two-population"):
        beta_ladder_trace(TECH, 4, 0, rule=CostRule.INTENTIONAL)


def test_invariant_measure_refuses_a_huge_beta_without_a_warning():
    # -beta * cost overflows to -inf, whose weight 0 is the right limit;
    # numpy's overflow warning leaked out ahead of the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LdlError, match="lost conditioning"):
            invariant_measure(TECH, 4, 1e308)


def test_invariant_argmax_is_stable_convention():
    rep = maxmin_test(TECH_UNEVEN)
    states, pi = invariant_measure(TECH_UNEVEN, 10, 4.0)
    top = states[int(np.argmax(pi))]
    assert top == convention_state(TECH_UNEVEN, 10, rep.stable)


def test_resolve_stability_oracle_fallback():
    # TECH's radii tie, so no convention is found
    assert resolve_stability(TECH).stable is None
    analysis = resolve_stability(TECH_UNEVEN, oracle_n=30)
    assert analysis.stable == 2
    assert analysis.oracle_tree is not None
    assert 2 in analysis.oracle_tree.roots
    trace = beta_ladder_trace(TECH_UNEVEN, 8, analysis.stable)
    assert trace[-1][1] > 0.5


# ---------------------------------------------------------------------------
# Banded GTH against the dense elimination it replaced


def _dense_gth(P):
    """Dense GTH elimination over the full matrix, O(N^3): the reference.

    Only called on well-conditioned kernels, so it has no underflow checks.
    """
    A = np.array(P, dtype=float)
    size = A.shape[0]
    depart = np.empty(size)
    for k in range(size - 1, 0, -1):
        depart[k] = A[k, :k].sum()
        A[k, :k] /= depart[k]
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.zeros(size)
    x[0] = 1.0
    for k in range(1, size):
        x[k] = (x[:k] @ A[:k, k]) / depart[k]
    return x / x.sum()


PAIR_2X2 = TwoPopGame([[2, 0], [0, 1]], [[1, 0], [0, 2]])
SEEDED = random_condition_a_games(2, seed=31)
BANDED_CASES = [(g, 20, f"seeded{i}") for i, g in enumerate(SEEDED)] + [
    (ndg_build(Frontier(1, 3, 0.5), 4), 6, "ndg L=4"),  # bandwidth 196
    (PAIR_2X2, 20, "pair 2x2"),
    (TECH_UNEVEN, 30, "stiff"),  # at beta 4, 433 of 496 masses are exactly 0
    (ndg_build(Frontier(1, 3, 0.5), 5), 3, "ndg L=5"),  # four demands a side
]


@pytest.mark.parametrize("beta", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("game,n,label", BANDED_CASES,
                         ids=[c[2] for c in BANDED_CASES])
def test_banded_gth_matches_dense_gth(game, n, label, beta):
    states, P = dense_kernel(game, n, beta)
    want = _dense_gth(P)
    got_states, got = invariant_measure(game, n, beta)
    assert got_states == states
    # the dense reference anchors its back-substitution at state 0, so
    # the same masses underflow to 0 only if the solver anchors there too
    assert np.array_equal(got == 0, want == 0)
    if label == "stiff":
        assert (want == 0).any() == (beta == 4.0)
    if isinstance(game, TwoPopGame):  # eliminated out of colex order
        dist = [sum(n - side[-1] for side in s) for s in states]
        assert dist != sorted(dist)
    for m in range(game.k):
        x = states.index(convention_state(game, n, m))
        assert abs(got[x] - want[x]) <= 1e-12 * want[x]
        assert convention_mass(game, n, beta, m) == got[x]


EDGE_CASES = [(TWO_STRATEGY, n, f"eliminates {n}") for n in (
    1, GTH_BLOCK - 1, GTH_BLOCK, GTH_BLOCK + 1, 2 * GTH_BLOCK)] + [
    (ndg_build(Frontier(1, 3, 0.5), 5), 3, "front past a block"),
]


@pytest.mark.parametrize("beta", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("game,n,label", EDGE_CASES, ids=[c[2] for c in EDGE_CASES])
def test_block_gth_edges_match_dense_gth(game, n, label, beta):
    # TWO_STRATEGY has n + 1 states, all but state 0 eliminated: part of a
    # block, one short of it, exactly one, one past it, and two blocks
    states, P = dense_kernel(game, n, beta)
    if isinstance(game, TwoPopGame):  # couplings reach past a block's width
        dist = np.array([sum(n - side[-1] for side in s) for s in states])
        order = np.argsort(dist, kind="stable")
        i, j = np.nonzero(P[np.ix_(order, order)])
        assert np.abs(i - j).max() > 2 * GTH_BLOCK
    want = _dense_gth(P)
    got_states, got = invariant_measure(game, n, beta)
    assert got_states == states
    assert np.array_equal(got == 0, want == 0)
    for m in range(game.k):
        x = states.index(convention_state(game, n, m))
        assert abs(got[x] - want[x]) <= 1e-12 * want[x]


@pytest.mark.parametrize("panel", [1, 500])
def test_block_gth_schur_product_in_panels(monkeypatch, panel):
    # A wide front gets its Schur complement a few rows per product: one row
    # for a 1-entry panel, three for 500 entries at this front of 160 states
    game = ndg_build(Frontier(1, 3, 0.5), 5)
    _, whole = invariant_measure(game, 3, 1.0)
    monkeypatch.setattr(stability, "_PANEL", panel)
    _, got = invariant_measure(game, 3, 1.0)
    assert np.all(whole > 0)
    assert np.all(np.abs(got - whole) <= 1e-13 * whole)


LEVEL_CASES = [
    (TWO_STRATEGY, (1, 5, 17)),
    (TECH, (1, 4, 9)),
    (random_condition_a_games(1, seed=5, k=4)[0], (1, 3, 6)),
    (TWO_POP_2X2, (1, 4, 9)),
    (ndg_build(Frontier(1, 3, 0.5), 4), (1, 2, 3)),
]


@pytest.mark.parametrize("game,ns", LEVEL_CASES, ids=["k=2", "k=3", "k=4", "pair 2x2", "ndg L=4"])
def test_solve_is_handed_each_states_distance_level(monkeypatch, game, ns):
    # the levels are read off the colex layout, not off the state tuples
    handed = []
    solve = stability._gth_stationary
    monkeypatch.setattr(stability, "_gth_stationary",
                        lambda entries, dist: solve(entries, handed.append(dist) or dist))
    for n in ns:
        states, _ = invariant_measure(game, n, 1.0)
        sides = (lambda s: s) if isinstance(game, TwoPopGame) else (lambda s: (s,))
        assert handed.pop().tolist() == [sum(n - side[-1] for side in sides(s))
                                         for s in states]


def _birth_death_entries(size, up, down):
    """The (i, j, P[i, j]) entries of a walk on 0..size-1 that steps up with
    probability ``up`` and down with ``down``, holding the rest."""
    i = np.arange(size)
    rows = np.concatenate((i[:-1], i[1:], i))
    cols = np.concatenate((i[1:], i[:-1], i))
    hold = 1.0 - np.where(i < size - 1, up, 0.0) - np.where(i > 0, down, 0.0)
    vals = np.concatenate((np.full(size - 1, up), np.full(size - 1, down), hold))
    return (rows, cols, vals), i


@pytest.mark.parametrize("size,down", [(3, 1e-300), (3 * GTH_BLOCK, 1e-20)],
                         ids=["in the last block", "past the first block"])
def test_block_back_substitution_overflow_is_lost_conditioning(size, down):
    # Every pivot (``down``) is above the smallest normal, so the elimination
    # passes, but the masses grow by up / down a state and overflow in the
    # back-substitution: at state 2 of 3, or at state 16 of 48, the first of
    # the second block it solves.
    entries, dist = _birth_death_entries(size, 0.5, down)
    with pytest.raises(LdlError, match=re.escape(stability._UNDERFLOW)):
        stability._gth_stationary(entries, dist)
    # a milder walk of the same shape solves
    entries, dist = _birth_death_entries(size, 0.25, 0.5)
    pi = stability._gth_stationary(entries, dist)
    assert np.allclose(pi, 0.5 ** np.arange(size) / (2 - 0.5 ** (size - 1)), rtol=1e-12)


def test_banded_bandwidths():
    # a move shifts the colex rank by at most n + 1 (k = 3), times the
    # side count 28 of the ndg game's own bandwidth 7 for two populations
    _, band = transition_matrix(TECH, 30, 1.0)
    assert band.shape == (496, 2 * 31 + 1)
    _, band = transition_matrix(ndg_build(Frontier(1, 3, 0.5), 4), 6, 1.0)
    assert band.shape == (784, 2 * 196 + 1)
    _, band = transition_matrix(PAIR_2X2, 30, 1.0)
    assert band.shape == (961, 2 * 31 + 1)


def test_invariant_measure_past_two_thousand_states():
    # 2,016 states: a power iteration above 2,000 states returned masses
    # (0.305, 0.334, 0.361) here; the stationary law sits on convention 3
    game = tech_game(16, 17, 18, 1)
    masses = [convention_mass(game, 62, 1.0, m) for m in range(3)]
    assert masses[2] >= 0.99999
    assert masses[0] < 1e-10 and masses[1] < 1e-10


def test_invariant_entry_points_validate_their_inputs():
    with pytest.raises(ConditionError):
        invariant_measure(TECH, 0, 1.0)
    with pytest.raises(ConditionError):
        invariant_measure(TECH, 8, -1.0)
    for m in (-1, 3):
        with pytest.raises(ConditionError, match="outside 1..3"):
            convention_mass(TECH, 8, 1.0, m)
    with pytest.raises(ConditionError, match="outside 1..2"):
        convention_mass(PAIR_2X2, 4, 1.0, 2)


def test_convention_mass_honours_the_guardrail():
    with pytest.raises(GuardrailExceeded):
        convention_mass(TECH, 24, 1.0, 0, guardrail=100)  # 325 states
    assert convention_mass(TECH, 24, 1.0, 0, guardrail=325) > 0
