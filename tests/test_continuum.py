"""continuum: straight/oblique segment costs, the path functional, and the
three-strategy transition formulas."""

import numpy as np
import pytest

from ldl import (
    ConditionError,
    ContinuumBlockPath,
    Move,
    OnePopGame,
    apply_move,
    mixed_equilibrium,
    oblique_cost,
    omega,
    pairwise_escape_term,
    skew,
    straight_cost,
    tech_game,
    transition_cost_limit_3,
)
from ldl.chain import path_cost, CostRule
from ldl.continuum import in_closed_basin
from ldl.stability import transition_cost_bruteforce
from gamegen import ROUTED, TECH, TECH_SKEWED, TWO_STRATEGY


def test_straight_cost_two_strategy_edge():
    c = straight_cost(TWO_STRATEGY, 0, (1, 0), (1 / 3, 2 / 3))
    assert c == pytest.approx(2 / 3, abs=1e-12)


def test_straight_cost_zero_for_equal_points():
    assert straight_cost(TECH, 0, (0.5, 0.3, 0.2), (0.5, 0.3, 0.2)) == 0.0


def test_straight_cost_tech_edge_equals_limit_term():
    p = mixed_equilibrium(TECH, (0, 1))
    c = straight_cost(TECH, 0, (1, 0, 0), p)
    assert c == pytest.approx(3.515625, abs=1e-12)


def test_straight_cost_rejects_non_collinear():
    with pytest.raises(ConditionError):
        straight_cost(TECH, 0, (1, 0, 0), (0.4, 0.3, 0.3))


def test_straight_cost_matches_discrete_limit():
    # |I^(n)/n - cbar| <= C/n along a fixed in-basin straight segment
    p = np.array([0.8, 0.12, 0.08])
    frac = 0.3
    cbar = straight_cost(TECH, 0, p, p + frac * (np.eye(3)[1] - np.eye(3)[0]))
    scaled = []
    for n in (50, 100, 200):
        x = tuple(int(round(v * n)) for v in p)
        m = int(round(frac * n))
        states = [x]
        for _ in range(m):
            states.append(apply_move(states[-1], Move(0, 1)))
        err = abs(path_cost(TECH, CostRule.LOGIT, states) / n - cbar)
        scaled.append(err * n)
    assert max(scaled) < 10  # bounded constant: O(1/n) convergence
    assert scaled[-1] <= scaled[0] * 1.5


def test_omega_single_segment_reproduces_limit_terms():
    for j in (1, 2):
        a = TECH.payoffs
        zeta = (a[0, 0] - a[j, 0]) / ((a[0, 0] - a[j, 0]) + (a[j, j] - a[0, j]))
        path = ContinuumBlockPath(0, (j,), (zeta,))
        assert omega(TECH, path) == pytest.approx(
            pairwise_escape_term(TECH, 0, j), abs=1e-12
        )


def test_omega_single_segment_is_quadratic_in_length():
    a = TECH.payoffs
    j = 1
    drop = a[0, 0] - a[j, 0]
    curv = a[0, j] - a[0, 0] - a[j, j] + a[j, 0]
    for t in (0.1, 0.2, 0.3, 0.4):
        path = ContinuumBlockPath(0, (j,), (t,))
        val = omega(TECH, path, require_boundary=False)
        assert val == pytest.approx(0.5 * t * (2 * drop + t * curv), abs=1e-12)


def test_omega_degenerate_second_segment_is_free():
    zeta = 15 / 32
    one = ContinuumBlockPath(0, (1,), (zeta,))
    two = ContinuumBlockPath(0, (1, 2), (zeta, 0.0))
    assert omega(TECH, two) == pytest.approx(omega(TECH, one), abs=1e-12)


def test_omega_interior_candidate_is_never_optimal():
    # two-segment path ending on the third strategy's tipping facet; nudging
    # mass between the segments (staying on the facet) lowers the cost on one
    # side, so interior mixtures cannot minimize
    def boundary_t2(t1):
        # 17 q0 - 2 q1 - 15 q2 = 0 along q = (1 - t1 - t2, t1, t2)
        return (17 - 19 * t1) / 32

    t1 = 0.1
    base = ContinuumBlockPath(0, (1, 2), (t1, boundary_t2(t1)))
    w0 = omega(TECH, base)
    eps = 1e-3
    perturbed = []
    for t1p in (t1 - eps, t1 + eps):
        path = ContinuumBlockPath(0, (1, 2), (t1p, boundary_t2(t1p)))
        perturbed.append(omega(TECH, path))
    assert min(perturbed) < w0 - 1e-9


def test_omega_rejects_paths_leaving_the_basin():
    with pytest.raises(ConditionError):
        omega(TECH, ContinuumBlockPath(0, (1,), (0.9,)), require_boundary=False)


def test_oblique_reduces_to_straight_when_single_source():
    p = np.array([0.7, 0.2, 0.1])
    q = p + 0.15 * (np.eye(3)[2] - np.eye(3)[1])
    assert oblique_cost(TECH, 0, p, q, 0.15, 0.0) == pytest.approx(
        straight_cost(TECH, 0, p, q), abs=1e-14
    )
    q2 = p + 0.1 * (np.eye(3)[2] - np.eye(3)[0])
    assert oblique_cost(TECH, 0, p, q2, 0.0, 0.1) == pytest.approx(
        straight_cost(TECH, 0, p, q2), abs=1e-14
    )


def test_oblique_matches_discrete_staircase():
    n = 200
    x = (120, 60, 20)
    a_steps, b_steps, rounds = 1, 1, 30
    states = [x]
    for _ in range(rounds):
        for _ in range(a_steps):
            states.append(apply_move(states[-1], Move(1, 2)))
        for _ in range(b_steps):
            states.append(apply_move(states[-1], Move(0, 2)))
    p = np.array(x) / n
    q = np.array(states[-1]) / n
    a = rounds * a_steps / n
    b = rounds * b_steps / n
    limit = oblique_cost(TECH, 0, p, q, a, b)
    discrete = path_cost(TECH, CostRule.LOGIT, states) / n
    assert discrete == pytest.approx(limit, rel=0.02)


def test_oblique_rejects_bad_decomposition():
    p = np.array([0.7, 0.2, 0.1])
    q = p + 0.15 * (np.eye(3)[2] - np.eye(3)[1])
    with pytest.raises(ConditionError):
        oblique_cost(TECH, 0, p, q, 0.05, 0.10)


# ---------------------------------------------------------------------------
# Three-strategy transition costs


def test_transition_costs_symmetric_game():
    g = OnePopGame([[5, 1, 1], [1, 5, 1], [1, 1, 5]])
    res = transition_cost_limit_3(g)
    assert res.skew == 0
    assert "potential" in res.note
    assert res.c01 == pytest.approx((5 - 1) / 4)
    assert res.c02 == pytest.approx((5 - 1) / 4)


def test_transition_costs_tech_direct_routes():
    res = transition_cost_limit_3(TECH)
    assert res.skew == 6.0
    assert not res.relabeled
    assert res.c01 == pytest.approx(3.515625, abs=1e-12)
    assert res.c02 == pytest.approx(4.515625, abs=1e-12)
    assert res.route_01 == "direct" and res.route_02 == "direct"


def test_transition_costs_strong_skew_prefers_via_route():
    res = transition_cost_limit_3(TECH_SKEWED)
    assert res.c01 == pytest.approx(2.25, abs=1e-12)
    assert res.c02 == pytest.approx(23 / 6, abs=1e-12)  # 2.25 + oblique leg
    assert res.route_02 == "via_1"
    assert res.candidates["far_direct"] == pytest.approx(6.25, abs=1e-12)


def test_transition_costs_relabel_negative_skew():
    flipped = tech_game(16, 16, 16, -1)  # tech with strategies 1 and 2 swapped
    res = transition_cost_limit_3(flipped)
    assert res.relabeled
    assert res.c01 == pytest.approx(4.515625, abs=1e-12)
    assert res.c02 == pytest.approx(3.515625, abs=1e-12)


def test_transition_costs_against_oracle_tech():
    for (g, tol) in ((TECH, 0.05), (TECH_SKEWED, 0.05)):
        res = transition_cost_limit_3(g)
        c12 = transition_cost_bruteforce(g, 60, 0, 1).normalized
        c13 = transition_cost_bruteforce(g, 60, 0, 2).normalized
        assert c12 == pytest.approx(res.c01, rel=tol)
        assert c13 == pytest.approx(res.c02, rel=tol)


def test_transition_cost_skewed_oracle_value_frozen():
    got = transition_cost_bruteforce(TECH_SKEWED, 60, 0, 2).normalized
    assert got == pytest.approx(4.024444444444, abs=1e-9)


def test_transition_costs_against_oracle_more_games():
    from ldl import tech_game

    for g in (ROUTED, tech_game(16, 16, 16, -1), tech_game(16, 12, 24, 1)):
        res = transition_cost_limit_3(g)
        for target, limit in ((1, res.c01), (2, res.c02)):
            oracle = transition_cost_bruteforce(g, 60, 0, target).normalized
            assert oracle == pytest.approx(limit, rel=0.05)
            assert oracle >= limit - 1e-9  # finite n only overshoots


# ---------------------------------------------------------------------------
# Route-comparison asymmetry


def co_com_config(game, u):
    """Triangle configuration: r on the 0->2 ray from the full mixture, p on
    the (0,1) tipping line, q the full mixture itself."""
    q = mixed_equilibrium(game, (0, 1, 2))
    e0, e1, e2 = np.eye(3)
    r = q + u * (e0 - e2)
    a = game.payoffs
    alpha = u * (a[0, 0] - a[1, 0] - a[0, 2] + a[1, 2]) / (
        a[0, 0] - a[1, 0] - a[0, 1] + a[1, 1]
    )
    beta = u - alpha
    p = r + alpha * (e1 - e0)
    return r, p, q, alpha, beta


def test_route_comparison_tracks_the_asymmetry_sign():
    r, p, q, a, b = co_com_config(ROUTED, 0.25)
    assert all(in_closed_basin(ROUTED, 0, x) for x in (r, p, q))
    lhs = straight_cost(ROUTED, 0, r, q)
    rhs = straight_cost(ROUTED, 0, r, p) + oblique_cost(ROUTED, 0, p, q, a, b)
    assert skew(ROUTED, 0, 2, 1) > 0
    assert lhs > rhs

    perm = [0, 2, 1]
    flipped = OnePopGame(ROUTED.payoffs[np.ix_(perm, perm)])
    r, p, q, a, b = co_com_config(flipped, 0.08)
    assert all(in_closed_basin(flipped, 0, x) for x in (r, p, q))
    lhs = straight_cost(flipped, 0, r, q)
    rhs = straight_cost(flipped, 0, r, p) + oblique_cost(flipped, 0, p, q, a, b)
    assert skew(flipped, 0, 2, 1) < 0
    assert lhs < rhs
