"""game-core: construction, validation, equilibria, demand games."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldl import (
    ConditionError,
    CostRule,
    Frontier,
    OnePopGame,
    TwoPopGame,
    exit_limit_two_pop,
    game_from_json,
    game_to_json,
    in_basin,
    mbp_margin,
    mixed_equilibrium,
    ndg_build,
    skew,
    tech_game,
    tilde_s,
    validate_one_pop,
    validate_two_pop,
)
from ldl.chain import enumerate_states
from ldl.escape import two_pop_thresholds
from ldl.games import EQ_TOL, POS_TOL, _support_family
from gamegen import (TECH, TWO_POP_2X2, TWO_STRATEGY, random_condition_a_games,
                     random_decimal_games)


def test_tech_game_matrix():
    g = tech_game(16, 16, 16, 1)
    expected = np.array([[16, -1, 1], [1, 16, -1], [-1, 1, 16]], dtype=float)
    assert np.array_equal(g.payoffs, expected)


def test_tech_game_zero_coupling_is_diagonal():
    g = tech_game(3, 5, 7, 0)
    assert np.array_equal(g.payoffs, np.diag([3.0, 5.0, 7.0]))


def test_tech_game_satisfies_small_coupling_condition():
    # 3d < min b_i guarantees the structural conditions
    assert 3 * 1 < 16
    assert validate_one_pop(tech_game(16, 16, 16, 1)).condition_holds


def test_validate_one_pop_tech():
    rep = validate_one_pop(TECH)
    assert rep.coordination and rep.bandwagon and rep.supports_all_ok
    assert not rep.partial
    assert len(rep.supports_ok) == 7  # every nonempty subset of 3 strategies


def test_validate_identity_two_strategy():
    rep = validate_one_pop(OnePopGame(np.eye(2)))
    assert rep.coordination
    assert rep.bandwagon  # vacuous: no triples with k = 2


def test_bandwagon_fails_for_large_coupling():
    # d = 6 violates 3d < min b and indeed some triple margin goes nonpositive
    rep = validate_one_pop(tech_game(16, 16, 16, 6))
    assert not rep.bandwagon
    g = tech_game(16, 16, 16, 6)
    from itertools import permutations

    assert min(mbp_margin(g, *t) for t in permutations(range(3), 3)) <= 0


def test_non_finite_entries_rejected():
    with pytest.raises(ConditionError):
        OnePopGame([[1, math.inf], [0, 1]])
    with pytest.raises(ConditionError):
        OnePopGame([[1, 0, 0], [0, 1, 0]])


def test_mbp_margin_positive_iff_flag():
    for g in random_condition_a_games(5, seed=11):
        from itertools import permutations

        assert all(mbp_margin(g, *t) > 0 for t in permutations(range(3), 3))


def test_skew_identity_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = OnePopGame(rng.integers(-5, 10, size=(4, 4)).astype(float))
        for (i, j, k) in ((0, 1, 2), (1, 3, 2), (2, 0, 3)):
            assert mbp_margin(g, i, j, k) - mbp_margin(g, i, k, j) == skew(g, i, j, k)


def test_mixed_equilibrium_two_strategy():
    p = mixed_equilibrium(TWO_STRATEGY, (0, 1))
    assert p is not None
    assert np.allclose(p, [1 / 3, 2 / 3])


def test_mixed_equilibrium_singleton_is_pure():
    p = mixed_equilibrium(TECH, (0,))
    assert np.array_equal(p, [1, 0, 0])


def test_mixed_equilibrium_tech_full_support():
    p = mixed_equilibrium(TECH, (0, 1, 2))
    assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3])


def test_mixed_equilibrium_payoff_indifference_tolerance():
    for g in random_condition_a_games(10, seed=5):
        p = mixed_equilibrium(g, (0, 1, 2))
        assert p is not None
        pay = g.payoffs @ p
        assert abs(pay[0] - pay[1]) <= 1e-10
        assert abs(pay[1] - pay[2]) <= 1e-10


def test_mixed_equilibrium_absent_for_degenerate_system():
    # identical rows make the indifference system rank deficient
    g = OnePopGame([[2, 2, 0], [2, 2, 0], [0, 0, 1]])
    assert mixed_equilibrium(g, (0, 1)) is None


def test_ndg_build_matrices_coarse_grid():
    fr = Frontier(1, 3, 0.5)  # f(x) = sqrt(1 - x/3) on [0, 3]
    g = ndg_build(fr, 3)
    f1, f2 = math.sqrt(2 / 3), math.sqrt(1 / 3)
    assert np.allclose(g.alpha, [[1, 1], [0, 2]])
    assert np.allclose(g.beta, [[f1, f2], [0, f2]])


def test_ndg_incompatible_demands_pay_zero():
    g = ndg_build(Frontier(1, 3, 0.5), 10)
    for i in range(g.k):
        for j in range(i):
            assert g.alpha[i, j] == 0.0 and g.beta[i, j] == 0.0


def test_ndg_diagonal_monotonicity():
    g = ndg_build(Frontier(1, 3, 0.5), 10)
    diag_a = np.diag(g.alpha)
    diag_b = np.diag(g.beta)
    assert np.all(np.diff(diag_a) > 0)
    assert np.all(np.diff(diag_b) < 0)


@pytest.mark.parametrize("L", [3, 4, 8, 31])
def test_ndg_build_is_the_cell_by_cell_game(L):
    # Cell (i, j) pays (delta i, f(delta j)) for i <= j and zero below the
    # diagonal, bit for bit as one frontier call per cell gives it.
    fr = Frontier(1.5, 2, 0.3)
    delta = fr.s_bar / L
    alpha, beta = np.zeros((L - 1, L - 1)), np.zeros((L - 1, L - 1))
    for i in range(1, L):
        for j in range(i, L):
            alpha[i - 1, j - 1] = delta * i
            beta[i - 1, j - 1] = fr(delta * j)
    g = ndg_build(fr, L)
    assert (g.alpha.tobytes(), g.beta.tobytes()) == (alpha.tobytes(), beta.tobytes())


def test_ndg_needs_valid_grid():
    with pytest.raises(ConditionError):
        ndg_build(Frontier(1, 3, 0.5), 2)


@pytest.mark.parametrize("L, match", [
    (math.nan, "integer"), (math.inf, "integer"), (-math.inf, "integer"),
    (None, "integer"), ("6", "integer"), ([6], "integer"), (True, "integer"),
    (6.5, "integer"), (1_002, "1002001 cells"), (20_000, "supported 1000000"),
    (2 ** 40, "supported 1000000"),
])
def test_ndg_build_refuses_an_L_that_is_not_a_capped_integer(L, match):
    # nan, inf and None once leaked a raw ValueError, OverflowError or
    # TypeError, and 2**40 a raw numpy ValueError; L = 20,000 would have
    # asked for two 3.2 GB matrices.  L = 1,001 is the largest accepted.
    with pytest.raises(ConditionError, match=match):
        ndg_build(Frontier(1, 3, 0.5), L)


def test_ndg_build_takes_the_largest_capped_L():
    assert ndg_build(Frontier(1, 3, 0.5), 1_001).k == 1_000


def test_validate_two_pop_ndg():
    g = ndg_build(Frontier(1, 3, 0.5), 6)
    for m in range(g.k):
        rep = validate_two_pop(g, m)
        assert rep.coordination and rep.bandwagon and rep.supports_all_ok
        assert rep.conflict_of_interest


def test_validate_two_pop_symmetric_tech():
    g = TwoPopGame(TECH.payoffs, TECH.payoffs.T)
    rep = validate_two_pop(g, 0)
    assert rep.coordination and rep.bandwagon


def test_conflict_of_interest_false_on_diagonal_tie():
    g = TwoPopGame([[2, 0], [0, 2]], [[2, 0], [0, 2]])
    rep = validate_two_pop(g, 0)
    # both populations weakly prefer both conventions: the preferred sets
    # coincide with the whole strategy set
    assert rep.conflict_of_interest is False
    assert tilde_s(g, 0, "alpha") == frozenset({0, 1})


def test_tilde_sets_ndg():
    g = ndg_build(Frontier(1, 3, 0.5), 6)
    m = 1  # demand index 2
    assert tilde_s(g, m, "alpha") == frozenset({1, 2, 3, 4})
    assert tilde_s(g, m, "beta") == frozenset({0, 1})


@pytest.mark.parametrize("support", [(0, 5), (0, -1), (1, 1), (0, 1.5), (0, True)])
def test_mixed_equilibrium_refuses_a_malformed_support(support):
    # (0, 5) ended in an IndexError, (0, -1) wrapped to the (0, 2) mixture
    # and (1, 1) returned None.
    with pytest.raises(ConditionError, match="distinct strategies"):
        mixed_equilibrium(TECH, support)


@pytest.mark.parametrize("raw", [[["2", "0"], [True, "1e1"]], [[2, 0], [True, 1]],
                                 [[2, 0], [0, "1"]], np.eye(2, dtype=bool)])
def test_payoffs_refuse_strings_and_booleans(raw):
    with pytest.raises(ConditionError, match="array of finite numbers"):
        OnePopGame(raw)


def test_payoffs_accept_numbers_and_numeric_arrays():
    for raw in ([[2, 0], [0, 1.5]], np.array([[2, 0], [0, 1]]),
                np.array([[2.0, 0], [0, 1]], dtype=np.float32),
                [[np.int64(2), np.float64(0)], [0, 1]]):
        assert OnePopGame(raw).payoffs.dtype == float


def test_mixed_equilibrium_two_pop_ndg_pair():
    fr = Frontier(1, 3, 0.5)
    g = ndg_build(fr, 6)
    delta = 0.5
    i, j = 0, 2  # demands 1 and 3
    pair = mixed_equilibrium(g, (i, j))
    assert pair is not None
    pa, pb = pair
    # beta indifference pins alpha's mixture; alpha indifference pins beta's
    assert pa[i] == pytest.approx(fr(delta * 3) / fr(delta * 1))
    assert pb[j] == pytest.approx((i + 1) / (j + 1))


def test_json_round_trip_one_pop():
    text = game_to_json(TECH)
    g = game_from_json(text)
    assert isinstance(g, OnePopGame)
    assert np.array_equal(g.payoffs, TECH.payoffs)
    assert game_to_json(g) == text


def test_json_round_trip_two_pop():
    g = ndg_build(Frontier(1, 3, 0.5), 5)
    g2 = game_from_json(game_to_json(g))
    assert isinstance(g2, TwoPopGame)
    assert np.array_equal(g2.alpha, g.alpha)
    assert np.array_equal(g2.beta, g.beta)


def test_json_schema_errors():
    with pytest.raises(ConditionError):
        game_from_json('{"payoffs": [[1]]}')
    with pytest.raises(ConditionError):
        game_from_json('{"type": "three_population"}')


# ---------------------------------------------------------------------------
# Each population's side solved on its oriented matrix, against the
# two-population solver and checks it replaced, which survive here only as
# the reference


def reference_solve_support_two_pop(game, support):
    """Both sides' indifference systems solved together: a singular system
    anywhere is degenerate, then a nonpositive weight anywhere is absent,
    then alpha's payoff checks precede beta's.  Returns (status, point)."""
    t = tuple(support)
    m = len(t)
    k = game.k
    if m == 1:
        i = t[0]
        pa = np.zeros(k)
        pb = np.zeros(k)
        pa[i] = pb[i] = 1.0
        alpha_ok = all(game.alpha[q, i] < game.alpha[i, i] for q in range(k) if q != i)
        beta_ok = all(game.beta[i, q] < game.beta[i, i] for q in range(k) if q != i)
        return ("ok", (pa, pb)) if alpha_ok and beta_ok else ("absent", None)

    def solve(system_rows):
        lhs = np.zeros((m, m))
        rhs = np.zeros(m)
        for row, vec in enumerate(system_rows):
            lhs[row, :] = vec
        lhs[m - 1, :] = 1.0
        rhs[m - 1] = 1.0
        try:
            sol = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)) or np.any(sol <= POS_TOL):
            return "absent"
        full = np.zeros(k)
        full[list(t)] = sol
        return full

    p_beta = solve([(game.alpha[t[0]] - game.alpha[i])[list(t)] for i in t[1:]])
    p_alpha = solve([(game.beta[:, t[0]] - game.beta[:, i])[list(t)] for i in t[1:]])
    if p_beta is None or p_alpha is None:
        return "degenerate", None
    if isinstance(p_beta, str) or isinstance(p_alpha, str):
        return "absent", None
    for pay in (game.alpha @ p_beta, p_alpha @ game.beta):
        common = pay[t[0]]
        if max(abs(pay[i] - common) for i in t) > EQ_TOL:
            return "degenerate", None
        for q in range(k):
            if q not in t and pay[q] > common + EQ_TOL:
                return "absent", None
    return "ok", (p_alpha, p_beta)


def reference_two_pop_flags(game):
    """(coordination, weak bandwagon) read off alpha by rows, beta by columns."""
    a, b = game.alpha, game.beta
    k = game.k
    coordination = all(a[i, i] > a[j, i] and b[i, i] > b[i, j]
                       for i in range(k) for j in range(k) if j != i)
    bandwagon = all(a[mb, mb] - a[i, mb] >= a[mb, j] - a[i, j]
                    and b[mb, mb] - b[mb, i] >= b[j, mb] - b[j, i]
                    for mb, i, j in permutations(range(k), 3))
    return coordination, bandwagon


def seeded_bimatrix_games(count, seed):
    """Integer and one-decimal bimatrix games, k = 2..5, with every mix of
    coordination, bandwagon and support outcomes."""
    rng = np.random.default_rng(seed)
    out = []
    for g in range(count):
        k = int(rng.integers(2, 6))
        a, b = (rng.integers(-3, 4, size=(k, k)).astype(float) for _ in range(2))
        a[np.diag_indices(k)] = rng.integers(1, 12, size=k)
        b[np.diag_indices(k)] = rng.integers(1, 12, size=k)
        out.append(TwoPopGame(a / 10, b / 10) if g % 2 else TwoPopGame(a, b))
    return out


REFERENCE_GAMES = (
    seeded_bimatrix_games(80, seed=31)
    + [ndg_build(fr, L) for fr in (Frontier(1, 3, 0.5), Frontier(2, 3, 0.4))
       for L in range(3, 10)]
    + [TWO_POP_2X2, TwoPopGame(TECH.payoffs, TECH.payoffs.T)]
)


@pytest.mark.parametrize("game", REFERENCE_GAMES)
def test_validate_two_pop_equals_the_reference(game):
    rep = validate_two_pop(game, 0)
    assert (rep.coordination, rep.bandwagon) == reference_two_pop_flags(game)
    family, _ = _support_family(game.k)
    assert [c.support for c in rep.supports_ok] == family
    for check in rep.supports_ok:
        status, point = reference_solve_support_two_pop(game, check.support)
        assert check.status == status, check.support
        if status == "ok":
            assert all(np.array_equal(p, q) for p, q in zip(check.point, point))
        else:
            assert check.point is None


def test_degenerate_side_is_reported_before_an_absent_one():
    # alpha's rows 0 and 1 are equal, so its indifference system is
    # singular; beta's mixture needs a negative weight
    singular, negative = [[1, 0], [1, 0]], [[1, 0], [2, 0]]
    for game in (TwoPopGame(singular, negative), TwoPopGame(np.transpose(negative),
                                                           np.transpose(singular))):
        (status,) = {validate_two_pop(game, 0).supports_ok[-1].status,
                     reference_solve_support_two_pop(game, (0, 1))[0]}
        assert status == "degenerate"
        assert mixed_equilibrium(game, (0, 1)) is None


# ---------------------------------------------------------------------------
# The stacked support scan against the one-system-at-a-time solve it
# replaced, which survives here only as the reference


def reference_solve_support(mat, support):
    """One population's indifference system on ``support`` alone, with
    ``mat`` its oriented matrix: (status, the faced population's mixture)."""
    k = len(mat)
    t = list(support)
    m = len(t)
    p = np.zeros(k)
    if m == 1:
        i = t[0]
        col = mat[:, i].tolist()
        if max(col[:i] + col[i + 1:]) >= col[i]:
            return "absent", None
        p[i] = 1.0
        return "ok", p
    lhs = np.zeros((m, m))
    rhs = np.zeros(m)
    for row, i in enumerate(t[1:]):
        lhs[row, :] = (mat[t[0]] - mat[i])[t]
    lhs[m - 1, :] = 1.0
    rhs[m - 1] = 1.0
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        return "degenerate", None
    if not np.isfinite(sol).all() or (sol <= POS_TOL).any():
        return "absent", None
    p[t] = sol
    payoffs = (mat @ p).tolist()
    common = payoffs[t[0]]
    if max(abs(payoffs[i] - common) for i in t) > EQ_TOL:
        return "degenerate", None
    if any(payoffs[q] > common + EQ_TOL for q in range(k) if q not in t):
        return "absent", None
    return "ok", p


def reference_support_check(game, support):
    """Every population's side solved alone; a degenerate side is reported
    before an absent one, and a two-population point is (p_alpha, p_beta)."""
    sides = [reference_solve_support(game.oriented(pop), support)
             for pop in game.populations]
    statuses = [status for status, _ in sides]
    for status in ("degenerate", "absent"):
        if status in statuses:
            return status, None
    points = [p for _, p in reversed(sides)]
    return "ok", points[0] if len(points) == 1 else tuple(points)


def point_bits(point):
    """A support point as bytes, so that == compares it bit for bit."""
    if point is None:
        return None
    return tuple(p.tobytes() for p in (point if isinstance(point, tuple) else (point,)))


def unconstrained_games(count, seed, k):
    """Payoffs in -1..1: ties, exactly singular systems and absent mixtures."""
    rng = np.random.default_rng(seed)
    return [OnePopGame(rng.integers(-1, 2, size=(k, k)).astype(float))
            for _ in range(count)]


def large_payoff_games(count, seed, k):
    """One-decimal payoffs near 1e7: some solved systems miss ``EQ_TOL`` by
    rounding alone, so their supports are degenerate though not singular."""
    rng = np.random.default_rng(seed)
    return [OnePopGame(np.round(rng.normal(size=(k, k)) * 1e7, 1)) for _ in range(count)]


# Strategies 0 and 1 are identical, so the systems of (0, 1) and (0, 1, 2)
# are exactly singular, while (0, 2) and (1, 2) share (0, 1)'s stack.
IDENTICAL = OnePopGame([[2, 2, 0], [2, 2, 0], [1, 1, 3]])
NINE = OnePopGame(np.random.default_rng(9).integers(-3, 4, size=(9, 9))
                  + np.diag(np.arange(8, 17)))   # k = 9: a truncated family

SCAN_CASES = {
    "samplers": (random_condition_a_games(25, 7, 3) + random_condition_a_games(10, 11, 4)
                 + random_decimal_games(10, 5, 3) + random_condition_a_games(12, 3, 5)),
    "unconstrained": [g for k in (3, 4, 5) for g in unconstrained_games(15, k, k)],
    "ndg": [ndg_build(fr, L) for fr in (Frontier(1, 3, 0.5), Frontier(3, 1, 0.5))
            for L in range(4, 9)],
    "large": [g for k in (3, 4) for g in large_payoff_games(15, k, k)],
    "identical": [IDENTICAL, TwoPopGame(IDENTICAL.payoffs, IDENTICAL.payoffs.T)],
    "truncated": [NINE],
}


@pytest.mark.parametrize("case", SCAN_CASES)
def test_stacked_support_scan_equals_the_per_support_solve(case):
    for game in SCAN_CASES[case]:
        two_pop = isinstance(game, TwoPopGame)
        rep = validate_two_pop(game, 0) if two_pop else validate_one_pop(game)
        family, partial = _support_family(game.k)
        assert rep.partial == partial == (game.k > 8)
        want = [reference_support_check(game, t) for t in family]
        assert [(c.support, c.status) for c in rep.supports_ok] == [
            (t, status) for t, (status, _) in zip(family, want)]
        assert [point_bits(c.point) for c in rep.supports_ok] == [
            point_bits(point) for _, point in want]
        for t, (_, point) in zip(family, want):
            assert point_bits(mixed_equilibrium(game, t[::-1])) == point_bits(
                reference_support_check(game, t[::-1])[1])


def test_an_exactly_singular_system_leaves_its_stack_solved():
    statuses = {c.support: c.status for c in validate_one_pop(IDENTICAL).supports_ok}
    assert statuses[(0, 1)] == statuses[(0, 1, 2)] == "degenerate"
    assert statuses[(0, 2)] != "degenerate" and statuses[(1, 2)] != "degenerate"


def test_a_non_finite_solution_is_absent_without_a_warning(monkeypatch):
    def overflowed(lhs):  # inf - inf in the payoffs would warn
        return np.full(lhs.shape[:2], np.inf), np.zeros(len(lhs), bool)

    monkeypatch.setattr("ldl.games._stacked_solve", overflowed)
    statuses = [c.status for c in validate_one_pop(TECH).supports_ok]
    assert statuses == ["ok"] * 3 + ["absent"] * 4


def _outcome(fn, *args):
    """A call's value, or its refusal, for comparing two calls."""
    try:
        return fn(*args)
    except ConditionError as exc:
        return str(exc)


SWAP = {"alpha": "beta", "beta": "alpha", "tie": "tie"}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(game=st.one_of(
    st.builds(lambda seed: seeded_bimatrix_games(1, seed)[0], st.integers(0, 2**16)),
    st.builds(ndg_build, st.sampled_from((Frontier(1, 3, 0.5), Frontier(1.5, 2, 0.3))),
              st.integers(3, 6))),
    m=st.integers(0, 4))
def test_swapping_the_populations_swaps_every_answer(game, m):
    m = m % game.k
    swapped = TwoPopGame(game.beta.T, game.alpha.T)
    rep, rep_s = validate_two_pop(game, m), validate_two_pop(swapped, m)
    assert (rep.coordination, rep.bandwagon, rep.conflict_of_interest) == (
        rep_s.coordination, rep_s.bandwagon, rep_s.conflict_of_interest)
    for check, check_s in zip(rep.supports_ok, rep_s.supports_ok):
        assert check.status == check_s.status
        if check.ok:
            assert all(np.array_equal(p, q)
                       for p, q in zip(check.point, reversed(check_s.point)))
    for j in range(game.k):
        if j != m:
            zeta = _outcome(two_pop_thresholds, game, m, j)
            zeta_s = _outcome(two_pop_thresholds, swapped, m, j)
            assert zeta_s == (zeta if isinstance(zeta, str) else zeta[::-1])
    side = list(enumerate_states(3, game.k))
    assert all(in_basin(game, (a, b), m) == in_basin(swapped, (b, a), m)
               for a in side for b in side)
    for rule in (CostRule.LOGIT, CostRule.INTENTIONAL):
        lim = _outcome(exit_limit_two_pop, game, m, rule)
        lim_s = _outcome(exit_limit_two_pop, swapped, m, rule)
        if isinstance(lim, str):
            assert lim_s == lim
        else:
            assert (lim_s.cost, lim_s.argmin_targets) == (lim.cost, lim.argmin_targets)
            assert lim_s.driving_population == SWAP[lim.driving_population]
