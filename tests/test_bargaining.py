"""bargaining: frontier family, solution roots, transition terms, and the
stochastically stable division of the demand game."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ldl import (
    ConditionError,
    Frontier,
    convergence_sweep,
    crossings,
    rl_functions,
    solve_solutions,
    stable_division,
)
from ldl.bargaining import _neighbour_terms

PANEL_A = Frontier(1, 3, 0.5)   # f(x) = sqrt(1 - x/3) on [0, 3]
PANEL_B = Frontier(3, 1, 0.5)   # f(x) = sqrt(3 (1 - x)) on [0, 1]
# The benchmark's frontier parameter lists
BENCH_A, BENCH_B, BENCH_P = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0), (1, 2, 3, 4), (0.3, 0.4, 0.5, 0.6, 0.7)


def seeded_frontiers(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        fr = Frontier(
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(1.0, 4.0)),
            float(rng.uniform(0.3, 0.7)),
        )
        sol = solve_solutions(fr)
        # keep clear of the knife-edge fixed point so orderings are strict
        if abs(sol.s_nash - sol.s_egalitarian) > 0.05:
            out.append(fr)
    return out


# ---------------------------------------------------------------------------
# Frontier family


def test_frontier_validation():
    with pytest.raises(ConditionError):
        Frontier(1, 3, 1.0)
    with pytest.raises(ConditionError):
        Frontier(-1, 3, 0.5)


@pytest.mark.parametrize("params", [
    (1, math.inf, 0.5), (math.inf, 3, 0.5), (math.nan, 3, 0.5),
    (1, math.nan, 0.5), (1, 3, math.nan),
])
def test_frontier_refuses_non_finite_parameters(params):
    with pytest.raises(ConditionError, match="finite"):
        Frontier(*params)


@pytest.mark.parametrize("params", [
    (True, 3, 0.5), (1, False, 0.5), (1, 3, True), ("1", 3, 0.5), (1, None, 0.5),
    (1, 3, "0.5"), (1, [3], 0.5),
])
def test_frontier_refuses_booleans_and_non_numbers(params):
    with pytest.raises(ConditionError, match="finite numbers"):
        Frontier(*params)


@pytest.mark.parametrize("x", ["2", "abc", True, None, np.True_, [1, "2"],
                               [1.0, None], np.array([True, False]), np.array(["1"])])
def test_frontier_refuses_an_argument_that_is_not_a_number(x):
    # "2" and True were read as 2.0 and 1.0, None gave nan, and "abc" ended
    # in a raw ValueError.
    fr = Frontier(1, 3, 0.5)
    for call in (fr.value, fr, fr.derivative):
        with pytest.raises(ConditionError, match="takes numbers"):
            call(x)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(a=st.sampled_from(BENCH_A), b=st.sampled_from(BENCH_B), p=st.sampled_from(BENCH_P),
       L=st.integers(3, 5_000), u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(a=1.0, b=3, p=0.5, L=3, u=0.5).via("the coarsest grid")
@example(a=4.0, b=3, p=0.7, L=5_000, u=0.999).via("the finest grid")
def test_grid_terms_are_the_per_cell_terms_bit_for_bit(a, b, p, L, u):
    fr = Frontier(a, b, p)
    delta = b / L
    grid = _neighbour_terms(fr, delta, delta * np.arange(1, L))
    cells = zip(*(_neighbour_terms(fr, delta, delta * m) for m in range(1, L)))
    assert [bits(g) for g in grid] == [bits(c) for c in cells]
    # The scalar (plain float) and array paths of the frontier agree at 0,
    # inside, at b and beyond b, where the derivative is -inf with numpy's
    # divide-by-zero warning on both paths.
    xs = [0.0, b * u, float(b), 2.0 * b]
    assert bits(fr.value(np.array(xs))) == bits([fr.value(x) for x in xs])
    assert bits(fr(np.array(xs))) == bits([fr(np.float64(x)) for x in xs])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        slopes = fr.derivative(np.array(xs))
    assert bits(slopes[:2]) == bits([fr.derivative(x) for x in xs[:2]])
    for x in xs[2:]:
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert fr.derivative(x) == -math.inf
    assert slopes[2] == slopes[3] == -math.inf


def test_frontier_values_panel_a():
    assert PANEL_A(1.0) == pytest.approx(math.sqrt(2 / 3))
    assert PANEL_A(2.0) == pytest.approx(math.sqrt(1 / 3))
    assert PANEL_A.s_bar == 3


def test_frontier_shape_monotonicities():
    # f'/f, x f' - f, f' + f/x, f' + (f/x)^2 all strictly decreasing
    for fr in (PANEL_A, PANEL_B):
        xs = np.linspace(fr.s_bar * 1e-3, fr.s_bar * 0.999, 1000)
        f = fr.value(xs)
        d = fr.derivative(xs)
        for series in (d / f, xs * d - f, d + f / xs, d + (f / xs) ** 2):
            assert np.all(np.diff(series) < 0)


# ---------------------------------------------------------------------------
# Solution roots


def test_solutions_panel_a():
    sol = solve_solutions(PANEL_A)
    assert sol.s_nash == pytest.approx(2.0, abs=1e-9)
    assert sol.s_egalitarian == pytest.approx((-1 + math.sqrt(37)) / 6, abs=1e-9)
    assert sol.s_intentional == pytest.approx(1.47479, abs=1e-4)
    assert sol.ordering == "nash_above"


def test_solutions_panel_b():
    sol = solve_solutions(PANEL_B)
    assert sol.s_nash == pytest.approx(2 / 3, abs=1e-9)
    assert sol.s_egalitarian == pytest.approx((-3 + math.sqrt(21)) / 2, abs=1e-9)
    assert sol.ordering == "egalitarian_above"
    assert sol.s_nash < sol.s_intentional < sol.s_egalitarian


def test_solution_residuals():
    for fr in (PANEL_A, PANEL_B):
        sol = solve_solutions(fr)
        assert abs(fr(sol.s_nash) / sol.s_nash + fr.derivative(sol.s_nash)) <= 1e-10
        assert abs(
            (fr(sol.s_intentional) / sol.s_intentional) ** 2
            + fr.derivative(sol.s_intentional)
        ) <= 1e-10
        assert abs(fr(sol.s_egalitarian) - sol.s_egalitarian) <= 1e-10


def test_intentional_solution_between_the_other_two():
    for fr in seeded_frontiers(10, seed=99):
        sol = solve_solutions(fr)
        lo, hi = sorted((sol.s_nash, sol.s_egalitarian))
        assert lo < sol.s_intentional < hi


# ---------------------------------------------------------------------------
# Transition terms


def test_rl_functions_direct_evaluation():
    f = PANEL_A
    delta, m = 0.5, 2
    r1, r2, l1, l2 = rl_functions(f, delta, m)
    assert r1 == pytest.approx((f(1.0) - f(1.5)) * 1.0 / 1.5, abs=1e-14)
    assert r2 == pytest.approx(1.0 * (f(1.0) - f(1.5)) / f(1.0), abs=1e-14)
    assert l1 == pytest.approx(f(1.0) * 0.5 / 1.0, abs=1e-14)
    assert l2 == pytest.approx(0.5 * f(1.0) / f(0.5), abs=1e-14)


def test_rl_monotonicity_full_sweep():
    delta = 0.05
    L = round(PANEL_A.s_bar / delta)
    vals = [rl_functions(PANEL_A, delta, m) for m in range(1, L - 1)]
    r1s, r2s, l1s, l2s = zip(*vals)
    assert all(b > a for a, b in zip(r1s, r1s[1:]))
    assert all(b > a for a, b in zip(r2s, r2s[1:]))
    assert all(b < a for a, b in zip(l1s, l1s[1:]))
    assert all(b < a for a, b in zip(l2s, l2s[1:]))


def test_rl_out_of_range():
    with pytest.raises(ConditionError):
        rl_functions(PANEL_A, 0.5, 5)  # no right neighbor at the top demand


@pytest.mark.parametrize("m", [True, False, "2", None, [2]])
def test_rl_functions_refuses_a_demand_index_that_is_not_a_number(m):
    with pytest.raises(ConditionError, match="must be a number"):
        rl_functions(PANEL_A, 0.5, m)


def test_rl_functions_takes_a_fractional_or_numpy_index():
    assert rl_functions(PANEL_A, 0.5, 1.5) == _neighbour_terms(PANEL_A, 0.5, 0.75)
    assert rl_functions(PANEL_A, 0.5, np.int64(2)) == rl_functions(PANEL_A, 0.5, 2)


def test_crossings_exist_and_converge():
    # delta mu*(delta) -> s_nash and delta mu^I(delta) -> s_intentional
    sol = solve_solutions(PANEL_A)
    gaps_star, gaps_int = [], []
    for delta in (0.1, 0.05, 0.01):
        cp = crossings(PANEL_A, delta)
        assert cp.mu_star is not None and cp.mu_intentional is not None
        gaps_star.append(abs(delta * cp.mu_star - sol.s_nash))
        gaps_int.append(abs(delta * cp.mu_intentional - sol.s_intentional))
    assert gaps_star[-1] <= 0.05 and gaps_int[-1] <= 0.05
    assert gaps_star[-1] <= gaps_star[0] + 1e-9
    assert gaps_int[-1] <= gaps_int[0] + 1e-9


def test_small_delta_expansion_of_terms():
    # r2 ~ -delta x f'/f and l1 = delta f/x: their ratio tends to -f' x^2/f^2
    delta = 1e-3
    x = 1.2
    m = x / delta
    r1, r2, l1, l2 = rl_functions(PANEL_A, delta, m)
    f, fp = PANEL_A(x), PANEL_A.derivative(x)
    assert r2 / delta == pytest.approx(-x * fp / f, rel=1e-3)
    assert l1 / delta == pytest.approx(f / x, rel=1e-9)
    assert r2 / l1 == pytest.approx(-fp * x**2 / f**2, rel=1e-3)


# ---------------------------------------------------------------------------
# Stable divisions


def test_stable_division_panel_a_unintentional():
    sol = solve_solutions(PANEL_A)
    res = stable_division(PANEL_A, 0.01, "unintentional")
    assert abs(res.x_star - sol.s_nash) <= 0.05
    assert res.crossing_agrees


def test_stable_division_panel_a_intentional():
    sol = solve_solutions(PANEL_A)
    res = stable_division(PANEL_A, 0.01, "intentional")
    assert abs(res.x_star - sol.s_intentional) <= 0.05


@pytest.mark.parametrize("rule, split", [("unintentional", "s_nash"),
                                         ("intentional", "s_intentional")])
def test_stable_division_at_delta_1e5_is_within_one_cell_of_the_split(rule, split):
    # 300,000 cells, the north star's delta on s_bar = 3
    res = stable_division(PANEL_A, 1e-5, rule)
    assert abs(res.x_star - getattr(solve_solutions(PANEL_A), split)) <= 1e-5
    assert res.crossing_agrees and not res.warnings


def test_stable_division_refuses_a_grid_above_the_cap():
    with pytest.raises(ConditionError, match="3000000 cells exceeds the supported 1000000"):
        stable_division(PANEL_A, 1e-6, "unintentional")


def test_stable_division_panel_b_binding_pair_reversed_case():
    # egalitarian-above frontier: the unintentional optimum pairs r2 with l2
    res = stable_division(PANEL_B, 0.01, "unintentional")
    per_m = res.per_m_binding
    m = res.m_star
    assert res.binding_term in ("r2", "l2")
    near = set(per_m[max(0, m - 3):m + 2])
    assert near <= {"r2", "l2"}


def test_binding_terms_split_around_the_optimum():
    # below the optimum the binding transition points right, above it left
    for fr, rule in ((PANEL_A, "unintentional"), (PANEL_A, "intentional"),
                     (PANEL_B, "unintentional")):
        res = stable_division(fr, 0.02, rule)
        for m, term in enumerate(res.per_m_binding, start=1):
            if m < res.m_star:
                assert term in ("r1", "r2"), (rule, m)
            elif m > res.m_star:
                assert term in ("l1", "l2"), (rule, m)


def test_intentional_transitions_driven_by_beneficiary():
    res = stable_division(PANEL_A, 0.01, "intentional")
    for m, term in enumerate(res.per_m_binding, start=1):
        if term.startswith("r"):
            assert term == "r2"  # rightward: first population deviates
        else:
            assert term == "l1"  # leftward: second population deviates


def reference_grid(fr, delta, L, rule):
    """The demand grid one cell at a time: (radii, winners, bindings), each
    cell's binding term the first minimum in the order r1, r2, l1, l2."""
    radii, bindings = [], []
    for m in range(1, L):
        r1, r2, l1, l2 = _neighbour_terms(fr, delta, delta * m)
        terms = {}
        if m + 1 <= L - 1:
            if rule == "unintentional":
                terms["r1"] = r1
            terms["r2"] = r2
        if m - 1 >= 1:
            terms["l1"] = l1
            if rule == "unintentional":
                terms["l2"] = l2
        name = min(terms, key=terms.get)
        radii.append(terms[name])
        bindings.append(name)
    hi = max(radii)
    winners = tuple(m for m, r in zip(range(1, L), radii) if r >= hi - 1e-12)
    return radii, winners, tuple(bindings)


@pytest.mark.parametrize("rule", ["unintentional", "intentional"])
@pytest.mark.parametrize("L", [3, 4, 7, 30, 300, 3001])
def test_stable_division_matches_per_cell_reference(L, rule):
    # == and not approx: the grid is one array pass, and a vector pow that
    # differs from the per-cell pow in the last bit moves radii and ties
    for fr in (PANEL_A, PANEL_B, *seeded_frontiers(4, seed=31)):
        delta = fr.s_bar / L
        radii, winners, bindings = reference_grid(fr, delta, L, rule)
        res = stable_division(fr, delta, rule)
        assert res.m_star_all == winners
        assert res.radius == radii[winners[0] - 1]
        assert res.binding_term == bindings[winners[0] - 1]
        assert res.per_m_binding == bindings


@pytest.mark.parametrize("rule", ["unintentional", "intentional"])
def test_stable_division_reads_one_crossing(rule):
    # The candidate is the crossing the rule picks out of all three, and
    # roots passed in give the same division as roots solved inside.
    for fr in (PANEL_A, PANEL_B, *seeded_frontiers(6, seed=77)):
        sol = solve_solutions(fr)
        for L in (3, 7, 300):
            delta = fr.s_bar / L
            cp = crossings(fr, delta)
            if rule == "intentional":
                want = cp.mu_intentional
            else:
                want = cp.mu_star if sol.s_nash > sol.s_egalitarian else cp.mu_double_star
            res = stable_division(fr, delta, rule)
            assert res.crossing_candidate == want
            assert stable_division(fr, delta, rule, solutions=sol) == res


def test_sweep_rows_are_the_stable_divisions():
    for rule in ("unintentional", "intentional"):
        for fr in (PANEL_A, PANEL_B):
            deltas = [fr.s_bar / L for L in (10, 20, 100)]
            for row, d in zip(convergence_sweep(fr, deltas, rule), deltas):
                res = stable_division(fr, d, rule)
                assert (row.m_star, row.x_star, row.binding_term) == \
                    (res.m_star, res.x_star, res.binding_term)
                assert row.warning == "; ".join(res.warnings)


def test_discrete_orderings_match_case_split():
    for fr in (PANEL_A, PANEL_B):
        sol = solve_solutions(fr)
        delta = 0.01
        m_un = stable_division(fr, delta, "unintentional").x_star
        m_int = stable_division(fr, delta, "intentional").x_star
        m_egal = delta * round(sol.s_egalitarian / delta)
        if sol.s_nash > sol.s_egalitarian:
            assert m_un > m_int > m_egal
        else:
            assert m_un < m_int < m_egal


def test_seeded_frontier_orderings_at_discrete_resolution():
    for fr in seeded_frontiers(10, seed=424):
        sol = solve_solutions(fr)
        delta = fr.s_bar / 300
        m_un = stable_division(fr, delta, "unintentional").x_star
        m_int = stable_division(fr, delta, "intentional").x_star
        if sol.s_nash > sol.s_egalitarian:
            assert sol.s_nash > sol.s_intentional > sol.s_egalitarian
            assert m_un > m_int
        else:
            assert sol.s_nash < sol.s_intentional < sol.s_egalitarian
            assert m_un < m_int


def test_sweep_errors_shrink():
    rows = convergence_sweep(PANEL_A, (0.1, 0.05, 0.01), "unintentional")
    assert rows[-1].error <= 0.05
    assert rows[-1].error <= rows[0].error + rows[0].delta
    assert [r.target for r in rows] == [rows[0].target] * 3


def test_sweep_intentional_between_divisions():
    for fr in (PANEL_A, PANEL_B):
        sol = solve_solutions(fr)
        for delta in (0.1, 0.05, 0.01):
            d = delta * fr.s_bar / 3  # scale to the frontier's span
            L = round(fr.s_bar / d)
            d = fr.s_bar / L
            un = stable_division(fr, d, "unintentional").x_star
            it = stable_division(fr, d, "intentional").x_star
            lo, hi = sorted((un, delta * 0 + sol.s_egalitarian))
            assert lo - d <= it <= hi + d


def test_sweep_coarsest_grid_warns():
    res = stable_division(PANEL_A, 1.0, "unintentional")
    assert any("coarsest" in w for w in res.warnings)


def test_stable_division_requires_divisible_grid():
    with pytest.raises(ConditionError):
        stable_division(PANEL_A, 0.07, "unintentional")
