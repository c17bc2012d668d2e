"""finite-chain: payoffs, costs, kernels, basins, enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ldl.chain
from ldl import (
    ConditionError,
    CostRule,
    Frontier,
    InfeasibleMoveError,
    Move,
    OnePopGame,
    Path,
    TwoPopGame,
    UnsupportedRuleError,
    apply_move,
    basin,
    beta_ladder_trace,
    convention_state,
    exit_bruteforce,
    exit_limit_one_pop,
    exit_reduced,
    in_basin,
    invariant_measure,
    move_between,
    ndg_build,
    path_cost,
    payoff,
    payoff_vector,
    stable_division,
    step_cost,
    transition_matrix,
)
from ldl.chain import (
    _check_beta,
    _choice_probabilities,
    _reviser,
    comp_rank,
    cost_vector,
    enumerate_states,
    num_states,
    payoff_vector,
)
from ldl.errors import AdjacencyError
from gamegen import (
    DECIMAL_TIE,
    TECH,
    TECH_UNEVEN,
    TWO_POP_2X2,
    TWO_STRATEGY,
    alpha_payoffs,
    beta_payoffs,
    dense_kernel,
    random_basin_states,
    random_condition_a_games,
    random_decimal_games,
)
from lemmas import cp2_delta, cp2_direct, hat_s


def test_payoff_at_convention():
    assert payoff(TECH, 0, (10, 0, 0)) == 16
    assert payoff(TECH, 1, (10, 0, 0)) == 1
    assert payoff(TECH, 2, (10, 0, 0)) == -1


def test_payoff_linear_in_state():
    x = (5, 3, 2)
    pi = payoff_vector(TECH, x)
    manual = TECH.payoffs @ np.array(x) / 10
    assert np.allclose(pi, manual)


def test_payoff_at_mixed_equilibrium_two_strategy():
    pi = payoff_vector(TWO_STRATEGY, (2, 4))
    assert pi[0] == pytest.approx(2 / 3)
    assert pi[1] == pytest.approx(2 / 3)


def test_step_cost_zero_into_best_response():
    x = (8, 1, 1)
    assert step_cost(TECH, CostRule.LOGIT, x, Move(1, 0)) == 0.0


def test_step_cost_tech_worst_move():
    assert step_cost(TECH, CostRule.LOGIT, (10, 0, 0), Move(0, 2)) == 17.0


def test_step_cost_requires_feasible_source():
    with pytest.raises(InfeasibleMoveError):
        step_cost(TECH, CostRule.LOGIT, (10, 0, 0), Move(1, 2))


def test_step_cost_source_irrelevant_in_basin():
    # inside the basin the logit cost depends on the target only
    states = random_basin_states(TECH, 12, 0, 200, seed=7, min_mbar=1)
    multi_source_seen = 0
    for x in states:
        for j in range(3):
            costs = {
                step_cost(TECH, CostRule.LOGIT, x, Move(i, j))
                for i in range(3)
                if i != j and x[i] >= 1
            }
            assert len(costs) <= 1
            if sum(1 for i in range(3) if i != j and x[i] >= 1) > 1:
                multi_source_seen += 1
    assert multi_source_seen > 100


def test_step_cost_nonnegative_zero_only_on_best():
    for x in random_basin_states(TECH, 9, 0, 50, seed=9, min_mbar=0):
        pi = payoff_vector(TECH, x)
        for i in range(3):
            if x[i] < 1:
                continue
            for j in range(3):
                if i == j:
                    continue
                c = step_cost(TECH, CostRule.LOGIT, x, Move(i, j))
                assert c >= 0
                assert (c == 0) == (pi[j] == pi.max())


def test_uniform_cost_tie_targets_are_free():
    g = OnePopGame([[1, 0], [0, 1]])
    x = (3, 3)  # exact payoff tie
    assert step_cost(g, CostRule.UNIFORM, x, Move(0, 1)) == 0.0
    assert step_cost(g, CostRule.UNIFORM, x, Move(1, 0)) == 0.0


def test_better_reply_cost_positive_part():
    x = (8, 1, 1)
    pi = payoff_vector(TECH, x)
    c = step_cost(TECH, CostRule.BETTER_REPLY, x, Move(1, 2))
    assert c == pytest.approx(max(pi[1] - pi[2], 0))
    assert step_cost(TECH, CostRule.BETTER_REPLY, x, Move(2, 0)) == 0.0


def test_intentional_rule_one_pop_refused():
    with pytest.raises(UnsupportedRuleError):
        step_cost(TECH, CostRule.INTENTIONAL, (10, 0, 0), Move(0, 1))


def test_intentional_two_pop_ndg():
    g = ndg_build(Frontier(1, 3, 0.5), 3)  # demands 1, 2
    conv = ((20, 0), (20, 0))
    up_alpha = step_cost(g, CostRule.INTENTIONAL, conv, Move(0, 1, "alpha"))
    up_beta = step_cost(g, CostRule.INTENTIONAL, conv, Move(0, 1, "beta"))
    assert math.isfinite(up_alpha)  # alpha gains from the higher demand
    assert math.isinf(up_beta)      # beta would lose: forbidden deviation
    assert hat_s(g, "alpha", conv) == frozenset({0, 1})
    assert hat_s(g, "beta", conv) == frozenset({0})


def test_two_pop_cost_depends_only_on_other_population():
    g = ndg_build(Frontier(1, 3, 0.5), 6)
    base_beta = (16, 2, 2, 0, 0)
    for alpha_side in ((20, 0, 0, 0, 0), (15, 3, 1, 1, 0), (10, 5, 5, 0, 0)):
        state = (alpha_side, base_beta)
        c = step_cost(g, CostRule.LOGIT, state, Move(0, 2, "alpha"))
        ref = step_cost(g, CostRule.LOGIT, ((20, 0, 0, 0, 0), base_beta),
                        Move(0, 2, "alpha"))
        assert c == ref


def test_basin_membership_two_strategy():
    d = basin(TWO_STRATEGY, 6, 0)
    assert d == {(c, 6 - c) for c in range(2, 7)}  # boundary tie included


def test_basin_refuses_a_two_population_game():
    # it enumerated one-population states and ended in a numpy ValueError
    game = TwoPopGame([[2, 0], [0, 1]], [[1, 0], [0, 2]])
    with pytest.raises(ConditionError, match="one-population"):
        basin(game, 3, 0)


def test_basin_contains_convention_and_probe():
    assert in_basin(TECH, (10, 0, 0), 0)
    assert in_basin(TECH, (8, 1, 1), 0)


@pytest.mark.parametrize("game, state, m", [
    # -1 once wrapped to strategy 2 and gave False; 5 ended in an
    # IndexError and True in a numpy ValueError
    (TECH, (3, 0, 0), -1), (TECH, (3, 0, 0), 5), (TECH, (3, 0, 0), True),
    (TECH, (3, 0, 0), 1.0),
    # a state of the wrong shape ended in a numpy matmul ValueError
    (TECH, (1, 2), 0), (TECH, (1, 1, 1, 0), 0), (TECH, ((3, 0, 0), (3, 0, 0)), 0),
    (TWO_STRATEGY, ((1, 1), (2, 0)), 0),
    (TWO_POP_2X2, (1, 1), 0), (TWO_POP_2X2, ((1, 1), (2, 0, 0)), 0),
    (TWO_POP_2X2, ((1, 1), (2, 0), (0, 2)), 0), (TWO_POP_2X2, ((2, 0), (2, 0)), 2),
])
def test_in_basin_refuses_a_bad_convention_or_state(game, state, m):
    with pytest.raises(ConditionError):
        in_basin(game, state, m)


def test_in_basin_takes_two_population_states_and_basin_checks_its_convention():
    assert in_basin(TWO_POP_2X2, ((2, 0), (2, 0)), 0)
    assert not in_basin(TWO_POP_2X2, ((0, 2), (0, 2)), 0)
    assert in_basin(TECH, [3, 0, 0], 0) and in_basin(TECH, np.array([3, 0, 0]), 0)
    for m in (-1, 3, True):
        with pytest.raises(ConditionError, match="convention"):
            basin(TECH, 4, m)


def test_path_cost_edge_walk():
    states = [(6 - t, t) for t in range(6)]
    assert path_cost(TWO_STRATEGY, CostRule.LOGIT, states) == pytest.approx(5.0)


def test_path_cost_trivial_paths_free():
    assert path_cost(TWO_STRATEGY, CostRule.LOGIT, [(6, 0)]) == 0.0
    assert path_cost(TWO_STRATEGY, CostRule.LOGIT, []) == 0.0


def test_path_cost_best_response_moves_free():
    states = [(6, 2, 2), (7, 1, 2), (8, 0, 2), (9, 0, 1), (10, 0, 0)]
    assert path_cost(TECH, CostRule.LOGIT, states) == 0.0


def test_path_cost_broken_adjacency():
    with pytest.raises(AdjacencyError):
        path_cost(TECH, CostRule.LOGIT, [(10, 0, 0), (8, 1, 1)])


WALK_GAMES = ([TWO_STRATEGY, TECH, DECIMAL_TIE] + random_condition_a_games(2, seed=81)
              + random_condition_a_games(1, seed=82, k=4)
              + [TWO_POP_2X2, ndg_build(Frontier(1, 3, 0.5), 4)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_walk_is_the_path_of_its_states(data):
    # A walk keeps the moves it applied; building the path from its states
    # derives the same moves, and both are priced alike under every rule.
    game = data.draw(st.sampled_from(WALK_GAMES))
    n = data.draw(st.integers(1, 8))

    def counts():
        agents = data.draw(st.lists(st.integers(0, game.k - 1), min_size=n, max_size=n))
        return tuple(agents.count(i) for i in range(game.k))

    start = counts() if game.populations == (None,) else (counts(), counts())
    state, moves = start, []
    for _ in range(data.draw(st.integers(0, 12))):
        pop = data.draw(st.sampled_from(game.populations))
        own = state if pop is None else state[0 if pop == "alpha" else 1]
        src = data.draw(st.sampled_from([i for i in range(game.k) if own[i] > 0]))
        dst = data.draw(st.sampled_from([j for j in range(game.k) if j != src]))
        moves.append(Move(src, dst, pop))
        state = apply_move(state, moves[-1])
    walk = Path.walk(start, moves)
    built = Path(walk.states)
    assert (walk.states, walk.moves) == (built.states, built.moves)
    assert (len(walk), walk.states[-1]) == (len(moves) + 1, state)
    for rule in CostRule:
        if rule is CostRule.INTENTIONAL and isinstance(game, OnePopGame):
            continue
        assert path_cost(game, rule, walk) == path_cost(game, rule, walk.states)


def test_walk_refuses_self_and_infeasible_moves():
    with pytest.raises(AdjacencyError):
        Path.walk((3, 0), [Move(0, 1), Move(1, 1)])
    with pytest.raises(AdjacencyError):
        Path.walk(((1, 0), (1, 0)), [Move(0, 0, "beta")])
    with pytest.raises(InfeasibleMoveError):
        Path.walk((3, 0), [Move(1, 0)])
    with pytest.raises(InfeasibleMoveError):
        Path.walk(((1, 0), (0, 1)), [Move(0, 1, "beta")])
    with pytest.raises(InfeasibleMoveError):   # -1 would wrap to strategy 1
        Path.walk((3, 0), [Move(0, -1)])
    # a pop tag that does not fit the state ("gamma" was applied as beta)
    for start, mv in ((((2, 0), (2, 0)), Move(0, 1, "gamma")),
                      (((2, 0), (2, 0)), Move(0, 1)), ((2, 0), Move(0, 1, "alpha"))):
        with pytest.raises(InfeasibleMoveError):
            Path.walk(start, [mv])


def test_reduced_witness_is_walked_and_priced_without_deriving_moves(monkeypatch):
    def refuse(x, y):
        raise AssertionError("a move was derived from two states")

    monkeypatch.setattr(ldl.chain, "move_between", refuse)
    res = exit_reduced(TECH, 50, 0)
    realized = res.block.realize(TECH.k, 50, 0)
    assert realized == res.witness
    assert path_cost(TECH, CostRule.LOGIT, res.witness) == res.cost
    with pytest.raises(AssertionError):
        Path(res.witness.states)  # the patch is live
    monkeypatch.undo()
    assert path_cost(TECH, CostRule.LOGIT, res.witness.states) == res.cost


def test_move_between_two_pop():
    x = ((3, 1), (4, 0))
    y = ((2, 2), (4, 0))
    mv = move_between(x, y)
    assert (mv.pop, mv.src, mv.dst) == ("alpha", 0, 1)
    assert apply_move(x, mv) == y


def test_transition_probabilities_uniform_at_zero_beta():
    p = transition_probability(TECH, CostRule.LOGIT, (8, 1, 1), Move(0, 1), 0.0)
    assert p == pytest.approx(0.8 * (1 / 3))


def test_transition_probabilities_concentrate_at_high_beta():
    # from a state with unique best response 0, high beta sends switchers there
    p = transition_probability(TECH, CostRule.LOGIT, (8, 1, 1), Move(1, 0), 200.0)
    assert p == pytest.approx(0.1, abs=1e-9)


def test_transition_rows_sum_to_one():
    for beta in (0.0, 1.0, 10.0):
        _, P = dense_kernel(TECH, 5, beta)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)


def test_transition_rows_sum_to_one_two_pop():
    g = ndg_build(Frontier(1, 3, 0.5), 3)
    for beta in (0.0, 1.0, 10.0):
        _, P = dense_kernel(g, 3, beta)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_transition_rows_sum_to_one_intentional_kernel():
    g = ndg_build(Frontier(1, 3, 0.5), 4)
    for beta in (0.0, 1.0, 10.0):
        _, P = dense_kernel(g, 3, beta, rule=CostRule.INTENTIONAL)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P >= 0)


def transition_probability(game, rule, state, move, beta):
    """Probability that one revision step produces exactly ``move``.

    A revising agent is drawn uniformly (for two populations: population
    with probability 1/2 each, then an agent uniformly inside it), then
    chooses among all strategies with log-weights ``-beta * cost``.  Under
    the logit rules this is the standard logit kernel; self-transitions
    absorb the remaining mass.  The per-move reference for the kernel of
    ``transition_matrix``.
    """
    _check_beta(beta)
    counts, pay = _reviser(game, state, move.pop)
    if counts[move.src] < 1:
        return 0.0
    probs = _choice_probabilities(
        cost_vector(game, rule, pay, move.src, move.pop), beta
    )
    share = 0.5 if isinstance(game, TwoPopGame) else 1.0
    return share * counts[move.src] / sum(counts) * float(probs[move.dst])


def _moves_from(game, state):
    """Feasible single-agent moves out of ``state``, source then target."""
    if isinstance(game, TwoPopGame):
        sides = [(state[0], "alpha"), (state[1], "beta")]
    else:
        sides = [(state, None)]
    for counts, pop in sides:
        for i in range(game.k):
            if counts[i] < 1:
                continue
            for j in range(game.k):
                if j != i:
                    yield Move(i, j, pop)


def _per_move_kernel(game, n, beta, rule):
    """The kernel built one move at a time from ``transition_probability``."""
    if isinstance(game, TwoPopGame):
        side = list(enumerate_states(n, game.k))
        states = [(a, b) for a in side for b in side]
    else:
        states = list(enumerate_states(n, game.k))
    index = {s: a for a, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for a, s in enumerate(states):
        acc = 0.0
        for mv in _moves_from(game, s):
            p = transition_probability(game, rule, s, mv, beta)
            if p == 0.0:
                continue
            P[a, index[apply_move(s, mv)]] += p
            acc += p
        P[a, a] += 1.0 - acc
    return states, P


ONE_POP_KERNELS = [TECH, TECH_UNEVEN, TWO_STRATEGY] + random_condition_a_games(
    2, seed=5, k=4)
TWO_POP_KERNELS = [ndg_build(Frontier(1, 3, 0.5), 4),
                   TwoPopGame([[2, 0], [0, 1]], [[1, 0], [0, 2]])]


@pytest.mark.parametrize("beta", [0.0, 1.0, 9.5, 300.0])
def test_kernel_equals_per_move_oracle_one_pop(beta):
    for game in ONE_POP_KERNELS:
        for rule in (CostRule.LOGIT, CostRule.UNIFORM, CostRule.BETTER_REPLY):
            for n in (1, 7):
                states, P = dense_kernel(game, n, beta, rule)
                want_states, want = _per_move_kernel(game, n, beta, rule)
                assert states == want_states
                assert np.array_equal(P, want)


@pytest.mark.parametrize("beta", [0.0, 1.0, 9.5])
def test_kernel_equals_per_move_oracle_two_pop(beta):
    for game in TWO_POP_KERNELS:
        for rule in (CostRule.LOGIT, CostRule.INTENTIONAL):
            for n in (1, 4):
                states, P = dense_kernel(game, n, beta, rule)
                want_states, want = _per_move_kernel(game, n, beta, rule)
                assert states == want_states
                assert np.array_equal(P, want)


def _reference_softmax(costs, beta):
    """The kernel's softmax as it was, one 1-D cost row at a time."""
    finite = np.isfinite(costs)
    if not finite.any():
        raise ConditionError("no permissible choice at this state")
    shifted = np.where(finite, costs - costs[finite].min(), np.inf)
    w = np.zeros_like(costs)
    w[finite] = np.exp(-beta * shifted[finite])
    return w / w.sum()


def _reference_band(game, n, beta, rule):
    """The banded kernel built state by state and move by move, with its
    own softmax; ``stay`` sums the moves in the library's order."""
    if isinstance(game, TwoPopGame):
        side = list(enumerate_states(n, game.k))
        states = [(a, b) for a in side for b in side]
    else:
        states = list(enumerate_states(n, game.k))
    index = {s: a for a, s in enumerate(states)}
    entries, stay = [], []
    for a, s in enumerate(states):
        acc = 0.0
        for mv in _moves_from(game, s):
            if mv.pop is None:
                counts, pay, share = s, payoff_vector(game, s), 1.0
            elif mv.pop == "alpha":
                counts, pay, share = s[0], alpha_payoffs(game, s[1]), 0.5
            else:
                counts, pay, share = s[1], beta_payoffs(game, s[0]), 0.5
            q = _reference_softmax(cost_vector(game, rule, pay, mv.src, mv.pop), beta)
            p = share * counts[mv.src] / n * q[mv.dst]
            entries.append((a, index[apply_move(s, mv)], p))
            acc += p
        stay.append(1.0 - acc)
    w = max(abs(b - a) for a, b, _ in entries)
    band = np.zeros((len(states), 2 * w + 1))
    for a, b, p in entries:
        band[a, b - a + w] = p
    band[:, w] = stay
    return states, band


@pytest.mark.parametrize("beta", [0.0, 1.0, 9.5, 300.0])
def test_banded_kernel_equals_the_reference_band(beta):
    one_pop = [TECH, TECH_UNEVEN, DECIMAL_TIE] + random_condition_a_games(1, seed=5, k=4)
    cases = [(g, n, rule) for g in one_pop for n in (1, 6)
             for rule in (CostRule.LOGIT, CostRule.UNIFORM, CostRule.BETTER_REPLY)]
    cases += [(g, n, rule) for g in (ndg_build(Frontier(1, 3, 0.5), 4), TWO_POP_2X2)
              for n in (1, 4) for rule in CostRule]
    for game, n, rule in cases:
        states, band = transition_matrix(game, n, beta, rule)
        want_states, want = _reference_band(game, n, beta, rule)
        assert states == want_states
        assert np.array_equal(band, want)


@pytest.mark.parametrize("beta", [0.0, 1.0, 9.5, 300.0])
def test_stacked_softmax_is_row_by_row(beta):
    ndg = ndg_build(Frontier(1, 3, 0.5), 6)
    wide = random_condition_a_games(1, seed=7, k=9)[0]
    stacks = [cost_vector(ndg, CostRule.INTENTIONAL,
                          np.array([alpha_payoffs(ndg, c)
                                    for c in enumerate_states(9, ndg.k)]), 0, "alpha"),
              cost_vector(wide, CostRule.LOGIT,
                          np.array([payoff_vector(wide, c)
                                    for c in enumerate_states(3, wide.k)]), 0, None)]
    # the rules' rows all have a zero cost; these are shifted row by row
    rng = np.random.default_rng(3)
    shifted = rng.uniform(0.0, 2.0, (30, 4)) + rng.uniform(0.0, 5.0, (30, 1))
    shifted[rng.uniform(size=(30, 4)) < 0.3] = np.inf
    shifted[:, 0] = 1.5
    stacks.append(shifted)
    assert np.isinf(stacks[0]).any(axis=1).mean() > 0.5
    for costs in stacks:
        stacked = _choice_probabilities(costs, beta)
        rows = np.array([_reference_softmax(row, beta) for row in costs])
        assert stacked.tobytes() == rows.tobytes()


def test_stacked_softmax_refuses_a_row_without_a_choice():
    costs = np.array([[0.0, 1.0, np.inf], [np.inf, np.inf, np.inf]])
    with pytest.raises(ConditionError, match="no permissible choice"):
        _choice_probabilities(costs, 1.0)


def test_banded_kernel_holds_the_dense_one():
    for game, n in ((TECH, 9), (TWO_POP_KERNELS[0], 3)):
        _, P = dense_kernel(game, n, 1.0)
        _, band = transition_matrix(game, n, 1.0)
        w = (band.shape[1] - 1) // 2
        rows, cols = np.nonzero(P)
        assert np.abs(cols - rows).max() == w
        assert np.array_equal(band[rows, cols - rows + w], P[rows, cols])
        assert np.count_nonzero(band) == np.count_nonzero(P)


def test_kernel_validates_n_and_beta():
    with pytest.raises(ConditionError):
        transition_matrix(TECH, 0, 1.0)
    for beta in (-1.0, math.inf, math.nan):
        with pytest.raises(ConditionError):
            transition_matrix(TECH, 3, beta)


@pytest.mark.parametrize("guardrail", [math.nan, "10", True, 0, -5, 100.0])
def test_kernel_guardrail_must_be_a_positive_integer(guardrail):
    # "10" once raised a raw TypeError and True acted as a cap of 1
    calls = (lambda: transition_matrix(TECH, 3, 1.0, guardrail=guardrail),
             lambda: invariant_measure(TECH, 3, 1.0, guardrail=guardrail),
             lambda: basin(TECH, 3, 0, guardrail=guardrail))
    for call in calls:
        with pytest.raises(ConditionError, match="guardrail"):
            call()
    assert len(transition_matrix(TECH, 3, 1.0, guardrail=np.int64(10))[0]) == 10


@pytest.mark.parametrize("n", [2.5, 3.0])
def test_population_size_must_be_an_integer(n):
    # 2.5 once ran to a cost of 17.2 with a witness ending at (0.5, 2, 0)
    calls = (lambda: convention_state(TECH, n, 0),
             lambda: basin(TECH, n, 0),
             lambda: transition_matrix(TECH, n, 1.0),
             lambda: invariant_measure(TECH, n, 1.0),
             lambda: exit_bruteforce(TECH, n, 0),
             lambda: exit_reduced(TECH, n, 0))
    for call in calls:
        with pytest.raises(ConditionError, match="must be an integer"):
            call()
    assert convention_state(TECH, np.int64(3), 0) == (3, 0, 0)
    assert exit_bruteforce(TECH, np.int64(3), 0).cost == exit_bruteforce(TECH, 3, 0).cost


def test_numpy_population_size_gives_python_int_states():
    n = np.int64(3)
    ndg = ndg_build(Frontier(1, 3, 0.5), 4)
    reduced = exit_reduced(TECH, n, 0)
    found = [[convention_state(TECH, n, 0)], [convention_state(ndg, n, 0)],
             basin(TECH, n, 0), reduced.witness.states,
             transition_matrix(TECH, n, 1.0)[0], transition_matrix(ndg, n, 1.0)[0],
             invariant_measure(TECH, n, 1.0)[0], invariant_measure(ndg, n, 1.0)[0]]
    assert type(reduced.n) is int
    for states in found:
        for state in states:
            sides = state if isinstance(state[0], tuple) else (state,)
            assert all(type(c) is int for side in sides for c in side), state


def test_stacked_cost_vector_is_row_by_row():
    # The batched oracle prices a stack of payoff rows in one call; each row
    # must come out with the bits of its own 1-D call, ties included.
    ndg = ndg_build(Frontier(1, 3, 0.5), 4)
    cases = [(g, None, rule, payoff_vector) for g in
             [TECH] + random_decimal_games(2, seed=21) + random_decimal_games(1, seed=22, k=4)
             for rule in (CostRule.LOGIT, CostRule.UNIFORM, CostRule.BETTER_REPLY)]
    cases += [(ndg, "alpha", rule, alpha_payoffs)
              for rule in (CostRule.LOGIT, CostRule.INTENTIONAL,
                           CostRule.UNIFORM, CostRule.BETTER_REPLY)]
    for game, pop, rule, payoffs in cases:
        pay = np.array([payoffs(game, c) for c in enumerate_states(12, game.k)])
        for src in range(game.k):
            stacked = cost_vector(game, rule, pay, src, pop)
            rows = np.array([cost_vector(game, rule, p, src, pop) for p in pay])
            assert stacked.tobytes() == rows.tobytes()


def test_log_probability_recovers_cost():
    # -(1/beta) log p(move) -> step cost as beta grows
    beta = 50.0
    x = (8, 1, 1)
    for mv in (Move(0, 1), Move(0, 2), Move(1, 2)):
        c = step_cost(TECH, CostRule.LOGIT, x, mv)
        p = transition_probability(TECH, CostRule.LOGIT, x, mv, beta)
        selection = x[mv.src] / 10
        est = -math.log(p / selection) / beta
        assert abs(est - c) < 0.1


def test_enumeration_count_and_colex_rank():
    for n in range(9):
        for k in range(1, 6):
            states = list(enumerate_states(n, k))
            assert len(states) == num_states(n, k)
            assert all(type(s) is tuple and len(s) == k and sum(s) == n for s in states)
            assert [comp_rank(s) for s in states] == list(range(len(states)))
            # one rank per row, a one-column array included
            assert comp_rank(np.array(states)).tolist() == list(range(len(states)))


# Each entry point that takes an index, a beta or a delta, with the start of
# the message it refuses a value of the wrong type with.
TYPED_ENTRIES = {
    "convention": (lambda v: exit_limit_one_pop(TECH, v), "convention index"),
    "oracle convention": (lambda v: exit_bruteforce(TECH, 4, v), "convention index"),
    "beta": (lambda v: invariant_measure(TWO_STRATEGY, 4, v), "beta must"),
    "beta0": (lambda v: beta_ladder_trace(TWO_STRATEGY, 4, 0, beta0=v), "beta0 must"),
    "delta": (lambda v: stable_division(Frontier(1, 3, 0.5), v), "delta must"),
    "beta_cap": (lambda v: beta_ladder_trace(TWO_STRATEGY, 4, 0, beta_cap=v),
                 "beta_cap must"),
    "mass_target": (lambda v: beta_ladder_trace(TWO_STRATEGY, 4, 0, mass_target=v),
                    "mass_target must"),
    "cp2_delta n": (lambda v: cp2_delta(TECH, v, 0, 1, 2), "population size n"),
    "cp2_delta j": (lambda v: cp2_delta(TECH, 4, 0, 1, v), "convention"),
    "cp2_direct j": (lambda v: cp2_direct(TECH, (8, 1, 1), 0, 1, v),
                     "convention index|must be distinct"),
}


@pytest.mark.parametrize("entry, value", [
    *((entry, value) for entry in TYPED_ENTRIES for value in ("1", None, True)),
    ("convention", 1.0),
    ("oracle convention", np.float64(0)),
    # cp2_delta read j = -1 as 2, gave inf for n = 0 and -2.0 for n = -3,
    # and cp2_direct returned 0.0 for i == j.
    *(("cp2_delta n", n) for n in (0, -3, 4.5)),
    *(("cp2_delta j", j) for j in (-1, 5)),
    ("cp2_direct j", 1),
])
def test_entry_points_refuse_a_value_of_the_wrong_type(entry, value):
    # A float or bool index once ended in a numpy IndexError, a str or None
    # beta, delta, beta_cap or mass_target in a TypeError, and beta=True was
    # read as 1.0.
    call, message = TYPED_ENTRIES[entry]
    with pytest.raises(ConditionError, match=message):
        call(value)
