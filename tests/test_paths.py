"""path-engine: comparison identities, straightening, block enumeration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ldl import (
    BlockSpec,
    ConditionError,
    CostRule,
    Frontier,
    LdlError,
    Move,
    OnePopGame,
    Path,
    apply_move,
    cp1_delta,
    cp2_delta,
    cp2_direct,
    enumerate_block_paths,
    exit_bruteforce,
    exit_limit_one_pop,
    exit_reduced,
    in_basin,
    ndg_build,
    path_cost,
    straighten,
)
from ldl.chain import payoff_vector
from ldl.escape import _path_bounds
from ldl.paths import build_exchange_triple, run_cost_closed_form
from gamegen import (
    DECIMAL_TIE,
    ROUTED,
    TECH,
    TECH_SKEWED,
    TECH_UNEVEN,
    TWO_STRATEGY,
    random_basin_states,
    random_condition_a_games,
    random_decimal_games,
)


def chain_from(start, moves):
    states = [start]
    for (i, j) in moves:
        states.append(apply_move(states[-1], Move(i, j)))
    return states


def formula_cost(game, mbar, states):
    """Path cost under the in-basin formula (best payoff minus target payoff),
    extended linearly outside the basin; exact for identity bookkeeping."""
    total = 0.0
    for x, y in zip(states, states[1:]):
        diff = [b - a for a, b in zip(x, y)]
        tgt = diff.index(1)
        pi = payoff_vector(game, x)
        total += pi[mbar] - pi[tgt]
    return total


def test_path_cost_follows_the_game_not_its_id():
    # Games built and dropped in a loop reuse ids; each cost must be fresh.
    p = Path(((3, 0), (2, 1), (1, 2)))
    for t in range(2000):
        g = OnePopGame([[2 + t, 0], [0, 1]])
        assert p.cost(g) == path_cost(g, CostRule.LOGIT, p.states)


# ---------------------------------------------------------------------------
# Comparison principle 1


def test_cp1_tech_example():
    delta = cp1_delta(TECH, (8, 1, 1), 0, 1, 2, 2)
    assert delta == pytest.approx(1.9, abs=1e-12)  # (b1 + 3d) / n


def test_cp1_zero_on_bandwagon_boundary():
    # margin exactly zero: the two orders tie
    g = OnePopGame([[4, 1, 1], [1, 4, 1], [1, 1, 4]])
    # A[m,m] - A[l,m] - A[m,i] + A[l,i] with m=0,l=2,i=1: 4 - 1 - 1 + 1 = 3 > 0;
    # build a flat game where the combination vanishes instead
    flat = OnePopGame([[2, 2, 2], [2, 2, 2], [2, 2, 2]])
    d = (flat.payoffs[0, 0] - flat.payoffs[2, 0]
         - flat.payoffs[0, 1] + flat.payoffs[2, 1])
    assert d == 0
    assert cp1_delta(flat, (6, 2, 2), 0, 1, 2, 2) == 0.0


def test_cp1_positive_everywhere_for_seeded_games():
    for g in random_condition_a_games(3, seed=23):
        n = 12
        for x in random_basin_states(g, n, 0, 10, seed=1, min_mbar=2):
            for i in (1, 2):
                if x[i] < 1:
                    continue
                for k in (1, 2):
                    if k == i:
                        continue
                    for l in (1, 2):
                        if l == i:
                            continue
                        probes = (apply_move(x, Move(0, k)),
                                  apply_move(x, Move(i, k)))
                        if not all(in_basin(g, s, 0) for s in probes):
                            continue
                        assert cp1_delta(g, x, 0, i, k, l) > 0


def test_cp1_rejects_bad_indices():
    with pytest.raises(ConditionError):
        cp1_delta(TECH, (8, 1, 1), 0, 0, 1, 2)


# ---------------------------------------------------------------------------
# Comparison principle 2


def test_cp2_tech_value():
    assert cp2_delta(TECH, 10, 0, 1, 2) == 6 * 1 / 10


def test_cp2_antisymmetry():
    for g in random_condition_a_games(5, seed=31):
        assert cp2_delta(g, 9, 0, 1, 2) == pytest.approx(
            -cp2_delta(g, 9, 0, 2, 1), abs=1e-15
        )


def test_cp2_zero_for_potential_game():
    g = OnePopGame([[3, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert cp2_delta(g, 7, 0, 1, 2) == 0.0


def test_cp2_matches_direct_cost_difference():
    n = 30
    states = random_basin_states(
        TECH, n, 0, 100, seed=17, min_mbar=2,
        interior_moves=([[(0, 1)], [(0, 2)]]),
    )
    for x in states:
        direct = cp2_direct(TECH, x, 0, 1, 2)
        assert abs(direct - cp2_delta(TECH, n, 0, 1, 2)) <= 1e-12


# ---------------------------------------------------------------------------
# Exchange identity and run costs


def test_exchange_identity_explicit():
    x = (24, 3, 3)
    g, gp, gs = build_exchange_triple(
        TECH, x, 0, 1, eta=2, rho=2, middle=[Move(0, 2), Move(0, 2)]
    )
    for p in (g, gp, gs):
        assert all(in_basin(TECH, s, 0) for s in p.states)
    ident = 2 * (gp.cost(TECH) - g.cost(TECH)) + 2 * (gs.cost(TECH) - g.cost(TECH))
    assert abs(ident) <= 1e-12
    assert min(gp.cost(TECH), gs.cost(TECH)) <= g.cost(TECH) + 1e-12


def test_exchange_identity_randomized():
    rng = np.random.default_rng(41)
    accepted = 0
    while accepted < 100:
        g = TECH
        n = 30
        eta, rho = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        other = 3 - k
        mid_len = int(rng.integers(0, 4))
        middle = []
        for _ in range(mid_len):
            if rng.random() < 0.7:
                middle.append(Move(0, other))
            else:
                middle.append(Move(other, k))
        x = tuple(
            random_basin_states(g, n, 0, 1, seed=int(rng.integers(1, 10**6)),
                                min_mbar=eta + rho + mid_len + 2)[0]
        )
        if x[other] < mid_len + 1:
            continue
        try:
            gam, gp, gs = build_exchange_triple(g, x, 0, k, eta, rho, middle)
        except Exception:
            continue
        if not all(
            in_basin(g, s, 0) for p in (gam, gp, gs) for s in p.states
        ):
            continue
        ident = eta * (gp.cost(g) - gam.cost(g)) + rho * (gs.cost(g) - gam.cost(g))
        assert abs(ident) <= 1e-12
        assert min(gp.cost(g), gs.cost(g)) <= gam.cost(g) + 1e-12
        accepted += 1


def test_run_cost_closed_form_matches_summation():
    for g in random_condition_a_games(3, seed=51):
        n = 20
        for x in random_basin_states(g, n, 0, 5, seed=2, min_mbar=6):
            for k in (1, 2):
                for rho in (1, 2, 5):
                    states = chain_from(x, [(0, k)] * rho)
                    if not all(in_basin(g, s, 0) for s in states[:-1]):
                        continue
                    summed = formula_cost(g, 0, states)
                    closed = run_cost_closed_form(g, x, 0, k, rho)
                    assert abs(summed - closed) <= 1e-10


# ---------------------------------------------------------------------------
# Straightening


def zigzag_path(n=9):
    moves = [(0, 1), (0, 2)] * 3 + [(0, 1)]
    states = chain_from((n, 0, 0), moves)
    return Path(tuple(states))


def test_straighten_zigzag_reduces_cost_and_blocks():
    p = zigzag_path()
    s = straighten(TECH, p)
    assert s.cost(TECH) <= p.cost(TECH) + 1e-12
    assert not in_basin(TECH, s.states[-1], 0)
    seq = [mv.dst for mv in s.moves]
    # block form: each target appears in one consecutive run
    runs = [t for i, t in enumerate(seq) if i == 0 or seq[i - 1] != t]
    assert len(runs) == len(set(runs))
    assert all(mv.src == 0 for mv in s.moves)


def test_straighten_diamond_identity_bookkeeping():
    # reordering the zig-zag into blocks (same move multiset) changes the
    # formula cost by exactly (number of inversions) * 6d/n
    p = zigzag_path()
    n = 9
    seq = [mv.dst for mv in p.moves]
    blocked = sorted(seq)
    inversions = sum(
        1 for a in range(len(seq)) for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    cost_orig = formula_cost(TECH, 0, p.states)
    cost_blocked = formula_cost(
        TECH, 0, chain_from((n, 0, 0), [(0, t) for t in blocked])
    )
    assert cost_orig - cost_blocked == pytest.approx(
        inversions * 6 * 1 / n, abs=1e-12
    )


def test_straighten_excises_back_step_pair():
    moves = [(0, 1), (1, 0)] + [(0, 1)] * 5
    p = Path(tuple(chain_from((9, 0, 0), moves)))
    s = straighten(TECH, p)
    assert [(mv.src, mv.dst) for mv in s.moves] == [(0, 1)] * 5
    # exactly the cost of the redundant detour is removed
    assert p.cost(TECH) - s.cost(TECH) == pytest.approx(15.0, abs=1e-12)


def test_straighten_fixed_point():
    block = Path(tuple(chain_from((9, 0, 0), [(0, 1)] * 5)))
    assert not in_basin(TECH, block.states[-1], 0)
    s = straighten(TECH, block)
    assert s.states == block.states
    assert s.cost(TECH) == block.cost(TECH)


def test_straighten_randomized_walks():
    games = [TECH, *random_condition_a_games(3, seed=47, k=4)]
    for seed, game in enumerate(games, start=777):
        straighten_random_walks(game, seed)


def straighten_random_walks(game, seed):
    k = game.k
    rng = np.random.default_rng(seed)
    done = 0
    while done < 40:
        n = int(rng.integers(6, 13))
        state = (n,) + (0,) * (k - 1)
        states = [state]
        # random in-basin wander, then force an exit along a random edge
        for _ in range(int(rng.integers(0, 8))):
            options = []
            for i in range(k):
                if states[-1][i] < 1:
                    continue
                for j in range(k):
                    if i == j:
                        continue
                    nxt = apply_move(states[-1], Move(i, j))
                    if in_basin(game, nxt, 0):
                        options.append(nxt)
            if not options:
                break
            states.append(options[int(rng.integers(0, len(options)))])
        tgt = int(rng.integers(1, k))
        while in_basin(game, states[-1], 0):
            if states[-1][0] < 1:
                break
            states.append(apply_move(states[-1], Move(0, tgt)))
        if in_basin(game, states[-1], 0):
            continue
        p = Path(tuple(states))
        s = straighten(game, p)
        assert s.cost(game) <= p.cost(game) + 1e-9
        assert not in_basin(game, s.states[-1], 0)
        assert all(mv.src == 0 for mv in s.moves)
        seq = [mv.dst for mv in s.moves]
        runs = [t for i, t in enumerate(seq) if i == 0 or seq[i - 1] != t]
        assert len(runs) == len(set(runs))
        done += 1


def test_straighten_requires_escaping_input():
    inside = Path(tuple(chain_from((9, 0, 0), [(0, 1)] * 2)))
    with pytest.raises(ConditionError):
        straighten(TECH, inside)


def test_straighten_handles_mid_path_non_status_quo_moves():
    # a path wandering through swaps between the two minority strategies
    moves = [(0, 1), (0, 2), (1, 2), (0, 1), (2, 1), (0, 1), (0, 1), (0, 1)]
    states = chain_from((12, 0, 0), moves)
    if in_basin(TECH, states[-1], 0):  # extend until escape if needed
        while in_basin(TECH, states[-1], 0):
            states.append(apply_move(states[-1], Move(0, 1)))
    p = Path(tuple(states))
    s = straighten(TECH, p)
    assert s.cost(TECH) <= p.cost(TECH) + 1e-12
    assert all(mv.src == 0 for mv in s.moves)
    assert not in_basin(TECH, s.states[-1], 0)


# ---------------------------------------------------------------------------
# Block-path enumeration


def naive_blocky_escape_count(game, n, mbar):
    """Independent oracle: walk every raw move sequence out of the convention
    and count the escapes whose target sequence groups into distinct runs."""

    def blocky(seq):
        seen, last = set(), None
        for t in seq:
            if t != last and t in seen:
                return False
            seen.add(t)
            last = t
        return True

    start = tuple(n if i == mbar else 0 for i in range(game.k))
    count = 0
    stack = [(start, ())]
    while stack:
        state, seq = stack.pop()
        if state[mbar] < 1:
            continue
        for tgt in range(game.k):
            if tgt == mbar:
                continue
            nxt = apply_move(state, Move(mbar, tgt))
            nseq = seq + (tgt,)
            if in_basin(game, nxt, mbar):
                stack.append((nxt, nseq))
            elif blocky(nseq):
                count += 1
    return count


def test_block_enumeration_count_tech_n6():
    specs = list(recursive_block_paths(TECH, 6, 0))
    assert len(specs) == 7
    assert naive_blocky_escape_count(TECH, 6, 0) == 7
    # every spec realizes to a genuine escape path
    for spec in specs:
        states = spec.realize(3, 6, 0).states
        assert all(in_basin(TECH, s, 0) for s in states[:-1])
        assert not in_basin(TECH, states[-1], 0)


def test_block_enumeration_matches_oracle_on_random_games():
    for idx, g in enumerate(random_condition_a_games(5, seed=61)):
        n = 7
        assert len(list(recursive_block_paths(g, n, 0))) == \
            naive_blocky_escape_count(g, n, 0)


def test_block_enumeration_two_strategies_single_run():
    specs = list(enumerate_block_paths(TWO_STRATEGY, 6, 0))
    assert specs == [BlockSpec((1,), (5,))]
    # the run stops one past the weak-inequality boundary
    states = specs[0].realize(2, 6, 0).states
    assert states[-1] == (1, 5)


def test_block_enumeration_population_of_one():
    specs = list(enumerate_block_paths(TECH, 1, 0))
    assert specs == [BlockSpec((1,), (1,)), BlockSpec((2,), (1,))]


def test_block_spec_validation():
    with pytest.raises(ConditionError):
        BlockSpec((1, 1), (2, 2))
    with pytest.raises(ConditionError):
        BlockSpec((1,), (0,))


@pytest.mark.parametrize("targets, counts", [
    ((1,), (2.5,)), ((1,), (True,)), ((1,), ("2",)),
    ((1.0,), (2,)), ((False,), (2,)), ((None,), (2,)),
])
def test_block_spec_refuses_targets_and_counts_that_are_not_integers(targets, counts):
    # (2.5,) once reached realize as a raw TypeError, and (True,) walked as 1.
    with pytest.raises(ConditionError, match="must be integers"):
        BlockSpec(targets, counts)
    spec = BlockSpec((np.int64(1),), (np.int64(2),))
    assert spec.realize(3, 4, 0).states[-1] == (2, 2, 0)


def test_block_enumeration_refuses_a_two_population_game():
    # once a raw AttributeError: a TwoPopGame has no one-population payoffs
    with pytest.raises(ConditionError, match="one-population games only"):
        list(enumerate_block_paths(ndg_build(Frontier(1, 3, 0.5), 4), 4, 0))


# ---------------------------------------------------------------------------
# The straight search against the full block-path search, which survives here
# only as the reference


def recursive_block_paths(game, n, mbar):
    """Reference enumeration: grow each run one switch at a time, testing
    the basin after every switch, and recurse into fresh targets."""
    k = game.k

    def dfs(state, used, targets, counts):
        for tgt in range(k):
            if tgt == mbar or tgt in used or state[mbar] < 1:
                continue
            nxt = apply_move(state, Move(mbar, tgt))
            yield from extend(nxt, used | {tgt}, targets + (tgt,), counts + (1,))

    def extend(state, used, targets, counts):
        if not in_basin(game, state, mbar):
            yield BlockSpec(targets, counts)
            return
        if state[mbar] >= 1:
            nxt = apply_move(state, Move(mbar, targets[-1]))
            grown = counts[:-1] + (counts[-1] + 1,)
            yield from extend(nxt, used, targets, grown)
        yield from dfs(state, used, targets, counts)

    start = tuple(n if i == mbar else 0 for i in range(k))
    yield from dfs(start, frozenset(), (), ())


def reference_exit_reduced(game, n, mbar):
    """Re-price every spec with ``path_cost``; the first strict minimum wins."""
    best = None
    for spec in recursive_block_paths(game, n, mbar):
        states = spec.realize(game.k, n, mbar).states
        c = path_cost(game, CostRule.LOGIT, states)
        if best is None or c < best[0]:
            best = (c, spec, states)
    return best


def sweep_games():
    return ([TECH, TECH_SKEWED, TECH_UNEVEN, ROUTED, DECIMAL_TIE, TWO_STRATEGY]
            + random_condition_a_games(3, seed=71)
            + random_condition_a_games(1, seed=72, k=4)
            + random_decimal_games(3, seed=73)
            + random_decimal_games(1, seed=74, k=4))


def test_block_enumeration_matches_recursive_reference():
    for g in sweep_games():
        for n in range(1, 32, 1 if g.k == 3 else 5):
            for m in range(g.k):
                straight = [spec for spec in recursive_block_paths(g, n, m)
                            if len(spec.targets) == 1]
                assert list(enumerate_block_paths(g, n, m)) == straight, \
                    (g.payoffs, n, m)


def test_exit_reduced_matches_path_cost_on_every_spec():
    cases = [(g, n, m) for g in sweep_games()
             for n in ((1, 2, 5, 12, 19, 31) if g.k == 3 else (1, 2, 5, 12))
             for m in range(g.k)]
    # Specs whose closed-form prices tie within rounding, where only the
    # step-by-step re-pricing picks the reference's spec.
    decimal = random_decimal_games(12, seed=7)
    cases += [(random_condition_a_games(12, seed=5)[6], 7, 1),
              (decimal[2], 3, 0), (decimal[6], 10, 1)]
    for g, n, m in cases:
        res = exit_reduced(g, n, m)
        cost, spec, states = reference_exit_reduced(g, n, m)
        assert (res.cost, res.block, res.witness.states) == \
            (cost, spec, states), (g.payoffs, n, m)


def test_exit_reduced_large_population_does_not_recurse():
    n = 2000
    res = exit_reduced(TECH, n, 0)
    payoff_range = TECH.payoffs.max() - TECH.payoffs.min()
    assert abs(res.normalized - exit_limit_one_pop(TECH, 0).cost) <= payoff_range / n
    assert res.block == BlockSpec((1,), (res.witness.states[-1][1],))
    assert res.cost == path_cost(TECH, CostRule.LOGIT, res.witness)


@pytest.mark.parametrize("chunk", [None, 3])
def test_path_bound_is_the_reduced_cost(monkeypatch, chunk):
    # The search's bound and the reduced search read one pricer of the
    # straight runs, so they agree to the bit (inf where no run escapes):
    # the bound prices each run whole, the reduced search in chunks.
    if chunk:
        monkeypatch.setattr("ldl.paths._CHUNK", chunk)
    for g in sweep_games():
        for n in (1, 2, 5, 12, 19, 31, 200):
            for m in range(g.k):
                bound, = _path_bounds(g, n, m, (m,), True, CostRule.LOGIT)
                try:
                    cost = exit_reduced(g, n, m).cost
                except LdlError:
                    cost = math.inf
                assert bound == cost, (g.payoffs, n, m)


# Games drawn from the seeded samplers, which pass the structural conditions.
condition_games = st.builds(
    lambda make, seed, k: make(1, seed=seed, k=k),
    st.sampled_from((random_condition_a_games, random_decimal_games)),
    st.integers(0, 2**16), st.sampled_from((3, 4)),
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(games=condition_games, n=st.integers(1, 14))
def test_straight_search_is_the_full_search(games, n):
    # The paper's theorem: under the conditions one straight run is a
    # least-cost escape, so the straight search loses nothing.
    assume(games)
    g = games[0]
    for m in range(g.k):
        res = exit_reduced(g, n, m)
        cost, spec, states = reference_exit_reduced(g, n, m)
        assert (res.cost, res.block, res.witness.states) == (cost, spec, states)
        assert abs(res.cost - exit_bruteforce(g, n, m).cost) <= 1e-9
