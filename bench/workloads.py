"""The three workloads as fixed op lists, each op with its correctness check.

An op is one library entry point at a stated size, or one CLI command run
in-process through ``ldl.cli.main`` with ``--format csv``.  Ops call the
library through attribute lookups on the ``ldl`` modules at call time, so a
traced pass sees them.  A check returns None when the answer is right and a
one-line reason otherwise; checks run after a pass, outside its timing.

Probes are ops that exercise a known defect of the library.  They are run
once per run, outside the timed passes, and their outcome is reported on
its own line and in ``failed_frac``, so a fix shows without changing what
the passes measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import inputs
import reference
import ldl
import ldl.cli
import ldl.stability

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")

MASS_RTOL = 1e-9        # library vs committed GTH convention masses, relative
RESIDUAL_TOL = 1e-12    # max |pi P - pi| on the reference kernel
SUM_TOL = 1e-9          # |sum(pi) - 1|
COST_ATOL = 1e-9        # oracle vs reduced search, absolute
ROOT_TOL = 1e-8         # residuals of the three bargaining roots


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Context:
    """References computed on first use and shared by a run's checks."""

    def __init__(self, refs: dict):
        self.refs = refs
        self._memo: dict = {}
        self.residual_max = 0.0

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


# ---------------------------------------------------------------------------
# CLI commands compared byte for byte with golden output from the seed


def cli_op(golden: str, argv: list[str]) -> Op:
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    argv += ["--format", "csv"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ldl.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        with open(os.path.join(GOLDEN, golden), encoding="utf-8", newline="") as fh:
            want = fh.read()
        return None if out == want else f"output differs from golden/{golden}"

    return Op("cli " + " ".join(argv[:1] + [os.path.basename(a) for a in argv[1:]]),
              run, check)


CLI = {
    "escape": (
        ("exit_oracle.csv", ["exit", "tech.json", "--convention", "1", "--oracle",
                             "--n", "30,60,120"]),
        ("exit_reduced.csv", ["exit", "tech.json", "--convention", "1", "--reduced",
                              "--n", "12"]),
        ("stability_oracle.csv", ["stability", "tech.json", "--oracle", "--n", "60"]),
    ),
    "stationary": (
        ("stability_invariant.csv", ["stability", "two_strat.json", "--n", "8",
                                     "--beta", "1,2,4,8", "--invariant"]),
        ("stability_invariant_tech.csv", ["stability", "tech_stat.json", "--n", "24",
                                          "--beta", "1,2", "--invariant"]),
    ),
    "bargaining": (
        ("bargain_a.csv", ["bargain", "--frontier", "1,3,0.5", "--delta", "0.01",
                           "--mode", "unintentional"]),
        ("bargain_b.csv", ["bargain", "--frontier", "3,1,0.5", "--delta", "0.001",
                           "--mode", "intentional"]),
        ("sweep_a.csv", ["sweep", "--frontier", "1,3,0.5", "--deltas",
                         "0.1,0.05,0.01,0.001", "--mode", "intentional"]),
    ),
}


# ---------------------------------------------------------------------------
# escape


def _payoff_range(game) -> float:
    mats = [game.payoffs] if isinstance(game, ldl.OnePopGame) else [game.alpha, game.beta]
    return float(max(m.max() for m in mats) - min(m.min() for m in mats))


def _witness_problem(game, n: int, m: int, res) -> Optional[str]:
    """The witness leaves the convention, exits its basin, and costs ``res.cost``."""
    states = res.witness.states
    if states[0] != ldl.convention_state(game, n, m):
        return "witness does not start at the convention"
    if ldl.in_basin(game, states[-1], m):
        return "witness ends inside the basin"
    priced = ldl.path_cost(game, ldl.CostRule.LOGIT, states)
    if abs(priced - res.cost) > COST_ATOL:
        return f"witness prices at {priced!r}, result says {res.cost!r}"
    return None


def _near_limit(game, n: int, normalized: float, limit: float) -> Optional[str]:
    """Finite-n normalized cost within C/n of the limit, C the payoff range."""
    gap = abs(normalized - limit)
    bound = _payoff_range(game) / n
    return None if gap <= bound else f"|cost/n - limit| = {gap:.3g} > {bound:.3g}"


def oracle_op(game, label: str, n: int, m: int) -> Op:
    def check(res):
        if res.n != n or res.convention != m:
            return "result describes another problem"
        limit = ldl.exit_limit_one_pop(game, m).cost
        return _near_limit(game, n, res.normalized, limit) or _witness_problem(
            game, n, m, res)

    return Op(f"escape.exit_bruteforce k={game.k} n={n} m={m} {label}",
              lambda: ldl.exit_bruteforce(game, n, m), check)


def reduced_op(game, label: str, n: int, m: int, ctx: Context) -> Op:
    def check(res):
        oracle = ctx.memo(("oracle", id(game), n, m),
                          lambda: ldl.exit_bruteforce(game, n, m).cost)
        if abs(res.cost - oracle) > COST_ATOL:
            return f"reduced {res.cost!r} != oracle {oracle!r}"
        return _witness_problem(game, n, m, res)

    return Op(f"escape.exit_reduced k={game.k} n={n} m={m} {label}",
              lambda: ldl.exit_reduced(game, n, m), check)


def tree_op(game, label: str, n: int, ctx: Context) -> Op:
    """Exact convention-to-convention costs and the cheapest rooted tree."""
    def run():
        costs = ldl.transition_cost_matrix(game, n)
        return costs, ldl.arborescence_root(costs)

    def check(result):
        costs, tree = result
        off = ~np.eye(game.k, dtype=bool)
        if not np.all(np.isfinite(costs[off])) or np.any(costs[off] <= 0):
            return "transition costs must be finite and positive"
        for i in range(game.k):
            escape = ctx.memo(("oracle", id(game), n, i),
                              lambda: ldl.exit_bruteforce(game, n, i).cost) / n
            if costs[i][off[i]].min() > escape + COST_ATOL:
                return f"cheapest transition from {i} exceeds its escape cost"
        for method in ("edmonds", "exhaustive"):
            if ldl.arborescence_root(costs, method).roots != tree.roots:
                return f"tree roots differ from the {method} search"
        return None

    return Op(f"stability.transition_cost_matrix+arborescence_root k={game.k} "
              f"n={n} {label}", run, check)


def escape_ops(seeded: dict, ctx: Context) -> list[Op]:
    tech = inputs.one_pop(inputs.TECH)
    uneven = inputs.one_pop(inputs.TECH_UNEVEN)
    g3, g4 = seeded["game3"], seeded["game4"]
    r3, r4 = "seeded " + inputs.describe(g3), "seeded " + inputs.describe(g4)
    ops = []
    for game, label, n in ((tech, "tech(16,16,16,1)", 480),
                           (uneven, "tech(16,12,24,1)", 360),
                           (g3, r3, 300), (g4, r4, 60)):
        ops += [oracle_op(game, label, n, m) for m in range(game.k)]
    for game, label, n in ((tech, "tech(16,16,16,1)", 96),
                           (uneven, "tech(16,12,24,1)", 96),
                           (g3, r3, 72), (g4, r4, 20)):
        ops += [reduced_op(game, label, n, m, ctx) for m in range(game.k)]
    ops.append(tree_op(uneven, "tech(16,12,24,1)", 90, ctx))
    ops.append(tree_op(g3, r3, 60, ctx))
    ops += [cli_op(*c) for c in CLI["escape"]]
    return ops


def escape_probes(ctx: Context) -> list[Op]:
    """exit_reduced at n=2000 overflows the recursion limit of the block DFS."""
    tech = inputs.one_pop(inputs.TECH)
    n = 2000

    def check(res):
        limit = ldl.exit_limit_one_pop(tech, 0).cost
        return _near_limit(tech, n, res.normalized, limit)

    return [Op(f"escape.exit_reduced k=3 n={n} m=0 tech(16,16,16,1)",
               lambda: ldl.exit_reduced(tech, n, 0), check)]


# ---------------------------------------------------------------------------
# stationary


def _doc(game) -> dict:
    return json.loads(ldl.game_to_json(game))


def _state_count(game, n: int) -> int:
    side = math.comb(n + game.k - 1, game.k - 1)
    return side * side if isinstance(game, ldl.TwoPopGame) else side


def measure_op(game, label: str, n: int, beta: float, ctx: Context,
               ref_name: Optional[str] = None) -> Op:
    """Stationary distribution checked against GTH on an independent kernel.

    Fixed instances use the committed masses in ``references.json``; seeded
    ones are solved by ``reference.py`` on first use.
    """
    doc = _doc(game)

    def check(result):
        states, pi = result
        pi = np.asarray(pi)
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > SUM_TOL:
            return "masses are negative or do not sum to 1"
        if ref_name is not None:
            want = ctx.refs[ref_name]
        else:
            want = ctx.memo(("masses", label, n, beta),
                            lambda: reference.convention_masses(doc, n, beta))
        index = {s: x for x, s in enumerate(states)}
        got = [float(pi[index[s]]) for s in reference.convention_states(doc, n)]
        for m, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > MASS_RTOL * abs(w):
                return (f"convention {m + 1} mass {g:.6g}, reference {w:.6g} "
                        f"(masses {', '.join(f'{v:.3g}' for v in got)})")
        res = reference.residual(doc, n, beta, states, pi)
        ctx.residual_max = max(ctx.residual_max, res)
        return None if res <= RESIDUAL_TOL else f"max |pi P - pi| = {res:.3g}"

    return Op(f"stability.invariant_measure states={_state_count(game, n)} "
              f"n={n} beta={beta:g} {label}",
              lambda: ldl.stability.invariant_measure(game, n, beta), check)


def stationary_ops(seeded: dict, ctx: Context) -> list[Op]:
    tech = inputs.one_pop(inputs.TECH_STAT)
    ndg = ldl.ndg_build(inputs.frontier(inputs.PANEL_A), 4)
    pair = inputs.two_pop(inputs.TWO_POP_2X2)
    g = seeded["game3_stat"]
    ops = [measure_op(tech, "tech(16,17,18,1)", 40, beta, ctx,
                      f"tech_stat n=40 beta={beta:g}") for beta in (1.0, 2.0, 4.0)]
    ops.append(measure_op(g, "seeded " + inputs.describe(g), 36, 1.0, ctx))
    ops.append(measure_op(ndg, "ndg(1,3,0.5) L=4", 6, 1.0, ctx,
                          "ndg_A L=4 n=6 beta=1"))
    ops.append(measure_op(pair, "two_pop 2x2", 30, 1.0, ctx,
                          "two_pop_2x2 n=30 beta=1"))
    ops += [cli_op(*c) for c in CLI["stationary"]]
    return ops


def stationary_probes(ctx: Context) -> list[Op]:
    """Just above the 2,000-state dense cap, where power iteration takes over."""
    tech = inputs.one_pop(inputs.TECH_STAT)
    return [measure_op(tech, "tech(16,17,18,1)", 62, 1.0, ctx,
                       "tech_stat n=62 beta=1")]


# ---------------------------------------------------------------------------
# bargaining


def _f(fr, x):
    return (fr.a * (1.0 - x / fr.b)) ** fr.p


def _df(fr, x):
    return -(fr.p * fr.a / fr.b) * (fr.a * (1.0 - x / fr.b)) ** (fr.p - 1.0)


def _root(fn, lo: float, hi: float) -> float:
    """Plain bisection on a sign change, to the last representable bit."""
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _targets(fr) -> dict:
    """Nash and intentional splits, solved here from the frontier formula."""
    lo, hi = fr.b * 1e-9, fr.b * (1 - 1e-12)
    return {
        "unintentional": _root(lambda x: _f(fr, x) / x + _df(fr, x), lo, hi),
        "intentional": _root(lambda x: (_f(fr, x) / x) ** 2 + _df(fr, x), lo, hi),
    }


def solutions_op(fr) -> Op:
    def check(sol):
        residuals = (
            _f(fr, sol.s_nash) / sol.s_nash + _df(fr, sol.s_nash),
            (_f(fr, sol.s_intentional) / sol.s_intentional) ** 2
            + _df(fr, sol.s_intentional),
            _f(fr, sol.s_egalitarian) - sol.s_egalitarian,
        )
        worst = max(abs(r) for r in residuals)
        return None if worst <= ROOT_TOL else f"root residual {worst:.3g}"

    return Op(f"bargaining.solve_solutions {inputs.describe(fr)}",
              lambda: ldl.solve_solutions(fr), check)


def _division_problem(fr, delta: float, mode: str, x_star: float) -> Optional[str]:
    target = _targets(fr)[mode]
    if abs(x_star - target) > delta * (1 + 1e-9):
        return f"x* = {x_star:.6g} is more than one cell from {target:.6g}"
    return None


def division_op(fr, delta: float, mode: str) -> Op:
    def check(res):
        if not res.crossing_agrees:
            return "crossing candidate disagrees with the exhaustive argmax"
        return _division_problem(fr, delta, mode, res.x_star)

    cells = round(fr.b / delta)
    return Op(f"bargaining.stable_division L={cells} {mode} {inputs.describe(fr)}",
              lambda: ldl.stable_division(fr, delta, mode), check)


def sweep_op(fr, deltas: tuple, mode: str) -> Op:
    def check(rows):
        if [r.delta for r in rows] != list(deltas):
            return "sweep rows do not follow the grid list"
        for r in rows:
            problem = _division_problem(fr, r.delta, mode, r.x_star)
            if problem:
                return f"delta={r.delta:g}: {problem}"
        return None

    return Op(f"bargaining.convergence_sweep {len(deltas)} grids {mode} "
              f"{inputs.describe(fr)}",
              lambda: ldl.convergence_sweep(fr, deltas, mode), check)


def demand_escape_op(abp, L: int, n: int, m: int) -> Op:
    """Discretized demand game, its limit, and the two-population oracle."""
    fr = inputs.frontier(abp)

    def run():
        game = ldl.ndg_build(fr, L)
        return game, ldl.exit_limit_two_pop(game, m), ldl.exit_bruteforce(game, n, m)

    def check(result):
        game, limit, res = result
        return _near_limit(game, n, res.normalized, limit.cost) or _witness_problem(
            game, n, m, res)

    return Op(f"escape.exit_bruteforce two_pop L={L} n={n} m={m} "
              f"{inputs.describe(fr)}", run, check)


def bargaining_ops(seeded: dict, ctx: Context) -> list[Op]:
    panels = [inputs.frontier(inputs.PANEL_A), inputs.frontier(inputs.PANEL_B)]
    drawn = list(seeded["frontiers"])
    ops = [solutions_op(fr) for fr in panels + drawn]
    for fr in panels:
        ops += [division_op(fr, 1e-4, mode)
                for mode in ("unintentional", "intentional")]
    for fr in drawn:
        ops += [division_op(fr, fr.b / 5_000, mode)
                for mode in ("unintentional", "intentional")]
    a_grids = (0.1, 0.05, 0.01, 0.005, 0.001)
    ops += [sweep_op(panels[0], a_grids, mode)
            for mode in ("unintentional", "intentional")]
    ops.append(sweep_op(drawn[0], tuple(drawn[0].b / L for L in (10, 100, 1000)),
                        "unintentional"))
    ops += [demand_escape_op(inputs.PANEL_A, 6, 40, m) for m in (0, 1, 2, 4)]
    ops += [demand_escape_op(inputs.PANEL_B, 8, 40, m) for m in (0, 1)]
    ops += [cli_op(*c) for c in CLI["bargaining"]]
    return ops


# ---------------------------------------------------------------------------
# every workload


def touch_op(ctx: Context) -> Op:
    """One small call into every traced layer, timed as a single op.

    It keeps each per-layer figure a measured time on every workload, at a
    few milliseconds a pass, while the workload's own ops leave the layers
    it bypasses alone.
    """
    tech = inputs.one_pop(inputs.TECH)
    stat = inputs.one_pop(inputs.TECH_STAT)
    ndg = ldl.ndg_build(inputs.frontier(inputs.PANEL_A), 4)
    parts = [
        reduced_op(tech, "tech(16,16,16,1)", 12, 0, ctx),
        oracle_op(tech, "tech(16,16,16,1)", 12, 0),
        tree_op(tech, "tech(16,16,16,1)", 12, ctx),
        measure_op(stat, "tech(16,17,18,1)", 8, 1.0, ctx),
        measure_op(ndg, "ndg(1,3,0.5) L=4", 2, 1.0, ctx),
        demand_escape_op(inputs.PANEL_A, 4, 8, 0),
        division_op(inputs.frontier(inputs.PANEL_A), 0.1, "unintentional"),
    ]

    def check(results):
        for part, result in zip(parts, results):
            problem = part.check(result)
            if problem is not None:
                return f"{part.name}: {problem}"
        return None

    return Op("touch every layer at small size", lambda: [p.run() for p in parts],
              check)


def _with_touch(build):
    return lambda seeded, ctx: build(seeded, ctx) + [touch_op(ctx)]


WORKLOADS = {
    "escape": (_with_touch(escape_ops), escape_probes),
    "stationary": (_with_touch(stationary_ops), stationary_probes),
    "bargaining": (_with_touch(bargaining_ops), lambda ctx: []),
}
