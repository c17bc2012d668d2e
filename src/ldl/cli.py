"""Command-line front end.

Subcommands: validate, exit, stability, bargain, sweep.  Strategy and
convention indices are 1-based on the command line and in rendered output;
the library itself is 0-based.

Exit codes: 0 success, 1 I/O or schema error, 2 validation failure,
3 guardrail exceeded or out of resources, 4 internal error; each failure
is one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bargaining, stability
from .chain import CostRule, check_guardrail
from .errors import ConditionError, GuardrailExceeded, LdlError
from .escape import (
    exit_bruteforce,
    exit_limit_one_pop,
    exit_limit_two_pop,
    exit_reduced,
)
from .games import TwoPopGame, game_from_json, validate_one_pop, validate_two_pop

RULES = {
    "logit": CostRule.LOGIT,
    "intentional": CostRule.INTENTIONAL,
    "uniform": CostRule.UNIFORM,
    "better": CostRule.BETTER_REPLY,
}


@dataclass
class Section:
    name: str
    columns: list[str]
    rows: list[tuple]
    provenance: str = ""


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _table_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def render_csv(sections: list[Section]) -> str:
    blocks = []
    for s in sections:
        lines = [",".join(["section"] + s.columns)]
        for row in s.rows:
            lines.append(",".join([s.name] + [_csv_cell(v) for v in row]))
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


def render_table(sections: list[Section]) -> str:
    out = []
    for s in sections:
        cells = [s.columns] + [[_table_cell(v) for v in row] for row in s.rows]
        widths = [max(len(r[c]) for r in cells) for c in range(len(s.columns))]
        out.append(f"[{s.name}]")
        for r in cells:
            out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        out.append("")
    return "\n".join(out)


def _json_default(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    raise TypeError(f"not JSON serializable: {type(v)}")


def render_json(sections: list[Section]) -> str:
    doc = {}
    for s in sections:
        entry = {"rows": [dict(zip(s.columns, row)) for row in s.rows]}
        if s.provenance:
            entry["provenance"] = s.provenance
        doc[s.name] = entry
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"


def _emit(sections: list[Section], args) -> None:
    fmt = getattr(args, "format", "table")
    text = {"table": render_table, "csv": render_csv, "json": render_json}[fmt](
        sections
    )
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_game(path: str):
    with open(path) as fh:
        return game_from_json(fh.read())


def _guardrail() -> Optional[int]:
    raw = os.environ.get("LDL_GUARDRAIL_STATES")
    if not raw:
        return None
    try:
        return check_guardrail(int(raw))
    except (ValueError, ConditionError):
        raise ConditionError("LDL_GUARDRAIL_STATES expects an integer of at "
                             f"least 1, got {raw!r}") from None


def _parse_list(text: str, kind: type, noun: str, option: str) -> list:
    """A non-empty comma list of ``kind`` values for ``option``."""
    try:
        vals = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        vals = []
    if not vals:
        raise ConditionError(f"{option} expects a comma list of {noun}, "
                             f"got {text!r}")
    return vals


def _parse_floats(text: str, option: str) -> list[float]:
    return _parse_list(text, float, "numbers", option)


def _parse_ints(text: str, option: str) -> list[int]:
    return _parse_list(text, int, "integers", option)


def _frontier(args) -> bargaining.Frontier:
    vals = _parse_floats(args.frontier, "--frontier")
    if len(vals) != 3:
        raise ConditionError("--frontier expects a,b,p")
    return bargaining.Frontier(*vals)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    game = _load_game(args.game)
    if isinstance(game, TwoPopGame):
        m = (1 if args.convention is None else args.convention) - 1
        report = validate_two_pop(game, m)
    else:
        report = validate_one_pop(game)
    rows = [
        ("coordination", report.coordination),
        ("bandwagon", report.bandwagon),
        ("supports_all_ok", report.supports_all_ok),
        ("partial_scan", report.partial),
    ]
    if report.conflict_of_interest is not None:
        rows.append(("conflict_of_interest", report.conflict_of_interest))
    sections = [Section("conditions", ["check", "holds"], rows)]
    bad = [s for s in report.supports_ok if not s.ok]
    if bad:
        sections.append(
            Section(
                "failed_supports",
                ["support", "status"],
                [("+".join(str(i + 1) for i in s.support), s.status) for s in bad],
            )
        )
    if not report.condition_holds:
        sections.append(
            Section("failures", ["message"], [(m,) for m in report.failures()])
        )
    _emit(sections, args)
    return 0 if report.condition_holds else 2


def _dominant_target(result) -> Optional[int]:
    if result.witness is None:
        return None
    tally = Counter(mv.dst for mv in result.witness.moves)
    return tally.most_common(1)[0][0]


def cmd_exit(args) -> int:
    game = _load_game(args.game)
    rule = RULES[args.rule]
    m = args.convention - 1
    guardrail = _guardrail()
    rows = []
    if args.mode == "limit":
        res = (
            exit_limit_two_pop(game, m, rule)
            if isinstance(game, TwoPopGame)
            else exit_limit_one_pop(game, m, rule)
        )
        argmin = "+".join(str(j + 1) for j in res.argmin_targets)
        rows.append(
            ("limit", args.convention, res.cost, res.normalized, argmin,
             res.driving_population or "")
        )
        prov = "closed-form"
    else:
        if not args.n:
            raise ConditionError("--oracle/--reduced need --n")
        for n in _parse_ints(args.n, "--n"):
            if args.mode == "reduced":
                if isinstance(game, TwoPopGame) or rule is not CostRule.LOGIT:
                    raise ConditionError(
                        "the reduced search covers one-population logit only"
                    )
                res = exit_reduced(game, n, m)
            else:
                res = exit_bruteforce(game, n, m, rule, guardrail=guardrail)
            dom = _dominant_target(res)
            rows.append(
                (n, args.convention, res.cost, res.normalized,
                 "" if dom is None else str(dom + 1), "")
            )
        prov = "oracle" if args.mode == "oracle" else "reduced"
    sections = [
        Section(
            "exit",
            ["n", "convention", "cost", "normalized", "argmin_j", "driving"],
            rows,
            provenance=prov,
        )
    ]
    _emit(sections, args)
    return 0


def _pairs(matrix, cast) -> list[tuple]:
    """The off-diagonal entries of a k x k matrix as 1-based (i, j, value) rows."""
    k = len(matrix)
    return [(i + 1, j + 1, cast(matrix[i][j]))
            for i in range(k) for j in range(k) if i != j]


def cmd_stability(args) -> int:
    game = _load_game(args.game)
    rule = RULES[args.rule]
    guardrail = _guardrail()
    oracle_n = None
    if args.oracle:
        if not args.n:
            raise ConditionError("--oracle needs --n")
        oracle_n = _parse_ints(args.n, "--n")[0]
    analysis = stability.resolve_stability(game, rule, oracle_n=oracle_n,
                                           guardrail=guardrail)
    report = analysis.report
    sections = [
        Section("radius", ["i", "j", "value"], _pairs(analysis.radius, float),
                provenance="closed-form"),
        Section("incidence", ["i", "j", "value"],
                _pairs(stability.incidence(analysis.radius), int)),
        Section(
            "maxmin",
            ["field", "value"],
            [
                ("radii", " ".join(format(r, ".12g") for r in report.radii)),
                ("candidates", "+".join(str(c + 1) for c in report.candidates)),
                ("local_resistance", report.local_resistance),
                ("unique_cycle", report.unique_cycle),
                ("stable", "" if report.stable is None else report.stable + 1),
                ("note", report.note),
            ],
        ),
    ]
    tree = analysis.oracle_tree
    if tree is not None:
        sections.append(Section("oracle_costs", ["i", "j", "value"],
                                _pairs(analysis.oracle_costs, float),
                                provenance=f"oracle n={oracle_n}"))
        sections.append(Section("arborescence", ["field", "value"], [
            ("roots", "+".join(str(r + 1) for r in tree.roots)),
            ("method", tree.method),
        ]))
    if args.invariant:
        if not args.n or not args.beta:
            raise ConditionError("--invariant needs --n and --beta")
        target = (analysis.stable if args.convention is None
                  else args.convention - 1)
        if target is None:
            raise ConditionError(
                "no stable candidate to trace; pass --convention explicitly"
            )
        n = _parse_ints(args.n, "--n")[0]
        rows = []
        for b in _parse_floats(args.beta, "--beta"):
            mass = stability.convention_mass(game, n, b, target, rule, guardrail)
            rows.append((b, target + 1, mass))
        sections.append(
            Section("invariant_mass", ["beta", "convention", "mass"], rows,
                    provenance=f"exact solve n={n}")
        )
    _emit(sections, args)
    return 0


def cmd_bargain(args) -> int:
    fr = _frontier(args)
    sol = bargaining.solve_solutions(fr)
    res = bargaining.stable_division(fr, args.delta, args.mode, solutions=sol)
    sections = [
        Section(
            "solutions",
            ["s_nash", "s_intentional", "s_egalitarian", "ordering"],
            [(sol.s_nash, sol.s_intentional, sol.s_egalitarian, sol.ordering)],
            provenance="bisection",
        ),
        Section(
            "division",
            ["mode", "delta", "m_star", "x_star", "radius", "binding_term",
             "driving_population", "crossing_candidate", "crossing_agrees",
             "warnings"],
            [
                (res.rule, res.delta, res.m_star, res.x_star, res.radius,
                 res.binding_term, res.driving_population,
                 "" if res.crossing_candidate is None
                 else format(res.crossing_candidate, ".12g"),
                 res.crossing_agrees, "; ".join(res.warnings))
            ],
            provenance="exhaustive argmax",
        ),
    ]
    _emit(sections, args)
    return 0


def cmd_sweep(args) -> int:
    fr = _frontier(args)
    deltas = _parse_floats(args.deltas, "--deltas")
    rows = bargaining.convergence_sweep(fr, deltas, args.mode)
    sections = [
        Section(
            "sweep",
            ["delta", "m_star", "x_star", "target", "error", "binding_term",
             "driving_population", "warning"],
            [
                (r.delta, r.m_star, r.x_star, r.target, r.error,
                 r.binding_term, r.driving_population, r.warning)
                for r in rows
            ],
            provenance="exhaustive argmax",
        )
    ]
    _emit(sections, args)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ldl",
        description="Escape paths, stochastic stability, and bargaining "
        "solutions under logit choice dynamics.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["table", "csv", "json"],
                       default="table")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("validate", help="check the structural conditions")
    p.add_argument("game")
    p.add_argument("--convention", type=int,
                   help="1-based convention for two-population checks")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("exit", help="minimum-cost escape from a convention")
    p.add_argument("game")
    p.add_argument("--convention", type=int, required=True)
    p.add_argument("--rule", choices=sorted(RULES), default="logit")
    p.add_argument("--n", help="comma list of population sizes")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--oracle", dest="mode", action="store_const",
                     const="oracle")
    grp.add_argument("--reduced", dest="mode", action="store_const",
                     const="reduced")
    grp.add_argument("--limit", dest="mode", action="store_const",
                     const="limit")
    p.set_defaults(mode="limit")
    common(p)
    p.set_defaults(func=cmd_exit)

    p = sub.add_parser("stability", help="radius matrix and stability tests")
    p.add_argument("game")
    p.add_argument("--rule", choices=sorted(RULES), default="logit")
    p.add_argument("--n", help="population size for oracle/invariant work")
    p.add_argument("--beta", help="comma list of noise parameters")
    p.add_argument("--oracle", action="store_true",
                   help="compute exact transition costs and the tree root")
    p.add_argument("--invariant", action="store_true",
                   help="trace stationary mass over --beta")
    p.add_argument("--convention", type=int,
                   help="1-based convention for the invariant trace")
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("bargain", help="stochastically stable division")
    p.add_argument("--frontier", required=True, help="a,b,p family parameters")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=["unintentional", "intentional"],
                   default="unintentional")
    common(p)
    p.set_defaults(func=cmd_bargain)

    p = sub.add_parser("sweep", help="convergence sweep over grid sizes")
    p.add_argument("--frontier", required=True)
    p.add_argument("--deltas", required=True, help="comma list, in the order given")
    p.add_argument("--mode", choices=["unintentional", "intentional"],
                   default="unintentional")
    common(p)
    p.set_defaults(func=cmd_sweep)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardrailExceeded as exc:
        print(f"error: {exc} (override with LDL_GUARDRAIL_STATES)",
              file=sys.stderr)
        return 3
    except LdlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of resources: {type(exc).__name__}{detail}",
              file=sys.stderr)
        return 3
    except Exception as exc:  # a defect: still one line, never a traceback
        print(f"error: internal error: {type(exc).__name__}: "
              f"{' '.join(str(exc).split())}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
