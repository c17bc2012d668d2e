"""cli: commands, exit codes, output contracts."""

import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from ldl import (
    Frontier,
    OnePopGame,
    game_from_json,
    game_to_json,
    ndg_build,
    resolve_stability,
)
from ldl.cli import main
from gamegen import TECH, TECH_UNEVEN, TWO_STRATEGY


@pytest.fixture()
def tech_path(tmp_path):
    p = tmp_path / "tech.json"
    p.write_text(game_to_json(TECH))
    return str(p)


@pytest.fixture()
def two_path(tmp_path):
    p = tmp_path / "two.json"
    p.write_text(game_to_json(TWO_STRATEGY))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_passes_tech(tech_path, capsys):
    code, out, _ = run(capsys, "validate", tech_path)
    assert code == 0
    assert "coordination" in out and "True" in out


def test_validate_malformed_json_is_io_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"type": "one_population", payoffs: [[1]]}')
    code, _, err = run(capsys, "validate", str(p))
    assert code == 1
    assert re.search(r"line \d+, column \d+", err)


def test_validate_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/game.json")
    assert code == 1


def test_validate_non_coordination_game_fails(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(game_to_json(OnePopGame([[1, 0], [2, 3]])))  # A11 <= A21
    code, out, _ = run(capsys, "validate", str(p))
    assert code == 2
    assert "coordination" in out


@pytest.mark.parametrize("doc", [
    {"type": "one_population", "payoffs": [[1, 2], [3]]},
    {"type": "one_population", "payoffs": "abc"},
    {"type": "two_population", "alpha": [[2, 0], [0, 1]], "beta": [[1, 0], ["x", 2]]},
    {"type": "one_population", "payoffs": [["2", "0"], [True, "1e1"]]},
])
def test_validate_malformed_payoffs_is_one_line_exit_2(tmp_path, capsys, doc):
    # These ended in a raw numpy ValueError traceback.
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "array of finite numbers" in err


def test_exit_limit_output(tech_path, capsys):
    code, out, _ = run(capsys, "exit", tech_path, "--convention", "1", "--limit")
    assert code == 0
    assert "3.51562" in out
    assert re.search(r"limit\s+1\s+3.51562", out)
    # 1-based argmin label
    rows = [l for l in out.splitlines() if l.startswith("limit")]
    assert rows and rows[0].split()[4] == "2"


def test_exit_oracle_csv_digits(tech_path, capsys):
    code, out, _ = run(
        capsys, "exit", tech_path, "--convention", "1", "--oracle",
        "--n", "9", "--format", "csv",
    )
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("exit,9")][0]
    cost = line.split(",")[3]
    assert len(cost.replace(".", "").replace("-", "").lstrip("0")) >= 12


def test_exit_guardrail_exit_code(tech_path, capsys, monkeypatch):
    monkeypatch.setenv("LDL_GUARDRAIL_STATES", "5")
    code, _, err = run(
        capsys, "exit", tech_path, "--convention", "1", "--oracle", "--n", "30"
    )
    assert code == 3
    assert "LDL_GUARDRAIL_STATES" in err


@pytest.mark.parametrize("mode", [
    ["--limit"], ["--oracle", "--n", "10"], ["--reduced", "--n", "10"],
])
@pytest.mark.parametrize("convention", ["0", "4"])
def test_exit_rejects_convention_out_of_range(tech_path, capsys, convention, mode):
    code, out, err = run(
        capsys, "exit", tech_path, f"--convention={convention}", *mode
    )
    assert code == 2
    assert err == f"error: convention {convention} outside 1..3 (1-based)\n"
    assert out == ""


@pytest.mark.parametrize("mode", ["--oracle", "--reduced"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_exit_rejects_empty_population(tech_path, capsys, n, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way out
        code, out, err = run(
            capsys, "exit", tech_path, "--convention", "1", mode, f"--n={n}"
        )
    assert code == 2
    assert err == f"error: population size n={n} must be at least 1\n"
    assert out == ""


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                 MemoryError()])
def test_exit_out_of_resources_is_exit_3(tech_path, capsys, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr("ldl.cli.exit_reduced", exhausted)
    code, out, err = run(
        capsys, "exit", tech_path, "--convention", "1", "--reduced", "--n", "12"
    )
    assert code == 3
    assert err.startswith(f"error: out of resources: {type(exc).__name__}")
    assert err.count("\n") == 1
    assert out == ""


def test_unexpected_exception_is_one_line_exit_4(tech_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("bad value\non two lines")

    monkeypatch.setattr("ldl.cli.exit_reduced", broken)
    code, out, err = run(
        capsys, "exit", tech_path, "--convention", "1", "--reduced", "--n", "12"
    )
    assert code == 4
    assert err == "error: internal error: ValueError: bad value on two lines\n"
    assert out == ""


def test_exit_reduced_refuses_a_game_failing_validation(tmp_path, capsys):
    p = tmp_path / "no_bandwagon.json"
    p.write_text(game_to_json(OnePopGame([[7, 4, -6], [6, 10, -5], [-2, 6, 4]])))
    code, out, err = run(
        capsys, "exit", str(p), "--convention", "3", "--reduced", "--n", "5"
    )
    assert code == 2
    assert err.startswith("error: game fails structural validation")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv,env", [
    (["exit", "GAME", "--convention", "1", "--oracle", "--n", "abc"], None),
    (["exit", "GAME", "--convention", "1", "--oracle", "--n", "1.5"], None),
    (["exit", "GAME", "--convention", "1", "--reduced", "--n", ","], None),
    (["stability", "GAME", "--invariant", "--n", "5", "--beta", "abc",
      "--convention", "1"], None),
    (["bargain", "--frontier", "1,x,0.5", "--delta", "0.01"], None),
    (["bargain", "--frontier", "1,3,0.5", "--delta", "nan"], None),
    (["bargain", "--frontier", "1,3,0.5", "--delta", "0"], None),
    (["sweep", "--frontier", "1,3,0.5", "--deltas", ","], None),
    (["exit", "GAME", "--convention", "1", "--oracle", "--n", "6"], "abc"),
    (["exit", "GAME", "--convention", "1", "--oracle", "--n", "6"], "0"),
    (["exit", "GAME", "--convention", "1", "--oracle", "--n", "6"], "-5"),
    (["exit", "GAME", "--convention", "1", "--oracle", "--n", "6"], "1.5"),
    (["stability", "GAME", "--oracle", "--n", "6"], "-5"),
    (["stability", "GAME", "--invariant", "--n", "5", "--beta", "1",
      "--convention", "1"], "0"),
])
def test_malformed_numbers_are_refused(tech_path, capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("LDL_GUARDRAIL_STATES", env)
    argv = [tech_path if a == "GAME" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""
    if env is None and "--beta" in argv:  # refused by its parse, not later
        assert err.startswith("error: --beta ")


@pytest.mark.parametrize("option, argv", [
    # each list was read without its empty item, and the command exited 0
    ("--frontier", ["bargain", "--frontier", "1,,3,0.5", "--delta", "0.01",
                    "--mode", "unintentional"]),
    ("--n", ["exit", "GAME", "--convention", "1", "--oracle", "--n", "5,,6"]),
    ("--beta", ["stability", "GAME", "--invariant", "--n", "5", "--beta", "1,,2",
                "--convention", "1"]),
    ("--deltas", ["sweep", "--frontier", "1,3,0.5", "--deltas", "0.1,,0.01"]),
    ("--n", ["exit", "GAME", "--convention", "1", "--reduced", "--n", "5, ,6"]),
    ("--deltas", ["sweep", "--frontier", "1,3,0.5", "--deltas", "0.1,0.01,"]),
])
def test_comma_lists_refuse_an_empty_item(tech_path, capsys, option, argv):
    argv = [tech_path if a == "GAME" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} expects a comma list of")
    assert err.count("\n") == 1


def test_exit_reduced_rejects_incompatible_rules(tech_path, capsys):
    code, _, err = run(
        capsys, "exit", tech_path, "--convention", "1", "--reduced",
        "--n", "6", "--rule", "uniform",
    )
    assert code == 2
    assert "one-population logit" in err


def test_exit_intentional_on_one_population_fails_cleanly(tech_path, capsys):
    code, _, err = run(
        capsys, "exit", tech_path, "--convention", "1", "--limit",
        "--rule", "intentional",
    )
    assert code == 2


def test_exit_csv_byte_identical(tech_path, tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        code = main([
            "exit", tech_path, "--convention", "1", "--reduced",
            "--n", "6,9,12", "--format", "csv", "--out", str(target),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_stability_invariant_trace_monotone(two_path, capsys):
    code, out, _ = run(
        capsys, "stability", two_path, "--n", "8", "--beta", "1,2,4,8",
        "--invariant", "--format", "csv",
    )
    assert code == 0
    masses = [
        float(l.split(",")[3])
        for l in out.splitlines()
        if l.startswith("invariant_mass")
    ]
    assert len(masses) == 4
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 0.5


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def read_golden(name):
    """A committed golden CSV, read in place."""
    with open(os.path.join(BENCH, "golden", name), encoding="utf-8",
              newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("game,argv,golden", [
    ("two_strat.json", ["--n", "8", "--beta", "1,2,4,8"],
     "stability_invariant.csv"),
    ("tech_stat.json", ["--n", "24", "--beta", "1,2"],
     "stability_invariant_tech.csv"),
])
def test_stability_invariant_csv_matches_golden(game, argv, golden, capsys):
    code, out, _ = run(
        capsys, "stability", os.path.join(BENCH, "data", game), *argv,
        "--invariant", "--format", "csv",
    )
    assert code == 0
    assert out == read_golden(golden)


@pytest.mark.parametrize("name,argv", [
    ("exit_oracle.csv", ["exit", "tech.json", "--convention", "1", "--oracle",
                         "--n", "30,60,120"]),
    ("exit_reduced.csv", ["exit", "tech.json", "--convention", "1", "--reduced",
                          "--n", "12"]),
    ("stability_oracle.csv", ["stability", "tech.json", "--oracle", "--n", "60"]),
    ("bargain_a.csv", ["bargain", "--frontier", "1,3,0.5", "--delta", "0.01",
                       "--mode", "unintentional"]),
    ("bargain_b.csv", ["bargain", "--frontier", "3,1,0.5", "--delta", "0.001",
                       "--mode", "intentional"]),
    ("sweep_a.csv", ["sweep", "--frontier", "1,3,0.5", "--deltas",
                     "0.1,0.05,0.01,0.001", "--mode", "intentional"]),
])
def test_escape_csv_matches_golden(name, argv, capsys):
    argv = [os.path.join(BENCH, "data", a) if a.endswith(".json") else a
            for a in argv]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == read_golden(name)


def test_stability_invariant_guardrail_override(tech_path, capsys, monkeypatch):
    monkeypatch.setenv("LDL_GUARDRAIL_STATES", "100")
    code, _, err = run(
        capsys, "stability", tech_path, "--n", "24", "--beta", "1", "--invariant",
        "--convention", "1",
    )
    assert code == 3
    assert "325 states exceeds cap 100" in err


def test_stability_invariant_huge_beta_is_one_stderr_line():
    # numpy's "overflow encountered in multiply" warning was printed above
    # the error line; a fresh interpreter shows what a user's shell shows
    src = os.path.join(os.path.dirname(BENCH), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "ldl.cli", "stability",
         os.path.join(BENCH, "data", "tech_stat.json"), "--n", "4",
         "--beta", "1e308", "--invariant", "--format", "csv"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr == ("error: stationary solve lost conditioning: "
                           "transition weights underflow at this noise level\n")


@pytest.mark.parametrize("convention", ["4", "-1", "0"])
def test_stability_invariant_rejects_bad_convention(tech_path, capsys, convention):
    code, out, err = run(
        capsys, "stability", tech_path, "--n", "6", "--beta", "1", "--invariant",
        f"--convention={convention}",
    )
    assert code == 2
    assert f"convention {convention} outside 1..3" in err
    assert "invariant_mass" not in out


def test_validate_two_pop_convention_zero_is_not_unset(tmp_path, capsys):
    p = tmp_path / "ndg.json"
    p.write_text(game_to_json(ndg_build(Frontier(1, 3, 0.5), 4)))
    code, _, err = run(capsys, "validate", str(p), "--convention", "0")
    assert code == 2
    assert "convention 0 outside 1..3" in err
    code, _, _ = run(capsys, "validate", str(p))
    assert code == 0


def test_stability_invariant_rejects_empty_population(tech_path, capsys):
    code, out, err = run(
        capsys, "stability", tech_path, "--n", "0", "--beta", "1", "--invariant",
        "--convention", "1",
    )
    assert code == 2
    assert "n=0" in err


def test_stability_oracle_roots(two_path, capsys):
    code, out, _ = run(
        capsys, "stability", two_path, "--oracle", "--n", "12",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    roots = [r for r in doc["arborescence"]["rows"] if r["field"] == "roots"]
    assert roots[0]["value"] == "1"
    assert doc["oracle_costs"]["provenance"] == "oracle n=12"


# maxmin is inconclusive on the first game, so the tree's unique root
# (convention 2) decides; on TECH_UNEVEN maxmin decides.
@pytest.mark.parametrize("game, n", [
    (OnePopGame([[20, -1, -2, 0], [0, 18, 3, -2], [2, -3, 18, 2], [-2, 1, 0, 15]]), 12),
    (TECH_UNEVEN, 30),
])
def test_stability_verdict_is_the_library_verdict(game, n, tmp_path, capsys):
    p = tmp_path / "game.json"
    p.write_text(game_to_json(game))
    code, out, _ = run(capsys, "stability", str(p), "--oracle", "--n", str(n),
                       "--invariant", "--beta", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    analysis = resolve_stability(game, oracle_n=n)
    assert (analysis.report.stable is None) == (n == 12) and analysis.stable is not None
    assert [(r["i"], r["j"], r["value"]) for r in doc["oracle_costs"]["rows"]] == [
        (i + 1, j + 1, analysis.oracle_costs[i, j])
        for i in range(game.k) for j in range(game.k) if i != j
    ]
    tree = {r["field"]: r["value"] for r in doc["arborescence"]["rows"]}
    assert tree == {
        "roots": "+".join(str(r + 1) for r in analysis.oracle_tree.roots),
        "method": analysis.oracle_tree.method,
    }
    [row] = doc["invariant_mass"]["rows"]
    assert row["convention"] == analysis.stable + 1


def test_bargain_command(capsys):
    code, out, _ = run(
        capsys, "bargain", "--frontier", "1,3,0.5", "--delta", "0.01",
        "--mode", "unintentional",
    )
    assert code == 0
    assert re.search(r"m_star", out)
    assert " 200 " in out or "200" in out.split()


@pytest.mark.parametrize("frontier", ["1,inf,0.5", "inf,3,0.5", "nan,3,0.5"])
def test_bargain_rejects_non_finite_frontier(frontier, capsys):
    code, out, err = run(
        capsys, "bargain", "--frontier", frontier, "--delta", "0.01",
        "--mode", "unintentional",
    )
    assert code == 2
    assert err.startswith("error: frontier needs finite") and err.count("\n") == 1
    assert out == ""


def test_sweep_command_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--frontier", "1,3,0.5", "--deltas", "0.1,0.05,0.01",
        "--mode", "intentional", "--format", "csv",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("sweep")]
    assert len(lines) == 3
    errors = [float(l.split(",")[5]) for l in lines]
    assert errors[-1] <= 0.05


def test_json_game_round_trip_through_cli(tech_path, tmp_path, capsys):
    text = open(tech_path).read()
    game = game_from_json(text)
    assert game_to_json(game) == game_to_json(game_from_json(game_to_json(game)))
