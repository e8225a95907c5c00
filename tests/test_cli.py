"""End-to-end checks of the command-line surface.

Covers the documented examples, the exit-code contract (0/2/3/4), output
determinism, and the JSON round-trip guarantee.  Numeric plausibility of the
underlying quantities is torture-tested elsewhere; here we mostly assert that
the right numbers arrive on stdout with the right tags.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as hyp

import deuce
from deuce import core
from deuce.cli import _OPS, SYSTEM_KINDS, _g_row, _json_text, _round_sig, main
from deuce.efficiency import BetaPrior, efficiency_one_param, efficiency_two_param
from deuce.game import game_win_prob
from deuce.match import MatchSpec, match_points_moments, match_win_prob
from deuce.sets import set_win_prob, st_win_prob, stt_win_prob


try:
    _RUNNER = CliRunner(mix_stderr=False)
except TypeError:  # newer click keeps the streams separate by default
    _RUNNER = CliRunner()


def run_cli(*args):
    return _RUNNER.invoke(main, list(args))


def run_json(*args):
    result = run_cli(*args)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


def diagnostics(result) -> str:
    try:
        return result.stderr
    except ValueError:
        return result.output


def parse_grid_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "pa\\pb"
    pb = [float(x) for x in header[1:]]
    pa = [float(line.split(",", 1)[0]) for line in lines[1:]]
    values = [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
    return pa, pb, values


# ---------------------------------------------------------------------------
# compute


def test_compute_match_documented_example():
    record = run_json("compute", "match", "--pa", "0.6", "--pb", "0.55",
                      "--k0", "7", "--k1", "10", "--q", "2")
    assert record["theta_M"] == pytest.approx(0.795, abs=5e-4)
    assert record["mu_M"] == pytest.approx(254.894, abs=5e-3)
    assert record["sigma_M"] == pytest.approx(math.sqrt(record["sigma2_M"]), rel=1e-5)
    assert record["system"] == {"kind": "match", "k0": 7, "k1": 10, "q": 2}
    assert record["params"] == {"pa": 0.6, "pb": 0.55}
    assert record["version"] == deuce.__version__


def test_compute_fair_game_moments():
    record = run_json("compute", "game", "--p", "0.5", "--precision", "10")
    assert record["theta_G"] == 0.5
    assert record["mu_G"] == 6.75
    assert record["sigma2_G"] == 7.6875


def test_compute_game_at_a_tiny_serve_probability():
    # the variance is about 4.5e-16 and must not come out negative
    record = run_json("compute", "game", "--p", "1.1285641832335641e-16")
    assert record["sigma2_G"] >= 0.0


def test_compute_tags_follow_the_system():
    for system, args, tag in [
        ("gt", ("--p", "0.6"), "GT"),
        ("stt", ("--pa", "0.6", "--pb", "0.55"), "STT"),
        ("st", ("--pa", "0.6", "--pb", "0.55", "--k", "7"), "ST"),
        ("set", ("--pa", "0.6", "--pb", "0.55"), "S"),
        ("bofk", ("--p", "0.6", "--l", "3"), "BofK"),
        ("bog", ("--pa", "0.6", "--pb", "0.55", "--l", "6"), "BoG"),
    ]:
        record = run_json("compute", system, *args)
        for prefix in ("theta", "mu", "sigma2", "sigma"):
            assert f"{prefix}_{tag}" in record
        assert 0.0 < record[f"theta_{tag}"] < 1.0
        assert record[f"mu_{tag}"] > 0.0


def test_compute_non_terminating_exits_3():
    result = run_cli("compute", "stt", "--pa", "1", "--pb", "1")
    assert result.exit_code == 3
    assert "non-terminating" in diagnostics(result)


_PAIR = ("--pa", "0.6", "--pb", "0.55")


@pytest.mark.parametrize("args", [
    ("compute", "st", *_PAIR, "--k", "600"),
    ("compute", "bofk", "--p", "0.6", "--l", "520"),
    ("compute", "bog", *_PAIR, "--l", "600"),
    ("grid", "st", "--k", "600", "--res", "3"),
    ("efficiency", "bofk", "--l", "520"),
    ("compute", "match", *_PAIR, "--q", "600"),
    ("breakdown", "match", *_PAIR, "--q", "600"),
], ids=lambda args: " ".join(a for a in args if not a.startswith("0.")))
def test_targets_past_the_float_range_exit_4(args):
    result = run_cli(*args)
    assert result.exit_code == 4, result.output
    message = diagnostics(result)
    assert "numerical failure" in message and "515 trials" in message
    assert "deuce simulate" in message and "Traceback" not in message


@pytest.mark.parametrize("args", [
    ("st", *_PAIR, "--k", "510"),
    ("bofk", "--p", "0.6", "--l", "510"),
    ("bog", *_PAIR, "--l", "510"),
    ("match", *_PAIR, "--q", "510"),
], ids=lambda args: args[0])
def test_targets_inside_the_float_range_compute(args):
    record = run_json("compute", *args)
    assert all(math.isfinite(v) for v in record.values() if isinstance(v, float))


def test_compute_csv_is_flat_key_value():
    result = run_cli("compute", "game", "--p", "0.6", "--format", "csv")
    assert result.exit_code == 0
    rows = dict(line.split(",", 1) for line in result.stdout.strip().splitlines())
    assert float(rows["theta_G"]) == pytest.approx(0.735729, abs=1e-6)
    assert rows["system.kind"] == "game"


@pytest.mark.parametrize(
    "args, needle",
    [
        (("compute", "game"), "--p"),                          # missing parameter
        (("compute", "game", "--pa", "0.6", "--pb", "0.5"), "--p"),
        (("compute", "st", "--p", "0.6"), "--p"),              # wrong family
        (("compute", "set", "--pa", "0.6"), "--pb"),
        (("compute", "bofk", "--p", "0.6"), "--l"),            # structure missing
        (("compute", "game", "--p", "0.6", "--k", "7"), "--k"),
        (("compute", "game", "--p", "1.5"), "--p"),            # out of range
        (("compute", "game", "--p", "0.6", "--precision", "40"), "--precision"),
        (("breakdown", "stt", "--pa", "0.6", "--pb", "0.5"), "stt"),
        (("grid", "game", "--res", "5"), "--p"),
        (("grid", "st", "--res", "1"), "--res"),
        (("grid", "st", "--pmin", "0.9", "--pmax", "0.1"), "--pmin"),
        (("grid", "st-median",), "-median"),
        (("grid", "st", "--quantity", "diff"), "--other"),
        (("simulate", "game", "--p", "0.6"), "--reps"),
        (("efficiency", "match", "--prior", "2,1", "--alpha", "2"), "--prior"),
        (("efficiency", "game", "--prior", "2,1,3,1"), "--prior"),
        (("efficiency", "game", "--prior", "2,one"), "--prior"),
        (("efficiency", "wibble"), "wibble"),
        (("simulate", "game", "--p", "0.6", "--reps", "10", "--max-points", "50"),
         "--max-points"),
        (("efficiency", "game", "--k", "9"), "--k"),            # applies to no system
        (("compute", "game", "--p", "nan"), "--p"),            # non-finite
        (("breakdown", "set", "--pa", "0.6", "--pb", "nan"), "--pb"),
        (("grid", "stt", "--pmin", "nan"), "--pmin"),
        (("grid", "stt", "--pmax", "-inf"), "--pmax"),
        (("efficiency", "game", "--alpha", "nan"), "--alpha"),
        (("efficiency", "game", "--beta", "inf"), "--beta"),
        (("simulate", "stt", "--pa", "0.6", "--pb", "nan", "--reps", "3"), "--pb"),
        (("grid", "st", "--res", "100000"), "--res"),          # lattice past the cap
    ],
)
def test_usage_errors_exit_2_and_name_the_flag(args, needle):
    result = run_cli(*args)
    assert result.exit_code == 2, result.output
    assert needle in diagnostics(result)


def test_unknown_system_is_a_usage_error():
    for args in (("compute", "quidditch", "--p", "0.5"), ("grid", "quidditch"),
                 ("grid", "quidditch-mean"), ("efficiency", "game", "quidditch")):
        result = run_cli(*args)
        assert result.exit_code == 2, args
        assert "'quidditch'" in diagnostics(result), args


@pytest.mark.parametrize("name, value", [
    *((name, minimum - 1) for name, minimum in core._MINIMUM.items()), ("tiebreak", "x"),
])
def test_structure_flags_reject_what_the_spec_rejects(name, value):
    # each structure flag's range is the spec's own: a count one below its
    # minimum, or an unknown l-all tie rule, fails at the flag and in SystemSpec
    kind = next(kind for kind, rule in core._KINDS.items() if name in rule.fields)
    result = run_cli("compute", kind, f"--{name}", str(value))
    assert result.exit_code == 2, result.output
    assert f"'--{name}'" in diagnostics(result)
    required = {"l": 3} if "l" in core._KINDS[kind].fields else {}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        core.SystemSpec(kind, **{**required, name: value})



# ---------------------------------------------------------------------------
# the kind table


def test_kind_tables_agree():
    assert SYSTEM_KINDS == tuple(core._KINDS)
    assert tuple(_OPS) == SYSTEM_KINDS
    (system,) = [p for p in main.commands["breakdown"].params if p.name == "system"]
    assert set(system.type.choices) == {"game", "st", "set", "match"}


@pytest.mark.parametrize("spec", [
    core.SystemSpec("stt"),
    core.SystemSpec("st", k=10),
    core.SystemSpec("set"),
    core.SystemSpec("match", k0=7, k1=10, q=2),
    core.SystemSpec("bog", l=3, tiebreak="sg"),
    core.SystemSpec("bog", l=3, tiebreak="sttg"),
    core.SystemSpec("bog", l=3, tiebreak="sttp"),
], ids=lambda spec: "-".join(str(v) for v in vars(spec).values() if v is not None))
def test_one_table_entry_serves_scalars_and_grids(spec):
    ops = _OPS[spec.kind]
    coords = np.linspace(0.1, 0.9, 9)
    grid = (coords[:, None], coords[None, :])
    win = ops.win(spec, grid)
    mean, var = ops.moments(spec, grid)
    for i, pa in enumerate(coords):
        for j, pb in enumerate(coords):
            assert win[i, j] == ops.win(spec, (float(pa), float(pb)))
            cell_mean, cell_var = ops.moments(spec, (float(pa), float(pb)))
            assert mean[i, j] == pytest.approx(cell_mean, rel=1e-12, abs=0)
            assert var[i, j] == pytest.approx(cell_var, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# breakdown


def test_breakdown_game_reproduces_score_table():
    record = run_json("breakdown", "game", "--p", "0.6", "--precision", "12")
    rows = {row["score"]: row for row in record["rows"]}
    assert rows["4-0"]["p_first_wins"] == pytest.approx(0.1296, abs=1e-9)
    assert rows["4-1"]["p_first_wins"] == pytest.approx(0.20736, abs=1e-9)
    assert rows["4-2"]["p_second_wins"] == pytest.approx(0.09216, abs=1e-9)
    assert record["theta_G"] == pytest.approx(0.735729, abs=5e-7)
    assert record["mu_G"] == pytest.approx(6.48418, abs=5e-6)
    total = sum(r["p_first_wins"] + r["p_second_wins"] for r in record["rows"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_breakdown_set_overall_matches_reference():
    record = run_json("breakdown", "set", "--pa", "0.6", "--pb", "0.55",
                      "--k", "7", "--precision", "12")
    assert record["theta_S"] == pytest.approx(0.669, abs=5e-4)
    assert record["mu_S"] == pytest.approx(64.352, abs=5e-3)
    total = sum(r["p_first_wins"] + r["p_second_wins"] for r in record["rows"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_breakdown_match_rows_sum_to_one():
    record = run_json("breakdown", "match", "--pa", "0.6", "--pb", "0.55",
                      "--k0", "7", "--k1", "10", "--q", "2", "--precision", "12")
    total = sum(r["p_first_wins"] + r["p_second_wins"] for r in record["rows"])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert record["theta_M"] == pytest.approx(0.795, abs=5e-4)


def test_breakdown_csv_has_header_rows_and_overall():
    result = run_cli("breakdown", "game", "--p", "0.6", "--format", "csv")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "score,p_first_wins,p_second_wins,cond_mean,cond_var"
    assert lines[-1].startswith("overall,")
    assert all(len(line.split(",")) == 5 for line in lines)


# ---------------------------------------------------------------------------
# grid


def test_grid_st_diagonal_is_fair():
    result = run_cli("grid", "st", "--k", "7", "--res", "99")
    assert result.exit_code == 0
    pa, pb, values = parse_grid_csv(result.stdout)
    assert len(pa) == len(pb) == 99
    assert pa[0] == 0.01 and pa[-1] == 0.99
    for i in range(99):
        assert values[i][i] == pytest.approx(0.5, abs=1e-9)


def test_grid_rows_are_rectangular_with_header_column():
    result = run_cli("grid", "set", "--k", "7", "--res", "12")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 13
    assert all(len(line.split(",")) == 13 for line in lines)


def test_grid_set_spot_value():
    result = run_cli("grid", "set", "--k", "7", "--res", "99")
    pa, pb, values = parse_grid_csv(result.stdout)
    i = pa.index(0.6)
    j = pb.index(0.55)
    assert round(values[i][j], 3) == 0.669


def test_grid_match_mean_documented_example():
    result = run_cli("grid", "match-mean", "--k0", "7", "--k1", "10",
                     "--q", "2", "--precision", "10")
    pa, pb, values = parse_grid_csv(result.stdout)
    i = pa.index(0.5)
    assert values[i][i] == pytest.approx(271.8082, abs=5e-4)


def test_grid_quantity_suffix_equals_flag():
    by_suffix = run_cli("grid", "st-std", "--k", "7", "--res", "7")
    by_flag = run_cli("grid", "st", "--quantity", "std_points", "--k", "7",
                      "--res", "7")
    assert by_suffix.stdout == by_flag.stdout


def test_grid_diff_and_log_ratio_compare_two_systems():
    result = run_cli("grid", "st", "--quantity", "diff", "--other", "set",
                     "--k", "7", "--res", "5", "--precision", "12")
    pa, pb, values = parse_grid_csv(result.stdout)
    for i, a in enumerate(pa):
        for j, b in enumerate(pb):
            expect = st_win_prob(a, b, 7) - set_win_prob(a, b, 7)
            assert values[i][j] == pytest.approx(expect, abs=1e-9)
    logr = run_cli("grid", "match", "--quantity", "log_ratio", "--other", "set",
                   "--k", "7", "--k0", "7", "--k1", "7", "--q", "2",
                   "--res", "4", "--precision", "12")
    pa, pb, values = parse_grid_csv(logr.stdout)
    spec = MatchSpec(7, 7, 2)
    for i, a in enumerate(pa):
        for j, b in enumerate(pb):
            expect = math.log(match_win_prob(a, b, spec) / set_win_prob(a, b, 7))
            assert values[i][j] == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_other_system_is_checked_whatever_the_quantity(fmt):
    result = run_cli("grid", "st", "--other", "bofk", "--res", "3", "--format", fmt)
    assert result.exit_code == 2
    assert "--l is required for system 'bofk'" in diagnostics(result)


def test_grid_json_lists_coordinates_and_values():
    record = run_json("grid", "stt", "--res", "5", "--format", "json")
    assert record["quantity"] == "win_prob"
    assert len(record["pa"]) == len(record["pb"]) == 5
    assert len(record["values"]) == 5
    assert all(len(row) == 5 for row in record["values"])


# ---------------------------------------------------------------------------
# efficiency


def test_efficiency_game_documented_example():
    record = run_json("efficiency", "game", "--alpha", "2", "--beta", "1")
    (report,) = record["reports"]
    assert report["Eff_G"] == pytest.approx(0.7537, abs=5e-5)
    assert report["prior"] == {"alpha": 2.0, "beta": 1.0}
    assert report["quadrature_error_estimate"] < 1e-5


def test_efficiency_bofk_documented_example():
    record = run_json("efficiency", "bofk", "--l", "4", "--alpha", "0.5",
                      "--beta", "0.5")
    (report,) = record["reports"]
    assert report["Eff_BofK"] == pytest.approx(0.8382, abs=5e-5)


def test_efficiency_match_under_skill_prior():
    # The race structure (7,7,2) under Beta(2,1) x Beta(2,1).
    record = run_json("efficiency", "match", "--k0", "7", "--k1", "7",
                      "--q", "2", "--prior", "2,1,2,1", "--precision", "10")
    (report,) = record["reports"]
    assert report["Eff_M"] == pytest.approx(0.8747294449, abs=1e-6)
    assert report["prior"] == {"alpha_a": 2.0, "beta_a": 1.0,
                               "alpha_b": 2.0, "beta_b": 1.0}


def test_efficiency_two_value_prior_replicates_marginal():
    short = run_json("efficiency", "stt", "--prior", "2,1")
    long = run_json("efficiency", "stt", "--prior", "2,1,2,1")
    assert short["reports"] == long["reports"]


def test_efficiency_many_systems_in_one_call():
    record = run_json("efficiency", "gt", "game", "--alpha", "2", "--beta", "1")
    kinds = [r["system"]["kind"] for r in record["reports"]]
    assert kinds == ["gt", "game"]
    effs = {r["system"]["kind"]: v for r in record["reports"]
            for key, v in r.items() if key.startswith("Eff_")}
    assert effs["gt"] < effs["game"]


def test_efficiency_pools_structure_flags_like_grid():
    # --k applies to st and set only; stt takes none of the pool
    pooled = run_json("efficiency", "stt", "st", "set", "--k", "7")
    single = [run_json("efficiency", "stt")["reports"][0],
              run_json("efficiency", "st", "--k", "7")["reports"][0],
              run_json("efficiency", "set", "--k", "7")["reports"][0]]
    assert pooled["reports"] == single


def test_efficiency_non_convergent_prior_exits_4():
    # A Beta spike sharper than the substitution can tame: the refinement gap
    # stays above tolerance, which must surface as a numerical failure.
    result = run_cli("efficiency", "gt", "--alpha", "1", "--beta", "0.375")
    assert result.exit_code == 4
    assert "numerical failure" in diagnostics(result)


def test_efficiency_json_reports_carry_their_diagnostics():
    record = run_json("efficiency", "stt", "game", "--precision", "15")
    pair, single = record["reports"]
    uniform = BetaPrior(1.0, 1.0)
    two = efficiency_two_param(stt_win_prob, (uniform, uniform))
    one = efficiency_one_param(game_win_prob, uniform)
    assert pair["surface_points"] == two.surface_points
    assert pair["antisymmetry_residual"] == _round_sig(two.antisymmetry_residual, 15)
    assert single["surface_points"] == one.surface_points
    assert single["antisymmetry_residual"] is None
    csv = run_cli("efficiency", "stt", "game", "--format", "csv").stdout
    assert "surface_points" not in csv and "antisymmetry" not in csv


def test_efficiency_csv_lists_one_row_per_system():
    result = run_cli("efficiency", "gt", "game", "--alpha", "1", "--beta", "1",
                     "--format", "csv")
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "system,efficiency,quadrature_error_estimate"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# simulate


def test_simulate_echoes_config_and_is_deterministic():
    args = ("simulate", "game", "--p", "0.6", "--reps", "5000", "--seed", "42")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    record = json.loads(first.stdout)
    assert record["seed"] == 42
    assert record["replications"] == 5000
    assert record["win_rate_A"] == pytest.approx(0.7357, abs=4 * record["win_rate_se"])


def test_simulate_echoes_the_seed_it_used():
    # the simulator reduces a seed mod 2**64, so both calls run one stream
    first = run_cli("simulate", "game", "--p", "0.6", "--reps", "50", "--seed", "1")
    second = run_cli("simulate", "game", "--p", "0.6", "--reps", "50",
                     "--seed", str(2**64 + 1))
    assert first.exit_code == second.exit_code == 0
    assert second.stdout == first.stdout
    assert json.loads(first.stdout)["seed"] == 1


def test_simulate_draws_and_echoes_seed_when_omitted():
    record = run_json("simulate", "game", "--p", "0.6", "--reps", "100")
    assert isinstance(record["seed"], int)
    other = run_json("simulate", "game", "--p", "0.6", "--reps", "100")
    assert other["seed"] != record["seed"]


def test_simulate_reports_capped_replications():
    record = run_json("simulate", "stt", "--pa", "1", "--pb", "1",
                      "--reps", "10", "--seed", "1")
    assert record["capped_replications"] == 10


def test_simulate_respects_max_points_flag():
    record = run_json("simulate", "match", "--pa", "0.5", "--pb", "0.5",
                      "--k0", "7", "--k1", "7", "--q", "2", "--reps", "200",
                      "--seed", "7", "--max-points", "120")
    assert record["max_points_per_replication"] == 120
    assert record["capped_replications"] > 0


# ---------------------------------------------------------------------------
# output invariants


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "set", "--pa", "0.6", "--pb", "0.55"),
        ("breakdown", "match", "--pa", "0.6", "--pb", "0.55"),
        ("grid", "stt", "--res", "4", "--format", "json"),
        ("grid", "match-std", "--res", "5", "--format", "json", "--precision", "15"),
        ("efficiency", "game", "--alpha", "2", "--beta", "1"),
        ("simulate", "st", "--pa", "0.6", "--pb", "0.55", "--reps", "500",
         "--seed", "3"),
    ],
)
def test_json_output_reserializes_byte_identically(args):
    result = run_cli(*args)
    assert result.exit_code == 0
    text = result.stdout.strip()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_json_text_matches_indented_json_dumps():
    record = {
        "z": [], "y": {}, "x": [[], [{}], [1, [2.5, None]]], "é\"key": "tab\t§",
        "w": [math.nan, math.inf, -math.inf, -0.0, 5e-324, True, False, None, 7, "s"],
        "v": [{"b": [0.1], "a": {"c": []}}, 3], "u": (1, 2), "t": np.float64(0.25),
    }
    assert _json_text(record) == json.dumps(record, indent=2, sort_keys=True)
    for scalar in (1, 0.1, "a", None, True, math.nan):
        assert _json_text(scalar) == json.dumps(scalar, indent=2, sort_keys=True)


def _round_each(obj, digits):
    """Per-element rounding of nested lists, as the CLI formatted grids before."""
    if isinstance(obj, dict):
        return {key: _round_each(value, digits) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_round_each(value, digits) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and math.isfinite(obj):
        return float(f"{obj:.{digits}g}")
    return obj


@pytest.mark.parametrize("digits", [3, 6, 15])
def test_float_arrays_render_as_lone_floats(digits):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e15,
                1 - 2**-53, 0.5, 1.0 / 3.0, 123456.789e300]
    values = np.concatenate([specials, np.random.default_rng(5).random(24) * 1e-5])
    grid = values.reshape(6, 6)
    want = _json_text({"g": _round_sig(grid.tolist(), digits)})
    assert _json_text({"g": grid}, digits) == want
    assert json.dumps(json.loads(want), indent=2, sort_keys=True) == want


# Cells where ``%g`` and ``repr`` part ways: non-finite, signed zeros, the
# subnormal and smallest normal magnitudes, the float just below 1, a
# rounding that carries into a new decade, and the ``%g`` exponent threshold.
_SPECIAL_CELLS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1 - 2**-53, 999999.5, -999999.5, 1e15,
                  1.5e15, 9.5, 99.5, 0.00009999995, 1e16, 1.7976931348623157e308]


def _reference_json(cells, digits):
    """Each cell's text as rendered one at a time: its ``.{digits}g`` text
    read back as a float and encoded by ``json``."""
    return json.dumps([float(format(x, f".{digits}g")) for x in cells], indent=2)


def _check_row(cells, digits):
    row = np.array(cells, dtype=float)
    assert _json_text(row, digits) == _reference_json(cells, digits)
    assert _g_row(row, digits) == ",".join(f"{x:.{digits}g}" for x in cells)


@pytest.mark.parametrize("digits", range(1, 16))
def test_float_row_renderer_matches_per_cell_reference_on_special_values(digits):
    _check_row(_SPECIAL_CELLS, digits)
    _check_row([x * 10.0**e for x in (1.0, 0.95, 0.9, 0.99999999999999) for e in range(-6, 18)],
               digits)


@settings(max_examples=300, deadline=None)
@given(cells=hyp.lists(hyp.floats() | hyp.sampled_from(_SPECIAL_CELLS), min_size=1, max_size=12),
       digits=hyp.integers(1, 15))
def test_float_row_renderer_matches_per_cell_reference(cells, digits):
    _check_row(cells, digits)


def test_grid_csv_cells_are_g_text_of_the_values():
    result = run_cli("grid", "match-mean", "--res", "7", "--precision", "4")
    assert result.exit_code == 0
    coords = np.linspace(0.01, 0.99, 7)
    mean, _ = match_points_moments(coords[:, None], coords[None, :], MatchSpec())
    lines = result.stdout.splitlines()
    assert lines[0] == "pa\\pb," + ",".join(f"{x:.4g}" for x in coords)
    assert lines[1:] == [",".join(f"{x:.4g}" for x in [c, *row]) for c, row in zip(coords, mean)]


def test_grid_json_text_matches_per_element_rounding():
    result = run_cli("grid", "match-mean", "--res", "99", "--format", "json",
                     "--precision", "15")
    assert result.exit_code == 0
    coords = np.linspace(0.01, 0.99, 99)
    mean, _ = match_points_moments(coords[:, None], coords[None, :], MatchSpec())
    record = json.loads(result.stdout)
    record.update(pa=list(coords), pb=list(coords), values=[list(row) for row in mean])
    expected = json.dumps(_round_each(record, 15), indent=2, sort_keys=True)
    assert result.stdout == expected + "\n"


def test_commands_are_deterministic_given_flags():
    args = ("compute", "match", "--pa", "0.61", "--pb", "0.57",
            "--k0", "7", "--k1", "10", "--q", "2", "--precision", "15")
    assert run_cli(*args).stdout == run_cli(*args).stdout
    grid_args = ("grid", "set", "--k", "7", "--res", "11")
    assert run_cli(*grid_args).stdout == run_cli(*grid_args).stdout


def test_precision_flag_controls_significant_digits():
    coarse = run_json("compute", "gt", "--p", "0.6", "--precision", "3")
    fine = run_json("compute", "gt", "--p", "0.6", "--precision", "12")
    assert coarse["mu_GT"] == round(coarse["mu_GT"], 3)
    assert coarse["mu_GT"] == pytest.approx(fine["mu_GT"], rel=2e-3)
    assert fine["mu_GT"] != coarse["mu_GT"]


def test_in_process_runs_release_their_output_streams():
    # Calling main in-process with stdout redirected must not keep the
    # stream (and everything written to it) alive afterwards.
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["compute", "set", "--pa", "0.6", "--pb", "0.55"], standalone_mode=False)
    assert buf.getvalue()
    released = weakref.ref(buf)
    del buf
    gc.collect()
    assert released() is None
