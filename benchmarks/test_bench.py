"""Tests for the benchmark's own code: checkers, the tail rule, self time and the tracer.

Run from the repository root::

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.bootstrap()

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

import deuce  # noqa: E402
import deuce.cli  # noqa: E402
import deuce.core  # noqa: E402
import deuce.sets  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return checks.References()


def _checker(refs, name="cli-queries"):
    return checks.Checker(workloads.Workload(name, 0), refs)


def _run(op, name="cli-queries"):
    return workloads.execute(op, workloads.Workload(name, 0))


def _edit_json(text, **changes):
    record = json.loads(text)
    record.update(changes)
    return json.dumps(record)


# ---------------------------------------------------------------------------
# checkers fire on perturbed outputs


def test_theta_perturbed_by_1e8_relative_is_an_error(refs):
    op = Op("compute", "set", (0.6, 0.62), (("k", 7),))
    text = _run(op)
    checker = _checker(refs)
    assert checker.check(op, text) == []
    theta = json.loads(text)["theta_S"]
    assert checker.check(op, _edit_json(text, theta_S=theta * (1 + 1e-8)))


def test_underdog_from_one_minus_swapped_theta_is_an_error(refs):
    pa, pb, k = 0.15, 0.95, 7
    op = Op("compute", "set", (pa, pb), (("k", k),))
    text = _run(op)
    checker = _checker(refs)
    assert checker.check(op, text) == []
    assert checker.underdog_cells == 1
    complement = 1.0 - deuce.sets.set_win_prob(pb, pa, k)
    assert checker.check(op, _edit_json(text, theta_S=complement))


def test_breakdown_rows_that_do_not_sum_to_one_are_an_error(refs):
    op = Op("breakdown", "match", (0.62, 0.6), (("k0", 7), ("k1", 10), ("q", 2)))
    text = _run(op)
    checker = _checker(refs)
    assert checker.check(op, text) == []
    record = json.loads(text)
    record["rows"][0]["p_first_wins"] += 1e-10
    assert any("sum" in p for p in checker.check(op, json.dumps(record)))


def test_negative_variance_is_an_error(refs):
    op = Op("compute", "match", (0.62, 0.6), (("k0", 7), ("k1", 7), ("q", 2)))
    text = _run(op)
    assert _checker(refs).check(op, _edit_json(text, sigma2_M=-1.0))


def test_pmf_that_drops_its_truncation_mass_is_an_error(refs):
    op = Op("set_pmf", "set", (0.6, 0.62), (("k", 7),))
    # A short support keeps a visible truncation mass.
    dist = deuce.sets.set_points_distribution(0.6, 0.62, 7, 160)
    assert 1e-8 < dist.truncation_mass < 1e-6
    checker = _checker(refs)
    assert checker.check(op, dist) == []
    problems = checker.check(op, dataclasses.replace(dist, truncation_mass=0.0))
    assert any("truncation" in p for p in problems)


def test_simulation_off_by_six_standard_errors_or_capped_is_an_error(refs):
    op = Op("simulate", "set", (0.62, 0.6), (("k", 7),), (("sim_seed", 11),))
    summary = _run(op, "length-laws")
    checker = _checker(refs, "length-laws")
    assert checker.check(op, summary) == []
    shifted = summary.win_rate_A + 6 * summary.win_rate_se
    assert checker.check(op, dataclasses.replace(summary, win_rate_A=shifted))
    assert checker.check(op, dataclasses.replace(summary, capped_replications=1))


def test_efficiency_off_the_pinned_table_is_an_error(refs):
    op = Op("report", "stt", extra=(("column", 1),))
    report = _run(op, "efficiency-table")
    checker = _checker(refs, "efficiency-table")
    assert checker.check(op, report) == []
    assert checker.check(op, dataclasses.replace(report, value=report.value + 2e-7))
    assert checker.check(op, dataclasses.replace(report, quadrature_error_estimate=1e-3))


def test_grid_with_perturbed_cells_is_an_error(refs):
    op = Op("grid", "stt", extra=(("pmax", 0.9), ("pmin", 0.1), ("quantity", "win"),
                                  ("sample_seed", 3)))
    text = _run(op, "efficiency-table")
    checker = _checker(refs, "efficiency-table")
    assert checker.check(op, text) == []
    record = json.loads(text)
    record["values"] = [[v * (1 + 1e-8) for v in row] for row in record["values"]]
    assert checker.check(op, json.dumps(record))


# ---------------------------------------------------------------------------
# inputs


def test_same_seed_gives_same_inputs_and_no_query_repeats():
    first = workloads.Workload("cli-queries", 5)
    again = workloads.Workload("cli-queries", 5)
    assert first.round(3) == again.round(3)
    assert first.round(3) != workloads.Workload("cli-queries", 6).round(3)
    ops = [op for index in range(50) for op in first.round(index)]
    assert len(set(ops)) == len(ops)


@pytest.mark.parametrize("system", ["gt", "game", "bofk", "stt", "st", "set", "match", "bog"])
def test_lopsided_draws_give_underdogs_below_1e9(system):
    rng = random.Random(system)
    worst = 0.0
    for _ in range(300):
        op = workloads._cli_query(rng, "compute", system, rng.choice((7, 10)))
        if system in ("gt", "game", "bofk"):
            op = dataclasses.replace(op, params=workloads._draw_single(rng, system, True))
        else:
            op = dataclasses.replace(op, params=workloads._draw_pair(rng, system, True))
        spec = deuce.core.SystemSpec(system, **op.spec_dict)
        worst = max(worst, deuce.cli._win_prob(spec, op.params[0] if len(op.params) == 1
                                               else op.params))
    assert worst < checks.UNDERDOG


def test_efficiency_table_is_read_from_the_pinned_test():
    table, priors = workloads.efficiency_table()
    assert len(table) == 23 and sorted(priors) == [1, 2]
    for label in table:
        workloads.surface_for(label)


# ---------------------------------------------------------------------------
# tail rule and self time


def test_tail_latency_leaves_ten_samples_above():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert run.tail_latency(samples) == (90, 90.0)
    assert run.tail_latency(range(11)) == (0, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail_latency(range(10))


def _span(name, layer, start, end, parent=-1, work=(), error=False):
    return tracer.Span(name, layer, start, end, parent, 0, error, work)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("cli.main", "cli", 0.0, 10.0),
        _span("sets.set_win_prob", "sets", 1.0, 3.0, parent=0),
        _span("sets.st_win_prob", "sets", 2.0, 4.0, parent=0),  # overlaps the first child
        _span("match.match_win_prob", "match", 5.0, 7.0, parent=0),
        _span("core.binomial_convolution_mass", "core.convolution", 5.5, 6.5, parent=3),
        _span("game.game_win_prob", "game", 9.0, 12.0, parent=0),  # runs past the parent
    ]
    assert tracer.self_times(spans) == [10.0 - 3.0 - 2.0 - 1.0, 2.0, 2.0, 1.0, 1.0, 3.0]


def test_layer_metrics_from_hand_built_spans():
    spans = [
        _span("efficiency.efficiency_two_param", "efficiency", 0.0, 10.0),
        _span("efficiency.surface", "efficiency.surface", 1.0, 4.0, parent=0, work=(100,)),
        _span("sets.set_win_prob", "sets", 1.5, 3.5, parent=1),
        _span("cli.main", "cli", 20.0, 25.0, work=(300,)),
        _span("sets.set_points_distribution", "sets", 21.0, 24.0, parent=3),
        _span("sets.st_points_distribution", "sets", 22.0, 23.0, parent=4, error=True),
        _span("core.binomial_convolution_mass", "core.convolution", 22.2, 22.4, parent=5,
              work=(7,)),
    ]
    m = tracer.layer_metrics(spans)
    assert m["efficiency.reports"] == 1
    assert m["efficiency.self_s"] == pytest.approx(7.0)
    assert m["efficiency.surface_s"] == pytest.approx(3.0)
    assert m["efficiency.surface_points"] == 100
    assert m["cli.calls"] == 1 and m["cli.self_s"] == pytest.approx(2.0)
    assert m["cli.output_bytes"] == 300
    assert m["sets.calls"] == 3
    assert m["sets.self_s"] == pytest.approx(2.0 + 2.0 + 0.8)
    assert m["sets.pmf_s"] == pytest.approx(3.0)  # the nested PMF is not counted twice
    assert m["core.convolution.points"] == 7
    assert m["sets.errors"] == 1 and m["cli.errors"] == 0 and m["core.errors"] == 0


# ---------------------------------------------------------------------------
# tracer


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    originals = {
        (deuce.core, "binomial_convolution_mass"): deuce.core.binomial_convolution_mass,
        (deuce.sets, "binomial_convolution_mass"): deuce.sets.binomial_convolution_mass,
        (deuce.cli, "set_win_prob"): deuce.cli.set_win_prob,
        (deuce, "set_win_prob"): deuce.set_win_prob,
        (workloads, "run_cli"): workloads.run_cli,
    }
    bookkeeping = deuce.core.serves_by_first_server
    t = tracer.Tracer()
    t.install(workloads)
    try:
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original, name
        assert deuce.sets.binomial_convolution_mass is deuce.core.binomial_convolution_mass
        assert deuce.core.serves_by_first_server is bookkeeping
        _run(Op("compute", "set", (0.6, 0.62), (("k", 7),)))
    finally:
        t.uninstall()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, name
    names = [span.name for span in t.spans]
    assert names[0] == "cli.main" and t.spans[0].parent == -1
    assert "sets.set_win_prob" in names and "core.binomial_convolution_mass" in names
    assert all(span.parent < index for index, span in enumerate(t.spans))


def test_traced_report_counts_256000_surface_points():
    t = tracer.Tracer()
    t.install(workloads)
    try:
        _run(Op("report", "stt", extra=(("column", 1),)), "efficiency-table")
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t.spans)
    assert m["efficiency.reports"] == 1
    assert m["efficiency.surface_points"] == 256_000
    assert m["sets.calls"] == 4  # one surface call per triangle and panel count


def test_an_error_counts_once_where_it_starts():
    t = tracer.Tracer()
    t.install(workloads)
    try:
        with pytest.raises(SystemExit):
            workloads.run_cli(["compute", "stt", "--pa", "1", "--pb", "1"])
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t.spans)
    assert m["sets.errors"] == 1
    assert sum(m[f"{layer}.errors"] for layer in tracer.ERROR_LAYERS) == 1


# ---------------------------------------------------------------------------
# the command


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                           "cli-queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
