"""Simulation oracle: determinism, cap accounting, and closed-form agreement."""

import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from deuce.bestof import (
    BestOfGamesSpec,
    bofk_points_distribution,
    bofk_win_prob,
    bog_match_points_moments,
    bog_match_win_prob,
)
from deuce import rules
from deuce.core import SystemSpec, first_server_on_point
from deuce.game import game_points_moments, game_win_prob, gt_points_moments, gt_win_prob
from deuce.match import MatchSpec, match_points_moments, match_win_prob
from deuce.montecarlo import (
    _BLOCK_STEPS,
    SimConfig,
    SimSummary,
    _draw,
    _draw_bits,
    _GOLDEN,
    _mix64,
    _rep_streams,
    _score_table,
    _settle,
    _simulate_outcomes,
    _threshold,
    simulate,
)
from deuce.rules import _serves_first_abba, _tables
from deuce.sets import (
    set_points_moments,
    set_win_prob,
    st_points_moments,
    st_win_prob,
    stt_points_distribution,
    stt_win_prob,
)


# ---------------------------------------------------------------- generator

def test_mixer_matches_published_splitmix_sequence():
    # SplitMix64 from seed 0 emits mix(k * golden) for k = 1, 2, 3, ...;
    # the first three outputs are widely published reference values.
    ks = np.arange(1, 4, dtype=np.uint64)
    got = _mix64(ks * _GOLDEN)
    expected = np.array(
        [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
        dtype=np.uint64,
    )
    assert np.array_equal(got, expected)


def test_draws_are_pure_functions_of_seed_rep_counter():
    streams = _rep_streams(12345, 8)
    first = _draw(streams, 0)
    second = _draw(streams, 1)
    assert np.all((first >= 0.0) & (first < 1.0))
    assert not np.array_equal(first, second)

    # replaying from fresh stream keys reproduces the draws bit for bit,
    # and a subset of replications draws the same subset of the full draw
    assert np.array_equal(_draw(_rep_streams(12345, 8), 0), first)
    sub = np.array([1, 4])
    assert np.array_equal(_draw(streams[sub], 1), second[sub])
    assert np.array_equal(_draw(streams[sub], 0), first[sub])


@pytest.mark.parametrize(
    "seed, rep, j",
    [
        (0, 0, 0),
        (12345, 7, 3),
        (2**64 - 1, 0, 0),
        (2**64 - 1, 5, 999),
        (2**63, 2, 2**20),
    ],
)
def test_draw_follows_the_documented_formula(seed, rep, j):
    # draw j of replication r is mix64(mix64(seed + (r+1)*GOLDEN) + (j+1)*GOLDEN),
    # taken to [0, 1) from its top 53 bits; here in Python integers mod 2**64
    mask = 2**64 - 1
    golden = 0x9E3779B97F4A7C15

    def mix64(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    word = mix64((mix64((seed + (rep + 1) * golden) & mask) + (j + 1) * golden) & mask)
    expected = (word >> 11) / 2.0**53
    got = _draw(_rep_streams(seed, rep + 1), j)[rep]
    assert got == expected


@pytest.mark.parametrize("j0", [3, 13, 2**20 + 5])
def test_block_rows_are_the_single_draws(j0):
    # a block that starts off a multiple of its length still gives row c the
    # draw j0 + c, with or without the scratch buffer the runner passes
    keys = _rep_streams(77, 300)
    shape = (_BLOCK_STEPS, keys.size)
    for tmp in (None, np.empty(shape, dtype=np.uint64)):
        block = _draw_bits(keys, j0, np.empty(shape, dtype=np.uint64), tmp)
        assert block.max() < 2**53
        for c in range(_BLOCK_STEPS):
            assert np.array_equal(block[c] * 2.0**-53, _draw(keys, j0 + c))


_ULP_PROBES = [
    np.nextafter(k * 2.0**-53, toward)
    for k in (3, 2**52 + 1, 0x1234567ABCDEF, 2**53 - 3)
    for toward in (0.0, 1.0)
]


@pytest.mark.parametrize(
    "p", [0.0, 5e-324, 2.0**-53, *_ULP_PROBES, 0.5, 1.0 - 2.0**-53, 1.0]
)
def test_integer_threshold_is_the_float_comparison(p):
    # u = bits * 2**-53 is exact, so bits < ceil(p * 2**53) must be u < p
    # for the bits next to the threshold and for real draws alike
    thresh = _threshold(p)
    k = int(thresh)
    bits = np.array([0, 1, 2**53 - 1, *range(max(k - 2, 0), min(k + 3, 2**53))],
                    dtype=np.uint64)
    assert np.array_equal(bits < thresh, bits.astype(np.float64) * 2.0**-53 < p)
    keys = _rep_streams(5, 1000)
    block = _draw_bits(keys, 3, np.empty((_BLOCK_STEPS, keys.size), dtype=np.uint64))
    for c in range(_BLOCK_STEPS):
        assert np.array_equal(block[c] < thresh, _draw(keys, 3 + c) < p)
    if p == 0.0:
        assert k == 0
    if p == 1.0:
        assert k == 2**53


def test_rep_streams_differ_between_seeds_and_reps():
    s1 = _rep_streams(1, 100)
    s2 = _rep_streams(2, 100)
    assert np.unique(s1).size == 100
    assert not np.intersect1d(s1, s2).size


# ------------------------------------------------------------ configuration

def test_config_normalizes_params_and_seed():
    cfg = SimConfig(SystemSpec("set"), [0.6, 0.55], 10, -1)
    assert cfg.params == (0.6, 0.55)
    assert cfg.seed == 0xFFFFFFFFFFFFFFFF
    cfg = SimConfig(SystemSpec("game"), 0.5, 10, 7)
    assert cfg.params == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(system="game", params=0.5, replications=10, seed=1),
        dict(system=SystemSpec("game"), params=(0.5, 0.5), replications=10, seed=1),
        dict(system=SystemSpec("set"), params=0.5, replications=10, seed=1),
        dict(system=SystemSpec("set"), params=(0.5, 1.5), replications=10, seed=1),
        dict(system=SystemSpec("game"), params=0.5, replications=0, seed=1),
        dict(system=SystemSpec("game"), params=0.5, replications=10, seed=1.5),
        dict(
            system=SystemSpec("game"),
            params=0.5,
            replications=10,
            seed=1,
            max_points_per_replication=99,
        ),
        dict(system=SystemSpec("game"), params=0.6, replications=True, seed=1),
    ],
)
def test_config_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


# -------------------------------------------------------------- determinism

def test_identical_configs_reproduce_bit_identical_summaries():
    cfg = SimConfig(SystemSpec("set"), (0.6, 0.55), 2_000, 99)
    a = simulate(cfg)
    b = simulate(cfg)
    assert a == b  # dataclass equality: every float bit-identical

    c = simulate(SimConfig(SystemSpec("set"), (0.6, 0.55), 2_000, 100))
    assert a != c


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=-(2**63), max_value=2**64 - 1))
def test_determinism_over_arbitrary_seeds(seed):
    cfg = SimConfig(SystemSpec("gt"), 0.6, 50, seed)
    assert simulate(cfg) == simulate(cfg)


# ----------------------------------------------------------- serve schedule

def test_point_rotation_matches_serve_schedule_helpers():
    n = np.arange(1, 65)
    expected = np.array([first_server_on_point(int(v)) for v in n])
    assert np.array_equal(_serves_first_abba(n), expected)


def test_tiebreak_rotation_visible_in_outcomes():
    # pa = 1, pb = 1: each point goes to the server, so the ABBA schedule
    # pins the score walk at |a - b| <= 1 forever and every rep must cap.
    cfg = SimConfig(
        SystemSpec("st", k=7), (1.0, 1.0), 25, 4, max_points_per_replication=128
    )
    s = simulate(cfg)
    assert s.capped_replications == 25
    assert math.isnan(s.win_rate_A) and math.isnan(s.mean_points)


# ------------------------------------------------------------ cap reporting

def test_nonterminating_tie_caps_every_replication():
    s = simulate(
        SimConfig(SystemSpec("stt"), (1.0, 1.0), 10, 1, max_points_per_replication=100)
    )
    assert s.capped_replications == 10
    assert math.isnan(s.win_rate_A)


def test_capped_reps_are_excluded_from_moments():
    # near-degenerate STT: decisive-pair chance 2*0.999*0.001, so most reps
    # outlive a 100-point cap and the rest finish in at most 100 points
    eta = 2.0 * 0.999 * 0.001
    p_survive = (1.0 - eta) ** 50
    reps = 4_000
    s = simulate(
        SimConfig(
            SystemSpec("stt"),
            (0.999, 0.999),
            reps,
            77,
            max_points_per_replication=100,
        )
    )
    se = math.sqrt(reps * p_survive * (1.0 - p_survive))
    assert abs(s.capped_replications - reps * p_survive) <= 4.0 * se
    assert 0 < s.capped_replications < reps
    assert s.mean_points <= 100.0


def test_summary_standard_error_definitions():
    out = _simulate_outcomes(SimConfig(SystemSpec("game"), 0.6, 5_000, 3))
    s = simulate(SimConfig(SystemSpec("game"), 0.6, 5_000, 3))
    pts = out.points.astype(float)
    n = pts.size
    assert s.capped_replications == 0
    assert s.win_rate_se == pytest.approx(
        math.sqrt(s.win_rate_A * (1 - s.win_rate_A) / n), rel=1e-12
    )
    assert s.mean_points == pytest.approx(pts.mean(), rel=1e-12)
    assert s.std_points == pytest.approx(pts.std(ddof=1), rel=1e-12)
    assert s.mean_points_se == pytest.approx(s.std_points / math.sqrt(n), rel=1e-12)


# ----------------------------------------------- agreement with closed forms

def _z(value, target, se):
    return abs(value - target) / se


def assert_matches_closed_form(summary, theta, mean, var):
    assert _z(summary.win_rate_A, theta, summary.win_rate_se) < 4.0
    assert _z(summary.mean_points, mean, summary.mean_points_se) < 4.0
    assert _z(summary.std_points, math.sqrt(var), summary.std_points_se) < 4.0


def test_gt_simulation_agrees():
    s = simulate(SimConfig(SystemSpec("gt"), 0.7, 120_000, 101))
    mean, var = gt_points_moments(0.7)
    assert_matches_closed_form(s, gt_win_prob(0.7), mean, var)


def test_game_simulation_agrees():
    s = simulate(SimConfig(SystemSpec("game"), 0.5, 150_000, 102))
    mean, var = game_points_moments(0.5)
    assert s.capped_replications == 0
    assert _z(s.mean_points, 6.750, s.mean_points_se) < 3.0
    assert_matches_closed_form(s, game_win_prob(0.5), mean, var)


def test_stt_simulation_agrees():
    s = simulate(SimConfig(SystemSpec("stt"), (0.6, 0.48), 120_000, 103))
    d = stt_points_distribution(0.6, 0.48)
    assert_matches_closed_form(s, stt_win_prob(0.6, 0.48), d.mean, d.variance)


@pytest.mark.parametrize("k,seed", [(7, 104), (8, 105)])
def test_st_simulation_agrees(k, seed):
    # k = 7 puts the opener on the first continuation point, k = 8 the rival;
    # agreement at both parities exercises the ABBA bookkeeping
    s = simulate(SimConfig(SystemSpec("st", k=k), (0.62, 0.55), 120_000, seed))
    mean, var = st_points_moments(0.62, 0.55, k)
    assert_matches_closed_form(s, st_win_prob(0.62, 0.55, k), mean, var)


def test_bofk_simulation_agrees():
    s = simulate(SimConfig(SystemSpec("bofk", l=3), 0.6, 120_000, 106))
    d = bofk_points_distribution(0.6, 3)
    assert_matches_closed_form(s, bofk_win_prob(0.6, 3), d.mean, d.variance)


def test_set_simulation_agrees_with_exact_process():
    # closed-form win probability and mean are exact for the real process;
    # the spread must be judged against the true process variance instead
    s = simulate(SimConfig(SystemSpec("set"), (0.6, 0.55), 120_000, 107))
    mean, _ = set_points_moments(0.6, 0.55, 7)
    _, true_var = oracles.set_true_points_moments(0.6, 0.55, 7)
    assert _z(s.win_rate_A, set_win_prob(0.6, 0.55, 7), s.win_rate_se) < 4.0
    assert _z(s.mean_points, mean, s.mean_points_se) < 4.0
    assert _z(s.std_points, math.sqrt(true_var), s.std_points_se) < 4.0


def test_match_simulation_agrees_with_exact_process():
    spec = MatchSpec(7, 10, 2)
    s = simulate(
        SimConfig(SystemSpec("match", k0=7, k1=10, q=2), (0.6, 0.55), 60_000, 108)
    )
    mean, _ = match_points_moments(0.6, 0.55, spec)
    _, true_var = oracles.match_true_points_stats(0.6, 0.55, 7, 10, 2)
    assert _z(s.win_rate_A, match_win_prob(0.6, 0.55, spec), s.win_rate_se) < 4.0
    assert _z(s.mean_points, mean, s.mean_points_se) < 4.0
    assert _z(s.std_points, math.sqrt(true_var), s.std_points_se) < 4.0


@pytest.mark.parametrize("tiebreak,seed", [("sg", 109), ("sttg", 110), ("sttp", 111)])
def test_bog_simulation_agrees_with_exact_process(tiebreak, seed):
    spec = BestOfGamesSpec(3, tiebreak)
    s = simulate(
        SimConfig(SystemSpec("bog", l=3, tiebreak=tiebreak), (0.6, 0.75), 100_000, seed)
    )
    theta, true_mean, true_var = oracles.bog_true_stats(0.6, 0.75, 3, tiebreak)
    mean, _ = bog_match_points_moments(0.6, 0.75, spec)
    assert mean == pytest.approx(true_mean, rel=1e-9)
    assert theta == pytest.approx(bog_match_win_prob(0.6, 0.75, spec), rel=1e-12)
    assert _z(s.win_rate_A, theta, s.win_rate_se) < 4.0
    assert _z(s.mean_points, mean, s.mean_points_se) < 4.0
    assert _z(s.std_points, math.sqrt(true_var), s.std_points_se) < 4.0


@pytest.mark.parametrize("spec, system", [
    (MatchSpec(7, 10, 2), SystemSpec("match", k0=7, k1=10, q=2)),
    (BestOfGamesSpec(3, "sg"), SystemSpec("bog", l=3, tiebreak="sg")),
])
def test_public_specs_simulate_as_the_equal_system_spec(spec, system):
    assert spec == system
    config = SimConfig(system=spec, params=(0.6, 0.55), replications=10, seed=1)
    assert simulate(config) == simulate(SimConfig(system, (0.6, 0.55), 10, 1))


def test_sudden_game_coin_at_degenerate_servers():
    # pa = pb = 1 forces 4-point service games to the l-l tie, where the
    # coin-flipped sudden game decides: every match lasts exactly 4(2l+1)
    # points and A's chance is the coin's half
    s = simulate(SimConfig(SystemSpec("bog", l=4, tiebreak="sg"), (1.0, 1.0), 4_000, 5))
    assert s.capped_replications == 0
    assert s.mean_points == 36.0
    assert s.std_points == 0.0
    assert abs(s.win_rate_A - 0.5) <= 4.0 * math.sqrt(0.25 / 4_000)


# ------------------------------------------------------- per-score grouping

def test_score_table_matches_dp_row_stats():
    out = _simulate_outcomes(SimConfig(SystemSpec("set"), (0.6, 0.55), 60_000, 201))
    table = _score_table(out)
    scores = {(6, 0), (6, 1), (6, 2), (6, 3), (6, 4), (7, 5), (7, 6)}
    assert {key for _, key in table} == scores

    true_rows = oracles.set_true_row_stats(0.6, 0.55, 7)
    reps = 60_000
    for label, (prob, mean, var, _, _) in true_rows.items():
        hi, lo = map(int, label.split("-"))
        cells = [table[k] for k in (("A", (hi, lo)), ("B", (hi, lo))) if k in table]
        count = sum(c[0] for c in cells)
        assert abs(count / reps - prob) <= 5.0 * math.sqrt(prob * (1 - prob) / reps)
        pooled_mean = sum(c[0] * c[1] for c in cells) / count
        assert abs(pooled_mean - mean) <= 5.0 * math.sqrt(var / count)


def test_score_table_requires_score_categories():
    out = _simulate_outcomes(SimConfig(SystemSpec("game"), 0.6, 500, 202))
    with pytest.raises(ValueError):
        _score_table(out)


def test_match_scores_partition_and_decider_uses_long_target():
    # q = 1 with an extreme decider target: final set scores must all be 2-0,
    # 2-1, 0-2 or 1-2, and the 26-point decider tie-break is long enough that
    # routing k0 there instead would show up in the mean at this precision
    cfg = SimConfig(SystemSpec("match", k0=7, k1=26, q=1), (0.5, 0.5), 25_000, 203)
    out = _simulate_outcomes(cfg)
    table = _score_table(out)
    assert {key for _, key in table} <= {(2, 0), (2, 1)}
    s = simulate(cfg)
    mean, _ = match_points_moments(0.5, 0.5, MatchSpec(7, 26, 1))
    assert _z(s.mean_points, mean, s.mean_points_se) < 4.0
    wrong_mean, _ = match_points_moments(0.5, 0.5, MatchSpec(7, 7, 1))
    assert _z(s.mean_points, wrong_mean, s.mean_points_se) > 4.0


def test_folded_tiebreak_tails_keep_their_scores():
    # the compiled tables fold ST(7) tails at 8-8; the tally must restore
    # the real score, whose sum is the point count
    out = _simulate_outcomes(SimConfig(SystemSpec("st", k=7), (0.5, 0.5), 20_000, 204))
    assert not out.capped.any()
    a, b = out.score_a.astype(np.int64), out.score_b.astype(np.int64)
    assert np.array_equal(a + b, out.points)
    assert np.array_equal(a > b, out.winner_a)
    long_ = np.maximum(a, b) > 7
    assert long_.sum() > 100 and np.maximum(a, b).max() > 10
    assert np.all(np.abs(a - b)[long_] == 2)
    assert np.all(np.abs(a - b)[~long_] >= 2)


def test_folded_sttg_ties_keep_their_scores():
    # strong servers drag best-of-7-games ties far past 4-4, where the
    # tables fold a game a side; final scores must still be a two-game lead
    cfg = SimConfig(SystemSpec("bog", l=3, tiebreak="sttg"), (0.8, 0.8), 5_000, 205)
    out = _simulate_outcomes(cfg)
    assert not out.capped.any()
    a, b = out.score_a.astype(np.int64), out.score_b.astype(np.int64)
    assert np.array_equal(a > b, out.winner_a)
    tie = np.minimum(a, b) >= 3
    assert np.all(np.abs(a - b)[tie] == 2)
    assert np.all((np.maximum(a, b) == 4)[~tie])
    assert np.any(np.maximum(a, b) >= 6)
    assert np.maximum(a, b).max() >= 8


# ------------------------------------------------------------- golden runs

# Per-replication outcomes of fixed seeded runs, pinned bit for bit: the
# SHA-256 of points, winner_a, capped and the completed replications'
# score_a/score_b; the exact SimSummary repr; and the SHA-256 of the sorted
# _score_table items (None for kinds without score categories).  Any change
# to the draw contract, the serve schedule or the scoring rules shows here.
GOLDEN_RUNS = [
    (
        "gt", SystemSpec("gt"), 0.6, 3000, 11, 100_000,
        "b24ed33621d8a2fc55dc4864673ed9f2b629212819e6546b7460fd6f538d2150",
        "SimSummary(win_rate_A=0.7056666666666667, win_rate_se=0.008320681506988519, mean_points=3.832, mean_points_se=0.0486466025715914, std_points=2.6644841574449436, std_points_se=0.06919016011280373, capped_replications=0)",
        None,
    ),
    (
        "game", SystemSpec("game"), 0.6, 3000, 12, 100_000,
        "e9ce9054bfdb7684950fa93268756ff6e54797db03669c2888cd4389fa15099b",
        "SimSummary(win_rate_A=0.7206666666666667, win_rate_se=0.008191585565327024, mean_points=6.421333333333333, mean_points_se=0.045494375575807613, std_points=2.4918295742481913, std_points_se=0.06618936347527823, capped_replications=0)",
        None,
    ),
    (
        "bofk-l3", SystemSpec("bofk", l=3), 0.6, 3000, 13, 100_000,
        "4abead7b374144fea68a24f8a8ba7ea6bc5174e9cd5225e195970defe1c2ece0",
        "SimSummary(win_rate_A=0.7183333333333334, win_rate_se=0.008212400289715456, mean_points=5.681666666666667, mean_points_se=0.018654864359849716, std_points=1.021769001708886, std_points_se=0.008775145381514428, capped_replications=0)",
        None,
    ),
    (
        "stt", SystemSpec("stt"), (0.6, 0.55), 3000, 14, 100_000,
        "ac05e49ea0b0bd07ba1e87fad7c9c87860698ed78c4e5567551c7a74f2e730ab",
        "SimSummary(win_rate_A=0.5533333333333333, win_rate_se=0.009076628514221852, mean_points=4.014666666666667, mean_points_se=0.05270429868190737, std_points=2.886733326557046, std_points_se=0.06868413138433431, capped_replications=0)",
        None,
    ),
    (
        "st-k7", SystemSpec("st", k=7), (0.6, 0.55), 3000, 15, 100_000,
        "9f5f8990a0ff4dda24b0677ff0bacab4466c7e158b4d071d4d879f328c5b7913",
        "SimSummary(win_rate_A=0.581, win_rate_se=0.009008125961227081, mean_points=11.778666666666666, mean_points_se=0.054780407432039185, std_points=3.0004464859851514, std_points_se=0.07110133283570826, capped_replications=0)",
        "bbad398b38a445f902b65859f497fad2e999e15fd82a678a1fbd3bd5559233bf",
    ),
    (
        "st-k8", SystemSpec("st", k=8), (0.5, 0.5), 3000, 16, 100_000,
        "62c503e56ff0048d32d3bc30d7b12db8763aeab9e0dd481e512bc5157b4673c0",
        "SimSummary(win_rate_A=0.5063333333333333, win_rate_se=0.009127976937030624, mean_points=13.435333333333332, mean_points_se=0.053845615438515536, std_points=2.949245819842339, std_points_se=0.06830151231954036, capped_replications=0)",
        "70f7a0175cee99d81939155507fd7c39a75cc86a4cbe174996f99b8e321e15c1",
    ),
    (
        "set-k7", SystemSpec("set", k=7), (0.6, 0.55), 3000, 17, 100_000,
        "8ce68e23f0029f091920b910472d9f113e7b8709fd890b304d1fb00a95c8d7a2",
        "SimSummary(win_rate_A=0.665, win_rate_se=0.008617327505284532, mean_points=64.48333333333333, mean_points_se=0.2980610839512907, std_points=16.325477919456297, std_points_se=0.19891120181124614, capped_replications=0)",
        "e217af9c4be54f4cc4c937e7fbe181255bf763b9f1733fb134520dacb41e3138",
    ),
    (
        "match-7-10-2", SystemSpec("match", k0=7, k1=10, q=2), (0.6, 0.55), 2000, 18, 100_000,
        "7b157325cdda187cdabf3b3b694b0211583980961337fa3e074b7f63717130e6",
        "SimSummary(win_rate_A=0.7855, win_rate_se=0.009178500694557909, mean_points=256.0595, mean_points_se=1.4150062194830055, std_points=63.28100190697976, std_points_se=0.8091052043538481, capped_replications=0)",
        "dcf8efd037d63adf8041ef29c6f421e53a7a657a4645d5404ef7922b8989cefc",
    ),
    (
        "match-7-26-1", SystemSpec("match", k0=7, k1=26, q=1), (0.5, 0.5), 2000, 19, 100_000,
        "c362e6222fc543f385ef9406ce446d5b8a58d34b5c06c1de22de625eb7e833c6",
        "SimSummary(win_rate_A=0.4965, win_rate_se=0.011180065965816124, mean_points=166.875, mean_points_se=1.0179235097176103, std_points=45.52292327247489, std_points_se=0.6843936491206744, capped_replications=0)",
        "ef0cac872360adffb5a0cf373a30e23288baf28079f75e76a9da4f5ead92cea8",
    ),
    (
        "bog-l3-sg", SystemSpec("bog", l=3, tiebreak="sg"), (0.6, 0.75), 3000, 20, 100_000,
        "6c280da1eb21436d9be205e9e1eeecba139f17aa317b4d3181bbe09d157e352c",
        "SimSummary(win_rate_A=0.214, win_rate_se=0.007487856836238257, mean_points=36.62866666666667, mean_points_se=0.13579218322198539, std_points=7.437644188355594, std_points_se=0.11100056232158251, capped_replications=0)",
        "16aeedf32b58513cd87e119911ec1ed1701f0888d9fc6c0b6ae4dd7c8a598155",
    ),
    (
        "bog-l3-sttg", SystemSpec("bog", l=3, tiebreak="sttg"), (0.8, 0.8), 3000, 21, 100_000,
        "479ef61a98aa7a59be6b685584eb626eb3dd596332a115bd5341976d02fbc18c",
        "SimSummary(win_rate_A=0.494, win_rate_se=0.009128052001020443, mean_points=240.38266666666667, mean_points_se=4.238525582164925, std_points=232.15360719144462, std_points_se=5.615003718722109, capped_replications=0)",
        "ea7e63d23160231baabdbec66cc798a25c4a2a6f6bc9f5b2e4faaa2b910710f2",
    ),
    (
        "bog-l3-sttp", SystemSpec("bog", l=3, tiebreak="sttp"), (0.6, 0.75), 3000, 22, 100_000,
        "a12d093b086ef725d6e3d2a0c49fdfbab3fedcb7aa29892d57772191ed47bacc",
        "SimSummary(win_rate_A=0.192, win_rate_se=0.007191105617358155, mean_points=36.218, mean_points_se=0.1321866726974128, std_points=7.2401622437925255, std_points_se=0.11162381922046125, capped_replications=0)",
        "a61291909fa13131905831e1cb8fa5bc468bdfb9714d6f0313f948e1a550fc2b",
    ),
    (
        "bog-l4-sg-degenerate", SystemSpec("bog", l=4, tiebreak="sg"), (1.0, 1.0), 500, 23, 100_000,
        "6728edec7e4ee2f0e15d206da00e86d64eb5a5ed2d419519c5b2f157d0541042",
        "SimSummary(win_rate_A=0.488, win_rate_se=0.022354238971613417, mean_points=36.0, mean_points_se=0.0, std_points=0.0, std_points_se=0.0, capped_replications=0)",
        "7553de79688e142cd840cab4dafc9ba3b197f9e12dfd1a4a9b9c69bca0175ff3",
    ),
    (
        "stt-partly-capped", SystemSpec("stt"), (0.999, 0.999), 300, 26, 100,
        "4b3b5a56bbb030059396b7f52d18f4dfebc9bf15893282ea5138744dc5e2b55d",
        "SimSummary(win_rate_A=0.375, win_rate_se=0.09882117688026186, mean_points=48.416666666666664, mean_points_se=6.852460857733029, std_points=33.570065167680546, std_points_se=2.279806053876992, capped_replications=276)",
        None,
    ),
    (
        "bog-l25-sg-capped-at-coin", SystemSpec("bog", l=25, tiebreak="sg"), (1.0, 1.0), 20, 27, 200,
        "1f11d9e370f64b8c875273aed00575243737e41a69fa67d0234bd6315f618a9f",
        "SimSummary(win_rate_A=nan, win_rate_se=nan, mean_points=nan, mean_points_se=nan, std_points=nan, std_points_se=nan, capped_replications=20)",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (
        "bog-l3-sttg-capped", SystemSpec("bog", l=3, tiebreak="sttg"), (1.0, 1.0), 20, 28, 128,
        "10ecf46385fe0ce69bd37abfaf6027e7394a4e935ea87b55a2c392bb4d1ffe39",
        "SimSummary(win_rate_A=nan, win_rate_se=nan, mean_points=nan, mean_points_se=nan, std_points=nan, std_points_se=nan, capped_replications=20)",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (
        "bog-l3-sttp-capped", SystemSpec("bog", l=3, tiebreak="sttp"), (1.0, 1.0), 20, 29, 128,
        "10ecf46385fe0ce69bd37abfaf6027e7394a4e935ea87b55a2c392bb4d1ffe39",
        "SimSummary(win_rate_A=nan, win_rate_se=nan, mean_points=nan, mean_points_se=nan, std_points=nan, std_points_se=nan, capped_replications=20)",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    (
        "stt-capped", SystemSpec("stt"), (1.0, 1.0), 50, 24, 128,
        "5ffff738ab0a75d63b0a06ba677c7c71a015503eaa812a4d317dba86cef82e78",
        "SimSummary(win_rate_A=nan, win_rate_se=nan, mean_points=nan, mean_points_se=nan, std_points=nan, std_points_se=nan, capped_replications=50)",
        None,
    ),
    (
        "st-k7-capped", SystemSpec("st", k=7), (1.0, 1.0), 50, 25, 128,
        "5ffff738ab0a75d63b0a06ba677c7c71a015503eaa812a4d317dba86cef82e78",
        "SimSummary(win_rate_A=nan, win_rate_se=nan, mean_points=nan, mean_points_se=nan, std_points=nan, std_points_se=nan, capped_replications=50)",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
]


def _outcome_digest(out):
    ok = ~out.capped
    parts = [
        out.points.astype(np.int64),
        out.winner_a.astype(np.uint8),
        out.capped.astype(np.uint8),
    ]
    if out.score_a is not None:
        parts += [out.score_a[ok].astype(np.int64), out.score_b[ok].astype(np.int64)]
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes())
    return h.hexdigest()


def _check_golden(spec, params, reps, seed, cap, digest, summary, table):
    cfg = SimConfig(spec, params, reps, seed, max_points_per_replication=cap)
    out = _simulate_outcomes(cfg)
    assert _outcome_digest(out) == digest
    assert repr(simulate(cfg)) == summary
    if table is None:
        assert out.score_a is None
    else:
        items = repr(sorted(_score_table(out).items())).encode()
        assert hashlib.sha256(items).hexdigest() == table


_GOLDEN_PARAMS = pytest.mark.parametrize(
    "spec, params, reps, seed, cap, digest, summary, table",
    [case[1:] for case in GOLDEN_RUNS],
    ids=[case[0] for case in GOLDEN_RUNS],
)


@_GOLDEN_PARAMS
def test_seeded_outcomes_match_golden_digests(
    spec, params, reps, seed, cap, digest, summary, table
):
    _check_golden(spec, params, reps, seed, cap, digest, summary, table)


@pytest.fixture
def counted_races(monkeypatch):
    """Compile every system with its target-sized races counted."""
    _tables.cache_clear()
    monkeypatch.setattr(rules, "_MAX_STATES", 1)
    yield
    _tables.cache_clear()


@_GOLDEN_PARAMS
def test_counted_races_reproduce_golden_digests(
    counted_races, spec, params, reps, seed, cap, digest, summary, table
):
    tables = _tables(spec)
    assert (tables.final > tables.live) == (spec.kind in ("st", "set", "match", "bofk", "bog"))
    _check_golden(spec, params, reps, seed, cap, digest, summary, table)


# ------------------------------------------------------ the one-step runner

def _stepwise_outcomes(config):
    """The runner one step at a time: a float uniform per step, u < p_win[s]."""
    tables = _tables(config.system)
    pa, pb = config.params if config.system.takes_pair else (config.params, 0.0)
    p_win = np.array([pa, 1.0 - pb, 0.5])[tables.server]
    n, cap = config.replications, config.max_points_per_replication
    points, winner_a, capped = np.zeros(n, np.int64), np.zeros(n, bool), np.zeros(n, bool)
    score = np.zeros((n, 2), np.int32)
    rep, keys, s = np.arange(n), _rep_streams(config.seed, n), np.zeros(n, np.intp)
    tally, counts = np.zeros(n, np.int32), np.zeros((n, len(tables.races), 2), np.int64)
    step = 0
    while rep.size:
        edge = 2 * s + (_draw(keys, step) < p_win[s])
        s = tables.nxt[edge]
        if tables.fold is not None:
            tally += tables.fold[edge]
        step += 1
        _settle(tables, s, counts)
        fin = (s >= tables.final) | (step - tables.coins[s] >= cap)
        f = np.flatnonzero(fin)
        done, end = rep[f], s[f]
        points[done] = step - tables.coins[end]
        winner_a[done] = tables.a_won[end]
        ok = end >= tables.final
        capped[done] = ~ok
        f, done, end = f[ok], done[ok], end[ok]
        if tables.scored is not None:
            score[done] = counts[f, tables.scored]
        elif tables.score is not None:
            score[done] = tables.score[end] + tally[f, None]
        keep = ~fin
        rep, s, keys, tally, counts = rep[keep], s[keep], keys[keep], tally[keep], counts[keep]
    records = tables.score is not None or tables.scored is not None
    return points, winner_a, capped, score if records else None


# Every kind, at parameters where caps of 100 to 128 end some replications
# and not others (bofk, stt, st, set, match, sttg, sttp), plus the serve
# coin: at (1, 1) the bog l=12 sg match takes its coin step at step 97 and
# ends at step 101 on 100 points, l=13 ties past every cap below 105.  At
# gt-at-a-draw, p is the first draw of the one-replication run, which u < p
# must lose.
_STEPWISE_CASES = [
    ("gt", SystemSpec("gt"), 0.6),
    ("gt-at-a-draw", SystemSpec("gt"), float(_draw(_rep_streams(41, 1), 0)[0])),
    ("game", SystemSpec("game"), 0.6),
    ("bofk-l60", SystemSpec("bofk", l=60), 0.5),
    ("stt", SystemSpec("stt"), (0.97, 0.97)),
    ("st-k7", SystemSpec("st", k=7), (0.97, 0.96)),
    ("set-k7", SystemSpec("set", k=7), (0.95, 0.93)),
    ("match-7-10-1", SystemSpec("match", k0=7, k1=10, q=1), (0.6, 0.55)),
    ("bog-l3-sg", SystemSpec("bog", l=3, tiebreak="sg"), (0.6, 0.75)),
    ("bog-l3-sttg", SystemSpec("bog", l=3, tiebreak="sttg"), (0.8, 0.8)),
    ("bog-l3-sttp", SystemSpec("bog", l=3, tiebreak="sttp"), (0.97, 0.97)),
    ("bog-l12-sg-coin", SystemSpec("bog", l=12, tiebreak="sg"), (1.0, 1.0)),
    ("bog-l13-sg-coin", SystemSpec("bog", l=13, tiebreak="sg"), (1.0, 1.0)),
]


@pytest.mark.parametrize("tabling", ["tabled", "counted"])
@pytest.mark.parametrize("cap", [100, 101, 128])
@pytest.mark.parametrize(
    "spec, params", [case[1:] for case in _STEPWISE_CASES],
    ids=[case[0] for case in _STEPWISE_CASES],
)
def test_block_runner_matches_the_stepwise_runner(request, tabling, cap, spec, params):
    # blocks of draws, integer thresholds and absorbing terminals must give
    # every replication the outcome of one step, one float uniform at a time
    if tabling == "counted":
        request.getfixturevalue("counted_races")
    for reps, seed in ((1, 41), (7, 42), (500, 43)):
        config = SimConfig(spec, params, reps, seed, max_points_per_replication=cap)
        got = _simulate_outcomes(config)
        points, winner_a, capped, score = _stepwise_outcomes(config)
        assert np.array_equal(got.points, points)
        assert np.array_equal(got.winner_a, winner_a)
        assert np.array_equal(got.capped, capped)
        if score is None:
            assert got.score_a is None and got.score_b is None
        else:
            assert np.array_equal(got.score_a, score[:, 0])
            assert np.array_equal(got.score_b, score[:, 1])


# ------------------------------------------------------------- long targets

@pytest.mark.parametrize(
    "spec, params, target, min_points",
    [
        (SystemSpec("st", k=5000), (0.5, 0.5), 5000, 5000),
        (SystemSpec("set", k=5000), (0.95, 0.95), 7, 5000),  # 6-6 all but sure
        (SystemSpec("match", k0=7, k1=7, q=100), (0.6, 0.55), 101, 101 * 24),
        (SystemSpec("bofk", l=3000), 0.5, None, 3001),
        (SystemSpec("bog", l=1000, tiebreak="sg"), (0.7, 0.7), 1001, 1001 * 4),
        (SystemSpec("bog", l=1000, tiebreak="sttg"), (0.6, 0.6), 1001, 1001 * 4),
        (SystemSpec("bog", l=300, tiebreak="sttp"), (0.6, 0.6), 301, 301 * 4),
    ],
    ids=["st-k5000", "set-k5000", "match-q100", "bofk-l3000", "bog-l1000-sg",
         "bog-l1000-sttg", "bog-l300-sttp"],
)
def test_long_targets_are_counted_in_small_tables(spec, params, target, min_points):
    # table size must not grow with k, q or l: long races go to counters
    tables = _tables(spec)
    assert tables.final < 2_000
    out = _simulate_outcomes(SimConfig(spec, params, 3, 31))
    assert not out.capped.any()
    assert np.all(out.points >= min_points)
    if target is None:
        return
    a, b = out.score_a.astype(np.int64), out.score_b.astype(np.int64)
    assert np.array_equal(a > b, out.winner_a)
    assert np.all(np.maximum(a, b) >= target)
    if spec.kind == "st":
        assert np.array_equal(a + b, out.points)
        assert np.all(np.abs(a - b) >= 2)
    # the score table keys each replication by its side and (winner, loser) score
    expected = {("A", (x, y)) if w else ("B", (y, x))
                for w, x, y in zip(out.winner_a, a.tolist(), b.tolist())}
    assert set(_score_table(out)) == expected


def test_counted_tables_compile_alike_on_concurrent_threads(counted_races):
    # each walk carries its own script of counted outcomes, so builds on
    # several threads at once must give the tables of a serial build
    specs = [SystemSpec("st", k=9), SystemSpec("set", k=7), SystemSpec("match"),
             SystemSpec("bog", l=4, tiebreak="sttg")]
    serial = [_tables(spec) for spec in specs]
    _tables.cache_clear()
    barrier = threading.Barrier(len(specs))

    def build(spec):
        barrier.wait(timeout=60)
        return _tables(spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside every walk
    try:
        with ThreadPoolExecutor(max_workers=len(specs)) as pool:
            concurrent = list(pool.map(build, specs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial, concurrent):
        assert want.final > want.live  # the scripted, counted path
        for name, a, b in zip(want._fields, want, got):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            else:
                assert a == b, name


def test_capped_replications_record_no_score():
    out = _simulate_outcomes(
        SimConfig(SystemSpec("st", k=7), (1.0, 1.0), 5, 3, max_points_per_replication=128)
    )
    assert out.capped.all()
    assert not out.score_a.any() and not out.score_b.any()
