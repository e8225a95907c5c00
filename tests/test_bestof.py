"""Best-of point races and best-of-games matches with three tie rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp
from scipy.stats import binom

import oracles
from deuce.bestof import (
    BestOfGamesSpec,
    bofk_points_distribution,
    bofk_win_prob,
    bog_match_points_moments,
    bog_match_win_prob,
)
from deuce.core import (
    MatchSpec,
    NonTerminatingError,
    SystemSpec,
    binomial_convolution_tail,
    games_served_by_first_server,
    geometric_moments,
)
from deuce.game import game_points_moments, game_win_prob, gt_win_prob
from deuce.sets import _game_split, stt_win_prob

P_GRID = np.linspace(0.05, 0.95, 19)

# Games-race block: (pa, pb) -> {l: win prob}, printed to four decimals.
STTG_WIN_TABLE = {
    (0.5, 0.6): {5: 0.1798, 15: 0.0762, 22: 0.0443, 29: 0.0264},
    (0.6, 0.5): {5: 0.8202, 15: 0.9238, 22: 0.9557, 29: 0.9736},
    (0.8, 0.6): {5: 0.9621, 15: 0.9929, 22: 0.9979, 29: 0.9994},
    (0.9, 0.8): {5: 0.9391, 15: 0.9412, 22: 0.9435, 29: 0.9462},
}


@pytest.mark.parametrize("fn", [bog_match_win_prob, bog_match_points_moments])
@pytest.mark.parametrize("spec", [MatchSpec(), SystemSpec("set"), (3, "sttg")],
                         ids=["match", "set", "tuple"])
def test_bog_functions_reject_a_spec_of_another_kind(fn, spec):
    with pytest.raises(ValueError, match="SystemSpec of kind 'bog'"):
        fn(0.6, 0.55, spec)


# -- raw point races ---------------------------------------------------------


def test_bofk_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bofk_win_prob(0.6, 0)
    with pytest.raises(ValueError):
        bofk_win_prob(1.2, 3)
    with pytest.raises(ValueError):
        bofk_points_distribution(0.5, -1)


def test_bofk_win_prob_is_binomial_majority():
    """The race head equals the tail of a full best-of-(2l+1) binomial."""
    rng = np.random.default_rng(20260815)
    for _ in range(25):
        p = rng.uniform(0.02, 0.98)
        l = int(rng.integers(1, 40))
        assert bofk_win_prob(p, l) == pytest.approx(
            binom.sf(l, 2 * l + 1, p), abs=1e-12
        )


def test_bof7_closed_form():
    for p in P_GRID:
        q = 1.0 - p
        expected = p**4 * (1 + 4 * q + 10 * q**2 + 20 * q**3)
        assert bofk_win_prob(p, 3) == pytest.approx(expected, abs=1e-14)


def test_game_vs_bof7_gap_identity():
    """theta_G - theta_Bof7 = 20 p^3 q^3 (theta_GT - p), so the game system
    amplifies the server's edge relative to the raw race."""
    for p in np.linspace(0.01, 0.99, 25):
        gap = game_win_prob(p) - bofk_win_prob(p, 3)
        q = 1.0 - p
        assert gap == pytest.approx(20 * p**3 * q**3 * (gt_win_prob(p) - p), abs=1e-13)
        if p > 0.5:
            assert gap > 0.0
        elif p < 0.5:
            assert gap < 0.0
    assert game_win_prob(0.5) - bofk_win_prob(0.5, 3) == pytest.approx(0.0, abs=1e-15)
    assert bofk_win_prob(1.0, 3) == 1.0
    assert bofk_win_prob(0.0, 3) == 0.0


def test_bof9_reference_moments():
    dist = bofk_points_distribution(0.5, 4)
    assert dist.mean == pytest.approx(965 / 128, abs=1e-12)  # 7.5391
    assert dist.variance == pytest.approx(24295 / 16384, abs=1e-12)  # 1.4828
    assert dist.std == pytest.approx(math.sqrt(24295 / 16384), abs=1e-12)
    assert dist.truncation_mass == 0.0
    assert [n for n, _ in dist.support] == [5, 6, 7, 8, 9]


@pytest.mark.parametrize("l", [1, 2, 3, 7, 20, 60])
def test_bofk_pmf_is_complete(l):
    for p in (0.05, 0.37, 0.5, 0.81, 0.95):
        dist = bofk_points_distribution(p, l)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
        t_mean, t_var = dist.truncated_moments()
        assert t_mean == pytest.approx(dist.mean, abs=1e-10)
        assert t_var == pytest.approx(dist.variance, abs=1e-10)


def test_bofk_degenerate_endpoints():
    for p in (0.0, 1.0):
        dist = bofk_points_distribution(p, 6)
        assert dist.mean == pytest.approx(7.0, abs=0)
        assert dist.variance == pytest.approx(0.0, abs=0)
        assert dict(dist.support)[7] == pytest.approx(1.0, abs=0)


# -- best-of-games matches ---------------------------------------------------


def test_bog_spec_validation():
    assert BestOfGamesSpec(5).tiebreak == "sttg"
    assert BestOfGamesSpec(5).l == 5
    with pytest.raises(ValueError):
        BestOfGamesSpec(0)
    with pytest.raises(ValueError):
        BestOfGamesSpec(5, "coin")


def test_bog_score_partition_and_head_identity():
    """Score masses partition, and the no-tie head collapses to the binomial
    tail over 2l games despite each score fixing its own serve split."""
    rng = np.random.default_rng(7)
    for l in (1, 2, 3, 5, 15):
        for _ in range(6):
            pa, pb = rng.uniform(0.05, 0.95, size=2)
            split = _game_split(pa, pb, l)
            wa, wb = split.win1, split.win2
            a_wins, tie = split.race(l + 1, games_served_by_first_server)
            b_wins, _ = split.swapped().race(l + 1, games_served_by_first_server)
            assert sum(a_wins) + sum(b_wins) + tie == pytest.approx(1.0, abs=1e-12)
            assert sum(a_wins) == pytest.approx(
                binomial_convolution_tail(l, wa, l, wb, l + 1), abs=1e-12
            )


@pytest.mark.parametrize(
    "pa, pb, l, expected",
    [(pa, pb, l, v) for (pa, pb), cols in STTG_WIN_TABLE.items() for l, v in cols.items()],
)
def test_bog_win_prob_reference_values(pa, pb, l, expected):
    assert bog_match_win_prob(pa, pb, BestOfGamesSpec(l, "sttg")) == pytest.approx(
        expected, abs=5e-5
    )


def test_bog_win_prob_tie_rules_differ():
    probs = {
        tb: bog_match_win_prob(0.8, 0.7, BestOfGamesSpec(4, tb))
        for tb in ("sg", "sttg", "sttp")
    }
    assert probs["sttg"] != pytest.approx(probs["sg"], abs=1e-4)
    assert probs["sttg"] != pytest.approx(probs["sttp"], abs=1e-4)
    split = _game_split(0.8, 0.7, 4)
    wa, wb = split.win1, split.win2
    _, tie = split.race(5, games_served_by_first_server)
    head = binomial_convolution_tail(4, wa, 4, wb, 5)
    assert probs["sg"] == pytest.approx(head + tie * 0.5 * (wa + wb), abs=1e-12)
    assert probs["sttg"] == pytest.approx(
        head + tie * stt_win_prob(game_win_prob(0.8), game_win_prob(0.7)), abs=1e-12
    )
    assert probs["sttp"] == pytest.approx(head + tie * stt_win_prob(0.8, 0.7), abs=1e-12)


@pytest.mark.parametrize("tiebreak", ["sg", "sttg", "sttp"])
def test_bog_fairness(tiebreak):
    for l in (1, 4, 11):
        spec = BestOfGamesSpec(l, tiebreak)
        for p in P_GRID:
            assert bog_match_win_prob(p, p, spec) == pytest.approx(0.5, abs=1e-12)


def test_bog_outcome_flip_reflection():
    """Flipping every point swaps the players: theta(pa,pb) + theta(qa,qb) = 1,
    and the length law is flip-invariant."""
    rng = np.random.default_rng(11)
    for tb in ("sg", "sttg", "sttp"):
        spec = BestOfGamesSpec(3, tb)
        for _ in range(8):
            pa, pb = rng.uniform(0.05, 0.95, size=2)
            assert bog_match_win_prob(pa, pb, spec) + bog_match_win_prob(
                1 - pa, 1 - pb, spec
            ) == pytest.approx(1.0, abs=1e-12)
            m1, v1 = bog_match_points_moments(pa, pb, spec)
            m2, v2 = bog_match_points_moments(1 - pa, 1 - pb, spec)
            assert m1 == pytest.approx(m2, rel=1e-12)
            assert v1 == pytest.approx(v2, rel=1e-12)


def test_bog_moments_reference_mixture():
    # (0.5, 0.5), l=5: every category mean is games x 6.75, and the games-unit
    # tie swaps the race's 27 expected points for its 4 expected games.
    spec = BestOfGamesSpec(5, "sttg")
    mean_pts, var_pts = bog_match_points_moments(0.5, 0.5, spec)
    mean_gms, var_gms = bog_match_points_moments(0.5, 0.5, spec, tie_unit="games")
    assert mean_pts == pytest.approx(67.7109375, abs=1e-10)
    assert mean_gms == pytest.approx(62.05078125, abs=1e-10)
    tie = 252 / 1024
    assert mean_pts - mean_gms == pytest.approx(tie * (27 - 4), abs=1e-12)
    assert math.sqrt(var_pts) == pytest.approx(21.1487, abs=5e-5)
    assert math.sqrt(var_gms) == pytest.approx(12.1182, abs=5e-5)


def test_bog_tie_unit_guards():
    spec = BestOfGamesSpec(3, "sg")
    with pytest.raises(ValueError):
        bog_match_points_moments(0.6, 0.6, spec, tie_unit="games")
    with pytest.raises(ValueError):
        bog_match_points_moments(0.6, 0.6, BestOfGamesSpec(3, "sttp"), tie_unit="games")
    with pytest.raises(ValueError):
        bog_match_points_moments(0.6, 0.6, BestOfGamesSpec(3), tie_unit="sets")


def test_bog_degenerate_servers():
    # pa=1, pb=0: A wins every game; the tie is unreachable, so even the
    # advantage races terminate and the match is (l+1) four-point games.
    for tb in ("sg", "sttg", "sttp"):
        spec = BestOfGamesSpec(4, tb)
        assert bog_match_win_prob(1.0, 0.0, spec) == pytest.approx(1.0, abs=0)
        mean, var = bog_match_points_moments(1.0, 0.0, spec)
        assert mean == pytest.approx(20.0, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)
    # pa=pb=1: the 4-4 tie arrives with certainty and neither advantage race
    # can ever produce a two-unit lead.
    for tb in ("sttg", "sttp"):
        spec = BestOfGamesSpec(4, tb)
        with pytest.raises(NonTerminatingError):
            bog_match_win_prob(1.0, 1.0, spec)
        with pytest.raises(NonTerminatingError):
            bog_match_points_moments(1.0, 1.0, spec)
    # ...but the sudden game settles it with a coin flip.
    spec = BestOfGamesSpec(4, "sg")
    assert bog_match_win_prob(1.0, 1.0, spec) == pytest.approx(0.5, abs=0)
    mean, var = bog_match_points_moments(1.0, 1.0, spec)
    assert mean == pytest.approx(4 * 8 + 4, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_bog_isner_mahut_regime():
    """Strong servers on both sides stretch the games race enormously."""
    spec = BestOfGamesSpec(5, "sttg")
    m_even, v_even = bog_match_points_moments(0.5, 0.5, spec)
    m_hot, v_hot = bog_match_points_moments(0.9, 0.9, spec)
    assert m_hot > 10 * m_even
    assert math.sqrt(v_hot) > 100 * math.sqrt(v_even)
    # the points race, by contrast, only shortens as p leaves 1/2
    assert bofk_points_distribution(0.9, 5).mean < bofk_points_distribution(0.5, 5).mean


def test_bog_matches_exact_process_at_one_half():
    for l, tb in [(2, "sg"), (2, "sttg"), (2, "sttp"), (5, "sttg")]:
        spec = BestOfGamesSpec(l, tb)
        theta, t_mean, t_var = oracles.bog_true_stats(0.5, 0.5, l, tb)
        assert bog_match_win_prob(0.5, 0.5, spec) == pytest.approx(theta, abs=1e-12)
        mean, var = bog_match_points_moments(0.5, 0.5, spec)
        assert mean == pytest.approx(t_mean, rel=1e-12)
        assert var == pytest.approx(t_var, rel=1e-12)


@pytest.mark.parametrize(
    "pa, pb, l, tb, var_band",
    [
        (0.6, 0.75, 3, "sttg", (0.01, 0.06)),
        (0.6, 0.75, 3, "sttp", (0.02, 0.09)),
        (0.6, 0.75, 3, "sg", (0.02, 0.09)),
        (0.3, 0.8, 4, "sttp", (-0.15, -0.05)),
    ],
)
def test_bog_moments_vs_exact_process(pa, pb, l, tb, var_band):
    """Win prob and mean are exact; the variance carries the score-conditional
    convention's gap, whose sign depends on the parameters."""
    spec = BestOfGamesSpec(l, tb)
    theta, t_mean, t_var = oracles.bog_true_stats(pa, pb, l, tb)
    assert bog_match_win_prob(pa, pb, spec) == pytest.approx(theta, abs=1e-12)
    mean, var = bog_match_points_moments(pa, pb, spec)
    assert mean == pytest.approx(t_mean, rel=1e-9)
    lo, hi = var_band
    assert lo < (var - t_var) / t_var < hi


def test_bog_underdog_win_prob_keeps_relative_accuracy():
    # A's chance of breaking a near-certain server, formed as one minus the
    # hold, lost about 5e-10 relative here to cancellation.
    pa, pb = 0.09983, 0.98988
    theta = oracles.bog_true_stats(pa, pb, 7, "sttg")[0]
    got = bog_match_win_prob(pa, pb, BestOfGamesSpec(7, "sttg"))
    assert got == pytest.approx(theta, rel=1e-11, abs=0.0)


def test_bog_broadcasting():
    pa = np.linspace(0.2, 0.8, 5)
    pb = 0.55
    spec = BestOfGamesSpec(3, "sttg")
    theta = bog_match_win_prob(pa, pb, spec)
    assert theta.shape == (5,)
    mean, var = bog_match_points_moments(pa, pb, spec)
    assert mean.shape == (5,) and var.shape == (5,)
    for i, p in enumerate(pa):
        assert theta[i] == pytest.approx(bog_match_win_prob(p, pb, spec), abs=1e-14)
        m, v = bog_match_points_moments(p, pb, spec)
        assert mean[i] == pytest.approx(m, abs=1e-11)
        assert var[i] == pytest.approx(v, rel=1e-11)
    grid = bofk_win_prob(np.linspace(0.1, 0.9, 7), 10)
    assert grid.shape == (7,)
    assert np.all(np.diff(grid) > 0)


@given(
    pa=hyp.floats(min_value=0.02, max_value=0.98),
    pb=hyp.floats(min_value=0.02, max_value=0.98),
    l=hyp.integers(min_value=1, max_value=9),
    tb=hyp.sampled_from(["sg", "sttg", "sttp"]),
)
@settings(max_examples=40, deadline=None)
@example(pa=0.9765625, pb=0.125, l=6, tb="sg")  # summed to 1.0000000000000002 before the clip
def test_bog_probability_laws(pa, pb, l, tb):
    spec = BestOfGamesSpec(l, tb)
    theta = bog_match_win_prob(pa, pb, spec)
    assert 0.0 <= theta <= 1.0
    assert theta + bog_match_win_prob(1 - pa, 1 - pb, spec) == pytest.approx(
        1.0, abs=1e-10
    )
    mean, var = bog_match_points_moments(pa, pb, spec)
    assert mean >= 4 * (l + 1) - 1e-9
    assert var >= -1e-9
