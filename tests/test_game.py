from fractions import Fraction

import numpy as np
import pytest

from deuce.game import (
    game_breakdown,
    game_points_moments,
    game_points_pmf,
    game_win_prob,
    gt_points_moments,
    gt_win_prob,
)

import oracles

P_GRID = np.linspace(0.01, 0.99, 99)


def test_gt_win_prob_values():
    assert gt_win_prob(0.5) == pytest.approx(0.5)
    assert gt_win_prob(1.0) == 1.0
    assert gt_win_prob(0.0) == 0.0
    assert gt_win_prob(0.6) == pytest.approx(0.36 / 0.52, abs=1e-15)


def test_gt_win_prob_against_series_oracle():
    for p in (0.6, 0.05, 0.31, 0.5, 0.87):
        assert gt_win_prob(p) == pytest.approx(oracles.gt_win_prob_series(p), abs=1e-9)


def test_gt_reflection_identity():
    theta = gt_win_prob(P_GRID)
    assert np.allclose(theta + gt_win_prob(1.0 - P_GRID), 1.0, atol=1e-12)


def test_game_reflection_identity():
    theta = game_win_prob(P_GRID)
    assert np.allclose(theta + game_win_prob(1.0 - P_GRID), 1.0, atol=1e-12)


def test_game_s_shape():
    upper = np.linspace(0.51, 0.99, 49)
    assert np.all(game_win_prob(upper) > upper)
    lower = 1.0 - upper
    assert np.all(game_win_prob(lower) < lower)


def test_game_win_prob_table_values():
    # per-score terms at p = 0.6 and the overall probability
    assert game_win_prob(0.6) == pytest.approx(0.735, abs=1e-3)
    b = game_breakdown(0.6)
    assert b.row("4-0").p_first_wins == pytest.approx(0.129, abs=1e-3)
    assert b.row("4-1").p_first_wins == pytest.approx(0.207, abs=1e-3)
    assert b.row("4-2").p_first_wins == pytest.approx(0.207, abs=1e-3)
    assert b.row("TB").p_first_wins == pytest.approx(0.191, abs=1e-3)


def test_game_breakdown_full_table_at_06():
    b = game_breakdown(0.6)
    expected = {
        # score: (A wins, B wins, cond mean, cond var)
        "4-0": (0.129, 0.025, 4.000, 0.000),
        "4-1": (0.207, 0.061, 5.000, 0.000),
        "4-2": (0.207, 0.092, 6.000, 0.000),
        "TB": (0.191, 0.085, 9.846, 7.100),
    }
    for score, (pa, pb, mean, var) in expected.items():
        row = b.row(score)
        assert row.p_first_wins == pytest.approx(pa, abs=1e-3)
        assert row.p_second_wins == pytest.approx(pb, abs=1e-3)
        assert row.cond_mean == pytest.approx(mean, abs=5e-3)
        assert row.cond_var == pytest.approx(var, abs=5e-3)
    assert b.win_prob == pytest.approx(0.735, abs=1e-3)
    assert 1.0 - b.win_prob == pytest.approx(0.264, abs=1e-3)
    assert b.mean == pytest.approx(6.484, abs=5e-3)
    assert b.variance == pytest.approx(6.708, abs=5e-3)


def test_game_breakdown_is_consistent():
    for p in (0.5, 0.6, 0.93, 0.07):
        b = game_breakdown(p)
        assert b.probability_total() == pytest.approx(1.0, abs=1e-9)
        weighted_mean = sum(r.p_total * r.cond_mean for r in b.rows)
        assert weighted_mean == pytest.approx(b.mean, abs=1e-9)
        assert b.win_prob == pytest.approx(sum(r.p_first_wins for r in b.rows), abs=1e-12)


@pytest.mark.parametrize("p", [1.0 - 1e-9, 0.999, 0.6, 1e-9])
def test_game_breakdown_deuce_shares_match_exact_values(p):
    """Each player's TB share is the deuce mass times that player's own GT
    win, exact for the float ``p``: the receiver's share near p = 1 is
    about 1e-44, where a complement of the server's GT win reads 0."""
    x = Fraction(p)
    q = 1 - x
    tie = 20 * x**3 * q**3
    row = game_breakdown(p).row("TB")
    assert row.p_first_wins == pytest.approx(float(tie * x * x / (x * x + q * q)), rel=1e-15, abs=0)
    assert row.p_second_wins == pytest.approx(float(tie * q * q / (x * x + q * q)), rel=1e-15, abs=0)


def test_game_moments_at_half():
    mean, var = game_points_moments(0.5)
    assert mean == pytest.approx(6.750, abs=1e-9)
    assert var == pytest.approx(7.6875, abs=1e-9)
    assert var**0.5 == pytest.approx(2.7726, abs=1e-4)


def test_game_moments_symmetric_in_p():
    m1, v1 = game_points_moments(P_GRID)
    m2, v2 = game_points_moments(1.0 - P_GRID)
    assert np.allclose(m1, m2, atol=1e-12)
    assert np.allclose(v1, v2, atol=1e-12)


@pytest.mark.parametrize("p", [1.1285641832335641e-16, 1e-12, 1e-9, 1e-6, 0.01, 0.999,
                               1 - 1e-9, 1 - 1e-12])
def test_game_variance_matches_exact_sums(p):
    # Near p = 0 or 1 the variance is tiny against the squared mean, so
    # E[L^2] - mean^2 cancels to noise (below 0 at the smallest p); the
    # centered mixture keeps full relative accuracy.
    _, var = game_points_moments(p)
    exact = float(oracles.game_points_moments_exact(p)[1])
    assert var == pytest.approx(exact, rel=1e-14, abs=0)


def test_gt_points_moments():
    mean, var = gt_points_moments(0.5)
    assert mean == pytest.approx(4.0)
    assert var == pytest.approx(8.0)  # 8pq/(p^2+q^2)^2 at p=1/2
    mean, var = gt_points_moments(1.0)
    assert (mean, var) == (2.0, 0.0)


def test_game_pmf_matches_dp_oracle():
    for p in (0.5, 0.6, 0.15, 0.92):
        dist = game_points_pmf(p, n_max=60)
        oracle = oracles.game_length_pmf_dp(p, n_max=60)
        masses = dict(dist.support)
        for n in range(1, 61):
            assert masses.get(n, 0.0) == pytest.approx(oracle.get(n, 0.0), abs=1e-13), n


def test_game_pmf_structure():
    dist = game_points_pmf(0.6)
    masses = dict(dist.support)
    assert masses.get(7, 0.0) == 0.0 or 7 not in masses
    assert all(n % 2 == 0 for n in masses if n > 6)
    assert all(m >= 0.0 for m in masses.values())


def test_game_pmf_normalization_and_truncation():
    for p in np.linspace(0.0, 1.0, 21):
        dist = game_points_pmf(float(p))
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)
    for p in np.linspace(0.05, 0.95, 19):
        assert game_points_pmf(float(p), n_max=400).truncation_mass < 1e-12


def test_game_pmf_closed_moments_match_truncated_sums():
    for p in (0.5, 0.6, 0.2, 0.85):
        dist = game_points_pmf(p, n_max=400)
        t_mean, t_var = dist.truncated_moments()
        assert dist.mean == pytest.approx(t_mean, abs=1e-8)
        assert dist.variance == pytest.approx(t_var, abs=1e-8)


def test_game_pmf_degenerate_endpoints():
    for p in (0.0, 1.0):
        dist = game_points_pmf(p)
        masses = {n: m for n, m in dist.support if m > 0.0}
        assert masses == {4: pytest.approx(1.0)}
        assert dist.mean == 4.0 and dist.variance == 0.0


def test_game_pmf_rejects_small_nmax():
    with pytest.raises(ValueError):
        game_points_pmf(0.5, n_max=5)
