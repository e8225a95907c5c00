import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp

from deuce.core import (
    NonTerminatingError,
    binomial_convolution_mass,
    binomial_convolution_tail,
)
from deuce.game import game_points_moments, game_points_pmf, game_win_prob
from deuce.sets import (
    set_breakdown,
    set_points_distribution,
    set_points_moments,
    set_win_prob,
    st_breakdown,
    st_points_distribution,
    st_points_moments,
    st_win_prob,
    stt_points_distribution,
    stt_win_prob,
)

import oracles

P_GRID = np.linspace(0.05, 0.95, 19)

TABLE_SET = {
    # loser score h: (A wins, B wins, cond mean, cond var) at (0.6, 0.55, K=7)
    "6-0": (0.021, 0.004, 39.495, 42.419),
    "6-1": (0.095, 0.012, 45.979, 49.127),
    "6-2": (0.095, 0.050, 52.660, 56.559),
    "6-3": (0.204, 0.044, 59.145, 63.267),
    "6-4": (0.105, 0.122, 65.825, 70.698),
    "7-5": (0.069, 0.041, 78.991, 84.838),
    "7-6": (0.080, 0.058, 90.751, 93.551),
}


# ---------------------------------------------------------------- STT


def test_stt_win_prob_values():
    assert stt_win_prob(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert stt_win_prob(0.6, 0.5) == pytest.approx(0.6, abs=1e-12)
    assert stt_win_prob(0.6, 0.5) == pytest.approx(
        oracles.stt_win_prob_series(0.6, 0.5), abs=1e-12
    )


def test_stt_win_prob_fair_for_equal_abilities():
    for p in P_GRID:
        assert stt_win_prob(p, p) == pytest.approx(0.5, abs=1e-15)


def test_stt_win_prob_against_series_oracle():
    rng = np.random.default_rng(7)
    for pa, pb in rng.uniform(0.05, 0.95, size=(20, 2)):
        assert stt_win_prob(pa, pb) == pytest.approx(
            oracles.stt_win_prob_series(pa, pb), abs=1e-11
        )


def test_stt_reversal_identity():
    assert stt_win_prob(0.7, 0.4) == pytest.approx(stt_win_prob(0.6, 0.3), abs=1e-15)


def test_stt_degenerate_pairs_raise():
    for pa, pb in ((0.0, 0.0), (1.0, 1.0)):
        with pytest.raises(NonTerminatingError):
            stt_win_prob(pa, pb)
        with pytest.raises(NonTerminatingError):
            stt_points_distribution(pa, pb)


def test_stt_win_prob_broadcasts():
    pa = np.array([0.3, 0.5, 0.9])
    out = stt_win_prob(pa, 0.5)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(0.5)


def test_stt_distribution_first_mass_and_mean():
    d = stt_points_distribution(0.5, 0.5)
    assert dict(d.support)[2] == pytest.approx(0.5, abs=1e-15)
    assert d.mean == pytest.approx(4.0, abs=1e-12)
    d = stt_points_distribution(0.9, 0.9)
    assert d.mean == pytest.approx(2.0 / 0.18, abs=1e-12)
    assert dict(d.support)[2] == pytest.approx(0.18, abs=1e-15)


def test_stt_distribution_terminates_in_closed_form():
    # truncation after 500 pairs leaves < 1e-12 whenever eta >= 0.05
    for pa in P_GRID:
        for pb in (0.05, 0.5, 0.95):
            d = stt_points_distribution(float(pa), float(pb), n_max=1000)
            eta = pa * (1 - pb) + (1 - pa) * pb
            if eta >= 0.05:
                assert d.truncation_mass < 1e-12
            assert d.total_mass() == pytest.approx(1.0, abs=1e-14)


def test_stt_distribution_moments_match_truncated_sums():
    for pa, pb in ((0.5, 0.5), (0.8, 0.35), (0.95, 0.9)):
        d = stt_points_distribution(pa, pb, n_max=4000)
        t_mean, t_var = d.truncated_moments()
        assert d.mean == pytest.approx(t_mean, abs=1e-8)
        assert d.variance == pytest.approx(t_var, abs=1e-8)


def test_geometric_tails_end_where_mass_underflows():
    # rho = 1 - eta > 0.5 here: a running product would stick at 5e-324 and
    # fill every even count up to n_max with it.
    for dist in (
        stt_points_distribution(0.55, 0.55, n_max=4000),
        st_points_distribution(0.55, 0.55, 7, n_max=4000),
    ):
        masses = [m for _, m in dist.support]
        assert dist.support[-1][0] < 4000
        assert masses[-1] > 0.0
        # a tail falling by ~0.505 per pair rounds at most two entries to 5e-324
        assert sum(m == 5e-324 for m in masses) <= 2
        assert dist.total_mass() + dist.truncation_mass == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------- ST


def test_st_variance_is_never_negative():
    # a near-certain 7-0 leaves a variance far below the squared mean
    _, var = st_points_moments(1.0, 5.18e-17, 7)
    assert var >= 0.0


def test_st_win_prob_fair_for_equal_abilities():
    for k in (7, 8, 9, 10):
        for p in P_GRID:
            assert abs(st_win_prob(p, p, k) - 0.5) < 1e-12


def test_st_win_prob_against_path_oracle():
    assert st_win_prob(0.6, 0.55, 7) == pytest.approx(
        oracles.st_win_prob_paths(0.6, 0.55, 7), abs=1e-10
    )
    rng = np.random.default_rng(11)
    for _ in range(10):
        pa, pb = rng.uniform(0.05, 0.95, size=2)
        k = int(rng.integers(2, 11))
        assert st_win_prob(pa, pb, k) == pytest.approx(
            oracles.st_win_prob_paths(pa, pb, k), abs=1e-10
        )


def test_st_win_prob_invariant_under_pairwise_serve_order():
    # strict ABAB alternation pairs the serves the same way ABBA does
    rng = np.random.default_rng(13)
    for _ in range(20):
        pa, pb = rng.uniform(0.05, 0.95, size=2)
        k = int(rng.integers(2, 11))
        assert st_win_prob(pa, pb, k) == pytest.approx(
            oracles.st_win_prob_paths(pa, pb, k, order="abab"), abs=1e-10
        )


def test_st_reversal_identity():
    assert st_win_prob(0.8, 0.3, 7) == pytest.approx(st_win_prob(0.7, 0.2, 7), abs=1e-12)
    rng = np.random.default_rng(17)
    for _ in range(10):
        pa, pb = rng.uniform(0.02, 0.98, size=2)
        for k in (7, 10):
            assert st_win_prob(pa, pb, k) == pytest.approx(
                st_win_prob(1 - pb, 1 - pa, k), abs=1e-12
            )


def test_st_tail_identity():
    # head scores sum to a two-binomial tail probability
    rng = np.random.default_rng(19)
    for _ in range(10):
        pa, pb = rng.uniform(0.02, 0.98, size=2)
        k = int(rng.integers(2, 12))
        d = st_points_distribution(pa, pb, k)
        masses = dict(d.support)
        head_a = st_breakdown(pa, pb, k)
        head = sum(r.p_first_wins for r in head_a.rows if r.score != "TB")
        assert head == pytest.approx(
            binomial_convolution_tail(k - 1, pa, k - 1, 1 - pb, k), abs=1e-12
        )
        del masses


def test_st_reduces_to_stt_at_k2():
    # a race to two with the tie at 1-1 satisfies the same fixed-point equation
    for pa, pb in ((0.6, 0.55), (0.3, 0.8), (0.5, 0.5)):
        assert st_win_prob(pa, pb, 2) == pytest.approx(stt_win_prob(pa, pb), abs=1e-14)


def test_st_degenerate_raises_only_when_tie_reachable():
    for pa, pb in ((0.0, 0.0), (1.0, 1.0)):
        with pytest.raises(NonTerminatingError):
            st_win_prob(pa, pb, 7)
        with pytest.raises(NonTerminatingError):
            st_points_distribution(pa, pb, 7)
    # one player sweeping every point never reaches the tie
    assert st_win_prob(1.0, 0.0, 7) == 1.0
    assert st_win_prob(0.0, 1.0, 7) == 0.0
    d = st_points_distribution(1.0, 0.0, 7)
    assert dict(d.support)[7] == pytest.approx(1.0)
    assert d.mean == pytest.approx(7.0)


def test_st_score_masses_match_dp_oracle():
    for pa, pb, k in ((0.6, 0.55, 7), (0.3, 0.7, 9), (0.5, 0.5, 8)):
        finals, tie = oracles.st_score_probs_dp(pa, pb, k)
        b = st_breakdown(pa, pb, k)
        for h in range(k - 1):
            row = b.row(f"{k}-{h}")
            assert row.p_first_wins == pytest.approx(finals.get((k, h), 0.0), abs=1e-13)
            assert row.p_second_wins == pytest.approx(finals.get((h, k), 0.0), abs=1e-13)
        tb = b.row("TB")
        assert tb.p_total == pytest.approx(tie, abs=1e-13)
        assert b.probability_total() == pytest.approx(1.0, abs=1e-12)


def test_st_distribution_structure_and_moments():
    for pa, pb, k in ((0.6, 0.55, 7), (0.2, 0.9, 10), (0.5, 0.5, 7)):
        d = st_points_distribution(pa, pb, k, n_max=4000)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-12)
        masses = dict(d.support)
        assert all(n % 2 == 0 for n in masses if n > 2 * k - 2)
        assert masses.get(2 * k - 1, 0.0) == 0.0
        t_mean, t_var = d.truncated_moments()
        assert d.mean == pytest.approx(t_mean, abs=1e-8)
        assert d.variance == pytest.approx(t_var, abs=1e-8)
        e1, e2 = oracles.st_true_points_raw_moments(pa, pb, k)
        assert d.mean == pytest.approx(e1, abs=1e-9)
        assert d.variance == pytest.approx(e2 - e1 * e1, abs=1e-8)


def test_st_moments_implied_by_set_table():
    mean, var = st_points_moments(0.6, 0.55, 7)
    assert mean == pytest.approx(90.751 - 78.991, abs=2e-3)
    assert var == pytest.approx(93.551 - 84.838, abs=2e-3)


# ---------------------------------------------------------------- set


def test_set_win_prob_fair_for_equal_abilities():
    for k in (7, 8, 9, 10):
        for p in P_GRID:
            assert abs(set_win_prob(p, p, k) - 0.5) < 1e-12


def test_set_win_prob_table_value():
    assert set_win_prob(0.6, 0.55, 7) == pytest.approx(0.669, abs=5e-4)


def test_set_win_prob_alternative_convolution_route():
    rng = np.random.default_rng(23)
    for _ in range(12):
        pa, pb = rng.uniform(0.02, 0.98, size=2)
        k = int(rng.integers(2, 11))
        ga, wb = game_win_prob(pa), 1.0 - game_win_prob(pb)
        direct = binomial_convolution_tail(5, ga, 5, wb, 6)
        at_five = binomial_convolution_mass(5, ga, 5, wb, 5)
        theta_st = st_win_prob(pa, pb, k)
        alt = direct + at_five * (
            ga * wb + (ga * (1 - wb) + (1 - ga) * wb) * theta_st
        )
        assert set_win_prob(pa, pb, k) == pytest.approx(alt, abs=1e-12)


def test_set_reversal_and_first_server_irrelevance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        pa, pb = rng.uniform(0.02, 0.98, size=2)
        assert set_win_prob(pa, pb, 7) == pytest.approx(
            set_win_prob(1 - pb, 1 - pa, 7), abs=1e-12
        )
        assert 1.0 - set_win_prob(pb, pa, 7) == pytest.approx(
            set_win_prob(pa, pb, 7), abs=1e-10
        )


def test_set_length_law_is_not_reversal_invariant():
    # Only win probabilities carry the (pa,pb) -> (qb,qa) symmetry.  The swap
    # exchanges the two serve slots' per-game win rates while each score
    # category splits serve counts unevenly, so the point-count law moves:
    # both the mean and the final-score masses shift by whole points/percents.
    m1, v1 = set_points_moments(0.6, 0.85, 7)
    m2, v2 = set_points_moments(0.15, 0.4, 7)
    assert abs(m1 - m2) > 1.0
    d1 = oracles.set_true_outcomes_dp(0.6, 0.85, 7)
    d2 = oracles.set_true_outcomes_dp(0.15, 0.4, 7)
    assert abs(d1[("B", (1, 6))][0] - d2[("B", (1, 6))][0]) > 0.05


def test_set_breakdown_reproduces_summary_table():
    b = set_breakdown(0.6, 0.55, 7)
    for score, (wa, wb, cmean, cvar) in TABLE_SET.items():
        row = b.row(score)
        assert row.p_first_wins == pytest.approx(wa, abs=1e-3), score
        assert row.p_second_wins == pytest.approx(wb, abs=1e-3), score
        assert row.cond_mean == pytest.approx(cmean, abs=1e-3), score
        assert row.cond_var == pytest.approx(cvar, abs=1e-3), score
    assert b.win_prob == pytest.approx(0.669, abs=1e-3)
    assert b.mean == pytest.approx(64.352, abs=1e-2)
    assert b.variance == pytest.approx(267.271, abs=0.5)


def test_set_breakdown_is_consistent():
    for pa, pb in ((0.6, 0.55), (0.5, 0.5), (0.85, 0.15)):
        b = set_breakdown(pa, pb, 7)
        assert b.probability_total() == pytest.approx(1.0, abs=1e-9)
        assert b.win_prob == pytest.approx(
            sum(r.p_first_wins for r in b.rows), abs=1e-12
        )
        weighted = sum(r.p_total * r.cond_mean for r in b.rows)
        assert weighted == pytest.approx(b.mean, abs=1e-9)


def test_set_score_probs_match_exact_process_dp():
    # final-score probabilities do not involve the length convention at all,
    # so the closed forms must agree with the joint-walk DP to near machine level
    rows = oracles.set_true_outcomes_dp(0.6, 0.55, 7)
    b = set_breakdown(0.6, 0.55, 7)
    for score_label, (hi, lo) in (
        ("6-0", (6, 0)), ("6-2", (6, 2)), ("6-4", (6, 4)), ("7-5", (7, 5)),
    ):
        row = b.row(score_label)
        assert row.p_first_wins == pytest.approx(rows[("A", (hi, lo))][0], abs=1e-11)
        assert row.p_second_wins == pytest.approx(rows[("B", (lo, hi))][0], abs=1e-11)
    tie = b.row("7-6")
    assert tie.p_first_wins == pytest.approx(rows[("A", (7, 6))][0], abs=1e-11)
    assert tie.p_second_wins == pytest.approx(rows[("B", (7, 6))][0], abs=1e-11)


def test_set_moments_vs_exact_process():
    # The closed-form mean is exact for the true process at every parameter
    # (whether the set is still running never depends on the current game).
    # The variance conditions on the final score and treats a game's length as
    # exchangeable with its winner; the two laws coincide at p=1/2 exactly,
    # stay within ~0.2% at tennis-like parameters, and drift visibly at
    # lopsided ones.  The brackets below pin the quantified behaviour.
    for pa, pb, var_rel in ((0.5, 0.5, 1e-12), (0.6, 0.55, 4e-3), (0.75, 0.3, 0.15)):
        mean, var = set_points_moments(pa, pb, 7)
        t_mean, t_var = oracles.set_true_points_moments(pa, pb, 7)
        assert mean == pytest.approx(t_mean, rel=1e-9)
        assert var == pytest.approx(t_var, rel=var_rel)


def test_set_moments_table_values():
    mean, var = set_points_moments(0.6, 0.55, 7)
    assert mean == pytest.approx(64.352, abs=1e-2)
    assert var == pytest.approx(267.271, abs=0.5)


def test_set_moments_broadcast():
    pa = np.linspace(0.2, 0.8, 5)
    mean, var = set_points_moments(pa, 0.5, 7)
    assert mean.shape == (5,)
    m0, v0 = set_points_moments(float(pa[2]), 0.5, 7)
    assert mean[2] == pytest.approx(m0, abs=1e-12)
    assert var[2] == pytest.approx(v0, abs=1e-12)


def test_set_degenerate_pairs():
    for pa, pb in ((0.0, 0.0), (1.0, 1.0)):
        with pytest.raises(NonTerminatingError):
            set_win_prob(pa, pb, 7)
        with pytest.raises(NonTerminatingError):
            set_points_moments(pa, pb, 7)
    assert set_win_prob(1.0, 0.0, 7) == 1.0
    mean, var = set_points_moments(1.0, 0.0, 7)
    assert mean == pytest.approx(24.0)  # six games of four points
    assert var == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    pa=hyp.floats(0.02, 0.98),
    pb=hyp.floats(0.02, 0.98),
    k=hyp.integers(2, 12),
)
@example(pa=0.9453125, pb=0.03125, k=2)  # summed to 1.0000000000000002 before the clip
def test_set_win_prob_properties(pa, pb, k):
    theta = set_win_prob(pa, pb, k)
    assert 0.0 <= theta <= 1.0
    assert theta == pytest.approx(set_win_prob(1 - pb, 1 - pa, k), abs=1e-12)


def test_set_points_distribution_bookkeeping():
    dist = set_points_distribution(0.6, 0.55, 7)
    assert dist.total_mass() + dist.truncation_mass == pytest.approx(1.0, abs=1e-12)
    t_mean, t_var = dist.truncated_moments()
    assert t_mean == pytest.approx(dist.mean, abs=1e-8)
    assert t_var == pytest.approx(dist.variance, abs=1e-6)
    mean, var = set_points_moments(0.6, 0.55, 7)
    assert dist.mean == pytest.approx(mean)
    assert dist.variance == pytest.approx(var)


def test_set_points_distribution_floor_is_six_quick_games():
    # 24 points can only happen as 6-0 with every game ending 4-0.
    pa, pb = 0.6, 0.55
    dist = set_points_distribution(pa, pb, 7)
    rows = {r.score: r for r in set_breakdown(pa, pb, 7).rows}
    sweep = rows["6-0"].p_first_wins + rows["6-0"].p_second_wins
    quick_a = dict(game_points_pmf(pa).support)[4]
    quick_b = dict(game_points_pmf(pb).support)[4]
    n0, m0 = dist.support[0]
    assert n0 == 24
    assert m0 == pytest.approx(sweep * quick_a**3 * quick_b**3, rel=1e-12, abs=0)


@pytest.mark.parametrize("pa,pb", [(0.97, 0.6), (0.99, 0.55)])
def test_underdog_set_masses_keep_relative_accuracy(pa, pb):
    # B sweeps 6-0 by winning three A-served and three B-served games.  The
    # masses sit far below 1e-12, so the check must not fall back on
    # pytest's default absolute tolerance.
    _, a_loses = oracles.game_outcome_exact(pa)
    b_holds, _ = oracles.game_outcome_exact(pb)
    exact = float(a_loses**3 * b_holds**3)
    got = set_breakdown(pa, pb, 7).row("6-0").p_second_wins
    assert got == pytest.approx(exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("pa,pb,k", [(0.9999, 0.0001, 7), (0.0001, 0.9999, 8), (0.999, 0.3, 8)])
def test_tie_shares_keep_relative_accuracy(pa, pb, k):
    # Each player's share of a tie is that player's own tie-break win, not
    # one minus the other's: where the other is a near-certain winner the
    # complement keeps none of the small share's digits.  At an even K, B
    # opens the STT, which must not change A's route either.
    a_wins, b_wins, tie = oracles.st_outcome_exact(pa, pb, k)
    fa, fb = Fraction(pa), Fraction(pb)
    b_stt = (1 - fa) * fb / (fa * (1 - fb) + (1 - fa) * fb)
    assert st_win_prob(pa, pb, k) == pytest.approx(float(a_wins), rel=1e-13, abs=0)
    tb = st_breakdown(pa, pb, k).row("TB")
    assert tb.p_second_wins == pytest.approx(float(tie * b_stt), rel=1e-13, abs=0)
    p66 = Fraction(oracles.set_score_probs_dp(pa, pb)[(6, 6)])
    row = set_breakdown(pa, pb, k).row("7-6")
    assert row.p_second_wins == pytest.approx(float(p66 * b_wins), rel=1e-13, abs=0)


@pytest.mark.parametrize("pa,pb", [(0.05, 0.05), (0.95, 0.95), (0.05, 0.95), (0.5, 0.5)])
def test_set_points_distribution_mass_at_default_cap(pa, pb):
    dist = set_points_distribution(pa, pb, 7)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)
