"""Structural identities that hold exactly, checked over randomized grids.

These are the algebraic facts the rest of the suite leans on: reflection
S-shapedness of the single-parameter curves, fairness at equal abilities,
reversal/relabelling symmetries, the deuce-vs-sudden-death gap at 3-3, the
tie-break tail mass, and first-server irrelevance above the game level.
Everything here is closed-form against closed-form; no tolerances beyond
float arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from deuce.bestof import BestOfGamesSpec, bofk_win_prob, bog_match_win_prob
from deuce.core import binomial_convolution_mass, serves_by_first_server
from deuce.game import game_win_prob, gt_win_prob
from deuce.match import MatchSpec, match_win_prob
from deuce.sets import (
    set_win_prob,
    st_breakdown,
    st_points_distribution,
    st_win_prob,
    stt_win_prob,
)

RNG = np.random.default_rng(20260815)

PROBS = hyp.floats(min_value=0.05, max_value=0.95)
KS = hyp.integers(min_value=2, max_value=12)

ONE_PARAM = {
    "gt": gt_win_prob,
    "game": game_win_prob,
    "bof7": lambda p: bofk_win_prob(p, 3),
    "bof9": lambda p: bofk_win_prob(p, 4),
    "bof21": lambda p: bofk_win_prob(p, 10),
}

PAIR_SYSTEMS = {
    "stt": lambda a, b: stt_win_prob(a, b),
    "st7": lambda a, b: st_win_prob(a, b, 7),
    "st8": lambda a, b: st_win_prob(a, b, 8),
    "set7": lambda a, b: set_win_prob(a, b, 7),
    "set10": lambda a, b: set_win_prob(a, b, 10),
    "match": lambda a, b: match_win_prob(a, b, MatchSpec(7, 10, 2)),
    "bog_sg": lambda a, b: bog_match_win_prob(a, b, BestOfGamesSpec(6, "sg")),
    "bog_sttg": lambda a, b: bog_match_win_prob(a, b, BestOfGamesSpec(6, "sttg")),
    "bog_sttp": lambda a, b: bog_match_win_prob(a, b, BestOfGamesSpec(6, "sttp")),
}


# ---------------------------------------------------------------------------
# S-shape


@pytest.mark.parametrize("name", sorted(ONE_PARAM))
def test_reflection_symmetry_one_param(name):
    theta = ONE_PARAM[name]
    p = RNG.uniform(0.01, 0.99, 200)
    np.testing.assert_allclose(theta(1.0 - p), 1.0 - theta(p),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(ONE_PARAM))
def test_amplification_above_one_half(name):
    theta = ONE_PARAM[name]
    p = RNG.uniform(0.501, 0.999, 200)
    assert np.all(theta(p) > p)


# ---------------------------------------------------------------------------
# fairness at equal abilities


def test_gt_and_game_fair_at_even_point():
    assert gt_win_prob(0.5) == pytest.approx(0.5, abs=1e-15)
    assert game_win_prob(0.5) == pytest.approx(0.5, abs=1e-15)


@given(p=PROBS, k=KS)
@settings(max_examples=150, deadline=None)
def test_pair_systems_fair_when_abilities_match(p, k):
    assert stt_win_prob(p, p) == pytest.approx(0.5, abs=1e-12)
    assert st_win_prob(p, p, k) == pytest.approx(0.5, abs=1e-12)
    assert set_win_prob(p, p, k) == pytest.approx(0.5, abs=1e-12)
    assert match_win_prob(p, p, MatchSpec(7, 10, 2)) == pytest.approx(0.5, abs=1e-12)


def test_fairness_holds_across_structures():
    p = RNG.uniform(0.05, 0.95, 25)
    for q in (1, 2, 3):
        theta = match_win_prob(p, p, MatchSpec(7, 7, q))
        np.testing.assert_allclose(theta, 0.5, rtol=0.0, atol=1e-12)
    for tb in ("sg", "sttg", "sttp"):
        theta = bog_match_win_prob(p, p, BestOfGamesSpec(4, tb))
        np.testing.assert_allclose(theta, 0.5, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# reversal and relabelling


@pytest.mark.parametrize("name", sorted(PAIR_SYSTEMS))
def test_reversal_symmetry(name):
    # Complementing both serve probabilities and swapping the players maps
    # every point outcome onto its mirror image, so the win probability is
    # unchanged: theta(pA, pB) = theta(1-pB, 1-pA).
    theta = PAIR_SYSTEMS[name]
    pa = RNG.uniform(0.05, 0.95, 64)
    pb = RNG.uniform(0.05, 0.95, 64)
    np.testing.assert_allclose(theta(pa, pb), theta(1.0 - pb, 1.0 - pa),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(PAIR_SYSTEMS))
def test_first_server_irrelevance(name):
    # Listing the players in the other order complements the result exactly:
    # above the game level no one gains from serving first.
    theta = PAIR_SYSTEMS[name]
    pa = RNG.uniform(0.05, 0.95, 64)
    pb = RNG.uniform(0.05, 0.95, 64)
    np.testing.assert_allclose(theta(pa, pb), 1.0 - theta(pb, pa),
                               rtol=0.0, atol=1e-12)


@given(pa=PROBS, pb=PROBS)
@settings(max_examples=150, deadline=None)
def test_stt_closed_form_permutation(pa, pb):
    lhs = stt_win_prob(pa, pb)
    expect = (pa * (1 - pb)) / (pa * (1 - pb) + (1 - pa) * pb)
    assert lhs == pytest.approx(expect, abs=1e-14)


# ---------------------------------------------------------------------------
# the 3-3 gap between deuce and sudden death


@given(p=hyp.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200, deadline=None)
def test_game_vs_best_of_seven_gap(p):
    # A game and a best-of-7 points race agree until 3-3; from there the game
    # plays the two-point-advantage sub-game instead of one sudden point, and
    # 3-3 is reached with probability C(6,3) p^3 q^3.
    q = 1.0 - p
    gap = game_win_prob(p) - bofk_win_prob(p, 3)
    expect = 20.0 * p**3 * q**3 * (gt_win_prob(p) - p)
    assert gap == pytest.approx(expect, abs=1e-14)


# ---------------------------------------------------------------------------
# tie-break tail mass


@given(pa=PROBS, pb=PROBS, k=KS)
@settings(max_examples=60, deadline=None)
def test_st_tail_equals_binomial_convolution_mass(pa, pb, k):
    # Reaching (k-1, k-1) is the event that the first server wins exactly
    # k-1 of the first 2k-2 points, split across own-serve and return
    # points according to the fixed rotation; no earlier stopping rule can
    # interfere because neither player has k points yet.
    n = 2 * k - 2
    s_a = serves_by_first_server(n)
    reach = binomial_convolution_mass(s_a, pa, n - s_a, 1.0 - pb, k - 1)
    dist = st_points_distribution(pa, pb, k)
    tail = sum(prob for points, prob in dist.support if points > n)
    assert tail == pytest.approx(reach, abs=1e-12)


def test_st_decomposes_into_head_plus_tie():
    pa = RNG.uniform(0.05, 0.95, 32)
    pb = RNG.uniform(0.05, 0.95, 32)
    for k in (2, 5, 7, 8, 13):
        n = 2 * k - 2
        s_a = serves_by_first_server(n)
        reach = binomial_convolution_mass(s_a, pa, n - s_a, 1.0 - pb, k - 1)
        resumed = st_win_prob(pa, pb, k) - reach * stt_win_prob(pa, pb)
        # Winning without the tie-break is exactly the event that the
        # opponent takes at most k-2 of the first 2k-2 points (play the
        # phantom remainder: the margin rule cannot flip such a path).
        head = sum(binomial_convolution_mass(s_a, 1.0 - pa, n - s_a, pb, j)
                   for j in range(k - 1))
        np.testing.assert_allclose(resumed, head, rtol=0.0, atol=1e-12)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))


def test_win_probabilities_stay_in_unit_interval_on_grid():
    # Rounding used to carry sums of score masses one ulp past 1 on this grid.
    g = np.linspace(0.01, 0.99, 99)
    pa, pb = np.meshgrid(g, g, indexing="ij")
    for k in (2, 7, 10):
        theta = set_win_prob(pa, pb, k)
        assert np.all((theta >= 0.0) & (theta <= 1.0))
    for spec in (MatchSpec(7, 7, 2), MatchSpec(7, 10, 2), MatchSpec(7, 7, 1), MatchSpec(6, 9, 3)):
        theta = match_win_prob(pa, pb, spec)
        assert np.all((theta >= 0.0) & (theta <= 1.0))
    # The ST and the points race read above 1 here before their sums were clipped.
    for k in (7, 30):
        theta = st_win_prob(pa, pb, k)
        assert np.all((theta >= 0.0) & (theta <= 1.0))
    for l in (29, 100):
        theta = bofk_win_prob(g, l)
        assert np.all((theta >= 0.0) & (theta <= 1.0))
    assert 0.0 <= st_win_prob(0.065, 0.0, 7) <= 1.0
    assert 0.0 <= st_breakdown(0.065, 0.0, 7).win_prob <= 1.0
