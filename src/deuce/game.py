"""Single-server subsystem: the game and its deuce tie-breaker.

One player serves every point with point-win probability ``p``.  A game is
first to four points with a two-point margin; at 3-3 ("deuce", the game
tie-breaker GT) play continues in pairs of points until one player leads by
two.  The pair structure makes the GT duration twice a geometric variable
with success probability p^2 + q^2.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BreakdownRow,
    PointCountDistribution,
    ScoreBreakdown,
    _check_count,
    _check_prob,
    geometric_moments,
)

__all__ = [
    "gt_win_prob",
    "gt_points_moments",
    "game_win_prob",
    "game_points_moments",
    "game_points_pmf",
    "game_breakdown",
]

# number of point sequences reaching each pre-deuce final score:
# C(3+h, 3) ways to lose h points before the winner's fourth
_SCORE_WAYS = {0: 1, 1: 4, 2: 10}
_DEUCE_WAYS = 20  # C(6, 3) orderings of 3-3


def gt_win_prob(p):
    """Server's probability of winning the game tie-breaker (deuce).

    Each pair of points is decisive with probability p^2 + q^2 (server sweeps
    or drops both); the server takes a decisive pair with p^2, so the
    geometric race gives p^2 / (p^2 + q^2).  The denominator is at least 1/2.
    """
    _check_prob("p", p)
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    out = p**2 / (p**2 + q**2)
    return float(out) if out.ndim == 0 else out


def gt_points_moments(p):
    """(mean, variance) of the number of points in the game tie-breaker.

    The point count is 2 Ge(p^2+q^2): mean 2/(p^2+q^2), variance 8pq/(p^2+q^2)^2.
    """
    _check_prob("p", p)
    p = np.asarray(p, dtype=float)
    eta = p**2 + (1.0 - p) ** 2
    g_mean, g_var = geometric_moments(eta)
    mean, var = 2.0 * g_mean, 4.0 * g_var
    if np.asarray(mean).ndim == 0:
        return float(mean), float(var)
    return mean, var


def game_win_prob(p):
    """Server's probability of winning the game.

    Sums the direct finishes 4-0, 4-1, 4-2 and the deuce entry weighted by the
    tie-breaker win probability:

        p^4 + 4 p^4 q + 10 p^4 q^2 + 20 p^3 q^3 * gt_win_prob(p)

    Rounding can carry the sum one ulp past 1 (p near 1), so it is clipped
    there; small values are never touched.
    """
    _check_prob("p", p)
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    out = p**4 * (1.0 + 4.0 * q + 10.0 * q**2) + _DEUCE_WAYS * p**3 * q**3 * gt_win_prob(p)
    out = np.minimum(out, 1.0)
    return float(out) if out.ndim == 0 else out


def game_points_moments(p):
    """(mean, variance) of the number of points in a game.

    Conditioning on the final score: finishes at n = 4+h (h = 0,1,2) are
    degenerate in length, the deuce branch lasts 6 + 2 Ge(p^2+q^2) points.
    Mean and variance combine by the laws of total expectation and variance.
    """
    _check_prob("p", p)
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    tie_prob = _DEUCE_WAYS * p**3 * q**3
    tie_mean, tie_var = gt_points_moments(p)
    tie_mean = tie_mean + 6.0
    mean = tie_prob * tie_mean
    second = tie_prob * tie_mean**2
    for h, ways in _SCORE_WAYS.items():
        prob = ways * (p**4 * q**h + q**4 * p**h)
        mean = mean + (4 + h) * prob
        second = second + (4 + h) ** 2 * prob
    var = second - mean**2 + tie_prob * tie_var
    if np.asarray(mean).ndim == 0:
        return float(mean), float(var)
    return mean, var


def game_points_pmf(p: float, n_max: int = 400) -> PointCountDistribution:
    """PMF of the number of points in a game, truncated at ``n_max``.

    Mass sits on 4, 5, 6 and the even numbers >= 8; n = 7 and all odd n > 6
    are impossible.  The residual beyond ``n_max`` is the exact geometric tail
    of the deuce branch, reported as ``truncation_mass``.  The attached
    mean/variance are the closed forms, not truncated sums.
    """
    p = float(_check_prob("p", p))
    n_max = _check_count("n_max", n_max, minimum=6)
    q = 1.0 - p
    eta = p**2 + q**2
    tie_prob = _DEUCE_WAYS * p**3 * q**3
    support = []
    for h, ways in _SCORE_WAYS.items():
        support.append((4 + h, ways * (p**4 * q**h + q**4 * p**h)))
    pairs = (n_max - 6) // 2
    for m in range(1, pairs + 1):
        support.append((6 + 2 * m, tie_prob * (2.0 * p * q) ** (m - 1) * eta))
    residual = tie_prob * (2.0 * p * q) ** pairs
    mean, var = game_points_moments(p)
    return PointCountDistribution(
        support=tuple(support), truncation_mass=residual, mean=mean, variance=var
    )


def game_breakdown(p: float) -> ScoreBreakdown:
    """Per-final-score summary of a game: who wins, how long it lasts.

    Rows 4-0, 4-1, 4-2 and the deuce row TB; the overall line carries the game
    win probability and the unconditional point-count moments.
    """
    p = float(_check_prob("p", p))
    q = 1.0 - p
    rows = []
    for h, ways in _SCORE_WAYS.items():
        rows.append(
            BreakdownRow(
                score=f"4-{h}",
                loser_score=h,
                p_first_wins=ways * p**4 * q**h,
                p_second_wins=ways * q**4 * p**h,
                cond_mean=float(4 + h),
                cond_var=0.0,
            )
        )
    tie_prob = _DEUCE_WAYS * p**3 * q**3
    theta_gt = gt_win_prob(p)
    tie_mean, tie_var = gt_points_moments(p)
    rows.append(
        BreakdownRow(
            score="TB",
            loser_score=None,
            p_first_wins=tie_prob * theta_gt,
            p_second_wins=tie_prob * (1.0 - theta_gt),
            cond_mean=6.0 + tie_mean,
            cond_var=tie_var,
        )
    )
    mean, var = game_points_moments(p)
    return ScoreBreakdown(
        rows=tuple(rows),
        win_prob=game_win_prob(p),
        mean=mean,
        variance=var,
        label="game",
    )
