"""Single-server subsystem: the game and its deuce tie-breaker.

One player serves every point with point-win probability ``p``.  A game is
first to four points with a two-point margin; at 3-3 ("deuce", the game
tie-breaker GT) play continues in pairs of points until one player leads by
two.  The pair structure makes the GT duration twice a geometric variable
with success probability p^2 + q^2.

The final scores 4-0, 4-1, 4-2 and deuce are closed-form rows, the GT
stacked on deuce, for core's moments, breakdown and PMF; the game win,
the innermost call of every set and match, keeps its own closed form.
Each public function checks ``p`` and calls an unchecked evaluator
(``_gt_win``, ``_game_win``, ``_game_moments``, ``_game_pmf``), which the
set, match and best-of layers call directly.
"""

from __future__ import annotations

import numpy as np

from .core import (
    PointCountDistribution,
    ScoreBreakdown,
    _breakdown,
    _check_count,
    _check_prob,
    _Laws,
    _mixture_moments,
    _race_tie_law,
    _scalar_or_array,
    _ScoreRow,
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
    return _gt_win(_check_prob("p", p))


def _gt_win(p):
    """:func:`gt_win_prob` for a valid ``p``."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    return _scalar_or_array(p**2 / (p**2 + q**2))


def gt_points_moments(p):
    """(mean, variance) of the number of points in the game tie-breaker.

    The point count is 2 Ge(p^2+q^2): mean 2/(p^2+q^2), variance 8pq/(p^2+q^2)^2.
    """
    mean, var = _gt_moments(np.asarray(_check_prob("p", p), dtype=float))
    return _scalar_or_array(mean), _scalar_or_array(var)


def _gt_moments(p):
    """:func:`gt_points_moments` for a valid ``p``: a pair decides with
    p^2 + q^2 >= 1/2, so the geometric count always terminates."""
    eta = p * p + (1.0 - p) ** 2
    return 2.0 / eta, 4.0 * ((1.0 - eta) / (eta * eta))


def game_win_prob(p):
    """Server's probability of winning the game.

    Sums the direct finishes 4-0, 4-1, 4-2 and the deuce entry weighted by the
    tie-breaker win probability:

        p^4 + 4 p^4 q + 10 p^4 q^2 + 20 p^3 q^3 * gt_win_prob(p)

    Rounding can carry the sum one ulp past 1 (p near 1), so it is clipped
    there; small values are never touched.
    """
    return _game_win(_check_prob("p", p))


def _game_win(p):
    """:func:`game_win_prob` for a valid ``p``."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    out = p**4 * (1.0 + 4.0 * q + 10.0 * q**2) + _DEUCE_WAYS * p**3 * q**3 * _gt_win(p)
    return _scalar_or_array(np.minimum(out, 1.0))


def _game_rows(p):
    """(scores, rows, laws) of a game's final scores.

    ``scores`` lists 4-0, 4-1 and 4-2 as (receiver's points, server's
    mass, receiver's mass), closed forms with C(3+h, 3) orderings.  Their
    rows pin the count at 4+h points; the last row, deuce (3-3), whose mass
    is C(6, 3) p^3 q^3, stacks the GT's point count on its six points.
    """
    q = 1.0 - p
    scores = [(h, ways * p**4 * q**h, ways * q**4 * p**h) for h, ways in _SCORE_WAYS.items()]
    rows = [_ScoreRow(a + b, 4 + h, False) for h, a, b in scores]
    rows.append(_ScoreRow(_DEUCE_WAYS * p**3 * q**3, 6, True))
    return scores, rows, _Laws(stacked=_gt_moments(p))


def game_points_moments(p):
    """(mean, variance) of the number of points in a game.

    Conditioning on the final score: finishes at n = 4+h (h = 0,1,2) are
    degenerate in length, the deuce branch lasts 6 + 2 Ge(p^2+q^2) points.
    Mean and variance combine by the laws of total expectation and variance.
    """
    return _game_moments(_check_prob("p", p))


def _game_moments(p):
    """:func:`game_points_moments` for a valid ``p``."""
    p = _scalar_or_array(np.asarray(p, dtype=float))
    mean, var = _mixture_moments(*_game_rows(p)[1:])
    return _scalar_or_array(mean), _scalar_or_array(var)


def game_points_pmf(p: float, n_max: int = 400) -> PointCountDistribution:
    """PMF of the number of points in a game, truncated at ``n_max``.

    Mass sits on 4, 5, 6 and the even numbers >= 8; n = 7 and all odd n > 6
    are impossible.  The residual beyond ``n_max`` is the exact geometric tail
    of the deuce branch, reported as ``truncation_mass``.  The attached
    mean/variance are the closed forms, not truncated sums.
    """
    p = float(_check_prob("p", p))
    return _game_pmf(p, _check_count("n_max", n_max, minimum=6))


def _game_pmf(p: float, n_max: int = 400) -> PointCountDistribution:
    """:func:`game_points_pmf` for a valid float ``p`` and ``n_max``."""
    q = 1.0 - p
    # a deuce pair ends the game with p^2 + q^2 and goes on with 2pq
    return _race_tie_law(*_game_rows(p)[1:], p**2 + q**2, 2.0 * p * q, n_max)


def game_breakdown(p: float) -> ScoreBreakdown:
    """Per-final-score summary of a game: who wins, how long it lasts.

    Rows 4-0, 4-1, 4-2 and the deuce row TB; the overall line carries the game
    win probability and the unconditional point-count moments.
    """
    p = float(_check_prob("p", p))
    scores, rows, laws = _game_rows(p)
    tie, theta = rows[-1].mass, _gt_win(p)  # deuce: the server's chance, the receiver's the rest
    shown = [(f"4-{h}", h, a, b) for h, a, b in scores]
    shown.append(("TB", None, tie * theta, tie * (1.0 - theta)))
    return _breakdown("game", shown, rows, laws, _game_win(p))
