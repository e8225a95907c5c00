"""Single-server subsystem: the game and its deuce tie-breaker.

One player serves every point with point-win probability ``p``.  A game is
first to four points with a two-point margin; at 3-3 ("deuce", the game
tie-breaker GT) play continues in pairs of points until one player leads by
two.  The pair structure makes the GT duration twice a geometric variable
with success probability p^2 + q^2.

The GT is core's pair race (:class:`~deuce.core._PairRace`), formed in
one place, ``_deuce``: the server sweeps a pair with p^2 and the receiver
with q^2.  The final scores 4-0, 4-1, 4-2 and deuce are closed-form rows,
the GT stacked on deuce, for core's moments, breakdown and PMF.  The game
win, the innermost call of every set and match, sums the same orderings
(``_SCORE_WAYS``, ``_DEUCE_WAYS``) in closed form, without building rows,
and settles deuce by the rule every race's win follows
(:func:`~deuce.core._clipped_win`).
Each public function checks ``p`` and calls an unchecked evaluator
(``_deuce``, ``_game_win``, ``_game_moments``, ``_game_pmf``), which the
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
    _clipped_win,
    _Laws,
    _mixture_moments,
    _PairRace,
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
    return _deuce(_check_prob("p", p)).win()


def _deuce(p) -> _PairRace:
    """The GT of a valid ``p``: the server sweeps a pair of points with p^2
    and the receiver with q^2, so a pair decides with p^2 + q^2 >= 1/2 and
    the race always terminates."""
    p = np.asarray(p, dtype=float)
    return _PairRace(p**2, (1.0 - p) ** 2)


def gt_points_moments(p):
    """(mean, variance) of the number of points in the game tie-breaker.

    The point count is 2 Ge(p^2+q^2): mean 2/(p^2+q^2), variance 8pq/(p^2+q^2)^2.
    """
    mean, var = _deuce(_check_prob("p", p)).length()
    return _scalar_or_array(mean), _scalar_or_array(var)


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
    """:func:`game_win_prob` for a valid ``p``: the server's outright
    masses, p^4 times each score's orderings and q^h, plus deuce times
    the GT win, clipped at 1 (:func:`~deuce.core._clipped_win`)."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    head = p**4 * sum(ways * q**h for h, ways in _SCORE_WAYS.items())
    return _clipped_win(head, _DEUCE_WAYS * p**3 * q**3, _deuce(p).win())


def _game_rows(p, deuce: _PairRace):
    """(rows, laws) of a game's final scores, the GT being ``deuce``.

    4-0, 4-1 and 4-2 are closed forms with C(3+h, 3) orderings, split
    between server and receiver, and pin the count at 4+h points.  The
    last row, deuce (3-3), whose mass is C(6, 3) p^3 q^3, stacks the GT's
    point count on its six points; a breakdown shows it as "TB", split by
    the server's GT win and the receiver's, so neither share is a
    complement.
    """
    q = 1.0 - p
    rows = []
    for h, ways in _SCORE_WAYS.items():
        a, b = ways * p**4 * q**h, ways * q**4 * p**h
        rows.append(_ScoreRow(a + b, 4 + h, False, f"4-{h}", h, (a, b)))
    tie = _DEUCE_WAYS * p**3 * q**3
    shares = lambda: (tie * deuce.win(), tie * _PairRace(deuce.b, deuce.a).win())
    rows.append(_ScoreRow(tie, 6, True, "TB", None, shares))
    return rows, _Laws(stacked=deuce.length())


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
    mean, var = _mixture_moments(*_game_rows(p, _deuce(p)))
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
    deuce = _deuce(p)
    # a deuce pair goes on with 2pq, which 1 - p^2 - q^2 would cancel
    return _race_tie_law(*_game_rows(p, deuce), deuce, 2.0 * p * (1.0 - p), n_max)


def game_breakdown(p: float) -> ScoreBreakdown:
    """Per-final-score summary of a game: who wins, how long it lasts.

    Rows 4-0, 4-1, 4-2 and the deuce row TB; the overall line carries the game
    win probability and the unconditional point-count moments.
    """
    p = float(_check_prob("p", p))
    return _breakdown("game", *_game_rows(p, _deuce(p)), _game_win(p))
