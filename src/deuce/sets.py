"""Alternating-server subsystem: set tie-breaker, its tie-breaker, and the set.

Each layer is a race to a target, settled at n-1 all by a rule of its own.
``_SplitPowers.race`` reads each player's final-score masses from that
player's per-unit tables, and a layer passes only how the race's opener
serves:

* STT: at (K-1, K-1) points the set tie-breaker continues in pairs of points
  (one serve each) until someone sweeps a pair; the pair count is geometric
  with success probability pA*qB + qA*pB.
* ST: first to K points, serve rotation ABBAABB... (units served by the
  opener: ``serves_by_first_server``); at K-1 all the STT decides.
* Set: first to six games, games alternating servers
  (``games_served_by_first_server``); at five games all, games 11 and 12
  give 7-5 or 6-6, and at 6-6 the ST decides.

Moments, breakdowns and PMFs weight the final scores by the Theorem of
Total Probability.  ``_race_rows`` gives both players' final scores as
:class:`~deuce.core._ScoreRow`s; the ST appends its STT row and the set its
7-5 and 7-6 rows.  Each layer states its per-unit laws once
(:class:`~deuce.core._Laws`), from a serve rule its race reads too
(``_ST_UNITS``, ``_GAME_UNITS``): the ST's units are points with the STT
stacked on K-1 all, and the set's are A's and B's games with the ST
stacked on 7-6.  Within an ST all score durations are fixed or
winner-independent, so its moments are exact; at set level a game's length
is treated as exchangeable with its winner, which is the usual
summary-decomposition convention (the exact-process variance differs in the
third significant figure — see the tests for a quantified comparison).

Exact sums stay within the float range up to about 515 trials of one kind
(see :class:`~deuce.core._SplitPowers`).
"""

from __future__ import annotations

import numpy as np

from .core import (
    NonTerminatingError,
    PointCountDistribution,
    ScoreBreakdown,
    _abba_serves,
    _alternate_serves,
    _breakdown,
    _check_count,
    _check_prob,
    _clipped_win,
    _compose_length_law,
    _Laws,
    _mixture_moments,
    _pmf_law,
    _race_rows,
    _race_tie_law,
    _scalar_or_array,
    _ScoreRow,
    _SplitPowers,
    binomial_convolution_mass,  # noqa: F401  (re-exported: importable from here as before)
    geometric_moments,
)
from .game import game_points_moments, game_points_pmf, game_win_prob

__all__ = [
    "stt_win_prob",
    "stt_points_distribution",
    "st_win_prob",
    "st_points_distribution",
    "st_breakdown",
    "set_win_prob",
    "set_points_moments",
    "set_points_distribution",
    "set_breakdown",
]

_SET_TARGET = 6  # games needed to win a set outright (margin two, else 7-5 / 6-6)

_ST_UNITS = _Laws(opener_units=_abba_serves)
_GAME_UNITS = _Laws(opener_units=_alternate_serves)


def _decisive_pair_prob(pa, pb):
    """pA*qB + qA*pB: the per-pair resolution probability of the STT race."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    return pa * (1.0 - pb) + (1.0 - pa) * pb


def _require_terminating(pa, pb, reach=1.0) -> None:
    """Reject the degenerate pairs (0,0) and (1,1) where the STT is reached.

    For those the STT continues forever: every pair of points splits 1-1 with
    probability one.  ``reach`` is the mass reaching the tie-breaker, which
    broadcasts with the pairs; a pair fails only where it is positive.
    """
    if np.any((np.asarray(reach) > 0.0) & (_decisive_pair_prob(pa, pb) == 0.0)):
        raise NonTerminatingError(
            "non-terminating tie-breaker: pA and pB both 0 or both 1 make every "
            "point pair split 1-1, so the two-point-advantage race never resolves"
        )


def stt_win_prob(pa, pb):
    """First player's probability of winning the set tie-breaker's tie-breaker.

    Pairs of points (one serve each) repeat until one player sweeps a pair;
    A sweeps with pA*qB, B with qA*pB, so conditioning on the decisive pair:

        theta = pA*qB / (pA*qB + qA*pB)

    which is ODDS(pA)/ (ODDS(pA) + ODDS(pB)) territory: only the odds ratio
    matters, and the serving order within pairs does not.
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    _require_terminating(pa, pb)
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    out = pa * (1.0 - pb) / _decisive_pair_prob(pa, pb)
    return float(out) if out.ndim == 0 else out


def stt_points_distribution(pa: float, pb: float, n_max: int = 2000) -> PointCountDistribution:
    """PMF of the number of points in the STT, truncated at ``n_max``.

    The point count is twice a geometric variable with success probability
    pA*qB + qA*pB; mass sits on the even integers.
    """
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    n_max = _check_count("n_max", n_max, minimum=2)
    _require_terminating(pa, pb)
    eta = pa * (1.0 - pb) + (1.0 - pa) * pb
    g_mean, g_var = geometric_moments(eta)
    laws = _Laws(stacked=(2.0 * g_mean, 4.0 * g_var))
    return _race_tie_law([_ScoreRow(1.0, 0, True)], laws, eta, 1.0 - eta, n_max)


def _st_split(pa, pb, k: int) -> _SplitPowers:
    """A's per-point tables for a K-point set tie-breaker; B's are ``.swapped()``.

    A wins a point on A's serve with pA and on B's serve with 1 - pB, and
    loses it with 1 - pA and pB.  No score before the tie reads more than
    K-1 points of either serve, so the tables stop there.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    return _SplitPowers(k - 1, pa, 1.0 - pa, 1.0 - pb, pb)


def st_win_prob(pa, pb, k: int):
    """First player's probability of winning a K-point set tie-breaker.

    Sums the direct final scores (K, h) for h = 0..K-2 and the (K-1, K-1) tie
    weighted by the STT, whose outcome does not depend on who serves first
    in its pairs:

        sum_h theta(K,h) + theta(K-1,K-1) * theta_STT

    Raises the non-terminating error only when the tie is actually reachable,
    i.e. for the degenerate pairs (0,0) and (1,1) — those walk to the tie with
    probability one.
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    k = _check_count("k", k, minimum=2)
    wins, tie = _st_split(pa, pb, k).race(k, _ST_UNITS.opener_units)
    _require_terminating(pa, pb, tie)
    return _scalar_or_array(sum(wins) + tie * stt_win_prob(pa, pb))


def _st_rows(pa, pb, k: int):
    """(scores, rows, laws) of a K-point set tie-breaker's final scores.

    ``scores`` lists K-0 .. K-(K-2) as (score, loser's points, A's mass,
    B's mass) (see :func:`~deuce.core._race_rows`).  Scores K-h and h-K pin
    the count at K+h points; the last row, K-1 all, whose mass is the tie,
    stacks the STT's twice-geometric pair count on its 2(K-1) points.
    """
    scores, tie, rows = _race_rows(_st_split(pa, pb, k), k, _ST_UNITS)
    _require_terminating(pa, pb, tie)
    rows.append(_ScoreRow(tie, 2 * k - 2, True))
    eta = _decisive_pair_prob(pa, pb)
    g_mean, g_var = geometric_moments(np.where(eta == 0.0, 1.0, eta))
    return scores, rows, _ST_UNITS._replace(stacked=(2.0 * g_mean, 4.0 * g_var))


def st_points_moments(pa, pb, k: int):
    """Exact (mean, variance) of the number of points in a K-point set tie-breaker.

    Every non-tie score pins the count, so only the tie's geometric variance
    and the spread of the score means contribute (:func:`_mixture_moments`).
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    k = _check_count("k", k, minimum=2)
    mean, var = _mixture_moments(*_st_rows(pa, pb, k)[1:])
    return _scalar_or_array(mean), _scalar_or_array(var)


def _st_law(pa: float, pb: float, n_max: int, rows, laws) -> PointCountDistribution:
    """The ST point-count law from :func:`_st_rows`, any ``n_max``."""
    eta = pa * (1.0 - pb) + (1.0 - pa) * pb
    return _race_tie_law(rows, laws, eta, 1.0 - eta, n_max)


def st_points_distribution(pa: float, pb: float, k: int, n_max: int = 2000) -> PointCountDistribution:
    """PMF of the ST point count, truncated at ``n_max``.

    Mass at n in [K, 2K-2] comes from the direct scores (K, n-K) and (n-K, K);
    mass at even n >= 2K is the tie probability times the geometric STT
    landing on pair (n - 2K + 2)/2.
    """
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    k = _check_count("k", k, minimum=2)
    n_max = _check_count("n_max", n_max, minimum=2 * k - 2)
    return _st_law(pa, pb, n_max, *_st_rows(pa, pb, k)[1:])


def st_breakdown(pa: float, pb: float, k: int) -> ScoreBreakdown:
    """Per-final-score summary of a K-point set tie-breaker."""
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    k = _check_count("k", k, minimum=2)
    scores, rows, laws = _st_rows(pa, pb, k)
    tie = rows[-1].mass
    theta_stt = stt_win_prob(pa, pb)
    win = sum(first for _, _, first, _ in scores) + tie * theta_stt
    if tie > 0.0:
        scores.append(("TB", None, tie * theta_stt, tie * stt_win_prob(pb, pa)))
    return _breakdown("st", scores, rows, laws, win)


def _game_split(pa, pb, n: int = _SET_TARGET - 1) -> _SplitPowers:
    """A's per-game tables: game wins and losses in A-served (odd) and
    B-served (even) games; B's are ``.swapped()``.

    Each of the four is a game won by its own server.  A loses an A-served
    game as B receiving, i.e. as a server with 1 - pA would win it, and wins
    a B-served game as a server with 1 - pB would.  Scoring is the same for
    either player, so this direct route keeps full relative accuracy where
    1 - game_win_prob(.) would cancel (a serve probability near 1).

    No set score reads more than five games of either serve, so the set's
    tables stop there; best-of-games races pass their own ``n``.
    """
    return _SplitPowers(n, game_win_prob(pa), game_win_prob(np.subtract(1.0, pa)),
                        game_win_prob(np.subtract(1.0, pb)), game_win_prob(pb))


def _reach_66(pa, pb, split: _SplitPowers, reach_55):
    """The mass reaching 6-6: 5-5, then games 11 and 12 split one each."""
    p66 = reach_55 * (split.win1 * split.loss2 + split.loss1 * split.win2)
    _require_terminating(pa, pb, p66)
    return p66


def _set_head(pa, pb, split: _SplitPowers):
    """(A's summed mass on 6-0 .. 6-4 and 7-5, the mass reaching 6-6).

    ``split`` holds A's per-game tables (see :func:`_game_split`).  None of
    this depends on the tie-breaker target, so a match evaluates it once for
    both of its targets.
    """
    wins, reach_55 = split.race(_SET_TARGET, _GAME_UNITS.opener_units)
    return sum(wins) + reach_55 * split.win1 * split.win2, _reach_66(pa, pb, split, reach_55)


def set_win_prob(pa, pb, k: int):
    """First player's probability of winning a set with a K-point tie-breaker.

    Direct scores 6-h (h = 0..4), the 7-5 finish after five games all, and the
    6-6 tie resolved by the ST:

        sum_h theta(6,h) + theta(7,5) + theta(6,6) * st_win_prob(pa, pb, k)

    Rounding can carry the sum one ulp past 1, so it is clipped there; small
    values are never touched.
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    k = _check_count("k", k, minimum=2)
    head, p66 = _set_head(pa, pb, _game_split(pa, pb))
    return _clipped_win(head, p66, st_win_prob(pa, pb, k))


def _set_rows(pa, pb, split: _SplitPowers):
    """(scores, rows) of a set's final scores.

    ``split`` holds A's per-game tables.  ``scores`` lists 6-0 .. 6-4 and
    7-5 as (score, loser's games, A's mass, B's mass); ``rows`` merges both
    winners for those and adds 7-6, twelve games with the ST stacked.  A
    score with g games plays g alternating-server games.  None of this
    depends on the tie-breaker target, which only the laws carry
    (:func:`_games_laws`).
    """
    scores, reach_55, rows = _race_rows(split, _SET_TARGET, _GAME_UNITS)
    p66 = _reach_66(pa, pb, split, reach_55)
    scores.append(("7-5", 5, reach_55 * split.win1 * split.win2,
                   reach_55 * split.loss1 * split.loss2))
    p75 = reach_55 * (split.win1 * split.win2 + split.loss1 * split.loss2)
    rows += [_ScoreRow(p75, 12, False), _ScoreRow(p66, 12, True)]
    return scores, rows


def _games_laws(game_a, game_b, stacked) -> _Laws:
    """Laws of a race of alternating games: A's games, B's, and the tie row's stacked law."""
    return _GAME_UNITS._replace(opener=game_a, other=game_b, stacked=stacked)


def set_points_moments(pa, pb, k: int):
    """(mean, variance) of the number of points in a set.

    Conditions on the final set score: a score with g games contributes the
    g-game serve-split moments; the 6-6 branch adds the ST moments on top of
    its twelve games.  Combination is by the iterated expectation/variance
    rules over the score distribution.
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    k = _check_count("k", k, minimum=2)
    laws = _games_laws(game_points_moments(pa), game_points_moments(pb),
                       _mixture_moments(*_st_rows(pa, pb, k)[1:]))
    mean, var = _mixture_moments(_set_rows(pa, pb, _game_split(pa, pb))[1], laws)
    return _scalar_or_array(mean), _scalar_or_array(var)


def set_breakdown(pa: float, pb: float, k: int) -> ScoreBreakdown:
    """Per-final-score summary of a set: 6-0 .. 6-4, 7-5, and the 7-6 tie.

    The 7-6 row's conditional moments stack the ST on the twelve games that
    precede it; its probability splits between the players by each one's
    own ST win probability, so the underdog's share is never a complement.
    """
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    k = _check_count("k", k, minimum=2)
    scores, rows = _set_rows(pa, pb, _game_split(pa, pb))
    st_scores, st_rows, st_laws = _st_rows(pa, pb, k)
    tie, p66 = st_rows[-1].mass, rows[-1].mass
    theta_st = sum(first for _, _, first, _ in st_scores) + tie * stt_win_prob(pa, pb)
    win = _clipped_win(sum(first for _, _, first, _ in scores), p66, theta_st)
    if p66 > 0.0:  # the 7-6 row only when reachable
        theta_b = sum(second for _, _, _, second in st_scores) + tie * stt_win_prob(pb, pa)
        scores.append(("7-6", 6, p66 * theta_st, p66 * theta_b))
    laws = _games_laws(game_points_moments(pa), game_points_moments(pb),
                       _mixture_moments(st_rows, st_laws))
    return _breakdown("set", scores, rows, laws, win)


def set_points_distribution(pa: float, pb: float, k: int, n_max: int = 2000) -> PointCountDistribution:
    """PMF of the number of points played in a set, truncated at ``n_max``.

    The law mirrors the moment decomposition: condition on the final game
    score, then convolve the per-server game-length marginals over the fixed
    serve split (A serves the odd games), appending the tie-break length on
    the 7-6 row.  Its truncated moments therefore reproduce ``mean`` and
    ``variance`` exactly up to tail mass.

    Composition is exact and direct, and skips only mass that is zero:
    ``support`` omits the entries whose mass underflows to 0 (typically past
    2-3k points), and each convolution stops there.  An FFT would be faster
    per product but adds round-off of about 1e-17 absolute to every entry,
    which would wipe out the relative accuracy of the small masses.
    """
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    k = _check_count("k", k, minimum=2)
    n_max = _check_count("n_max", n_max, minimum=2)
    laws = _games_laws(_pmf_law(game_points_pmf(pa)), _pmf_law(game_points_pmf(pb)),
                       _pmf_law(_st_law(pa, pb, n_max, *_st_rows(pa, pb, k)[1:])))
    return _compose_length_law(_set_rows(pa, pb, _game_split(pa, pb))[1], laws, n_max)
