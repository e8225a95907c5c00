"""Alternating-server subsystem: set tie-breaker, its tie-breaker, and the set.

Each layer is a race to a target, settled at n-1 all by a rule of its own.
``_SplitPowers.race`` reads each player's final-score masses from that
player's per-unit tables, and a layer passes only how the race's opener
serves:

* STT: at (K-1, K-1) points the set tie-breaker continues in pairs of points
  (one serve each) until someone sweeps a pair: core's pair race
  (:class:`~deuce.core._PairRace`), in which A sweeps with pA*qB and B with
  qA*pB.
* ST: first to K points, serve rotation ABBAABB... (units served by the
  opener: ``serves_by_first_server``); at K-1 all the STT decides.
* Set: first to six games, games alternating servers
  (``games_served_by_first_server``); at five games all, games 11 and 12
  give 7-5 or 6-6, and at 6-6 the ST decides.

Every layer's win follows one rule, the Theorem of Total Probability,
written once in core (``_Race.win``, ``_clipped_win``): the outright
masses plus the tie times the chance in the tie, clipped at 1.  Each layer
states next to its race only what settles its tie.  A player's ST win takes
K-1 all at that player's STT win (``_st``), and A's set win takes A's
outright masses, 7-5 included, and 6-6 at A's ST win (``_sets``).  The
win probabilities, the breakdowns' win lines and tie rows, and the match's
per-set odds read these two.  ``_sets`` is the one set evaluation, for the
set's win, moments, breakdown and PMF and for the match: one race of the
set's games serves every tie-breaker target asked for, with the set's rows
and laws when they are asked for too.  A win path runs A's races only;
B's are raced when rows are first read (:class:`~deuce.core._Race`).

Moments, breakdowns and PMFs weight the final scores the same way.  A
``_Race`` gives both players' final scores as
:class:`~deuce.core._ScoreRow`s; the ST appends its STT row and the set its
7-5 and 7-6 rows.  A row also says how a breakdown shows it, so a layer's
breakdown is its rows: a tie row splits its mass by each player's chance
in the tie only when a breakdown asks, and the ST's "TB" and the set's
"7-6" are shown only where the tie is reachable.  Each layer states its
per-unit laws once (:class:`~deuce.core._Laws`), from a serve rule its
race reads too (``_ST_UNITS``, ``_GAME_UNITS``): the ST's units are points
with the STT stacked on K-1 all, and the set's are A's and B's games with
the ST stacked on 7-6.  Within an ST all score durations are fixed or
winner-independent, so its moments are exact; at set level a game's length
is treated as exchangeable with its winner, which is the usual
summary-decomposition convention (the exact-process variance differs in the
third significant figure — see the tests for a quantified comparison).

Each ST evaluation, ``_st``, forms its race and its STT once, and carries
the STT into its rows, its laws and both players' wins.  ``_stt``, which
forms the STT, is also where termination is decided, for the STT and for
the best-of-games advantage races, which it forms too: where a pair of
units never decides, both players winning or both losing every unit they
serve, it raises
:class:`~deuce.core.NonTerminatingError`.  Such a pair reaches every tie
that the race settles with probability one, so no reachable-mass test is
needed.

Exact sums stay within the float range up to about 515 trials of one kind
(see :class:`~deuce.core._SplitPowers`).

Public functions validate their arguments once and call the unchecked
evaluators (``_stt``, ``_st``, ``_sets`` and the rest), which the
match and best-of layers call too; none of those checks anything but
termination.
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
    _check_pair,
    _clipped_win,
    _compose_length_law,
    _Laws,
    _MINIMUM,
    _mixture_moments,
    _PairRace,
    _pmf_law,
    _Race,
    _race_tie_law,
    _scalar_or_array,
    _ScoreRow,
    _SplitPowers,
    binomial_convolution_mass,  # noqa: F401  (re-exported: importable from here as before)
)
from .game import _game_moments, _game_pmf, _game_win

__all__ = [
    "stt_win_prob",
    "stt_points_distribution",
    "st_win_prob",
    "st_points_moments",
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


def _stt(pa, pb) -> _PairRace:
    """The two-unit-advantage race over pairs of units, one served by each
    player, who hold serve with ``pa`` and ``pb``: A sweeps a pair with
    pA*qB and B with qA*pB.  This is the STT over points, and the
    best-of-games STTG over service games.

    This is the one termination check: where pA*qB + qA*pB is 0, at (0,0)
    and (1,1), every pair splits 1-1 and the race never ends, so this
    raises there.  Those pairs reach every tie such a race settles (K-1
    all, 6-6, l-l) with probability one, so no tie of mass 0 is rejected.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    race = _PairRace(pa * (1.0 - pb), (1.0 - pa) * pb)
    if np.any(race.a + race.b == 0.0):
        raise NonTerminatingError(
            "non-terminating tie-breaker: pA and pB both 0 or both 1 make every "
            "point pair split 1-1, so the two-point-advantage race never resolves"
        )
    return race


def stt_win_prob(pa, pb):
    """First player's probability of winning the set tie-breaker's tie-breaker.

    Pairs of points (one serve each) repeat until one player sweeps a pair;
    A sweeps with pA*qB, B with qA*pB, so conditioning on the decisive pair:

        theta = pA*qB / (pA*qB + qA*pB)

    which is ODDS(pA)/ (ODDS(pA) + ODDS(pB)) territory: only the odds ratio
    matters, and the serving order within pairs does not.
    """
    return _stt(*_check_pair(pa, pb)).win()


def stt_points_distribution(pa: float, pb: float, n_max: int = 2000) -> PointCountDistribution:
    """PMF of the number of points in the STT, truncated at ``n_max``.

    The point count is twice a geometric variable with success probability
    pA*qB + qA*pB; mass sits on the even integers.
    """
    pa, pb = _check_pair(pa, pb, float)
    n_max = _check_count("n_max", n_max, minimum=2)
    stt = _stt(pa, pb)
    return _stt_law([_ScoreRow(1.0, 0, True)], _Laws(stacked=stt.length()), stt, n_max)


def _stt_law(rows, laws: _Laws, stt: _PairRace, n_max: int) -> PointCountDistribution:
    """The point-count law of a race whose tie ``stt`` settles, the STT alone
    or the ST (:func:`_st_rows`), at any ``n_max``: a pair goes on with
    1 - pA*qB - qA*pB."""
    return _race_tie_law(rows, laws, stt, 1.0 - (stt.a + stt.b), n_max)


def _st(pa, pb, k: int) -> tuple:
    """(race, stt): the one evaluation of a K-point set tie-breaker, its
    race and the STT that settles K-1 all.

    The race reads A's per-point tables; B's are ``.swapped()``.  A wins a
    point on A's serve with pA and on B's serve with 1 - pB, and loses it
    with 1 - pA and pB.  No score before the tie reads more than K-1
    points of either serve, so the tables stop there.

    A player's ST win is the race's win (:meth:`~deuce.core._Race.win`) at
    that player's STT win, whose outcome does not depend on who serves
    first in its pairs: A's is ``race.win(stt.win())``, and B's reads the
    race's ``losses`` and the STT swapped, ``_PairRace(stt.b, stt.a)``.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    return _Race(_SplitPowers(k - 1, pa, 1.0 - pa, 1.0 - pb, pb), k, _ST_UNITS), _stt(pa, pb)


def st_win_prob(pa, pb, k: int):
    """First player's probability of winning a K-point set tie-breaker.

    Sums the direct final scores (K, h) for h = 0..K-2 and the (K-1, K-1) tie
    weighted by the STT:

        sum_h theta(K,h) + theta(K-1,K-1) * theta_STT

    Rounding can carry the sum one ulp past 1, so it is clipped there.
    Raises the non-terminating error for the degenerate pairs (0,0) and
    (1,1), which walk to the tie with probability one.
    """
    _check_pair(pa, pb)
    race, stt = _st(pa, pb, _check_count("k", k, minimum=_MINIMUM["k"]))
    return race.win(stt.win())


def _st_rows(race: _Race, stt: _PairRace):
    """(rows, laws) of a K-point set tie-breaker's final scores, from its race
    and its STT.

    Scores K-h and h-K pin the count at K+h points; the last row, K-1 all,
    whose mass is the tie, stacks the STT's twice-geometric pair count on
    its 2(K-1) points.  A breakdown shows it as "TB", split by each
    player's STT win, and only where the tie is reachable.
    """
    tie = race.tie
    shares = lambda: (tie * stt.win(), tie * _PairRace(stt.b, stt.a).win()) if tie > 0.0 else None
    rows = race.rows() + [_ScoreRow(tie, 2 * race.n - 2, True, "TB", None, shares)]
    return rows, _ST_UNITS._replace(stacked=stt.length())


def st_points_moments(pa, pb, k: int):
    """Exact (mean, variance) of the number of points in a K-point set tie-breaker.

    Every non-tie score pins the count, so only the tie's geometric variance
    and the spread of the score means contribute (:func:`_mixture_moments`).
    """
    _check_pair(pa, pb)
    k = _check_count("k", k, minimum=_MINIMUM["k"])
    mean, var = _mixture_moments(*_st_rows(*_st(pa, pb, k)))
    return _scalar_or_array(mean), _scalar_or_array(var)


def st_points_distribution(pa: float, pb: float, k: int, n_max: int = 2000) -> PointCountDistribution:
    """PMF of the ST point count, truncated at ``n_max``.

    Mass at n in [K, 2K-2] comes from the direct scores (K, n-K) and (n-K, K);
    mass at even n >= 2K is the tie probability times the geometric STT
    landing on pair (n - 2K + 2)/2.
    """
    pa, pb = _check_pair(pa, pb, float)
    k = _check_count("k", k, minimum=_MINIMUM["k"])
    n_max = _check_count("n_max", n_max, minimum=2 * k - 2)
    race, stt = _st(pa, pb, k)
    return _stt_law(*_st_rows(race, stt), stt, n_max)


def st_breakdown(pa: float, pb: float, k: int) -> ScoreBreakdown:
    """Per-final-score summary of a K-point set tie-breaker."""
    pa, pb = _check_pair(pa, pb, float)
    k = _check_count("k", k, minimum=_MINIMUM["k"])
    race, stt = _st(pa, pb, k)
    return _breakdown("st", *_st_rows(race, stt), race.win(stt.win()))


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
    return _SplitPowers(n, _game_win(pa), _game_win(np.subtract(1.0, pa)),
                        _game_win(np.subtract(1.0, pb)), _game_win(pb))


def _set_games(pa, pb):
    """(race, a75, p66): the set's race to six games from A's per-game
    tables (:func:`_game_split`), A's mass on 7-5 (5-5, then A takes games
    11 and 12), and the mass reaching 6-6 (5-5, then they split).

    None of this depends on the tie-breaker target, so a match evaluates it
    once for both of its targets.
    """
    race = _Race(_game_split(pa, pb), _SET_TARGET, _GAME_UNITS)
    split = race.split
    p66 = race.tie * (split.win1 * split.loss2 + split.loss1 * split.win2)
    return race, race.tie * split.win1 * split.win2, p66


def _set_rows(race: _Race, a75) -> list:
    """Both winners' rows of a set's final scores up to 7-5, from
    :func:`_set_games`: a score with g games plays g alternating-server
    games, 6-h from the race and 7-5 twelve.  None of this depends on the
    tie-breaker target; the 7-6 row (:func:`_set_tie_row`) and the laws
    (:func:`_games_laws`) do.
    """
    split = race.split
    p75 = race.tie * (split.win1 * split.win2 + split.loss1 * split.loss2)
    b75 = race.tie * split.loss1 * split.loss2
    return race.rows() + [_ScoreRow(p75, 12, False, "7-5", 5, (a75, b75))]


def _set_tie_row(p66, theta, theta_b) -> _ScoreRow:
    """The set's 7-6 row: twelve games with the ST stacked.  A breakdown
    splits 6-6 by A's ST win ``theta`` and B's, ``theta_b()``, and shows the
    row only where 6-6 is reachable."""
    shares = lambda: (p66 * theta, p66 * theta_b()) if p66 > 0.0 else None
    return _ScoreRow(p66, 12, True, "7-6", 6, shares)


def _games_laws(game_a, game_b, stacked) -> _Laws:
    """Laws of a race of alternating games: A's games, B's, and the tie row's stacked law."""
    return _GAME_UNITS._replace(opener=game_a, other=game_b, stacked=stacked)


def _st_tie(pa, pb, k: int, st_law=None):
    """A's chance in the set's 6-6 tie at target ``k``, A's ST win; with
    ``st_law``, followed by ``st_law(rows, laws, stt)``, the ST law stacked
    on 7-6, and a function giving B's ST win.  That function holds B's
    outright masses and the tie, not the race, whose tables would stay
    alive with it."""
    st, stt = _st(pa, pb, k)
    theta = st.win(stt.win())
    if st_law is None:
        return theta
    law = st_law(*_st_rows(st, stt), stt)
    losses, tie = st.losses, st.tie
    return theta, law, lambda: _clipped_win(sum(losses), tie, _PairRace(stt.b, stt.a).win())


def _sets(pa, pb, ks, game_law=None, st_law=lambda rows, laws, stt: _mixture_moments(rows, laws),
          set_law=_mixture_moments) -> list:
    """A's set win at each tie-breaker target in ``ks``, from one race of the
    set's games and one ST race per target: A's outright masses on
    6-0 .. 6-4 and 7-5, the same at every target, plus 6-6 times A's ST
    win there, clipped at 1 (:func:`~deuce.core._clipped_win`).

    With ``game_law`` each win comes paired with the set's law at its
    target: ``game_law(p)`` gives a player's game law, ``st_law(rows,
    laws, stt)`` the ST law stacked on 7-6 and ``set_law(rows, laws)`` the set
    law; moments by default, or PMF laws (:func:`_pmf_laws`).  A breakdown
    takes the set's rows and laws themselves.  Without ``game_law`` only A's
    races run, and no score rows are built.

    On a grid each set of power tables is a few MB.  Each ST is settled
    before the games build their tables, and those are freed before the
    laws are formed, so one set of tables is alive at a time and the heap
    reuses its memory instead of faulting fresh pages in on every call.
    """
    ties = [_st_tie(pa, pb, k, None if game_law is None else st_law) for k in ks]
    games, a75, p66 = _set_games(pa, pb)
    head = sum(games.wins) + a75
    if game_law is None:
        return [_clipped_win(head, p66, theta) for theta in ties]
    wins = [_clipped_win(head, p66, theta) for theta, *_ in ties]
    rows = _set_rows(games, a75)
    del games
    units = game_law(pa), game_law(pb)
    return [(win, set_law(rows + [_set_tie_row(p66, theta, theta_b)], _games_laws(*units, st)))
            for win, (theta, st, theta_b) in zip(wins, ties)]


def _pmf_laws(n_max: int) -> tuple:
    """The game and ST laws of :func:`_sets` as PMFs, the ST's cut at ``n_max``."""
    return (lambda p: _pmf_law(_game_pmf(p)),
            lambda rows, laws, stt: _pmf_law(_stt_law(rows, laws, stt, n_max)))


def set_win_prob(pa, pb, k: int):
    """First player's probability of winning a set with a K-point tie-breaker.

    Direct scores 6-h (h = 0..4), the 7-5 finish after five games all, and the
    6-6 tie resolved by the ST:

        sum_h theta(6,h) + theta(7,5) + theta(6,6) * st_win_prob(pa, pb, k)

    Rounding can carry the sum one ulp past 1, so it is clipped there; small
    values are never touched.
    """
    _check_pair(pa, pb)
    return _sets(pa, pb, (_check_count("k", k, minimum=_MINIMUM["k"]),))[0]


def set_points_moments(pa, pb, k: int):
    """(mean, variance) of the number of points in a set.

    Conditions on the final set score: a score with g games contributes the
    g-game serve-split moments; the 6-6 branch adds the ST moments on top of
    its twelve games.  Combination is by the iterated expectation/variance
    rules over the score distribution.
    """
    _check_pair(pa, pb)
    k = _check_count("k", k, minimum=_MINIMUM["k"])
    _, (mean, var) = _sets(pa, pb, (k,), _game_moments)[0]
    return _scalar_or_array(mean), _scalar_or_array(var)


def set_breakdown(pa: float, pb: float, k: int) -> ScoreBreakdown:
    """Per-final-score summary of a set: 6-0 .. 6-4, 7-5, and the 7-6 tie.

    The 7-6 row's conditional moments stack the ST on the twelve games that
    precede it; its probability splits between the players by each one's
    own ST win probability, so the underdog's share is never a complement.
    """
    pa, pb = _check_pair(pa, pb, float)
    k = _check_count("k", k, minimum=_MINIMUM["k"])
    win, (rows, laws) = _sets(pa, pb, (k,), _game_moments, set_law=lambda *table: table)[0]
    return _breakdown("set", rows, laws, win)


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
    pa, pb = _check_pair(pa, pb, float)
    k = _check_count("k", k, minimum=_MINIMUM["k"])
    n_max = _check_count("n_max", n_max, minimum=2)
    return _sets(pa, pb, (k,), *_pmf_laws(n_max),
                 lambda rows, laws: _compose_length_law(rows, laws, n_max))[0][1]
