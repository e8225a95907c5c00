"""Alternating-server subsystem: set tie-breaker, its tie-breaker, and the set.

Three nested layers share one mechanism — a race to a target with serve-split
binomial sums:

* STT: at (K-1, K-1) points the set tie-breaker continues in pairs of points
  (one serve each) until someone sweeps a pair; the pair count is geometric
  with success probability pA*qB + qA*pB.
* ST: first to K points, serve rotation ABBAABB...; the probability of any
  final score is a binomial-convolution mass over the A-serve/B-serve split,
  times the winner taking the final point.
* Set: first to six games with a margin of two (7-5 possible), games
  alternating servers; at 6-6 the ST decides.  The algebra is the ST's with
  points replaced by games, K by 6, and the serve split by the strict
  alternation.

Point-count moments condition on the final score.  Within an ST all score
durations are fixed or winner-independent, so its moments are exact; at set
level a game's length is treated as exchangeable with its winner, which is the
usual summary-decomposition convention (the exact-process variance differs in
the third significant figure — see the tests for a quantified comparison).
"""

from __future__ import annotations

import numpy as np

from .core import (
    BreakdownRow,
    NonTerminatingError,
    PointCountDistribution,
    ScoreBreakdown,
    _check_count,
    _check_prob,
    _compose_length_law,
    _mixture_moments,
    _pmf_array,
    _ScoreRow,
    _SplitPowers,
    binomial_convolution_mass,  # noqa: F401  (re-exported: importable from here as before)
    first_server_on_point,
    first_server_serves_game,
    games_served_by_first_server,
    geometric_moments,
    serves_by_first_server,
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


def _decisive_pair_prob(pa, pb):
    """pA*qB + qA*pB: the per-pair resolution probability of the STT race."""
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    return pa * (1.0 - pb) + (1.0 - pa) * pb


def _require_terminating(pa, pb) -> None:
    """Reject the degenerate pairs (0,0) and (1,1).

    For those the STT continues forever: every pair of points splits 1-1 with
    probability one.  Callers invoke this only on paths where the tie-breaker
    is reachable with positive probability.
    """
    eta = _decisive_pair_prob(pa, pb)
    if np.any(eta == 0.0):
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


def _geometric_tail(first, rho, count: int) -> list:
    """[first * rho**j for j < count], cut before the first mass that underflows to 0.

    Each entry is one power, not a running product: a running product sticks
    at the smallest subnormal (5e-324 * rho rounds back up to 5e-324 once
    rho > 0.5) and never reaches 0.
    """
    tail = first * rho ** np.arange(count, dtype=float)
    (zeros,) = np.nonzero(tail == 0.0)
    return tail[: zeros[0] if zeros.size else count].tolist()


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
    rho = 1.0 - eta
    lengths = range(2, n_max + 1, 2)
    g_mean, g_var = geometric_moments(eta)
    return PointCountDistribution(
        support=tuple(zip(lengths, _geometric_tail(eta, rho, len(lengths)))),
        truncation_mass=rho ** (n_max // 2),
        mean=2.0 * g_mean,
        variance=4.0 * g_var,
    )


def _st_split(pa, pb, k: int) -> _SplitPowers:
    """A's per-point tables for a K-point set tie-breaker; B's are ``.swapped()``.

    A wins a point on A's serve with pA and on B's serve with 1 - pB, and
    loses it with 1 - pA and pB.  No score before the tie reads more than
    K-1 points of either serve, so the tables stop there.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    return _SplitPowers(k - 1, pa, 1.0 - pa, 1.0 - pb, pb)


def _st_score_prob(split: _SplitPowers, k: int, h: int):
    """Probability one player takes the set tie-breaker K points to h.

    ``split`` holds that player's per-point tables (see :func:`_st_split`).
    Of the first K+h-1 points the player must win K-1, split across the
    serve counts of the ABBA rotation, then take point K+h.
    """
    n = k + h - 1
    sa = serves_by_first_server(n)
    last = split.win1 if first_server_on_point(k + h) else split.win2
    return split.mass(sa, n - sa, k - 1) * last


def _st_tie_prob(split: _SplitPowers, k: int):
    """Probability the set tie-breaker reaches K-1 points all.

    The ABBA rotation splits the first 2(K-1) points evenly, so this is the
    convolution mass Pr{B(K-1, pA) + B(K-1, qB) = K-1}, read from either
    player's tables.
    """
    return split.mass(k - 1, k - 1, k - 1)


def _st_win(split: _SplitPowers, k: int, tie, stt):
    """One player's K-point ST win probability from that player's tables.

    ``split`` holds the player's per-point tables (A's from :func:`_st_split`,
    B's its ``.swapped()``), ``tie`` the mass reaching K-1 points all and
    ``stt`` the player's STT win probability.
    """
    return sum(_st_score_prob(split, k, h) for h in range(k - 1)) + tie * stt


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
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    split = _st_split(pa, pb, k)
    tie = _st_tie_prob(split, k)
    if np.any((_decisive_pair_prob(pa, pb) == 0.0) & (tie > 0.0)):
        _require_terminating(pa, pb)
    out = _st_win(split, k, tie, stt_win_prob(pa, pb))
    return float(out) if np.asarray(out).ndim == 0 else out


def _st_points_moments(pa, pb, k: int, a: _SplitPowers):
    """(mean, variance) of the ST point count, by conditioning on the final score.

    ``a`` holds A's per-point tables (see :func:`_st_split`).  Scores (K,h)
    and (h,K) pin the count at K+h exactly; the tie branch costs 2(K-1)
    points plus twice a geometric pair count.  Mean and variance then follow
    from the laws of total expectation and total variance — the variance
    inside every non-tie category is zero, so only the tie's geometric
    variance and the spread of the category means contribute.
    """
    b = a.swapped()
    tie = _st_tie_prob(a, k)
    eta = _decisive_pair_prob(pa, pb)
    g_mean, g_var = geometric_moments(np.where(eta == 0.0, 1.0, eta))
    tie_mean = 2.0 * (k - 1) + 2.0 * g_mean
    tie_var = 4.0 * g_var
    mean = tie * tie_mean
    second = tie * tie_mean**2
    for h in range(k - 1):
        prob = _st_score_prob(a, k, h) + _st_score_prob(b, k, h)
        mean = mean + (k + h) * prob
        second = second + (k + h) ** 2 * prob
    var = second - mean**2 + tie * tie_var
    return mean, var


def st_points_moments(pa, pb, k: int):
    """Exact (mean, variance) of the number of points in a K-point set tie-breaker."""
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    k = _check_count("k", k, minimum=2)
    split = _st_split(pa, pb, k)
    tie = _st_tie_prob(split, k)
    if np.any((_decisive_pair_prob(pa, pb) == 0.0) & (np.asarray(tie) > 0.0)):
        _require_terminating(pa, pb)
    mean, var = _st_points_moments(pa, pb, k, split)
    if np.asarray(mean).ndim == 0:
        return float(mean), float(var)
    return mean, var


def _st_support(pa: float, pb: float, k: int, a: _SplitPowers, n_max: int) -> list:
    """(n, mass) pairs of the ST point count up to ``n_max``, from A's tables ``a``.

    Mass at n in [K, 2K-2] comes from the direct scores (K, n-K) and (n-K, K);
    mass at even n >= 2K is the tie probability times the geometric STT
    landing on pair (n - 2K + 2)/2.
    """
    b = a.swapped()
    tie = _st_tie_prob(a, k)
    support = [
        (n, _st_score_prob(a, k, n - k) + _st_score_prob(b, k, n - k))
        for n in range(k, 2 * k - 1)
    ]
    eta = pa * (1.0 - pb) + (1.0 - pa) * pb
    lengths = range(2 * k, n_max + 1, 2)
    support.extend(zip(lengths, _geometric_tail(tie * eta, 1.0 - eta, len(lengths))))
    return support


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
    split = _st_split(pa, pb, k)
    tie = _st_tie_prob(split, k)
    if tie > 0.0:
        _require_terminating(pa, pb)
    rho = 1.0 - (pa * (1.0 - pb) + (1.0 - pa) * pb)
    residual = tie * rho ** ((n_max - (2 * k - 2)) // 2) if tie > 0.0 else 0.0
    mean, var = _st_points_moments(pa, pb, k, split)
    return PointCountDistribution(
        support=tuple(_st_support(pa, pb, k, split, n_max)),
        truncation_mass=float(residual),
        mean=float(mean),
        variance=float(var),
    )


def st_breakdown(pa: float, pb: float, k: int) -> ScoreBreakdown:
    """Per-final-score summary of a K-point set tie-breaker."""
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    k = _check_count("k", k, minimum=2)
    qa, qb = 1.0 - pa, 1.0 - pb
    a = _st_split(pa, pb, k)
    b = a.swapped()
    tie = _st_tie_prob(a, k)
    if tie > 0.0:
        _require_terminating(pa, pb)
    rows = []
    for h in range(k - 1):
        rows.append(
            BreakdownRow(
                score=f"{k}-{h}",
                loser_score=h,
                p_first_wins=float(_st_score_prob(a, k, h)),
                p_second_wins=float(_st_score_prob(b, k, h)),
                cond_mean=float(k + h),
                cond_var=0.0,
            )
        )
    theta_stt = stt_win_prob(pa, pb)
    if tie > 0.0:
        eta = pa * qb + qa * pb
        g_mean, g_var = geometric_moments(eta)
        rows.append(
            BreakdownRow(
                score="TB",
                loser_score=None,
                p_first_wins=float(tie * theta_stt),
                p_second_wins=float(tie * stt_win_prob(pb, pa)),
                cond_mean=float(2 * (k - 1) + 2.0 * g_mean),
                cond_var=float(4.0 * g_var),
            )
        )
    mean, var = _st_points_moments(pa, pb, k, a)
    return ScoreBreakdown(
        rows=tuple(rows),
        win_prob=float(_st_win(a, k, tie, theta_stt)),
        mean=float(mean),
        variance=float(var),
        label="st",
    )


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


def _set_score_prob(split: _SplitPowers, h: int):
    """Probability one player takes the set six games to h (h = 0..4).

    ``split`` holds that player's per-game tables (see :func:`_game_split`).
    Five of the first 5+h games must go to the player, split across the
    alternation, then game 6+h closes it out.
    """
    g = 5 + h
    ta = games_served_by_first_server(g)
    last = split.win1 if first_server_serves_game(6 + h) else split.win2
    return split.mass(ta, g - ta, 5) * last


def _set_head(pa, pb, split: _SplitPowers):
    """(A's mass on the scores 6-0 .. 6-4 and 7-5, the mass reaching 6-6).

    ``split`` holds A's per-game tables (see :func:`_game_split`).  This is
    the part of a set win probability that the tie-breaker target does not
    change, so a match evaluates it once for both of its targets.
    """
    head = sum(_set_score_prob(split, h) for h in range(5))
    reach_55 = split.mass(5, 5, 5)
    p75 = reach_55 * split.win1 * split.win2
    p66 = reach_55 * _set_tie_share(split)
    if np.any((np.asarray(p66) > 0.0) & (_decisive_pair_prob(pa, pb) == 0.0)):
        _require_terminating(pa, pb)
    return head + p75, p66


def _set_win(head, p66, theta_st):
    """Set win probability from :func:`_set_head` and the tie-breaker's win probability."""
    out = np.minimum(head + p66 * theta_st, 1.0)
    return float(out) if out.ndim == 0 else out


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
    return _set_win(*_set_head(pa, pb, _game_split(pa, pb)), st_win_prob(pa, pb, k))


def _set_tie_share(split: _SplitPowers):
    """Probability that games 11 and 12 split one each, so 5-5 goes on to 6-6."""
    return split.win1 * split.loss2 + split.loss1 * split.win2


def _set_rows(pa, pb, a: _SplitPowers) -> list:
    """Final-score rows 6-0 .. 6-4, 7-5, 7-6 of a set, both winners merged.

    ``a`` holds A's per-game tables.  A score with g games plays g
    alternating-server games, and row moments add per-game moments.  None of
    this depends on the tie-breaker target, so the 7-6 row holds only its
    twelve games; :func:`_stack_st` puts the ST of a given target on top.
    """
    b = a.swapped()
    mu_a, var_a = game_points_moments(pa)
    mu_b, var_b = game_points_moments(pb)

    def games_moments(games):
        ta = games_served_by_first_server(games)
        tb = games - ta
        return ta * mu_a + tb * mu_b, ta * var_a + tb * var_b

    reach_55 = a.mass(5, 5, 5)
    p66 = reach_55 * _set_tie_share(a)
    if np.any((np.asarray(p66) > 0.0) & (_decisive_pair_prob(pa, pb) == 0.0)):
        _require_terminating(pa, pb)
    rows = []
    for h in range(5):
        prob = _set_score_prob(a, h) + _set_score_prob(b, h)
        rows.append(_ScoreRow(prob, 6 + h, False, *games_moments(6 + h)))
    p75 = reach_55 * (a.win1 * a.win2 + b.win1 * b.win2)
    m12, v12 = games_moments(12)
    rows.append(_ScoreRow(p75, 12, False, m12, v12))
    rows.append(_ScoreRow(p66, 12, True, m12, v12))
    return rows


def _stack_st(rows: list, pa, pb, k: int, st: _SplitPowers) -> list:
    """:func:`_set_rows` with a K-point ST stacked on the 7-6 row's twelve games.

    ``st`` holds A's per-point tables of that ST (see :func:`_st_split`).
    """
    *head, tie = rows
    st_mean, st_var = _st_points_moments(pa, pb, k, st)
    return head + [tie._replace(mean=tie.mean + st_mean, var=tie.var + st_var)]


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
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    rows = _stack_st(_set_rows(pa, pb, _game_split(pa, pb)), pa, pb, k, _st_split(pa, pb, k))
    mean, var = _mixture_moments(rows)
    if np.asarray(mean).ndim == 0:
        return float(mean), float(var)
    return mean, var


def set_breakdown(pa: float, pb: float, k: int) -> ScoreBreakdown:
    """Per-final-score summary of a set: 6-0 .. 6-4, 7-5, and the 7-6 tie.

    The 7-6 row's conditional moments stack the ST on the twelve games that
    precede it; its probability splits between the players by each one's
    own ST win probability, so the underdog's share is never a complement.
    """
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    k = _check_count("k", k, minimum=2)
    a = _game_split(pa, pb)
    b = a.swapped()
    st = _st_split(pa, pb, k)
    score_rows = _stack_st(_set_rows(pa, pb, a), pa, pb, k, st)
    reach_55 = a.mass(5, 5, 5)
    # (score, loser's games, A's mass, B's mass); the 7-6 row only when reachable
    splits = [(f"6-{h}", h, _set_score_prob(a, h), _set_score_prob(b, h)) for h in range(5)]
    splits.append(("7-5", 5, reach_55 * a.win1 * a.win2, reach_55 * b.win1 * b.win2))
    p66 = score_rows[-1].mass
    tie = _st_tie_prob(st, k)
    theta_st = _st_win(st, k, tie, stt_win_prob(pa, pb))
    if p66 > 0.0:
        theta_st_b = _st_win(st.swapped(), k, tie, stt_win_prob(pb, pa))
        splits.append(("7-6", 6, p66 * theta_st, p66 * theta_st_b))
    rows = tuple(
        BreakdownRow(
            score=score,
            loser_score=loser,
            p_first_wins=float(first),
            p_second_wins=float(second),
            cond_mean=float(row.mean),
            cond_var=float(row.var),
        )
        for (score, loser, first, second), row in zip(splits, score_rows)
    )
    mean, var = _mixture_moments(score_rows)
    return ScoreBreakdown(
        rows=rows,
        win_prob=_set_win(sum(first for _, _, first, _ in splits[:6]), p66, theta_st),
        mean=float(mean),
        variance=float(var),
        label="set",
    )


def _set_game_units(pa: float, pb: float) -> list:
    """Game-length PMF arrays in playing order: A serves the odd games."""
    game_a = _pmf_array(game_points_pmf(pa).support)
    game_b = _pmf_array(game_points_pmf(pb).support)
    return [game_a, game_b] * _SET_TARGET


def _set_length_law(pa: float, pb: float, k: int, n_max: int, rows: list,
                    games) -> PointCountDistribution:
    """Set length law from :func:`_set_rows` and game-length units already in hand."""
    st = _st_split(pa, pb, k)
    return _compose_length_law(games, _pmf_array(_st_support(pa, pb, k, st, n_max)),
                               _stack_st(rows, pa, pb, k, st), n_max)


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
    return _set_length_law(pa, pb, k, n_max, _set_rows(pa, pb, _game_split(pa, pb)),
                           _set_game_units(pa, pb))
