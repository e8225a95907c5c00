"""Best-of comparison systems: raw point races and game-based matches.

Two families compete with the usual hierarchy on equal terms: the
best-of-(2l+1) POINTS race (one fixed server, first to l+1 points), and the
best-of-(2l+1) GAMES match (alternating service games, first to l+1 games),
whose l-l tie is settled by one of three rules — a single sudden game on a
coin-flipped serve (SG), a two-game-advantage race (STTG), or a two-point-
advantage race (STTP).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BestOfGamesSpec,
    PointCountDistribution,
    SystemSpec,
    _check_count,
    _check_prob,
    first_server_serves_game,
    games_served_by_first_server,
    geometric_moments,
)
from .game import game_points_moments, game_win_prob
from .sets import _decisive_pair_prob, _game_split, stt_win_prob

__all__ = [
    "BestOfGamesSpec",
    "bofk_win_prob",
    "bofk_points_distribution",
    "bog_match_win_prob",
    "bog_match_points_moments",
]


def bofk_win_prob(p, l: int):
    """First player's chance in a raw best-of-(2l+1) points race.

    Negative-binomial head form Σ_{j≤l} C(l+j, l) p^(l+1) q^j — identical to
    the binomial majority Pr{B(2l+1, p) ≥ l+1}.
    """
    _check_count("l", l, minimum=1)
    p = np.asarray(_check_prob("p", p), dtype=float)
    q = 1.0 - p
    tail = np.zeros_like(p)
    for j in range(l + 1):
        tail = tail + math.comb(l + j, l) * q**j
    out = p ** (l + 1) * tail
    return float(out) if out.ndim == 0 else out


def bofk_points_distribution(p, l: int) -> PointCountDistribution:
    """Exact PMF of the race length: the support is finite, n in [l+1, 2l+1]."""
    _check_count("l", l, minimum=1)
    p = float(_check_prob("p", p))
    q = 1.0 - p
    support = []
    m1 = m2 = 0.0
    for n in range(l + 1, 2 * l + 2):
        mass = math.comb(n - 1, l) * (
            p ** (l + 1) * q ** (n - 1 - l) + q ** (l + 1) * p ** (n - 1 - l)
        )
        support.append((n, mass))
        m1 += n * mass
        m2 += n * n * mass
    return PointCountDistribution(
        support=tuple(support),
        truncation_mass=0.0,
        mean=m1,
        variance=m2 - m1 * m1,
    )


def _bog_score_masses(split, l: int):
    """Final-game-score masses (a_wins, b_wins, tie) of the best-of-games race.

    ``split`` holds A's per-game tables, ``_game_split(pa, pb, l)``.
    ``a_wins[b]`` is the chance A clinches (l+1, b): among the first l+b
    games A takes l under the alternating serve split, then wins game l+1+b
    from whichever serve slot that game falls on.  ``tie`` is the l-l mass.
    """
    a_wins, b_wins = [], []
    for b in range(l):
        played = l + b
        ta = games_served_by_first_server(played)
        last_on_a_serve = first_server_serves_game(l + 1 + b)
        head_a = split.mass(ta, played - ta, l)
        a_wins.append(head_a * (split.win1 if last_on_a_serve else split.win2))
        head_b = split.mass(ta, played - ta, b)
        b_wins.append(head_b * (split.loss1 if last_on_a_serve else split.loss2))
    tie = split.mass(l, l, l)
    return a_wins, b_wins, tie


def _tie_win_prob(pa, pb, split, spec: SystemSpec):
    if spec.tiebreak == "sg":
        # a fair coin picks the sudden game's server
        return 0.5 * (split.win1 + split.win2)
    if spec.tiebreak == "sttg":
        # game-level advantage race: each player holds serve with their own game probability
        return stt_win_prob(split.win1, split.loss2)
    return stt_win_prob(pa, pb)


def bog_match_win_prob(pa, pb, spec: SystemSpec):
    """First player's probability of winning the best-of-(2l+1)-games match.

    The no-tie head collapses to the binomial-majority tail over the first
    2l games (l served by each player); the l-l mass is settled by the
    spec's tie rule.  Rounding can carry the sum one ulp past 1, so it is
    clipped there, like ``set_win_prob``.  Degenerate pairs that make a
    reachable tie race run forever raise the non-terminating error.
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    l = spec.l
    split = _game_split(pa, pb, l)
    head = split.tail(l, l, l + 1)
    tie = split.mass(l, l, l)
    out = np.minimum(head + tie * _tie_win_prob(pa, pb, split, spec), 1.0)
    return float(out) if out.ndim == 0 else out


def _tie_extra_moments(pa, pb, spec, tie_unit, mu_a, var_a, mu_b, var_b):
    """Mean/variance of the points appended after a 2l-game tie."""
    if spec.tiebreak == "sg":
        mean = 0.5 * (mu_a + mu_b)
        var = 0.5 * (var_a + var_b) + 0.25 * (mu_a - mu_b) ** 2
        return mean, var
    if spec.tiebreak == "sttp":
        gm, gv = geometric_moments(_decisive_pair_prob(pa, pb))
        return 2.0 * gm, 4.0 * gv
    eta = _decisive_pair_prob(game_win_prob(pa), game_win_prob(pb))
    gm, gv = geometric_moments(eta)
    if tie_unit == "games":
        return 2.0 * gm, 4.0 * gv
    mu_pair = mu_a + mu_b
    var_pair = var_a + var_b
    return gm * mu_pair, gm * var_pair + gv * mu_pair**2


def bog_match_points_moments(pa, pb, spec: SystemSpec, tie_unit: str = "points"):
    """(mean, variance) of the total points, mixed over the final game score.

    Every score category plays a known number of games per serve slot, so its
    conditional moments add per-game moments.  The tie branch appends the
    variant's own count: SG one game on a coin-flipped serve (equal-weight
    mixture), STTP the two-point-advantage race, STTG a geometric number of
    game pairs, each pair costing an independent game on either serve.

    ``tie_unit="games"`` (STTG only) swaps the tie branch's point count for
    the raw GAME count of the advantage race — the units mismatch is
    deliberate, reproducing the convention some published comparison tables
    used; it exists as a diagnostic, not a model.
    """
    if tie_unit not in ("points", "games"):
        raise ValueError(f"tie_unit must be 'points' or 'games', got {tie_unit!r}")
    if tie_unit == "games" and spec.tiebreak != "sttg":
        raise ValueError("tie_unit='games' is only defined for the sttg tie rule")
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    mu_a, var_a = game_points_moments(pa)
    mu_b, var_b = game_points_moments(pb)
    l = spec.l
    a_wins, b_wins, tie = _bog_score_masses(_game_split(pa, pb, l), l)

    def category(n_games):
        ta = games_served_by_first_server(n_games)
        tb = n_games - ta
        return ta * mu_a + tb * mu_b, ta * var_a + tb * var_b

    mean = 0.0
    second = 0.0
    for b in range(l):
        m, v = category(l + 1 + b)
        prob = a_wins[b] + b_wins[b]
        mean = mean + prob * m
        second = second + prob * (v + m * m)
    m_base, v_base = category(2 * l)
    m_extra, v_extra = _tie_extra_moments(
        pa, pb, spec, tie_unit, mu_a, var_a, mu_b, var_b
    )
    m_tie = m_base + m_extra
    v_tie = v_base + v_extra
    mean = mean + tie * m_tie
    second = second + tie * (v_tie + m_tie * m_tie)
    var = second - mean**2
    if np.asarray(mean).ndim == 0:
        return float(mean), float(var)
    return mean, var
