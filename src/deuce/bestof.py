"""Best-of comparison systems: raw point races and game-based matches.

Two families compete with the usual hierarchy on equal terms: the
best-of-(2l+1) POINTS race (one fixed server, first to l+1 points), and the
best-of-(2l+1) GAMES match (alternating service games, first to l+1 games),
whose l-l tie is settled by one of three rules — a single sudden game on a
coin-flipped serve (SG), a two-game-advantage race (STTG), or a two-point-
advantage race (STTP).  The two advantage races are the set layer's pair
race (``sets._stt``), over service games or over points; the win and the
moments read the one race ``_tie_race`` forms.  Both wins follow core's one
rule, the outright masses plus the tie at the tie's odds, clipped at 1:
the points race through ``_Race.win``, and the games match, whose head is
one binomial tail, through ``_clipped_win``.

Public functions validate their arguments once; the races and tie rules
run on the game and set layers' unchecked evaluators.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BestOfGamesSpec,
    PointCountDistribution,
    SystemSpec,
    _check_count,
    _check_pair,
    _check_prob,
    _check_spec,
    _clipped_win,
    _Laws,
    _MINIMUM,
    _mixture_moments,
    _plain_split,
    _Race,
    _scalar_or_array,
    _ScoreRow,
)
from .game import _game_moments
from .sets import _GAME_UNITS, _game_split, _games_laws, _stt

__all__ = [
    "BestOfGamesSpec",
    "bofk_win_prob",
    "bofk_points_distribution",
    "bog_match_win_prob",
    "bog_match_points_moments",
]


def bofk_win_prob(p, l: int):
    """First player's chance in a raw best-of-(2l+1) points race.

    The race to l+1 points, ``sum_h C(l+h, l) p^(l+1) q^h`` over the final
    scores, plus the l-all mass times p for the last point — identical to
    the binomial majority Pr{B(2l+1, p) >= l+1}.  Rounding can carry the
    sum one ulp past 1, so it is clipped there (:meth:`~deuce.core._Race.win`).
    """
    _check_count("l", l, minimum=_MINIMUM["l"])
    p = np.asarray(_check_prob("p", p), dtype=float)
    return _Race(_plain_split(l, p, 0, p), l + 1).win(p)


def bofk_points_distribution(p, l: int) -> PointCountDistribution:
    """Exact PMF of the race length: the support is finite, n in [l+1, 2l+1]."""
    _check_count("l", l, minimum=_MINIMUM["l"])
    p = float(_check_prob("p", p))
    race = _Race(_plain_split(l, p, 0, p), l + 1)
    # from l all the next point ends the race, whoever takes it
    rows = race.rows() + [_ScoreRow(race.tie, 2 * l + 1, False)]
    mean, var = _mixture_moments(rows, _Laws())
    return PointCountDistribution(
        support=tuple((row.units, float(row.mass)) for row in rows),
        truncation_mass=0.0,
        mean=float(mean),
        variance=float(var),
    )


def _tie_race(pa, pb, split, spec: SystemSpec):
    """The pair race that settles the l-l tie, from the match's per-game
    tables ``split``, or None for the SG rule, which is no race."""
    if spec.tiebreak == "sg":
        return None
    # the STTG races service games: each player holds serve with their own game probability
    return _stt(split.win1, split.loss2) if spec.tiebreak == "sttg" else _stt(pa, pb)


def bog_match_win_prob(pa, pb, spec: SystemSpec):
    """First player's probability of winning the best-of-(2l+1)-games match.

    The no-tie head collapses to the binomial-majority tail over the first
    2l games (l served by each player); the l-l mass is settled by the
    spec's tie rule.  Rounding can carry the sum one ulp past 1, so it is
    clipped there, like ``set_win_prob``.  Degenerate pairs that make a
    reachable tie race run forever raise the non-terminating error.
    """
    _check_spec(spec, "bog")
    _check_pair(pa, pb)
    l = spec.l
    split = _game_split(pa, pb, l)
    head, tie = split.tail(l, l, l + 1), split.mass(l, l, l)
    race = _tie_race(pa, pb, split, spec)
    # a fair coin picks the sudden game's server
    return _clipped_win(head, tie, 0.5 * (split.win1 + split.win2) if race is None else race.win())


def _tie_extra_moments(race, spec, tie_unit, mu_a, var_a, mu_b, var_b):
    """Mean/variance of the points appended after a 2l-game tie settled by
    ``race`` (:func:`_tie_race`): a pair of points, or of games counted as
    games, is two units, and an STTG pair counted in points is one game
    on each serve."""
    if race is None:
        mean = 0.5 * (mu_a + mu_b)
        var = 0.5 * (var_a + var_b) + 0.25 * (mu_a - mu_b) ** 2
        return mean, var
    if spec.tiebreak == "sttp" or tie_unit == "games":
        return race.length()
    return race.length((mu_a + mu_b, var_a + var_b))


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
    _check_spec(spec, "bog")
    if tie_unit not in ("points", "games"):
        raise ValueError(f"tie_unit must be 'points' or 'games', got {tie_unit!r}")
    if tie_unit == "games" and spec.tiebreak != "sttg":
        raise ValueError("tie_unit='games' is only defined for the sttg tie rule")
    _check_pair(pa, pb)
    games = (_game_moments(pa), _game_moments(pb))
    l = spec.l
    race = _Race(_game_split(pa, pb, l), l + 1, _GAME_UNITS)
    rows = race.rows() + [_ScoreRow(race.tie, 2 * l, True)]
    tie_race = _tie_race(pa, pb, race.split, spec)
    extra = _tie_extra_moments(tie_race, spec, tie_unit, *games[0], *games[1])
    mean, var = _mixture_moments(rows, _games_laws(*games, extra))
    return _scalar_or_array(mean), _scalar_or_array(var)
