"""Best-of-(2Q+1)-sets match built on the set layer.

Since who serves first in a set does not affect who wins it, the sequence of
set winners is an i.i.d. coin with success theta_S; the match is a race to
Q+1 set wins in which every set has the same odds, except that the deciding
set may use a different tie-breaker target (K1 instead of K0).
``_race_rows`` gives both players' final set scores and their rows, and
the match appends its decider row.  Its laws are the k0 set for every set
and the k1 set stacked as the decider, so every conditional point-count
moment is a sum of per-set moments, all computed with A opening service
(changing the opener flips which player serves more, but that level of
detail is not carried here — win probabilities are unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (MatchSpec, PointCountDistribution, ScoreBreakdown, SystemSpec, _breakdown,
                   _check_count, _check_prob, _check_spec, _clipped_win, _compose_length_law,
                   _Laws, _mixture_moments, _pmf_law, _plain_split, _race_rows,
                   _scalar_or_array, _ScoreRow)
from .game import game_points_moments, game_points_pmf
from .sets import (_game_split, _games_laws, _set_head, _set_rows, _st_law, _st_rows, st_win_prob,
                   stt_win_prob)

__all__ = ["MatchSpec", "SetScoreJPMF", "match_set_jpmf", "match_win_prob",
           "match_points_moments", "match_points_distribution", "match_breakdown"]


@dataclass(frozen=True)
class SetScoreJPMF:
    """Joint PMF of the final (A sets, B sets), plus the transient grid.

    ``absorbing`` maps (a, b) with max(a,b) = q+1 to its probability;
    ``transient`` maps (a, b) with a,b <= q to the probability the score
    passes through that state.  Absorbing masses partition the sample space.
    """

    q: int
    absorbing: dict
    transient: dict

    def win_prob_first(self) -> float:
        return sum(m for (a, _), m in self.absorbing.items() if a == self.q + 1)

    def total_mass(self) -> float:
        return sum(self.absorbing.values())


def _per_k(fn, pa, pb, spec: SystemSpec):
    """(fn at k0, fn at k1), evaluating fn once when the two targets agree."""
    first = fn(pa, pb, spec.k0)
    return first, first if spec.k1 == spec.k0 else fn(pa, pb, spec.k1)


def _theta_pair(pa, pb, spec: SystemSpec, split):
    """(theta for a non-deciding set, theta for the deciding set).

    ``split`` holds A's per-game tables.  Only the tie-breaker depends on the
    target, so the rest of the set is evaluated once for both.
    """
    head, p66 = _set_head(pa, pb, split)
    return _per_k(lambda pa, pb, k: _clipped_win(head, p66, st_win_prob(pa, pb, k)), pa, pb, spec)


def _set_pair(pa, pb, spec: SystemSpec, game_law=game_points_moments,
              st_law=_mixture_moments, set_law=_mixture_moments):
    """((theta, set law) at k0, the same at k1) from one set race and game laws.

    ``game_law(p)`` gives a player's game law, ``st_law(rows, laws)`` the ST
    law stacked on 7-6 and ``set_law(rows, laws)`` the set law: moments by
    default, or PMF laws.  Each target's ST race gives its theta and its law.
    """
    scores, rows = _set_rows(pa, pb, _game_split(pa, pb))
    head = sum(first for _, _, first, _ in scores)
    games = game_law(pa), game_law(pb)

    def at(pa, pb, k):
        st_scores, st_rows, st_laws = _st_rows(pa, pb, k)
        theta_st = (sum(first for _, _, first, _ in st_scores)
                    + st_rows[-1].mass * stt_win_prob(pa, pb))
        laws = _games_laws(*games, st_law(st_rows, st_laws))
        return _clipped_win(head, rows[-1].mass, theta_st), set_law(rows, laws)

    return _per_k(at, pa, pb, spec)


def _set_score_jpmf(theta0, theta1, q: int) -> SetScoreJPMF:
    sets = _plain_split(q, theta0, 0, theta0)
    scores, tie, _ = _race_rows(sets, q + 1)
    transient = {(a, b): sets.mass(a + b, 0, a) for a in range(q + 1) for b in range(q + 1)}
    absorbing = {}
    for _, b, first, second in scores:
        absorbing[(q + 1, b)] = first
        absorbing[(b, q + 1)] = second
    absorbing[(q + 1, q)] = tie * theta1
    absorbing[(q, q + 1)] = tie * (1.0 - theta1)
    return SetScoreJPMF(q=q, absorbing=absorbing, transient=transient)


def match_set_jpmf(pa: float, pb: float, spec: SystemSpec) -> SetScoreJPMF:
    """Exact joint PMF of the final set score.

    Transient states follow the binomial path-count C(a+b, a) theta^a (1-theta)^b;
    a match ends by winning set a+b+1 from (q, b) or (a, q), with the decider
    from (q, q) using k1.
    """
    _check_spec(spec, "match")
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    return _set_score_jpmf(*_theta_pair(pa, pb, spec, _game_split(pa, pb)), spec.q)


def match_win_prob(pa, pb, spec: SystemSpec):
    """First player's probability of winning the match.

    Sum of the A-side absorbing masses:

        sum_{b<q} C(q+b, b) theta0^(q+1) (1-theta0)^b
          + C(2q, q) theta0^q (1-theta0)^q * theta1

    clipped at 1 like ``set_win_prob``, since rounding can carry it an ulp
    past.
    """
    _check_spec(spec, "match")
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    theta0, theta1 = _theta_pair(pa, pb, spec, _game_split(pa, pb))
    wins, tie = _plain_split(spec.q, theta0, 0, theta0).race(spec.q + 1)
    return _clipped_win(sum(wins), tie, theta1)


def _match_rows(theta0, q: int):
    """(scores, rows) of the match's final set scores, by the loser's set count.

    ``scores`` are those of :func:`~deuce.core._race_rows`, without the
    decider, whose split rests on its own theta.  A score (q+1, b) with
    b < q plays q+1+b sets at k0; the full-length score plays 2q at k0 and
    stacks the k1 decider, and its row's mass is the tie.  Every set is
    the opener's unit of the match's laws, and the decider the stacked one.
    """
    scores, tie, rows = _race_rows(_plain_split(q, theta0, 0, theta0), q + 1)
    rows.append(_ScoreRow(tie, 2 * q, True))
    return scores, rows


def match_points_moments(pa, pb, spec: SystemSpec):
    """(mean, variance) of the total points in the match.

    A final score (q+1, b) with b < q plays q+1+b sets, all with the k0
    tie-breaker; the full-length score plays 2q at k0 plus the k1 decider.
    Per-set moments add (sets are independent), and the mixture over the
    final score combines by the iterated expectation/variance rules.

    The set layer is evaluated once per call (:func:`_set_pair`): one set of
    game tables, one set race for both players, and one tie-breaker race per
    player and target.
    """
    _check_spec(spec, "match")
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    (theta0, set0), (_, set1) = _set_pair(pa, pb, spec)
    mean, var = _mixture_moments(_match_rows(theta0, spec.q)[1], _Laws(set0, set0, set1))
    return _scalar_or_array(mean), _scalar_or_array(var)


def match_breakdown(pa: float, pb: float, spec: SystemSpec) -> ScoreBreakdown:
    """Per-final-set-score summary of the match (rows by loser's set count)."""
    _check_spec(spec, "match")
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    (theta0, set0), (theta1, set1) = _set_pair(pa, pb, spec)
    q = spec.q
    scores, rows = _match_rows(theta0, q)
    tie = rows[-1].mass
    win = _clipped_win(sum(first for _, _, first, _ in scores), tie, theta1)
    scores.append((f"{q + 1}-{q}", q, tie * theta1, tie * (1.0 - theta1)))
    return _breakdown("match", scores, rows, _Laws(set0, set0, set1), win)


def match_points_distribution(pa: float, pb: float, spec: SystemSpec,
                              n_max: int = 10_000) -> PointCountDistribution:
    """PMF of the number of points played in a match, truncated at ``n_max``.

    Conditions on the final set score, then convolves set-length marginals:
    the first ``2q`` sets use the ``k0`` tie-break law and a decider uses
    ``k1``.  Truncated moments agree with ``mean`` and ``variance`` up to
    tail mass.

    Composition is exact and direct, as for the set law: ``support`` omits
    entries whose mass underflows to 0, the set laws end where theirs does,
    and no convolution runs past ``n_max``.  FFT is not used because its
    round-off of about 1e-17 absolute would swamp the small masses (the
    three-set floor at 72 points is about 1e-21).  Each set law is built
    once, a single one when k0 == k1, by :func:`_set_pair`, which also
    gives theta0; it carries the set moments that the match moments need.
    """
    _check_spec(spec, "match")
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    n_max = _check_count("n_max", n_max, minimum=2)
    (theta0, set0), (_, set1) = _set_pair(
        pa, pb, spec, lambda p: _pmf_law(game_points_pmf(p)),
        lambda rows, laws: _pmf_law(_st_law(pa, pb, n_max, rows, laws)),
        lambda rows, laws: _pmf_law(_compose_length_law(rows, laws, n_max)))
    return _compose_length_law(_match_rows(theta0, spec.q)[1], _Laws(set0, set0, set1), n_max)
