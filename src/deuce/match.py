"""Best-of-(2Q+1)-sets match built on the set layer.

Since who serves first in a set does not affect who wins it, the sequence of
set winners is an i.i.d. coin with success theta_S; the match is a
negative-binomial race to Q+1 set wins, except that the deciding set may use
a different tie-breaker target (K1 instead of K0).  Every conditional
point-count moment is a sum of per-set moments, all computed with A opening
service (changing the opener flips which player serves more, but that level
of detail is not carried here — win probabilities are unaffected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BreakdownRow, MatchSpec, PointCountDistribution, ScoreBreakdown,
                   SystemSpec, _check_count, _check_prob, _compose_length_law,
                   _mixture_moments, _pmf_array, _ScoreRow)
from .sets import (_game_split, _set_game_units, _set_head, _set_length_law,
                   _set_rows, _set_win, _st_split, _stack_st, st_win_prob)

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
    return _per_k(lambda pa, pb, k: _set_win(head, p66, st_win_prob(pa, pb, k)), pa, pb, spec)


def _set_moments_pair(pa, pb, spec: SystemSpec, split):
    """(set moments at k0, set moments at k1) from one evaluation of the set rows.

    Only the 7-6 row's tie-breaker depends on the target, so the other rows
    and the game tables in ``split`` serve both.
    """
    rows = _set_rows(pa, pb, split)

    def moments(pa, pb, k):
        return _mixture_moments(_stack_st(rows, pa, pb, k, _st_split(pa, pb, k)))

    return _per_k(moments, pa, pb, spec)


def _set_score_jpmf(theta0, theta1, q: int) -> SetScoreJPMF:
    transient = {
        (a, b): math.comb(a + b, a) * theta0**a * (1.0 - theta0) ** b
        for a in range(q + 1)
        for b in range(q + 1)
    }
    absorbing = {}
    for b in range(q):
        absorbing[(q + 1, b)] = transient[(q, b)] * theta0
        absorbing[(b, q + 1)] = transient[(b, q)] * (1.0 - theta0)
    absorbing[(q + 1, q)] = transient[(q, q)] * theta1
    absorbing[(q, q + 1)] = transient[(q, q)] * (1.0 - theta1)
    return SetScoreJPMF(q=q, absorbing=absorbing, transient=transient)


def match_set_jpmf(pa: float, pb: float, spec: SystemSpec) -> SetScoreJPMF:
    """Exact joint PMF of the final set score.

    Transient states follow the binomial path-count C(a+b, a) theta^a (1-theta)^b;
    a match ends by winning set a+b+1 from (q, b) or (a, q), with the decider
    from (q, q) using k1.
    """
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    return _set_score_jpmf(*_theta_pair(pa, pb, spec, _game_split(pa, pb)), spec.q)


def _match_win(theta0, theta1, q: int):
    theta0 = np.asarray(theta0, dtype=float)
    out = math.comb(2 * q, q) * theta0**q * (1.0 - theta0) ** q * theta1
    for b in range(q):
        out = out + math.comb(q + b, b) * theta0 ** (q + 1) * (1.0 - theta0) ** b
    out = np.minimum(out, 1.0)
    return float(out) if out.ndim == 0 else out


def match_win_prob(pa, pb, spec: SystemSpec):
    """First player's probability of winning the match.

    Sum of the A-side absorbing masses:

        sum_{b<q} C(q+b, b) theta0^(q+1) (1-theta0)^b
          + C(2q, q) theta0^q (1-theta0)^q * theta1

    clipped at 1 like ``set_win_prob``, since rounding can carry it an ulp
    past.
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    return _match_win(*_theta_pair(pa, pb, spec, _game_split(pa, pb)), spec.q)


def _match_rows(theta0, q: int, set0, set1) -> list:
    """Final-score rows of the match, both winners merged, by the loser's set count.

    ``set0`` / ``set1`` are (mean, variance) of a set at k0 / k1.  A score
    (q+1, b) with b < q plays q+1+b sets at k0; the full-length score plays
    2q at k0 and stacks the k1 decider.  Per-set moments add.
    """
    theta0 = np.asarray(theta0, dtype=float)
    (mu0, var0), (mu1, var1) = set0, set1
    rows = []
    for b in range(q):
        prob = math.comb(q + b, b) * (
            theta0 ** (q + 1) * (1.0 - theta0) ** b
            + (1.0 - theta0) ** (q + 1) * theta0**b
        )
        rows.append(_ScoreRow(prob, q + 1 + b, False, (q + 1 + b) * mu0, (q + 1 + b) * var0))
    prob_full = math.comb(2 * q, q) * theta0**q * (1.0 - theta0) ** q
    rows.append(_ScoreRow(prob_full, 2 * q, True, 2 * q * mu0 + mu1, 2 * q * var0 + var1))
    return rows


def match_points_moments(pa, pb, spec: SystemSpec):
    """(mean, variance) of the total points in the match.

    A final score (q+1, b) with b < q plays q+1+b sets, all with the k0
    tie-breaker; the full-length score plays 2q at k0 plus the k1 decider.
    Per-set moments add (sets are independent), and the mixture over the
    final score combines by the iterated expectation/variance rules.

    The set layer is evaluated once per call: one set of game tables, one
    set of rows that the tie-breaker target does not change, and only the
    tie-breaker itself per target.  Only the non-deciding set's win
    probability is needed.
    """
    _check_prob("pa", pa)
    _check_prob("pb", pb)
    split = _game_split(pa, pb)
    theta0 = _set_win(*_set_head(pa, pb, split), st_win_prob(pa, pb, spec.k0))
    rows = _match_rows(theta0, spec.q, *_set_moments_pair(pa, pb, spec, split))
    mean, var = _mixture_moments(rows)
    if np.asarray(mean).ndim == 0:
        return float(mean), float(var)
    return mean, var


def match_breakdown(pa: float, pb: float, spec: SystemSpec) -> ScoreBreakdown:
    """Per-final-set-score summary of the match (rows by loser's set count)."""
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    split = _game_split(pa, pb)
    theta0, theta1 = _theta_pair(pa, pb, spec, split)
    q = spec.q
    jpmf = _set_score_jpmf(theta0, theta1, q)
    score_rows = _match_rows(theta0, q, *_set_moments_pair(pa, pb, spec, split))
    rows = tuple(
        BreakdownRow(
            score=f"{q + 1}-{b}",
            loser_score=b,
            p_first_wins=jpmf.absorbing[(q + 1, b)],
            p_second_wins=jpmf.absorbing[(b, q + 1)],
            cond_mean=float(row.mean),
            cond_var=float(row.var),
        )
        for b, row in enumerate(score_rows)
    )
    mean, var = _mixture_moments(score_rows)
    return ScoreBreakdown(
        rows=rows,
        win_prob=_match_win(theta0, theta1, q),
        mean=float(mean),
        variance=float(var),
        label="match",
    )


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
    once, a single one when k0 == k1, and carries the set moments that the
    match moments need.
    """
    pa = float(_check_prob("pa", pa))
    pb = float(_check_prob("pb", pb))
    n_max = _check_count("n_max", n_max, minimum=2)
    split = _game_split(pa, pb)
    set_rows = _set_rows(pa, pb, split)
    games = _set_game_units(pa, pb)
    set0, set1 = _per_k(
        lambda pa, pb, k: _set_length_law(pa, pb, k, n_max, set_rows, games), pa, pb, spec
    )
    theta0 = _set_win(*_set_head(pa, pb, split), st_win_prob(pa, pb, spec.k0))
    rows = _match_rows(theta0, spec.q, (set0.mean, set0.variance), (set1.mean, set1.variance))
    return _compose_length_law(
        [_pmf_array(set0.support)] * (2 * spec.q), _pmf_array(set1.support), rows, n_max
    )
