"""Best-of-(2Q+1)-sets match built on the set layer.

Since who serves first in a set does not affect who wins it, the sequence of
set winners is an i.i.d. coin with success theta_S; the match is a race to
Q+1 set wins in which every set has the same odds, except that the deciding
set may use a different tie-breaker target (K1 instead of K0).  The set
odds theta0 and theta1 come from one set evaluation (``sets._sets``): one
race of the set's games, and one ST race per target.

The match's race over sets (:class:`~deuce.core._Race`) gives both
players' final set scores as rows, and the match appends its decider row,
whose shares, theta1 for A and the rest for B, are formed only when a
breakdown or the joint PMF of the set score asks.  Its laws are the k0 set
for every set and the k1 set stacked as the decider, so every conditional
point-count moment is a sum of per-set moments, all computed with A
opening service (changing the opener flips which player serves more, but
that level of detail is not carried here — win probabilities are
unaffected).  One match evaluation,
``_match``, gives the race, rows, laws and theta1 that the moments,
breakdown and PMF read; the win reads only the set odds and A's race, its
outright masses plus q all times theta1 (``_Race.win``), and builds no
rows.

Public functions validate their arguments once and call unchecked
evaluators; a match call validates ``pa`` and ``pb`` once, not again in
each set, game and tie-breaker.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (MatchSpec, PointCountDistribution, ScoreBreakdown, SystemSpec, _breakdown,
                   _check_count, _check_pair, _check_spec, _compose_length_law,
                   _Laws, _mixture_moments, _pmf_law, _plain_split, _Race, _scalar_or_array,
                   _ScoreRow)
from .game import _game_moments
from .sets import _pmf_laws, _sets

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


def _set_pair(pa, pb, spec: SystemSpec, *laws):
    """(at k0, at k1) of :func:`~deuce.sets._sets` with ``laws``: the set is
    evaluated once, and at one target when the two agree."""
    sets = _sets(pa, pb, dict.fromkeys((spec.k0, spec.k1)), *laws)
    return sets[0], sets[-1]


def _match_race(theta0, q: int) -> _Race:
    """The race to q+1 sets, with the same odds ``theta0`` in every set; its
    ``tie`` is q all, which the decider settles, so A's match win is
    ``win(theta1)``, clipped at 1 (:meth:`~deuce.core._Race.win`)."""
    return _Race(_plain_split(q, theta0, 0, theta0), q + 1)


def _match_rows(theta0, theta1, q: int):
    """(race, rows) of the match's final set scores, by the loser's set count.

    A score (q+1, b) with b < q plays q+1+b sets at k0; the full-length
    score plays 2q at k0 and stacks the k1 decider, and its row's mass is
    the tie, which a breakdown and the JPMF split by A's chance in the
    decider, theta1, and B's, the rest.  Every set is the opener's unit of
    the match's laws, and the decider the stacked one.
    """
    race = _match_race(theta0, q)
    tie = race.tie
    shares = lambda: (tie * theta1, tie * (1.0 - theta1))
    return race, race.rows() + [_ScoreRow(tie, 2 * q, True, f"{q + 1}-{q}", q, shares)]


def _match(pa, pb, spec: SystemSpec, *laws):
    """(race, rows, laws, theta1): the one match evaluation that moments,
    breakdowns and PMFs read, from the set layer's ``laws``
    (:func:`_set_pair`); the k0 set is every set's law and the k1 set the
    decider's."""
    (theta0, set0), (theta1, set1) = _set_pair(pa, pb, spec, *laws)
    race, rows = _match_rows(theta0, theta1, spec.q)
    return race, rows, _Laws(set0, set0, set1), theta1


def _set_score_jpmf(theta0, theta1, q: int) -> SetScoreJPMF:
    """The JPMF from the match's rows: each row's shares are the masses of
    A's and B's wins with the loser on ``loser`` sets."""
    race, rows = _match_rows(theta0, theta1, q)
    transient = {(a, b): race.split.mass(a + b, 0, a) for a in range(q + 1) for b in range(q + 1)}
    absorbing = {}
    for row in rows:
        absorbing[(q + 1, row.loser)], absorbing[(row.loser, q + 1)] = row.split_mass()
    return SetScoreJPMF(q=q, absorbing=absorbing, transient=transient)


def match_set_jpmf(pa: float, pb: float, spec: SystemSpec) -> SetScoreJPMF:
    """Exact joint PMF of the final set score.

    Transient states follow the binomial path-count C(a+b, a) theta^a (1-theta)^b;
    a match ends by winning set a+b+1 from (q, b) or (a, q), with the decider
    from (q, q) using k1.
    """
    _check_spec(spec, "match")
    pa, pb = _check_pair(pa, pb, float)
    return _set_score_jpmf(*_set_pair(pa, pb, spec), spec.q)


def match_win_prob(pa, pb, spec: SystemSpec):
    """First player's probability of winning the match.

    Sum of the A-side absorbing masses:

        sum_{b<q} C(q+b, b) theta0^(q+1) (1-theta0)^b
          + C(2q, q) theta0^q (1-theta0)^q * theta1

    clipped at 1 like ``set_win_prob``, since rounding can carry it an ulp
    past.
    """
    _check_spec(spec, "match")
    _check_pair(pa, pb)
    theta0, theta1 = _set_pair(pa, pb, spec)
    return _match_race(theta0, spec.q).win(theta1)


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
    _check_pair(pa, pb)
    _, rows, laws, _ = _match(pa, pb, spec, _game_moments)
    mean, var = _mixture_moments(rows, laws)
    return _scalar_or_array(mean), _scalar_or_array(var)


def match_breakdown(pa: float, pb: float, spec: SystemSpec) -> ScoreBreakdown:
    """Per-final-set-score summary of the match (rows by loser's set count)."""
    _check_spec(spec, "match")
    pa, pb = _check_pair(pa, pb, float)
    race, rows, laws, theta1 = _match(pa, pb, spec, _game_moments)
    return _breakdown("match", rows, laws, race.win(theta1))


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
    pa, pb = _check_pair(pa, pb, float)
    n_max = _check_count("n_max", n_max, minimum=2)
    _, rows, laws, _ = _match(pa, pb, spec, *_pmf_laws(n_max),
                              lambda rows, laws: _pmf_law(_compose_length_law(rows, laws, n_max)))
    return _compose_length_law(rows, laws, n_max)
