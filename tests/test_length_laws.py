"""Set and match point-count laws against the dense full-length composition.

The library composes only the positive part of each law; the oracle convolves
full n_max-long arrays with score masses from its own score walks.  Both must
list the same support (up to subnormal entries at the far edge), agree
entrywise far into the tail, and report the same truncation mass.  Where a
pair race's decisive chance underflows, every length law's moments are
(inf, inf), never NaN.
"""

import math

import numpy as np
import pytest

import oracles
from deuce.bestof import BestOfGamesSpec, bog_match_points_moments
from deuce.match import (MatchSpec, match_breakdown, match_points_distribution,
                         match_points_moments)
from deuce.sets import (set_breakdown, set_points_distribution, set_points_moments,
                        st_points_distribution, st_points_moments, stt_points_distribution)


def assert_matches_dense(dist, ref, ref_truncation):
    n = np.array([n for n, _ in dist.support])
    mass = np.array([m for _, m in dist.support])
    # Whether a sum of subnormal products rounds to 0 or to 5e-324 depends on
    # the order the dot-product kernel accumulates it, so the two supports
    # may differ only by subnormal entries at the far edge.
    lib = np.zeros_like(ref)
    lib[n] = mass
    differ = np.flatnonzero((lib > 0.0) != (ref > 0.0))
    assert np.all(np.maximum(lib[differ], ref[differ]) < np.finfo(float).tiny)
    assert np.all(differ > np.flatnonzero(ref >= np.finfo(float).tiny)[-1])
    normal = ref[n] >= 1e-290
    assert normal.sum() > 0
    rel = np.abs(mass[normal] - ref[n][normal]) / ref[n][normal]
    assert rel.max() <= 1e-12
    assert dist.truncation_mass == pytest.approx(ref_truncation, abs=1e-15)


@pytest.mark.parametrize(
    "pa,pb,k,n_max",
    [
        (0.6, 0.55, 7, 2000),
        (0.55, 0.55, 10, 2000),
        (0.7, 0.4, 7, 3000),
        (0.6, 0.55, 7, 60),
        (0.35, 0.7, 12, 60),
    ],
)
def test_set_points_distribution_matches_dense_reference(pa, pb, k, n_max):
    ref, ref_truncation = oracles.set_points_pmf_dense(pa, pb, k, n_max)
    assert_matches_dense(set_points_distribution(pa, pb, k, n_max), ref, ref_truncation)


@pytest.mark.parametrize(
    "pa,pb,k0,k1,q,n_max",
    [
        (0.6, 0.55, 7, 10, 2, 10_000),
        (0.55, 0.55, 7, 7, 1, 4000),
        (0.65, 0.45, 6, 9, 3, 4000),
        (0.6, 0.55, 7, 10, 2, 200),
        (0.45, 0.6, 7, 7, 3, 200),
    ],
)
def test_match_points_distribution_matches_dense_reference(pa, pb, k0, k1, q, n_max):
    ref, ref_truncation = oracles.match_points_pmf_dense(pa, pb, k0, k1, q, n_max)
    dist = match_points_distribution(pa, pb, MatchSpec(k0, k1, q), n_max)
    assert_matches_dense(dist, ref, ref_truncation)


def _mean_var(law):
    return law.mean, law.variance


# Every length law a pair race can reach, as (mean, variance).
LAWS = {
    "stt_pmf": lambda pa, pb: _mean_var(stt_points_distribution(pa, pb)),
    "st_pmf": lambda pa, pb: _mean_var(st_points_distribution(pa, pb, 7)),
    "set_pmf": lambda pa, pb: _mean_var(set_points_distribution(pa, pb, 7)),
    "match_pmf": lambda pa, pb: _mean_var(match_points_distribution(pa, pb, MatchSpec(), 2000)),
    "st": lambda pa, pb: st_points_moments(pa, pb, 7),
    "set": lambda pa, pb: set_points_moments(pa, pb, 7),
    "match": lambda pa, pb: match_points_moments(pa, pb, MatchSpec()),
    "bog_sttp": lambda pa, pb: bog_match_points_moments(pa, pb, BestOfGamesSpec(3, "sttp")),
    "set_breakdown": lambda pa, pb: _mean_var(set_breakdown(pa, pb, 7)),
    "match_breakdown": lambda pa, pb: _mean_var(match_breakdown(pa, pb, MatchSpec())),
}


# At (5e-324, 0) A sweeps an STT pair with chance 5e-324 and B never does:
# the STT's mean overflows, so every law that can reach it is infinite.
# pytest turns a RuntimeWarning into an error, so none may warn either.
@pytest.mark.parametrize("moments", LAWS.values(), ids=LAWS.keys())
def test_moments_are_infinite_where_the_decisive_chance_underflows(moments):
    assert moments(5e-324, 0.0) == (math.inf, math.inf)


# Below a decisive chance of about 1e-154 the mean is finite and its square
# is not: the variance is inf, in the PMFs too, whose laws compose from
# floats, and no law raises or warns.
@pytest.mark.parametrize("pa", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("moments", LAWS.values(), ids=LAWS.keys())
def test_variance_is_infinite_where_only_the_mean_is_finite(moments, pa):
    mean, var = moments(pa, 0.0)
    assert math.isfinite(mean) and mean > 1.0 / pa
    assert var == math.inf


def test_infinite_cells_leave_the_rest_of_a_match_grid_alone():
    pa, pb = np.array([5e-324, 0.6]), np.array([0.0, 0.55])
    mean, var = match_points_moments(pa, pb, MatchSpec())
    assert mean[0] == var[0] == math.inf
    assert (mean[1], var[1]) == match_points_moments(0.6, 0.55, MatchSpec())
