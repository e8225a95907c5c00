"""Set and match point-count laws against the dense full-length composition.

The library composes only the positive part of each law; the oracle convolves
full n_max-long arrays with score masses from its own score walks.  Both must
list the same support (up to subnormal entries at the far edge), agree
entrywise far into the tail, and report the same truncation mass.
"""

import numpy as np
import pytest

import oracles
from deuce.match import MatchSpec, match_points_distribution
from deuce.sets import set_points_distribution


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
