"""Match level: a negative-binomial race over set wins, with a decider twist."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from deuce.core import (SystemSpec, _Laws, _mixture_moments, _row_moments,
                        binomial_convolution_mass)
from deuce.match import (
    MatchSpec,
    _match_rows,
    _set_score_jpmf,
    match_breakdown,
    match_points_distribution,
    match_points_moments,
    match_set_jpmf,
    match_win_prob,
)
from deuce.sets import set_points_distribution, set_points_moments, set_win_prob

BO5 = MatchSpec(k0=7, k1=10, q=2)


def test_match_spec_validation():
    assert MatchSpec().q == 2
    assert MatchSpec(q=1).q == 1
    with pytest.raises(ValueError):
        MatchSpec(k0=1)
    with pytest.raises(ValueError):
        MatchSpec(k1=0)
    with pytest.raises(ValueError):
        MatchSpec(q=0)
    with pytest.raises(ValueError):
        MatchSpec(q=True)
    with pytest.raises(ValueError):
        MatchSpec(k1=True)


@pytest.mark.parametrize("fn", [match_set_jpmf, match_win_prob, match_points_moments,
                                match_breakdown, match_points_distribution])
@pytest.mark.parametrize("spec", [SystemSpec("set"), SystemSpec("bog", l=3), (7, 7, 2)],
                         ids=["set", "bog", "tuple"])
def test_match_functions_reject_a_spec_of_another_kind(fn, spec):
    with pytest.raises(ValueError, match="SystemSpec of kind 'match'"):
        fn(0.6, 0.55, spec)


def test_jpmf_partitions_unit_mass():
    for pa, pb, spec in (
        (0.6, 0.55, BO5),
        (0.3, 0.8, MatchSpec(q=1)),
        (0.5, 0.5, MatchSpec(k0=9, k1=7, q=3)),
        (0.05, 0.95, BO5),
    ):
        jpmf = match_set_jpmf(pa, pb, spec)
        assert jpmf.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert len(jpmf.absorbing) == 2 * (spec.q + 1)
        assert jpmf.transient[(0, 0)] == 1.0


def test_jpmf_set_score_probabilities():
    # Exact values: theta_S(K=7)=0.6694778, theta_S(K=10)=0.6713558, both
    # confirmed by the joint score-walk DP.  The reference table's 3-2 cell
    # prints .196 where the exact mass is .19723 — inconsistent with its own
    # 2-3 cell (.097, which matches) since the pair must sum to
    # C(4,2)theta^2(1-theta)^2 = .29405; we pin the exact value.
    jpmf = match_set_jpmf(0.6, 0.55, BO5)
    assert jpmf.absorbing[(3, 0)] == pytest.approx(0.300, abs=1e-3)
    assert jpmf.absorbing[(3, 1)] == pytest.approx(0.297, abs=1e-3)
    assert jpmf.absorbing[(3, 2)] == pytest.approx(0.197232, abs=5e-5)
    assert jpmf.absorbing[(0, 3)] == pytest.approx(0.036, abs=1e-3)
    assert jpmf.absorbing[(1, 3)] == pytest.approx(0.072, abs=1e-3)
    assert jpmf.absorbing[(2, 3)] == pytest.approx(0.097, abs=1e-3)


def test_win_prob_equals_jpmf_sum():
    rng = np.random.default_rng(20260815)
    for _ in range(10):
        pa, pb = rng.uniform(0.05, 0.95, size=2)
        spec = MatchSpec(k0=7, k1=int(rng.integers(2, 12)), q=int(rng.integers(1, 4)))
        assert match_win_prob(pa, pb, spec) == pytest.approx(
            match_set_jpmf(pa, pb, spec).win_prob_first(), abs=1e-14
        )


@pytest.mark.parametrize(
    "pa, pb, theta",
    [
        (0.6, 0.55, 0.795),
        (0.5, 0.6, 0.0488),
        (0.6, 0.5, 0.9512),
        (0.8, 0.6, 0.9980),
        # the reference table prints .8978 here, contradicting its own row:
        # the mean/std cells of that row match the exact computation to 1e-4
        # (same theta_S), and no format variant reproduces .8978
        (0.9, 0.8, 0.912997),
    ],
)
def test_win_prob_reference_values(pa, pb, theta):
    assert match_win_prob(pa, pb, BO5) == pytest.approx(theta, abs=5e-4)


def test_fairness_at_equal_abilities():
    for p in np.linspace(0.05, 0.95, 19):
        for spec in (BO5, MatchSpec(k0=8, k1=8, q=1)):
            assert abs(match_win_prob(p, p, spec) - 0.5) < 1e-12


def test_reversal_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(12):
        pa, pb = rng.uniform(0.05, 0.95, size=2)
        assert match_win_prob(pa, pb, BO5) == pytest.approx(
            match_win_prob(1 - pb, 1 - pa, BO5), abs=1e-12
        )


def test_length_law_is_not_reversal_invariant():
    # Reversal (pa,pb) -> (qb,qa) preserves every win probability but swaps
    # the per-game win rates between the two serve slots, and score categories
    # split serve counts unevenly (a 6-1 set has four games on one serve,
    # three on the other) — so point-count moments genuinely move.  Guard
    # against "simplifying" the moments with the tempting false symmetry.
    m1, _ = match_points_moments(0.6, 0.85, BO5)
    m2, _ = match_points_moments(0.15, 0.4, BO5)
    assert abs(m1 - m2) > 1.0


def _explicit_serve_split_route(pa, pb, spec):
    """Win probability via the alternating-set-opener decomposition.

    A opens the odd-numbered sets.  The probability A wins an A-opened set
    and the probability A wins a B-opened set are computed through different
    code paths (the latter as the complement with the players swapped); the
    race to q+1 set wins is then split by how many of the first q+b sets were
    A-opened, exactly mirroring the point-level serve-split sums.
    """
    win_a_opened = set_win_prob(pa, pb, spec.k0)
    win_b_opened = 1.0 - set_win_prob(pb, pa, spec.k0)
    q = spec.q
    total = 0.0
    for b in range(q):
        played = q + b
        opened_by_a = (played + 1) // 2
        head = binomial_convolution_mass(
            opened_by_a, win_a_opened, played - opened_by_a, win_b_opened, q
        )
        clincher_a_opened = (q + 1 + b) % 2 == 1
        total += head * (win_a_opened if clincher_a_opened else win_b_opened)
    opened_by_a = (2 * q + 1) // 2
    reach_decider = binomial_convolution_mass(
        opened_by_a, win_a_opened, 2 * q - opened_by_a, win_b_opened, q
    )
    # set 2q+1 is odd-numbered, so the decider is A-opened
    return total + reach_decider * set_win_prob(pa, pb, spec.k1)


def test_win_prob_agrees_with_explicit_serve_split_route():
    rng = np.random.default_rng(321)
    specs = [MatchSpec(7, 7, 1), BO5, MatchSpec(9, 7, 3), MatchSpec(10, 10, 2)]
    for spec in specs:
        for _ in range(6):
            pa, pb = rng.uniform(0.05, 0.95, size=2)
            assert match_win_prob(pa, pb, spec) == pytest.approx(
                _explicit_serve_split_route(pa, pb, spec), abs=1e-10
            )
    # pin the disputed grid point through the independent route as well
    assert _explicit_serve_split_route(0.9, 0.8, BO5) == pytest.approx(
        0.912997, abs=5e-7
    )


def test_longer_format_discriminates_harder():
    # with theta_S > 1/2 the better player should prefer more sets
    thetas = [
        match_win_prob(0.6, 0.55, MatchSpec(k0=7, k1=10, q=q)) for q in (1, 2, 3)
    ]
    assert thetas[0] < thetas[1] < thetas[2]
    assert all(t > set_win_prob(0.6, 0.55, 7) for t in thetas)


@pytest.mark.parametrize(
    "pa, pb, theta, mean, std",
    [
        (0.5, 0.5, 0.5, 271.8082, 61.7407),
        (0.5, 0.6, 0.0488, 222.9703, 53.9818),
        (0.6, 0.5, 0.9512, 220.5927, 53.7999),
        (0.8, 0.6, 0.9980, 177.4933, 36.0239),
        (0.9, 0.8, 0.912997, 253.8929, 57.2131),  # see win-prob test re .8978
        (0.9, 0.9, 0.5, 287.4960, 59.4101),
    ],
)
def test_moments_reference_grid(pa, pb, theta, mean, std):
    assert match_win_prob(pa, pb, BO5) == pytest.approx(theta, abs=5e-4)
    m, v = match_points_moments(pa, pb, BO5)
    assert m == pytest.approx(mean, abs=1e-2)
    assert np.sqrt(v) == pytest.approx(std, abs=1e-2)


def test_breakdown_reference_table():
    b = match_breakdown(0.6, 0.55, BO5)
    expected = {
        "3-0": (0.300, 0.036, 193.056, 801.811),
        "3-1": (0.297, 0.072, 257.408, 1069.082),
        # exact 3-2 mass is .19723 (the reference table's .196 is inconsistent
        # with its own 2-3 and overall cells; see the JPMF test)
        "3-2": (0.197232, 0.097, 322.488, 1378.232),
    }
    for score, (p_a, p_b, cm, cv) in expected.items():
        row = b.row(score)
        assert row.p_first_wins == pytest.approx(p_a, abs=1e-3)
        assert row.p_second_wins == pytest.approx(p_b, abs=1e-3)
        assert row.cond_mean == pytest.approx(cm, abs=0.1)
        assert row.cond_var == pytest.approx(cv, abs=0.1)
    assert b.win_prob == pytest.approx(0.795, abs=1e-3)
    assert b.mean == pytest.approx(254.894, abs=0.05)
    assert b.variance == pytest.approx(3700.152, abs=5.0)


def test_breakdown_internal_consistency():
    for pa, pb, spec in ((0.6, 0.55, BO5), (0.35, 0.7, MatchSpec(q=1))):
        b = match_breakdown(pa, pb, spec)
        assert b.probability_total() == pytest.approx(1.0, abs=1e-9)
        assert sum(r.p_first_wins for r in b.rows) == pytest.approx(
            b.win_prob, abs=1e-12
        )
        weighted = sum(r.p_total * r.cond_mean for r in b.rows)
        assert weighted == pytest.approx(b.mean, abs=1e-9)


@pytest.mark.parametrize("spec", [BO5, MatchSpec(6, 9, 3), MatchSpec(7, 7, 1)],
                         ids=["7-10-2", "6-9-3", "7-7-1"])
def test_moments_and_breakdown_compose_the_public_set_layer(spec):
    # One shared set-layer evaluation must give exactly what composing the
    # public set functions at each target gives, value for value.
    c = np.linspace(0.05, 0.95, 7)
    for pa, pb in ((c[:, None], c[None, :]), (0.64, 0.58), (0.3, 0.71)):
        theta0 = set_win_prob(pa, pb, spec.k0)
        _, rows = _match_rows(theta0, set_win_prob(pa, pb, spec.k1), spec.q)
        set0 = set_points_moments(pa, pb, spec.k0)
        laws = _Laws(set0, set0, set_points_moments(pa, pb, spec.k1))
        mean, var = _mixture_moments(rows, laws)
        got_mean, got_var = match_points_moments(pa, pb, spec)
        assert np.array_equal(got_mean, mean) and np.array_equal(got_var, var)
        if np.ndim(pa):
            continue
        b = match_breakdown(pa, pb, spec)
        assert [(r.cond_mean, r.cond_var) for r in b.rows] == [
            (float(m), float(v)) for m, v in _row_moments(rows, laws)]
        assert (b.mean, b.variance) == (float(mean), float(var))
        q = spec.q
        absorbing = _set_score_jpmf(theta0, set_win_prob(pa, pb, spec.k1), q).absorbing
        assert [(r.p_first_wins, r.p_second_wins) for r in b.rows] == [
            (absorbing[(q + 1, i)], absorbing[(i, q + 1)]) for i in range(q + 1)]
        assert b.win_prob == match_win_prob(pa, pb, spec)


def test_match_moments_vs_exact_process():
    # The mean is exact for the true process everywhere.  The variance keeps
    # the set layer's score-conditional convention, and the gap widens here:
    # a set's length is correlated with who won it (the underdog's wins run
    # long), so matches that go the distance are longer than the conditional
    # decomposition credits.  At (0.6,0.55) the true variance is ~8% above
    # the conventional figure; at p_A=p_B=1/2 the two coincide exactly.
    for pa, pb, var_rel in ((0.5, 0.5, 1e-12), (0.6, 0.6, 5e-3), (0.6, 0.55, 0.08)):
        mean, var = match_points_moments(pa, pb, BO5)
        t_mean, t_var = oracles.match_true_points_moments(pa, pb, 7, 10, 2)
        assert mean == pytest.approx(t_mean, rel=1e-9)
        assert var == pytest.approx(t_var, rel=var_rel)
    # the convention gap at (0.6,0.55) is genuine, not numerical noise
    _, var = match_points_moments(0.6, 0.55, BO5)
    _, t_var = oracles.match_true_points_moments(0.6, 0.55, 7, 10, 2)
    assert t_var - var > 250.0


def test_degenerate_pair_sweeps_in_straight_sets():
    # pa=1, pb=0: A wins every point, so every set is 6-0 in 24 points
    assert match_win_prob(1.0, 0.0, BO5) == 1.0
    mean, var = match_points_moments(1.0, 0.0, BO5)
    assert mean == pytest.approx(72.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)
    assert match_set_jpmf(1.0, 0.0, BO5).absorbing[(3, 0)] == 1.0


def test_win_prob_and_moments_broadcast():
    pa = np.linspace(0.2, 0.8, 7)
    theta = match_win_prob(pa, 0.5, BO5)
    mean, var = match_points_moments(pa, 0.5, BO5)
    assert theta.shape == mean.shape == var.shape == (7,)
    for i, p in enumerate(pa):
        assert theta[i] == pytest.approx(match_win_prob(float(p), 0.5, BO5))
        m, v = match_points_moments(float(p), 0.5, BO5)
        assert mean[i] == pytest.approx(m)
        assert var[i] == pytest.approx(v)


@given(
    pa=st.floats(min_value=0.05, max_value=0.95),
    pb=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=40, deadline=None)
def test_match_win_prob_properties(pa, pb):
    theta = match_win_prob(pa, pb, BO5)
    assert 0.0 <= theta <= 1.0
    assert theta == pytest.approx(match_win_prob(1 - pb, 1 - pa, BO5), abs=1e-12)


def test_match_points_distribution_bookkeeping():
    dist = match_points_distribution(0.6, 0.55, BO5)
    assert dist.total_mass() + dist.truncation_mass == pytest.approx(1.0, abs=1e-12)
    t_mean, t_var = dist.truncated_moments()
    assert t_mean == pytest.approx(dist.mean, abs=1e-8)
    assert t_var == pytest.approx(dist.variance, abs=1e-5)
    mean, var = match_points_moments(0.6, 0.55, BO5)
    assert dist.mean == pytest.approx(mean)
    assert dist.variance == pytest.approx(var)


def test_match_points_distribution_floor_is_three_minimal_sets():
    pa, pb = 0.6, 0.55
    dist = match_points_distribution(pa, pb, BO5)
    set_floor = dict(set_points_distribution(pa, pb, BO5.k0).support)[24]
    jpmf = match_set_jpmf(pa, pb, BO5).absorbing
    sweep = jpmf[(3, 0)] + jpmf[(0, 3)]
    n0, m0 = dist.support[0]
    assert n0 == 72
    assert m0 == pytest.approx(sweep * set_floor**3, rel=1e-10, abs=0)


@pytest.mark.parametrize("pa,pb", [(0.05, 0.05), (0.95, 0.95), (0.5, 0.5)])
def test_match_points_distribution_mass_at_default_cap(pa, pb):
    dist = match_points_distribution(pa, pb, BO5)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)
