"""Oracle-relative efficiency functionals under beta priors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp
from scipy import integrate, stats

from deuce.bestof import BestOfGamesSpec, bofk_win_prob, bog_match_win_prob
from deuce.core import (
    QuadratureError,
    SystemSpec,
    binomial_convolution_mass,
    first_server_on_point,
    serves_by_first_server,
)
from deuce.efficiency import (
    _BLOCK_NODES,
    BetaPrior,
    _axis_nodes,
    _eff_two_parts,
    efficiency_one_param,
    efficiency_two_param,
)
from deuce.game import game_win_prob, gt_win_prob
from deuce.match import MatchSpec, match_win_prob
from deuce.sets import set_win_prob, st_win_prob, stt_win_prob

# ---------------------------------------------------------------------------
# One-parameter systems.

ONE_PARAM_CURVES = {
    "gt": gt_win_prob,
    "game": game_win_prob,
    "bof7": lambda p: bofk_win_prob(p, 3),
    "bof9": lambda p: bofk_win_prob(p, 4),
    "bof11": lambda p: bofk_win_prob(p, 5),
}

# Reference efficiencies, printed to four decimals, for five systems across
# six beta priors.  The (1,1), (1,2) and (2,1) columns are identical: every
# curve here satisfies theta(1-p) = 1 - theta(p), so Eff under Be(a,b) equals
# Eff under Be(b,a), and the (1,2)/(2,1) density average is the uniform.
ONE_PARAM_REFERENCE = {
    "gt": {(0.5, 0.5): 0.7935, (0.5, 1): 0.7738, (1, 1): 0.6931,
           (1, 2): 0.6931, (2, 1): 0.6931, (3, 1): 0.7500},
    "game": {(0.5, 0.5): 0.8378, (0.5, 1): 0.8214, (1, 1): 0.7537,
             (1, 2): 0.7537, (2, 1): 0.7537, (3, 1): 0.8046},
    "bof7": {(0.5, 0.5): 0.8188, (0.5, 1): 0.8008, (1, 1): 0.7265,
             (1, 2): 0.7265, (2, 1): 0.7265, (3, 1): 0.7812},
    "bof9": {(0.5, 0.5): 0.8382, (0.5, 1): 0.8217, (1, 1): 0.7539,
             (1, 2): 0.7539, (2, 1): 0.7539, (3, 1): 0.8051},
    "bof11": {(0.5, 0.5): 0.8524, (0.5, 1): 0.8372, (1, 1): 0.7744,
              (1, 2): 0.7744, (2, 1): 0.7744, (3, 1): 0.8227},
}


@pytest.mark.parametrize("name", list(ONE_PARAM_REFERENCE))
def test_one_param_reference_values(name):
    curve = ONE_PARAM_CURVES[name]
    for (a, b), expected in ONE_PARAM_REFERENCE[name].items():
        got = efficiency_one_param(curve, BetaPrior(a, b)).value
        assert got == pytest.approx(expected, abs=1e-3), (name, a, b)


def test_gt_uniform_prior_efficiency_is_log_two():
    # 2 * integral_{1/2}^{1} (2 theta_GT - 1) dp has the closed form ln 2.
    report = efficiency_one_param(gt_win_prob, BetaPrior(1, 1))
    assert report.value == pytest.approx(math.log(2.0), abs=1e-10)


@pytest.mark.parametrize("name", list(ONE_PARAM_CURVES))
def test_reflected_priors_give_identical_efficiency(name):
    curve = ONE_PARAM_CURVES[name]
    e12 = efficiency_one_param(curve, BetaPrior(1, 2)).value
    e21 = efficiency_one_param(curve, BetaPrior(2, 1)).value
    e11 = efficiency_one_param(curve, BetaPrior(1, 1)).value
    assert e12 == pytest.approx(e21, abs=1e-12)
    assert e12 == pytest.approx(e11, abs=1e-12)


def test_monotone_system_ordering_under_be21():
    prior = BetaPrior(2, 1)
    vals = {n: efficiency_one_param(c, prior).value for n, c in ONE_PARAM_CURVES.items()}
    assert vals["gt"] < vals["bof7"] < vals["game"] < vals["bof9"] < vals["bof11"]


def test_random_and_oracle_systems_bracket_the_scale():
    assert efficiency_one_param(lambda p: 0.5 * np.ones_like(p), BetaPrior(2, 1)).value == pytest.approx(0.0, abs=1e-12)
    oracle = lambda p: np.where(p > 0.5, 1.0, np.where(p < 0.5, 0.0, 0.5))
    assert efficiency_one_param(oracle, BetaPrior(2, 1)).value == pytest.approx(1.0, abs=1e-9)
    flat = lambda a, b: 0.5 * np.ones(np.broadcast(a, b).shape)
    assert efficiency_two_param(flat, (BetaPrior(2, 1), BetaPrior(2, 1))).value == pytest.approx(0.0, abs=1e-12)
    step = lambda a, b: np.where(a > b, 1.0, np.where(a < b, 0.0, 0.5))
    assert efficiency_two_param(step, (BetaPrior(2, 1), BetaPrior(3, 2))).value == pytest.approx(1.0, abs=1e-9)


# The sin^2 substitution bounds endpoint singularities only down to
# alpha, beta = 0.5 (exponent -1/2 maps to 0); sharper spikes converge too
# slowly and raise, so the property runs over the supported prior family.
@settings(max_examples=12, deadline=None)
@given(
    a=hyp.floats(min_value=0.5, max_value=5.0),
    b=hyp.floats(min_value=0.5, max_value=5.0),
)
def test_prior_swap_invariance_for_reflection_symmetric_curve(a, b):
    fwd = efficiency_one_param(gt_win_prob, BetaPrior(a, b)).value
    rev = efficiency_one_param(gt_win_prob, BetaPrior(b, a)).value
    assert fwd == pytest.approx(rev, abs=1e-9)
    assert 0.0 <= fwd <= 1.0


# ---------------------------------------------------------------------------
# Two-parameter systems.

PRIOR_COLS = {
    1: (BetaPrior(2, 1), BetaPrior(2, 1)),
    2: (BetaPrior(3, 2), BetaPrior(2.5, 2)),
}


def swapped_tie_st(pa, pb, k):
    """ST variant crediting the (K-1,K-1) continuation to the wrong player.

    When the first continuation point is B-served (even K), the tie
    coefficient theta_STT is replaced by 1 - theta_STT — the bookkeeping slip
    of complementing without swapping the serve arguments.  The true process
    is rotation-invariant here (1 - theta_STT(pB,pA) = theta_STT(pA,pB)
    exactly), so this variant only exists to pin reference-grid cells
    generated with the slip; the library itself never computes it.
    """
    if first_server_on_point(2 * k - 1):
        return st_win_prob(pa, pb, k)
    n = 2 * k - 2
    s_a = serves_by_first_server(n)
    tie = binomial_convolution_mass(s_a, pa, n - s_a, 1.0 - pb, k - 1)
    return st_win_prob(pa, pb, k) - tie * (2.0 * stt_win_prob(pa, pb) - 1.0)


def set_with_swapped_tie(pa, pb, k):
    """Set whose 6-6 tie-breaker uses ``swapped_tie_st``."""
    wa = game_win_prob(pa)
    wb = 1.0 - game_win_prob(pb)
    reach = binomial_convolution_mass(5, wa, 5, wb, 5)
    p66 = reach * (wa * (1.0 - wb) + (1.0 - wa) * wb)
    return set_win_prob(pa, pb, k) + p66 * (swapped_tie_st(pa, pb, k) - st_win_prob(pa, pb, k))


def first_to_two_sets(theta0, theta1):
    """Win probability of a first-to-2-sets race (decider strength theta1)."""
    return theta0**2 + 2.0 * theta0 * (1.0 - theta0) * theta1


TRUE_SURFACES = {
    "stt": stt_win_prob,
    "st7": lambda a, b: st_win_prob(a, b, 7),
    "st8": lambda a, b: st_win_prob(a, b, 8),
    "st9": lambda a, b: st_win_prob(a, b, 9),
    "st10": lambda a, b: st_win_prob(a, b, 10),
    "set7": lambda a, b: set_win_prob(a, b, 7),
    "set8": lambda a, b: set_win_prob(a, b, 8),
    "set9": lambda a, b: set_win_prob(a, b, 9),
    "set10": lambda a, b: set_win_prob(a, b, 10),
    "m772": lambda a, b: match_win_prob(a, b, MatchSpec(7, 7, 2)),
    "m7102": lambda a, b: match_win_prob(a, b, MatchSpec(7, 10, 2)),
}
for _tb, _tag in (("sg", "bofk1"), ("sttg", "bofk2"), ("sttp", "bofk3")):
    for _l in (5, 15, 22, 29):
        TRUE_SURFACES[f"{_tag}_l{_l}"] = (
            lambda a, b, s=BestOfGamesSpec(_l, _tb): bog_match_win_prob(a, b, s)
        )

VARIANT_SURFACES = {
    "st8_swap": lambda a, b: swapped_tie_st(a, b, 8),
    "st10_swap": lambda a, b: swapped_tie_st(a, b, 10),
    "set8_swap": lambda a, b: set_with_swapped_tie(a, b, 8),
    "set10_swap": lambda a, b: set_with_swapped_tie(a, b, 10),
    "m772_two_sets": lambda a, b: first_to_two_sets(
        set_win_prob(a, b, 7), set_win_prob(a, b, 7)
    ),
    "m7102_two_sets": lambda a, b: first_to_two_sets(
        set_win_prob(a, b, 7), set_with_swapped_tie(a, b, 10)
    ),
}

# Frozen values of this module's quadrature (panels=8, order=20, refined
# value) over the true surfaces; regression pins, not external targets.
TWO_PARAM_TRUE = {
    "stt": (0.5607445344, 0.4601674621),
    "st7": (0.6670041078, 0.5928595957),
    "st8": (0.6812461984, 0.6103116475),
    "st9": (0.6938294960, 0.6257173608),
    "st10": (0.7050414090, 0.6394380403),
    "set7": (0.7745464446, 0.7578603202),
    "set8": (0.7782923817, 0.7603772223),
    "set9": (0.7818107603, 0.7627154629),
    "set10": (0.7851090382, 0.7648911795),
    "m772": (0.8747294449, 0.8651137601),
    "m7102": (0.8761148525, 0.8660649951),
    "bofk1_l5": (0.6251010487, 0.6939438898),
    "bofk1_l15": (0.7356092321, 0.8056751084),
    "bofk1_l22": (0.7688025934, 0.8366195397),
    "bofk1_l29": (0.7907221717, 0.8562779557),
    "bofk2_l5": (0.8447013472, 0.7930089417),
    "bofk2_l15": (0.8772003584, 0.8502094399),
    "bofk2_l22": (0.8888072175, 0.8693423577),
    "bofk2_l29": (0.8969490367, 0.8823021390),
    "bofk3_l5": (0.7453269469, 0.7308623065),
    "bofk3_l15": (0.8142338626, 0.8233799072),
    "bofk3_l22": (0.8354581084, 0.8497751932),
    "bofk3_l29": (0.8496783771, 0.8667972712),
}

# Two-parameter reference grid, printed to four decimals.
TWO_PARAM_REFERENCE = {
    "stt": (0.6134, 0.5353),
    "st7": (0.6666, 0.5928),
    "st8": (0.5509, 0.5151),
    "st9": (0.6934, 0.6257),
    "st10": (0.6056, 0.5668),
    "set7": (0.7741, 0.7578),
    "set8": (0.7096, 0.7402),
    "set9": (0.7814, 0.7627),
    "set10": (0.7297, 0.7485),
    "m772": (0.8444, 0.8329),
    "m7102": (0.8338, 0.8304),
    "bofk1_l5": (0.6249, 0.6939),
    "bofk1_l15": (0.7353, 0.8056),
    "bofk1_l22": (0.7685, 0.8366),
    "bofk1_l29": (0.7904, 0.8562),
    "bofk2_l5": (0.8443, 0.7930),
    "bofk2_l15": (0.8768, 0.8502),
    "bofk2_l22": (0.8884, 0.8693),
    "bofk2_l29": (0.9002, 0.8823),
    "bofk3_l5": (0.7449, 0.7308),
    "bofk3_l15": (0.8271, 0.8233),
    "bofk3_l22": (0.8350, 0.8497),
    "bofk3_l29": (0.8556, 0.8667),
}

# How each reference cell was generated.  Even-K ST/Set cells carry the
# swapped-tie slip; the match rows were produced by a first-to-2-sets race
# (with the swapped-tie decider for k1=10); the stt column-1 cell was
# integrated against the uniform prior instead of the stated one.
REFERENCE_CONVENTION = {
    ("st8", 1): "st8_swap", ("st8", 2): "st8_swap",
    ("st10", 1): "st10_swap", ("st10", 2): "st10_swap",
    ("set8", 1): "set8_swap", ("set8", 2): "set8_swap",
    ("set10", 1): "set10_swap", ("set10", 2): "set10_swap",
    ("m772", 1): "m772_two_sets", ("m772", 2): "m772_two_sets",
    ("m7102", 1): "m7102_two_sets", ("m7102", 2): "m7102_two_sets",
    ("stt", 1): "stt_uniform",
}

# Cells that match no construction we could identify.  Column 2 of the same
# rows agrees with the true surfaces, so these four are pinned as
# disagreements rather than asserted.
RESIDUAL_CELLS = {("stt", 2), ("bofk2_l29", 1), ("bofk3_l15", 1), ("bofk3_l29", 1)}

STT_UNIFORM_FROZEN = 0.6137056197


def _report(surface, priors):
    return efficiency_two_param(surface, priors, panels=8, order=20, tol=5e-4)


@pytest.fixture(scope="module")
def two_param_reports():
    reports = {}
    for label, fn in {**TRUE_SURFACES, **VARIANT_SURFACES}.items():
        reports[label] = (_report(fn, PRIOR_COLS[1]), _report(fn, PRIOR_COLS[2]))
    reports["stt_uniform"] = _report(stt_win_prob, (BetaPrior(1, 1), BetaPrior(1, 1)))
    return reports


@pytest.fixture(scope="module")
def two_param_values(two_param_reports):
    return {
        label: report.value if label == "stt_uniform" else tuple(r.value for r in report)
        for label, report in two_param_reports.items()
    }


@pytest.mark.parametrize("label", list(TWO_PARAM_TRUE))
def test_two_param_true_values_frozen(two_param_values, label):
    got = two_param_values[label]
    expected = TWO_PARAM_TRUE[label]
    assert got[0] == pytest.approx(expected[0], abs=1e-7)
    assert got[1] == pytest.approx(expected[1], abs=1e-7)


@pytest.mark.parametrize("label", list(TWO_PARAM_REFERENCE))
def test_reference_grid_agreement(two_param_values, label):
    for col in (1, 2):
        if (label, col) in RESIDUAL_CELLS:
            continue
        key = REFERENCE_CONVENTION.get((label, col), label)
        got = two_param_values[key]
        got = got if isinstance(got, float) else got[col - 1]
        assert got == pytest.approx(TWO_PARAM_REFERENCE[label][col - 1], abs=2e-3), (label, col, key)


def test_residual_reference_cells_disagree_with_true_surfaces(two_param_values):
    # Documented leftovers: no construction reproduces these printed values.
    for label, col in sorted(RESIDUAL_CELLS):
        true_val = two_param_values[label][col - 1]
        printed = TWO_PARAM_REFERENCE[label][col - 1]
        assert abs(true_val - printed) > 2e-3, (label, col)


def test_stt_uniform_prior_value_frozen(two_param_values):
    assert two_param_values["stt_uniform"] == pytest.approx(STT_UNIFORM_FROZEN, abs=1e-7)


def test_true_st_efficiency_is_monotone_in_k(two_param_values):
    for col in (0, 1):
        seq = [two_param_values[f"st{k}"][col] for k in (7, 8, 9, 10)]
        assert seq == sorted(seq)
        sets = [two_param_values[f"set{k}"][col] for k in (7, 8, 9, 10)]
        assert sets == sorted(sets)


def test_swapped_tie_variant_zigzags_over_k(two_param_values):
    # The slip family alternates: even-K values drop below both neighbours.
    assert two_param_values["st8_swap"][0] < two_param_values["st7"][0]
    assert two_param_values["st9"][0] > two_param_values["st8_swap"][0]
    assert two_param_values["st10_swap"][0] < two_param_values["st9"][0]


def test_swapped_tie_st_equals_true_st_for_odd_k():
    # For odd K the slip reproduces the true coefficient exactly.
    pa, pb = np.meshgrid(np.linspace(0.1, 0.9, 9), np.linspace(0.1, 0.9, 9))
    np.testing.assert_allclose(swapped_tie_st(pa, pb, 7), st_win_prob(pa, pb, 7), atol=1e-13)


def test_triangle_contributions_match_for_symmetric_surface():
    lower, upper, _ = _eff_two_parts(stt_win_prob, BetaPrior(2, 1), BetaPrior(2, 1), 8, 20)
    assert lower == pytest.approx(upper, abs=1e-12)


def _full_grid_two_param(surface, prior_a, prior_b, panels, order):
    """(value, error estimate) with the surface called once on each whole triangle.

    As in the library, the refined rule weights the upper triangle's values
    by the lower triangle's density when the coarse rule finds the surface
    antisymmetric to 1e-12, and evaluates the lower triangle otherwise.
    """

    def parts(n_panels, mirror):
        soften = prior_a.endpoint_singular or prior_b.endpoint_singular
        nodes, weights = _axis_nodes(n_panels, order, soften)
        x, t = nodes[:, None], nodes[None, :]
        w2 = weights[:, None] * weights[None, :]
        theta_upper = np.asarray(surface(np.broadcast_to(x, w2.shape), t * x), dtype=float)
        edge = w2 * (2.0 * theta_upper - 1.0)
        upper = float(np.sum(edge * (prior_a.pdf(x) * prior_b.pdf(t * x)) * x))
        dens = prior_a.pdf(t * x) * prior_b.pdf(x)
        if mirror:
            return float(np.sum(edge * dens * x)) + upper, None
        theta = np.asarray(surface(t * x, np.broadcast_to(x, w2.shape)), dtype=float)
        lower = float(np.sum(w2 * (1.0 - 2.0 * theta) * dens * x))
        return lower + upper, np.max(np.abs(theta + theta_upper - 1.0))

    coarse, residual = parts(panels, False)
    fine, _ = parts(2 * panels, residual <= 1e-12)
    return fine, abs(fine - coarse)


def first_server_edge(pa, pb):
    """A surface that is not antisymmetric: the first server gains 0.05 * pA."""
    return 0.9 * stt_win_prob(pa, pb) + 0.05 * pa


@pytest.mark.parametrize(
    "surface",
    [
        lambda a, b: st_win_prob(a, b, 7),
        lambda a, b: match_win_prob(a, b, MatchSpec(7, 10, 2)),
        first_server_edge,
    ],
    ids=["st7", "m7102", "first_server_edge"],
)
def test_blocked_surface_evaluation_is_exact(surface):
    # 4 panels of order 12 give 48^2 nodes per coarse triangle (one block)
    # and 96^2 = 9216 per fine one: two full blocks and a partial one.
    seen = []

    def spy(a, b):
        seen.append(np.size(a))
        return surface(a, b)

    prior_a, prior_b = PRIOR_COLS[2]
    report = efficiency_two_param(spy, (prior_a, prior_b), panels=4, order=12)
    assert max(seen) <= _BLOCK_NODES
    assert 96 * 96 > _BLOCK_NODES and len(seen) > 4
    value, error = _full_grid_two_param(surface, prior_a, prior_b, 4, 12)
    assert report.value == value
    assert report.quadrature_error_estimate == error


@pytest.mark.parametrize(
    "surface, points",
    [(stt_win_prob, 153_600), (first_server_edge, 256_000)],
    ids=["antisymmetric", "first_server_edge"],
)
def test_refined_rule_reads_an_antisymmetric_surface_once(surface, points):
    # panels=8, order=20: each coarse triangle has 160^2 = 25 600 nodes and
    # each refined one 320^2 = 102 400.  The refined lower triangle is read
    # only when the surface is not antisymmetric.
    seen = []

    def spy(a, b):
        seen.append(np.size(a))
        return surface(a, b)

    report = efficiency_two_param(spy, PRIOR_COLS[1], panels=8, order=20)
    assert sum(seen) == report.surface_points == points
    assert (report.antisymmetry_residual <= 1e-12) == (points == 153_600)


def test_every_table_surface_is_antisymmetric(two_param_reports):
    # The coarse residual max |θ(pB, pA) + θ(pA, pB) - 1| of every true and
    # variant surface under both prior columns, so each refined rule mirrors.
    for label in {**TRUE_SURFACES, **VARIANT_SURFACES}:
        for report in two_param_reports[label]:
            assert report.antisymmetry_residual <= 1e-12, label
            assert report.surface_points == 153_600, label


def test_one_param_report_counts_curve_points():
    report = efficiency_one_param(game_win_prob, BetaPrior(2, 1), panels=16, order=20)
    assert report.surface_points == 6 * 16 * 20
    assert report.antisymmetry_residual is None


def test_refinement_stays_within_reported_error():
    priors = (BetaPrior(2, 1), BetaPrior(2, 1))
    coarse = efficiency_two_param(TRUE_SURFACES["st7"], priors, panels=8, order=20, tol=5e-4)
    fine = efficiency_two_param(TRUE_SURFACES["st7"], priors, panels=16, order=20, tol=5e-4)
    assert abs(fine.value - coarse.value) <= coarse.quadrature_error_estimate


def test_scipy_cross_check_stt_efficiency():
    dens = lambda a, b: stats.beta.pdf(a, 2, 1) * stats.beta.pdf(b, 2, 1)
    upper, _ = integrate.dblquad(
        lambda b, a: (2.0 * stt_win_prob(a, b) - 1.0) * dens(a, b),
        0.0, 1.0, 0.0, lambda a: a, epsabs=1e-10,
    )
    lower, _ = integrate.dblquad(
        lambda b, a: (1.0 - 2.0 * stt_win_prob(a, b)) * dens(a, b),
        0.0, 1.0, lambda a: a, 1.0, epsabs=1e-10,
    )
    assert upper + lower == pytest.approx(TWO_PARAM_TRUE["stt"][0], abs=1e-6)


def test_quadrature_failure_raises_with_best_estimate():
    # Beta(1, 0.375) spikes harder at p=1 than the softening substitution can
    # flatten, so the default tolerance is unreachable and the error carries
    # the best estimate.
    with pytest.raises(QuadratureError) as err:
        efficiency_one_param(gt_win_prob, BetaPrior(1, 0.375))
    assert 0.0 < err.value.estimate < 1.0
    assert err.value.error_estimate > 1e-5

    noisy = lambda a, b: 0.5 + 0.4 * np.sin(997.0 * a * b)
    with pytest.raises(QuadratureError) as err2:
        efficiency_two_param(noisy, (BetaPrior(2, 1), BetaPrior(2, 1)), panels=4, order=8, tol=0.0)
    assert math.isfinite(err2.value.estimate)


def test_report_carries_system_and_prior():
    spec = SystemSpec("st", k=7)
    priors = (BetaPrior(2, 1), BetaPrior(2, 1))
    report = efficiency_two_param(TRUE_SURFACES["st7"], priors, system=spec, panels=8, order=20)
    assert report.system == spec
    assert report.prior == priors
    assert -1.0 <= report.value <= 1.0
    one = efficiency_one_param(game_win_prob, BetaPrior(2, 1), system=SystemSpec("game"))
    assert one.system == SystemSpec("game")
    assert one.prior == BetaPrior(2, 1)


def test_beta_prior_validation_and_pdf():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            BetaPrior(bad, 1.0)
        with pytest.raises(ValueError):
            BetaPrior(1.0, bad)
    x = np.linspace(0.01, 0.99, 23)
    for a, b in ((2, 1), (0.5, 0.5), (3.5, 2.25), (1, 1)):
        np.testing.assert_allclose(BetaPrior(a, b).pdf(x), stats.beta.pdf(x, a, b), rtol=1e-12)
    assert BetaPrior(0.5, 2).endpoint_singular
    assert BetaPrior(2, 0.5).endpoint_singular
    assert not BetaPrior(1, 1).endpoint_singular
