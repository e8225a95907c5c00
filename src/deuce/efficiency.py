"""Prior-weighted efficiency of scoring systems against the better-player oracle.

A scoring system is a decision rule for "which player wins more points": the
oracle always picks the better player, a coin flip never does better than
chance, and every real system lands in between.  Efficiency integrates the
system's edge over a beta prior on the serve probabilities —

    one parameter:  Eff = int_0^1/2 [1-2θ(p)] dΠ + int_1/2^1 [2θ(p)-1] dΠ
    two parameters: Eff = int_{pA<pB} [1-2θ] dΠ + int_{pA>pB} [2θ-1] dΠ

— so the oracle scores 1 and the coin scores 0.  The integrand is kinked on
p = 1/2 (resp. the diagonal), so each smooth piece is integrated separately:
composite Gauss–Legendre panels in 1-D, and a tensor product over each
triangle mapped onto the unit square (pA = x, pB = t*x and its mirror, with
Jacobian x) in 2-D.  The error estimate is the change under panel doubling,
and the reported value is the doubled-panel one.  Node evaluation order is
fixed and summation uses numpy's pairwise reduction, so results are
reproducible bit for bit.

The 2-D surface is evaluated in fixed blocks of nodes written into one
array, which keeps every temporary small.  Surfaces are elementwise, so each
node's value, and with it every weight, product and sum, and so every
result, is the same as from one call on the whole triangle.

Above the game level nobody gains from serving first, so a true surface is
antisymmetric: θ(pA, pB) + θ(pB, pA) = 1.  The lower triangle's nodes are the
upper triangle's swapped, so on such a surface one pass serves both refined
triangles: the lower part weights the same 2θ - 1 values by the lower
triangle's prior density.  The coarse rule evaluates both triangles in full
and checks the property at every one of its nodes; only a surface whose
residual max |θ_lower + θ_upper - 1| is at most ``_MIRROR_TOL`` gets the
single-pass refined rule, and any other surface is integrated over both
triangles as before.  The coarse value, and with it the error estimate,
never relies on the property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QuadratureError, SystemSpec

# Nodes per surface call in the 2-D rule.  A block's temporaries stay small
# enough to be reused from the heap instead of being mapped and faulted in
# afresh for every operation, as grid-sized (up to 320 x 320) ones were.
_BLOCK_NODES = 4096

# Largest coarse antisymmetry residual at which the refined 2-D rule reuses
# the upper triangle's surface values for the lower triangle.
_MIRROR_TOL = 1e-12

__all__ = [
    "BetaPrior",
    "EfficiencyReport",
    "efficiency_one_param",
    "efficiency_two_param",
]


@dataclass(frozen=True)
class BetaPrior:
    """Beta(alpha, beta) prior over a serve probability."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            raise ValueError(f"beta parameters must be numbers, got {a!r}, {b!r}")
        if not (a > 0.0 and b > 0.0) or math.isinf(a) or math.isinf(b):
            raise ValueError(f"beta parameters must be positive and finite, got ({a}, {b})")
        object.__setattr__(self, "alpha", float(a))
        object.__setattr__(self, "beta", float(b))

    @property
    def endpoint_singular(self) -> bool:
        """Whether the density blows up at 0 or 1 (α < 1 or β < 1)."""
        return self.alpha < 1.0 or self.beta < 1.0

    def pdf(self, p):
        p = np.asarray(p, dtype=float)
        log_norm = (
            math.lgamma(self.alpha + self.beta)
            - math.lgamma(self.alpha)
            - math.lgamma(self.beta)
        )
        with np.errstate(divide="ignore"):
            la = 0.0 if self.alpha == 1.0 else (self.alpha - 1.0) * np.log(p)
            lb = 0.0 if self.beta == 1.0 else (self.beta - 1.0) * np.log1p(-p)
        return np.exp(log_norm + la + lb)


@dataclass(frozen=True)
class EfficiencyReport:
    """An efficiency value with its provenance and quadrature error estimate.

    ``surface_points`` counts the nodes at which the curve or surface was
    evaluated over both rules.  ``antisymmetry_residual`` is the coarse 2-D
    rule's max |θ(pB, pA) + θ(pA, pB) - 1|, and ``None`` for one parameter.
    """

    system: SystemSpec | None
    prior: object
    value: float
    quadrature_error_estimate: float
    surface_points: int
    antisymmetry_residual: float | None


def _gauss_panels(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss–Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _axis_nodes(panels: int, order: int, soften: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (0, 1), optionally under u = sin^2(pi t / 2).

    The substitution's derivative vanishes at both endpoints, which turns the
    integrable edge singularities of beta densities with α < 1 or β < 1 into
    bounded integrands that plain panels handle at tolerance.
    """
    t, w = _gauss_panels(panels, order)
    if not soften:
        return t, w
    u = np.sin(0.5 * math.pi * t) ** 2
    du = 0.5 * math.pi * np.sin(math.pi * t)
    return u, w * du


def _eff_one(curve, prior: BetaPrior, panels: int, order: int) -> float:
    nodes, weights = _axis_nodes(panels, order, prior.endpoint_singular)
    total = 0.0
    for lo, hi, sign in ((0.0, 0.5, -1.0), (0.5, 1.0, 1.0)):
        p = lo + (hi - lo) * nodes
        theta = np.asarray(curve(p), dtype=float)
        edge = sign * (2.0 * theta - 1.0)
        total += (hi - lo) * float(np.sum(weights * edge * prior.pdf(p)))
    return total


def _blocked_surface(surface, pa, pb) -> np.ndarray:
    """``surface(pa, pb)`` over the broadcast grid, evaluated ``_BLOCK_NODES`` nodes at a time.

    Every surface is elementwise, so each node's value is the one a single
    call on the whole grid would give.
    """
    pa, pb = np.broadcast_arrays(pa, pb)
    theta = np.empty(pa.shape)
    flat_a, flat_b, flat = pa.reshape(-1), pb.reshape(-1), theta.reshape(-1)
    for start in range(0, flat.size, _BLOCK_NODES):
        block = slice(start, start + _BLOCK_NODES)
        flat[block] = surface(flat_a[block], flat_b[block])
    return theta


def _eff_two_parts(
    surface, prior_a: BetaPrior, prior_b: BetaPrior, panels: int, order: int,
    mirror: bool = False,
) -> tuple[float, float, float | None]:
    """(lower-triangle, upper-triangle) contributions to the 2-D efficiency,
    and the antisymmetry residual.

    With ``mirror`` the lower triangle reuses the upper triangle's values,
    which assumes θ(pB, pA) = 1 - θ(pA, pB), and the residual is ``None``.
    Otherwise the surface is evaluated on both triangles and the residual is
    max |θ_lower + θ_upper - 1| over their node pairs.
    """
    soften = prior_a.endpoint_singular or prior_b.endpoint_singular
    nodes, weights = _axis_nodes(panels, order, soften)
    x = nodes[:, None]  # outer coordinate: the larger of the two probabilities
    t = nodes[None, :]  # inner fraction: smaller = t * larger
    w2 = weights[:, None] * weights[None, :]
    jac = x

    # upper triangle pA > pB: pA = x, pB = t x
    theta_upper = _blocked_surface(surface, x, t * x)
    edge = w2 * (2.0 * theta_upper - 1.0)
    dens = prior_a.pdf(x) * prior_b.pdf(t * x)
    upper = float(np.sum(edge * dens * jac))

    # lower triangle pA < pB: pB = x, pA = t x
    dens = prior_a.pdf(t * x) * prior_b.pdf(x)
    if mirror:
        return float(np.sum(edge * dens * jac)), upper, None
    theta = _blocked_surface(surface, t * x, x)
    lower = float(np.sum(w2 * (1.0 - 2.0 * theta) * dens * jac))
    residual = float(np.max(np.abs(theta + theta_upper - 1.0)))
    return lower, upper, residual


def _converged(coarse: float, fine: float, tol: float) -> float:
    """The error estimate |fine - coarse|; past ``tol`` it raises the
    quadrature error, carrying ``fine`` as the best estimate."""
    err = abs(fine - coarse)
    if err > tol:
        raise QuadratureError(
            f"efficiency quadrature did not converge: |refined - coarse| = "
            f"{err:.3e} > tol {tol:.1e}",
            estimate=fine,
            error_estimate=err,
        )
    return err


def efficiency_one_param(
    curve,
    prior: BetaPrior,
    *,
    system: SystemSpec | None = None,
    panels: int = 16,
    order: int = 20,
    tol: float = 1e-5,
) -> EfficiencyReport:
    """Efficiency of a one-parameter system ``p -> theta(p)`` under ``prior``.

    ``curve`` must accept numpy arrays of probabilities.  The value reported
    is the doubled-panel evaluation; the error estimate is its distance from
    the single-panel one, and exceeding ``tol`` raises the quadrature error
    (carrying the best estimate).
    """
    coarse = _eff_one(curve, prior, panels, order)
    fine = _eff_one(curve, prior, 2 * panels, order)
    err = _converged(coarse, fine, tol)
    return EfficiencyReport(system, prior, fine, err, 6 * panels * order, None)


def efficiency_two_param(
    surface,
    priors: tuple[BetaPrior, BetaPrior],
    *,
    system: SystemSpec | None = None,
    panels: int = 16,
    order: int = 20,
    tol: float = 5e-4,
) -> EfficiencyReport:
    """Efficiency of a two-parameter system ``(pA, pB) -> theta`` under
    the product prior ``priors[0] x priors[1]``.

    ``surface`` must broadcast over numpy arrays.  Reporting and convergence
    follow the one-parameter rule, with the looser 2-D tolerance.  The
    refined rule evaluates only the upper triangle when the coarse rule finds
    the surface antisymmetric to ``_MIRROR_TOL``.
    """
    prior_a, prior_b = priors
    lo_c, up_c, residual = _eff_two_parts(surface, prior_a, prior_b, panels, order)
    mirror = residual <= _MIRROR_TOL
    lo_f, up_f, _ = _eff_two_parts(surface, prior_a, prior_b, 2 * panels, order, mirror)
    fine = lo_f + up_f
    err = _converged(lo_c + up_c, fine, tol)
    axis = panels * order  # nodes per axis of a coarse triangle; twice that when refined
    points = 2 * axis**2 + (1 if mirror else 2) * (2 * axis) ** 2
    return EfficiencyReport(system, (prior_a, prior_b), fine, err, points, residual)
