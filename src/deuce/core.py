"""Shared numeric and combinatorial primitives.

Everything downstream (game, set, match, best-of systems) reduces to a handful
of ingredients collected here:

* serve-sequence bookkeeping for the ABBAABBAA... point rotation and the
  simple A,B,A,B,... game alternation,
* the probability mass / tail of a sum of two independent binomials with
  different success probabilities (serve-split sums), and from them the
  final-score masses of a race to a target (``_SplitPowers.race``), which
  every layer reads,
* a race's final scores (``_Race``): A's masses and the tie at once, which
  is all a win path reads, and B's masses and both players' score rows
  when a moment, breakdown or PMF first reads them; a race's win
  (``_Race.win``) is its outright masses plus the tie times the chance in
  the tie, clipped at 1 (``_clipped_win``), the one rule every layer's win
  follows,
* the mixture over final scores: rows (``_ScoreRow``: mass, unit count,
  A's and B's shares of the mass, and how a breakdown shows the score) and
  a layer's per-unit length laws (``_Laws``) give, through one reader
  (``_row_moments``), its moments, breakdown and length PMFs,
* the advantage race played in pairs of units until one player sweeps a
  pair (``_PairRace``): the game's deuce, the set tie-breaker's own
  tie-breaker and the best-of-games two-game and two-point ties; its win
  and length are written here once, and ``geometric_moments`` reads its
  length law for callers of the public API.

All probability arguments accept floats or numpy arrays and broadcast; this is
what makes grid sweeps and quadrature cheap without a second code path.

Every public function validates its arguments once, at entry, and then runs
on private evaluators that check nothing; the layers call each other's
evaluators, never each other's public functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .rules import _KINDS

__all__ = [
    "NonTerminatingError",
    "QuadratureError",
    "PointCountDistribution",
    "BreakdownRow",
    "ScoreBreakdown",
    "SystemSpec",
    "odds",
    "serves_by_first_server",
    "first_server_on_point",
    "games_served_by_first_server",
    "first_server_serves_game",
    "binomial_convolution_mass",
    "binomial_convolution_tail",
    "geometric_moments",
]


class NonTerminatingError(ValueError):
    """Raised when a requested configuration never terminates.

    The two-point-advantage tie-breaker makes no progress when each pair of
    points is won 1-1 with probability one, i.e. when the decisive-pair
    probability pA*qB + qA*pB is exactly zero (both players win or both lose
    every serve).  Any quantity conditioned on reaching such a tie-breaker
    with positive probability is undefined.
    """


class QuadratureError(RuntimeError):
    """Quadrature failed to converge to the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    still inspect the value that failed the check.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def _check_prob(name: str, p) -> np.ndarray | float:
    """Validate that ``p`` is a probability (scalar or array), return as-is."""
    arr = np.asarray(p, dtype=float)
    # min and max propagate NaN, and NaN fails both comparisons
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def _check_pair(pa, pb, cast=lambda p: p):
    """A (pA, pB) pair of serve probabilities, each validated, then passed
    through ``cast`` (``float`` for the entries that take scalars only)."""
    return cast(_check_prob("pa", pa)), cast(_check_prob("pb", pb))


def _check_count(name: str, n: int, minimum: int | None = 1) -> int:
    """``n`` as an int; it must be an integer, and at least ``minimum`` unless that is None."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if minimum is not None and n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return int(n)


def odds(p):
    """Odds p/(1-p) of an event with probability ``p``.

    Returns ``inf`` at p=1 (that is the documented flag value, not an error).
    """
    _check_prob("p", p)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(p == 1.0, np.inf, p / np.where(p == 1.0, 1.0, 1.0 - p))
    return float(out) if out.ndim == 0 else out


def serves_by_first_server(n: int) -> int:
    """Number of points served by the tie-breaker's first server among points 1..n.

    The rotation is one serve, then two-serve blocks alternating: A BB AA BB AA...
    so A serves point j exactly when j mod 4 is 0 or 1: each full ABBA block
    holds two (positions 4k+1 and 4k+4), and a partial block one.
    """
    _check_count("n", n)
    return _abba_serves(n)


def _abba_serves(n: int) -> int:
    """:func:`serves_by_first_server` unchecked, for the counts a race forms."""
    return 2 * (n // 4) + (1 if n % 4 else 0)


def first_server_on_point(n: int) -> bool:
    """True when the tie-breaker's first server serves point ``n`` (ABBA rotation)."""
    _check_count("n", n)
    return n % 4 in (0, 1)


def games_served_by_first_server(g: int) -> int:
    """Number of games served by the set's first server among games 1..g.

    Games alternate servers starting with A, so this is ceil(g/2) = floor((g+1)/2).
    """
    _check_count("g", g)
    return _alternate_serves(g)


def _alternate_serves(g: int) -> int:
    """:func:`games_served_by_first_server` unchecked, for the counts a race forms."""
    return (g + 1) // 2


def first_server_serves_game(g: int) -> bool:
    """True when the set's first server serves game ``g`` (odd games)."""
    _check_count("g", g)
    return g % 2 == 1


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


class _SplitPowers:
    """Power tables shared by every serve-split sum of one evaluation.

    A serve-split sum counts successes over ``n1`` trials of a first kind and
    ``n2`` of a second kind.  This holds ``x**0 .. x**n``, by repeated
    multiplication, for the four per-trial probabilities: success and
    failure on the first kind (``win1``, ``loss1``) and on the second kind
    (``win2``, ``loss2``).  ``n`` is the largest trial count of either kind
    that any read will use; no table is built longer.

    Nothing here is validated: the four probabilities come from a public
    entry that checked its arguments, or are formed from checked ones (game
    win probabilities, set win probabilities), so they lie in [0, 1].  One
    evaluation builds one set of tables however many terms it sums.

    ``race`` is the one place that forms final-score masses: every layer's
    race to a target (points of a tie-breaker, games of a set or a
    best-of-games match, sets of a match, points of a best-of-K race) reads
    them from here.  Each term carries its binomial coefficients as exact
    integers, converted to float with the term; past about 515 trials of
    one kind C(n, n/2) exceeds the float range and the sums raise
    ``OverflowError``.
    """

    def __init__(self, n: int, win1, loss1, win2, loss2):
        self.win1, self.loss1, self.win2, self.loss2 = win1, loss1, win2, loss2
        self.shape = np.broadcast_shapes(*(np.shape(x) for x in (win1, loss1, win2, loss2)))
        # One allocation for all four tables (row [t, i] is x_t ** i): a few
        # large buffers are reused from the heap, where 4(n+1) separate
        # arrays per evaluation kept being returned and faulted in again.
        # Each power is the one before times x, all four tables at a time.
        tables = np.empty((4, n + 1) + self.shape)
        tables[:, 0] = 1.0
        x = np.stack(np.broadcast_arrays(win1, loss1, win2, loss2))
        for i in range(1, n + 1):
            np.multiply(tables[:, i - 1], x, out=tables[:, i])
        self._tables = tuple(tables)

    def swapped(self) -> _SplitPowers:
        """The same tables with success and failure exchanged on both kinds.

        This is the opponent's view of the same trials; nothing is rebuilt.
        """
        other = object.__new__(_SplitPowers)
        other.shape = self.shape
        other.win1, other.loss1, other.win2, other.loss2 = self.loss1, self.win1, self.loss2, self.win2
        pw1, qw1, pw2, qw2 = self._tables
        other._tables = (qw1, pw1, qw2, pw2)
        return other

    def mass(self, n1: int, n2: int, k: int):
        """Pr{X + Y = k} for X ~ Binomial(n1, win1), Y ~ Binomial(n2, win2).

        Of the k successes, j fall on the first kind and k-j on the second;
        terms with j > n1 or k-j > n2 are zero-probability configurations and
        are skipped (C(n, k) = 0 for k > n).
        """
        if k > n1 + n2:
            return _scalar_or_array(np.zeros(self.shape))
        pw1, qw1, pw2, qw2 = self._tables
        total = 0.0
        for j in range(max(0, k - n2), min(n1, k) + 1):
            # One new array per term, multiplied in place in the order of the
            # plain product; on scalars these are cheap numpy scalar ops.
            term = math.comb(n1, j) * math.comb(n2, k - j) * pw1[j]
            term *= qw1[n1 - j]
            term *= pw2[k - j]
            term *= qw2[n2 - (k - j)]
            total += term
        return _scalar_or_array(total)

    def race(self, n: int, opener_units=lambda m: m):
        """One player's final-score masses in a race to ``n`` units.

        The tables are that player's (B's are ``.swapped()``), with trials of
        the first kind on the units the race's opener serves, and
        ``opener_units(m)`` counts those among units 1..m; the default gives
        every unit the first kind.  Returns ``(wins, tie)``: ``wins[h]`` is
        the chance the player takes the race n to h, for h = 0..n-2 (n-1 of
        the first n+h-1 units, then unit n+h), and ``tie`` the chance of
        reaching n-1 all, which each layer settles by its own rule.
        """
        wins = []
        for h in range(n - 1):
            played = n + h - 1
            first = opener_units(played)
            last = self.win1 if opener_units(played + 1) > first else self.win2
            wins.append(self.mass(first, played - first, n - 1) * last)
        first = opener_units(2 * n - 2)
        return wins, self.mass(first, 2 * n - 2 - first, n - 1)

    def tail(self, n1: int, n2: int, k: int):
        """Pr{X + Y >= k} for the same pair of binomials.

        Sums Pr{X = j} * Pr{Y >= k - j} over j.  The survival of Y is
        accumulated from the top as j rises, so only its current value is
        kept, and the sum avoids the O(k^2) term-by-term double loop.
        """
        if k <= 0:
            return _scalar_or_array(np.ones(self.shape))
        if k > n1 + n2:
            return _scalar_or_array(np.zeros(self.shape))
        pw1, qw1, pw2, qw2 = self._tables
        survival = np.zeros(self.shape)  # Pr{Y >= i}
        i = n2 + 1
        total = np.zeros(self.shape)
        for j in range(max(0, k - n2), n1 + 1):
            term = math.comb(n1, j) * pw1[j] * qw1[n1 - j]
            need = k - j
            if need > 0:
                while i > need:
                    i -= 1
                    survival = survival + math.comb(n2, i) * pw2[i] * qw2[n2 - i]
                term = term * survival
            total = total + term
        return _scalar_or_array(np.minimum(total, 1.0))


def _plain_split(n1: int, p1, n2: int, p2) -> _SplitPowers:
    """Tables for trials won with p1 and p2, failures formed as 1 - p.

    These serve the public serve-split sums, and, as ``_plain_split(n, p, 0,
    p)``, the races in which every unit has the same odds.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    return _SplitPowers(max(n1, n2), p1, 1.0 - p1, p2, 1.0 - p2)


def binomial_convolution_mass(n1: int, p1, n2: int, p2, k: int):
    """Pr{X + Y = k} for independent X ~ Binomial(n1, p1), Y ~ Binomial(n2, p2).

    This is the serve-split sum: of the k successes, j fall on the n1 trials of
    the first kind and k-j on the n2 trials of the second kind.  Terms with
    j > n1 or k-j > n2 are zero-probability configurations and are skipped
    (binomial-coefficient convention C(n, k) = 0 for k > n).
    """
    n1 = _check_count("n1", n1, minimum=0)
    n2 = _check_count("n2", n2, minimum=0)
    k = _check_count("k", k, minimum=0)
    _check_prob("p1", p1)
    _check_prob("p2", p2)
    return _plain_split(n1, p1, n2, p2).mass(n1, n2, k)


def binomial_convolution_tail(n1: int, p1, n2: int, p2, k: int):
    """Pr{X + Y >= k} for the same pair of independent binomials.

    Computed as sum_j Pr{X=j} * Pr{Y >= k-j}, with the survival function of Y
    accumulated once; avoids the O(k^2) term-by-term double sum.  ``k`` must
    be an integer; at k <= 0 the tail is 1.
    """
    n1 = _check_count("n1", n1, minimum=0)
    n2 = _check_count("n2", n2, minimum=0)
    k = _check_count("k", k, minimum=None)
    _check_prob("p1", p1)
    _check_prob("p2", p2)
    return _plain_split(n1, p1, n2, p2).tail(n1, n2, k)


def geometric_moments(eta):
    """(mean, variance) of a geometric random variable on {1, 2, ...}.

    For success probability eta: mean 1/eta, variance (1-eta)/eta**2.
    eta = 0 is rejected — the waiting time is infinite (non-terminating process).
    It is the length of a pair race (:class:`_PairRace`) that each pair
    ends with probability eta, each pair one unit long.
    """
    arr = np.asarray(eta, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise NonTerminatingError(
            f"geometric success probability must lie in (0, 1], got {eta!r}"
        )
    with np.errstate(invalid="ignore"):
        mean, var = _PairRace(arr, 0.0).length((1.0, 0.0))
    # Where 1/eta overflows (eta below 2**-1024) the length reads inf * 0 as
    # the pairs' own spread; the variance there is infinite.
    return _scalar_or_array(mean), _scalar_or_array(np.where(np.isinf(mean), np.inf, var))


@dataclass(frozen=True)
class PointCountDistribution:
    """A (possibly truncated) PMF over the number of points played.

    ``support`` holds (n, mass) pairs up to the truncation point.  Geometric
    tails stop at the first entry whose mass underflows to 0, so the support
    can end before the truncation point; the composed set and match laws
    list only their positive entries.  ``truncation_mass`` is the residual
    beyond the truncation point (exact for the geometric tails, one minus
    the listed mass for composed laws), never silently dropped.  ``mean``
    and ``variance`` are the exact closed-form moments of the *untruncated*
    distribution, not truncated-sum estimates.
    """

    support: tuple = ()
    truncation_mass: float = 0.0
    mean: float = 0.0
    variance: float = 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def total_mass(self) -> float:
        return sum(m for _, m in self.support) + self.truncation_mass

    def truncated_moments(self) -> tuple[float, float]:
        """Mean/variance of the truncated part only (test/diagnostic helper)."""
        m0 = sum(m for _, m in self.support)
        if m0 <= 0.0:
            return math.nan, math.nan
        m1 = sum(n * m for n, m in self.support) / m0
        m2 = sum(n * n * m for n, m in self.support) / m0
        return m1, m2 - m1 * m1


def _pmf_array(support) -> np.ndarray:
    """(n, mass) pairs sorted by n -> array indexed by n, ending at the last positive mass."""
    arr = np.zeros(support[-1][0] + 1 if support else 0)
    for n, mass in support:
        arr[n] = mass
    return np.trim_zeros(arr, "b")


def _convolve_capped(a: np.ndarray, b: np.ndarray, n_max: int) -> np.ndarray:
    """PMF of the sum of two independent lengths, cut at ``n_max`` and at its last positive mass."""
    if a.size == 0 or b.size == 0:
        return np.zeros(0)
    return np.trim_zeros(np.convolve(a, b)[: n_max + 1], "b")


def _geometric_tail(first, rho, count: int) -> list:
    """[first * rho**j for j < count], cut before the first mass that underflows to 0.

    Each entry is one power, not a running product: a running product sticks
    at the smallest subnormal (5e-324 * rho rounds back up to 5e-324 once
    rho > 0.5) and never reaches 0.
    """
    tail = first * rho ** np.arange(count, dtype=float)
    (zeros,) = np.nonzero(tail == 0.0)
    return tail[: zeros[0] if zeros.size else count].tolist()


class _ScoreRow(NamedTuple):
    """One final score of a length mixture, and how a breakdown shows it.

    With probability ``mass`` the length is the sum of the first ``units``
    per-unit lengths, plus one draw of the stacked law when ``stacked``; the
    layer's :class:`_Laws` say what each of those lengths is.

    A breakdown (:func:`_breakdown`) shows the row as ``score``, with the
    loser's count ``loser``, and splits ``mass`` into A's and B's
    ``shares``.  An outright score holds the pair itself; a tie row holds a
    function that forms it when a breakdown asks, so no win, moment or PMF
    path pays for it, and that returns None where the layer does not show
    the row.  Rows that no breakdown reads may leave these three unset.
    """

    mass: float | np.ndarray
    units: int
    stacked: bool
    score: str | None = None
    loser: int | None = None
    shares: tuple | Callable[[], tuple | None] = ()

    def split_mass(self) -> tuple | None:
        """A's and B's shares of ``mass``: ``shares``, or what its function
        forms."""
        return self.shares() if callable(self.shares) else self.shares


class _Laws(NamedTuple):
    """A layer's per-unit length laws, each ``(mean, variance)`` or, to
    compose PMFs, ``(mean, variance, pmf array)`` (:func:`_pmf_law`).

    ``opener`` is a unit the race's opener serves and ``other`` any other
    (one point each by default); ``stacked`` is the length a stacked row
    adds.  ``opener_units(m)`` counts the opener's units among 1..m.
    """

    opener: tuple = (1.0, 0.0)
    other: tuple = (1.0, 0.0)
    stacked: tuple | None = None
    opener_units: Callable[[int], int] = lambda m: m


def _pmf_law(dist: PointCountDistribution) -> tuple:
    """A law for the compose step: a length PMF's moments and its array."""
    return dist.mean, dist.variance, _pmf_array(dist.support)


def _row_moments(rows, laws: _Laws) -> list:
    """Each row's (mean, variance) of length: its independent units' moments
    add, and a stacked row adds the stacked law's.  Every moment, breakdown
    row and composed law reads its rows through here."""
    (mean1, var1), (mean2, var2) = laws.opener[:2], laws.other[:2]
    moments = []
    for row in rows:
        first = laws.opener_units(row.units)
        second = row.units - first
        mean = first * mean1 + second * mean2
        var = first * var1 + second * var2
        if row.stacked:
            mean, var = mean + laws.stacked[0], var + laws.stacked[1]
        moments.append((mean, var))
    return moments


def _mix(rows, moments):
    """(mean, variance) of a mixture from each row's (mean, variance), by the
    iterated rules.  The variance is centered, sum mass * (v + (mean_row -
    mean)^2), so no term is negative; E[L^2] - mean^2 cancels to noise, even
    below 0, when the spread is small against the mean."""
    mean = sum(r.mass * m for r, (m, _) in zip(rows, moments))
    return mean, sum(r.mass * (v + (m - mean) ** 2) for r, (m, v) in zip(rows, moments))


def _mixture_moments(rows, laws: _Laws):
    """(mean, variance) of a layer's length, mixed over its final scores."""
    return _mix(rows, _row_moments(rows, laws))


class _Race:
    """The final scores of a race to ``n`` units, from A's tables.

    The race reads its serve rule from the layer's ``laws``, as the moments
    do (:meth:`_SplitPowers.race`).  ``wins[h]`` is A's mass on n-h, for
    h = 0..n-2, and ``tie`` the mass reaching n-1 all, which each layer
    settles by its own rule; these are all a win path (:meth:`win`)
    reads.  B's masses, ``losses``, are raced on the ``.swapped()`` tables
    when :meth:`rows` first reads them.
    """

    def __init__(self, split: _SplitPowers, n: int, laws: _Laws = _Laws()):
        self.split, self.n, self.laws = split, n, laws
        self.wins, self.tie = split.race(n, laws.opener_units)

    @functools.cached_property
    def losses(self) -> list:
        return self.split.swapped().race(self.n, self.laws.opener_units)[0]

    def win(self, theta):
        """A's win: A's outright masses plus the tie times A's chance in it,
        ``theta``, clipped at 1 (:func:`_clipped_win`)."""
        return _clipped_win(sum(self.wins), self.tie, theta)

    def rows(self) -> list:
        """Both winners' :class:`_ScoreRow` "n-h" of n+h units, with A's and
        B's masses as its shares, for h = 0..n-2; each layer appends the
        rows of its own tie rule."""
        return [_ScoreRow(a + b, self.n + h, False, f"{self.n}-{h}", h, (a, b))
                for h, (a, b) in enumerate(zip(self.wins, self.losses))]


def _clipped_win(head, tie, theta):
    """A's win probability, head + tie * theta, from A's outright mass, the tie
    and A's chance in it; clipped at 1, which rounding can pass by an ulp
    or two."""
    return _scalar_or_array(np.minimum(head + tie * theta, 1.0))


class _PairRace(NamedTuple):
    """An advantage race played in pairs of units until one player sweeps a
    pair: the game's deuce, the STT and the best-of-games STTG and STTP.

    ``a`` and ``b`` are A's and B's chances of sweeping a pair, each formed
    by its layer as that layer keeps it accurate; B's race is
    ``_PairRace(b, a)``.  The pair count is geometric with success a + b.
    Nothing here checks that a + b > 0: the layers whose pairs can split
    forever check that where they form their race.
    """

    a: float | np.ndarray
    b: float | np.ndarray

    def win(self):
        """A's chance in the race, a / (a + b)."""
        return _scalar_or_array(self.a / (self.a + self.b))

    def length(self, pair=(2.0, 0.0)):
        """(mean, variance) of the race's length: a geometric number of
        pairs, with mean 1/eta and variance (1 - eta)/eta^2 for eta = a + b,
        each pair an independent length of (mean, variance) ``pair``, two
        units by default."""
        eta = self.a + self.b
        count, (mean, var) = 1.0 / eta, pair
        return count * mean, count * var + (1.0 - eta) / (eta * eta) * mean**2


def _compose_length_law(rows, laws: _Laws, n_max: int) -> PointCountDistribution:
    """Length PMF of a mixture, over final scores, of sums of per-unit lengths.

    ``laws`` carry PMF arrays (:func:`_pmf_law`); unit i is the opener's
    when ``opener_units`` counts it.  Every array ends at its last positive
    mass, and every partial sum is cut at ``n_max`` and trimmed the same
    way, so no convolution pays for mass that underflowed to 0 or lies past
    the cap.  Convolution is direct: all terms are positive, so each entry
    keeps its full relative accuracy down to the smallest normal floats.
    An FFT product would add round-off of about 1e-17 times the largest
    mass to every entry and swamp the far tails.  ``truncation_mass`` is
    one minus the mass kept.
    """
    runs, served = [np.ones(1)], 0
    for units in range(1, max(r.units for r in rows) + 1):
        opener = laws.opener_units(units)
        unit = laws.opener if opener > served else laws.other
        runs.append(_convolve_capped(runs[-1], unit[2], n_max))
        served = opener
    total = np.zeros(n_max + 1)
    for row in rows:
        arr = runs[row.units]
        if row.stacked:
            arr = _convolve_capped(arr, laws.stacked[2], n_max)
        total[: arr.size] += row.mass * arr
    mean, var = _mixture_moments(rows, laws)
    (n,) = np.nonzero(total)
    return PointCountDistribution(
        support=tuple(zip(n.tolist(), total[n].tolist())),
        truncation_mass=max(0.0, 1.0 - float(total.sum())),
        mean=float(mean),
        variance=float(var),
    )


def _race_tie_law(rows, laws: _Laws, race: _PairRace, rho, n_max: int) -> PointCountDistribution:
    """Length PMF of a race whose outright rows have fixed lengths and whose
    last row, the tie, stacks twice the pair count of ``race``, a pair
    going on with ``rho``, formed as the layer keeps it accurate.
    ``truncation_mass`` is the exact geometric residual past ``n_max``."""
    *outright, tie = rows
    support = [(row.units, float(row.mass)) for row in outright]
    lengths = range(tie.units + 2, n_max + 1, 2)
    support.extend(zip(lengths, _geometric_tail(tie.mass * (race.a + race.b), rho, len(lengths))))
    residual = tie.mass * rho ** max(0, (n_max - tie.units) // 2) if tie.mass > 0.0 else 0.0
    mean, var = _mixture_moments(rows, laws)
    return PointCountDistribution(tuple(support), float(residual), float(mean), float(var))


@dataclass(frozen=True)
class BreakdownRow:
    """One final-score row of a summary table.

    ``score`` is a human-readable label like ``"4-0"`` or ``"TB"``;
    ``loser_score`` the losing side's count for sortable access.  The
    conditional moments are of the number of points played given that the
    match ends on this row (either player winning).
    """

    score: str
    loser_score: int | None
    p_first_wins: float
    p_second_wins: float
    cond_mean: float
    cond_var: float

    @property
    def p_total(self) -> float:
        return self.p_first_wins + self.p_second_wins


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-final-score rows plus the overall line of a summary table."""

    rows: tuple
    win_prob: float
    mean: float
    variance: float
    label: str = ""

    def row(self, score: str) -> BreakdownRow:
        for r in self.rows:
            if r.score == score:
                return r
        raise KeyError(score)

    def probability_total(self) -> float:
        return sum(r.p_total for r in self.rows)


def _breakdown(label: str, rows, laws: _Laws, win_prob) -> ScoreBreakdown:
    """Summary table of a layer from its :class:`_ScoreRow` ``rows``.

    Every row counts towards the overall moments, and every row whose
    shares are not None is shown, with its conditional moments.
    """
    moments = _row_moments(rows, laws)
    mean, var = _mix(rows, moments)
    shown = []
    for row, (m, v) in zip(rows, moments):
        shares = row.split_mass()
        if shares is not None:
            shown.append(BreakdownRow(row.score, row.loser, *map(float, shares),
                                      float(m), float(v)))
    return ScoreBreakdown(tuple(shown), float(win_prob), float(mean), float(var), label)


_TIEBREAKS = ("sg", "sttg", "sttp")

_MINIMUM = {"k": 2, "k0": 2, "k1": 2, "q": 1, "l": 1}


@dataclass(frozen=True)
class SystemSpec:
    """Names one scoring system together with its structural knobs.

    This is the one spec type: every layer, the simulator and the CLI read
    it, and ``MatchSpec`` and ``BestOfGamesSpec`` are constructors that
    return it.  Each kind's parameters, fields and scoring rules are one
    entry of the kind table, ``rules._KINDS``.

    Kinds: ``gt`` (win-by-two from deuce), ``game``, ``stt`` (two-point-cycle
    tie-breaker), ``st`` (K-point set tie-breaker), ``set`` (six-game set with
    an ST(k) at 6-6), ``match`` (best of 2q+1 sets with tie-breaker targets
    k0/k1), ``bofk`` (raw race to l+1 points out of 2l+1), ``bog`` (best of
    2l+1 games under an l-l tie rule).

    Fields that do not apply to ``kind`` must stay ``None``.  Omitted ones
    fall back to the standard format — k=7, match 7/7/2, tiebreak "sttg" —
    except ``l``, which has no natural default and is required.
    """

    kind: str
    k: int | None = None
    k0: int | None = None
    k1: int | None = None
    q: int | None = None
    l: int | None = None
    tiebreak: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown system kind {self.kind!r}; expected one of {tuple(_KINDS)}"
            )
        defaults = _KINDS[self.kind].fields
        for name in (*_MINIMUM, "tiebreak"):
            if getattr(self, name) is not None and name not in defaults:
                raise ValueError(f"{name} does not apply to system {self.kind!r}")
        for name, default in defaults.items():
            if getattr(self, name) is None:
                if default is None:
                    raise ValueError(f"{name} is required for system {self.kind!r}")
                object.__setattr__(self, name, default)
            if name in _MINIMUM:
                value = _check_count(name, getattr(self, name), minimum=_MINIMUM[name])
                object.__setattr__(self, name, value)
            elif self.tiebreak not in _TIEBREAKS:  # the one field that is not a count
                raise ValueError(
                    f"tiebreak must be one of {_TIEBREAKS}, got {self.tiebreak!r}"
                )

    @property
    def takes_pair(self) -> bool:
        """Whether the system is parameterized by (pA, pB) rather than one p."""
        return _KINDS[self.kind].takes_pair


def _check_spec(spec, kind: str) -> SystemSpec:
    """``spec``, which must be a :class:`SystemSpec` of ``kind``."""
    if not isinstance(spec, SystemSpec) or spec.kind != kind:
        raise ValueError(f"spec must be a SystemSpec of kind {kind!r}, got {spec!r}")
    return spec


def MatchSpec(k0: int | None = None, k1: int | None = None, q: int | None = None) -> SystemSpec:
    """Match format: best of 2q+1 sets, set tie-breaker targets k0 / k1;
    an omitted one takes the kind table's default, 7 / 7 / 2.

    ``k0`` applies to sets that cannot be the decider, ``k1`` to the (2q+1)-th
    set — the long-format decider (e.g. k1=10) is how several tours replaced
    the old advantage set.
    """
    return SystemSpec("match", k0=k0, k1=k1, q=q)


def BestOfGamesSpec(l: int, tiebreak: str | None = None) -> SystemSpec:
    """Best-of-(2l+1) games match; ``tiebreak`` names the l-l tie rule,
    "sttg" when omitted (the kind table's default)."""
    return SystemSpec("bog", l=l, tiebreak=tiebreak)
