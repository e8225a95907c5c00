"""Simulation oracle: replays every scoring system point by point.

Each system's rules are compiled, on first use, into integer tables over its
score states (``rules._tables``); this module runs them.  A replication is
one state index ``s``, plus the counts of any counted race.  At every step
each active replication takes exactly one uniform ``u`` and moves by one
gather::

    s = nxt[2*s + (u < p_win[s])]

where ``p_win`` is pA on A's serve (p in the one-server systems), 1 - pB on
B's, and one half on the serve coin.  The coin is a step of its own that
plays no point: it takes the draw right after the point that levelled the
score at l-l, and a replication's point count is its step count minus its
coin steps.  Events, where a counted race takes a unit, take no draw.

The generator is a counter-based SplitMix64.  Draw ``j`` of replication ``r``
under master seed ``s`` is::

    mix64(mix64(s + (r+1)*GOLDEN) + (j+1)*GOLDEN)

taken to [0, 1) as its top 53 bits times 2**-53, so every uniform is a pure
function of (seed, replication, draw index), and replication ``r`` takes
draw ``j`` at step ``j``.  Batching, vectorization width, or splitting
replications across workers cannot reorder or change a single draw, which
is what makes runs bit-identical across platforms and run shapes.
Replications that hit the safety cap are counted and excluded from the
point-count moments — never silently folded in.

Accumulation uses numpy's pairwise summation over the fixed replication
order, so summaries are deterministic as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemSpec, _check_count, _check_prob
from .rules import _WON, _Tables, _tables

__all__ = ["SimConfig", "SimSummary", "simulate"]

_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / float(1 << 53)

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output mix (Steele–Lea–Flood), vectorized on uint64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _rep_streams(seed: int, replications: int) -> np.ndarray:
    """Per-replication stream keys: mix64(seed + (r+1)*GOLDEN)."""
    rep = np.arange(1, replications + 1, dtype=np.uint64)
    return _mix64(np.uint64(seed & _SEED_MASK) + rep * _GOLDEN)


def _draw(streams: np.ndarray, j: int) -> np.ndarray:
    """Draw ``j`` (0-based) of each stream key, as a uniform in [0, 1)."""
    out = _mix64(streams + np.uint64((j + 1) * _GOLDEN_INT & _SEED_MASK))
    return (out >> np.uint64(11)).astype(np.float64) * _U53


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    ``params`` is a single probability for one-server systems (gt, game,
    bofk) and a (pA, pB) pair for alternating-serve systems.  ``seed`` is
    reduced mod 2**64.  ``max_points_per_replication`` is the safety cap for
    configurations that random-walk forever (e.g. the two-point tie-breaker
    at pA = pB = 1).
    """

    system: SystemSpec
    params: object
    replications: int
    seed: int
    max_points_per_replication: int = 100_000

    def __post_init__(self):
        if not isinstance(self.system, SystemSpec):
            raise ValueError(f"system must be a SystemSpec, got {self.system!r}")
        object.__setattr__(
            self, "replications", _check_count("replications", self.replications)
        )
        object.__setattr__(
            self,
            "max_points_per_replication",
            _check_count(
                "max_points_per_replication",
                self.max_points_per_replication,
                minimum=100,
            ),
        )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed) & _SEED_MASK)
        if self.system.takes_pair:
            try:
                pa, pb = self.params
            except (TypeError, ValueError):
                raise ValueError(
                    f"system {self.system.kind!r} takes a (pA, pB) pair, "
                    f"got params {self.params!r}"
                ) from None
            _check_prob("pA", float(pa))
            _check_prob("pB", float(pb))
            object.__setattr__(self, "params", (float(pa), float(pb)))
        else:
            if isinstance(self.params, (tuple, list)):
                raise ValueError(
                    f"system {self.system.kind!r} takes a single serve "
                    f"probability, got params {self.params!r}"
                )
            _check_prob("p", float(self.params))
            object.__setattr__(self, "params", float(self.params))


@dataclass(frozen=True)
class SimSummary:
    """Summary of one simulation run.

    Standard errors: binomial for the win rate, s/sqrt(n) for the mean, and
    the asymptotic sqrt((m4 - s^4)/n)/(2s) for the standard deviation.  All
    statistics are over completed replications only; when every replication
    was capped they are NaN and ``capped_replications`` tells the story.
    """

    win_rate_A: float
    win_rate_se: float
    mean_points: float
    mean_points_se: float
    std_points: float
    std_points_se: float
    capped_replications: int


@dataclass
class _RepOutcomes:
    """Raw per-replication results (internal; feeds summaries and tests).

    Scores are written for completed replications only; a capped one keeps 0-0.
    """

    points: np.ndarray
    winner_a: np.ndarray
    capped: np.ndarray
    score_a: np.ndarray | None = None
    score_b: np.ndarray | None = None


def _settle(tables: _Tables, s: np.ndarray, counts: np.ndarray) -> None:
    """Give each counted race the unit it just took; move ``s`` on in place.

    ``counts[r, race]`` holds replication r's (A, B) units in that race.  A
    race that ends is reset unless its end is the end of the system.
    """
    i = np.flatnonzero((s >= tables.live) & (s < tables.final))
    while i.size:
        e = s[i] - tables.live
        race, won = tables.event_race[e], tables.event_a_won[e]
        a = counts[i, race, 0] + won
        b = counts[i, race, 1] + ~won
        first_to, lead, level = tables.races[race].T
        over = (np.maximum(a, b) >= first_to) & (np.abs(a - b) >= lead)
        outcome = np.where(over, _WON, (a == b) & (a == level))
        s[i] = t = tables.resolve[e, outcome]
        keep = ~over | (t >= tables.final)
        counts[i, race, 0] = a * keep
        counts[i, race, 1] = b * keep
        i = i[(t >= tables.live) & (t < tables.final)]


def _simulate_outcomes(config: SimConfig) -> _RepOutcomes:
    """Run the replications and return raw per-replication arrays."""
    tables = _tables(config.system)
    pa, pb = config.params if config.system.takes_pair else (config.params, 0.0)
    p_win = np.array([pa, 1.0 - pb, 0.5])[tables.server]
    n, cap = config.replications, config.max_points_per_replication
    out = _RepOutcomes(
        points=np.zeros(n, dtype=np.int64),
        winner_a=np.zeros(n, dtype=bool),
        capped=np.zeros(n, dtype=bool),
    )
    if tables.score is not None or tables.scored is not None:
        out.score_a = np.zeros(n, dtype=np.int32)
        out.score_b = np.zeros(n, dtype=np.int32)
    rep = np.arange(n)
    keys = _rep_streams(config.seed, n)
    s = np.zeros(n, dtype=np.intp)
    tally = np.zeros(n, dtype=np.int32)
    counts = np.zeros((n, len(tables.races), 2), dtype=np.int64)
    step = 0
    while rep.size:
        edge = 2 * s + (_draw(keys, step) < p_win[s])
        s = tables.nxt[edge]
        if tables.fold is not None:
            tally += tables.fold[edge]
        step += 1
        fin = s >= tables.live
        if tables.final > tables.live and fin.any():
            _settle(tables, s, counts)
            fin = s >= tables.final
        if step >= cap:
            fin |= step - tables.coins[s] >= cap
        if not fin.any():
            continue
        f = np.flatnonzero(fin)
        done, end = rep[f], s[f]
        out.points[done] = step - tables.coins[end]
        out.winner_a[done] = tables.a_won[end]
        if step >= cap:  # scores are kept for completed replications only
            ok = end >= tables.final
            out.capped[done] = ~ok
            f, done, end = f[ok], done[ok], end[ok]
        if tables.scored is not None:
            out.score_a[done], out.score_b[done] = counts[f, tables.scored].T
        elif out.score_a is not None:
            out.score_a[done] = tables.score[end, 0] + tally[f]
            out.score_b[done] = tables.score[end, 1] + tally[f]
        keep = ~fin
        rep, s, keys, tally = rep[keep], s[keep], keys[keep], tally[keep]
        if tables.final > tables.live:
            counts = counts[keep]
    return out


def _summarize(out: _RepOutcomes) -> SimSummary:
    ok = ~out.capped
    n = int(ok.sum())
    capped = out.capped.size - n
    nan = float("nan")
    if n == 0:
        return SimSummary(nan, nan, nan, nan, nan, nan, capped)
    w = float((out.winner_a & ok).sum()) / n
    se_w = math.sqrt(w * (1.0 - w) / n)
    pts = out.points[ok].astype(np.float64)
    mean = float(pts.mean())
    if n < 2:
        return SimSummary(w, se_w, mean, nan, nan, nan, capped)
    var = float(pts.var(ddof=1))
    std = math.sqrt(var)
    se_mean = std / math.sqrt(n)
    if std > 0.0:
        m4 = float(np.mean((pts - mean) ** 4))
        se_std = math.sqrt(max(m4 - var * var, 0.0) / n) / (2.0 * std)
    else:
        se_std = 0.0
    return SimSummary(w, se_w, mean, se_mean, std, se_std, capped)


def simulate(config: SimConfig) -> SimSummary:
    """Simulate ``config.replications`` independent plays of the system.

    Deterministic given (seed, replications, system, params): rerunning the
    same config reproduces the summary bit for bit.
    """
    return _summarize(_simulate_outcomes(config))


def _score_table(out: _RepOutcomes) -> dict:
    """Conditional point-count stats by (winner, final score).

    Returns {(side, (score_winner, score_loser)): (count, mean, variance,
    fourth central moment)} over completed replications — the simulation
    counterpart of a per-row summary table, with enough to form standard
    errors for conditional means and variances.
    """
    if out.score_a is None:
        raise ValueError("this system records no final-score categories")
    ok = ~out.capped
    pts = out.points[ok].astype(np.float64)
    rows = np.column_stack((out.winner_a, out.score_a, out.score_b))[ok]
    table = {}
    for row in np.unique(rows, axis=0):
        a_won, a, b = (int(x) for x in row)
        sel = pts[(rows == row).all(axis=1)]
        mean = float(sel.mean())
        var = float(sel.var(ddof=1)) if sel.size > 1 else float("nan")
        m4 = float(np.mean((sel - mean) ** 4))
        table[("A", (a, b)) if a_won else ("B", (b, a))] = (int(sel.size), mean, var, m4)
    return table
