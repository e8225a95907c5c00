"""Simulation oracle: replays every scoring system point by point.

Each system's rules are compiled, on first use, into integer tables over its
score states (``rules._tables``); this module runs them.  A replication is
one state index ``s``, plus the counts of any counted race.  At every step
each active replication takes exactly one draw, a 53-bit integer ``bits``,
and moves by one gather::

    s = nxt[2*s + (bits < thresh[s])]

where ``thresh[s]`` is ceil(p_win * 2**53) and ``p_win`` is pA on A's serve
(p in the one-server systems), 1 - pB on B's, and one half on the serve
coin.  The draw's uniform u = bits * 2**-53 is exact, so the integer test
is exactly u < p_win: at p_win = 0 the threshold is 0 and the point is never
won, at p_win = 1 it is 2**53 and the point is always won.  The coin is a
step of its own that plays no point: it takes the draw right after the
point that levelled the score at l-l.  Events, where a counted race takes a
unit, take no draw.

The runner steps in blocks of ``_BLOCK_STEPS`` steps.  One vectorized pass
draws the whole block for every active replication, and replications that
finished are recorded and dropped once per block.  Within a block, terminal
states are absorbing (both entries loop back, threshold 0), so a replication
that ends mid-block stands still until the block is over; its point count
is its live steps minus its coin steps.  Counted races still settle their
events after every step.  No block crosses the safety cap, and from the cap
on blocks are one step long, so capped replications stop where a one-step
runner stops them.

The generator is a counter-based SplitMix64.  Draw ``j`` of replication ``r``
under master seed ``s`` is::

    mix64(mix64(s + (r+1)*GOLDEN) + (j+1)*GOLDEN)

whose top 53 bits are ``bits``, so every draw is a pure function of (seed,
replication, draw index), and replication ``r`` takes draw ``j`` at step
``j``.  Blocking, batching, vectorization width, or splitting replications
across workers cannot reorder or change a single draw, which is what makes
runs bit-identical across platforms and run shapes.  Replications that hit
the safety cap are counted and excluded from the point-count moments — never
silently folded in.

Accumulation uses numpy's pairwise summation over the fixed replication
order, so summaries are deterministic as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemSpec, _check_count, _check_pair, _check_prob
from .rules import _WON, _Tables, _tables

__all__ = ["SimConfig", "SimSummary", "simulate"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_TWO_53 = float(1 << 53)
_U53 = 1.0 / _TWO_53

# Steps drawn per call; the runner records and compacts once per block.
_BLOCK_STEPS = 8

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# Least value of each count that ``SimConfig`` takes; the CLI reads them too.
_CONFIG_MINIMUM = {"replications": 1, "max_points_per_replication": 100}


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 output mix (Steele–Lea–Flood) of a uint64 array, in place.

    ``tmp``, an array of ``z``'s shape, takes the shifted words; without it
    each shift takes a fresh array.
    """
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _MIX_1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _MIX_2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _rep_streams(seed: int, replications: int) -> np.ndarray:
    """Per-replication stream keys: mix64(seed + (r+1)*GOLDEN)."""
    rep = np.arange(1, replications + 1, dtype=np.uint64)
    return _mix64(np.uint64(seed & _SEED_MASK) + rep * _GOLDEN)


def _draw_bits(streams: np.ndarray, j0: int, out: np.ndarray,
               tmp: np.ndarray | None = None) -> np.ndarray:
    """Top 53 bits of draws ``j0``, ``j0 + 1``, ... of each stream key.

    Row ``c`` of ``out``, a (steps, keys) uint64 array, takes draw ``j0 + c``;
    ``tmp`` is passed on to ``_mix64``.
    """
    counter = np.arange(j0 + 1, j0 + 1 + out.shape[0], dtype=np.uint64) * _GOLDEN
    np.add(streams, counter[:, None], out=out)
    _mix64(out, tmp)
    out >>= np.uint64(11)
    return out


def _threshold(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64: a draw's ``bits < _threshold(p)`` is exactly u < p."""
    return np.ceil(np.asarray(p, dtype=np.float64) * _TWO_53).astype(np.uint64)


def _draw(streams: np.ndarray, j: int) -> np.ndarray:
    """Draw ``j`` (0-based) of each stream key, as a uniform in [0, 1)."""
    bits = _draw_bits(streams, j, np.empty((1, streams.size), dtype=np.uint64))
    return bits[0].astype(np.float64) * _U53


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
        for name, minimum in _CONFIG_MINIMUM.items():
            object.__setattr__(
                self, name, _check_count(name, getattr(self, name), minimum=minimum)
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
            object.__setattr__(self, "params", _check_pair(pa, pb, float))
        else:
            if isinstance(self.params, (tuple, list)):
                raise ValueError(
                    f"system {self.system.kind!r} takes a single serve "
                    f"probability, got params {self.params!r}"
                )
            object.__setattr__(self, "params", float(_check_prob("p", self.params)))


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
    live, final, coins = tables.live, tables.final, tables.coins
    pa, pb = config.params if config.system.takes_pair else (config.params, 0.0)
    # states from ``live`` on win no point and loop to themselves
    thresh = np.zeros(coins.size, dtype=np.uint64)
    thresh[:live] = _threshold(np.array([pa, 1.0 - pb, 0.5])[tables.server])
    nxt = np.concatenate((tables.nxt, np.arange(live, coins.size).repeat(2)), dtype=np.int64)
    fold = None if tables.fold is None else np.pad(tables.fold, (0, nxt.size - tables.fold.size))
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
    s = np.zeros(n, dtype=np.int64)
    tally = np.zeros(n, dtype=np.int32)
    counts = np.zeros((n, len(tables.races), 2), dtype=np.int64)
    draws = np.empty(_BLOCK_STEPS * n, dtype=np.uint64)
    scratch = np.empty_like(draws)
    step = 0
    while rep.size:
        # blocks stop at the cap and are one step long past it
        steps = min(_BLOCK_STEPS, cap - step) if step < cap else 1
        shape, size = (steps, rep.size), steps * rep.size
        bits = _draw_bits(keys, step, draws[:size].reshape(shape), scratch[:size].reshape(shape))
        seen = bits.view(np.int64)  # row c, once compared, takes the states after step c
        for c in range(steps):
            edge = 2 * s + (bits[c] < thresh.take(s))
            s = nxt.take(edge, out=seen[c])
            if fold is not None:
                tally += fold.take(edge)
            if final > live:
                _settle(tables, s, counts)
        step += steps
        fin = s >= final
        if step >= cap:
            fin |= step - coins[s] >= cap
        if not fin.any():
            s = s.copy()  # the next block draws over the row that holds it
            continue
        f = np.flatnonzero(fin)
        done, end = rep[f], s[f]
        # each ended one step after the last of the block's rows that held it live
        ended = step - steps + 1 + (seen[:steps - 1, f] < live).sum(axis=0)
        out.points[done] = ended - coins[end]
        out.winner_a[done] = tables.a_won[end]
        if step >= cap:  # scores are kept for completed replications only
            ok = end >= final
            out.capped[done] = ~ok
            f, done, end = f[ok], done[ok], end[ok]
        if tables.scored is not None:
            out.score_a[done], out.score_b[done] = counts[f, tables.scored].T
        elif out.score_a is not None:
            out.score_a[done] = tables.score[end, 0] + tally[f]
            out.score_b[done] = tables.score[end, 1] + tally[f]
        keep = ~fin
        rep, s, keys, tally = rep[keep], s[keep], keys[keep], tally[keep]
        if final > live:
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
