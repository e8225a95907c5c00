"""Simulation oracle: replays every scoring system point by point.

Each system's rules are compiled, on first use, into integer tables over its
score states: who serves the next point (A, B, or the serve coin of the
sudden game), the next state after a loss and after a win, and, for terminal
states, the winner and the final score.  The tables are built by walking the
scoring rules themselves, never the exact algebra, so the simulator stays an
independent judge of it.  Win-by-two tails are folded to keep them finite:
deuce returns to 3-3, a tie-break at k+1 all drops two points a side (which
keeps the ABBA phase), and an sttg tie drops a game a side whenever the lead
returns to level.  A per-replication tally counts the folds of the scored
unit, so a final score is the terminal label plus the tally.

A race whose length is a target (an ST to k, k0 or k1, a match's sets race
to q+1, the bofk and bog races to l+1) makes the tables grow with the
square of that target.  When a system's tables would pass ``_MAX_STATES``
states, each such race is instead counted per replication: the state keeps
only what the rules read of it (its serve phase, whether it stands level at
l-l or q-q), and a unit it takes leads to an event state, where the runner
adds the unit to the counts and moves on by the outcome (go on, go on
level, or won).  Tables then stay at a few thousand states whatever the
targets.

A replication is then one state index ``s``, plus the counts of any
counted race.  At every step each active replication takes exactly one
uniform ``u`` and moves by one gather::

    s = nxt[2*s + (u < p_win[s])]

where ``p_win`` is pA on A's serve (p in the one-server systems), 1 - pB on
B's, and one half on the serve coin.  The coin is a step of its own that
plays no point: it takes the draw right after the point that levelled the
score at l-l, and a replication's point count is its step count minus its
coin steps.  Events take no draw.

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

import collections
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import SystemSpec, _check_count, _check_prob

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


def _serves_first_abba(n):
    """True where point ``n`` (1-based) is served by the opener under ABBA."""
    return (n % 4) <= 1


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


# ------------------------------------------------------------- scoring rules
#
# A rule set is (start, server, point, scored): ``server(state)`` names who
# serves the next step, and ``point(state, a_won)`` returns (state, winner,
# fold).  Once ``winner`` is decided (True for A) the returned state is the
# final score label; ``fold`` is what the step folded off each side of the
# score.  ``scored`` is the race whose score is the final score, for the kinds
# that record one: a counted race's counts, else the final state's label.

_A, _B, _COIN = 0, 1, 2


class _Race(NamedTuple):
    """A race to ``first_to`` units that must be won by ``lead``.

    A tail where both sides reach ``fold_at`` is folded back by ``fold_by``.
    A ``counted`` race keeps no score in the state: the runner counts it,
    and the state holds a _Counted with what the rules read of it.
    """

    first_to: int
    lead: int = 1
    fold_at: int | None = None
    fold_by: int = 1
    level: int | None = None  # the tied score the rules test for, if any
    period: int = 1  # units played are seen mod this (server phase)
    counted: bool = False


class _Counted(NamedTuple):
    """What the rules see of a counted race: its phase, and if it is level."""

    race: _Race
    phase: int = 0
    level: bool = False


class _Pending(Exception):
    """A counted race took a unit; the walk branches on its outcome."""


# Outcomes of a counted race's unit, as the runner classifies them: the race
# goes on, goes on level at ``race.level``, or is won by the unit's winner.
_GO_ON, _LEVEL, _WON = 0, 1, 2
_SCRIPT: collections.deque = collections.deque()  # outcomes fed to the walk
_WALK_LOCK = threading.Lock()


def _start(race):
    return _Counted(race) if race.counted else (0, 0)


def _race(score, a_won, race):
    """Add one won unit to ``race``; returns (score, winner or None, fold)."""
    if isinstance(score, _Counted):
        if not _SCRIPT:
            raise _Pending(race, a_won)
        outcome = _SCRIPT.popleft()
        if outcome == _WON:
            return score, a_won, 0
        phase = (score.phase + 1) % race.period
        return _Counted(race, phase, outcome == _LEVEL), None, 0
    a, b = score[0] + a_won, score[1] + (not a_won)
    if max(a, b) >= race.first_to and abs(a - b) >= race.lead:
        return (a, b), a > b, 0
    if race.fold_at is not None and min(a, b) >= race.fold_at:
        return (a - race.fold_by, b - race.fold_by), None, race.fold_by
    return (a, b), None, 0


def _units(score):
    return score.phase if isinstance(score, _Counted) else score[0] + score[1]


def _level(score, n):
    return score.level if isinstance(score, _Counted) else score == (n, n)


_GAME = _Race(4, 2, fold_at=4)  # deuce tails fold back to 3-3
_SET_GAMES = _Race(6, 2)


def _tiebreak(k, counted=False):
    """ST(k) race; folding two points a side keeps the ABBA phase."""
    return _Race(k, 2, fold_at=k + 1, fold_by=2, period=4, counted=counted)


def _abba(score):
    """Server of the next tie-break point after ``score``; A opens."""
    return _A if _serves_first_abba(_units(score) + 1) else _B


def _by_parity(games):
    """Server of the next service game; A serves the first."""
    return _A if _units(games) % 2 == 0 else _B


_NEW_SET = ((0, 0), (0, 0))  # (games, points in the current game or ST)


def _set_server(state):
    games, pts = state
    return _abba(pts) if games == (6, 6) else _by_parity(games)


def _set_point(state, a_won, tiebreak):
    """Six-game set from A's serve with ``tiebreak`` at 6-6."""
    games, pts = state
    tied = games == (6, 6)
    pts, won, _ = _race(pts, a_won, tiebreak if tied else _GAME)
    if won is None:
        return (games, pts), None, 0
    games, set_won, _ = _race(games, won, _SET_GAMES)
    if tied or set_won is not None:
        return games, won if tied else set_won, 0
    return (games, _start(tiebreak) if games == (6, 6) else (0, 0)), None, 0


def _match_point(state, a_won, sets_race, tiebreaks):
    """Best of 2q+1 sets, each opened by A; the decider's ST plays to k1."""
    sets, inner = state
    inner, won, _ = _set_point(inner, a_won, tiebreaks[_level(sets, sets_race.level)])
    if won is None:
        return (sets, inner), None, 0
    sets, won, _ = _race(sets, won, sets_race)
    return ((sets, _NEW_SET) if won is None else sets), won, 0


def _bog_server(state, games_race, rule):
    games, coin, pts = state
    if coin is not None:
        return coin
    tied = _level(games, games_race.level)
    return _abba(pts) if tied and rule == "sttp" else _by_parity(games)


def _bog_point(state, a_won, games_race, rule):
    """Best of 2l+1 service games; the l-l tie follows ``rule``.

    The state is (games, coin, points).  sg flips a coin for the serve
    (``coin`` is _COIN until that step, then the server) and plays one game;
    sttg keeps alternating service games until one player leads by two;
    sttp abandons games for a fresh ABBA win-by-two points race.
    """
    games, coin, pts = state
    if coin == _COIN:
        return (games, _A if a_won else _B, (0, 0)), None, 0
    if rule == "sttp" and _level(games, games_race.level):
        pts, won, _ = _race(pts, a_won, _tiebreak(1))
        return ((games, coin, pts) if won is None else games), won, 0
    pts, won, _ = _race(pts, a_won, _GAME)
    if won is None:
        return (games, coin, pts), None, 0
    if coin is not None:
        return _race(games, won, games_race)[0], won, 0
    games, match_won, fold = _race(games, won, games_race)
    if match_won is not None:
        return games, match_won, fold
    coin = _COIN if rule == "sg" and _level(games, games_race.level) else None
    return (games, coin, (0, 0)), None, fold


def _rules(spec: SystemSpec, counted: bool):
    """(start, server, point, scored) for ``spec``, from the scoring rules.

    With ``counted``, every race whose length is one of ``spec``'s targets
    (k, k0, k1, q, l) is counted by the runner instead of held in the state.
    """
    kind = spec.kind
    if kind in ("gt", "game", "bofk"):
        race = _GAME if kind != "bofk" else _Race(spec.l + 1, counted=counted)
        start = (3, 3) if kind == "gt" else _start(race)  # gt: a game from deuce
        return start, lambda s: _A, functools.partial(_race, race=race), None
    if kind in ("stt", "st"):
        race = _tiebreak(spec.k, counted) if kind == "st" else _tiebreak(1)
        point = functools.partial(_race, race=race)  # stt: win by two from 0-0
        return _start(race), _abba, point, race if kind == "st" else None
    if kind == "set":
        point = functools.partial(_set_point, tiebreak=_tiebreak(spec.k, counted))
        return _NEW_SET, _set_server, point, _SET_GAMES
    if kind == "match":
        sets = _Race(spec.q + 1, level=spec.q, counted=counted)
        tiebreaks = (_tiebreak(spec.k0, counted), _tiebreak(spec.k1, counted))
        point = functools.partial(_match_point, sets_race=sets, tiebreaks=tiebreaks)
        start = (_start(sets), _NEW_SET)
        return start, lambda s: _set_server(s[1]), point, sets
    lead = 2 if spec.tiebreak == "sttg" else 1
    games = _Race(spec.l + 1, lead, fold_at=spec.l + 1, level=spec.l, period=2,
                  counted=counted)
    rule = dict(games_race=games, rule=spec.tiebreak)
    server = functools.partial(_bog_server, **rule)
    point = functools.partial(_bog_point, **rule)
    return (_start(games), None, (0, 0)), server, point, games


class _Tables(NamedTuple):
    """A system's rules as arrays.

    States below ``live`` play a point; states from ``live`` to ``final``
    are events, where a counted race takes a unit; states from ``final`` on
    are terminal.
    """

    live: int
    final: int
    server: np.ndarray  # per live state: _A, _B or _COIN
    nxt: np.ndarray  # next state; entry 2*s on a loss, 2*s + 1 on a win
    fold: np.ndarray | None  # per entry: folds of the scored unit, if any
    coins: np.ndarray  # per state: coin steps taken to reach it
    a_won: np.ndarray  # per state: terminal and won by A
    score: np.ndarray | None  # per state: terminal score label (a, b)
    scored: int | None  # counted race whose counts are the final score
    event_race: np.ndarray  # per event: the counted race taking the unit
    event_a_won: np.ndarray  # per event: the unit went to A
    resolve: np.ndarray  # per event and outcome: the next state
    races: np.ndarray  # per counted race: first_to, lead, level (-1: none)


class _TooLarge(Exception):
    """The walk passed its state limit."""


# Largest fully tabled system.  Above it every target-sized race is counted,
# which keeps any system's tables to a few thousand states.
_MAX_STATES = 10_000


@functools.lru_cache(maxsize=16)
def _tables(spec: SystemSpec) -> _Tables:
    """Compile ``spec``'s rules, counting its long races if they don't fit."""
    with _WALK_LOCK:
        try:
            return _walk(spec, counted=False, max_states=_MAX_STATES)
        except _TooLarge:
            return _walk(spec, counted=True, max_states=None)


def _walk(spec: SystemSpec, counted: bool, max_states: int | None) -> _Tables:
    """Compile ``spec``'s rules by a breadth-first walk from the start state."""
    start, server, point, scored = _rules(spec, counted)
    index = {start: 0}
    queue = [start]
    coins = [0]
    servers, targets, folds, events, ends = [], [], [], [], {}

    def target(s, a_won, after, script):
        """Target of ``point(s, a_won)`` once counted races take ``script``."""
        _SCRIPT.clear()
        _SCRIPT.extend(script)
        try:
            t, won, fold = point(s, a_won)
        except _Pending as pending:
            event = ("event", len(events))
            events.append(None)
            outcomes = [target(s, a_won, after, script + (o,))[0]
                        for o in (_GO_ON, _LEVEL, _WON)]
            events[event[1]] = (*pending.args, outcomes, after)
            return event, 0  # folds count only in a tabled scored race
        if won is not None:
            return ends.setdefault((won, t, after), ("end", won, t, after)), fold
        if t not in index:
            index[t] = len(queue)
            queue.append(t)
            coins.append(after)
            if max_states is not None and len(queue) > max_states:
                raise _TooLarge
        return t, fold

    for i, s in enumerate(queue):  # the walk appends newly reached states
        servers.append(server(s))
        after = coins[i] + (servers[-1] == _COIN)
        for a_won in (False, True):
            t, fold = target(s, a_won, after, ())
            targets.append(t)
            folds.append(fold)
    live, final = len(queue), len(queue) + len(events)
    for e, event in enumerate(events):
        index[("event", e)] = live + e
        coins.append(event[3])
    for end in ends.values():
        index[end] = len(coins)
        coins.append(end[3])
    n = len(coins)
    a_won = np.zeros(n, dtype=bool)
    a_won[final:] = [won for won, _, _ in ends]
    score = None
    if scored is not None and not scored.counted:
        score = np.zeros((n, 2), dtype=np.int32)
        score[final:] = [label for _, label, _ in ends]
    fold = np.array(folds, dtype=np.int32)
    races = list(dict.fromkeys(race for race, _, _, _ in events))
    return _Tables(
        live=live,
        final=final,
        server=np.array(servers, dtype=np.intp),
        nxt=np.array([index[t] for t in targets], dtype=np.intp),
        fold=fold if score is not None and fold.any() else None,
        coins=np.array(coins, dtype=np.int64),
        a_won=a_won,
        score=score,
        scored=races.index(scored) if scored in races else None,
        event_race=np.array([races.index(e[0]) for e in events], dtype=np.intp),
        event_a_won=np.array([e[1] for e in events], dtype=bool),
        resolve=np.array([[index[t] for t in e[2]] for e in events], dtype=np.intp),
        races=np.array(
            [(r.first_to, r.lead, -1 if r.level is None else r.level) for r in races],
            dtype=np.int64,
        ).reshape(-1, 3),
    )


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
    pts = out.points.astype(np.float64)
    table = {}
    enc = (
        out.winner_a.astype(np.int64) * 1_000_000
        + out.score_a.astype(np.int64) * 1_000
        + out.score_b.astype(np.int64)
    )
    for code in np.unique(enc[ok]):
        mask = ok & (enc == code)
        a_won = code >= 1_000_000
        hi, lo = divmod(int(code) % 1_000_000, 1_000)
        if not a_won:
            hi, lo = lo, hi
        sel = pts[mask]
        mean = float(sel.mean())
        var = float(sel.var(ddof=1)) if sel.size > 1 else float("nan")
        m4 = float(np.mean((sel - mean) ** 4))
        table[("A" if a_won else "B", (hi, lo))] = (int(sel.size), mean, var, m4)
    return table
