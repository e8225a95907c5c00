"""Scoring rules as data: the kind table and the rule compiler.

``_KINDS`` holds, for each system kind, whether it takes a (pA, pB) pair,
its structural fields, and its scoring rules.  ``SystemSpec`` validates
against the table, and ``_tables`` compiles a spec's rules, on first use,
into integer tables over its score states: who serves the next point, the
next state after a loss and after a win, and, for terminal states, the
winner and the final score.  Servers are coded _A = 0, _B = 1 and _COIN = 2
(the serve coin of the sudden game), so a runner can index its per-point
win probabilities ``[pA, 1 - pB, 0.5]`` by them.  The tables are built by
walking the scoring rules themselves, never the exact algebra, so what they
drive stays an independent judge of it.

Win-by-two tails are folded to keep them finite: deuce returns to 3-3, a
tie-break at k+1 all drops two points a side (which keeps the ABBA phase),
and an sttg tie drops a game a side whenever the lead returns to level.  A
per-replication tally of the folds of the scored unit makes a final score
the terminal label plus the tally.

A race whose length is a target (an ST to k, k0 or k1, a match's sets race
to q+1, the bofk and bog races to l+1) makes the tables grow with the
square of that target.  When a system's tables would pass ``_MAX_STATES``
states, each such race is instead counted per replication: the state keeps
only what the rules read of it (its serve phase, whether it stands level at
l-l or q-q), and a unit it takes leads to an event state, where the runner
adds the unit to the counts and moves on by the outcome (go on, go on
level, or won).  Tables then stay at a few thousand states whatever the
targets.

This module imports nothing else from ``deuce``.
"""

from __future__ import annotations

import collections
import functools
from typing import Callable, NamedTuple

import numpy as np


def _serves_first_abba(n):
    """True where point ``n`` (1-based) is served by the opener under ABBA."""
    return (n % 4) <= 1


# ------------------------------------------------------------- scoring rules
#
# A rule set is (start, server, point, scored): ``server(state)`` names who
# serves the next step, and ``point(state, a_won, script)`` returns (state,
# winner, fold).  Once ``winner`` is decided (True for A) the returned state
# is the final score label; ``fold`` is what the step folded off each side of
# the score.  ``script`` is a deque of the outcomes that counted races take,
# in order.  ``scored`` is the race whose score is the final score, for the
# kinds that record one: a counted race's counts, else the final state's label.

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
    """A counted race took a unit that its script holds no outcome for."""


# Outcomes of a counted race's unit, as the runner classifies them: the race
# goes on, goes on level at ``race.level``, or is won by the unit's winner.
_GO_ON, _LEVEL, _WON = 0, 1, 2


def _start(race):
    return _Counted(race) if race.counted else (0, 0)


def _race(score, a_won, script, race):
    """Add one won unit to ``race``; returns (score, winner or None, fold)."""
    if isinstance(score, _Counted):
        if not script:
            raise _Pending(race, a_won)
        outcome = script.popleft()
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


def _set_point(state, a_won, script, tiebreak):
    """Six-game set from A's serve with ``tiebreak`` at 6-6."""
    games, pts = state
    tied = games == (6, 6)
    pts, won, _ = _race(pts, a_won, script, tiebreak if tied else _GAME)
    if won is None:
        return (games, pts), None, 0
    games, set_won, _ = _race(games, won, script, _SET_GAMES)
    if tied or set_won is not None:
        return games, won if tied else set_won, 0
    return (games, _start(tiebreak) if games == (6, 6) else (0, 0)), None, 0


def _match_point(state, a_won, script, sets_race, tiebreaks):
    """Best of 2q+1 sets, each opened by A; the decider's ST plays to k1."""
    sets, inner = state
    tiebreak = tiebreaks[_level(sets, sets_race.level)]
    inner, won, _ = _set_point(inner, a_won, script, tiebreak)
    if won is None:
        return (sets, inner), None, 0
    sets, won, _ = _race(sets, won, script, sets_race)
    return ((sets, _NEW_SET) if won is None else sets), won, 0


def _bog_server(state, games_race, rule):
    games, coin, pts = state
    if coin is not None:
        return coin
    tied = _level(games, games_race.level)
    return _abba(pts) if tied and rule == "sttp" else _by_parity(games)


def _bog_point(state, a_won, script, games_race, rule):
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
        pts, won, _ = _race(pts, a_won, script, _tiebreak(1))
        return ((games, coin, pts) if won is None else games), won, 0
    pts, won, _ = _race(pts, a_won, script, _GAME)
    if won is None:
        return (games, coin, pts), None, 0
    if coin is not None:
        return _race(games, won, script, games_race)[0], won, 0
    games, match_won, fold = _race(games, won, script, games_race)
    if match_won is not None:
        return games, match_won, fold
    coin = _COIN if rule == "sg" and _level(games, games_race.level) else None
    return (games, coin, (0, 0)), None, fold


# --------------------------------------------------------- rules of each kind
#
# ``rules(spec, counted)`` gives (start, server, point, scored) for ``spec``.
# With ``counted``, every race whose length is one of the spec's targets
# (k, k0, k1, q, l) is counted by the runner instead of held in the state.

def _one_race(race, server=lambda s: _A, start=None, scored=False):
    """Rules of a system that is a single race, from 0-0 unless ``start``."""
    start = _start(race) if start is None else start
    return start, server, functools.partial(_race, race=race), race if scored else None


def _set_rules(spec, counted):
    point = functools.partial(_set_point, tiebreak=_tiebreak(spec.k, counted))
    return _NEW_SET, _set_server, point, _SET_GAMES


def _match_rules(spec, counted):
    sets = _Race(spec.q + 1, level=spec.q, counted=counted)
    tiebreaks = (_tiebreak(spec.k0, counted), _tiebreak(spec.k1, counted))
    point = functools.partial(_match_point, sets_race=sets, tiebreaks=tiebreaks)
    return (_start(sets), _NEW_SET), lambda s: _set_server(s[1]), point, sets


def _bog_rules(spec, counted):
    lead = 2 if spec.tiebreak == "sttg" else 1
    games = _Race(spec.l + 1, lead, fold_at=spec.l + 1, level=spec.l, period=2,
                  counted=counted)
    rule = dict(games_race=games, rule=spec.tiebreak)
    server = functools.partial(_bog_server, **rule)
    point = functools.partial(_bog_point, **rule)
    return (_start(games), None, (0, 0)), server, point, games


class _Kind(NamedTuple):
    """One system kind: its parameters, its fields and its scoring rules."""

    takes_pair: bool  # parameterized by (pA, pB) rather than one p
    fields: dict  # {field: default}; None marks a required field
    rules: Callable  # rules(spec, counted) -> (start, server, point, scored)


# Fields are listed in SystemSpec's order.
_KINDS = {
    "gt": _Kind(False, {}, lambda spec, counted: _one_race(_GAME, start=(3, 3))),  # from deuce
    "game": _Kind(False, {}, lambda spec, counted: _one_race(_GAME)),
    "stt": _Kind(True, {}, lambda spec, counted: _one_race(_tiebreak(1), _abba)),  # win by two
    "st": _Kind(True, {"k": 7}, lambda spec, counted: _one_race(
        _tiebreak(spec.k, counted), _abba, scored=True)),
    "set": _Kind(True, {"k": 7}, _set_rules),
    "match": _Kind(True, {"k0": 7, "k1": 7, "q": 2}, _match_rules),
    "bofk": _Kind(False, {"l": None}, lambda spec, counted: _one_race(
        _Race(spec.l + 1, counted=counted))),
    "bog": _Kind(True, {"l": None, "tiebreak": "sttg"}, _bog_rules),
}


# ------------------------------------------------------------------ compiler

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
def _tables(spec) -> _Tables:
    """Compile a ``SystemSpec``'s rules, counting its long races if they don't fit."""
    try:
        return _walk(spec, counted=False, max_states=_MAX_STATES)
    except _TooLarge:
        return _walk(spec, counted=True, max_states=None)


def _walk(spec, counted: bool, max_states: int | None) -> _Tables:
    """Compile ``spec``'s rules by a breadth-first walk from the start state."""
    start, server, point, scored = _KINDS[spec.kind].rules(spec, counted)
    index = {start: 0}
    queue = [start]
    coins = [0]
    servers, targets, folds, events, ends = [], [], [], [], {}

    def target(s, a_won, after, script):
        """Target of ``point(s, a_won)`` once counted races take ``script``."""
        try:
            t, won, fold = point(s, a_won, collections.deque(script))
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
