"""Public entries: each validates its arguments once, and reads the same
evaluator as every other entry of its layer.

Nested layers call each other's unchecked evaluators, so the check at the
public entry is the only one a bad probability meets.  Every public function
that takes a probability must reject it there, naming the argument.  The
breakdown's overall win line and the layer's win probability read one
formula, so they agree to the bit, corners included.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import deuce
from deuce import bestof, core, game, match, sets
from deuce.core import NonTerminatingError

PROBABILITY_ARGS = ("p", "pa", "pb", "p1", "p2")

# valid values for every other required argument of a layer's public functions
OTHER_ARGS = {"pa": 0.6, "pb": 0.55, "p": 0.6, "p1": 0.6, "p2": 0.45,
              "k": 7, "l": 3, "n1": 3, "n2": 2}
SPECS = {match: deuce.MatchSpec(7, 10, 2), bestof: deuce.BestOfGamesSpec(3)}


def _probability_cases():
    for module in (core, game, sets, match, bestof):
        for name, fn in sorted(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            for arg in PROBABILITY_ARGS:
                if arg in params:
                    yield pytest.param(fn, arg, id=f"{name}-{arg}")


BAD_VALUES = {"1.2": 1.2, "-0.1": -0.1, "nan": float("nan"),
              "array": np.array([0.5, 1.2])}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("fn, arg", list(_probability_cases()))
def test_every_probability_is_checked_at_the_entry(fn, arg, bad):
    kwargs = {}
    for name, param in inspect.signature(fn).parameters.items():
        if param.default is not inspect.Parameter.empty:
            continue
        kwargs[name] = SPECS[inspect.getmodule(fn)] if name == "spec" else OTHER_ARGS[name]
    kwargs[arg] = BAD_VALUES[bad]
    with pytest.raises(ValueError, match=rf"^{arg} must lie in \[0, 1\], got "):
        fn(**kwargs)


def test_probability_cases_cover_every_layer():
    # 9 one-probability functions, 17 pair functions and the 2 serve-split sums
    assert len(list(_probability_cases())) == 9 + 2 * 17 + 2 * 2


def test_checked_value_is_reported_as_given():
    with pytest.raises(ValueError, match=r"got 1\.2$"):
        deuce.binomial_convolution_mass(3, 1.2, 2, 0.5, 2)


GRID = np.linspace(0.0, 1.0, 11)
PAIRS = [(float(pa), float(pb)) for pa in GRID for pb in GRID]

# layer -> (breakdown, win probability), both of (pa, pb)
LAYERS = {
    "st": (lambda pa, pb: deuce.st_breakdown(pa, pb, 7),
           lambda pa, pb: deuce.st_win_prob(pa, pb, 7)),
    "set": (lambda pa, pb: deuce.set_breakdown(pa, pb, 7),
            lambda pa, pb: deuce.set_win_prob(pa, pb, 7)),
    "match": (lambda pa, pb: deuce.match_breakdown(pa, pb, deuce.MatchSpec(7, 10, 2)),
              lambda pa, pb: deuce.match_win_prob(pa, pb, deuce.MatchSpec(7, 10, 2))),
}


def _win_line(breakdown, win, *params):
    try:
        table = breakdown(*params)
    except NonTerminatingError:
        with pytest.raises(NonTerminatingError):
            win(*params)
        return
    assert table.win_prob == win(*params)


@pytest.mark.parametrize("layer", ["game", *LAYERS])
def test_breakdown_win_line_is_the_win_probability(layer):
    if layer == "game":
        for p in GRID:
            _win_line(deuce.game_breakdown, deuce.game_win_prob, float(p))
        return
    for pa, pb in PAIRS:
        _win_line(*LAYERS[layer], pa, pb)
