"""Public entries: each is declared once, in its module's ``__all__``,
validates its arguments once, and reads the same evaluator as every other
entry of its layer.

Nested layers call each other's unchecked evaluators, so the check at the
public entry is the only one a bad probability meets.  Every public function
that takes a probability must reject it there, naming the argument.  A
breakdown's overall line and the layer's win probability and moments read
one evaluation, so they agree to the bit, corners included.
"""

from __future__ import annotations

import inspect
import types

import numpy as np
import pytest

import deuce
from deuce import bestof, core, efficiency, game, match, montecarlo, sets
from deuce.core import NonTerminatingError

# the modules whose ``__all__`` the package re-exports
REEXPORTED = (bestof, core, game, match, montecarlo, sets)
# spec constructors core defines and a layer lists as its own
SPEC_CONSTRUCTORS = {"MatchSpec": match, "BestOfGamesSpec": bestof}


def _defined(module) -> set:
    """The public functions and classes ``module`` defines itself."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}


@pytest.mark.parametrize("module", REEXPORTED + (efficiency,), ids=lambda m: m.__name__)
def test_all_lists_what_the_module_defines(module):
    listed = {name for name, owner in SPEC_CONSTRUCTORS.items() if owner is module}
    expected = _defined(module) - set(SPEC_CONSTRUCTORS) | listed
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == expected


def test_package_surface_is_the_union_of_the_layer_lists():
    lists = [name for module in REEXPORTED for name in module.__all__]
    assert len(lists) == len(set(lists)) == 45
    public = {name for name, obj in vars(deuce).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(lists)
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(deuce, name) is getattr(module, name)
    for name, obj in vars(deuce).items():
        if isinstance(obj, types.ModuleType):
            assert obj.__name__ == f"deuce.{name}"
    assert not set(efficiency.__all__) & set(vars(deuce))


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

MATCH = deuce.MatchSpec(7, 10, 2)

# layer -> (breakdown, win probability, moments), each of (pa, pb), or of p for the game
LAYERS = {
    "game": (deuce.game_breakdown, deuce.game_win_prob, deuce.game_points_moments),
    "st": (lambda pa, pb: deuce.st_breakdown(pa, pb, 7),
           lambda pa, pb: deuce.st_win_prob(pa, pb, 7),
           lambda pa, pb: deuce.st_points_moments(pa, pb, 7)),
    "set": (lambda pa, pb: deuce.set_breakdown(pa, pb, 7),
            lambda pa, pb: deuce.set_win_prob(pa, pb, 7),
            lambda pa, pb: deuce.set_points_moments(pa, pb, 7)),
    "match": (lambda pa, pb: deuce.match_breakdown(pa, pb, MATCH),
              lambda pa, pb: deuce.match_win_prob(pa, pb, MATCH),
              lambda pa, pb: deuce.match_points_moments(pa, pb, MATCH)),
}


def _params(layer):
    return [(float(p),) for p in GRID] if layer == "game" else PAIRS


def _agree(breakdown, read, value, *params):
    """``read`` of the breakdown is ``value``, to the bit, or both raise."""
    try:
        table = breakdown(*params)
    except NonTerminatingError:
        with pytest.raises(NonTerminatingError):
            value(*params)
        return
    assert read(table) == value(*params)


@pytest.mark.parametrize("layer", LAYERS)
def test_breakdown_win_line_is_the_win_probability(layer):
    breakdown, win, _ = LAYERS[layer]
    for params in _params(layer):
        _agree(breakdown, lambda table: table.win_prob, win, *params)


@pytest.mark.parametrize("layer", LAYERS)
def test_breakdown_moments_are_the_moments_function(layer):
    breakdown, _, moments = LAYERS[layer]
    for params in _params(layer):
        _agree(breakdown, lambda table: (table.mean, table.variance), moments, *params)


ST_ROWS = [f"7-{h}" for h in range(6)]
SET_ROWS = [f"6-{h}" for h in range(5)] + ["7-5"]


# (layer, params, the rows its breakdown shows, the tie row): a tie of zero
# mass is hidden in the st and set tables, and shown in the game and match ones
@pytest.mark.parametrize("layer, params, shown, tie", [
    ("st", (0.6, 0.55), ST_ROWS + ["TB"], "TB"),
    ("st", (1.0, 0.0), ST_ROWS, "TB"),
    ("set", (0.6, 0.55), SET_ROWS + ["7-6"], "7-6"),
    ("set", (1.0, 0.0), SET_ROWS, "7-6"),
    ("game", (0.6,), ["4-0", "4-1", "4-2", "TB"], "TB"),
    ("game", (0.0,), ["4-0", "4-1", "4-2", "TB"], "TB"),
    ("match", (0.6, 0.55), ["3-0", "3-1", "3-2"], "3-2"),
    ("match", (1.0, 0.0), ["3-0", "3-1", "3-2"], "3-2"),
])
def test_breakdown_shows_its_tie_row_where_the_layer_does(layer, params, shown, tie):
    table = LAYERS[layer][0](*params)
    assert [r.score for r in table.rows] == shown
    if tie in shown:
        assert (table.row(tie).p_total > 0.0) == (params[0] == 0.6)
