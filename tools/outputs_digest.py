"""Print a digest of the ``deuce`` outputs, one line per call.

Each line names a call, then each of its outputs with every float written
exactly (``float.hex``), or the type and message of the exception it
raised, followed by any warnings it gave.  It covers every public library
function over a fixed set of serve probabilities, among them the corners
(0, 0), (1, 1), (1, 0) and (0.5, 0.5), out-of-range and NaN arguments, and
arrays for the functions that broadcast; then in-process ``compute``,
``breakdown``, ``efficiency`` and ``simulate`` CLI calls for every system
kind, and ``grid`` calls for every pair kind and quantity at 1, 6 and 15
significant digits, in JSON and CSV; and last, run as the ``deuce`` console
script runs it, the ``--help`` of the group and of each command and a fixed
list of usage errors, each with its exit code, stdout and stderr.

Two checkouts give the same digest exactly when these outputs are
bit-identical, so a refactor that must not move a number is checked by
diffing the digests of the parent and of the change.  A change that adds
calls here shows them as new lines against a digest the parent's copy of this
tool printed; to compare those outputs too, run the changed tool at the root
of both checkouts.  Standard library plus ``deuce`` from ``src/``; it exits 0
unless the script itself fails.  Run it from the repository root:

    python3 tools/outputs_digest.py > digest.txt
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import numpy as np  # noqa: E402  (numpy comes with deuce)

import deuce  # noqa: E402
from deuce import cli  # noqa: E402

SINGLES = (0.0, 1.0, 0.5, 0.6, 0.25, 0.999, 1e-9)
PAIRS = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.6, 0.55),
         (0.97, 0.6), (0.75, 0.3), (0.3, 0.71), (0.999, 0.001))
BAD = (1.2, -0.1, float("nan"))


_NAMES = {}  # id of an argument array -> the name its call lines show


def _grid(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    _NAMES[id(arr)] = name
    return arr


_AXIS = np.linspace(0.05, 0.95, 4)
GRID_A = _grid("A[4x1]", _AXIS[:, None])
GRID_B = _grid("B[1x4]", _AXIS[None, :])
EDGE_A = _grid("edge_a[0,1,0.5,0.2]", [0.0, 1.0, 0.5, 0.2])
EDGE_B = _grid("edge_b[1,0,0.5,0.9]", [1.0, 0.0, 0.5, 0.9])
SINGLE_ARRAY = _grid("p[0,0.25,0.5,0.75,1]", [0.0, 0.25, 0.5, 0.75, 1.0])
BAD_ARRAY = _grid("bad[0.5,1.2]", [0.5, 1.2])
ARRAY_PAIRS = ((GRID_A, GRID_B), (EDGE_A, EDGE_B))


def _hex(x) -> str:
    if type(x) is float:
        return x.hex()
    if isinstance(x, np.floating):
        return f"{type(x).__name__}:{float(x).hex()}"
    if isinstance(x, np.ndarray):
        body = " ".join(float(v).hex() for v in x.ravel().tolist())
        return f"{x.dtype}{list(x.shape)}[{body}]"
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(_hex(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k!r}: {_hex(v)}" for k, v in sorted(x.items())) + "}"
    if dataclasses.is_dataclass(x):
        fields = (f"{f.name}={_hex(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}(" + ", ".join(fields) + ")"
    return repr(x)


def _shown(arg) -> str:
    if id(arg) in _NAMES:
        return _NAMES[id(arg)]
    return arg.__name__ if callable(arg) else repr(arg)


def _line(name: str, args: tuple, outputs: str, caught) -> None:
    shown = ", ".join(_shown(a) for a in args)
    warned = "".join(f" [{w.category.__name__}: {w.message}]" for w in caught)
    print(f"{name}({shown}) -> {outputs}{warned}")


def call(fn, *args) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:  # the digest records every failure as an output
            text = f"{type(exc).__name__}: {exc}"
        else:
            text = _hex(out)
    _line(fn.__name__, args, text, caught)


def library() -> None:
    for n in (1, 2, 3, 4, 5, 7, 0, -1, 2.0, True):
        for fn in (deuce.serves_by_first_server, deuce.first_server_on_point,
                   deuce.games_served_by_first_server, deuce.first_server_serves_game):
            call(fn, n)
    for eta in (0.0, 0.3, 1.0, 1.5, float("nan"), SINGLE_ARRAY):
        call(deuce.geometric_moments, eta)
    convolutions = (deuce.binomial_convolution_mass, deuce.binomial_convolution_tail)
    for fn in convolutions:
        for n1, n2 in ((0, 0), (3, 2), (5, 7)):
            for k in (-1, 0, 1, 3, 5, 13, 1.5, True):
                for p1, p2 in ((0.6, 0.45), (0.0, 1.0)):
                    call(fn, n1, p1, n2, p2, k)
        for p1, p2 in PAIRS[:5] + ARRAY_PAIRS:
            call(fn, 4, p1, 3, p2, 4)
        for bad in BAD + (BAD_ARRAY,):
            call(fn, 3, bad, 2, 0.5, 2)
            call(fn, 3, 0.5, 2, bad, 2)

    singles = (deuce.odds, deuce.gt_win_prob, deuce.gt_points_moments, deuce.game_win_prob,
               deuce.game_points_moments, deuce.game_points_pmf, deuce.game_breakdown)
    for fn in singles:
        for p in SINGLES + BAD:
            call(fn, p)
    for fn in singles[:5]:
        for p in (SINGLE_ARRAY, GRID_A, BAD_ARRAY):
            call(fn, p)
    for p in (0.6, 0.999):
        call(deuce.game_points_pmf, p, 40)
    call(deuce.game_points_pmf, 0.6, 5)
    for l in (1, 3, 10, 0):
        for p in SINGLES[:5] + BAD:
            call(deuce.bofk_win_prob, p, l)
            call(deuce.bofk_points_distribution, p, l)
        call(deuce.bofk_win_prob, SINGLE_ARRAY, l)

    def pairs(fn, *rest, arrays=True):
        for pa, pb in PAIRS + (ARRAY_PAIRS if arrays else ()):
            call(fn, pa, pb, *rest)
        for bad in BAD + ((BAD_ARRAY,) if arrays else ()):
            call(fn, bad, 0.5, *rest)
            call(fn, 0.5, bad, *rest)

    pairs(deuce.stt_win_prob)
    pairs(deuce.stt_points_distribution, arrays=False)
    call(deuce.stt_points_distribution, 0.6, 0.55, 30)
    for k in (2, 3, 7, 10):
        pairs(deuce.st_win_prob, k)
        pairs(deuce.st_points_moments, k)
        pairs(deuce.st_breakdown, k, arrays=False)
        pairs(deuce.st_points_distribution, k, 200, arrays=False)
    for k in (2, 7, 10):
        pairs(deuce.set_win_prob, k)
        pairs(deuce.set_points_moments, k)
        pairs(deuce.set_breakdown, k, arrays=False)
        pairs(deuce.set_points_distribution, k, 400, arrays=False)
    call(deuce.set_points_distribution, 0.6, 0.55, 7)
    for k in (1, 2.0):
        call(deuce.st_win_prob, 0.6, 0.55, k)
        call(deuce.set_win_prob, 0.6, 0.55, k)
        call(deuce.set_points_moments, 0.6, 0.55, k)

    for spec in (deuce.MatchSpec(7, 10, 2), deuce.MatchSpec(7, 7, 1), deuce.MatchSpec(6, 9, 3)):
        pairs(deuce.match_win_prob, spec)
        pairs(deuce.match_points_moments, spec)
        pairs(deuce.match_breakdown, spec, arrays=False)
        pairs(deuce.match_set_jpmf, spec, arrays=False)
        pairs(deuce.match_points_distribution, spec, 800, arrays=False)
    call(deuce.match_points_distribution, 0.6, 0.55, deuce.MatchSpec(7, 10, 2))
    call(deuce.match_win_prob, 0.6, 0.55, deuce.SystemSpec("set"))

    for l in (1, 4, 29):
        for tiebreak in ("sg", "sttg", "sttp"):
            spec = deuce.BestOfGamesSpec(l, tiebreak)
            pairs(deuce.bog_match_win_prob, spec)
            pairs(deuce.bog_match_points_moments, spec)
    call(deuce.bog_match_points_moments, 0.6, 0.55, deuce.BestOfGamesSpec(4), "games")
    call(deuce.bog_match_points_moments, 0.6, 0.55, deuce.BestOfGamesSpec(4, "sg"), "games")

    prior = deuce.efficiency.BetaPrior(1.0, 1.0)
    call(deuce.efficiency.efficiency_one_param, deuce.game_win_prob, prior)
    call(deuce.efficiency.efficiency_two_param, deuce.stt_win_prob, (prior, prior))
    for kind, params in (("game", 0.6), ("set", (0.6, 0.55)), ("bog", (0.6, 0.55))):
        spec = deuce.SystemSpec(kind, l=3) if kind == "bog" else deuce.SystemSpec(kind)
        call(deuce.simulate, deuce.SimConfig(system=spec, params=params, replications=200,
                                             seed=1))


# Each a usage error (exit 2); a crash shows as its exception instead.
USAGE_ERRORS = (
    # an unknown system, for each command
    ["compute", "quidditch", "--p", "0.5"],
    ["breakdown", "gt", "--p", "0.5"],
    ["grid", "quidditch"],
    ["grid", "quidditch-mean"],
    ["efficiency", "quidditch"],
    ["efficiency", "game", "quidditch"],
    ["simulate", "quidditch", "--p", "0.5", "--reps", "3"],
    # a structure flag that applies to none of the systems, or a missing one
    ["compute", "game", "--p", "0.5", "--k", "7"],
    ["efficiency", "stt", "game", "--l", "3"],
    ["compute", "bofk", "--p", "0.5"],
    # a structure flag below its minimum, or an unknown l-all tie rule
    ["compute", "st", "--k", "1"],
    ["compute", "match", "--k0", "1"],
    ["compute", "match", "--k1", "1"],
    ["compute", "match", "--q", "0"],
    ["compute", "bofk", "--l", "0"],
    ["compute", "bog", "--l", "3", "--tiebreak", "x"],
    # missing or misplaced serve probabilities
    ["compute", "set", "--pb", "0.5"],
    ["compute", "set", "--p", "0.5"],
    ["simulate", "game", "--pa", "0.5", "--pb", "0.5", "--reps", "3"],
    # grid's own checks
    ["grid", "match-mean", "--quantity", "win_prob"],
    ["grid", "st-median"],
    ["grid", "stt", "--pmin", "0.6", "--pmax", "0.6"],
    ["grid", "set", "--other", "game", "--quantity", "diff"],
    ["grid", "set", "--quantity", "log_ratio"],
    ["grid", "game"],
    # efficiency's priors
    ["efficiency", "game", "--prior", "1,x"],
    ["efficiency", "game", "--prior", "1,2,3"],
    ["efficiency", "game", "--prior", "nan,1"],
    ["efficiency", "game", "--prior", "2,1", "--alpha", "2"],
    # non-finite numbers
    ["compute", "game", "--p", "nan"],
    ["compute", "game", "--p", "inf"],
    ["breakdown", "set", "--pa", "0.6", "--pb", "nan"],
    ["grid", "stt", "--pmin", "nan"],
    ["grid", "stt", "--pmax", "nan"],
    ["efficiency", "game", "--alpha", "nan"],
    ["efficiency", "game", "--beta", "inf"],
    ["simulate", "stt", "--pa", "0.6", "--pb", "nan", "--reps", "3"],
)


def _cli(args: list, standalone: bool = False) -> None:
    """One digest line for ``deuce ARGS``: its exit code, stdout and stderr.

    ``standalone`` runs it as the console script does, which prints usage
    errors and ``--help``; otherwise a usage error shows as its exception.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, prog_name="deuce", standalone_mode=standalone, terminal_width=80)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a usage error without standalone mode, or a crash
            code = f"{type(exc).__name__}: {exc}".replace("\n", "\\n")
    print(f"cli {' '.join(args)} -> exit={code} out={json.dumps(out.getvalue())} "
          f"err={json.dumps(err.getvalue())}")


def command_line() -> None:
    structure = {"st": ["--k", "10"], "set": ["--k", "7"],
                 "match": ["--k0", "7", "--k1", "10", "--q", "2"],
                 "bofk": ["--l", "3"], "bog": ["--l", "4", "--tiebreak", "sttg"]}
    for command in ("compute", "breakdown"):
        for kind in cli.SYSTEM_KINDS:
            if command == "breakdown" and cli._OPS[kind].breakdown is None:
                continue
            if cli._KINDS[kind].takes_pair:
                params = [["--pa", str(a), "--pb", str(b)] for a, b in PAIRS]
            else:
                params = [["--p", str(p)] for p in SINGLES]
            for values in params:
                for fmt in ("json", "csv"):
                    _cli([command, kind, *values, *structure.get(kind, []),
                          "--format", fmt, "--precision", "15"])
    for fmt in ("json", "csv"):
        for kind in cli.SYSTEM_KINDS:
            _cli(["efficiency", kind, *structure.get(kind, []), "--format", fmt,
                  "--precision", "15"])
            params = ["--pa", "0.6", "--pb", "0.55"] if cli._KINDS[kind].takes_pair \
                else ["--p", "0.6"]
            _cli(["simulate", kind, *params, *structure.get(kind, []), "--reps", "200",
                  "--seed", "1", "--format", fmt, "--precision", "15"])
        _cli(["efficiency", "stt", "game", "--prior", "2,1", "--format", fmt])
        for kind in ("stt", "st", "set", "match", "bog"):
            for quantity in ("win", "mean", "std"):
                for precision in ("1", "6", "15"):
                    _cli(["grid", f"{kind}-{quantity}", *structure.get(kind, []), "--res", "5",
                          "--format", fmt, "--precision", precision])
        for quantity in ("diff", "log_ratio"):
            _cli(["grid", "set", "--other", "st", "--k", "7", "--quantity", quantity,
                  "--res", "6", "--pmin", "0.3", "--pmax", "0.9", "--format", fmt])
        # (0, 0) and (1, 1) are on the lattice, where no tie-break ends
        _cli(["grid", "stt", "--res", "3", "--pmin", "0", "--pmax", "1", "--format", fmt])
    for command in ([], *([name] for name in sorted(cli.main.commands))):
        _cli([*command, "--help"], standalone=True)
    for args in USAGE_ERRORS:
        _cli(args, standalone=True)


def main() -> None:
    library()
    command_line()


if __name__ == "__main__":
    main()
