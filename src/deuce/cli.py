"""Command-line surface for the scoring-system calculators.

Subcommands
-----------
compute     win probability and duration moments for one system
breakdown   per-score probability tables (game, tie-break, set, match)
grid        CSV matrices of a quantity over a (p_A, p_B) lattice
efficiency  prior-weighted efficiency reports with quadrature error estimates
simulate    Monte-Carlo cross-check driver

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 usage error, 3 non-terminating configuration, 4 numerical failure.  A
malformed or non-finite number (``nan``, ``inf``) in any option is a usage
error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import secrets
import sys
from operator import attrgetter
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__
from .bestof import (
    bofk_points_distribution,
    bofk_win_prob,
    bog_match_points_moments,
    bog_match_win_prob,
)
from .core import _KINDS, _MINIMUM, _TIEBREAKS, NonTerminatingError, QuadratureError, SystemSpec
from .efficiency import BetaPrior, efficiency_one_param, efficiency_two_param
from .game import (
    game_breakdown,
    game_points_moments,
    game_win_prob,
    gt_points_moments,
    gt_win_prob,
)
from .match import match_breakdown, match_points_moments, match_win_prob
from .montecarlo import _CONFIG_MINIMUM, SimConfig, simulate
from .sets import (
    set_breakdown,
    set_points_moments,
    set_win_prob,
    st_breakdown,
    st_points_moments,
    st_win_prob,
    stt_win_prob,
)

SYSTEM_KINDS = tuple(_KINDS)


class _Ops(NamedTuple):
    """What the commands compute for one kind, each as ``fn(spec, params)``.

    ``params`` is ``p`` or ``(pA, pB)``.  ``win`` and the pair kinds'
    ``moments`` broadcast, so one entry serves scalars, grids and quadrature
    alike.  ``symbol`` tags the outputs (theta_G, mu_ST, ...).
    """

    symbol: str
    win: Callable
    moments: Callable
    breakdown: Callable | None = None


# Each entry looks its library function up by name when called, so a module
# attribute replaced from outside (a tracer, a mock) is what runs.
_OPS = {
    "gt": _Ops("GT", lambda s, p: gt_win_prob(p), lambda s, p: gt_points_moments(p)),
    "game": _Ops("G", lambda s, p: game_win_prob(p), lambda s, p: game_points_moments(p),
                 lambda s, p: game_breakdown(p)),
    # A race to 2 points, win by two, with the standard serve rotation is the
    # decisive-pair race itself, so the k=2 tie-break moments apply.
    "stt": _Ops("STT", lambda s, p: stt_win_prob(*p), lambda s, p: st_points_moments(*p, 2)),
    "st": _Ops("ST", lambda s, p: st_win_prob(*p, s.k),
               lambda s, p: st_points_moments(*p, s.k), lambda s, p: st_breakdown(*p, s.k)),
    "set": _Ops("S", lambda s, p: set_win_prob(*p, s.k),
                lambda s, p: set_points_moments(*p, s.k), lambda s, p: set_breakdown(*p, s.k)),
    "match": _Ops("M", lambda s, p: match_win_prob(*p, s),
                  lambda s, p: match_points_moments(*p, s),
                  lambda s, p: match_breakdown(*p, s)),
    "bofk": _Ops("BofK", lambda s, p: bofk_win_prob(p, s.l),
                 lambda s, p: attrgetter("mean", "variance")(bofk_points_distribution(p, s.l))),
    "bog": _Ops("BoG", lambda s, p: bog_match_win_prob(*p, s),
                lambda s, p: bog_match_points_moments(*p, s)),
}


_GRID_QUANTITIES = ("win_prob", "mean_points", "std_points", "diff", "log_ratio")
_GRID_ALIASES = {"win": "win_prob", "mean": "mean_points", "std": "std_points"}


# ---------------------------------------------------------------------------
# shared option plumbing


def _echo(text: str, err: bool = False) -> None:
    """Write one line to the current ``sys.stdout`` (or ``sys.stderr``).

    Plain ``click.echo`` looks the stream up through a cache keyed weakly by
    stream but holding the stream itself as the value, so every stream that
    ``main`` runs against in-process (a redirected stdout, a test runner's
    capture) would stay alive, with all it was sent, for the life of the
    process.
    """
    click.echo(text, file=sys.stderr if err else sys.stdout)


# The structure flags, in the order they are applied; each takes its type
# from the spec's own rules: a count's minimum, or the l-all tie rules.
_STRUCTURE_HELP = {
    "k": "tie-break target (st) or games per set (set).",
    "k0": "tie-break target in non-deciding sets (match).",
    "k1": "tie-break target in the deciding set (match).",
    "q": "sets needed to win the match (best of 2q+1).",
    "l": "race length parameter for bofk/bog (win l+1 units).",
    "tiebreak": "rule applied at l-all games (bog).",
}

_PARAM_HELP = {
    "p": "server's point-win probability (single-parameter systems).",
    "pa": "player A's probability of winning a point on serve.",
    "pb": "player B's probability of winning a point on serve.",
}


def _structure_options(fn):
    """Attach the scoring-structure flags shared by every subcommand, one per
    ``_STRUCTURE_HELP`` entry, with the ranges :class:`SystemSpec` checks.
    The subcommand receives them as one mapping, ``fields``
    (:func:`_build_specs`)."""

    @functools.wraps(fn)
    def command(**kwargs):
        return fn(fields={name: kwargs.pop(name) for name in _STRUCTURE_HELP}, **kwargs)

    for name, text in _STRUCTURE_HELP.items():
        kind = click.IntRange(min=_MINIMUM[name]) if name in _MINIMUM else click.Choice(_TIEBREAKS)
        command = click.option(f"--{name}", type=kind, default=None, help=text)(command)
    return command


class _FiniteFloat(click.FloatRange):
    """A ``FloatRange`` that also rejects NaN and the infinities.

    ``FloatRange`` lets NaN through, since NaN fails no comparison, and an
    infinity wherever the range is open-ended on that side (``--alpha inf``).
    """

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


def _param_options(fn):
    for name, text in _PARAM_HELP.items():
        fn = click.option(f"--{name}", type=_FiniteFloat(0.0, 1.0), default=None, help=text)(fn)
    return fn


def _output_options(default_format="json"):
    def wrap(fn):
        fn = click.option("--precision", type=click.IntRange(1, 15), default=6,
                          show_default=True, help="significant digits in output.")(fn)
        fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                          default=default_format, show_default=True)(fn)
        return fn

    return wrap


def _domain_errors(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NonTerminatingError as exc:
            _echo(f"non-terminating: {exc}", err=True)
            sys.exit(3)
        except QuadratureError as exc:
            _echo(f"numerical failure: {exc}", err=True)
            sys.exit(4)
        except OverflowError as exc:
            _echo(f"numerical failure: {exc}; exact sums overflow past about 515 trials, "
                  "and 'deuce simulate' accepts any target", err=True)
            sys.exit(4)

    return wrapper


def _build_specs(kinds, **fields) -> list[SystemSpec]:
    """One spec per kind from one pool of structure flags, ``fields`` (None
    where a flag was not given).

    An unknown kind is a usage error.  Each kind takes only the flags that
    apply to it; a flag that applies to none of ``kinds`` is a usage error,
    and so is a missing required flag.
    """
    for kind in kinds:
        if kind not in _KINDS:
            raise click.UsageError(
                f"unknown system '{kind}': expected one of {', '.join(SYSTEM_KINDS)}")
    provided = {name: value for name, value in fields.items() if value is not None}
    for name in provided:
        if not any(name in _KINDS[kind].fields for kind in kinds):
            raise click.UsageError(
                f"--{name} does not apply to system '{'/'.join(kinds)}'")
    specs = []
    for kind in kinds:
        usable = {name: value for name, value in provided.items()
                  if name in _KINDS[kind].fields}
        try:
            specs.append(SystemSpec(kind=kind, **usable))
        except ValueError as exc:
            raise click.UsageError("--" + str(exc)) from exc
    return specs


def _gather_params(spec: SystemSpec, p, pa, pb):
    """Return the scalar or pair the system consumes, naming bad flags."""
    if spec.takes_pair:
        if p is not None:
            raise click.UsageError(
                f"--p does not apply to system '{spec.kind}'; use --pa/--pb")
        if pa is None or pb is None:
            raise click.UsageError(
                f"--pa and --pb are required for system '{spec.kind}'")
        return (pa, pb)
    if pa is not None or pb is not None:
        raise click.UsageError(
            f"--pa/--pb do not apply to system '{spec.kind}'; use --p")
    if p is None:
        raise click.UsageError(f"--p is required for system '{spec.kind}'")
    return p


def _spec_dict(spec: SystemSpec) -> dict:
    return {name: value for name, value in vars(spec).items() if value is not None}


def _params_dict(spec: SystemSpec, params) -> dict:
    if spec.takes_pair:
        return {"pa": params[0], "pb": params[1]}
    return {"p": params}


def _win_prob(spec: SystemSpec, params):
    return _OPS[spec.kind].win(spec, params)


def _single_system(name: str, kinds, *options):
    """Register the decorated function as the command ``name`` on one SYSTEM
    of ``kinds``.

    The command takes --p/--pa/--pb, the structure flags, its own
    ``options`` and the output flags, in that order.  The function receives
    ``(spec, params, head)`` and the values of its own and the output flags,
    where ``head`` is the record's command/version/system/params block.
    """

    def register(fn):
        @functools.wraps(fn)
        def command(system, p, pa, pb, fields, **kwargs):
            (spec,) = _build_specs([system], **fields)
            params = _gather_params(spec, p, pa, pb)
            head = {"command": name, "version": __version__, "system": _spec_dict(spec),
                    "params": _params_dict(spec, params)}
            return fn(spec, params, head, **kwargs)

        for decorate in reversed((main.command(name),
                                  click.argument("system", type=click.Choice(kinds)),
                                  _param_options, _structure_options, *options,
                                  _output_options(), _domain_errors)):
            command = decorate(command)
        return command

    return register


# ---------------------------------------------------------------------------
# output shaping


def _round_sig(obj, digits: int):
    """Round every float in a nested structure to ``digits`` significant digits.

    Each float, ``np.float64`` among them, goes through its ``.{digits}g``
    text and back (NaN, infinities and -0.0 survive the round trip); every
    other scalar, a bool too, is returned as it is.  Float arrays are left as
    they are: :func:`_json_text` writes them row by row from the same ``%g``
    text.
    """
    if isinstance(obj, dict):
        return {key: _round_sig(value, digits) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_sig(value, digits) for value in obj]
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return obj
        return float(f"{obj:.{digits}g}")
    return obj


def _g_row(row: np.ndarray, digits: int, sep: str = ",") -> str:
    """The ``%.{digits}g`` text of each cell of the 1-D array ``row``, joined
    by ``sep``: one ``%``-format call for the whole row.

    This is the text ``f"{x:.{digits}g}"`` gives for each cell, and CSV grids
    print it as it is.
    """
    return ((f"%.{digits}g{sep}" * len(row)) % tuple(row.tolist()))[:-len(sep)]


def _respelled(values: np.ndarray, digits: int) -> np.ndarray:
    """Mask of the cells whose ``%.{digits}g`` text ``s`` may differ from
    ``repr(float(s))``, the JSON text of the cell as :func:`_round_sig`
    rounds it.

    ``--precision`` keeps ``digits`` within 1..15, and every decimal of at
    most 15 significant digits reads back as a distinct double, except among
    the subnormals.  Elsewhere ``repr(float(s))``, the shortest text that reads
    back as that double, has ``s``'s digits, and both texts turn to exponent
    notation below 1e-4.  So the two differ only in spelling:

    - integer-valued ``s``: ``2`` against ``2.0``, ``-0`` against ``-0.0``;
    - ``s`` of 10**digits or more: ``%g`` writes an exponent, ``repr`` waits
      for 1e16;
    - NaN and the infinities: ``nan`` against ``NaN``.

    The mask holds the non-finite cells, the subnormals and the cells that
    round down into them (|x| < 2.3e-308), and every cell within
    |x|·10**(1-digits) of an integer, twice as far as rounding to ``digits``
    digits can move it.  Every |x| >= 10**(digits-1) rounds to an integer, so
    that last test holds the large cells too.
    """
    size = np.abs(values)
    with np.errstate(invalid="ignore"):
        return (~np.isfinite(values) | (size < 2.3e-308)
                | (np.abs(values - np.round(values)) <= size * 10.0**(1 - digits)))


def _json_rows(values: np.ndarray, redo: np.ndarray, digits: int, indent: str) -> str:
    """Indented JSON text of a float array, each cell rounded as
    :func:`_round_sig` rounds a lone float.

    Each innermost row is written by :func:`_g_row`, whose ``%g`` text is
    already the JSON text of every cell outside ``redo`` (see
    :func:`_respelled`); the cells in ``redo`` are encoded one at a time, as
    a lone float is.
    """
    if not len(values):
        return "[]"
    inner = indent + "  "
    sep = "," + inner
    if values.ndim > 1:
        body = sep.join(_json_rows(row, mask, digits, inner) for row, mask in zip(values, redo))
    else:
        body = _g_row(values, digits, sep)
        cells = np.flatnonzero(redo)
        if len(cells):
            texts = body.split(sep)
            for i in cells.tolist():
                texts[i] = json.dumps(_round_sig(float(values[i]), digits))
            body = sep.join(texts)
    return "[" + inner + body + indent + "]"


def _flatten(record: dict, prefix: str = ""):
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, name + ".")
        else:
            yield name, value


def _json_text(obj, digits: int | None = None, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, character for character.

    Containers are laid out here, one element at a time, as ``json`` lays
    out indented output; keys and scalars are encoded by ``json`` itself.
    Keys are strings, as in every record.  A float array is written as the
    nested lists of its cells rounded to ``digits`` significant digits would
    be, one ``%``-format call per row (:func:`_json_rows`).
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{json.dumps(key)}: {_json_text(value, digits, inner)}"
                 for key, value in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ("," + inner).join(_json_text(value, digits, inner) for value in obj)
        return "[" + inner + body + indent + "]"
    if isinstance(obj, np.ndarray):
        return _json_rows(obj, _respelled(obj, digits), digits, indent)
    return json.dumps(obj)


def _emit(record: dict, fmt: str, precision: int) -> None:
    """Print ``record`` with every float rounded to ``precision`` significant
    digits: scalars by :func:`_round_sig`, float arrays (JSON only) by
    :func:`_json_text` a row at a time, to the same text."""
    record = _round_sig(record, precision)
    if fmt == "json":
        _echo(_json_text(record, precision))
    else:
        for key, value in sorted(_flatten(record)):
            _echo(f"{key},{value}")


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.version_option(__version__, prog_name="deuce")
def main() -> None:
    """Exact win probabilities, duration statistics, efficiencies, and
    simulations for nested racket-sport scoring systems."""


@_single_system("compute", SYSTEM_KINDS)
def cmd_compute(spec, params, head, fmt, precision):
    """Print win probability, mean, variance, and std of the point count."""
    ops = _OPS[spec.kind]
    theta = float(ops.win(spec, params))
    mean, variance = (float(x) for x in ops.moments(spec, params))
    sym = ops.symbol
    record = {
        **head,
        f"theta_{sym}": theta,
        f"mu_{sym}": mean,
        f"sigma2_{sym}": variance,
        f"sigma_{sym}": math.sqrt(variance),
    }
    _emit(record, fmt, precision)


_BREAKDOWN_COLUMNS = ("score", "p_first_wins", "p_second_wins", "cond_mean", "cond_var")


@_single_system("breakdown", sorted(kind for kind, ops in _OPS.items() if ops.breakdown))
def cmd_breakdown(spec, params, head, fmt, precision):
    """Print the per-final-score probability and duration table."""
    ops = _OPS[spec.kind]
    table = ops.breakdown(spec, params)
    rows = [{col: getattr(row, col) for col in _BREAKDOWN_COLUMNS} for row in table.rows]
    if fmt == "csv":
        _echo(",".join(_BREAKDOWN_COLUMNS))
        for row in _round_sig(rows, precision):
            _echo(",".join(str(row[col]) for col in _BREAKDOWN_COLUMNS))
        win, mean, var = _round_sig([table.win_prob, table.mean, table.variance], precision)
        _echo(f"overall,{win},,{mean},{var}")
        return
    sym = ops.symbol
    record = {
        **head,
        "label": table.label,
        f"theta_{sym}": table.win_prob,
        f"mu_{sym}": table.mean,
        f"sigma2_{sym}": table.variance,
        "rows": rows,
    }
    _emit(record, fmt, precision)


@main.command("grid")
@click.argument("system")
@click.option("--quantity", type=click.Choice(_GRID_QUANTITIES), default=None,
              help="cell value; win_prob unless given here or as a SYSTEM suffix.")
@click.option("--other", type=click.Choice(SYSTEM_KINDS), default=None,
              help="second system for diff/log_ratio (shares the structure flags).")
@click.option("--res", type=click.IntRange(2, 1000), default=99, show_default=True,
              help="lattice resolution per axis.")
@click.option("--pmin", type=_FiniteFloat(0.0, 1.0), default=0.01, show_default=True)
@click.option("--pmax", type=_FiniteFloat(0.0, 1.0), default=0.99, show_default=True)
@_structure_options
@_output_options(default_format="csv")
@_domain_errors
def cmd_grid(system, quantity, other, res, pmin, pmax, fields, fmt, precision):
    """Tabulate a quantity over a (p_A, p_B) lattice as a CSV matrix.

    SYSTEM is one of stt/st/set/match/bog, optionally suffixed with the
    quantity: ``grid match-mean`` is ``grid match --quantity mean_points``.
    Rows are indexed by p_A, columns by p_B, with a coordinate header
    row and column.
    """
    base, dash, suffix = system.partition("-")
    if dash:
        if suffix not in _GRID_ALIASES:
            raise click.UsageError(
                f"unknown SYSTEM suffix '-{suffix}': use -win, -mean, or -std")
        if quantity is not None and quantity != _GRID_ALIASES[suffix]:
            raise click.UsageError(
                f"SYSTEM suffix '-{suffix}' conflicts with --quantity {quantity}")
        quantity = _GRID_ALIASES[suffix]
    if quantity is None:
        quantity = "win_prob"
    if pmin >= pmax:
        raise click.UsageError("--pmin must be below --pmax")

    kinds = [base] + ([other] if other is not None else [])
    specs = _build_specs(kinds, **fields)
    spec = specs[0]
    if not spec.takes_pair:
        raise click.UsageError(
            f"grid sweeps (--pa, --pb), but system '{base}' takes a single --p")

    coords = np.linspace(pmin, pmax, res)
    pa = coords[:, None]
    pb = coords[None, :]
    ops = _OPS[base]
    if quantity == "win_prob":
        values = ops.win(spec, (pa, pb))
    elif quantity == "mean_points":
        values = ops.moments(spec, (pa, pb))[0]
    elif quantity == "std_points":
        values = np.sqrt(ops.moments(spec, (pa, pb))[1])
    else:
        if other is None:
            raise click.UsageError(f"--other is required when --quantity is {quantity}")
        if not specs[1].takes_pair:
            raise click.UsageError(
                f"--other system '{other}' takes a single --p and cannot be gridded")
        first = ops.win(spec, (pa, pb))
        second = _win_prob(specs[1], (pa, pb))
        values = first - second if quantity == "diff" else np.log(first / second)
    values = np.broadcast_to(np.asarray(values, dtype=float), (res, res))

    if fmt == "csv":
        _echo("pa\\pb," + _g_row(coords, precision))
        for row in np.column_stack((coords, values)):
            _echo(_g_row(row, precision))
        return
    record = {
        "command": "grid",
        "version": __version__,
        "system": _spec_dict(spec),
        "quantity": quantity,
        "pa": coords,
        "pb": coords,
        "values": values,
    }
    if other is not None:
        record["other"] = _spec_dict(specs[1])
    _emit(record, "json", precision)


def _parse_prior(alpha, beta, prior_text, for_pair, kind):
    """Resolve the prior flags into (prior_A, prior_B)."""
    if prior_text is not None:
        if alpha is not None or beta is not None:
            raise click.UsageError("use either --prior or --alpha/--beta, not both")
        try:
            parts = [float(x) for x in prior_text.split(",")]
        except ValueError as exc:
            raise click.UsageError(f"--prior expects comma-separated numbers, got '{prior_text}'") from exc
        if len(parts) == 2:
            parts = parts * 2
        if len(parts) != 4:
            raise click.UsageError("--prior takes a,b or a1,b1,a2,b2")
        if not for_pair and parts[:2] != parts[2:]:
            raise click.UsageError(
                f"--prior gave two marginals but system '{kind}' takes a single --p")
        try:
            return BetaPrior(parts[0], parts[1]), BetaPrior(parts[2], parts[3])
        except ValueError as exc:
            raise click.UsageError(f"--prior: {exc}") from exc
    a = 1.0 if alpha is None else alpha
    b = 1.0 if beta is None else beta
    prior = BetaPrior(a, b)
    return prior, prior


@main.command("efficiency")
@click.argument("systems", nargs=-1, required=True)
@click.option("--alpha", type=_FiniteFloat(min=0, min_open=True), default=None,
              help="Beta prior shape a (both players unless --prior is given).")
@click.option("--beta", type=_FiniteFloat(min=0, min_open=True), default=None,
              help="Beta prior shape b.")
@click.option("--prior", "prior_text", default=None,
              help="comma-separated Beta parameters: a,b or a1,b1,a2,b2.")
@_structure_options
@_output_options()
@_domain_errors
def cmd_efficiency(systems, alpha, beta, prior_text, fields, fmt, precision):
    """Report prior-weighted efficiencies for one or more systems."""
    reports = []
    for spec in _build_specs(systems, **fields):
        name = spec.kind
        win = functools.partial(_OPS[name].win, spec)
        prior_a, prior_b = _parse_prior(alpha, beta, prior_text,
                                        spec.takes_pair, name)
        if spec.takes_pair:
            report = efficiency_two_param(lambda pa, pb: win((pa, pb)), (prior_a, prior_b),
                                          system=spec)
            prior_echo = {"alpha_a": prior_a.alpha, "beta_a": prior_a.beta,
                          "alpha_b": prior_b.alpha, "beta_b": prior_b.beta}
        else:
            report = efficiency_one_param(win, prior_a, system=spec)
            prior_echo = {"alpha": prior_a.alpha, "beta": prior_a.beta}
        reports.append({
            "system": _spec_dict(spec),
            "prior": prior_echo,
            f"Eff_{_OPS[name].symbol}": report.value,
            "quadrature_error_estimate": report.quadrature_error_estimate,
            "surface_points": report.surface_points,
            "antisymmetry_residual": report.antisymmetry_residual,
        })
    record = {"command": "efficiency", "version": __version__, "reports": reports}
    if fmt == "csv":
        record = _round_sig(record, precision)
        _echo("system,efficiency,quadrature_error_estimate")
        for entry in record["reports"]:
            spec_text = ";".join(f"{key}={value}" for key, value
                                 in entry["system"].items())
            value = next(v for key, v in entry.items() if key.startswith("Eff_"))
            _echo(f"{spec_text},{value},{entry['quadrature_error_estimate']}")
        return
    _emit(record, fmt, precision)


@_single_system(
    "simulate", SYSTEM_KINDS,
    click.option("--reps", type=click.IntRange(min=_CONFIG_MINIMUM["replications"]),
                 required=True, help="number of replications."),
    click.option("--seed", type=int, default=None,
                 help="PRNG seed; drawn from entropy and echoed when omitted."),
    click.option("--max-points", default=SimConfig.max_points_per_replication,
                 type=click.IntRange(min=_CONFIG_MINIMUM["max_points_per_replication"]),
                 show_default=True, help="cap on points per replication."),
)
def cmd_simulate(spec, params, head, reps, seed, max_points, fmt, precision):
    """Estimate win rate and duration by Monte-Carlo replication."""
    if seed is None:
        seed = secrets.randbits(63)
    config = SimConfig(system=spec, params=params, replications=reps,
                       seed=seed, max_points_per_replication=max_points)
    summary = simulate(config)
    record = {
        **head,
        "replications": reps,
        "seed": config.seed,
        "max_points_per_replication": max_points,
        **dataclasses.asdict(summary),
    }
    _emit(record, fmt, precision)


if __name__ == "__main__":
    main()
