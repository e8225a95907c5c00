"""Seeded op streams for the three benchmark workloads, and the code that runs one op.

A workload is a sequence of rounds.  Every round of a workload holds the same
multiset of op types in a seeded order, so a run that stops on a round
boundary measures the same mix whatever its seed.  Inputs come only from the
seed: round ``r`` of workload ``w`` draws from ``random.Random(f"{w}/{seed}/{r}")``.

Library functions are looked up on their modules at call time, so the tracer
sees every call after it patches those modules.
"""

from __future__ import annotations

import ast
import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import deuce.bestof as bestof_mod
import deuce.cli as cli_mod
import deuce.core as core_mod
import deuce.efficiency as efficiency_mod
import deuce.match as match_mod
import deuce.montecarlo as montecarlo_mod
import deuce.sets as sets_mod

ROOT = Path(__file__).resolve().parent.parent
EFFICIENCY_TESTS = ROOT / "tests" / "test_efficiency.py"

WORKLOADS = ("cli-queries", "efficiency-table", "length-laws")

CLI_PRECISION = "15"
# Share of cli-queries inputs drawn from the lopsided ranges below, where the
# first player's win probability is far under 1e-9.
LOPSIDED_SHARE = 0.25
EFF_PANELS, EFF_ORDER, EFF_TOL = 8, 20, 5e-4
GRID_RES = 99
GRID_SYSTEMS = ("stt", "st", "set", "match", "bog")
GRID_QUANTITIES = ("win", "mean", "std")
# Sixty sweeps against 46 reports put the median op inside the sweeps'
# latencies rather than in a gap between report kinds.
GRID_SWEEPS_PER_KIND = 4
SET_PMF_N_MAX = 2000
MATCH_PMF_N_MAX = 10_000
SIM_REPLICATIONS = 10_000
# A short race under sg or sttp keeps the bog simulation cheaper than the set
# simulation for every pair, so the median op of a round is always the set
# simulation.  Under sttg the tie race grows long when both players hold
# serve, and its cost varies threefold over the pairs drawn here.
LENGTH_LAWS_BOG_L = 3
LENGTH_LAWS_BOG_TIEBREAKS = ("sg", "sttp")
TIEBREAKS = ("sg", "sttg", "sttp")


@dataclass(frozen=True)
class Op:
    """One unit of work.  ``params`` is ``(p,)`` or ``(pa, pb)``; ``spec`` and
    ``extra`` are sorted ``(name, value)`` pairs so that ops stay hashable."""

    kind: str  # compute | breakdown | grid | report | set_pmf | match_pmf | simulate
    system: str
    params: tuple = ()
    spec: tuple = ()
    extra: tuple = ()

    @property
    def spec_dict(self) -> dict:
        return dict(self.spec)

    @property
    def extra_dict(self) -> dict:
        return dict(self.extra)


def _pairs(**kwargs) -> tuple:
    return tuple(sorted(kwargs.items()))


# ---------------------------------------------------------------------------
# the paper's two-parameter efficiency table, read from the test that pins it


def _literal_with_priors(node):
    """Evaluate a literal that may contain ``BetaPrior(a, b)`` calls."""
    if isinstance(node, ast.Call):
        return efficiency_mod.BetaPrior(*(ast.literal_eval(arg) for arg in node.args))
    if isinstance(node, ast.Tuple):
        return tuple(_literal_with_priors(elt) for elt in node.elts)
    if isinstance(node, ast.Dict):
        return {ast.literal_eval(k): _literal_with_priors(v)
                for k, v in zip(node.keys, node.values)}
    return ast.literal_eval(node)


def efficiency_table() -> tuple[dict, dict]:
    """``(TWO_PARAM_TRUE, PRIOR_COLS)`` as pinned in ``tests/test_efficiency.py``."""
    found = {}
    for node in ast.parse(EFFICIENCY_TESTS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TWO_PARAM_TRUE", "PRIOR_COLS"):
                found[name] = _literal_with_priors(node.value)
    return found["TWO_PARAM_TRUE"], found["PRIOR_COLS"]


_BOG_TAGS = {"bofk1": "sg", "bofk2": "sttg", "bofk3": "sttp"}


def surface_for(label: str):
    """The true win-probability surface that a table row label names."""
    if label == "stt":
        return lambda a, b: sets_mod.stt_win_prob(a, b)
    if m := re.fullmatch(r"st(\d+)", label):
        k = int(m[1])
        return lambda a, b: sets_mod.st_win_prob(a, b, k)
    if m := re.fullmatch(r"set(\d+)", label):
        k = int(m[1])
        return lambda a, b: sets_mod.set_win_prob(a, b, k)
    if m := re.fullmatch(r"m(7)(7|10)(2)", label):
        spec = match_mod.MatchSpec(int(m[1]), int(m[2]), int(m[3]))
        return lambda a, b: match_mod.match_win_prob(a, b, spec)
    if m := re.fullmatch(r"(bofk[123])_l(\d+)", label):
        spec = bestof_mod.BestOfGamesSpec(int(m[2]), _BOG_TAGS[m[1]])
        return lambda a, b: bestof_mod.bog_match_win_prob(a, b, spec)
    raise ValueError(f"no surface for table row {label!r}")


# ---------------------------------------------------------------------------
# input generation


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


# Lopsided ranges put the first player's win probability well under 1e-9;
# the run record reports the share that actually lands there.
def _draw_single(rng, system, lopsided):
    if not lopsided:
        return (_uniform(rng, 0.3, 0.8),)
    lo, hi = {"gt": (1e-6, 1e-5), "game": (5e-4, 2e-3), "bofk": (1e-4, 1e-3)}[system]
    return (_log_uniform(rng, lo, hi),)


def _draw_pair(rng, system, lopsided):
    if not lopsided:
        return (_uniform(rng, 0.4, 0.8), _uniform(rng, 0.4, 0.8))
    if system == "stt":
        return (_log_uniform(rng, 1e-4, 5e-4), 1.0 - _log_uniform(rng, 1e-7, 1e-6))
    pa_range, pb_range = {
        "st": ((0.005, 0.02), (0.98, 0.995)),
        "set": ((0.1, 0.2), (0.93, 0.97)),
        "match": ((0.25, 0.35), (0.8, 0.9)),
        "bog": ((0.03, 0.1), (0.95, 0.99)),
    }[system]
    return (_uniform(rng, *pa_range), _uniform(rng, *pb_range))


def _cli_query(rng, kind, system, k1=7):
    lopsided = rng.random() < LOPSIDED_SHARE
    if system in ("gt", "game", "bofk"):
        params = _draw_single(rng, system, lopsided)
    else:
        params = _draw_pair(rng, system, lopsided)
    if system in ("st", "set"):
        spec = _pairs(k=rng.randint(7, 10))
    elif system == "match":
        spec = _pairs(k0=7, k1=k1, q=2)
    elif system == "bofk":
        spec = _pairs(l=rng.randint(3, 10))
    elif system == "bog":
        spec = _pairs(l=rng.randint(3, 8), tiebreak=rng.choice(TIEBREAKS))
    else:
        spec = ()
    return Op(kind, system, params, spec)


def _grid_op(rng, system, quantity):
    spec = ()
    if system == "st" or system == "set":
        spec = _pairs(k=rng.randint(7, 10))
    elif system == "match":
        spec = _pairs(k0=7, k1=rng.choice((7, 10)), q=2)
    elif system == "bog":
        spec = _pairs(l=rng.randint(3, 8), tiebreak=rng.choice(TIEBREAKS))
    extra = _pairs(quantity=quantity, pmin=round(_uniform(rng, 0.01, 0.2), 4),
                   pmax=round(_uniform(rng, 0.8, 0.99), 4),
                   sample_seed=rng.getrandbits(32))
    return Op("grid", system, (), spec, extra)


class Workload:
    """The seeded op stream of one workload."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        if name == "efficiency-table":
            self.table, self.priors = efficiency_table()

    def _rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def round(self, index: int) -> list[Op]:
        rng = self._rng(index)
        if self.name == "cli-queries":
            # Matches come as 7/7/2 (k0 == k1, so set work could be shared) and
            # 7/10/2.  Thirteen queries a round put the median inside one
            # query kind's latencies rather than in a gap between two.
            ops = [_cli_query(rng, "compute", system) for system in cli_mod.SYSTEM_KINDS]
            ops.append(_cli_query(rng, "compute", "match", k1=10))
            ops += [_cli_query(rng, "breakdown", system, k1=10 if index % 2 else 7)
                    for system in ("game", "st", "set", "match")]
        elif self.name == "efficiency-table":
            ops = [Op("report", label, extra=_pairs(column=column))
                   for label in self.table for column in sorted(self.priors)]
            ops += [_grid_op(rng, system, quantity)
                    for system in GRID_SYSTEMS for quantity in GRID_QUANTITIES
                    for _ in range(GRID_SWEEPS_PER_KIND)]
        else:
            params = (_uniform(rng, 0.55, 0.75), _uniform(rng, 0.55, 0.75))
            bog = _pairs(l=LENGTH_LAWS_BOG_L, tiebreak=rng.choice(LENGTH_LAWS_BOG_TIEBREAKS))
            ops = [
                Op("match_pmf", "match", params, _pairs(k0=7, k1=10, q=2)),
                Op("set_pmf", "set", params, _pairs(k=7)),
                Op("simulate", "set", params, _pairs(k=7), _pairs(sim_seed=rng.getrandbits(63))),
                Op("simulate", "match", params, _pairs(k0=7, k1=10, q=2),
                   _pairs(sim_seed=rng.getrandbits(63))),
                Op("simulate", "bog", params, bog, _pairs(sim_seed=rng.getrandbits(63))),
            ]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        """The fixed op type that every set-up completes once before timing."""
        rng = self._rng("warmup")
        if self.name == "cli-queries":
            return _cli_query(rng, "breakdown", "match")
        if self.name == "efficiency-table":
            return Op("report", "stt", extra=_pairs(column=min(self.priors)))
        params = (_uniform(rng, 0.55, 0.75), _uniform(rng, 0.55, 0.75))
        return Op("set_pmf", "set", params, _pairs(k=7))


# ---------------------------------------------------------------------------
# running one op


def run_cli(args: list[str]) -> str:
    """Run ``deuce`` in-process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_mod.main(args, standalone_mode=False)
    return buf.getvalue()


def cli_args(op: Op) -> list[str]:
    if op.kind == "grid":
        extra = op.extra_dict
        args = ["grid", f"{op.system}-{extra['quantity']}", "--res", str(GRID_RES),
                "--pmin", repr(extra["pmin"]), "--pmax", repr(extra["pmax"]),
                "--format", "json"]
    else:
        args = [op.kind, op.system]
        if len(op.params) == 1:
            args += ["--p", repr(op.params[0])]
        else:
            args += ["--pa", repr(op.params[0]), "--pb", repr(op.params[1])]
    for name, value in op.spec:
        args += [f"--{name}", str(value)]
    return args + ["--precision", CLI_PRECISION]


def grid_coords(op: Op) -> np.ndarray:
    extra = op.extra_dict
    return np.linspace(extra["pmin"], extra["pmax"], GRID_RES)


def system_spec(op: Op) -> core_mod.SystemSpec:
    return core_mod.SystemSpec(kind=op.system, **op.spec_dict)


def execute(op: Op, workload: Workload):
    """Run one op and return its raw output (CLI text or library result)."""
    if op.kind in ("compute", "breakdown", "grid"):
        return run_cli(cli_args(op))
    if op.kind == "report":
        priors = workload.priors[op.extra_dict["column"]]
        return efficiency_mod.efficiency_two_param(
            surface_for(op.system), priors, panels=EFF_PANELS, order=EFF_ORDER, tol=EFF_TOL)
    pa, pb = op.params
    if op.kind == "set_pmf":
        return sets_mod.set_points_distribution(pa, pb, op.spec_dict["k"], SET_PMF_N_MAX)
    if op.kind == "match_pmf":
        spec = match_mod.MatchSpec(**op.spec_dict)
        return match_mod.match_points_distribution(pa, pb, spec, MATCH_PMF_N_MAX)
    if op.kind == "simulate":
        config = montecarlo_mod.SimConfig(system=system_spec(op), params=op.params,
                                          replications=SIM_REPLICATIONS,
                                          seed=op.extra_dict["sim_seed"])
        return montecarlo_mod.simulate(config)
    raise ValueError(f"unknown op kind {op.kind!r}")
