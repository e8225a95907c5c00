"""Output checks for every benchmark op, judged by the slow oracles in ``tests/oracles.py``.

Each checker returns a list of problems; an empty list means the op's output is
correct.  Checks never run inside a timed region.

* Win probabilities and means agree with the oracles to ``REL_TOL``.  The
  lopsided inputs make the first player's probability tiny, which exposes a
  ``1 - theta(swapped)`` route.
* Variances are only required to be finite and non-negative: the convention
  that fixes them may change.
* Breakdown rows sum to one, PMF mass plus truncation mass is one, efficiency
  values match the pinned table, and simulations sit within ``Z_LIMIT``
  standard errors of the exact values with no capped replications.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random

import numpy as np

import workloads

REL_TOL = 1e-9
ROW_SUM_TOL = 1e-12
EFF_ABS_TOL = 1e-7
PMF_MASS_TOL = 1e-9
PMF_MEAN_REL_TOL = 1e-6
# A run makes up to ~100 simulation z-tests; |z| <= 4 per test would raise a
# false alarm in about 0.6% of runs.  At 5 the false-alarm rate per run is
# below 1e-4, while a bias of one part in a hundred in the win rate still
# shows as |z| > 5.
Z_LIMIT = 5.0
GRID_SAMPLE_CELLS = 4
UNDERDOG = 1e-9

_SYMBOL = {"gt": "GT", "game": "G", "stt": "STT", "st": "ST", "set": "S",
           "match": "M", "bofk": "BofK", "bog": "BoG"}


def load_oracles():
    path = workloads.ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("deuce_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


def _close(problems: list, what: str, got, want, tol: float = REL_TOL) -> None:
    if not (isinstance(got, (int, float)) and math.isfinite(got)) or rel_err(got, want) > tol:
        problems.append(f"{what}: got {got!r}, oracle {want!r}")


def _variance_ok(problems: list, what: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
        problems.append(f"{what}: variance {value!r} is not finite and >= 0")


class References:
    """Oracle values ``(theta_first_player, mean_points)``, cached per input."""

    def __init__(self, oracles=None):
        self.o = oracles if oracles is not None else load_oracles()
        self._cache = {}

    def clear(self) -> None:
        self._cache.clear()

    def get(self, system: str, params: tuple, spec: dict) -> tuple[float, float]:
        key = (system, params, tuple(sorted(spec.items())))
        if key not in self._cache:
            self._cache[key] = self._compute(system, params, spec)
        return self._cache[key]

    def _compute(self, system, params, spec):
        o = self.o
        if system == "gt":
            (p,) = params
            eta = p * p + (1 - p) * (1 - p)
            return o.gt_win_prob_series(p), 2.0 * o.geometric_moments_series(eta)[0]
        if system == "game":
            (p,) = params
            joint = o.game_joint_pmf_dp(p)
            return (sum(w for won, _, w in joint if won), sum(n * w for _, n, w in joint))
        if system == "bofk":
            return _race_theta_mean(params[0], spec["l"] + 1)
        pa, pb = params
        if system == "stt":
            return o.stt_win_prob_series(pa, pb), o.st_true_points_raw_moments(pa, pb, 2)[0]
        if system == "st":
            k = spec["k"]
            return o.st_win_prob_paths(pa, pb, k), o.st_true_points_raw_moments(pa, pb, k)[0]
        if system == "set":
            rows = o.set_true_outcomes_dp(pa, pb, spec["k"], moments=1)
            theta = sum(v[0] for (winner, _), v in rows.items() if winner == "A")
            return theta, sum(v[1] for v in rows.values())
        if system == "match":
            first = self.get("set", params, {"k": spec["k0"]})
            decider = self.get("set", params, {"k": spec["k1"]})
            return _match_theta_mean(first, decider, spec["q"])
        if system == "bog":
            theta, mean, _ = o.bog_true_stats(pa, pb, spec["l"], spec["tiebreak"])
            return theta, mean
        raise ValueError(f"no oracle for system {system!r}")


def _race_theta_mean(p: float, target: int) -> tuple[float, float]:
    """Race to ``target`` points on one server, by walking the score lattice."""
    states = {(0, 0): 1.0}
    theta = mean = 0.0
    for n in range(1, 2 * target):
        nxt = {}
        for (a, b), w in states.items():
            for won, pr in ((True, p), (False, 1.0 - p)):
                na, nb = a + won, b + (not won)
                if na == target or nb == target:
                    theta += w * pr if won else 0.0
                    mean += n * w * pr
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + w * pr
        states = nxt
    return theta, mean


def _match_theta_mean(first, decider, q):
    """Best of 2q+1 sets by walking set scores; the mean adds each played set's mean."""
    states = {(0, 0): 1.0}
    theta = mean = 0.0
    while states:
        nxt = {}
        for (a, b), w in states.items():
            set_theta, set_mean = decider if a == b == q else first
            mean += w * set_mean
            for won, pr in ((True, set_theta), (False, 1.0 - set_theta)):
                na, nb = a + won, b + (not won)
                if na == q + 1:
                    theta += w * pr
                elif nb != q + 1:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + w * pr
        states = nxt
    return theta, mean


# ---------------------------------------------------------------------------
# per-op checkers


class Checker:
    """Checks op outputs and tallies the input properties the checks observe."""

    def __init__(self, workload: workloads.Workload, refs: References | None = None):
        self.workload = workload
        self.refs = refs if refs is not None else References()
        self.win_cells = 0
        self.underdog_cells = 0

    def _reference(self, system, params, spec):
        theta, mean = self.refs.get(system, params, spec)
        self.win_cells += 1
        self.underdog_cells += theta < UNDERDOG
        return theta, mean

    def check(self, op: workloads.Op, output) -> list[str]:
        return getattr(self, "_check_" + op.kind)(op, output)

    def _check_moments(self, op, record):
        sym = _SYMBOL[op.system]
        theta, mean = self._reference(op.system, op.params, op.spec_dict)
        problems = []
        _close(problems, "theta", record[f"theta_{sym}"], theta)
        _close(problems, "mean", record[f"mu_{sym}"], mean)
        _variance_ok(problems, "sigma2", record[f"sigma2_{sym}"])
        return problems

    def _check_compute(self, op, text):
        return self._check_moments(op, json.loads(text))

    def _check_breakdown(self, op, text):
        record = json.loads(text)
        problems = self._check_moments(op, record)
        total = sum(row["p_first_wins"] + row["p_second_wins"] for row in record["rows"])
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            problems.append(f"breakdown rows sum to {total!r}")
        for row in record["rows"]:
            _variance_ok(problems, f"row {row['score']}", row["cond_var"])
        return problems

    def _check_grid(self, op, text):
        record = json.loads(text)
        values = np.asarray(record["values"], dtype=float)
        problems = []
        if values.shape != (workloads.GRID_RES, workloads.GRID_RES):
            return [f"grid has shape {values.shape}"]
        if not np.all(np.isfinite(values)):
            problems.append("grid has non-finite cells")
        quantity = op.extra_dict["quantity"]
        if quantity == "std":
            if np.any(values < 0.0):
                problems.append("grid has negative standard deviations")
            return problems
        coords = workloads.grid_coords(op)
        rng = random.Random(op.extra_dict["sample_seed"])
        spec = op.spec_dict
        for _ in range(GRID_SAMPLE_CELLS):
            i, j = rng.randrange(workloads.GRID_RES), rng.randrange(workloads.GRID_RES)
            theta, mean = self._reference(op.system, (float(coords[i]), float(coords[j])), spec)
            want = theta if quantity == "win" else mean
            _close(problems, f"{quantity} cell ({i}, {j})", float(values[i, j]), want)
        return problems

    def _check_report(self, op, report):
        column = op.extra_dict["column"]
        want = self.workload.table[op.system][column - 1]
        problems = []
        if not abs(report.value - want) <= EFF_ABS_TOL:
            problems.append(f"efficiency {op.system} column {column}: {report.value!r}, pinned {want!r}")
        if not report.quadrature_error_estimate <= workloads.EFF_TOL:
            problems.append(f"quadrature error {report.quadrature_error_estimate!r} > tol")
        return problems

    def _check_pmf(self, op, dist):
        _, mean = self._reference(op.system, op.params, op.spec_dict)
        problems = []
        total = sum(m for _, m in dist.support) + dist.truncation_mass
        if not abs(total - 1.0) <= PMF_MASS_TOL:
            problems.append(f"PMF mass plus truncation mass is {total!r}")
        pmf_mean = sum(n * m for n, m in dist.support)
        _close(problems, "PMF mean", pmf_mean, mean, PMF_MEAN_REL_TOL)
        _close(problems, "distribution mean", dist.mean, mean)
        _variance_ok(problems, "distribution", dist.variance)
        return problems

    _check_set_pmf = _check_pmf
    _check_match_pmf = _check_pmf

    def _check_simulate(self, op, summary):
        theta, mean = self._reference(op.system, op.params, op.spec_dict)
        problems = []
        if summary.capped_replications != 0:
            problems.append(f"{summary.capped_replications} capped replications")
        for what, got, se, want in (("win rate", summary.win_rate_A, summary.win_rate_se, theta),
                                    ("mean", summary.mean_points, summary.mean_points_se, mean)):
            z = (got - want) / se if se > 0 else math.inf
            if not abs(z) <= Z_LIMIT:
                problems.append(f"simulated {what} {got!r} is {z:.2f} SE from exact {want!r}")
        return problems
