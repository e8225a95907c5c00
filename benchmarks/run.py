"""Benchmark for ``deuce``: closed-loop workloads with output checks and layer tracing.

Run from the repository root, for example::

    python3 benchmarks/run.py --workload cli-queries --seed 1 --seconds 15 --trace 0

One caller on one thread runs the workload's seeded op stream (workloads.py)
in this process; BLAS/OpenMP thread variables are pinned to 1.  Every output
is checked against the oracles in ``tests/oracles.py`` right after its op,
outside the op's timing (checks.py).  The timed phase ends on the first round
boundary after ``--seconds`` of op time and ``MIN_ROUNDS`` rounds, so every
run measures whole rounds of the same op mix.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time to
  import ``deuce`` and ``deuce.cli``, generate the inputs and finish one
  warm-up op.  Work moved into import or warm-up shows here.
* ``ops_per_s``: ops per second of op time in the timed phase.
* ``op_p50_ms`` and ``op_tail_ms``: median op latency, and the latency at the
  highest percentile that leaves ``TAIL_ABOVE`` samples above it.
* ``peak_rss_mb``: peak resident memory of this process.
* ``error_rate``: failed ops over attempted ops.  It is printed in the run
  record; the result line carries it as ``failed`` and ``attempted``.

``--trace 1`` replays the first ``TRACE_ROUNDS`` rounds with the tracer
installed (tracer.py) and reports per-layer metrics over those rounds, plus
``trace.overhead``: untraced ``ops_per_s`` over traced ``ops_per_s``.

The run record (environment, input properties, all metrics) is printed before
the one-line JSON result and written under ``benchmarks/results/``, with the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
REQUIRED_FILES = ("src/deuce/__init__.py", "tests/oracles.py", "tests/test_efficiency.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("cli-queries", "efficiency-table", "length-laws")

SETUP_PROBES = 7
TAIL_ABOVE = 10
# Enough rounds that the tail lands on the same op kind in every run: eleven
# rounds hold eleven of the slowest query or PMF, and two rounds are the
# efficiency table twice, whatever the machine's speed.
MIN_ROUNDS = {"cli-queries": 11, "efficiency-table": 2, "length-laws": 11}
# Fixed so that a traced run's counts repeat exactly for a given seed.
TRACE_ROUNDS = {"cli-queries": 20, "efficiency-table": 1, "length-laws": 2}
MAX_FAILURES_RECORDED = 20


def bootstrap() -> None:
    """Pin thread pools and put this checkout's ``src`` first on the import path."""
    missing = [name for name in REQUIRED_FILES if not (ROOT / name).is_file()]
    if missing:
        raise SystemExit(f"benchmark: {', '.join(missing)} not found under {ROOT}; "
                         "run it from a full checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import deuce

    if not Path(deuce.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"benchmark: imported deuce from {deuce.__file__}, not from {ROOT / 'src'}")


def tail_latency(samples, above: int = TAIL_ABOVE) -> tuple[float, float]:
    """``(value, percentile)`` at the highest percentile with ``above`` samples above it."""
    ordered = sorted(samples)
    if len(ordered) <= above:
        raise ValueError(f"need more than {above} samples, got {len(ordered)}")
    index = len(ordered) - above - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# ---------------------------------------------------------------------------
# set-up time, measured in fresh interpreters


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import, generate inputs, run one warm-up op, print the clock."""
    import deuce  # noqa: F401
    import deuce.cli  # noqa: F401
    import workloads

    wl = workloads.Workload(workload, seed)
    wl.round(0)
    workloads.execute(wl.warmup_op(), wl)
    print(json.dumps({"ready": time.monotonic()}))


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up probe failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - start)
    return times


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Phase:
    """Latencies, failures and input tallies of the ops run so far.

    Ops themselves are not kept, so memory does not grow with the op count.
    """

    latencies: list = field(default_factory=list)
    round_busy: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    distinct: set = field(default_factory=set)
    matches: int = 0
    matches_k0_eq_k1: int = 0

    @property
    def busy(self) -> float:
        return sum(self.round_busy)

    def tally(self, op) -> None:
        self.kinds[f"{op.kind}:{op.system}"] += 1
        self.distinct.add(hash(op))
        if op.system == "match":
            self.matches += 1
            self.matches_k0_eq_k1 += op.spec_dict["k0"] == op.spec_dict["k1"]


def run_op(op, wl, checker) -> tuple[float, list[str]]:
    """Run one op, time it, then check its output outside the timing."""
    import workloads

    start = time.perf_counter()
    try:
        output = workloads.execute(op, wl)
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - start
    try:
        return latency, checker.check(op, output)
    except (KeyError, TypeError, ValueError) as exc:
        return latency, [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_rounds(wl, checker, phase: Phase, rounds, tracer=None) -> None:
    for index in rounds:
        busy = 0.0
        for op in wl.round(index):
            if tracer is not None:
                tracer.op = len(phase.latencies)
            latency, problems = run_op(op, wl, checker)
            busy += latency
            phase.latencies.append(latency)
            phase.tally(op)
            phase.failures += [f"round {index} {op.kind} {op.system}: {p}" for p in problems[:1]]
        phase.round_busy.append(busy)
        # Inputs never repeat across rounds, so references need not outlive one.
        checker.refs.clear()


def timed_phase(wl, checker, seconds: float) -> Phase:
    phase = Phase()
    index = 0
    while phase.busy < seconds or index < MIN_ROUNDS[wl.name]:
        run_rounds(wl, checker, phase, [index])
        index += 1
    return phase


def traced_phase(wl, checker, rounds: int):
    import tracer as tracing
    import workloads

    phase = Phase()
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        run_rounds(wl, checker, phase, range(rounds), tracer)
    finally:
        tracer.uninstall()
    return phase, tracer.spans


# ---------------------------------------------------------------------------
# run record


def git_state() -> tuple[str | None, bool | None]:
    """``(commit, dirty)`` when ROOT is the top of a git work tree, else ``(None, None)``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        head = git("rev-parse", "--show-toplevel", "HEAD")
        if head.returncode != 0 or Path(head.stdout.split()[0]).resolve() != ROOT:
            return None, None
        status = git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.split()[1], bool(status.stdout.strip())


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy

    commit, dirty = git_state()
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def input_properties(phase: Phase, checker) -> dict:
    ops = len(phase.latencies)
    return {
        "ops": ops,
        "kind_mix": {key: count / ops for key, count in sorted(phase.kinds.items())},
        "match_k0_eq_k1_share": (phase.matches_k0_eq_k1 / phase.matches
                                 if phase.matches else None),
        "underdog_share": (checker.underdog_cells / checker.win_cells
                           if checker.win_cells else None),
        "underdog_cells": checker.underdog_cells,
        "oracle_cells": checker.win_cells,
        "repeated_input_share": 1.0 - len(phase.distinct) / ops,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_times: list[float]) -> tuple[dict, dict]:
    tail, percentile = tail_latency(phase.latencies)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(len(phase.latencies) / phase.busy, "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(phase.latencies), "ms"),
        "op_tail_ms": _metric(1e3 * tail, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"tail_percentile": percentile, "tail_samples_above": TAIL_ABOVE,
              "samples": len(phase.latencies), "setup_samples_s": setup_times}
    return metrics, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.output_bytes":
        return "bytes"
    if name == "efficiency.surface_points":
        return "points/report"
    return "count"


def per_layer(spans, traced: Phase, untraced: Phase) -> dict:
    import tracer as tracing

    metrics = {name: _metric(value, _layer_unit(name))
               for name, value in tracing.layer_metrics(spans).items()}
    # Both phases run whole rounds of one mix.  The whole timed phase is the
    # reference, not its first rounds alone, which run colder than the replay.
    untraced_rate = len(untraced.latencies) / untraced.busy
    traced_rate = len(traced.latencies) / traced.busy
    metrics["trace.overhead"] = _metric(untraced_rate / traced_rate, "x")
    return metrics


def write_results(stem: str, record: dict, spans=None) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RESULTS_DIR / f"{stem}-spans.json").write_text(
            json.dumps([asdict(span) for span in spans]) + "\n")


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)

    import checks
    import workloads

    wl = workloads.Workload(args.workload, args.seed)
    checker = checks.Checker(wl)
    workloads.execute(wl.warmup_op(), wl)
    phase = timed_phase(wl, checker, args.seconds)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed),
              "inputs": input_properties(phase, checker),
              "rounds": len(phase.round_busy), "busy_s": phase.busy}
    spans = None
    if args.trace:
        traced, spans = traced_phase(wl, checker, min(TRACE_ROUNDS[args.workload],
                                                      len(phase.round_busy)))
        metrics = per_layer(spans, traced, phase)
        record["traced_rounds"] = len(traced.round_busy)
        failures = phase.failures + traced.failures
        attempted = len(phase.latencies) + len(traced.latencies)
    else:
        metrics, record["latency"] = end_to_end(phase, setup_times)
        failures, attempted = phase.failures, len(phase.latencies)
    record["metrics"] = dict(metrics, error_rate=_metric(len(failures) / attempted, "ratio"))
    record["failures"] = failures[:MAX_FAILURES_RECORDED]
    write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}", record, spans)
    print(json.dumps(record, indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
