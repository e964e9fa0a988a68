"""Benchmark of cgmflow's exact DCA solver and its relaxation baseline.

Run from the repository root:

    python3 perfbench/run.py --workload dca-wide --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
The operation is one solve of one instance.  A run draws a panel of
instances from ``--seed``, writes them as instance files, makes one
untimed warm-up solve, then solves the panel in whole rounds and checks
every output against ``reference.py``.  A solve that raises or fails a
check counts as failed.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it solves each instance of the panel once untraced
and once traced and prints the per-layer metrics with the tracing overhead.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One Python thread drives the load; BLAS pools are capped at the CPUs this
# process may use.  Set before numpy is imported, and inherited by children.
_CPUS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CPUS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import zlib  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

N_STEPS = 5
NOISE_VAR = 50.0
SETUP_LAUNCHES = 5


@dataclass(frozen=True)
class Workload:
    method: str  # "dca" (run_dca, default config) or "relax" (solve_approximate)
    n_states: int
    population: int
    panel: int  # instances per round, sized so that one round fills a run
    cs_probe: bool = False  # traced run also solves first-iteration networks by CS


WORKLOADS = {
    # ~3.8k arcs carrying few units over 8-16 DC iterations: per-search cost
    # and dense-table state init dominate, and solve time varies with the
    # iteration count, hence the largest panel of the DCA workloads.
    "dca-wide": Workload("dca", n_states=30, population=100, panel=9),
    # 470 arcs and ~2000 unit augmentations per iteration with an O(E*M)
    # cost table: the flow layer used the opposite way from dca-wide.
    "dca-pop": Workload("dca", n_states=10, population=2000, panel=6, cs_probe=True),
    # small counts, where Stirling's approximation is weakest; never touches
    # flow or dca, so flow and DC changes should leave it unchanged.
    "relax": Workload("relax", n_states=20, population=100, panel=8),
}

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "neg_log_joint.mean": "nats",
}

PER_LAYER_UNITS = {
    "instances.load_s": "s",
    "dca.iterations": "count",
    "dca.self_s": "s",
    "flow.build_s": "s",
    "flow.ssp_s": "s",
    "flow.units": "count",
    "flow.extract_s": "s",
    "flow.shipments": "count",
    "flow.pops": "count",
    "flow.pops_per_shipment": "ratio",
    "flow.peak_traced_mb": "MB",
    "flow.cs_s": "s",
    "flow.cs_shipments": "count",
    "flow.cs_pushes": "count",
    "core.objective_s": "s",
    "baseline.iterations": "count",
    "baseline.linesearch_s": "s",
    "baseline.self_s": "s",
    "baseline.converged": "count",
    "baseline.converged_share": "ratio",
    "baseline.gap_rel": "ratio",
    "trace.overhead_pct": "%",
}

# Times a fresh interpreter's import of cgmflow plus loading the panel files.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cgmflow
for path in sys.argv[2:]:
    cgmflow.load_instance(path)
print(time.perf_counter() - t0)
"""


@dataclass
class Solve:
    instance: int
    seconds: float
    problems: list
    neg_log_joint: float
    report: object


def import_program():
    """cgmflow from this checkout's sources, never from anywhere else."""
    package = SRC / "cgmflow"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no cgmflow sources at {package}")
    sys.path.insert(0, str(SRC))
    import cgmflow

    if Path(cgmflow.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported cgmflow from {cgmflow.__file__}")
    return cgmflow


def write_panel(name: str, workload: Workload, seed: int, directory: Path) -> list:
    """Instance files for one run, a pure function of (workload, seed).

    Potentials are integers uniform on 1..10, observations integers uniform
    on 1..2*floor(M/R), every node Gaussian with variance 50; one PCG64
    stream per (workload, seed).
    """
    rng = np.random.default_rng([zlib.crc32(name.encode()), seed % 2**64])
    R, M = workload.n_states, workload.population
    top = max(1, 2 * (M // R))
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(workload.panel):
        potentials = rng.integers(1, 11, size=(N_STEPS - 1, R, R))
        observations = rng.integers(1, top + 1, size=(N_STEPS, R))
        doc = {
            "format_version": 1,
            "n_steps": N_STEPS,
            "n_states": R,
            "population": M,
            "potentials": potentials.astype(float).tolist(),
            "observations": observations.astype(float).tolist(),
            "noise": [[{"type": "gaussian", "var": NOISE_VAR}] * R] * N_STEPS,
        }
        path = directory / f"instance-{k}.json"
        path.write_text(json.dumps(doc) + "\n")
        paths.append(path)
    return paths


def measure_setup(paths: list) -> float:
    """Median over fresh interpreters of import cgmflow plus load_instance."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, paths)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def solve(cgmflow, workload: Workload, instance):
    if workload.method == "dca":
        return cgmflow.run_dca(instance)
    return cgmflow.solve_approximate(instance)


def warm_up(cgmflow, workload: Workload, instance) -> None:
    """One short solve: grows the log-factorial table and touches every path."""
    if workload.method == "dca":
        cgmflow.run_dca(instance, cgmflow.DcaConfig(max_iters=1))
    else:
        cgmflow.solve_approximate(instance, max_iters=10)


def check(cgmflow, workload: Workload, instance, tables, report) -> tuple:
    if workload.method == "dca":
        return reference.check_dca(
            instance, tables, report, cgmflow.objective(instance, tables)
        )
    return reference.check_relax(
        instance, tables, cgmflow.objective_fractional(instance, tables)
    )


def timed_solve(cgmflow, workload, k, instance, tracer: Optional[Tracer]) -> Solve:
    top = "dca.run_dca" if workload.method == "dca" else "baseline.solve_approximate"
    t0 = time.perf_counter()
    try:
        with tracer.span(top) if tracer is not None else nullcontext():
            tables, report = solve(cgmflow, workload, instance)
        seconds = time.perf_counter() - t0
        problems, nlj = check(cgmflow, workload, instance, tables, report)
    except Exception as exc:  # a solve that raises is a failed operation
        return Solve(k, time.perf_counter() - t0, [f"raised {exc!r}"], math.nan, None)
    return Solve(k, seconds, problems, nlj, report)


def run_rounds(cgmflow, workload, instances, seconds: float) -> list:
    """Whole rounds over the panel; another starts only if it fits in seconds."""
    solves = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for k, instance in enumerate(instances):
            solves.append(timed_solve(cgmflow, workload, k, instance, None))
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return solves


def end_to_end(solves: list, setup_s: float) -> dict:
    times = [s.seconds for s in solves]
    nlj = {s.instance: s.neg_log_joint for s in solves if not s.problems}
    return {
        "solves_per_s": len(times) / sum(times),
        "solve_s.p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "neg_log_joint.mean": statistics.fmean(nlj.values()) if nlj else 0.0,
    }


def paired_passes(cgmflow, workload, instances) -> tuple:
    """Each instance solved untraced, then traced, so host drift hits both alike.

    Returns (untraced solves, traced solves, tracer, first SSP cost per traced
    solve).
    """
    tracer = Tracer()
    first_ssp_cost = {}

    def keep_first_cost(result) -> None:
        first_ssp_cost.setdefault(tracer.solve, result[1])

    untraced, traced = [], []
    for k, instance in enumerate(instances):
        untraced.append(timed_solve(cgmflow, workload, k, instance, None))
        tracer.solve = len(traced)
        tracer.wrap(cgmflow.dca, "build_surrogate_network", "flow.build")
        tracer.wrap(cgmflow.dca, "solve_ssp", "flow.ssp", on_return=keep_first_cost)
        tracer.wrap(cgmflow.dca, "extract_tables", "flow.extract")
        tracer.wrap(cgmflow.dca, "objective", "core.objective")
        tracer.wrap(cgmflow.baseline, "minimize_scalar", "baseline.linesearch")
        try:
            traced.append(timed_solve(cgmflow, workload, k, instance, tracer))
        finally:
            tracer.unwrap()
    return untraced, traced, tracer, first_ssp_cost


def first_network(cgmflow, instance):
    """The network of the first DC iteration (all-zero linearization)."""
    zeros = cgmflow.ContingencyTables.zeros(instance.n_steps, instance.n_states)
    return cgmflow.build_surrogate_network(instance, zeros, cgmflow.DcaConfig().strategy)


def flow_probes(cgmflow, workload, instances, solves, first_ssp_cost) -> tuple:
    """Untimed extras: SSP's traced-memory peak, and CS against SSP on dca-pop."""
    metrics = dict.fromkeys(
        ("flow.peak_traced_mb", "flow.cs_s", "flow.cs_shipments", "flow.cs_pushes"), 0.0
    )
    problems = []
    if workload.method != "dca":
        return metrics, problems
    network = first_network(cgmflow, instances[0])
    tracemalloc.start()
    try:
        cgmflow.solve_ssp(network)
        metrics["flow.peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    if not workload.cs_probe:
        return metrics, problems
    ssp_cost = {solves[i].instance: cost for i, cost in first_ssp_cost.items()}
    runs = []
    for k, instance in enumerate(instances):
        network = first_network(cgmflow, instance)
        t0 = time.perf_counter()
        _, cost, stats = cgmflow.solve_capacity_scaling(network)
        runs.append((time.perf_counter() - t0, stats))
        if k not in ssp_cost or not reference.close(cost, ssp_cost[k]):
            problems.append(f"instance {k}: CS cost {cost!r} vs SSP {ssp_cost.get(k)!r}")
    metrics["flow.cs_s"] = statistics.fmean(s for s, _ in runs)
    metrics["flow.cs_shipments"] = statistics.fmean(st.shipments for _, st in runs)
    metrics["flow.cs_pushes"] = statistics.fmean(st.restoration_pushes for _, st in runs)
    return metrics, problems


def per_layer(cgmflow, workload, instances, load_s: float) -> tuple:
    """Per-layer metrics, the traced solves and any probe problems."""
    untraced, solves, tracer, first_ssp_cost = paired_passes(cgmflow, workload, instances)
    n = len(solves)
    reports = [s.report for s in solves if s.report is not None]
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics["instances.load_s"] = load_s
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(s.seconds for s in solves) / sum(s.seconds for s in untraced) - 1.0
    )
    if workload.method == "dca":
        stats = [st for r in reports for st in r.inner_stats]
        shipments = sum(st.shipments for st in stats)
        metrics.update({
            "dca.iterations": sum(r.iterations for r in reports) / n,
            "dca.self_s": tracer.self_time("dca.run_dca") / n,
            "flow.build_s": tracer.total("flow.build") / n,
            "flow.ssp_s": tracer.total("flow.ssp") / n,
            "flow.units": sum(st.units for st in stats) / n,
            "flow.extract_s": tracer.total("flow.extract") / n,
            "flow.shipments": shipments / n,
            "flow.pops": sum(st.dijkstra_pops for st in stats) / n,
            "flow.pops_per_shipment": (
                sum(st.dijkstra_pops for st in stats) / shipments if shipments else 0.0
            ),
            "core.objective_s": tracer.total("core.objective") / n,
        })
    else:
        converged = sum(1 for r in reports if r.converged)
        metrics.update({
            "baseline.iterations": sum(r.iterations for r in reports) / n,
            "baseline.linesearch_s": tracer.total("baseline.linesearch") / n,
            "baseline.self_s": tracer.self_time("baseline.solve_approximate") / n,
            "baseline.converged": float(converged),
            "baseline.converged_share": converged / n,
            "baseline.gap_rel": (
                statistics.fmean(r.gap_rel for r in reports) if reports else 0.0
            ),
        })
    probes, problems = flow_probes(cgmflow, workload, instances, solves, first_ssp_cost)
    metrics.update(probes)
    return metrics, untraced + solves, tracer, problems


def run_workload(name: str, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    cgmflow = import_program()
    directory = OUT / f"{name}-seed{seed}"
    paths = write_panel(name, workload, seed, directory)
    t0 = time.perf_counter()
    instances = [cgmflow.load_instance(p) for p in paths]
    load_s = time.perf_counter() - t0
    warm_up(cgmflow, workload, instances[0])
    problems = []
    if trace:
        values, solves, tracer, problems = per_layer(cgmflow, workload, instances, load_s)
        tracer.write(directory / "trace.jsonl")
        units = PER_LAYER_UNITS
    else:
        setup_s = measure_setup(paths)
        solves = run_rounds(cgmflow, workload, instances, seconds)
        values = end_to_end(solves, setup_s)
        units = END_TO_END_UNITS
    failed = [s for s in solves if s.problems]
    for s in failed[:5]:
        print(f"failed solve of instance {s.instance}: {'; '.join(s.problems)}",
              file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def print_result(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:26s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} solves, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; prefixes metric names with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
