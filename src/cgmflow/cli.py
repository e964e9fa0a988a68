"""Command-line front end.

Subcommands: generate (synthetic instances), solve (one instance by any
method), compare (method grids over seeded instances), interpolate (endpoint
histograms to a full sequence), bench (timing sweeps).  Every run writes
<out>.manifest.json next to its outputs (see _write_manifest): arguments,
input hashes, outputs, timings and any command-specific extras.  Exit
codes: 0 success, 1 some compare instances failed (their cells are left out
of the summary), 2 usage error, 3 infeasible instance, 4 I/O or format
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import os
import re
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baseline import approx_objective, solve_approximate
from .core import (
    CgmInstance,
    ContingencyTables,
    objective,
    objective_fractional,
)
from .dca import AlphaStrategy, DcaConfig, build_surrogate_network, run_dca
from .flow import (
    InfeasibleError,
    build_flow_network,
    network_to_dot,
    network_to_json,
    solve_capacity_scaling,
    solve_ssp,
)
from .instances import (
    FormatError,
    GridSpec,
    PotentialKind,
    gen_interpolation,
    gen_synthetic,
    load_instance,
    save_instance,
    save_tables,
    sparsity,
)
from .oracle import BudgetExceededError, brute_force_map

DISPLAY_FLOOR = 1e-2


# ---------------------------------------------------------------------------
# flag parsing helpers


def _number(cast, accept, requirement: str):
    """argparse type: cast the flag's text, then reject values failing accept."""
    kind = "an integer" if cast is int else "a number"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} {requirement}")
        return value

    return parse


_positive_int = _number(int, lambda v: v >= 1, "must be at least 1")
_positive_float = _number(float, lambda v: v > 0, "must be positive")


def _parse_grid(text: str) -> GridSpec:
    match = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not match:
        raise argparse.ArgumentTypeError(f"{text!r} is not WIDTHxHEIGHT")
    width, height = int(match.group(1)), int(match.group(2))
    if width < 1 or height < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be positive")
    return GridSpec(width=width, height=height)


# ---------------------------------------------------------------------------
# manifests


def _args_snapshot(args: argparse.Namespace) -> dict:
    doc = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, GridSpec):
            value = f"{value.width}x{value.height}"
        elif isinstance(value, (list, tuple)):
            value = [str(v) if isinstance(v, Path) else v for v in value]
        doc[key] = value
    return doc


def _write_manifest(
    command: str,
    args: argparse.Namespace,
    prefix: Path,
    inputs: Sequence[Path],
    outputs: Sequence[Path],
    timings: dict,
    extra: Optional[dict] = None,
) -> Path:
    """Write the provenance record <prefix>.manifest.json and return its path.

    It holds the command, the full flag snapshot (seeds included), the
    SHA-256 of every input file, the outputs written and wall timings;
    extra keys land at the top level.
    """
    path = Path(f"{prefix}.manifest.json")
    _write_json(path, {
        "command": command,
        "args": _args_snapshot(args),
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                   for p in inputs},
        "outputs": [str(p) for p in outputs],
        "timings": timings,
        **(extra or {}),
    })
    return path


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _is_integral(node: np.ndarray, edge: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(
        np.all(np.abs(node - np.rint(node)) <= tol)
        and np.all(np.abs(edge - np.rint(edge)) <= tol)
    )


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    instance = gen_synthetic(
        n_steps=args.n_steps,
        n_states=args.n_states,
        population=args.population,
        kind=PotentialKind(args.potential),
        noise_var=args.noise_var,
        seed=args.seed,
        grid=args.grid,
    )
    save_instance(instance, args.out)
    _write_manifest(
        "generate",
        args,
        args.out,
        inputs=[],
        outputs=[args.out],
        timings={"generate_seconds": time.perf_counter() - t0},
    )
    return 0


# ---------------------------------------------------------------------------
# solve


def _solve_dca(instance: CgmInstance, config: DcaConfig):
    tables, report = run_dca(instance, config)
    return tables, {
        "method": "dca",
        "objective": objective(instance, tables),
        **report.to_dict(),
    }


def _solve_baseline(instance: CgmInstance, **options):
    tables, report = solve_approximate(instance, **options)
    return tables, {
        "method": "baseline",
        # relaxed value the solver minimized, then the genuine objective
        "objective": approx_objective(instance, tables),
        "true_objective": objective_fractional(instance, tables),
        **report.to_dict(),
    }


def _solve_oracle(instance: CgmInstance, budget: int):
    tables, value = brute_force_map(instance, budget=budget)
    return tables, {"method": "oracle", "objective": value, "converged": True}


def _timed_solve(solve, instance: CgmInstance, *args, **options):
    """Run one _solve_* function and add the report tail every command shares:
    sparsity, integral and wall_seconds."""
    t0 = time.perf_counter()
    tables, doc = solve(instance, *args, **options)
    doc["wall_seconds"] = time.perf_counter() - t0
    doc["sparsity"] = sparsity(tables)
    doc["integral"] = _is_integral(np.asarray(tables.node), np.asarray(tables.edge))
    return tables, doc


def cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.input)
    prefix = args.out
    if args.method == "dca":
        config = DcaConfig(strategy=args.strategy, max_iters=args.max_iters)
        tables, doc = _timed_solve(_solve_dca, instance, config)
    elif args.method == "baseline":
        tables, doc = _timed_solve(_solve_baseline, instance, tol=args.baseline_tol,
                                   max_iters=args.baseline_max_iters)
    else:
        tables, doc = _timed_solve(_solve_oracle, instance, args.budget)

    tables_path = Path(f"{prefix}.tables.json")
    report_path = Path(f"{prefix}.report.json")
    save_tables(tables, tables_path)
    _write_json(report_path, doc)
    outputs = [tables_path, report_path]

    if args.dump_network is not None:
        network = build_flow_network(instance)
        json_path = Path(f"{args.dump_network}.json")
        dot_path = Path(f"{args.dump_network}.dot")
        _write_json(json_path, network_to_json(network))
        dot_path.write_text(network_to_dot(network))
        outputs.extend([json_path, dot_path])

    _write_manifest(
        "solve",
        args,
        prefix,
        inputs=[args.input],
        outputs=outputs,
        timings={"solve_seconds": doc["wall_seconds"]},
    )
    return 0


# ---------------------------------------------------------------------------
# compare

COMPARE_METHODS = ("dca-L", "dca-M", "dca-R", "baseline")
# the measures each compared method reports, with their CSV formats
COMPARE_MEASURES = {"objective": "{:.12g}", "sparsity": "{:.6f}", "seconds": "{:.6f}"}


def _compare_measures(values: dict) -> list:
    """values' COMPARE_MEASURES entries, formatted, in column order."""
    return [fmt.format(values[name]) for name, fmt in COMPARE_MEASURES.items()]


def _write_csv(path: Path, header: list, rows: list) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _compare_one(job: tuple) -> dict:
    """Solve one seeded instance with every compared method.

    Runs inside worker processes; must stay importable at module top level
    and take/return plain picklable data.
    """
    n_states, population, potential, n_steps, noise_var, seed = job
    out = {
        "n_states": n_states,
        "population": population,
        "potential": potential,
        "seed": seed,
        "rows": [],
    }
    try:
        instance = gen_synthetic(
            n_steps=n_steps,
            n_states=n_states,
            population=population,
            kind=PotentialKind(potential),
            noise_var=noise_var,
            seed=seed,
        )
        for method in COMPARE_METHODS:
            if method == "baseline":
                _, doc = _timed_solve(_solve_baseline, instance)
            else:
                config = DcaConfig(strategy=method[-1])
                _, doc = _timed_solve(_solve_dca, instance, config)
            out["rows"].append(
                {
                    "method": method,
                    # the genuine objective; the baseline's objective is relaxed
                    "objective": doc.get("true_objective", doc["objective"]),
                    "sparsity": doc["sparsity"],
                    "seconds": doc["wall_seconds"],
                    "converged": doc["converged"],
                    "iterations": doc["iterations"],
                }
            )
    except Exception as exc:  # noqa: BLE001 - workers must not crash the pool
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_compare(args: argparse.Namespace) -> int:
    cells = [
        (R, M, pot)
        for pot in args.potentials
        for R in args.n_states
        for M in args.populations
    ]
    jobs = []
    for cell_index, (R, M, pot) in enumerate(cells):
        for k in range(args.instances):
            seed = args.seed + 1009 * cell_index + k
            jobs.append((R, M, pot, args.n_steps, args.noise_var, seed))

    workers = args.workers or os.cpu_count() or 1
    t0 = time.perf_counter()
    if workers <= 1 or len(jobs) <= 1:
        results = [_compare_one(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compare_one, jobs))
    elapsed = time.perf_counter() - t0

    failures = []
    rows = []  # one per (solved instance, method)
    for result in results:
        cell = (result["n_states"], result["population"], result["potential"])
        if "error" in result:
            failures.append(
                {"cell": list(cell), "seed": result["seed"], "error": result["error"]}
            )
            continue
        for row in result["rows"]:
            rows.append({"cell": cell, "seed": result["seed"], **row})

    detail_path = Path(f"{args.out}.instances.csv")
    detail = []
    for row in rows:
        R, M, pot = row["cell"]
        detail.append(
            [pot, R, M, row["seed"], row["method"], *_compare_measures(row),
             int(row["converged"]), row["iterations"]]
        )
    _write_csv(
        detail_path,
        ["potential", "n_states", "population", "seed", "method",
         *COMPARE_MEASURES, "converged", "iterations"],
        detail,
    )

    summary_path = Path(f"{args.out}.summary.csv")
    header = ["potential", "n_states", "population", "instances"]
    for method in COMPARE_METHODS:
        tag = method.replace("-", "_")
        header += [f"mean_{name}_{tag}" for name in COMPARE_MEASURES]
    failed_cells = {tuple(failure["cell"]) for failure in failures}
    summary = []
    for cell in cells:
        done = [row for row in rows if row["cell"] == cell]
        # a failed instance aborts the whole cell
        if not done or cell in failed_cells:
            continue
        R, M, pot = cell
        line = [pot, R, M, len({row["seed"] for row in done})]
        for method in COMPARE_METHODS:
            picks = [row for row in done if row["method"] == method]
            means = {name: np.mean([p[name] for p in picks]) for name in COMPARE_MEASURES}
            line += _compare_measures(means)
        summary.append(line)
    _write_csv(summary_path, header, summary)

    _write_manifest(
        "compare",
        args,
        args.out,
        inputs=[],
        outputs=[summary_path, detail_path],
        timings={"compare_seconds": elapsed},
        extra={"failed": failures, "workers": workers},
    )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# interpolate


def _read_histogram(path: Path, n_cells: int) -> list[int]:
    tokens = [tok for tok in re.split(r"[\s,]+", Path(path).read_text().strip()) if tok]
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise FormatError(f"{path}: {tok!r} is not an integer count")
    if len(values) != n_cells:
        raise FormatError(f"{path}: expected {n_cells} counts, found {len(values)}")
    return values


def _write_histograms(path: Path, node: np.ndarray, floor: Optional[float]) -> None:
    lines = ["t,i,value"]
    for t in range(node.shape[0]):
        for i in range(node.shape[1]):
            value = node[t, i]
            if floor is not None and value < floor:
                value = 0
            lines.append(f"{t + 1},{i + 1},{value:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_interpolate(args: argparse.Namespace) -> int:
    first = _read_histogram(args.first, args.grid.n_cells)
    last = _read_histogram(args.last, args.grid.n_cells)
    try:
        instance = gen_interpolation(
            args.grid,
            first,
            last,
            n_steps=args.n_steps,
            noise_precision=args.noise_precision,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.method == "dca":
        config = DcaConfig(strategy=args.strategy)
        tables, doc = _timed_solve(_solve_dca, instance, config)
    else:
        tables, doc = _timed_solve(_solve_baseline, instance)

    node = np.asarray(tables.node, dtype=float)
    raw_path = Path(f"{args.out}.raw.csv")
    display_path = Path(f"{args.out}.display.csv")
    report_path = Path(f"{args.out}.report.json")
    _write_histograms(raw_path, node, floor=None)
    _write_histograms(display_path, node, floor=DISPLAY_FLOOR)
    _write_json(report_path, doc)

    _write_manifest(
        "interpolate",
        args,
        args.out,
        inputs=[args.first, args.last],
        outputs=[raw_path, display_path, report_path],
        timings={"interpolate_seconds": doc["wall_seconds"]},
    )
    return 0


# ---------------------------------------------------------------------------
# bench


def _time_inner(instance: CgmInstance, solver) -> float:
    zeros = ContingencyTables.zeros(instance.n_steps, instance.n_states)
    network = build_surrogate_network(instance, zeros, AlphaStrategy.L)
    t0 = time.perf_counter()
    solver(network)
    return time.perf_counter() - t0


def _bench_point(instance: CgmInstance, method: str) -> float:
    if method == "ssp":
        return _time_inner(instance, solve_ssp)
    if method == "cs":
        return _time_inner(instance, solve_capacity_scaling)
    t0 = time.perf_counter()
    if method == "dca":
        run_dca(instance)
    else:
        solve_approximate(instance)
    return time.perf_counter() - t0


class _PointTimeout(Exception):
    """The bench point ran past its --timeout-sec budget."""


def _raise_timeout(signum, frame):
    raise _PointTimeout


def _bounded_bench_point(
    instance: CgmInstance, method: str, budget: Optional[float]
) -> tuple[float, bool]:
    """Seconds of one bench point and whether it hit the budget.

    A SIGALRM timer stops the point once budget seconds have passed; a
    stopped point reports the budget as its time.
    """
    if budget is None:
        return _bench_point(instance, method), False
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            seconds = _bench_point(instance, method)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _PointTimeout:
        return budget, True
    finally:
        signal.signal(signal.SIGALRM, previous)
    if seconds > budget:
        return budget, True
    return seconds, False


def cmd_bench(args: argparse.Namespace) -> int:
    sweeps = []
    if args.populations:
        sweeps.append(("population", args.populations))
    if args.states_sweep:
        sweeps.append(("n_states", args.states_sweep))
    if not sweeps:
        print("error: nothing to sweep (use --populations or --states-sweep)",
              file=sys.stderr)
        return 2

    out_path = Path(f"{args.out}.csv")
    t0 = time.perf_counter()
    point_index = 0
    with out_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["sweep", "n_steps", "n_states", "population",
             "method", "repeat", "seconds", "censored"]
        )
        for sweep, values in sweeps:
            for value in values:
                R = args.n_states if sweep == "population" else value
                M = value if sweep == "population" else args.population
                instance = gen_synthetic(
                    n_steps=args.n_steps,
                    n_states=R,
                    population=M,
                    kind=PotentialKind(args.potential),
                    noise_var=args.noise_var,
                    seed=args.seed + point_index,
                )
                point_index += 1
                for method in args.methods:
                    for repeat in range(args.repeats):
                        seconds, censored = _bounded_bench_point(
                            instance, method, args.timeout_sec
                        )
                        writer.writerow(
                            [sweep, args.n_steps, R, M, method, repeat,
                             f"{seconds:.6f}", int(censored)]
                        )
                        # point exceeded the budget: skip remaining repeats
                        if censored:
                            break

    _write_manifest(
        "bench",
        args,
        args.out,
        inputs=[],
        outputs=[out_path],
        timings={"bench_seconds": time.perf_counter() - t0},
    )
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgmflow",
        description="MAP inference for aggregate count models on path graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in PotentialKind]

    gen = sub.add_parser("generate", help="write a synthetic instance JSON")
    gen.add_argument("--n-steps", type=_positive_int, default=5)
    gen.add_argument("--n-states", type=_positive_int, required=True)
    gen.add_argument("--population", type=_positive_int, required=True)
    gen.add_argument("--potential", choices=kinds, default="uniform")
    gen.add_argument("--noise-var", type=_positive_float, default=50.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--grid", type=_parse_grid, default=None,
                     help="WIDTHxHEIGHT cell layout for grid potentials")
    gen.add_argument("--out", type=Path, required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve one instance, write tables + report")
    solve.add_argument("--in", dest="input", type=Path, required=True)
    solve.add_argument("--out", type=Path, required=True,
                       help="output prefix: writes <out>.tables.json, <out>.report.json")
    solve.add_argument("--method", choices=["dca", "baseline", "oracle"], default="dca")
    solve.add_argument("--strategy", choices=["L", "M", "R"], default="L")
    # the library's own defaults, so the two cannot drift apart
    relax = inspect.signature(solve_approximate).parameters
    solve.add_argument("--max-iters", type=_positive_int, default=DcaConfig().max_iters)
    solve.add_argument("--baseline-tol", type=_positive_float, default=relax["tol"].default)
    solve.add_argument("--baseline-max-iters", type=_positive_int,
                       default=relax["max_iters"].default)
    solve.add_argument("--budget", type=_positive_int, default=10_000_000,
                       help="oracle enumeration budget")
    solve.add_argument("--dump-network", type=Path, default=None,
                       help="also dump the flow network as <prefix>.json/.dot")
    solve.set_defaults(func=cmd_solve)

    comp = sub.add_parser("compare", help="method comparison grid, CSV output")
    comp.add_argument("--n-states", type=_positive_int, nargs="+", required=True)
    comp.add_argument("--populations", type=_positive_int, nargs="+", required=True)
    comp.add_argument("--potentials", nargs="+", choices=kinds,
                      default=["uniform", "distance"])
    comp.add_argument("--instances", type=_positive_int, default=10)
    comp.add_argument("--n-steps", type=_positive_int, default=5)
    comp.add_argument("--noise-var", type=_positive_float, default=50.0)
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--workers", type=_positive_int, default=None,
                      help="worker processes (default: all cores)")
    comp.add_argument("--out", type=Path, required=True,
                      help="output prefix: <out>.summary.csv, <out>.instances.csv")
    comp.set_defaults(func=cmd_compare)

    interp = sub.add_parser("interpolate",
                            help="interpolate endpoint histograms on a grid")
    interp.add_argument("--grid", type=_parse_grid, required=True)
    interp.add_argument("--first", type=Path, required=True,
                        help="CSV/text file with the first-layer counts")
    interp.add_argument("--last", type=Path, required=True)
    interp.add_argument("--n-steps", type=_positive_int, default=6)
    interp.add_argument("--noise-precision", type=_positive_float, default=5.0)
    interp.add_argument("--method", choices=["dca", "baseline"], default="dca")
    interp.add_argument("--strategy", choices=["L", "M", "R"], default="L")
    interp.add_argument("--out", type=Path, required=True,
                        help="output prefix: <out>.raw.csv, <out>.display.csv")
    interp.set_defaults(func=cmd_interpolate)

    bench = sub.add_parser("bench", help="timing sweeps, CSV output")
    bench.add_argument("--populations", type=_positive_int, nargs="*", default=[],
                       help="population sweep at fixed --n-states")
    bench.add_argument("--states-sweep", type=_positive_int, nargs="*", default=[],
                       help="state-count sweep at fixed --population")
    bench.add_argument("--n-states", type=_positive_int, default=10)
    bench.add_argument("--population", type=_positive_int, default=100)
    bench.add_argument("--n-steps", type=_positive_int, default=5)
    bench.add_argument("--potential", choices=kinds, default="uniform")
    bench.add_argument("--noise-var", type=_positive_float, default=50.0)
    bench.add_argument("--methods", nargs="+",
                       choices=["ssp", "cs", "dca", "baseline"],
                       default=["ssp", "cs"])
    bench.add_argument("--repeats", type=_positive_int, default=3)
    bench.add_argument("--timeout-sec", type=_positive_float, default=None)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", type=Path, required=True)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: infeasible instance: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
