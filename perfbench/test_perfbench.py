"""Tests of the benchmark itself: tiny workloads, the reference and the checks.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402

cgmflow = run.import_program()
from cgmflow.oracle import enumerate_feasible  # noqa: E402


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], n_states=4, population=12, panel=2)


@pytest.fixture
def small_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_runs_clean(name, trace, small_run, tmp_path):
    result = run.run_workload(name, tiny(name), seed=3, seconds=0.01, trace=trace)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(units)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)
    if trace:
        spans = (tmp_path / f"{name}-seed3" / "trace.jsonl").read_text().splitlines()
        assert spans and all(json.loads(s)["end"] is not None for s in spans)
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in units)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_panel_is_a_function_of_the_seed(tmp_path):
    workload = tiny("dca-wide")
    first = run.write_panel("dca-wide", workload, 7, tmp_path / "a")
    again = run.write_panel("dca-wide", workload, 7, tmp_path / "b")
    other = run.write_panel("dca-wide", workload, 8, tmp_path / "c")
    assert [p.read_text() for p in first] == [p.read_text() for p in again]
    assert [p.read_text() for p in first] != [p.read_text() for p in other]


def test_prior_sums_to_one_over_all_feasible_tables():
    instance = cgmflow.gen_synthetic(n_steps=3, n_states=3, population=4, seed=5)
    terms = [
        math.exp(-reference.neg_log_prior(instance, t.node, t.edge))
        for t in enumerate_feasible(instance)
    ]
    assert len(terms) == 18711
    assert math.fsum(terms) == pytest.approx(1.0, abs=1e-12)


def test_log_partition_matches_path_enumeration():
    rng = np.random.default_rng(0)
    log_phi = np.log(rng.integers(1, 11, size=(3, 3, 3)).astype(float))
    paths = [
        sum(log_phi[t, p[t], p[t + 1]] for t in range(3))
        for p in itertools.product(range(3), repeat=4)
    ]
    assert reference.log_partition(log_phi, 3) == pytest.approx(
        math.log(math.fsum(math.exp(v) for v in paths)), rel=1e-12
    )


def test_reference_is_objective_plus_dropped_constants():
    instance = cgmflow.gen_synthetic(n_steps=3, n_states=2, population=5, seed=1)
    const = reference.dropped_constants(instance)
    tables = list(itertools.islice(enumerate_feasible(instance), 40))
    for t in tables:
        assert reference.close(
            reference.neg_log_joint(instance, t.node, t.edge),
            cgmflow.objective(instance, t) + const,
        )
    mix = cgmflow.FractionalTables(
        node=0.3 * tables[0].node + 0.7 * tables[-1].node,
        edge=0.3 * tables[0].edge + 0.7 * tables[-1].edge,
    )
    assert reference.close(
        reference.neg_log_joint(instance, mix.node, mix.edge, fractional=True),
        cgmflow.objective_fractional(instance, mix) + const,
    )


@pytest.fixture(scope="module")
def solved():
    instance = cgmflow.gen_synthetic(n_steps=4, n_states=3, population=9, seed=2)
    tables, report = cgmflow.run_dca(instance)
    return instance, tables, report


def test_checks_accept_a_real_solve(solved):
    instance, tables, report = solved
    problems, nlj = reference.check_dca(
        instance, tables, report, cgmflow.objective(instance, tables)
    )
    assert problems == [] and nlj > 0


def test_checks_reject_corrupted_tables(solved):
    instance, tables, report = solved
    edge = tables.edge.copy()
    i, j = np.argwhere(edge[0] > 0)[0]
    edge[0, i, j] -= 1
    edge[0, i, (j + 1) % 3] += 1  # row sums hold, column sums break
    bad = cgmflow.ContingencyTables(node=tables.node, edge=edge)
    problems, _ = reference.check_dca(instance, bad, report, cgmflow.objective(instance, bad))
    assert problems

    half = SimpleNamespace(node=tables.node + 0.5, edge=tables.edge)
    assert "tables are not integral" in reference.table_problems(
        instance, half.node, half.edge, integral=True
    )
    negative = tables.node.copy()
    negative[0, 0] = -1
    assert reference.table_problems(instance, negative, tables.edge, integral=True)


def test_checks_reject_bad_reports_and_objectives(solved):
    instance, tables, report = solved
    obj = cgmflow.objective(instance, tables)
    rising = SimpleNamespace(objectives=[obj, obj + 1.0], inner_stats=report.inner_stats)
    assert reference.check_dca(instance, tables, rising, obj)[0]
    uncertified = SimpleNamespace(
        objectives=report.objectives,
        inner_stats=[SimpleNamespace(min_reduced_cost=-1e-6)],
    )
    assert reference.check_dca(instance, tables, uncertified, obj)[0]
    assert reference.check_dca(instance, tables, report, obj + 1e-3)[0]
    fractional = cgmflow.FractionalTables(node=tables.node, edge=tables.edge)
    assert reference.check_relax(instance, fractional, math.inf)[0]


def test_failed_check_counts_as_failed_solve(solved, monkeypatch):
    instance, tables, report = solved
    broken = cgmflow.ContingencyTables(node=tables.node, edge=np.zeros_like(tables.edge))
    monkeypatch.setattr(cgmflow, "run_dca", lambda inst: (broken, report))
    solves = run.run_rounds(cgmflow, run.WORKLOADS["dca-wide"], [instance] * 2, 0.0)
    assert len(solves) == 2 and all(s.problems for s in solves)

    def boom(inst):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(cgmflow, "run_dca", boom)
    solves = run.run_rounds(cgmflow, run.WORKLOADS["dca-wide"], [instance], 0.0)
    assert solves[0].problems == ["raised RuntimeError('solver fault')"]


def test_exits_nonzero_without_program_sources(tmp_path):
    root = HERE.parent
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (root / "BENCHMARK.json").exists():
        shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "relax", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
