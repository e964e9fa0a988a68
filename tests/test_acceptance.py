"""Release gates: ten end-to-end checks, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
on success; pytest shows them on failure regardless.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from cgmflow.baseline import solve_approximate
from cgmflow.cli import main as cli_main
from cgmflow.core import (
    CgmInstance,
    ContingencyTables,
    Gaussian,
    MISSING,
    Poisson,
    f_cost,
    g_cost,
    h_cost,
    log_factorial,
    objective,
    objective_fractional,
    validate_tables,
)
from cgmflow.dca import (
    AlphaStrategy,
    DcaConfig,
    alpha_value,
    build_surrogate_network,
    run_dca,
    surrogate_g,
)
from cgmflow.flow import (
    build_flow_network,
    extract_tables,
    flow_cost,
    solve_capacity_scaling,
    solve_ssp,
)
from cgmflow.instances import (
    GridSpec,
    PotentialKind,
    gen_interpolation,
    gen_synthetic,
    sparsity,
)
from cgmflow.oracle import brute_force_flow, brute_force_map
from conftest import make_tiny_instance

TOL = 1e-9


@contextmanager
def gate(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL", flush=True)
        raise
    print(
        f"\nACCEPTANCE {num} ({name}): PASS [{time.perf_counter() - t0:.1f}s]",
        flush=True,
    )


@pytest.fixture(scope="module")
def tiny_solved():
    """Criterion-1 suite: 100 tiny instances solved three ways."""
    out = []
    for seed in range(100):
        inst = make_tiny_instance(seed)
        zeros = ContingencyTables.zeros(inst.n_steps, inst.n_states)
        net = build_surrogate_network(inst, zeros, AlphaStrategy.L)
        flow, ssp_cost, _ = solve_ssp(net)
        _, cs_cost, _ = solve_capacity_scaling(net)
        _, brute_cost = brute_force_flow(net)
        tables = extract_tables(net, flow)
        out.append((inst, flow, ssp_cost, cs_cost, brute_cost, tables))
    return out


def test_criterion_01_inner_solver_exactness(tiny_solved):
    with gate(1, "inner-solver exactness"):
        t0 = time.perf_counter()
        for _, _, ssp_cost, _, brute_cost, _ in tiny_solved:
            assert ssp_cost == pytest.approx(brute_cost, abs=TOL)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_02_flow_table_bijection(tiny_solved):
    with gate(2, "flow/table correspondence"):
        for inst, flow, _, _, _, tables in tiny_solved:
            true_net = build_flow_network(inst)
            cost = flow_cost(true_net, flow)
            value = objective(inst, tables)
            assert math.isfinite(value)
            assert value == pytest.approx(cost, abs=TOL)


def test_criterion_03_dca_descent_and_integrality():
    with gate(3, "descent and integral output"):
        t0 = time.perf_counter()
        kinds = [PotentialKind.UNIFORM, PotentialKind.DISTANCE_1D]
        combos = [(R, M) for R in (5, 10) for M in (10, 100)]
        for run in range(50):
            R, M = combos[run % len(combos)]
            inst = gen_synthetic(
                n_steps=5,
                n_states=R,
                population=M,
                kind=kinds[run % 2],
                seed=run,
            )
            tables, report = run_dca(inst)
            objs = report.objectives
            assert all(b <= a + TOL for a, b in zip(objs, objs[1:]))
            assert report.converged
            assert report.iterations < DcaConfig().max_iters
            assert np.issubdtype(tables.node.dtype, np.integer)
            assert validate_tables(inst, tables) == []
        assert time.perf_counter() - t0 < 120.0


def test_criterion_04_oracle_dominance():
    with gate(4, "never beats the exhaustive optimum"):
        matches = 0
        total = 50
        for seed in range(200, 200 + total):
            inst = make_tiny_instance(seed, max_steps=4, max_states=3, max_population=6)
            tables, _ = run_dca(inst)
            value = objective(inst, tables)
            _, best = brute_force_map(inst)
            assert value >= best - TOL
            if value <= best + TOL:
                matches += 1
        print(f"\n  exact-match rate: {matches}/{total}", flush=True)


@pytest.mark.slow
def test_criterion_05_dominates_baseline():
    with gate(5, "lower true objective than the relaxation"):
        t0 = time.perf_counter()
        cells = [
            (kind, R, M)
            for kind in (PotentialKind.UNIFORM, PotentialKind.DISTANCE_1D)
            for R in (10, 20)
            for M in (10, 100)
        ]
        for cell_index, (kind, R, M) in enumerate(cells):
            dca_vals, base_vals = [], []
            for k in range(10):
                inst = gen_synthetic(
                    n_steps=5,
                    n_states=R,
                    population=M,
                    kind=kind,
                    seed=1000 * cell_index + k,
                )
                tables, _ = run_dca(inst)
                dca_vals.append(objective(inst, tables))
                btab, _ = solve_approximate(inst)
                base_vals.append(objective_fractional(inst, btab))
            wins = sum(d <= b + TOL for d, b in zip(dca_vals, base_vals))
            print(
                f"\n  {kind.value} R={R} M={M}: mean {np.mean(dca_vals):.1f}"
                f" vs {np.mean(base_vals):.1f}, wins {wins}/10",
                flush=True,
            )
            assert np.mean(dca_vals) <= np.mean(base_vals) + TOL
            assert wins >= 8
        assert time.perf_counter() - t0 < 600.0


def test_criterion_06_sparsity_gap():
    with gate(6, "sparse tables where the relaxation is dense"):
        for kind, floor in (
            (PotentialKind.UNIFORM, 0.70),
            (PotentialKind.DISTANCE_1D, 0.70),
        ):
            inst = gen_synthetic(n_steps=5, n_states=20, population=100, kind=kind, seed=0)
            tables, _ = run_dca(inst)
            btab, _ = solve_approximate(inst)
            dca_sp = sparsity(tables)
            base_sp = sparsity(btab)
            print(f"\n  {kind.value}: {dca_sp:.3f} vs {base_sp:.3f}", flush=True)
            assert dca_sp >= floor
            assert base_sp <= 0.05


def test_criterion_07_curvature_and_surrogate_properties():
    with gate(7, "cost curvature and tangent bounds"):
        rng = np.random.default_rng(7)
        z_range = range(201)

        g_vals = [g_cost(z) for z in z_range]
        assert all(
            g_vals[z + 2] + g_vals[z] - 2 * g_vals[z + 1] <= 1e-12
            for z in range(199)
        )

        for _ in range(1000):
            phi = float(10.0 ** rng.uniform(-3, 3))
            inst_f = CgmInstance(
                n_steps=2,
                n_states=1,
                population=1,
                potentials=np.full((1, 1, 1), phi),
                observations=np.full((2, 1), np.nan),
                noise=((MISSING,), (MISSING,)),
            )
            f_vals = [f_cost(inst_f, 0, 0, 0, z) for z in z_range]
            assert all(
                f_vals[z + 2] + f_vals[z] - 2 * f_vals[z + 1] >= -1e-12
                for z in range(199)
            )

            pick = rng.integers(3)
            if pick == 0:
                noise, y = Gaussian(float(rng.uniform(0.1, 100.0))), float(
                    rng.uniform(0.0, 300.0)
                )
            elif pick == 1:
                noise, y = Poisson(), float(rng.integers(0, 201))
            else:
                noise, y = MISSING, math.nan
            inst_h = CgmInstance(
                n_steps=1,
                n_states=1,
                population=1,
                potentials=np.ones((0, 1, 1)),
                observations=np.array([[y]]),
                noise=((noise,),),
            )
            h_vals = [h_cost(inst_h, 0, 0, z) for z in z_range]
            assert all(
                h_vals[z + 2] + h_vals[z] - 2 * h_vals[z + 1] >= -1e-9
                for z in range(199)
                if math.isfinite(h_vals[z + 1])
            )

        for _ in range(1000):
            n_lin = int(rng.integers(0, 301))
            z = int(rng.integers(0, 301))
            for strategy in AlphaStrategy:
                alpha = alpha_value(strategy, n_lin)
                bound = surrogate_g(n_lin, alpha, z)
                assert bound >= -log_factorial(z) - TOL
                tight = surrogate_g(n_lin, alpha, n_lin)
                assert tight == pytest.approx(-log_factorial(n_lin), abs=TOL)


def test_criterion_08_solver_agreement(tiny_solved):
    with gate(8, "both exact solvers agree"):
        for _, _, ssp_cost, cs_cost, _, _ in tiny_solved:
            assert cs_cost == pytest.approx(ssp_cost, abs=TOL)


@pytest.mark.slow
def test_criterion_09_scaling_trends(tmp_path):
    with gate(9, "timing trends across population sizes"):
        out = tmp_path / "bench"
        code = cli_main(
            [
                "bench",
                "--populations", "10", "100", "2000",
                "--n-states", "10",
                "--n-steps", "5",
                "--methods", "ssp", "cs",
                "--repeats", "3",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        import csv as csv_mod

        with open(tmp_path / "bench.csv", newline="") as handle:
            rows = list(csv_mod.DictReader(handle))
        best = {}
        for row in rows:
            assert row["censored"] == "0"
            key = (row["method"], int(row["population"]))
            seconds = float(row["seconds"])
            best[key] = min(seconds, best.get(key, math.inf))
        populations = [10, 100, 2000]
        ssp_times = [best[("ssp", M)] for M in populations]
        cs_times = [best[("cs", M)] for M in populations]
        print(f"\n  ssp: {ssp_times}\n  cs:  {cs_times}", flush=True)
        rho, _ = spearmanr(populations, ssp_times)
        assert rho > 0
        assert ssp_times[0] < cs_times[0]  # small M favors one-unit augmentation
        assert ssp_times[-1] > cs_times[-1]  # large M favors scaled steps


def test_criterion_10_interpolation_pipeline():
    with gate(10, "grid interpolation end to end"):
        t0 = time.perf_counter()
        grid = GridSpec(5, 5)
        for M in (5, 20):
            first = [0] * 25
            last = [0] * 25
            first[0] = M
            last[24] = M
            inst = gen_interpolation(grid, first, last, n_steps=6)
            tables, _ = run_dca(inst)
            node = np.asarray(tables.node)
            assert np.issubdtype(node.dtype, np.integer)
            assert node.sum(axis=1).tolist() == [M] * 6
            btab, _ = solve_approximate(inst)
            bnode = np.asarray(btab.node)
            assert not np.allclose(bnode, np.rint(bnode), atol=1e-9)
            assert sparsity(btab) < sparsity(tables)
        assert time.perf_counter() - t0 < 60.0
