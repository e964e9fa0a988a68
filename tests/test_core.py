"""Cost decomposition, objective evaluation, and feasibility checks."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from cgmflow.core import (
    CgmInstance,
    ContingencyTables,
    FractionalTables,
    Gaussian,
    MISSING,
    Poisson,
    f_cost,
    g_cost,
    h_cost,
    h_noise_cost,
    is_feasible,
    log_factorial,
    log_factorial_array,
    objective,
    objective_fractional,
    validate_tables,
)
from cgmflow import baseline, core, flow
from cgmflow.baseline import approx_objective
from conftest import make_mixed_instance

INF = math.inf


def two_layer_instance(phi=1.0, noise=((MISSING,), (MISSING,)), y=np.nan, population=2):
    obs = np.full((2, 1), y, dtype=float)
    return CgmInstance(
        n_steps=2,
        n_states=1,
        population=population,
        potentials=np.full((1, 1, 1), phi),
        observations=obs,
        noise=noise,
    )


class TestLogFactorial:
    def test_known_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0
        assert log_factorial(5) == pytest.approx(4.787491742782046, abs=1e-14)

    def test_matches_lgamma(self):
        for z in range(0, 400, 7):
            assert log_factorial(z) == pytest.approx(math.lgamma(z + 1), rel=1e-13)

    def test_array_matches_scalar(self):
        z = np.array([[0, 3], [10, 57]])
        out = log_factorial_array(z)
        assert out.shape == z.shape
        for idx in np.ndindex(z.shape):
            assert out[idx] == log_factorial(int(z[idx]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


class TestCostTerms:
    def test_f_cost_values(self):
        inst = two_layer_instance(phi=1.0)
        assert f_cost(inst, 0, 0, 0, 3) == pytest.approx(1.791759469228055, abs=1e-14)
        inst_e = two_layer_instance(phi=math.e)
        assert f_cost(inst_e, 0, 0, 0, 1) == pytest.approx(-1.0, abs=1e-14)
        assert f_cost(inst, 0, 0, 0, 0) == 0.0

    def test_g_cost_values(self):
        assert g_cost(0) == 0.0
        assert g_cost(2) == pytest.approx(-0.6931471805599453, abs=1e-14)
        assert g_cost(4) == pytest.approx(-3.1780538303479453, abs=1e-14)
        assert g_cost(5) == pytest.approx(-4.787491742782046, abs=1e-14)

    def test_h_gaussian(self):
        assert h_noise_cost(Gaussian(2.0), 3.0, 1) == pytest.approx(1.0)
        assert h_noise_cost(Gaussian(50.0), 5.0, 5) == 0.0

    def test_h_poisson(self):
        assert h_noise_cost(Poisson(), 0.0, 3) == pytest.approx(3.0, abs=1e-14)
        assert h_noise_cost(Poisson(), 2.0, 0) == INF
        assert h_noise_cost(Poisson(), 0.0, 0) == 0.0
        expected = -2.0 * math.log(3) + 3 + math.log(2)
        assert h_noise_cost(Poisson(), 2.0, 3) == pytest.approx(expected, abs=1e-13)

    def test_h_missing_is_free(self):
        for z in (0, 1, 17):
            assert h_noise_cost(MISSING, math.nan, z) == 0.0

    def test_h_cost_bounds(self):
        inst = two_layer_instance()
        with pytest.raises(IndexError):
            h_cost(inst, 2, 0, 1)
        with pytest.raises(IndexError):
            h_cost(inst, -1, 0, 1)

    def test_negative_count_rejected(self):
        inst = two_layer_instance()
        with pytest.raises(ValueError):
            f_cost(inst, 0, 0, 0, -1)
        with pytest.raises(ValueError):
            h_noise_cost(Poisson(), 1.0, -2)


@settings(max_examples=200)
@given(
    phi=st.floats(min_value=1e-3, max_value=1e3),
    z=st.integers(min_value=0, max_value=198),
)
def test_f_discrete_convex(phi, z):
    lp = math.log(phi)

    def f(k):
        return log_factorial(k) - k * lp

    assert f(z + 2) + f(z) - 2 * f(z + 1) >= -1e-12


@settings(max_examples=200)
@given(z=st.integers(min_value=0, max_value=198))
def test_g_discrete_concave(z):
    assert g_cost(z + 2) + g_cost(z) - 2 * g_cost(z + 1) <= 1e-12


@settings(max_examples=200)
@given(
    var=st.floats(min_value=1e-2, max_value=1e3),
    y=st.floats(min_value=0.0, max_value=200.0),
    z=st.integers(min_value=0, max_value=198),
)
def test_h_gaussian_discrete_convex(var, y, z):
    model = Gaussian(var)
    second = (
        h_noise_cost(model, y, z + 2)
        + h_noise_cost(model, y, z)
        - 2 * h_noise_cost(model, y, z + 1)
    )
    assert second >= -1e-9


@settings(max_examples=200)
@given(
    y=st.integers(min_value=0, max_value=60),
    z=st.integers(min_value=0, max_value=198),
)
def test_h_poisson_discrete_convex(y, z):
    model = Poisson()
    a = h_noise_cost(model, y, z)
    b = h_noise_cost(model, y, z + 1)
    c = h_noise_cost(model, y, z + 2)
    if a == INF:
        assert True  # +inf endpoint satisfies the inequality vacuously
    else:
        assert c + a - 2 * b >= -1e-9


class TestObjective:
    def test_two_layer_known_value(self):
        inst = two_layer_instance()
        tables = ContingencyTables(
            node=np.array([[2], [2]]), edge=np.array([[[2]]])
        )
        assert objective(inst, tables) == pytest.approx(
            0.6931471805599453, abs=1e-14
        )

    def test_poisson_zero_forbidden(self):
        obs = np.array([[3.0], [np.nan]])
        inst = CgmInstance(
            n_steps=2,
            n_states=1,
            population=2,
            potentials=np.ones((1, 1, 1)),
            observations=obs,
            noise=((Poisson(),), (MISSING,)),
        )
        zero_first = ContingencyTables(
            node=np.array([[0], [2]]), edge=np.array([[[0]]])
        )
        assert objective(inst, zero_first) == INF

    def test_interior_concave_term_subtracted(self):
        # three layers, single state: objective = f + f - log(n2!) + 0
        inst = CgmInstance(
            n_steps=3,
            n_states=1,
            population=3,
            potentials=np.ones((2, 1, 1)),
            observations=np.full((3, 1), np.nan),
            noise=((MISSING,), (MISSING,), (MISSING,)),
        )
        tables = ContingencyTables(
            node=np.full((3, 1), 3), edge=np.full((2, 1, 1), 3)
        )
        expected = 2 * log_factorial(3) - log_factorial(3)
        assert objective(inst, tables) == pytest.approx(expected, abs=1e-13)

    def test_fractional_interpolates(self):
        inst = two_layer_instance()
        frac = FractionalTables(
            node=np.array([[2.5], [2.5]]), edge=np.array([[[2.5]]])
        )
        assert objective_fractional(inst, frac) == pytest.approx(
            1.2424533248940002, abs=1e-12
        )

    def test_fractional_matches_integral_on_integers(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            N, R = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            inst = CgmInstance(
                n_steps=N,
                n_states=R,
                population=10,
                potentials=rng.uniform(0.5, 4.0, size=(max(N - 1, 0), R, R)),
                observations=rng.uniform(0, 5, size=(N, R)),
                noise=tuple(
                    tuple(Gaussian(2.0) for _ in range(R)) for _ in range(N)
                ),
            )
            node = rng.integers(0, 6, size=(N, R))
            edge = rng.integers(0, 6, size=(max(N - 1, 0), R, R))
            exact = objective(inst, ContingencyTables(node=node, edge=edge))
            interp = objective_fractional(
                inst, FractionalTables(node=node.astype(float), edge=edge.astype(float))
            )
            assert interp == pytest.approx(exact, abs=1e-10)

    def test_fractional_rejects_negative(self):
        inst = two_layer_instance()
        frac = FractionalTables(node=np.array([[-0.5], [2.0]]), edge=np.array([[[1.0]]]))
        with pytest.raises(ValueError):
            objective_fractional(inst, frac)


class TestObjectiveValues:
    """Exact values of the three objectives, pinned with == on one mixed instance."""

    NODE = np.array([[2, 1, 2, 1], [1, 1, 3, 1], [3, 0, 2, 1]])
    EDGE = np.array([
        [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]],
    ])

    def test_pinned(self):
        inst = make_mixed_instance()
        tables = ContingencyTables(node=self.NODE, edge=self.EDGE)
        as_float = FractionalTables(node=self.NODE, edge=self.EDGE)
        # a quarter of the table mixed with the uniform one: M/R per node, M/R^2 per edge
        mixed = FractionalTables(
            node=0.25 * self.NODE + 0.75 * 1.5, edge=0.25 * self.EDGE + 0.75 * 0.375
        )
        assert objective(inst, tables) == -0.03238721045326365
        assert objective_fractional(inst, tables) == -0.03238721045326365
        assert objective_fractional(inst, mixed) == 1.2263822967584712
        assert approx_objective(inst, as_float) == -6.1501702461096475
        assert approx_objective(inst, mixed) == -16.802439792135928


def package_imports(module) -> set:
    """Sibling cgmflow modules a module imports anywhere in its source."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0 and not name.startswith("cgmflow"):
                continue
            name = name.removeprefix("cgmflow").strip(".")
            found.update([name] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.removeprefix("cgmflow.")
                for alias in node.names
                if alias.name.startswith("cgmflow.")
            )
    return {name.split(".")[0] for name in found}


def run_probe(probe: str) -> str:
    """stdout of probe run in a fresh interpreter that imports cgmflow from this checkout."""
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(Path(core.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip()


class TestLayering:
    def test_flow_and_core_import_no_later_layer(self):
        assert "core" in package_imports(flow)
        assert "core" in package_imports(baseline)
        assert "dca" not in package_imports(flow)
        assert not {"flow", "dca"} & package_imports(core)

    def test_package_import_loads_neither_scipy_optimize_nor_cli(self):
        probe = "import cgmflow, sys; print(sorted({'scipy.optimize', 'cgmflow.cli'} & set(sys.modules)))"
        assert run_probe(probe) == "[]"
        for path in sorted(Path(core.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                assert not [n for n in names if n.split(".")[:2] == ["scipy", "optimize"]], path

    def test_loading_generating_and_relaxing_load_no_scipy(self, tmp_path):
        probe = f"""
import sys
import cgmflow
inst = cgmflow.gen_synthetic(n_steps=3, n_states=3, population=6, seed=0)
cgmflow.save_instance(inst, {str(tmp_path / "inst.json")!r})
inst = cgmflow.load_instance({str(tmp_path / "inst.json")!r})
poisson = cgmflow.CgmInstance(
    n_steps=3, n_states=3, population=6, potentials=inst.potentials,
    observations=inst.observations, noise=((cgmflow.Poisson(),) * 3,) * 3,
)
for instance in (inst, poisson):
    tables, _ = cgmflow.solve_approximate(instance, max_iters=20)
    cgmflow.approx_objective(instance, tables)
    cgmflow.objective_fractional(instance, tables)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        assert run_probe(probe) == "[]"

    @pytest.mark.parametrize(
        "first_use",
        ["cgmflow.run_dca", "cgmflow.dca", "cgmflow.flow", "from cgmflow import solve_ssp"],
    )
    def test_exact_solvers_load_scipy_on_first_use(self, first_use):
        probe = f"""
import sys
import cgmflow
before = "scipy.sparse.csgraph" in sys.modules
{first_use}
after = "scipy.sparse.csgraph" in sys.modules
from cgmflow import InfeasibleError, solve_ssp
assert cgmflow.run_dca is cgmflow.dca.run_dca and cgmflow.DcaConfig is cgmflow.dca.DcaConfig
assert solve_ssp is cgmflow.flow.solve_ssp and InfeasibleError is cgmflow.flow.InfeasibleError
assert cgmflow.oracle.brute_force_map and cgmflow.cli.main
assert set(cgmflow.__all__) <= set(dir(cgmflow))
print(before, after)
"""
        assert run_probe(probe) == "False True"

    def test_unknown_names_raise_attribute_error(self):
        import cgmflow

        with pytest.raises(AttributeError, match="has no attribute 'solve_nothing'"):
            cgmflow.solve_nothing


class TestXlogy:
    def test_integer_pairs_match_scipy_bit_for_bit(self):
        grid = np.arange(0, 3001, 3, dtype=float)
        x, y = grid[:, None], grid[None, :]
        assert np.array_equal(core._xlogy(x, y).view(np.int64), xlogy(x, y).view(np.int64))
        z = np.arange(3001, dtype=float)
        assert np.array_equal(core._xlogy(z, z).view(np.int64), xlogy(z, z).view(np.int64))

    def test_fractional_inputs_within_one_ulp_of_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 100.0, size=100_000)
        y = np.concatenate([rng.uniform(0.0, 1e-6, 50_000), rng.uniform(0.0, 1e4, 50_000)])
        # numpy's ln and the C library's, which scipy calls, may round apart by one ulp
        ln_ours, ln_ref = core._xlogy(1.0, y), xlogy(1.0, y)
        assert (np.abs(ln_ours - ln_ref) <= np.spacing(np.abs(ln_ref))).all()
        # and the product can take up one more ulp in its own rounding
        ours, ref = core._xlogy(x, y), xlogy(x, y)
        assert (np.abs(ours - ref) <= 2 * np.spacing(np.abs(ref))).all()

    def test_edge_values_match_scipy(self):
        x = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 1.0, np.inf])
        y = np.array([0.0, 3.0, np.inf, np.nan, 0.0, -1.0, np.nan, np.inf, 1.0])
        # the suite turns warnings into errors, so this also checks that none is emitted
        np.testing.assert_array_equal(core._xlogy(x, y), xlogy(x, y))
        assert core._xlogy(0.0, 0.0) == 0.0
        assert core._xlogy(2.0, 0.0) == -INF

    def test_objectives_unchanged_from_scipy_xlogy(self, monkeypatch):
        inst = make_mixed_instance(12)
        rng = np.random.default_rng(1)
        nodes = [np.zeros((3, 4)), np.full((3, 4), 3.0), rng.uniform(0.0, 6.0, size=(3, 4))]
        tables = FractionalTables(
            node=np.array([[3.0, 0.0, 4.5, 4.5], [6.0, 0.0, 3.0, 3.0], [0.5, 1.5, 2.0, 8.0]]),
            edge=rng.uniform(0.0, 2.0, size=(2, 4, 4)),
        )
        ours = [core.observation_cost(*inst.observation_arrays, z) for z in nodes]
        approx = approx_objective(inst, tables)
        monkeypatch.setattr(core, "_xlogy", xlogy)
        monkeypatch.setattr(baseline, "_xlogy", xlogy)
        for got, z in zip(ours, nodes):
            assert np.array_equal(got, core.observation_cost(*inst.observation_arrays, z))
        assert approx == approx_objective(inst, tables)
        assert np.isinf(ours[0]).any()


class TestValidation:
    def feasible_pair(self):
        inst = CgmInstance(
            n_steps=3,
            n_states=2,
            population=4,
            potentials=np.ones((2, 2, 2)),
            observations=np.full((3, 2), np.nan),
            noise=tuple(tuple(MISSING for _ in range(2)) for _ in range(3)),
        )
        node = np.array([[2, 2], [3, 1], [0, 4]])
        edge = np.array(
            [[[2, 0], [1, 1]], [[0, 3], [0, 1]]]
        )
        return inst, ContingencyTables(node=node, edge=edge)

    def test_feasible_accepted(self):
        inst, tables = self.feasible_pair()
        assert validate_tables(inst, tables) == []
        assert is_feasible(inst, tables)

    def test_population_violation(self):
        inst, tables = self.feasible_pair()
        node = tables.node.copy()
        node[0, 0] += 1
        bad = ContingencyTables(node=node, edge=tables.edge)
        kinds = {v.kind for v in validate_tables(inst, bad)}
        assert "population" in kinds

    def test_marginal_violations(self):
        inst, tables = self.feasible_pair()
        edge = tables.edge.copy()
        edge[0, 0, 0] += 1
        edge[0, 1, 1] -= 1
        bad = ContingencyTables(node=tables.node, edge=edge)
        kinds = {v.kind for v in validate_tables(inst, bad)}
        assert "row-marginal" in kinds and "col-marginal" in kinds

    def test_negative_violation(self):
        inst, tables = self.feasible_pair()
        node = tables.node.copy()
        node[2, 0] -= 1
        node[2, 1] += 1
        bad = ContingencyTables(node=node, edge=tables.edge)
        kinds = {v.kind for v in validate_tables(inst, bad)}
        assert "negative" in kinds

    def test_fractional_tolerance(self):
        inst, tables = self.feasible_pair()
        node = tables.node.astype(float)
        node[0, 0] += 5e-7
        frac = FractionalTables(node=node, edge=tables.edge.astype(float))
        assert validate_tables(inst, frac) == []
        assert validate_tables(inst, frac, tol=1e-9) != []


class TestInstanceValidation:
    def test_rejects_nonpositive_potential(self):
        with pytest.raises(ValueError):
            CgmInstance(
                n_steps=2,
                n_states=1,
                population=1,
                potentials=np.zeros((1, 1, 1)),
                observations=np.full((2, 1), np.nan),
                noise=((MISSING,), (MISSING,)),
            )

    def test_rejects_infinite_potential(self):
        with pytest.raises(ValueError, match="finite"):
            CgmInstance(
                n_steps=2,
                n_states=2,
                population=1,
                potentials=np.array([[[1.0, math.inf], [1.0, 1.0]]]),
                observations=np.full((2, 2), np.nan),
                noise=tuple(tuple(MISSING for _ in range(2)) for _ in range(2)),
            )

    @pytest.mark.parametrize("model", [Gaussian(2.0), Poisson()])
    def test_rejects_infinite_observation(self, model):
        with pytest.raises(ValueError, match="finite"):
            CgmInstance(
                n_steps=1,
                n_states=2,
                population=1,
                potentials=np.ones((0, 2, 2)),
                observations=np.array([[1.0, math.inf]]),
                noise=((model, model),),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CgmInstance(
                n_steps=2,
                n_states=2,
                population=1,
                potentials=np.ones((1, 1, 1)),
                observations=np.full((2, 2), np.nan),
                noise=tuple(tuple(MISSING for _ in range(2)) for _ in range(2)),
            )

    def test_rejects_noninteger_poisson_observation(self):
        with pytest.raises(ValueError):
            CgmInstance(
                n_steps=1,
                n_states=1,
                population=1,
                potentials=np.ones((0, 1, 1)),
                observations=np.array([[2.5]]),
                noise=((Poisson(),),),
            )

    @staticmethod
    def sized(**sizes):
        sizes = {"n_steps": 2, "n_states": 1, "population": 2, **sizes}
        return CgmInstance(
            **sizes,
            potentials=np.ones((1, 1, 1)),
            observations=np.full((2, 1), np.nan),
            noise=((MISSING,), (MISSING,)),
        )

    @pytest.mark.parametrize("name", ["n_steps", "n_states", "population"])
    @pytest.mark.parametrize("bad", [5.5, 2.0, True, np.True_, "2", None], ids=repr)
    def test_rejects_non_integer_sizes(self, name, bad):
        # a population of 5.5 would give relaxed tables whose rows sum to
        # 5.5 and fail deep inside the flow network's integer capacities
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            self.sized(**{name: bad})

    def test_accepts_numpy_integers_as_int(self):
        inst = self.sized(n_steps=np.int64(2), n_states=np.int32(1), population=np.uint8(2))
        assert [type(v) for v in (inst.n_steps, inst.n_states, inst.population)] == [int] * 3
        assert (inst.n_steps, inst.n_states, inst.population) == (2, 1, 2)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            Gaussian(0.0)
        with pytest.raises(ValueError):
            Gaussian(-1.0)

    def test_arrays_readonly(self):
        inst = two_layer_instance()
        with pytest.raises(ValueError):
            inst.potentials[0, 0, 0] = 2.0
        tables = ContingencyTables(node=np.array([[2], [2]]), edge=np.array([[[2]]]))
        with pytest.raises(ValueError):
            tables.node[0, 0] = 5

    def test_tables_reject_true_fractions(self):
        with pytest.raises(ValueError):
            ContingencyTables(node=np.array([[1.5], [1.5]]), edge=np.array([[[1.5]]]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1.5])
    @pytest.mark.parametrize("where", ["node", "edge"])
    def test_tables_reject_non_integral_entries(self, where, bad):
        arrays = {
            "node": np.array([[2.0, 0.0], [1.0, 1.0]]),
            "edge": np.array([[[1.0, 1.0], [0.0, 0.0]]]),
        }
        arrays[where].flat[0] = bad
        with pytest.raises(ValueError, match=f"{where} table entries must be integers"):
            ContingencyTables(**arrays)

    @pytest.mark.parametrize("bad", [1e20, -1e20])
    def test_tables_reject_out_of_range_entries_without_a_warning(self, bad):
        with pytest.raises(ValueError, match="node table entries must be integers"):
            ContingencyTables(node=[[bad, 1.0]], edge=np.zeros((0, 2, 2)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["node", "edge"])
    def test_fractional_tables_reject_non_finite_entries(self, where, bad):
        inst = two_layer_instance()
        arrays = {"node": np.array([[2.0], [2.0]]), "edge": np.array([[[2.0]]])}
        arrays[where].flat[0] = bad
        with pytest.raises(ValueError, match=f"{where} table entries must be finite"):
            FractionalTables(**arrays)
        # tables of another type reach the relaxed objectives unchecked by a constructor
        for evaluate in (objective_fractional, approx_objective):
            with pytest.raises(ValueError, match=f"{where} table entries must be finite"):
                evaluate(inst, SimpleNamespace(**arrays))

    def test_tables_take_integral_floats_as_int64(self):
        tables = ContingencyTables(
            node=np.array([[2.0, 0.0], [1.0, 1.0]]), edge=[[[1.0, 1.0], [-0.0, 0.0]]]
        )
        assert tables.node.dtype == tables.edge.dtype == np.int64
        assert tables.node.tolist() == [[2, 0], [1, 1]]
        assert tables.edge.tolist() == [[[1, 1], [0, 0]]]
