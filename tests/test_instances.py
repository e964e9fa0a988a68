"""Instance generators, sparsity, and on-disk formats."""

import json
import math

import numpy as np
import pytest

from cgmflow.core import (
    ContingencyTables,
    FractionalTables,
    Gaussian,
    MISSING,
    Poisson,
)
from cgmflow.instances import (
    FormatError,
    GridSpec,
    PotentialKind,
    gen_interpolation,
    gen_synthetic,
    infer_grid,
    load_instance,
    load_tables,
    save_instance,
    save_tables,
    sparsity,
)


class TestGridSpec:
    def test_cells_and_centers(self):
        g = GridSpec(width=3, height=2)
        assert g.n_cells == 6
        centers = g.centers()
        assert centers.shape == (6, 2)
        assert centers[0].tolist() == [0.0, 0.0]
        assert centers[4].tolist() == [1.0, 1.0]  # row-major: cell 4 is (1, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GridSpec(width=0, height=3)

    @pytest.mark.parametrize("name", ["width", "height"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.True_, "2", None, 0, -1], ids=repr)
    def test_rejects_a_side_that_is_not_a_positive_integer(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            GridSpec(**{"width": 2, "height": 2, name: bad})

    def test_stores_numpy_integer_sides_as_int(self):
        grid = GridSpec(np.int64(3), np.uint8(2))
        assert (type(grid.width), type(grid.height)) == (int, int)
        assert grid == GridSpec(3, 2)

    @pytest.mark.parametrize(
        "R,w,h", [(56, 8, 7), (25, 5, 5), (12, 4, 3), (7, 7, 1), (1, 1, 1)]
    )
    def test_infer_grid(self, R, w, h):
        assert infer_grid(R) == GridSpec(width=w, height=h)


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(4, 3, 20, seed=7)
        b = gen_synthetic(4, 3, 20, seed=7)
        assert np.array_equal(a.potentials, b.potentials)
        assert np.array_equal(a.observations, b.observations)
        c = gen_synthetic(4, 3, 20, seed=8)
        assert not np.array_equal(a.observations, c.observations)

    def test_uniform_ranges(self):
        inst = gen_synthetic(5, 4, 40, kind=PotentialKind.UNIFORM, seed=1)
        assert inst.potentials.shape == (4, 4, 4)
        assert np.array_equal(inst.potentials, np.rint(inst.potentials))
        assert inst.potentials.min() >= 1 and inst.potentials.max() <= 10
        top = 2 * (40 // 4)
        assert inst.observations.min() >= 1
        assert inst.observations.max() <= top
        assert all(
            isinstance(m, Gaussian) and m.var == 50.0
            for row in inst.noise
            for m in row
        )

    def test_tiny_population_observation_floor(self):
        inst = gen_synthetic(3, 5, 4, seed=2)  # floor(M/R) = 0
        assert np.array_equal(inst.observations, np.ones((3, 5)))

    def test_distance_potential_matrix(self):
        inst = gen_synthetic(3, 4, 10, kind=PotentialKind.DISTANCE_1D, seed=0)
        phi = inst.potentials[0]
        for i in range(4):
            for j in range(4):
                assert phi[i, j] == pytest.approx(1.0 / (1.0 + abs(i - j)))
        assert np.array_equal(inst.potentials[0], inst.potentials[1])

    @pytest.mark.parametrize(
        "kind", [PotentialKind.GRID_GAUSSIAN, PotentialKind.GRID_INVERSE_DISTANCE]
    )
    def test_grid_kinds_observation_sums(self, kind):
        inst = gen_synthetic(4, 6, 30, kind=kind, seed=3, grid=GridSpec(3, 2))
        assert inst.observations.sum(axis=1).tolist() == [30.0] * 4

    def test_grid_gaussian_potential(self):
        g = GridSpec(2, 2)
        inst = gen_synthetic(2, 4, 8, kind=PotentialKind.GRID_GAUSSIAN, grid=g, seed=0)
        phi = inst.potentials[0]
        assert phi[0, 0] == pytest.approx(1.0)
        assert phi[0, 1] == pytest.approx(math.exp(-1.0))  # adjacent cells
        assert phi[0, 3] == pytest.approx(math.exp(-2.0))  # diagonal

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            gen_synthetic(
                3, 6, 10, kind=PotentialKind.GRID_GAUSSIAN, grid=GridSpec(2, 2)
            )

    def test_string_kind_accepted(self):
        inst = gen_synthetic(2, 3, 6, kind="distance", seed=0)
        assert inst.potentials[0, 0, 1] == pytest.approx(0.5)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 3, 5)
        with pytest.raises(ValueError):
            gen_synthetic(2, 3, 0)

    @pytest.mark.parametrize("name", ["n_steps", "n_states", "population"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None, 0], ids=repr)
    def test_rejects_sizes_that_are_not_positive_integers(self, name, bad):
        # checked before any draw, so numpy never sees a float size
        sizes = {"n_steps": 3, "n_states": 3, "population": 6, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            gen_synthetic(**sizes)

    def test_accepts_numpy_integer_sizes(self):
        got = gen_synthetic(np.int64(3), np.int32(3), np.uint8(6), seed=4)
        want = gen_synthetic(3, 3, 6, seed=4)
        assert (got.n_steps, got.n_states, got.population) == (3, 3, 6)
        assert np.array_equal(got.potentials, want.potentials)
        assert np.array_equal(got.observations, want.observations)


class TestGenInterpolation:
    def test_structure(self):
        g = GridSpec(2, 2)
        inst = gen_interpolation(g, [5, 0, 0, 0], [0, 0, 0, 5], n_steps=4)
        assert inst.n_steps == 4
        assert inst.n_states == 4
        assert inst.population == 5
        assert inst.observations[0].tolist() == [5.0, 0.0, 0.0, 0.0]
        assert inst.observations[-1].tolist() == [0.0, 0.0, 0.0, 5.0]
        assert np.isnan(inst.observations[1]).all()
        for m in inst.noise[0]:
            assert isinstance(m, Gaussian)
            assert m.var == pytest.approx(0.1)  # 1 / (2 * precision)
        assert all(m is MISSING for m in inst.noise[1])
        assert all(m is MISSING for m in inst.noise[2])

    def test_potential_decays_with_distance(self):
        g = GridSpec(3, 1)
        inst = gen_interpolation(g, [2, 0, 0], [0, 0, 2], n_steps=3)
        phi = inst.potentials[0]
        assert phi[0, 0] == pytest.approx(1.0)
        assert phi[0, 1] == pytest.approx(math.exp(-1.0))
        assert phi[0, 2] == pytest.approx(math.exp(-4.0))

    def test_sum_mismatch(self):
        with pytest.raises(ValueError, match="histogram sums differ"):
            gen_interpolation(GridSpec(2, 1), [3, 0], [0, 4])

    def test_shape_and_value_checks(self):
        g = GridSpec(2, 1)
        with pytest.raises(ValueError):
            gen_interpolation(g, [3, 0, 0], [0, 3])
        with pytest.raises(ValueError):
            gen_interpolation(g, [-1, 4], [3, 0])
        with pytest.raises(ValueError):
            gen_interpolation(g, [3, 0], [0, 3], n_steps=1)
        with pytest.raises(ValueError):
            gen_interpolation(g, [0, 0], [0, 0])

    @pytest.mark.parametrize("bad", [3.0, 2.5, True, "3", None, 1, 0], ids=repr)
    def test_rejects_steps_that_are_not_an_integer_of_at_least_two(self, bad):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 2"):
            gen_interpolation(GridSpec(2, 1), [3, 0], [0, 3], n_steps=bad)

    def test_accepts_numpy_integer_steps(self):
        inst = gen_interpolation(GridSpec(2, 1), [3, 0], [0, 3], n_steps=np.int64(2))
        assert type(inst.n_steps) is int and inst.n_steps == 2


class TestSparsity:
    def test_extremes(self):
        zero = ContingencyTables.zeros(3, 2)
        assert sparsity(zero) == 1.0
        dense = FractionalTables(node=np.ones((3, 2)), edge=np.full((2, 2, 2), 0.5))
        assert sparsity(dense) == 0.0

    def test_threshold(self):
        tab = FractionalTables(
            node=np.ones((2, 2)), edge=np.array([[[0.5, 0.009], [0.011, 0.0]]])
        )
        assert sparsity(tab) == pytest.approx(0.5)
        assert sparsity(tab, threshold=0.5) == pytest.approx(1.0)

    def test_no_transitions(self):
        single = ContingencyTables(
            node=np.array([[3, 1]]), edge=np.zeros((0, 2, 2), dtype=np.int64)
        )
        assert sparsity(single) == 1.0


class TestInstanceIO:
    def test_roundtrip(self, tmp_path):
        inst = gen_synthetic(3, 2, 9, kind=PotentialKind.DISTANCE_1D, seed=5)
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        back = load_instance(p)
        assert back.n_steps == inst.n_steps
        assert back.population == inst.population
        assert np.array_equal(back.potentials, inst.potentials)
        assert np.array_equal(back.observations, inst.observations)
        assert back.noise == inst.noise

    def test_roundtrip_mixed_noise(self, tmp_path):
        inst = gen_interpolation(GridSpec(2, 1), [4, 0], [1, 3], n_steps=3)
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        back = load_instance(p)
        assert back.noise[1] == (MISSING, MISSING)
        assert isinstance(back.noise[0][0], Gaussian)
        assert np.isnan(back.observations[1]).all()

    def test_single_layer_roundtrip(self, tmp_path):
        # empty potentials serialize as [] and must regain their 3-D shape
        import cgmflow.core as core

        inst = core.CgmInstance(
            n_steps=1,
            n_states=2,
            population=4,
            potentials=np.ones((0, 2, 2)),
            observations=np.array([[3.0, 1.0]]),
            noise=((Gaussian(2.0), Gaussian(2.0)),),
        )
        p = tmp_path / "single.json"
        save_instance(inst, p)
        back = load_instance(p)
        assert back.potentials.shape == (0, 2, 2)

    def test_poisson_noise_roundtrip(self, tmp_path):
        import cgmflow.core as core

        inst = core.CgmInstance(
            n_steps=2,
            n_states=1,
            population=3,
            potentials=np.ones((1, 1, 1)),
            observations=np.array([[2.0], [1.0]]),
            noise=((Poisson(),), (Poisson(),)),
        )
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        assert load_instance(p).noise == inst.noise

    def test_deterministic_bytes(self, tmp_path):
        inst = gen_synthetic(2, 2, 5, seed=0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(inst, p1)
        save_instance(inst, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_field(self, tmp_path):
        inst = gen_synthetic(2, 2, 5, seed=0)
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        doc = json.loads(p.read_text())
        del doc["population"]
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="population"):
            load_instance(p)

    def test_bad_version(self, tmp_path):
        inst = gen_synthetic(2, 2, 5, seed=0)
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        doc = json.loads(p.read_text())
        doc["format_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version"):
            load_instance(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{nope")
        with pytest.raises(FormatError):
            load_instance(p)

    def test_invalid_payload_wrapped(self, tmp_path):
        inst = gen_synthetic(2, 2, 5, seed=0)
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        doc = json.loads(p.read_text())
        doc["potentials"][0][0][0] = -3.0
        p.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_instance(p)


class TestTablesIO:
    def test_integral_roundtrip(self, tmp_path):
        tab = ContingencyTables(
            node=np.array([[2, 1], [0, 3]]), edge=np.array([[[0, 2], [0, 1]]])
        )
        p = tmp_path / "t.json"
        save_tables(tab, p)
        back = load_tables(p)
        assert isinstance(back, ContingencyTables)
        assert back.same_values(tab)
        assert json.loads(p.read_text())["integral"] is True

    def test_fractional_roundtrip(self, tmp_path):
        tab = FractionalTables(
            node=np.array([[1.5, 1.5], [0.25, 2.75]]),
            edge=np.array([[[0.5, 1.0], [0.0, 1.5]]]),
        )
        p = tmp_path / "t.json"
        save_tables(tab, p)
        back = load_tables(p)
        assert isinstance(back, FractionalTables)
        assert np.allclose(back.node, tab.node)
        assert np.allclose(back.edge, tab.edge)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"format_version": 1, "node": [], "edge": []}))
        with pytest.raises(FormatError, match="integral"):
            load_tables(p)
