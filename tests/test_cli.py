"""End-to-end runs of the command-line front end (in-process)."""

import argparse
import csv
import hashlib
import json
import math
import os
import signal
import time

import numpy as np
import pytest

from cgmflow import cli
from cgmflow.baseline import solve_approximate
from cgmflow.cli import _write_manifest, main
from cgmflow.core import CgmInstance, Gaussian, MISSING, Poisson
from cgmflow.dca import run_dca
from cgmflow.flow import _ResidualState
from cgmflow.instances import (
    FormatError,
    gen_synthetic,
    load_instance,
    load_tables,
    save_instance,
)
from conftest import free_instance


def free_instance_file(tmp_path, N=2, R=1, M=2):
    path = tmp_path / "inst.json"
    save_instance(free_instance(N, R, M), path)
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestRunManifest:
    def test_roundtrip_and_hash(self, tmp_path):
        payload = tmp_path / "input.bin"
        payload.write_bytes(b"counts")
        args = argparse.Namespace(seed=3, out=tmp_path / "run", func=main)
        path = _write_manifest(
            "solve",
            args,
            tmp_path / "run",
            inputs=[payload],
            outputs=[tmp_path / "a.json"],
            timings={"solve_seconds": 0.5},
            extra={"workers": 2},
        )
        assert path == tmp_path / "run.manifest.json"
        doc = json.loads(path.read_text())
        assert doc == {
            "command": "solve",
            # func, the subcommand's handler, is left out
            "args": {"out": str(tmp_path / "run"), "seed": 3},
            "inputs": {str(payload): hashlib.sha256(b"counts").hexdigest()},
            "outputs": [str(tmp_path / "a.json")],
            "timings": {"solve_seconds": 0.5},
            "workers": 2,  # extra keys land at the top level
        }

    def test_every_command_writes_one(self, tmp_path):
        inst = free_instance_file(tmp_path)
        assert main(["solve", "--in", str(inst), "--out", str(tmp_path / "s")]) == 0
        doc = json.loads((tmp_path / "s.manifest.json").read_text())
        assert set(doc) >= {"command", "args", "inputs", "outputs", "timings"}
        digest = doc["inputs"][str(inst)]
        assert len(digest) == 64 and int(digest, 16) >= 0


class TestGenerate:
    def test_writes_instance_and_manifest(self, tmp_path):
        out = tmp_path / "synth.json"
        code = main(
            [
                "generate",
                "--n-steps", "3",
                "--n-states", "2",
                "--population", "8",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        inst = load_instance(out)
        assert (inst.n_steps, inst.n_states, inst.population) == (3, 2, 8)
        manifest = json.loads((tmp_path / "synth.json.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["args"]["seed"] == 5
        assert str(out) in manifest["outputs"]

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["generate", "--n-states", "3", "--population", "9", "--seed", "1"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_potential(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(
            [
                "generate",
                "--n-states", "6",
                "--population", "12",
                "--potential", "grid-gauss",
                "--grid", "3x2",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert load_instance(out).observations.sum(axis=1).tolist() == [12.0] * 5

    def test_rejects_nonpositive_dimension(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n-states", "0", "--population", "5",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_rejects_bad_grid_string(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n-states", "4", "--population", "5",
                  "--grid", "2by2", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_rejects_zero_grid_dimension(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n-states", "3", "--population", "5",
                  "--grid", "0x3", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "grid dimensions must be positive" in capsys.readouterr().err


class TestSolve:
    def test_dca_report_and_tables(self, tmp_path):
        inst_path = free_instance_file(tmp_path)
        out = tmp_path / "run"
        code = main(["solve", "--in", str(inst_path), "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["method"] == "dca"
        assert report["objective"] == pytest.approx(math.log(2), abs=1e-9)
        assert report["integral"] is True
        assert report["converged"] is True
        assert 0.0 <= report["sparsity"] <= 1.0
        tables = load_tables(tmp_path / "run.tables.json")
        assert tables.node.tolist() == [[2], [2]]
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert str(inst_path) in manifest["inputs"]

    def test_dca_report_has_surrogates_and_changed_cells(self, tmp_path, monkeypatch):
        inst = gen_synthetic(n_steps=4, n_states=3, population=30, seed=3)
        inst_path = tmp_path / "inst.json"
        save_instance(inst, inst_path)
        builds = []
        build = _ResidualState._build_arcs

        def recorded(state):
            builds.append(state.network.n_edges)
            build(state)

        monkeypatch.setattr(_ResidualState, "_build_arcs", recorded)
        assert main(["solve", "--in", str(inst_path), "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        n = report["iterations"]
        assert n > 1
        assert len(report["surrogates"]) == len(report["changed_cells"]) == n
        for bound, value in zip(report["surrogates"], report["trajectory"]):
            assert bound >= value - 1e-9
        # only the cold first solve builds residual arcs (45 edges at N=4,
        # R=3); each warm one takes over the arcs of the solve before it
        assert builds == [45]

    def test_oracle_matches_dca(self, tmp_path):
        inst_path = free_instance_file(tmp_path)
        assert main(["solve", "--in", str(inst_path), "--method", "oracle",
                     "--out", str(tmp_path / "oracle")]) == 0
        assert main(["solve", "--in", str(inst_path), "--method", "dca",
                     "--out", str(tmp_path / "dca")]) == 0
        o = json.loads((tmp_path / "oracle.report.json").read_text())
        d = json.loads((tmp_path / "dca.report.json").read_text())
        assert d["objective"] == pytest.approx(o["objective"], abs=1e-9)

    def test_baseline_reports_both_objectives(self, tmp_path):
        inst_path = free_instance_file(tmp_path)
        out = tmp_path / "base"
        assert main(["solve", "--in", str(inst_path), "--method", "baseline",
                     "--out", str(out)]) == 0
        report = json.loads((tmp_path / "base.report.json").read_text())
        assert report["objective"] == pytest.approx(2 * math.log(2) - 2, abs=1e-6)
        assert report["true_objective"] == pytest.approx(math.log(2), abs=1e-6)
        assert "duality_gap_rel" in report
        assert report["linesearch_evals"] == 0  # converged before any step

    def test_dump_network(self, tmp_path):
        inst_path = free_instance_file(tmp_path)
        assert main(["solve", "--in", str(inst_path), "--out", str(tmp_path / "r"),
                     "--dump-network", str(tmp_path / "net")]) == 0
        doc = json.loads((tmp_path / "net.json").read_text())
        assert doc["n_nodes"] == 6
        assert (tmp_path / "net.dot").read_text().startswith("digraph")

    def test_infeasible_exit_code(self, tmp_path):
        inst = CgmInstance(
            n_steps=1,
            n_states=2,
            population=1,
            potentials=np.ones((0, 2, 2)),
            observations=np.array([[5.0, 5.0]]),
            noise=((Poisson(), Poisson()),),
        )
        path = tmp_path / "bad.json"
        save_instance(inst, path)
        assert main(["solve", "--in", str(path), "--out", str(tmp_path / "r")]) == 3

    def test_infinite_observation_is_format_error(self, tmp_path):
        inst = CgmInstance(
            n_steps=2,
            n_states=2,
            population=3,
            potentials=np.ones((1, 2, 2)),
            observations=np.array([[1.0, 2.0], [np.nan, np.nan]]),
            noise=((Gaussian(2.0), Gaussian(2.0)), (MISSING, MISSING)),
        )
        path = tmp_path / "inf.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["observations"][0][1] = math.inf
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        assert main(["solve", "--in", str(path), "--out", str(tmp_path / "r")]) == 4

    def test_oracle_budget_exit_code(self, tmp_path):
        inst_path = free_instance_file(tmp_path, N=3, R=2, M=4)
        assert main(["solve", "--in", str(inst_path), "--method", "oracle",
                     "--budget", "2", "--out", str(tmp_path / "r")]) == 2

    def test_missing_input_exit_code(self, tmp_path):
        assert main(["solve", "--in", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "r")]) == 4

    def test_corrupt_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--in", str(bad), "--out", str(tmp_path / "r")]) == 4

    @pytest.mark.parametrize(
        "where, value",
        [
            (("n_states",), "two"),
            (("observations", 0, 0), "many"),
            (("potentials", 0, 0), [1.0]),
            (("noise", 0, 0, "var"), "wide"),
            (("noise", 0), 5),
            (("n_steps",), 5.7),
            (("population",), 20.9),
            (("observations", 0, 0), "4"),
            (("observations", 0, 0), True),
            (("potentials", 0, 0, 1), True),
            (("potentials", 0, 0, 1), "2"),
            (("noise", 0, 0, "var"), "2.5"),
        ],
        ids=["n_states", "observation", "ragged", "var", "noise_row", "n_steps", "population",
             "observation_numeric_string", "observation_bool", "potential_bool",
             "potential_numeric_string", "var_numeric_string"],
    )
    def test_malformed_instance_exit_code(self, tmp_path, where, value):
        path = tmp_path / "inst.json"
        save_instance(gen_synthetic(5, 2, 20, seed=0), path)
        doc = json.loads(path.read_text())
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_instance(path)
        assert main(["solve", "--in", str(path), "--out", str(tmp_path / "r")]) == 4

    def test_wrong_version_exit_code(self, tmp_path):
        inst_path = free_instance_file(tmp_path)
        doc = json.loads(inst_path.read_text())
        doc["format_version"] = 0
        inst_path.write_text(json.dumps(doc))
        assert main(["solve", "--in", str(inst_path), "--out", str(tmp_path / "r")]) == 4


def without_wall_times(doc):
    if isinstance(doc, dict):
        return {k: without_wall_times(v) for k, v in doc.items() if k != "wall_time"}
    if isinstance(doc, list):
        return [without_wall_times(v) for v in doc]
    return doc


class TestReportSchema:
    """solve writes each solver report's to_dict(); compare reads the same solve."""

    GENERATE = ["generate", "--n-steps", "4", "--n-states", "3", "--population", "12",
                "--potential", "distance", "--seed", "5"]

    def solve(self, tmp_path, method):
        inst_path = tmp_path / "inst.json"
        assert main(self.GENERATE + ["--out", str(inst_path)]) == 0
        # solve's defaults are the library's, which compare runs
        assert main(["solve", "--in", str(inst_path), "--method", method,
                     "--out", str(tmp_path / method)]) == 0
        report = json.loads((tmp_path / f"{method}.report.json").read_text())
        return load_instance(inst_path), report

    def test_dca_report_is_to_dict(self, tmp_path):
        inst, report = self.solve(tmp_path, "dca")
        doc = without_wall_times(run_dca(inst)[1].to_dict())
        assert set(doc) == {"trajectory", "surrogates", "changed_cells", "iterations",
                            "converged", "strategy", "inner_stats"}
        assert without_wall_times({k: report[k] for k in doc}) == doc
        assert "wall_time" in report

    def test_baseline_report_is_to_dict(self, tmp_path):
        inst, report = self.solve(tmp_path, "baseline")
        doc = without_wall_times(solve_approximate(inst)[1].to_dict())
        assert set(doc) == {"trajectory", "duality_gap", "duality_gap_rel", "iterations",
                            "converged", "tol", "linesearch_evals"}
        assert {k: report[k] for k in doc} == doc
        assert "wall_time" in report

    def test_compare_objective_matches_solve(self, tmp_path):
        _, dca = self.solve(tmp_path, "dca")
        _, relaxed = self.solve(tmp_path, "baseline")
        assert main(["compare", "--n-states", "3", "--populations", "12",
                     "--potentials", "distance", "--instances", "1", "--n-steps", "4",
                     "--seed", "5", "--workers", "1", "--out", str(tmp_path / "cmp")]) == 0
        rows = {row["method"]: row for row in read_csv(tmp_path / "cmp.instances.csv")}
        assert rows["dca-L"]["objective"] == f"{dca['objective']:.12g}"
        assert rows["baseline"]["objective"] == f"{relaxed['true_objective']:.12g}"
        assert rows["baseline"]["iterations"] == str(relaxed["iterations"])


class TestCompare:
    def test_grid_outputs(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "--n-states", "2",
                "--populations", "4",
                "--potentials", "uniform",
                "--instances", "2",
                "--n-steps", "3",
                "--workers", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        detail = read_csv(tmp_path / "cmp.instances.csv")
        assert len(detail) == 2 * 4  # instances x methods
        methods = {row["method"] for row in detail}
        assert methods == {"dca-L", "dca-M", "dca-R", "baseline"}
        assert {row["seed"] for row in detail} == {"0", "1"}
        summary = read_csv(tmp_path / "cmp.summary.csv")
        assert len(summary) == 1
        row = summary[0]
        assert row["instances"] == "2"
        assert float(row["mean_objective_dca_L"]) <= float(
            row["mean_objective_baseline"]
        ) + 1e-9
        manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
        assert manifest["failed"] == []
        assert manifest["workers"] == 1

    def test_cell_seeding_formula(self, tmp_path):
        # second cell starts at seed + 1009
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "--n-states", "2",
                "--populations", "3", "4",
                "--potentials", "uniform",
                "--instances", "1",
                "--n-steps", "2",
                "--seed", "7",
                "--workers", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        detail = read_csv(tmp_path / "cmp.instances.csv")
        seeds = sorted({int(row["seed"]) for row in detail})
        assert seeds == [7, 7 + 1009]

    def test_failed_instance_aborts_its_cell(self, tmp_path, monkeypatch):
        real = cli.gen_synthetic

        def generate(**kwargs):
            if kwargs["seed"] == 1009 + 1:
                raise ValueError("boom")
            return real(**kwargs)

        monkeypatch.setattr(cli, "gen_synthetic", generate)
        code = main(
            [
                "compare",
                "--n-states", "2",
                "--populations", "3", "4",
                "--potentials", "uniform",
                "--instances", "2",
                "--n-steps", "2",
                "--workers", "1",
                "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 1
        manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
        assert manifest["failed"] == [
            {"cell": [2, 4, "uniform"], "seed": 1010, "error": "ValueError: boom"}
        ]
        detail = read_csv(tmp_path / "cmp.instances.csv")
        assert sorted({int(row["seed"]) for row in detail}) == [0, 1, 1009]
        summary = read_csv(tmp_path / "cmp.summary.csv")
        assert [(row["population"], row["instances"]) for row in summary] == [("3", "2")]

    def test_every_instance_failing_exits_one(self, tmp_path, monkeypatch):
        def generate(**kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "gen_synthetic", generate)
        code = main(
            [
                "compare",
                "--n-states", "2",
                "--populations", "3",
                "--potentials", "uniform",
                "--instances", "2",
                "--n-steps", "2",
                "--workers", "1",
                "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 1
        manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
        assert [failure["seed"] for failure in manifest["failed"]] == [0, 1]
        assert read_csv(tmp_path / "cmp.instances.csv") == []
        lines = (tmp_path / "cmp.summary.csv").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("potential,n_states,population,instances")

    def test_workers_default_to_all_cores(self, tmp_path, monkeypatch):
        # the environment sets no worker count
        monkeypatch.setenv("CGM_FLOW_THREADS", "1")
        code = main(
            [
                "compare",
                "--n-states", "2",
                "--populations", "3",
                "--potentials", "uniform",
                "--instances", "1",
                "--n-steps", "2",
                "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
        assert manifest["args"]["workers"] is None
        assert manifest["workers"] == os.cpu_count()

    def test_env_worker_override_invalid(self, tmp_path, monkeypatch, capsys):
        # an unparsable CGM_FLOW_THREADS no longer fails the run; a bad
        # --workers is a usage error
        monkeypatch.setenv("CGM_FLOW_THREADS", "lots")
        argv = [
            "compare",
            "--n-states", "2",
            "--populations", "3",
            "--potentials", "uniform",
            "--instances", "1",
            "--n-steps", "2",
            "--out", str(tmp_path / "cmp"),
        ]
        assert main(argv + ["--workers", "1"]) == 0
        for bad in ("lots", "0"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--workers", bad])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err

    def test_env_worker_override_valid(self, tmp_path, monkeypatch):
        # --workers, not the environment, sets the worker count
        monkeypatch.setenv("CGM_FLOW_THREADS", "1")
        code = main(
            [
                "compare",
                "--n-states", "2",
                "--populations", "3",
                "--potentials", "uniform",
                "--instances", "2",
                "--n-steps", "2",
                "--workers", "2",
                "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "cmp.manifest.json").read_text())
        assert manifest["args"]["workers"] == 2
        assert manifest["workers"] == 2


class TestInterpolate:
    def write_histograms(self, tmp_path, first="4 0", last="0 4"):
        f, l = tmp_path / "first.txt", tmp_path / "last.txt"
        f.write_text(first + "\n")
        l.write_text(last + "\n")
        return f, l

    def test_end_to_end(self, tmp_path):
        f, l = self.write_histograms(tmp_path)
        out = tmp_path / "interp"
        code = main(
            [
                "interpolate",
                "--grid", "2x1",
                "--first", str(f),
                "--last", str(l),
                "--n-steps", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        raw = read_csv(tmp_path / "interp.raw.csv")
        assert len(raw) == 6  # 3 layers x 2 cells
        by_layer = {}
        for row in raw:
            by_layer.setdefault(row["t"], 0.0)
            by_layer[row["t"]] += float(row["value"])
        assert all(v == pytest.approx(4.0) for v in by_layer.values())
        report = json.loads((tmp_path / "interp.report.json").read_text())
        assert report["integral"] is True
        n = report["iterations"]
        assert len(report["surrogates"]) == len(report["changed_cells"]) == n
        display = read_csv(tmp_path / "interp.display.csv")
        assert len(display) == 6

    def test_display_floor_zeroes_dust(self, tmp_path):
        f, l = self.write_histograms(tmp_path, "5 0", "0 5")
        out = tmp_path / "interp"
        code = main(
            [
                "interpolate",
                "--grid", "2x1",
                "--first", str(f),
                "--last", str(l),
                "--n-steps", "4",
                "--method", "baseline",
                "--out", str(out),
            ]
        )
        assert code == 0
        raw = {(r["t"], r["i"]): float(r["value"]) for r in read_csv(out.parent / "interp.raw.csv")}
        shown = {(r["t"], r["i"]): float(r["value"]) for r in read_csv(out.parent / "interp.display.csv")}
        for key, value in raw.items():
            if value < 1e-2:
                assert shown[key] == 0.0
            else:
                assert shown[key] == pytest.approx(value, rel=1e-9)

    def test_histogram_sum_mismatch(self, tmp_path, capsys):
        f, l = self.write_histograms(tmp_path, "3 0", "0 4")
        code = main(
            ["interpolate", "--grid", "2x1", "--first", str(f), "--last", str(l),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "histogram sums differ" in capsys.readouterr().err

    def test_histogram_wrong_length(self, tmp_path):
        f, l = self.write_histograms(tmp_path, "1 2 3", "3 2 1")
        code = main(
            ["interpolate", "--grid", "2x1", "--first", str(f), "--last", str(l),
             "--out", str(tmp_path / "x")]
        )
        assert code == 4

    def test_histogram_not_integer(self, tmp_path):
        f, l = self.write_histograms(tmp_path, "2 half", "1 1")
        code = main(
            ["interpolate", "--grid", "2x1", "--first", str(f), "--last", str(l),
             "--out", str(tmp_path / "x")]
        )
        assert code == 4

    def test_comma_separated_histograms(self, tmp_path):
        f, l = self.write_histograms(tmp_path, "2,2", "1,3")
        code = main(
            ["interpolate", "--grid", "2x1", "--first", str(f), "--last", str(l),
             "--n-steps", "2", "--out", str(tmp_path / "ok")]
        )
        assert code == 0


class TestBench:
    def test_population_sweep(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--populations", "3", "6",
                "--n-states", "2",
                "--n-steps", "2",
                "--methods", "ssp", "cs",
                "--repeats", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "bench.csv")
        assert len(rows) == 2 * 2 * 2  # points x methods x repeats
        assert {row["sweep"] for row in rows} == {"population"}
        assert {row["population"] for row in rows} == {"3", "6"}
        assert all(row["censored"] == "0" for row in rows)
        assert all(float(row["seconds"]) >= 0 for row in rows)

    def test_states_sweep(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--states-sweep", "2", "3",
                "--population", "4",
                "--n-steps", "2",
                "--methods", "ssp",
                "--repeats", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "bench.csv")
        assert {row["n_states"] for row in rows} == {"2", "3"}
        assert {row["sweep"] for row in rows} == {"n_states"}

    def test_dca_and_baseline_points(self, tmp_path):
        code = main(
            [
                "bench",
                "--populations", "5",
                "--n-states", "3",
                "--n-steps", "3",
                "--methods", "dca", "baseline",
                "--repeats", "1",
                "--out", str(tmp_path / "bench"),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "bench.csv")
        assert [row["method"] for row in rows] == ["dca", "baseline"]
        assert all(row["censored"] == "0" for row in rows)
        assert all(float(row["seconds"]) > 0 for row in rows)

    def test_point_returning_past_its_budget_is_censored(self, tmp_path, monkeypatch):
        # a point can finish past the budget before the timer fires
        monkeypatch.setattr(cli, "_bench_point", lambda instance, method: 1.5)
        code = main(
            [
                "bench",
                "--populations", "5",
                "--n-states", "2",
                "--n-steps", "2",
                "--methods", "ssp",
                "--repeats", "3",
                "--timeout-sec", "0.5",
                "--out", str(tmp_path / "bench"),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "bench.csv")
        assert len(rows) == 1  # the remaining repeats are skipped
        assert rows[0]["censored"] == "1"
        assert float(rows[0]["seconds"]) == 0.5

    def test_empty_sweep_is_usage_error(self, tmp_path, capsys):
        code = main(["bench", "--out", str(tmp_path / "bench")])
        assert code == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_timeout_censors_and_skips_repeats(self, tmp_path):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--populations", "5",
                "--n-states", "2",
                "--n-steps", "2",
                "--methods", "ssp",
                "--repeats", "4",
                "--timeout-sec", "1e-9",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "bench.csv")
        assert len(rows) == 1  # first repeat censored, rest skipped
        assert rows[0]["censored"] == "1"

        # unbounded, this relaxation solve (N=5, R=200, M=100) runs for seconds;
        # the budget stops it and restores the timer and the signal handler
        handler = signal.getsignal(signal.SIGALRM)
        t0 = time.perf_counter()
        code = main(
            [
                "bench",
                "--populations", "100",
                "--n-states", "200",
                "--n-steps", "5",
                "--methods", "baseline",
                "--repeats", "3",
                "--timeout-sec", "0.3",
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 1.5
        rows = read_csv(tmp_path / "bench.csv")
        assert len(rows) == 1
        assert rows[0]["censored"] == "1"
        assert float(rows[0]["seconds"]) == pytest.approx(0.3)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler
