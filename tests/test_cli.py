"""End-to-end runs of the command-line front end (in-process)."""

import csv
import json
import math
import signal
import time

import numpy as np
import pytest

from cgmflow.cli import RunManifest, main
from cgmflow.core import CgmInstance, Gaussian, MISSING, Poisson
from cgmflow.instances import gen_synthetic, load_instance, load_tables, save_instance


def free_instance_file(tmp_path, N=2, R=1, M=2):
    inst = CgmInstance(
        n_steps=N,
        n_states=R,
        population=M,
        potentials=np.ones((max(N - 1, 0), R, R)),
        observations=np.full((N, R), np.nan),
        noise=tuple(tuple(MISSING for _ in range(R)) for _ in range(N)),
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestRunManifest:
    def test_roundtrip_and_hash(self, tmp_path):
        payload = tmp_path / "input.bin"
        payload.write_bytes(b"counts")
        manifest = RunManifest(
            command="solve",
            args={"seed": 3},
            inputs={str(payload): "x" * 64},
            outputs=["a.json"],
            timings={"solve_seconds": 0.5},
            extra={"workers": 2},
        )
        path = manifest.write(tmp_path / "run")
        assert path == tmp_path / "run.manifest.json"
        doc = json.loads(path.read_text())
        assert doc == manifest.to_dict()
        assert doc["workers"] == 2  # extra keys land at the top level

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

    def test_dca_report_has_surrogates_and_changed_cells(self, tmp_path):
        inst = gen_synthetic(n_steps=4, n_states=3, population=30, seed=3)
        inst_path = tmp_path / "inst.json"
        save_instance(inst, inst_path)
        assert main(["solve", "--in", str(inst_path), "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        n = report["iterations"]
        assert n > 1
        assert len(report["surrogates"]) == len(report["changed_cells"]) == n
        for bound, value in zip(report["surrogates"], report["trajectory"]):
            assert bound >= value - 1e-9
        # the cold first solve computes every edge's cost row (45 edges at
        # N=4, R=3); warm ones re-cost at most the (N-2)*R interior node edges
        rows = [s["cost_rows"] for s in report["inner_stats"]]
        assert rows[0] == 45 and max(rows[1:]) <= 6

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

    def test_wrong_version_exit_code(self, tmp_path):
        inst_path = free_instance_file(tmp_path)
        doc = json.loads(inst_path.read_text())
        doc["format_version"] = 0
        inst_path.write_text(json.dumps(doc))
        assert main(["solve", "--in", str(inst_path), "--out", str(tmp_path / "r")]) == 4


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

    def test_env_worker_override_invalid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CGM_FLOW_THREADS", "lots")
        code = main(
            [
                "compare",
                "--n-states", "2",
                "--populations", "3",
                "--instances", "1",
                "--n-steps", "2",
                "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 4

    def test_env_worker_override_valid(self, tmp_path, monkeypatch):
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
        assert manifest["workers"] == 1


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

        # unbounded, this relaxation solve (N=5, R=100, M=100) runs for seconds;
        # the budget stops it and restores the timer and the signal handler
        handler = signal.getsignal(signal.SIGALRM)
        t0 = time.perf_counter()
        code = main(
            [
                "bench",
                "--populations", "100",
                "--n-states", "100",
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
