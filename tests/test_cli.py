import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import hierwalk as hw
import hierwalk.cli as cli
from hierwalk.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

P2_GRAPH = {"vertices": 2, "edges": [[0, 1]]}
C3_GRAPH = {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
LOOP_GRAPH = {"vertices": 1, "edges": [[0, 0]]}
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def kbar_scenario(times, psi_locals=None, mode="kbar"):
    return {
        "model": {"q": [0.5, 0.5], "locals": [P2_GRAPH, P2_GRAPH]},
        "mode": mode,
        "psi_H": [[INV_SQRT2, 0.0], [0.0, INV_SQRT2]],
        "psi_locals": psi_locals or [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "times": times,
    }


def write_scenario(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_time_zero_rows_are_product_law(self, tmp_path):
        scen = write_scenario(tmp_path, kbar_scenario([0.0]))
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 0
        header, rows = read_csv(tmp_path / "out" / "distributions.csv")
        assert header == ["k_0", "k_1", "t", "probability"]
        table = {(r[0], r[1]): float(r[3]) for r in rows}
        assert table[("0", "0")] == pytest.approx(1.0, abs=1e-15)
        assert table[("0", "1")] == 0.0
        assert table[("1", "1")] == 0.0

    def test_row_count_is_grid_times_positions(self, tmp_path):
        scen = write_scenario(tmp_path, kbar_scenario([0.0, 0.5, 1.0]))
        main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")])
        _, rows = read_csv(tmp_path / "out" / "distributions.csv")
        assert len(rows) == 3 * 4

    def test_d0_matches_single_walk(self, tmp_path):
        scenario = {
            "model": {"global": LOOP_GRAPH, "locals": [P2_GRAPH]},
            "mode": "general",
            "psi_H": [[1.0, 0.0]],
            "psi_locals": [[[1.0, 0.0], [0.0, 0.0]]],
            "times": [0.8],
        }
        scen = write_scenario(tmp_path, scenario)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 0
        _, rows = read_csv(tmp_path / "out" / "distributions.csv")
        got = {r[0]: float(r[2]) for r in rows}
        expected = hw.single_ctqw_distribution(hw.path_graph(2), hw.vertex_state(2, 0), 0.8)
        assert got["0"] == pytest.approx(expected[0], abs=1e-12)
        assert got["1"] == pytest.approx(expected[1], abs=1e-12)

    def test_missing_scenario_exits_2_without_output(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()
        assert "error" in capsys.readouterr().err

    def test_repeated_runs_byte_identical(self, tmp_path):
        scen = write_scenario(tmp_path, kbar_scenario([0.0, 0.7, float(np.pi)]))
        main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "a")])
        main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "distributions.csv").read_bytes() == \
            (tmp_path / "b" / "distributions.csv").read_bytes()

    def test_report_written(self, tmp_path):
        scen = write_scenario(tmp_path, kbar_scenario([0.0, 1.0]))
        main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["rows"] == 8
        assert all(t["normalization_defect"] <= 1e-9 for t in report["times"])

    @pytest.mark.parametrize("mode", ["kbar", "general"])
    def test_report_stage_times(self, tmp_path, mode):
        scen = write_scenario(tmp_path, kbar_scenario([0.0, 1.0], mode=mode))
        main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["stages"]) == {"laws", "write"}
        assert all(s >= 0.0 for s in report["stages"].values())
        assert report["wall_seconds"] >= 0.0

    def test_corrupted_transition_named(self, tmp_path, capsys):
        bad = {
            "model": {
                "q": [0.5, 0.5],
                "locals": [
                    {"vertices": 2, "edges": [[0, 1]],
                     "transition": [[0.0, 1.01], [1.0, 0.0]]},
                    P2_GRAPH,
                ],
            },
            "mode": "kbar",
            "psi_H": [[1.0, 0.0], [0.0, 0.0]],
            "psi_locals": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "times": [0.0],
        }
        scen = write_scenario(tmp_path, bad)
        rc = main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "row-stochastic" in capsys.readouterr().err

    def test_slightly_denormalized_state_warns(self, tmp_path, capsys):
        data = kbar_scenario([0.0])
        data["psi_H"] = [[INV_SQRT2 + 1e-8, 0.0], [0.0, INV_SQRT2]]
        scen = write_scenario(tmp_path, data)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 0
        assert "normalized" in capsys.readouterr().err

    def test_badly_denormalized_state_rejected(self, tmp_path):
        data = kbar_scenario([0.0])
        data["psi_H"] = [[1.0, 0.0], [1.0, 0.0]]
        scen = write_scenario(tmp_path, data)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 2

    def test_kbar_mode_requires_jump_structure(self, tmp_path, capsys):
        data = kbar_scenario([0.0])
        data["model"] = {"global": P2_GRAPH, "locals": [P2_GRAPH, P2_GRAPH]}
        scen = write_scenario(tmp_path, data)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 2
        assert "loopy-complete" in capsys.readouterr().err

    def test_general_mode_matches_kbar_mode(self, tmp_path):
        times = [0.7]
        a = write_scenario(tmp_path, kbar_scenario(times, mode="kbar"), "a.json")
        b = write_scenario(tmp_path, kbar_scenario(times, mode="general"), "b.json")
        main(["simulate", "--scenario", str(a), "--out-dir", str(tmp_path / "a")])
        main(["simulate", "--scenario", str(b), "--out-dir", str(tmp_path / "b")])
        _, rows_a = read_csv(tmp_path / "a" / "distributions.csv")
        _, rows_b = read_csv(tmp_path / "b" / "distributions.csv")
        for ra, rb in zip(rows_a, rows_b):
            assert float(ra[3]) == pytest.approx(float(rb[3]), abs=1e-9)


class TestBadScalars:
    """Unusable scalar fields are validation failures (exit 2), not tracebacks."""

    def run(self, tmp_path, capsys, **fields):
        data = kbar_scenario([0.0])
        data.update(fields)
        scen = write_scenario(tmp_path, data)
        rc = main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_numeric_time(self, tmp_path, capsys):
        self.run(tmp_path, capsys, times=[0.0, "soon"])

    def test_scalar_times(self, tmp_path, capsys):
        self.run(tmp_path, capsys, times=0.5)

    def test_non_numeric_p(self, tmp_path, capsys):
        self.run(tmp_path, capsys, p="half")

    def test_non_numeric_tol(self, tmp_path, capsys):
        self.run(tmp_path, capsys, tol=[1e-9])

    @pytest.mark.parametrize("source", ["flag", "json"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_nonfinite_or_negative_tol(self, tmp_path, capsys, tol, source):
        # NaN or inf would turn every kbar tuple "uniform"; a negative tol would misreport weights
        data = json.loads((REPO_ROOT / "scenarios" / "reference.json").read_text())
        flags = ["--tol", tol] if source == "flag" else []
        if source == "json":
            data["tol"] = float(tol)
        scen = write_scenario(tmp_path, data)
        rc = main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out"),
                   *flags])
        assert rc == 2
        assert "tol must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVerify:
    def test_all_suites_pass_on_reference(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, kbar_scenario([0.0, 1.0]))
        rc = main(["verify", "--scenario", str(scen), "--suite", "all"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "hdtrw:eigen-residual" in names
        assert "hctrw:spectral-reconstruction" in names
        assert "ctqw:spectral-vs-dense" in names
        assert "joint:consistency-chain" in names
        assert "oracle:series-vs-eigh" in names

    def test_perturbed_held_spectrum_fails_spectral_reconstruction(self, tmp_path, capsys,
                                                                   monkeypatch):
        """The builder and the reconstruction both read the held local spectra;
        only the oracle's own Taylor semigroups notice when one is wrong."""
        build_model = cli.hierarchical_model

        def perturbed(global_graph, local_graphs):
            model = build_model(global_graph, local_graphs)
            loc = model.locals[0]
            values = loc.spectrum.values.copy()
            values[np.argmin(values)] += 1e-3  # lambda = 1 stays, so rows still sum to 1
            spectrum = hw.TransitionSpectrum(values, loc.spectrum.right_vectors,
                                             loc.spectrum.left_vectors)
            return dataclasses.replace(
                model, locals=(dataclasses.replace(loc, spectrum=spectrum), *model.locals[1:]))

        monkeypatch.setattr(cli, "hierarchical_model", perturbed)
        scen = write_scenario(tmp_path, kbar_scenario([0.0]))
        rc = main(["verify", "--scenario", str(scen), "--suite", "evolution"])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert rc == 3
        assert not checks["hctrw:spectral-reconstruction"]["passed"]
        assert checks["hctrw:row-stochastic"]["passed"]
        # a builder-vs-reconstruction comparison would not have seen it
        model = perturbed(hw.kbar_graph([0.5, 0.5]), [hw.path_graph(2), hw.path_graph(2)])
        times = np.full(model.branching, 1.0)
        np.testing.assert_allclose(hw.build_hctrw(model, times),
                                   hw.reconstruct_hctrw(model, hw.hctrw_spectral(model, times)),
                                   rtol=0, atol=1e-12)

    def test_report_file_written(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, kbar_scenario([0.0]))
        rc = main(["verify", "--scenario", str(scen), "--suite", "spectra",
                   "--out-dir", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == 0
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert all(c["passed"] for c in report["checks"])

    def test_source_convention_accepted(self, tmp_path, capsys):
        scen = write_scenario(tmp_path, kbar_scenario([0.0]))
        rc = main(["verify", "--scenario", str(scen), "--suite", "evolution",
                   "--selection-convention", "source"])
        capsys.readouterr()
        assert rc == 0


class TestSpectra:
    def test_reference_spectra(self, tmp_path, capsys):
        scenario = {
            "model": {"q": [0.5, 0.5], "locals": [P2_GRAPH, C3_GRAPH]},
            "mode": "kbar",
            "times": [0.0],
        }
        scen = write_scenario(tmp_path, scenario)
        assert main(["spectra", "--scenario", str(scen)]) == 0
        out = json.loads(capsys.readouterr().out)
        by_name = {g["name"]: g for g in out["graphs"]}
        np.testing.assert_allclose(by_name["local_0"]["values"], [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(by_name["local_1"]["values"], [0.0, 1.5, 1.5], atol=1e-12)
        assert [len(g) for g in by_name["local_1"]["groups"]] == [1, 2]
        # loopy-complete global Hamiltonian is rank-1 with trace 1
        np.testing.assert_allclose(by_name["global"]["values"], [0.0, 1.0], atol=1e-12)
        assert out["tuples"] is not None
        assert len(out["tuples"]) == 6

    def test_model_flag_without_scenario(self, tmp_path, capsys):
        model = {"q": [0.5, 0.5], "locals": [P2_GRAPH, P2_GRAPH]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["spectra", "--model", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {g["name"] for g in out["graphs"]} == {"global", "local_0", "local_1"}

    def test_scenario_references_model_file(self, tmp_path):
        (tmp_path / "model.json").write_text(json.dumps(
            {"q": [0.5, 0.5], "locals": [P2_GRAPH, P2_GRAPH]}))
        data = kbar_scenario([0.0])
        data["model"] = "model.json"
        scen = write_scenario(tmp_path, data)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 0

    def test_p_field_reports_mixture_deviation(self, tmp_path):
        data = kbar_scenario([0.7])
        data["p"] = 0.5
        scen = write_scenario(tmp_path, data)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "mixture_deviation" in report["times"][0]

    def test_p_field_with_varying_overlaps_exits_3(self, tmp_path, capsys):
        data = kbar_scenario([0.0, 0.7, 2.0])
        data["psi_H"] = [[1.0, 0.0], [0.0, 0.0]]
        data["p"] = 0.5
        scen = write_scenario(tmp_path, data)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 3
        assert "squared overlaps spread" in capsys.readouterr().err
        assert not (tmp_path / "out" / "distributions.csv").exists()

    def test_shipped_reference_scenario(self, tmp_path, capsys):
        scen = REPO_ROOT / "scenarios" / "reference.json"
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["verify", "--scenario", str(scen), "--suite", "all"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]

    def test_cap_omits_tuples(self, tmp_path, capsys):
        scenario = {
            "model": {"q": [0.5, 0.5], "locals": [P2_GRAPH, P2_GRAPH]},
            "times": [0.0],
        }
        scen = write_scenario(tmp_path, scenario)
        assert main(["spectra", "--scenario", str(scen), "--cap", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tuples"] is None
        assert "notice" in out

    def test_tol_regroups_graph_spectra(self, tmp_path, capsys):
        scenario = {
            "model": {"q": [0.5, 0.5], "locals": [P2_GRAPH, C3_GRAPH]},
            "times": [0.0],
        }
        scen = write_scenario(tmp_path, scenario)
        assert main(["spectra", "--scenario", str(scen), "--tol", "2.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        by_name = {g["name"]: g for g in out["graphs"]}
        assert by_name["local_1"]["groups"] == [[0, 1, 2]]
