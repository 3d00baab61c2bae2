"""Command-line interface: subcommands, exit codes, report files."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fundlim as fl
from fundlim.bounds import ROUTES
from fundlim.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSATISFIED,
    EXIT_UNSTABLE,
    _resolve_sim_config,
    build_parser,
    main,
)


@pytest.fixture
def stable_plant(tmp_path):
    path = tmp_path / "stable_plant.json"
    path.write_text(json.dumps({"A": [[0.5]], "B": [1.0], "C": [1.0]}))
    return str(path)


@pytest.fixture
def unstable_plant(tmp_path):
    path = tmp_path / "unstable_plant.json"
    path.write_text(json.dumps({"A": [[2.0]], "B": [1.0], "C": [1.0]}))
    return str(path)


@pytest.fixture
def gauss_dist(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({"type": "iid_gaussian", "sigma": 1.0}))
    return str(path)


@pytest.fixture
def ar_dist(tmp_path):
    path = tmp_path / "ar.json"
    path.write_text(json.dumps({"type": "gauss_ar", "coeffs": [0.9], "innovation_std": 1.0}))
    return str(path)


@pytest.fixture
def nmp_unstable_plant(tmp_path):
    # (z - 2) / (z (z - 1.5)): an unstable pole at 1.5 and an NMP zero at 2.
    path = tmp_path / "nmp_unstable_plant.json"
    path.write_text(json.dumps({"A": [[1.5, 0.0], [1.0, 0.0]], "B": [1.0, 0.0], "C": [1.0, -2.0]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spectrum_csv(omega, values):
    return "".join(f"{float(w)!r},{float(s)!r}\n" for w, s in zip(omega, values))


def uniform_omega(n=64):
    return np.linspace(-math.pi, math.pi, n, endpoint=False)


def with_entry(array, index, value):
    array = np.array(array, dtype=float)
    array[index] = value
    return array


class TestAnalyze:
    def test_report_content(self, capsys, unstable_plant):
        code, out, _ = run_cli(capsys, "analyze", "--plant", unstable_plant)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["poles"] == [[2.0, 0.0]]
        assert payload["unstable_pole_product"] == pytest.approx(2.0)
        assert payload["manifest"]["command"] == "analyze"
        assert isinstance(payload["warnings"], list)

    def test_out_mirror(self, capsys, tmp_path, stable_plant):
        out_dir = tmp_path / "reports"
        code, out, _ = run_cli(capsys, "analyze", "--plant", stable_plant, "--out", str(out_dir))
        assert code == EXIT_OK
        mirrored = (out_dir / "analyze_report.json").read_text()
        assert json.loads(mirrored) == json.loads(out)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--plant", str(tmp_path / "nope.json"))
        assert code == EXIT_INPUT
        assert "fundlim:" in err

    def test_malformed_plant(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[1.0, 0.0]], "B": [1.0], "C": [1.0]}))
        code, _, err = run_cli(capsys, "analyze", "--plant", str(path))
        assert code == EXIT_INPUT
        assert "fundlim:" in err


class TestBound:
    def test_defaults_to_plant_free_without_plant(self, capsys, gauss_dist):
        code, out, _ = run_cli(capsys, "bound", "--dist", gauss_dist)
        assert code == EXIT_OK
        payload = json.loads(out)
        (report,) = payload["reports"]
        assert report["theorem"] == "T3"
        assert report["bound"] == pytest.approx(1.0, rel=1e-12)

    def test_defaults_to_lti_with_plant(self, capsys, gauss_dist, unstable_plant):
        code, out, _ = run_cli(capsys, "bound", "--dist", gauss_dist, "--plant", unstable_plant)
        assert code == EXIT_OK
        (report,) = json.loads(out)["reports"]
        assert report["theorem"] == "T1"
        assert report["bound"] == pytest.approx(2.0, rel=1e-12)

    def test_norm_order_list(self, capsys, gauss_dist, stable_plant):
        code, out, _ = run_cli(
            capsys, "bound", "--dist", gauss_dist, "--plant", stable_plant, "--p", "1,2,inf"
        )
        assert code == EXIT_OK
        reports = json.loads(out)["reports"]
        assert [r["p"] for r in reports] == [1.0, 2.0, "inf"]

    def test_order_where_p_times_e_overflows(self, capsys, gauss_dist, stable_plant):
        code, out, _ = run_cli(
            capsys, "bound", "--dist", gauss_dist, "--plant", stable_plant, "--p", "1e308"
        )
        assert code == EXIT_OK
        (report,) = json.loads(out)["reports"]
        assert report["factors"]["cp"] == 0.5

    def test_p2_route_pins_norm_order(self, capsys, gauss_dist, unstable_plant):
        code, out, _ = run_cli(
            capsys, "bound", "--dist", gauss_dist, "--plant", unstable_plant,
            "--theorem", "C2", "--p", "7",
        )
        assert code == EXIT_OK
        (report,) = json.loads(out)["reports"]
        assert report["p"] == 2.0
        assert report["variance_floor"] == pytest.approx(4.0, rel=1e-12)

    def test_spectral_route(self, capsys, ar_dist, stable_plant):
        code, out, _ = run_cli(
            capsys, "bound", "--dist", ar_dist, "--plant", stable_plant,
            "--theorem", "C4", "--p", "2", "--grid", "4096",
        )
        assert code == EXIT_OK
        (report,) = json.loads(out)["reports"]
        assert report["factors"]["szego_log_integral_bits"] == pytest.approx(0.0, abs=1e-10)
        assert report["variance_floor"] == pytest.approx(1.0, rel=1e-6)

    def test_prediction_floor_route(self, capsys, ar_dist, stable_plant):
        code, out, _ = run_cli(
            capsys, "bound", "--dist", ar_dist, "--plant", stable_plant, "--theorem", "KS"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["manifest"]["parameters"]["theorem"] == "KS"
        (report,) = payload["reports"]
        # One-step prediction floor of the AR spectrum: the innovation variance.
        assert report["variance_floor"] == pytest.approx(1.0, rel=1e-6)

    def test_plant_needing_theorem_without_plant(self, capsys, gauss_dist):
        code, _, err = run_cli(capsys, "bound", "--dist", gauss_dist, "--theorem", "T1")
        assert code == EXIT_INPUT
        assert "needs --plant" in err

    def test_bad_norm_order(self, capsys, gauss_dist):
        code, _, err = run_cli(capsys, "bound", "--dist", gauss_dist, "--p", "two")
        assert code == EXIT_INPUT
        assert "fundlim:" in err

    def test_unknown_theorem_is_a_parse_error(self, capsys, gauss_dist):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--dist", gauss_dist, "--theorem", "T9"])
        assert exc.value.code == 2

    def test_theorem_choices_are_the_route_table(self):
        (commands,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (theorem,) = [a for a in commands.choices["bound"]._actions if a.dest == "theorem"]
        assert theorem.choices == tuple(ROUTES)

    @pytest.mark.filterwarnings("ignore::fundlim.AnalysisWarning")
    @pytest.mark.parametrize("tag", tuple(ROUTES))
    def test_route_rows_match_library(self, capsys, ar_dist, nmp_unstable_plant, tag):
        code, out, _ = run_cli(
            capsys, "bound", "--dist", ar_dist, "--plant", nmp_unstable_plant,
            "--theorem", tag, "--p", "1,2,inf", "--grid", "1024",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["manifest"]["parameters"]["theorem"] == tag

        chars = fl.analyze_plant(fl.load_plant(nmp_unstable_plant))
        dist = fl.load_disturbance(ar_dist)
        ent = fl.entropy_summary(dist)

        def spectral(p):
            spectrum = dist.power_spectrum(1024)
            return fl.error_bound_spectral(p, chars, spectrum, dist.negentropy_rate())

        wrappers = {
            "T1": lambda p: fl.error_bound_lti(p, chars, ent),
            "T2": lambda p: fl.output_bound(p, chars, ent),
            "T3": lambda p: fl.error_bound_generic(p, ent),
            "C2": lambda p: fl.error_bound_p2(chars, ent),
            "C3": lambda p: fl.error_bound_pinf(chars, ent),
            "C4": spectral,
            "KS": spectral,
        }
        assert set(wrappers) == set(ROUTES)
        p_list = {"C2": [2.0], "C3": [math.inf], "KS": [2.0]}.get(tag, [1.0, 2.0, math.inf])
        assert payload["reports"] == [wrappers[tag](p).to_dict() for p in p_list]


class TestVerify:
    def test_satisfied_round_trip(self, capsys, tmp_path, stable_plant, gauss_dist):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--controller", "zero", "--horizon", "60", "--traj", "5000",
            "--seed", "1", "--p", "2", "--out", str(out_dir),
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["stable"] is True
        (row,) = payload["results"]
        assert row["satisfied"] is True
        assert row["ratio"] == pytest.approx(1.0, abs=0.05)
        assert row["theorem"] == "T1"
        assert row["factors"]["plant_factor"] == 1.0

        assert json.loads((out_dir / "verify_report.json").read_text()) == payload
        csv_lines = (out_dir / "verify_norms.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "k,e_p2,y_p2"
        assert len(csv_lines) == 61

    @pytest.mark.parametrize(
        "p_flag, header",
        [
            ("inf", "k,e_pinf,y_pinf"),
            ("1,2,4,inf", "k,e_p1,y_p1,e_p2,y_p2,e_p4,y_p4,e_pinf,y_pinf"),
        ],
        ids=["inf", "1,2,4,inf"],
    )
    def test_norms_csv_has_a_column_pair_per_order(
        self, capsys, tmp_path, stable_plant, gauss_dist, p_flag, header
    ):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--horizon", "30", "--traj", "300", "--seed", "2", "--p", p_flag,
            "--out", str(out_dir),
        )
        assert code in (EXIT_OK, EXIT_UNSATISFIED)
        cfg = fl.SimulationConfig(
            horizon=30, trajectories=300, seed=2, p_list=[float(p) for p in p_flag.split(",")]
        )
        plant = fl.StateSpaceModel(A=[[0.5]], B=[1.0], C=[1.0])
        result = fl.run_closed_loop(plant, fl.ZeroController(), fl.GaussianIID(1.0), cfg)
        lines = (out_dir / "verify_norms.csv").read_text().splitlines()
        assert lines[0] == header
        columns = list(zip(*(line.split(",") for line in lines[1:])))
        assert columns[0] == tuple(str(k) for k in range(30))
        want = [norms[p] for p in cfg.p_list for norms in (result.error_norms, result.output_norms)]
        assert len(columns) == 1 + len(want)
        for column, norms in zip(columns[1:], want):
            assert column == tuple(repr(float(v)) for v in norms)

    @pytest.mark.parametrize("shape", [300.0, 1e300, 1e308])
    def test_high_order_gengauss_is_certified(self, capsys, tmp_path, stable_plant, shape):
        # At 1e300 float64 cannot tell the density from the box on [-1, 1];
        # at 1e308, p e overflows.
        dist = tmp_path / "gengauss.json"
        dist.write_text(json.dumps({"type": "iid_gengauss", "shape": shape, "lp_norm": 1.0}))
        code, out, _ = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", str(dist),
            "--horizon", "60", "--traj", "2000", "--seed", "1", "--p", "2,inf",
        )
        assert code == EXIT_OK
        assert [row["satisfied"] for row in json.loads(out)["results"]] == [True, True]

    def test_order_where_p_times_e_overflows(self, capsys, stable_plant, gauss_dist):
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--horizon", "60", "--traj", "2000", "--p", "1e308",
        )
        assert code in (EXIT_OK, EXIT_UNSATISFIED), err
        (row,) = json.loads(out)["results"]
        assert row["factors"]["cp"] == 0.5

    def test_unsatisfied_transient_exits_three(self, capsys, unstable_plant, gauss_dist):
        # Two steps only: e_1 = d_1 - 1.5 d_0 has variance 3.25 < 4, the
        # stationary floor, so the tail statistic honestly under-reads the
        # bound and certification must fail.
        code, out, _ = run_cli(
            capsys, "verify", "--plant", unstable_plant, "--dist", gauss_dist,
            "--controller", "gain:1.5", "--horizon", "2", "--tail-window", "1",
            "--traj", "30000", "--seed", "3", "--p", "2",
        )
        assert code == EXIT_UNSATISFIED
        (row,) = json.loads(out)["results"]
        assert row["satisfied"] is False
        assert row["ratio"] == pytest.approx(math.sqrt(3.25) / 2.0, abs=0.02)

    @pytest.mark.parametrize("x0_std", ["1e-3", "0.1"])
    def test_unsatisfied_transient_with_initial_state_exits_three(
        self, capsys, unstable_plant, gauss_dist, x0_std
    ):
        # Step 0 holds x0, which is not the loop's response: its spread,
        # large or small, leaves the two-step run stable.
        code, out, _ = run_cli(
            capsys, "verify", "--plant", unstable_plant, "--dist", gauss_dist,
            "--controller", "gain:1.5", "--horizon", "2", "--tail-window", "1",
            "--traj", "30000", "--seed", "3", "--p", "2", "--x0-std", x0_std,
        )
        assert code == EXIT_UNSATISFIED
        assert json.loads(out)["stable"] is True

    def test_growth_over_the_whole_run_exits_four(self, capsys, unstable_plant, gauss_dist):
        # The tail window covers every step after burn_in: its later half is
        # held against its earlier half.
        code, out, _ = run_cli(
            capsys, "verify", "--plant", unstable_plant, "--dist", gauss_dist,
            "--controller", "zero", "--horizon", "100", "--tail-window", "80",
            "--traj", "200",
        )
        assert code == EXIT_UNSTABLE
        payload = json.loads(out)
        assert payload["diverged"] == 0
        assert payload["results"] == []

    def test_growth_exits_four(self, capsys, unstable_plant, gauss_dist):
        code, out, _ = run_cli(
            capsys, "verify", "--plant", unstable_plant, "--dist", gauss_dist,
            "--controller", "zero", "--horizon", "100", "--traj", "200",
        )
        assert code == EXIT_UNSTABLE
        payload = json.loads(out)
        assert payload["stable"] is False
        assert payload["diverged"] == 0
        assert payload["results"] == []

    def test_large_disturbance_on_stable_plant_exits_zero(
        self, capsys, tmp_path, stable_plant, gauss_dist
    ):
        # The verdict and the ratio do not change with the disturbance's units.
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"type": "iid_gaussian", "sigma": 1e6}))
        ratios = []
        for dist in (gauss_dist, str(big)):
            code, out, _ = run_cli(
                capsys, "verify", "--plant", stable_plant, "--dist", dist,
                "--horizon", "60", "--traj", "5000", "--seed", "1", "--p", "2",
            )
            assert code == EXIT_OK
            payload = json.loads(out)
            assert payload["stable"] is True
            ratios.append(payload["results"][0]["ratio"])
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)

    def test_total_divergence_exits_four(self, capsys, tmp_path, gauss_dist):
        plant = tmp_path / "wild.json"
        plant.write_text(json.dumps({"A": [[4.0]], "B": [1.0], "C": [1.0]}))
        code, out, _ = run_cli(
            capsys, "verify", "--plant", str(plant), "--dist", gauss_dist,
            "--controller", "zero", "--horizon", "700", "--traj", "8",
        )
        assert code == EXIT_UNSTABLE
        payload = json.loads(out)
        assert payload["stable"] is False
        assert "error" in payload

    @pytest.mark.filterwarnings("ignore::fundlim.AnalysisWarning")
    def test_unstable_reports_name_their_floors(self, capsys, tmp_path, unstable_plant, gauss_dist):
        # A = 2 grows over the tail window; A = 4 leaves float range on
        # every trajectory, which ends the run early.
        wild = tmp_path / "wild.json"
        wild.write_text(json.dumps({"A": [[4.0]], "B": [1.0], "C": [1.0]}))
        ent = fl.entropy_summary(fl.load_disturbance(gauss_dist))
        for plant, horizon in ((unstable_plant, "100"), (str(wild), "700")):
            chars = fl.analyze_plant(fl.load_plant(plant))
            floors = [fl.error_bound_lti(p, chars, ent).to_dict() for p in (2.0, math.inf)]
            code, out, _ = run_cli(
                capsys, "verify", "--plant", plant, "--dist", gauss_dist,
                "--controller", "zero", "--horizon", horizon, "--traj", "8", "--p", "2,inf",
            )
            assert code == EXIT_UNSTABLE
            payload = json.loads(out)
            assert payload["results"] == []
            assert payload["floors"] == json.loads(json.dumps(floors))
            assert [row["theorem"] for row in payload["floors"]] == ["T1", "T1"]

    def test_first_divergence_step(self, capsys, tmp_path, unstable_plant, gauss_dist):
        # A = 4 leaves float range near step 513: with 50 trajectories and a
        # horizon of 516 most, but not all, have diverged by the end.
        wild = tmp_path / "wild.json"
        wild.write_text(json.dumps({"A": [[4.0]], "B": [1.0], "C": [1.0]}))
        cfg = fl.SimulationConfig(horizon=516, trajectories=50, seed=0)
        result = fl.run_closed_loop(
            fl.load_plant(str(wild)), fl.ZeroController(), fl.GaussianIID(1.0), cfg
        )
        assert 0 < result.diverged < cfg.trajectories
        alive = result.alive_counts
        expected = int(np.argmax(alive < cfg.trajectories))
        assert alive[expected - 1] == cfg.trajectories > alive[expected]

        code, out, _ = run_cli(
            capsys, "verify", "--plant", str(wild), "--dist", gauss_dist,
            "--controller", "zero", "--horizon", "516", "--traj", "50", "--seed", "0",
        )
        assert code == EXIT_UNSTABLE
        payload = json.loads(out)
        assert payload["diverged"] == result.diverged
        assert payload["first_divergence_step"] == expected
        assert payload["floors"][0]["theorem"] == "T1"

        # Grows over the tail window, but every trajectory stays finite.
        code, out, _ = run_cli(
            capsys, "verify", "--plant", unstable_plant, "--dist", gauss_dist,
            "--controller", "zero", "--horizon", "100", "--traj", "20",
        )
        assert code == EXIT_UNSTABLE
        payload = json.loads(out)
        assert payload["diverged"] == 0
        assert payload["first_divergence_step"] is None

    def test_stable_report_keys_unchanged(self, capsys, stable_plant, gauss_dist):
        code, out, _ = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--controller", "zero", "--horizon", "40", "--traj", "500",
        )
        assert code in (EXIT_OK, EXIT_UNSATISFIED)
        payload = json.loads(out)
        assert set(payload) == {
            "stable", "diverged", "which", "results", "warnings", "manifest"
        }
        assert set(payload["manifest"]["parameters"]) == {"controller", "which", "sim"}

    def test_output_certification(self, capsys, tmp_path, gauss_dist):
        # Minimum-phase two-lag plant; certify the measurement floor under
        # proportional feedback.
        plant = tmp_path / "fir.json"
        plant.write_text(
            json.dumps({"A": [[0.0, 0.0], [1.0, 0.0]], "B": [1.0, 0.0], "C": [0.5, 1.0]})
        )
        code, out, _ = run_cli(
            capsys, "verify", "--plant", str(plant), "--dist", gauss_dist,
            "--controller", "gain:0.2", "--horizon", "80", "--traj", "4000",
            "--which", "output", "--seed", "5",
        )
        assert code == EXIT_OK
        (row,) = json.loads(out)["results"]
        assert row["which"] == "output"
        assert row["theorem"] == "T2"
        assert row["satisfied"] is True

    def test_sim_config_file_with_flag_override(self, capsys, tmp_path, stable_plant, gauss_dist):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"horizon": 30, "trajectories": 77, "p_list": [2, "inf"]}))
        code, out, _ = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--sim-config", str(cfg), "--horizon", "40",
        )
        assert code == EXIT_OK
        sim = json.loads(out)["manifest"]["parameters"]["sim"]
        assert sim["horizon"] == 40  # flag wins
        assert sim["trajectories"] == 77  # file fills the rest
        assert sim["p_list"] == [2.0, "inf"]

    def test_each_sim_setting_is_a_flag_dest(self):
        names = [f.name for f in dataclasses.fields(fl.SimulationConfig)]
        bare = vars(build_parser().parse_args(["verify", "--plant", "p", "--dist", "d"]))
        assert all(bare[name] is None for name in names)
        flags = ["--horizon", "7", "--traj", "5", "--seed", "3", "--p", "1,inf",
                 "--burn-in", "1", "--tail-window", "2", "--x0-std", "0.5"]
        args = build_parser().parse_args(["verify", "--plant", "p", "--dist", "d", *flags])
        assert [getattr(args, name) for name in names] == [7, 5, 3, "1,inf", 1, 2, 0.5]

    @pytest.mark.parametrize(
        "file_settings, flags, expected",
        [
            ({}, [], {"horizon": 200, "trajectories": 10000}),
            ({"horizon": 30, "seed": 4, "p_list": "1,inf"}, [],
             {"horizon": 30, "trajectories": 10000, "seed": 4, "p_list": (1.0, math.inf)}),
            ({"horizon": 30, "trajectories": 77, "seed": 4, "p_list": [2, "inf"], "burn_in": 3,
              "tail_window": 5, "x0_std": 0.25},
             ["--horizon", "40", "--traj", "50", "--seed", "6", "--p", "4", "--burn-in", "2",
              "--tail-window", "9", "--x0-std", "0.5"],
             {"horizon": 40, "trajectories": 50, "seed": 6, "p_list": (4.0,), "burn_in": 2,
              "tail_window": 9, "x0_std": 0.5}),
            ({"horizon": 30, "p_list": ["abc"]}, ["--p", "2"], {"horizon": 30, "trajectories": 10000}),
            ({"p_list": 2, "x0_std": 0.25}, ["--p", "inf", "--horizon", "20"],
             {"horizon": 20, "trajectories": 10000, "p_list": (math.inf,), "x0_std": 0.25}),
        ],
        ids=["defaults", "file_over_defaults", "flags_over_file",
             "flag_p_skips_a_bad_file_p_list", "flag_p_skips_a_scalar_file_p_list"],
    )
    def test_sim_setting_precedence(self, tmp_path, file_settings, flags, expected):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(file_settings))
        args = build_parser().parse_args(
            ["verify", "--plant", "p", "--dist", "d", "--sim-config", str(cfg), *flags]
        )
        assert _resolve_sim_config(args) == fl.SimulationConfig(**expected)

    def test_bad_sim_config(self, capsys, tmp_path, stable_plant, gauss_dist):
        cfg = tmp_path / "sim.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--sim-config", str(cfg),
        )
        assert code == EXIT_INPUT
        assert "JSON object" in err

    @pytest.mark.parametrize("settings", [{"divergence_threshold": 1e12}, {"horizn": 30}])
    def test_unknown_sim_config_key(self, capsys, tmp_path, stable_plant, gauss_dist, settings):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--sim-config", str(cfg),
        )
        assert code == EXIT_INPUT
        assert out == ""
        (key,) = settings
        assert err.startswith("fundlim: ") and key in err

    @pytest.mark.parametrize(
        "settings",
        [
            {"p_list": 2},
            {"p_list": ["abc"]},
            {"horizon": "abc", "trajectories": 50},
            {"horizon": None, "trajectories": 50},
        ],
    )
    def test_malformed_sim_config_value(self, capsys, tmp_path, stable_plant, gauss_dist, settings):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--sim-config", str(cfg),
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ")
        assert "p_list" in err or "horizon" in err

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"horizon": 50.9, "trajectories": 50}, "horizon"),
            ({"horizon": 20, "trajectories": 50, "seed": 1.5}, "seed"),
            ({"horizon": True, "trajectories": 50}, "horizon"),
            ({"horizon": 20, "trajectories": 50, "x0_std": True}, "x0_std"),
        ],
        ids=["fractional_horizon", "fractional_seed", "bool_horizon", "bool_x0_std"],
    )
    def test_non_integral_or_bool_sim_config_value(
        self, capsys, tmp_path, stable_plant, gauss_dist, settings, key
    ):
        # Each once ran with a truncated or coerced value and exited 0.
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(settings))
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--sim-config", str(cfg),
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and key in err

    @pytest.mark.parametrize("source", ["flag", "sim_config"])
    def test_negative_seed(self, capsys, tmp_path, stable_plant, gauss_dist, source):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"horizon": 20, "trajectories": 100, "seed": -1}))
        seed = ["--seed", "-3"] if source == "flag" else ["--sim-config", str(cfg)]
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist, *seed
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and "seed" in err

    @pytest.mark.parametrize(
        "orders",
        [["--p", "2,INF"], ["--p", "2,Infinity"], {"p_list": [2, "Infinity"]}],
        ids=["INF", "Infinity", "sim_config"],
    )
    def test_infinity_spellings_give_the_same_reports(
        self, capsys, tmp_path, stable_plant, gauss_dist, orders
    ):
        # float() reads every spelling of infinity, in a flag or a config file.
        if isinstance(orders, dict):
            cfg = tmp_path / "sim.json"
            cfg.write_text(json.dumps(orders))
            orders = ["--sim-config", str(cfg)]
        reports = []
        for tag, flags in (("inf", ["--p", "2,inf"]), ("other", orders)):
            out_dir = tmp_path / tag
            code, out, _ = run_cli(
                capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
                "--horizon", "40", "--traj", "300", *flags, "--out", str(out_dir),
            )
            assert code == EXIT_OK
            reports.append((
                re.sub(r'"timestamp": "[^"]*"', "", out),
                (out_dir / "verify_norms.csv").read_bytes(),
            ))
        assert reports[0] == reports[1]

    def test_resamples_flag_is_gone(self, capsys, stable_plant, gauss_dist):
        # The margin has a closed form, so there is no number of resamples.
        with pytest.raises(SystemExit) as exc:
            main([
                "verify", "--plant", stable_plant, "--dist", gauss_dist,
                "--horizon", "20", "--traj", "100", "--resamples", "200",
            ])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --resamples 200" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["--traj", "--horizon"])
    @pytest.mark.parametrize("size", [2**63, 99999999999999999999])
    def test_oversize_sizes_are_input_errors(
        self, capsys, monkeypatch, stable_plant, gauss_dist, flag, size
    ):
        # Sizes no array can hold: rejected before anything is simulated.
        def no_simulation(*args, **kwargs):
            raise AssertionError(f"run_closed_loop called with {flag} {size}")

        monkeypatch.setattr("fundlim.cli.run_closed_loop", no_simulation)
        sizes = {"--traj": "100", "--horizon": "20"}
        sizes[flag] = str(size)
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            *[token for pair in sizes.items() for token in pair],
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and "too large" in err

    def test_bad_controller_spec(self, capsys, stable_plant, gauss_dist):
        code, _, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--controller", "pid:1",
        )
        assert code == EXIT_INPUT
        assert "controller" in err

    @pytest.mark.parametrize("spec", ["gain:nan", "gain:inf"])
    def test_non_finite_gain_is_an_input_error(self, capsys, stable_plant, gauss_dist, spec):
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--controller", spec, "--horizon", "20", "--traj", "100",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "gain must be finite" in err

    @pytest.mark.parametrize("message", ["", "Unable to allocate 745. GiB"])
    def test_out_of_memory_is_an_input_error(
        self, capsys, monkeypatch, stable_plant, gauss_dist, message
    ):
        # Stands in for sizes that fit an array but not this host's memory.
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("fundlim.cli.run_closed_loop", out_of_memory)
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
            "--horizon", "20", "--traj", "100",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"fundlim: out of memory{f': {message}' if message else ''}\n"

    def test_ar_singular_to_float64_is_an_input_error(self, capsys, tmp_path, stable_plant):
        # Roots 1e-7 and 2e-7 inside the unit circle: the Yule-Walker
        # system is singular in float64, and the model is refused when the
        # disturbance file is loaded, before any chunk runs.
        near, nearer = 0.9999998, 0.9999999
        dist = tmp_path / "near_unit_ar.json"
        dist.write_text(json.dumps(
            {"type": "gauss_ar", "coeffs": [near + nearer, -near * nearer], "innovation_std": 1.0}
        ))
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", str(dist),
            "--horizon", "50", "--traj", "200",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and "unit circle" in err

    @pytest.mark.parametrize("command", ["bound", "verify"])
    def test_ar_ill_conditioned_is_an_input_error(self, capsys, tmp_path, stable_plant, command):
        # Roots 1e-6 inside the unit circle: the Yule-Walker system is not
        # singular, but its condition number, 1.75e16, is past the limit.
        near, nearer = 0.999998, 0.999999
        dist = tmp_path / "ill_conditioned_ar.json"
        dist.write_text(json.dumps(
            {"type": "gauss_ar", "coeffs": [near + nearer, -near * nearer], "innovation_std": 1.0}
        ))
        code, out, err = run_cli(
            capsys, command, "--plant", stable_plant, "--dist", str(dist),
            *(["--horizon", "50", "--traj", "200"] if command == "verify" else []),
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and "condition number" in err

    def test_deterministic_reports(self, capsys, tmp_path, stable_plant, gauss_dist):
        def one_run(tag):
            out_dir = tmp_path / tag
            code, out, _ = run_cli(
                capsys, "verify", "--plant", stable_plant, "--dist", gauss_dist,
                "--horizon", "50", "--traj", "2000", "--seed", "11",
                "--p", "2,inf", "--out", str(out_dir),
            )
            assert code == EXIT_OK
            payload = json.loads(out)
            del payload["manifest"]["timestamp"]
            return payload, (out_dir / "verify_norms.csv").read_bytes()

        first_payload, first_csv = one_run("a")
        second_payload, second_csv = one_run("b")
        assert first_payload == second_payload
        assert first_csv == second_csv

    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        # The loop's matrix products write into preallocated buffers; one
        # BLAS thread and the default pool must give the same reports.
        plant = tmp_path / "nmp_plant.json"
        plant.write_text(json.dumps({
            "A": [[0.4, 0.11, -0.03], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "B": [1.0, 0.0, 0.0],
            "C": [0.0, 1.0, -2.0],
        }))
        dist = tmp_path / "gengauss.json"
        dist.write_text(json.dumps({"type": "iid_gengauss", "shape": 4.0, "lp_norm": 1.0}))
        src = str(Path(fl.__file__).resolve().parents[1])
        base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(tag, env):
            out_dir = tmp_path / tag
            done = subprocess.run(
                [sys.executable, "-m", "fundlim.cli", "verify", "--plant", str(plant),
                 "--dist", str(dist), "--controller", "arma:0.1;-0.2", "--which", "output",
                 "--horizon", "100", "--traj", "4096", "--seed", "5", "--p", "1,2,4,inf",
                 "--out", str(out_dir)],
                capture_output=True, text=True, env=env,
            )
            assert done.returncode == EXIT_OK, done.stderr
            results = json.loads(done.stdout)["results"]
            return results, (out_dir / "verify_norms.csv").read_bytes()

        one = run("one", {**base, "OPENBLAS_NUM_THREADS": "1"})
        default = run("default", base)
        assert len(one[0]) == 4
        assert one == default


class TestSzego:
    def test_from_disturbance(self, capsys, ar_dist):
        code, out, _ = run_cli(capsys, "szego", "--dist", ar_dist)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["szego_log_integral_bits"] == pytest.approx(0.0, abs=1e-10)
        assert payload["entropy_rate_bits"] == pytest.approx(2.047095585180641, abs=1e-6)
        assert payload["negentropy_bits"] == 0.0
        assert payload["grid_points"] == 4096

    def test_spectrum_csv_round_trip(self, capsys, tmp_path, ar_dist):
        out_dir = tmp_path / "sz"
        code, out, _ = run_cli(capsys, "szego", "--dist", ar_dist, "--out", str(out_dir))
        assert code == EXIT_OK
        direct = json.loads(out)

        code, out, _ = run_cli(
            capsys, "szego", "--spectrum-csv", str(out_dir / "spectrum.csv")
        )
        assert code == EXIT_OK
        from_csv = json.loads(out)
        # repr round trip through the CSV preserves every bit.
        assert from_csv["szego_log_integral_bits"] == direct["szego_log_integral_bits"]
        assert from_csv["entropy_rate_bits"] == direct["entropy_rate_bits"]

    def test_header_rows_skipped(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        rows = ["omega,S"]
        n = 32
        for i in range(n):
            w = -math.pi + 2.0 * math.pi * i / n
            rows.append(f"{w},2.0")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "szego", "--spectrum-csv", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["szego_log_integral_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_row_after_header_rejected(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        rows = ["omega,S"] + [f"{-math.pi + 2.0 * math.pi * i / 32},2.0" for i in range(32)]
        rows[10] = "0.3,oops"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "szego", "--spectrum-csv", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert "line 11" in err

    def test_requires_exactly_one_source(self, capsys, ar_dist, tmp_path):
        code, _, err = run_cli(capsys, "szego")
        assert code == EXIT_INPUT
        assert "exactly one" in err

        spec = tmp_path / "s.csv"
        spec.write_text("0,1\n")
        code, _, err = run_cli(capsys, "szego", "--dist", ar_dist, "--spectrum-csv", str(spec))
        assert code == EXIT_INPUT

    def test_short_csv_rejected(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("0.0,1.0\n0.5,1.0\n")
        code, _, err = run_cli(capsys, "szego", "--spectrum-csv", str(path))
        assert code == EXIT_INPUT
        assert "fewer than 16" in err

    def test_closed_grid_matches_periodic_grid(self, capsys, tmp_path):
        # Both endpoints of [-pi, pi]: the trapezoid rule halves the two
        # equal end samples, which leaves the periodic mean.
        model = fl.GaussianAR((0.5, -0.25), 1.3)
        dist = tmp_path / "ar.json"
        dist.write_text(json.dumps(model.to_dict()))
        omega = np.linspace(-math.pi, math.pi, 1025)
        closed = tmp_path / "closed.csv"
        closed.write_text(spectrum_csv(omega, model.spectrum_value(omega)))
        reports = []
        for argv in (["--dist", str(dist), "--grid", "1024"], ["--spectrum-csv", str(closed)]):
            code, out, _ = run_cli(capsys, "szego", *argv)
            assert code == EXIT_OK
            reports.append(json.loads(out))
        periodic, from_csv = reports
        assert from_csv["grid_points"] == 1025
        for key in ("szego_log_integral_bits", "entropy_rate_bits"):
            assert from_csv[key] == pytest.approx(periodic[key], rel=1e-13)

    def test_midpoint_grid_matches_periodic_grid(self, capsys, tmp_path):
        # -pi + pi/1024 + 2 pi i/1024: point i's mirror is point 1023 - i.
        model = fl.GaussianAR((0.5, -0.25), 1.0)
        dist = tmp_path / "ar.json"
        dist.write_text(json.dumps(model.to_dict()))
        omega = -math.pi + math.pi / 1024 + 2.0 * math.pi * np.arange(1024) / 1024
        midpoints = tmp_path / "midpoints.csv"
        midpoints.write_text(spectrum_csv(omega, model.spectrum_value(omega)))
        reports = []
        for argv in (["--dist", str(dist), "--grid", "1024"], ["--spectrum-csv", str(midpoints)]):
            code, out, _ = run_cli(capsys, "szego", *argv)
            assert code == EXIT_OK
            reports.append(json.loads(out))
        periodic, from_csv = reports
        key = "szego_log_integral_bits"
        assert abs(from_csv[key] - periodic[key]) <= 1e-12


class TestHugeDisturbanceScale:
    # 2^entropy rate and sigma^2 both leave the float range at sigma = 1e308.
    @pytest.mark.parametrize("route", [*ROUTES, "szego"])
    def test_overflow_is_an_input_error(self, capsys, tmp_path, stable_plant, route):
        dist = tmp_path / "huge.json"
        dist.write_text(json.dumps({"type": "iid_gaussian", "sigma": 1e308}))
        if route == "szego":
            argv = ["szego", "--dist", str(dist)]
        else:
            argv = ["bound", "--dist", str(dist), "--plant", stable_plant, "--theorem", route]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and "overflows the float range" in err

    @pytest.mark.parametrize("which", ["error", "output"])
    def test_verify_floor_checked_before_simulation(
        self, capsys, monkeypatch, tmp_path, stable_plant, which
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("run_closed_loop called with a floor out of float range")

        monkeypatch.setattr("fundlim.cli.run_closed_loop", no_simulation)
        dist = tmp_path / "huge.json"
        dist.write_text(json.dumps({"type": "iid_gaussian", "sigma": 1e308}))
        code, out, err = run_cli(
            capsys, "verify", "--plant", stable_plant, "--dist", str(dist),
            "--horizon", "20", "--traj", "50", "--which", which,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and "overflows the float range" in err

    def test_variance_floor_overflow_is_an_input_error(self, capsys, tmp_path):
        # The p = 2 floor itself is finite here; its square is not.
        dist = tmp_path / "huge.json"
        dist.write_text(json.dumps({"type": "iid_gaussian", "sigma": 1e200}))
        code, out, err = run_cli(capsys, "bound", "--dist", str(dist), "--p", "2")
        assert code == EXIT_INPUT
        assert out == ""
        assert "variance floor overflows the float range" in err


class TestInputErrors:
    # Each input names what is wrong with it and exits 2, with no traceback.
    @pytest.mark.parametrize(
        "argv, text, match",
        [
            (["analyze", "--plant"], "[[0.5], [1.0], [1.0]]", "plant file must hold a JSON object"),
            (["analyze", "--plant"], '{"A": "x", "B": [1.0], "C": [1.0]}',
             "plant matrices are malformed"),
            (["analyze", "--plant"], '{"A": [[0.5]],', "plant file is not valid JSON"),
            (["analyze", "--plant"], '{"A": [[0.5]], "B": [1.0]}',
             "plant file is missing field 'C'"),
            (["analyze", "--plant"], '{"A": [[0.5]], "B": [1.0], "C": [1.0], "D": [[7]]}',
             "plant file has unknown keys: D"),
            (["bound", "--dist"], "[1, 2]", "must be an object with a 'type' field"),
            (["bound", "--dist"], '{"type": "iid_gaussian", "sigma": "x"}',
             "disturbance parameters are malformed"),
            (["bound", "--dist"], '{"type": "iid_gaussian"}',
             "disturbance type 'iid_gaussian' is missing field 'sigma'"),
            (["bound", "--dist"], '{"type": "iid_gaussian", "sigma": 1.0, "shape": 4}',
             "disturbance type 'iid_gaussian' has unknown keys: shape"),
            (["bound", "--dist"], '{"type": "pink_noise"}', "unknown disturbance type 'pink_noise'"),
            (["bound", "--dist"], '{"type": ["iid_gaussian"], "sigma": 1.0}',
             "unknown disturbance type"),
            (["bound", "--dist"], '{"type": "gauss_ar", "coeffs": [], "innovation_std": 1.0}',
             "coeffs must contain at least one lag"),
            (["bound", "--dist"], '{"type": "gauss_ar", "coeffs": [NaN], "innovation_std": 1.0}',
             "coeffs contain NaN or Inf"),
            (["bound", "--p", ",", "--dist"], '{"type": "iid_gaussian", "sigma": 1.0}',
             "--p must name at least one norm order"),
            (["szego", "--spectrum-csv"],
             spectrum_csv(uniform_omega(), with_entry(np.ones(64), 5, math.nan)),
             "spectrum contains NaN or Inf"),
            (["szego", "--spectrum-csv"],
             spectrum_csv(with_entry(uniform_omega(), 5, 0.0), np.ones(64)),
             "spectrum grid must be strictly increasing"),
            (["szego", "--spectrum-csv"],
             spectrum_csv(uniform_omega(), with_entry(np.ones(64), 5, 2.0)),
             "spectral density must be even in frequency"),
            (["szego", "--spectrum-csv"],
             spectrum_csv(np.linspace(-math.pi, math.pi - 0.5, 64), np.ones(64)),
             "spectrum grid must cover one full period"),
            (["szego", "--spectrum-csv"],
             spectrum_csv(np.linspace(-math.pi, math.pi, 1025), with_entry(np.ones(1025), 5, 2.0)),
             "spectral density must be even in frequency"),
            (["szego", "--spectrum-csv"],
             spectrum_csv(np.linspace(-math.pi, math.pi, 1025), with_entry(np.ones(1025), -1, 2.0)),
             "spectral density must agree at both ends of a closed grid"),
            (["szego", "--spectrum-csv"],
             spectrum_csv(uniform_omega() + math.pi / 96, np.ones(64)),
             "uniform spectrum grid must map onto itself under omega -> -omega"),
        ],
        ids=[
            "plant_list", "plant_matrix_not_numeric", "plant_not_json", "plant_missing_field",
            "plant_stray_key",
            "dist_not_an_object", "dist_sigma_not_a_number", "dist_missing_field",
            "dist_stray_key", "dist_unknown_type", "dist_type_a_list", "ar_no_coeffs",
            "ar_nan_coeff",
            "p_empty",
            "spectrum_nan", "spectrum_not_increasing", "spectrum_uneven", "spectrum_short_period",
            "spectrum_closed_uneven", "spectrum_closed_ends_differ", "spectrum_grid_not_symmetric",
        ],
    )
    def test_exits_two_with_a_message(self, capsys, tmp_path, argv, text, match):
        path = tmp_path / "input"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and match in err
        assert "Traceback" not in err

    def test_stray_keys_in_both_bound_inputs(self, capsys, tmp_path):
        plant = tmp_path / "plant.json"
        plant.write_text('{"A": [[0.5]], "B": [1.0], "C": [1.0], "D": [[7]]}')
        dist = tmp_path / "dist.json"
        dist.write_text('{"type": "iid_gaussian", "sigma": 1.0, "shape": 4}')
        code, out, err = run_cli(capsys, "bound", "--plant", str(plant), "--dist", str(dist))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "fundlim: disturbance type 'iid_gaussian' has unknown keys: shape\n"
        dist.write_text('{"type": "iid_gaussian", "sigma": 1.0}')
        code, out, err = run_cli(capsys, "bound", "--plant", str(plant), "--dist", str(dist))
        assert (code, out, err) == (EXIT_INPUT, "", "fundlim: plant file has unknown keys: D\n")


class TestTopLevel:
    @pytest.mark.parametrize("flag", ["--plant", "--dist", "--sim-config", "--spectrum-csv"])
    def test_input_file_not_utf8(self, capsys, tmp_path, stable_plant, gauss_dist, flag):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes('{"note": "caf\u00e9"}'.encode("latin-1"))
        argv = {
            "--plant": ["analyze", "--plant", str(bad)],
            "--dist": ["bound", "--dist", str(bad)],
            "--sim-config": [
                "verify", "--plant", stable_plant, "--dist", gauss_dist, "--sim-config", str(bad),
            ],
            "--spectrum-csv": ["szego", "--spectrum-csv", str(bad)],
        }[flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("fundlim: ") and "decode" in err
        assert str(bad) in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fundlim" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        src = str(Path(fl.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = "import sys, fundlim.cli; print('scipy.signal' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.stdout.strip() == "False"

    def test_start_up_floors_and_verify_leave_scipy_unloaded(self, tmp_path):
        plant = tmp_path / "nmp3.json"
        plant.write_text(json.dumps({
            "A": [[0.4, 0.11, -0.03], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "B": [1.0, 0.0, 0.0],
            "C": [0.0, 1.0, -2.0],
        }))
        dist = tmp_path / "gengauss.json"
        dist.write_text(json.dumps({"type": "iid_gengauss", "shape": 4.0, "lp_norm": 1.0}))
        ar = tmp_path / "ar2.json"
        ar.write_text(json.dumps({"type": "gauss_ar", "coeffs": [0.5, -0.25], "innovation_std": 1.0}))
        probe = "\n".join([
            "import contextlib, io, sys",
            "import fundlim.cli",
            "import fundlim as fl",
            "chars = fl.analyze_plant(fl.StateSpaceModel("
            "[[0.4, 0.11, -0.03], [1, 0, 0], [0, 1, 0]], [1, 0, 0], [0, 1, -2]))",
            "assert abs(chars.nmp_zero_product - 2.0) < 1e-12",
            "for model in (fl.GaussianIID(1.0), fl.UniformIID(1.0),"
            " fl.GeneralizedGaussianIID(4.0, 1.0)):",
            "    fl.entropy_summary(model)",
            "    for p in (1.0, 2.0, 4.0, float('inf')):",
            "        fl.cp_constant(p)",
            # No generalized Gaussian table is built before the first draw.
            "from fundlim.disturbance import _ziggurat",
            "tables = _ziggurat.cache_info().currsize",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    code = fundlim.cli.main(['verify', '--plant', {str(plant)!r},"
            f" '--dist', {str(dist)!r}, '--which', 'output', '--traj', '400',"
            " '--horizon', '60', '--p', '1,2,4,inf'])",
            f"    code_ar = fundlim.cli.main(['verify', '--plant', {str(plant)!r},"
            f" '--dist', {str(ar)!r}, '--traj', '400', '--horizon', '60', '--p', '2,inf'])",
            "print(code, code_ar, 'scipy' in sys.modules, tables, _ziggurat.cache_info().currsize)",
        ])
        src = str(Path(fl.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.stdout.split() == [str(EXIT_OK), str(EXIT_OK), "False", "0", "1"]

    def test_cli_import_loads_only_fundlim_and_the_standard_library(self):
        # Beyond numpy itself: no scipy, and no numpy submodule numpy does
        # not load on its own (numpy.polynomial, say).
        probe = "\n".join([
            "import json, sys",
            "import numpy",
            "before = set(sys.modules)",
            "import fundlim.cli",
            "print(json.dumps(sorted(set(sys.modules) - before)))",
        ])
        src = str(Path(fl.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        loaded = json.loads(done.stdout)
        assert "fundlim.disturbance" in loaded
        foreign = [
            name for name in loaded
            if name.split(".")[0] not in sys.stdlib_module_names | {"fundlim"}
        ]
        assert foreign == []
