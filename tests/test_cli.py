import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sarbias import SymptomModelParams, harness, symptom_prompted_target_mu
from sarbias.cli import main
from sarbias.harness import CSV_COLUMNS, fmt12

SIM_CONFIG = """
scenario.id = cli_demo
scenario.seed = 11
scenario.units_per_arm = 300
scenario.index_rule = true_primary
policy.kind = symptom_prompted
"""


class TestAnalytic:
    def test_symptom_target_default(self, capsys):
        # Flag defaults are the parameter bundles' defaults.
        assert main(["analytic", "--form", "symptom-target-mu"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.44"
        assert out == fmt12(symptom_prompted_target_mu(SymptomModelParams()))

    def test_sampling_fraction(self, capsys):
        rc = main(["analytic", "--form", "sampling-fraction", "--k", "10",
                   "--rho-v", "8", "--c", "7"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.710714285714"

    def test_invert_nu(self, capsys):
        rc = main(["analytic", "--form", "invert-nu", "--target-ve", "0.56"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.6"

    def test_observed_mu_plateau(self, capsys):
        rc = main(["analytic", "--form", "infrequent-observed-mu", "--k", "25"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.463461538462"

    def test_infeasible_inversion_reports_error(self, capsys):
        rc = main(["analytic", "--form", "invert-nu", "--target-ve", "0.0"])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err

    def test_remaining_forms(self, capsys):
        cases = [
            (["--form", "symptom-actual-mu", "--nu", "0.6"], "0.6"),
            (["--form", "infrequent-target-mu"], "0.4"),
            (["--form", "infrequent-observed-component", "--k", "7",
              "--rho-v", "14", "--tau-v", "0.01"], "0.14"),
        ]
        for argv, expected in cases:
            assert main(["analytic"] + argv) == 0
            assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("form, flag, name", [
        ("sampling-fraction", "--k", "k"),
        ("infrequent-observed-mu", "--k", "k"),
        ("sampling-fraction", "--rho-v", "rho_v"),
        ("infrequent-observed-component", "--tau-v", "tau_v"),
        ("invert-nu", "--target-ve", "target_ve"),
    ])
    def test_non_finite_flag_rejected(self, form, flag, name, value, capsys):
        # The bare-float flags reach the closed forms unchecked by the
        # parameter bundles; the forms refuse them, naming the value.
        assert main(["analytic", "--form", form, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be" in captured.err
        assert f"got {value}" in captured.err

    @pytest.mark.parametrize("tau_v", ["-1", "0.2"])
    def test_rate_outside_the_duration_model_rejected(self, tau_v, capsys):
        # As the duration bundle requires of tau0, the rate times the
        # longest duration (rho_v + c = 8 + 7 days here) is a probability.
        assert main(["analytic", "--form", "infrequent-observed-component",
                     "--tau-v", tau_v]) == 2
        assert capsys.readouterr() == ("", "error: tau_v must be in "
                                       f"[0, 1 / (rho_v + c)], got {float(tau_v)}\n")

    @pytest.mark.parametrize("form, flags, unread", [
        ("symptom-actual-mu", ["--rho0", "20", "--k", "3"], "--rho0, --k"),
        ("symptom-actual-mu", ["--rho0", "3"], "--rho0"),
        ("sampling-fraction", ["--tau0", "5"], "--tau0"),
        ("symptom-target-mu", ["--tau", "0.3"], "--tau"),  # even at its default
        ("invert-nu", ["--nu", "0.6"], "--nu"),
        ("infrequent-target-mu", ["--k", "7", "--nu-daily", "0.5"], "--k"),
        ("infrequent-observed-component", ["--rho0", "14"], "--rho0"),
    ])
    def test_flag_the_form_does_not_read_refused(self, form, flags, unread,
                                                 capsys):
        assert main(["analytic", "--form", form] + flags) == 2
        assert capsys.readouterr() == (
            "", f"error: --form {form} does not read {unread}\n")

    def test_bare_form_checks_only_its_flags(self, capsys):
        # c = 10 leaves the default rho1 = 8 below c, which the duration
        # bundle refuses; sampling-fraction never builds that bundle.
        assert main(["analytic", "--form", "sampling-fraction", "--k", "12",
                     "--rho-v", "20", "--c", "10"]) == 0
        assert capsys.readouterr().out == "0.991666666667\n"

    def test_zero_rate_transmits_nothing(self, capsys):
        assert main(["analytic", "--form", "infrequent-observed-component",
                     "--tau-v", "0"]) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("form, flag", [
        ("infrequent-observed-component", "--tau-v"),
        ("infrequent-observed-mu", "--nu-daily"),
        ("infrequent-target-mu", "--nu-daily"),
    ])
    def test_negative_zero_rate_prints_zero(self, form, flag, capsys):
        assert main(["analytic", "--form", form, flag, "-0"]) == 0
        assert capsys.readouterr().out == "0\n"


class TestSimulate:
    def test_requires_config(self, capsys):
        assert main(["simulate"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_runs_scenario_to_csv(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG)
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("scenario_id,")

    def test_config_error_reported(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("scenario.id = x\n")  # no seed
        rc = main(["simulate", "--config", str(config), "--out", "x.csv"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_config_reported(self, tmp_path, capsys):
        config, out = tmp_path / "nosuch.cfg", tmp_path / "rows.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read {config}: No such file or directory\n")
        assert not out.exists()

    def test_config_not_utf8_reported(self, tmp_path, capsys):
        config, out = tmp_path / "latin1.cfg", tmp_path / "rows.csv"
        config.write_bytes("scenario.seed = 1\nscenario.id = caf\u00e9\n"
                           .encode("latin-1"))
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: {config} is not UTF-8 text: invalid continuation "
            "byte at byte 35\n")
        assert not out.exists()

    def test_out_in_missing_directory(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG)
        out = tmp_path / "nosuch" / "rows.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("scenario_id", ['harris, k=7', 'say "hi"'])
    def test_ids_that_need_quoting_round_trip(self, scenario_id, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG.replace("cli_demo", scenario_id))
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out),
                   "--units", "100"])
        assert rc == 0
        with open(out, encoding="utf-8", newline="") as fh:
            assert [len(fields) for fields in csv.reader(fh)] == [14, 14]
        with open(out, encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert list(row) == list(CSV_COLUMNS)
        assert row["scenario_id"] == scenario_id

    def test_requires_out(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG)
        assert main(["simulate", "--config", str(config)]) == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_out_key_removed(self, tmp_path, capsys):
        # The output path is a flag only; the config does not name one.
        config, out = tmp_path / "scenario.cfg", tmp_path / "rows.csv"
        config.write_text(SIM_CONFIG + f"scenario.out = {out}\n")
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown key 'scenario.out'\n")
        assert not out.exists()

    def test_threads_flag_removed(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(config), "--out",
                  str(tmp_path / "rows.csv"), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("lines", [
        "sweep.axis = unit.nosuch\nsweep.grid = 1\n",
        "sweep.axis = unit.size\nsweep.grid = 2, 3\n",
        "sweep.axis = unit.unit_size\nsweep.grid = 2, 3\n",
        "sweep.axis = symptom.nu\nsweep.grid = 0.5, 1.5\n",
        "sweep.axis = policy.kind\nsweep.grid = 2\n",
    ], ids=["unknown", "int-key", "field-name", "out-of-range", "str-key"])
    def test_bad_sweep_axis_rejected(self, lines, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG.replace("= 300", "= 200") + lines)
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: sweep.")
        assert not out.exists()

    @pytest.mark.parametrize("key, lines", [
        ("policy.interval_days",
         "policy.kind = scheduled\npolicy.interval_days = nan\n"),
        ("policy.interval_days",
         "policy.kind = scheduled\npolicy.interval_days = inf\n"),
        ("policy.horizon_days", "policy.kind = scheduled\n"
         "policy.interval_days = 7\npolicy.horizon_days = inf\n"),
        ("filter.window_lo", "filter.window_lo = nan\n"),
        ("policy.delay_days", "policy.delay_days = inf\n"),
        ("unit.community_daily_hazard", "unit.community_daily_hazard = inf\n"),
        ("unit.followup_days", "unit.followup_days = nan\n"),
        ("sweep.grid", "sweep.axis = symptom.delta\nsweep.grid = 0.25, -inf\n"),
    ], ids=["interval-nan", "interval-inf", "horizon-inf", "window-lo-nan",
            "delay-inf", "community-inf", "followup-nan", "grid-inf"])
    def test_non_finite_floats_rejected(self, key, lines, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG.replace("policy.kind = symptom_prompted\n",
                                             "") + lines)
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {key}: cannot parse ")
        assert not out.exists()

    def test_tiny_interval_rejected(self, tmp_path):
        # Such an interval once hung simulate in its slot search: run in a
        # child process, so a hang fails the test by its timeout.
        config, out = tmp_path / "scenario.cfg", tmp_path / "rows.csv"
        config.write_text("scenario.seed = 1\nscenario.units_per_arm = 50\n"
                          "policy.kind = scheduled\npolicy.interval_days = 1e-30\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "sarbias.cli", "simulate", "--config",
             str(config), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: policy: interval_days ")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_rejected(self, where, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        out = tmp_path / "rows.csv"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        if where == "config":
            config.write_text(SIM_CONFIG.replace("seed = 11", "seed = -1"))
        else:
            config.write_text(SIM_CONFIG)
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        message = ("config error: seed must be >= 0, got -1" if where == "config"
                   else "error: --seed must be >= 0, got -1")
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_units_flag_rejected(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG)
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--units", "-1"]) == 2
        assert capsys.readouterr().err == "error: --units must be >= 0, got -1\n"
        assert not out.exists()

    def test_flags_checked_before_config_is_read(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_zero_units_header_only(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG)
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--config", str(config), "--out", str(out),
                   "--units", "0"])
        assert rc == 0
        assert out.read_text().count("\n") == 1


class TestSweep:
    def test_analytic_only_sweep(self, tmp_path, capsys):
        out = tmp_path / "fig1a.csv"
        rc = main(["sweep", "--figure", "1a", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 5 * 51

    def test_requires_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--figure", "1b"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_seeded_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--figure", "1b", "--units", "20000", "--seed", "3"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().split("\n")
        assert len(lines) == 72 and lines[-1] == ""
        assert [lines[i] for i in (1, 8, 29, 70)] == [
            "figure_1b,interval_k,1,1,nan,nan,0.5,0.5,0.490545843739,"
            "0.0157605118988,20000,0,0,1",
            "figure_1b,interval_k,8,8,nan,nan,0.5,0.419572767952,"
            "0.419759114305,0.0185485256621,20000,4495,0,1",
            "figure_1b,interval_k,1,1,nan,nan,0.7,0.7,0.702287470126,"
            "0.0110923487437,20000,0,0,1",
            "figure_1b,interval_k,14,14,nan,nan,0.9,0.88043212393,"
            "0.889674006535,0.00895717345374,20000,11148,0,1",
        ]

    @pytest.mark.parametrize("figure", ["1a", "1b"])
    def test_exclusions_are_the_engine_tallies(self, figure, tmp_path):
        # Each Monte Carlo row counts its own cohort's exclusions, both
        # arms summed, from the stream of (seed, row).
        out = tmp_path / "fig.csv"
        assert main(["sweep", "--figure", figure, "--units", "2000",
                     "--seed", "5", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = harness.FIGURE_GRIDS[figure]
        assert len(rows) == len(cells)
        no_index = 0
        for i, (row, cell) in enumerate(zip(rows, cells)):
            cfg, _ = harness._figure_cell(figure, cell)
            if cfg is None:
                assert row["n_excluded_no_index"] == "0"
                continue
            excluded = harness.run_cohort(cfg, 2000,
                                          harness.spawn_rng(5, i)).excluded
            for reason in ("no_index", "coprimary"):
                assert int(row[f"n_excluded_{reason}"]) == (
                    excluded[(reason, True)] + excluded[(reason, False)])
            no_index += int(row["n_excluded_no_index"])
        assert no_index > 0

    def test_negative_units_rejected(self, tmp_path, capsys):
        out = tmp_path / "fig1b.csv"
        rc = main(["sweep", "--figure", "1b", "--units", "-3", "--out", str(out)])
        assert rc == 2
        assert "error: --units" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "fig1b.csv"
        rc = main(["sweep", "--figure", "1b", "--units", "20000",
                   "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_oracle_reported(self, tmp_path, capsys):
        out = tmp_path / "fig1a.csv"
        rc = main(["sweep", "--figure", "1a", "--units", "5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: figure 1a row 40 (delta 0, target VE 0.8): insufficient "
            "data: no units with at-risk contacts in the vaccinated arm\n")
        assert not out.exists()

    def test_undefined_estimate_names_its_row(self, tmp_path, capsys):
        out = tmp_path / "fig1b.csv"
        rc = main(["sweep", "--figure", "1b", "--units", "20", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: figure 1b row 15 (target VE 0.6, k 2): undefined VE: no "
            "transmission in the unvaccinated arm\n")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, threads, tmp_path, capsys):
        # The flag is gone (the pool has one thread per core); argparse
        # refuses it, as it does any unknown option.
        out = tmp_path / "fig1b.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--figure", "1b", "--units", "20000",
                  "--threads", threads, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        "unit.size = 8\nunit.contacts_vaccinated = true\n",
        "policy.kind = scheduled\npolicy.interval_days = 7\n",
        "filter.preset = harris\n",
        "scenario.index_rule = true_primary\nscenario.id = mine\n",
        "sweep.axis = symptom.delta\nsweep.grid = 0.25, 0.5\n",
    ], ids=["unit", "policy", "filter", "scenario", "sweep"])
    def test_config_fields_not_read_rejected(self, lines, tmp_path, capsys):
        # Figures are built from the package defaults: sweep takes no config.
        config = tmp_path / "sweep.cfg"
        config.write_text("scenario.seed = 7\n" + lines)
        out = tmp_path / "fig1b.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--figure", "1b", "--config", str(config),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--figure", "a1", "--units", "20000", "--seed", "3"]
        monkeypatch.setattr("sarbias.harness._workers", lambda: 1)
        assert main(args + ["--out", str(out_a)]) == 0
        monkeypatch.setattr("sarbias.harness._workers", lambda: 8)
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nosuch" / "fig1a.csv"
        assert main(["sweep", "--figure", "1a", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")
        assert not out.parent.exists()


class TestOutCheckedFirst:
    """An output path that cannot be written is refused before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")
        for name in ("run_scenario", "sweep_figure", "run_cohort"):
            monkeypatch.setattr(harness, name, refuse)

    @pytest.fixture(params=["simulate", "sweep"])
    def argv(self, request, tmp_path):
        if request.param == "sweep":
            return ["sweep", "--figure", "1b", "--units", "200000"]
        config = tmp_path / "scenario.cfg"
        config.write_text(SIM_CONFIG)
        return ["simulate", "--config", str(config)]

    @pytest.mark.parametrize("where, reason", [
        ("nosuch/rows.csv", "No such file or directory"),
        ("", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_refused_before_the_run(self, argv, where, reason, tmp_path, capsys):
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / where
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_empty_path_refused_before_the_run(self, argv, capsys):
        assert main(argv + ["--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestValidate:
    def test_small_run_passes_and_prints_lines(self, capsys):
        rc = main(["validate", "--units", "150000", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in out
        assert "[PASS]" in out
        assert "swapped-branch" in out

    @pytest.mark.parametrize("units", ["0", "-5"])
    def test_units_below_one_rejected(self, units, capsys):
        assert main(["validate", "--units", units]) == 2
        assert "error: --units must be >= 1" in capsys.readouterr().err

    def test_threads_flag_removed(self, capsys):
        # The checks run on a pool of one thread per core; no flag sets it.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--units", "1000", "--threads", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--threads" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, threads, capsys):
        # Values that the deleted flag used to reject are still refused,
        # now by argparse as an unknown option.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--units", "1000", "--threads", threads])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--threads" in captured.err
        assert captured.out == ""

    def test_negative_seed_rejected(self, capsys):
        assert main(["validate", "--units", "1000", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_degenerate_oracle_reported(self, capsys):
        assert main(["validate", "--units", "5"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: validate task piecewise k=3: undefined VE")

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_first_error_in_suite_order(self, workers, monkeypatch, capsys):
        # Whichever oracle task ends first, the error is the first check's.
        monkeypatch.setattr("sarbias.harness._workers", lambda: workers)
        assert main(["validate", "--units", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: validate task piecewise k=3: undefined VE: no transmission "
            "in the unvaccinated arm\n")
        assert captured.out == ""

    def test_undefined_estimate_names_its_task(self, capsys):
        assert main(["validate", "--units", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: validate task tail k=30: undefined VE: no transmission "
            "in the unvaccinated arm\n")
        assert captured.out == ""
