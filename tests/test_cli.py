import json
import statistics
import time

import pytest

from midnightq.cli import _OPTIONS, build_config, main

SMALL_ARGS = ["--n", "18", "--lambda", "3.03", "--mean-los", "5.3"]
# Per option: a config-file value and a different flag text, neither the default.
OPTION_VALUES = {
    "n": (18, "25"),
    "lambda": (3.03, "4.5"),
    "mu": (0.2, "0.3"),
    "mean_los": (5.3, "6.5"),
    "truncation": (120, "150"),
    "grid_lo": (-10.0, "-12.5"),
    "grid_hi": (30.0, "40.5"),
    "elements": (40, "60"),
    "tol": (1e-10, "1e-11"),
    "steps": (100, "200"),
    "replications": (50, "70"),
    "seed": (9, "4"),
    "beta_star": (0.5, "0.75"),
    "out": ("a.csv", "b.csv"),
    "format": ("json", "csv"),
}


class TestConfigParsing:
    def test_flags_populate_config(self):
        cfg = build_config(["exact", *SMALL_ARGS, "--truncation", "120", "--tol", "1e-10"])
        assert cfg.command == "exact"
        assert cfg.n == 18
        assert cfg.truncation == 120
        assert cfg.tol == 1e-10

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 18, "lambda": 3.03, "mean_los": 5.3, "seed": 9}))
        cfg = build_config(["simulate", "--config", str(cfg_file)])
        assert cfg.n == 18
        assert cfg.seed == 9

    def test_flags_win_over_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 18, "lambda": 3.03, "mean_los": 5.3, "seed": 9}))
        cfg = build_config(["simulate", "--config", str(cfg_file), "--seed", "4"])
        assert cfg.seed == 4

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="unknown config keys"):
            build_config(["exact", "--config", str(cfg_file)])

    def test_lambda_star_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"lambda_star": 0.3, "mean_los": 5.3, "n": "25,100", "steps": 2, "replications": 50}
        ))
        assert main(["limit-check", "--config", str(cfg_file)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_config(["exact", "--bogus", "1"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_sizes_list_for_limit_check(self):
        cfg = build_config(["limit-check", "--n", "25,100,400", "--mu", "0.2"])
        assert cfg.sizes == (25, 100, 400)

    @pytest.mark.parametrize("key", sorted(_OPTIONS))
    def test_option_key_and_flag_set_the_same_field(self, key, tmp_path):
        field = _OPTIONS[key][0]
        file_value, flag_text = OPTION_VALUES[key]
        flag = "--" + key.replace("_", "-")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: file_value}))
        by_file = build_config(["exact", "--config", str(cfg_file)])
        assert by_file == build_config(["exact", flag, str(file_value)])
        assert getattr(by_file, field) != getattr(build_config(["exact"]), field)
        both = build_config(["exact", "--config", str(cfg_file), flag, flag_text])
        assert both == build_config(["exact", flag, flag_text])
        assert getattr(both, field) != getattr(by_file, field)

    def test_config_values_are_checked_like_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"format": "xml"}))
        with pytest.raises(SystemExit) as err:
            build_config(["exact", *SMALL_ARGS, "--config", str(cfg_file)])
        assert err.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_one_server_count_outside_limit_check(self, capsys):
        assert main(["exact", "--n", "25,100", "--lambda", "3.03", "--mu", "0.2"]) == 2
        assert "one server count" in capsys.readouterr().err

    def test_mu_and_mean_los_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            build_config(["exact", "--n", "18", "--lambda", "3.03", "--mu", "0.2", "--mean-los", "5.3"])


class TestCommands:
    def test_exact_writes_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["exact", *SMALL_ARGS, "--truncation", "150"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert data.startswith(b"state,probability\n")
        assert len(data.splitlines()) == 152

    def test_missing_params_exit_2(self, capsys):
        assert main(["exact", "--n", "18"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_exact_overloaded_exit_3(self, capsys):
        # load 1.5 / (5 * 0.25) = 1.2: the chain is transient
        assert main(["exact", "--n", "5", "--lambda", "1.5", "--mu", "0.25"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solver failure" in captured.err

    def test_simulate_overloaded_warns(self, capsys):
        args = ["simulate", "--n", "5", "--lambda", "1.5", "--mu", "0.25", "--steps", "200"]
        assert main(args) == 0
        assert "warning: load 1.2 >= 1" in capsys.readouterr().err

    def test_simulate_occupation_too_large_exit_2(self, capsys):
        # At load 10^7 the count passes 10^10 in 1,000 days: its occupation
        # frequencies would take 149 GiB.
        args = ["simulate", "--n", "5", "--lambda", "1e7", "--mean-los", "5.3", "--steps", "1000"]
        start = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert "--steps" in err and "load" in err
        assert "Traceback" not in err

    def test_exact_kernel_too_large_exit_2(self, capsys):
        # A truncation of 10^9 states: the banded LU would take terabytes.
        lam = repr(0.999 * 500 / 5.3)
        args = ["exact", "--n", "500", "--lambda", lam, "--mean-los", "5.3"]
        start = time.perf_counter()
        assert main([*args, "--truncation", "1000000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "--truncation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, truncation", [("exact", "18"), ("exact", "40"), ("compare", "20")]
    )
    def test_lattice_narrower_than_band_exits_0(self, command, truncation, capsys):
        # At N = 18 a kernel row spans 47 states, more than these lattices hold.
        assert main([command, *SMALL_ARGS, "--truncation", truncation]) == 0
        capsys.readouterr()

    def test_simulate_mean_se_matches_seed_spread(self, capsys):
        means, ses = [], []
        for seed in range(8):
            args = ["simulate", *SMALL_ARGS, "--steps", "100000", "--seed", str(seed),
                    "--format", "json"]
            assert main(args) == 0
            payload = json.loads(capsys.readouterr().out)
            means.append(payload["mean"])
            ses.append(payload["mean_se"])
        spread = statistics.stdev(means)
        assert all(spread / 3 <= se <= 3 * spread for se in ses)

    def test_formula_emits_density(self, tmp_path):
        out = tmp_path / "formula.csv"
        assert main(["formula", *SMALL_ARGS, "--out", str(out)]) == 0
        assert out.read_text().startswith("x,density\n")

    def test_formula_critical_load_exit_3(self, capsys):
        mu = 0.25
        args = ["formula", "--n", "40", "--lambda", str(40 * mu), "--mu", str(mu)]
        assert main(args) == 3
        assert "γ ≤ 0" in capsys.readouterr().err

    def test_projection_json_includes_diagnostics(self, tmp_path):
        out = tmp_path / "proj.json"
        args = ["projection", *SMALL_ARGS, "--elements", "48", "--format", "json", "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"x", "density", "diagnostics"}
        assert set(payload["diagnostics"]) == {
            "norm_sq",
            "residual",
            "condition_estimate",
            "clipped_mass",
        }

    def test_projection_small_stay_solves(self, capsys):
        # The shifted Cholesky solve alone left residual 1.3e-12 > tol 1.1e-14 here.
        args = ["projection", "--n", "46", "--lambda", "19.175", "--mean-los", "1.111",
                "--elements", "32"]
        assert main(args) == 0
        capsys.readouterr()

    def test_simulate_seeded_runs_are_identical(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["simulate", *SMALL_ARGS, "--steps", "50000", "--seed", "5"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_limit_check_reports_and_warns(self, tmp_path, capsys):
        out = tmp_path / "limit.json"
        args = [
            "limit-check", "--n", "25,100", "--mean-los", "5.3",
            "--steps", "5", "--replications", "400", "--seed", "1",
            "--out", str(out),
        ]
        assert main(args) == 0
        assert "warning" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert [e["n"] for e in payload["entries"]] == [25, 100]

    def test_beta_star_flag_matches_config_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"beta_star": 0.5}))
        args = ["limit-check", "--n", "25,100", "--mean-los", "5.3",
                "--steps", "3", "--replications", "200", "--seed", "2"]
        assert main([*args, "--beta-star", "0.5"]) == 0
        by_flag = capsys.readouterr().out
        assert main([*args, "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out == by_flag
        assert main(args) == 0
        assert capsys.readouterr().out != by_flag

    def test_beta_star_too_large_exit_2(self, capsys):
        # beta_star >= sqrt(4) leaves the N = 4 system no arrivals.
        args = ["limit-check", "--n", "4,25", "--mean-los", "5.3", "--beta-star", "2.5"]
        assert main(args) == 2
        assert "beta_star" in capsys.readouterr().err

    def test_limit_check_rejects_csv(self, capsys):
        args = ["limit-check", "--n", "25,100", "--mu", "0.2", "--format", "csv"]
        assert main(args) == 2
        capsys.readouterr()

    def test_compare_report_schema(self, tmp_path):
        out = tmp_path / "cmp.json"
        args = ["compare", *SMALL_ARGS, "--elements", "96", "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"params", "methods", "tv"}
        assert [m["name"] for m in payload["methods"]] == ["exact", "formula", "projection"]
        for method in payload["methods"]:
            assert set(method) == {"name", "mean", "sd", "p_wait"}
        assert set(payload["tv"]) == {
            "formula_vs_exact",
            "projection_vs_exact",
            "projection_vs_formula",
        }
        assert all(0.0 <= v < 0.1 for v in payload["tv"].values())

    def test_compare_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        args = ["compare", *SMALL_ARGS, "--elements", "64", "--truncation", "200"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
