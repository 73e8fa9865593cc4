import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from midnightq import chain, diffusion, projection
from midnightq.cli import _COMMANDS, _OPTIONS, build_config, main

SRC = Path(__file__).resolve().parents[1] / "src"
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
# Small arguments for each command, and the keys of its JSON output.
COMMAND_CASES = {
    "exact": (SMALL_ARGS, {"states", "probabilities", "residual", "mean", "sd"}),
    "formula": (
        [*SMALL_ARGS, "--elements", "48"],
        {"x", "density", "tail_rate", "gaussian_center", "ou_variance"},
    ),
    "projection": ([*SMALL_ARGS, "--elements", "48"], {"x", "density", "diagnostics"}),
    "simulate": (
        [*SMALL_ARGS, "--steps", "20000", "--seed", "3"],
        {"states", "probabilities", "steps", "burn_in", "seed", "mean", "mean_se", "sd"},
    ),
    "limit-check": (
        ["--n", "25,100", "--mean-los", "5.3", "--steps", "2", "--replications", "200"],
        {"entries", "warnings"},
    ),
    "compare": ([*SMALL_ARGS, "--elements", "48"], {"params", "methods", "tv"}),
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

    def test_null_config_value_exit_2(self, tmp_path, monkeypatch, capsys):
        # A null must not reach the flag parser as the text "None": the run
        # would write a file of that name.
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out": None, "n": 18, "lambda": 3.03, "mean_los": 5.3}))
        assert main(["exact", "--config", str(cfg_file)]) == 2
        assert "config keys without a value: ['out']" in capsys.readouterr().err
        assert not (tmp_path / "None").exists()

    def test_lambda_star_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"lambda_star": 0.3, "mean_los": 5.3, "n": "25,100", "steps": 2, "replications": 50}
        ))
        assert main(["limit-check", "--config", str(cfg_file)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["3", "[1, 2]"])
    def test_config_not_an_object_exit_2(self, content, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(content)
        assert main(["exact", *SMALL_ARGS, "--config", str(cfg_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--config must hold a JSON object" in captured.err
        assert "Traceback" not in captured.err

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
        field, *_, readers = _OPTIONS[key]
        command = next(c for c in ("exact", "formula", "simulate", "limit-check") if c in readers)
        file_value, flag_text = OPTION_VALUES[key]
        flag = "--" + key.replace("_", "-")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: file_value}))
        by_file = build_config([command, "--config", str(cfg_file)])
        assert by_file == build_config([command, flag, str(file_value)])
        assert getattr(by_file, field) != getattr(build_config([command]), field)
        both = build_config([command, "--config", str(cfg_file), flag, flag_text])
        assert both == build_config([command, flag, flag_text])
        assert getattr(both, field) != getattr(by_file, field)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["exact", *SMALL_ARGS, "--elements", "5"], "--elements"),
            (["formula", *SMALL_ARGS, "--truncation", "100"], "--truncation"),
            (["limit-check", "--n", "25,100", "--mean-los", "5.3", "--lambda", "3"], "--lambda"),
            (["compare", *SMALL_ARGS, "--steps", "7"], "--steps"),
        ],
    )
    def test_option_the_command_does_not_read_exit_2(self, argv, flag, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{argv[0]} does not read {flag}" in captured.err

    def test_config_key_the_command_does_not_read_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid_lo": -10, "grid_hi": 30}))
        assert main(["exact", *SMALL_ARGS, "--config", str(cfg_file)]) == 2
        assert "exact does not read --grid-lo, --grid-hi" in capsys.readouterr().err

    def test_seed_out_and_format_are_read_by_every_command(self):
        for command in ("exact", "formula", "projection", "simulate", "limit-check", "compare"):
            fmt = "json" if command in ("limit-check", "compare") else "csv"
            cfg = build_config([command, "--seed", "1", "--out", "a", "--format", fmt])
            assert (cfg.seed, cfg.out, cfg.fmt) == (1, "a", fmt)

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
    @pytest.mark.parametrize(
        "command, fmt",
        [(command, "json") for command in COMMAND_CASES]
        + [(command, "csv") for command in ("exact", "formula", "projection", "simulate")],
    )
    def test_out_file_matches_stdout_and_json_keys(self, command, fmt, tmp_path, capsys):
        args, keys = COMMAND_CASES[command]
        argv = [command, *args, "--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()
        if fmt == "json":
            assert set(json.loads(printed)) == keys

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

    def test_failed_solve_writes_no_out_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["exact", "--n", "5", "--lambda", "1.5", "--mu", "0.25", "--out", str(out)]) == 3
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exit_2(self, target, tmp_path, capsys):
        out = tmp_path / target
        assert main(["formula", *SMALL_ARGS, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err and "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

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
        "argv, flag, allocator",
        [
            (["projection", *SMALL_ARGS, "--elements", "128"], "--elements",
             (projection, "build_basis")),
            (["compare", *SMALL_ARGS, "--elements", "128"], "--elements",
             (projection, "build_basis")),
            (["simulate", *SMALL_ARGS, "--steps", "200000"], "--steps",
             (chain, "simulate_path")),
            (["limit-check", "--n", "25,100", "--mean-los", "5.3", "--replications", "10000"],
             "--replications", (chain, "simulate_replications")),
            (["formula", *SMALL_ARGS, "--elements", "2000"], "--elements",
             (projection, "working_domain")),
        ],
    )
    def test_input_sized_arrays_over_budget_exit_2(self, argv, flag, allocator, monkeypatch,
                                                    capsys):
        # Under a 1 MiB budget: 2.9 MB of Gram assembly at 128 elements, a
        # 1.6 MB path of 2·10^5 days, 1.2 MB for 10^4 replications, 2 MB for a
        # 4,001-point formula table.  Each is refused before the function
        # that would allocate it is called.
        monkeypatch.setattr(chain, "_memory_budget", lambda: 2**20)

        def allocating(*args, **kwargs):
            raise AssertionError("allocated past the memory refusal")

        monkeypatch.setattr(*allocator, allocating)
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["exact", "compare"])
    def test_nan_tol_exit_2(self, command, capsys):
        assert main([command, *SMALL_ARGS, "--tol", "nan"]) == 2
        err = capsys.readouterr().err
        assert err == "invalid configuration: tol must be positive, got nan\n"

    def test_refused_compare_elements_never_solves_the_chain(self, monkeypatch, capsys):
        def solving(*args, **kwargs):
            raise AssertionError("solved the exact chain before refusing --elements")

        monkeypatch.setattr(chain, "stationary_pmf", solving)
        assert main(["compare", *SMALL_ARGS, "--elements", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and "--elements" in err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_simulate_without_days_names_steps(self, steps, capsys):
        assert main(["simulate", *SMALL_ARGS, "--steps", steps]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid configuration: --steps must be at least 1, got {steps}\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--steps", "-1", "horizon must be >= 0, got -1"),
         ("--replications", "0", "replications must be >= 1, got 0")],
    )
    def test_limit_check_bounds_exit_2(self, flag, value, message, capsys):
        # The CLI refuses the flag by its own name; the harness field it
        # feeds (the first word of ``message``) keeps its own check.
        args = ["limit-check", "--n", "25,100", "--mean-los", "5.3", flag, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        bound = message.split(">= ")[1]
        assert err == f"invalid configuration: {flag} must be at least {bound}\n"
        assert flag in err
        fields = {"system_sizes": (25, 100), "horizon": 0, "replications": 1,
                  "service_prob": 1 / 5.3, message.split()[0]: int(value)}
        with pytest.raises(ValueError, match=f"^{message}$"):
            diffusion.LimitHarnessConfig(**fields)

    @pytest.mark.parametrize("command", ["exact", "compare"])
    def test_truncation_below_server_count_exit_2(self, command, capsys):
        # At N = 66 the window starts at L = 7, so --truncation 10 would
        # leave a 4-state lattice; it is refused as below the server count.
        args = [command, "--n", "66", "--lambda", "11.37", "--mean-los", "5.3"]
        assert main([*args, "--truncation", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid configuration: --truncation 10 is below the server count 66\n"
        )

    @pytest.mark.parametrize("truncation, status", [("1000", 0), ("379", 2)])
    def test_truncation_at_low_load_may_be_below_n(self, truncation, status, capsys):
        # At N = 10^5, lambda = 100, mu = 0.5 the default window is [89, 380]:
        # any K from 380 up bounds the count too, though it is below N.
        args = ["exact", "--n", "100000", "--lambda", "100", "--mu", "0.5", "--format", "json"]
        assert main([*args, "--truncation", truncation]) == status
        captured = capsys.readouterr()
        if status == 2:
            assert captured.err == (
                "invalid configuration: --truncation 379 is below the default top 380\n"
            )
        else:
            result = json.loads(captured.out)
            assert result["states"][-1] == 1000 and result["residual"] <= 1e-12

    @pytest.mark.parametrize("mean_los", ["0.5", "1"])
    def test_limit_check_refuses_mean_los_as_exact_does(self, mean_los, capsys):
        assert main(["exact", *SMALL_ARGS[:4], "--mean-los", mean_los]) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("invalid configuration: mean_los must exceed 1 day")
        assert main(["limit-check", "--n", "25,100", "--mean-los", mean_los, "--steps", "2"]) == 2
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("mu", ["2", "nan"])
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_mu_outside_unit_interval_named_by_its_flag(self, command, mu, capsys):
        # Every command reads --mu through RunConfig.service_prob, so each
        # names the flag, not the library field it feeds.
        sizes = ["--n", "25"] if command == "limit-check" else ["--n", "18", "--lambda", "3.03"]
        assert main([command, *sizes, "--mu", mu]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = f"invalid configuration: --mu must lie in (0, 1), got {float(mu)!r}\n"
        assert captured.err == expected

    @pytest.mark.parametrize("truncation", ["100", "1000000000"])
    def test_refused_compare_truncation_never_projects(self, truncation, monkeypatch, capsys):
        # Below the server count, and a banded LU of terabytes at load 0.999.
        def projecting(*args, **kwargs):
            raise AssertionError("projected before refusing --truncation")

        monkeypatch.setattr(projection, "project_stationary_density", projecting)
        lam = repr(0.999 * 500 / 5.3)
        args = ["compare", "--n", "500", "--lambda", lam, "--mean-los", "5.3"]
        assert main([*args, "--truncation", truncation]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and "--truncation" in err

    @staticmethod
    def exact_child(tmp_path, n, lam, mu):
        """Run ``exact`` at (n, lam, mu) in a child process; check its exit,
        residual and flow balance, and return (states, peak RSS in KiB)."""
        out = tmp_path / "exact.json"
        argv = [sys.executable, "-m", "midnightq.cli", "exact", "--n", str(n),
                "--lambda", repr(lam), "--mu", repr(mu), "--format", "json",
                "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        with subprocess.Popen(argv, env=env, stderr=subprocess.PIPE) as proc:
            err = proc.stderr.read()
            # The child's own resource usage, as RUSAGE_CHILDREN reports it
            # when it is the only child waited for.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, err
        result = json.loads(out.read_text())
        states = np.asarray(result["states"])
        pi = np.asarray(result["probabilities"])
        assert np.array_equal(states, np.arange(pi.size))
        assert result["residual"] <= 1e-12
        assert abs(lam - mu * float(np.minimum(states, n) @ pi)) <= 1e-8
        return states, usage.ru_maxrss

    def test_exact_near_critical_large_pool(self, tmp_path):
        # N = 20,000 at load 0.99: the window [18,578, 23,764] solves in
        # about a second; on the full lattice 0..K the solve took 2.7 GB.
        n, mu = 20_000, 1 / 5.3
        _, rss = self.exact_child(tmp_path, n, 0.99 * n * mu, mu)
        assert rss < 2**20  # KiB: 1 GiB

    @pytest.mark.parametrize("n, lam, mu, top", [
        (20_000, 0.5 * 20_000 / 5.3, 1 / 5.3, 11_260), (100_000, 100.0, 0.5, 380),
    ])
    def test_exact_low_load_window_ends_below_n(self, tmp_path, n, lam, mu, top):
        # Where the law lives far below N, a lower busy level bounds the
        # count: K = N + 58 took 20 s and 650 MiB at N = 20,000, load 0.5,
        # and K = N + 7 was refused at N = 10^5 (a 38 GiB banded LU).
        states, rss = self.exact_child(tmp_path, n, lam, mu)
        assert states[-1] == top
        assert rss < 300 * 2**10  # KiB: 300 MiB

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

    def test_simulate_mean_and_sd_are_its_printed_law_s(self, capsys):
        args = ["simulate", *SMALL_ARGS, "--steps", "100000", "--seed", "3", "--format", "json"]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        mean, sd = chain.lattice_moments(np.array(out["states"]), np.array(out["probabilities"]))
        assert (out["mean"], out["sd"]) == (mean, sd)

    def test_simulate_holds_the_path_and_one_block(self, tmp_path):
        # The int64 path, 8 (s + 1) bytes, plus a fixed allowance of 6 MiB:
        # one 65,536-day block (its uniforms, steps and cell lookups, 512 KiB
        # each, and the Python lists the day loop reads, up to 2 MiB each),
        # the saturated cell table and the occupation table.  Measured: 5.3
        # MB over the path.  A float64 copy of the path, 8 MB, does not fit.
        steps = 1_000_000
        args = ["simulate", "--n", "66", "--lambda", "11.37", "--mean-los", "5.3",
                "--steps", str(steps), "--out", str(tmp_path / "sim.csv")]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (steps + 1) + 6 * 2**20

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

    def test_each_command_has_its_own_steps_default(self, capsys):
        # Without --steps, limit-check steps 10 days, not simulate's 10^6.
        args = ["limit-check", "--n", "25,100", "--mean-los", "5.3"]
        assert build_config(args).steps == 10
        assert build_config(["simulate", *SMALL_ARGS]).steps == 1_000_000
        assert main(args) == 0
        by_default = capsys.readouterr().out
        assert main([*args, "--steps", "10"]) == 0
        assert capsys.readouterr().out == by_default

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

    @pytest.mark.parametrize("command", ["formula", "projection", "compare"])
    @pytest.mark.parametrize("end", ["--grid-lo=-10", "--grid-hi=40"])
    def test_one_sided_domain_exit_2(self, command, end, capsys):
        assert main([command, *SMALL_ARGS, end]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "both grid_lo and grid_hi" in captured.err

    @pytest.mark.parametrize("command", ["formula", "projection", "compare"])
    @pytest.mark.parametrize("domain", [("-10", "inf"), ("-inf", "30"), ("nan", "30"),
                                        ("30", "-10")])
    def test_domain_not_finite_and_increasing_exit_2(self, command, domain, capsys):
        lo, hi = domain
        assert main([command, *SMALL_ARGS, f"--grid-lo={lo}", f"--grid-hi={hi}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid_lo and grid_hi must be finite and increasing" in captured.err
        assert f"{float(lo)!r}, {float(hi)!r}" in captured.err

    def test_formula_domain_need_not_straddle_zero(self, capsys):
        assert main(["formula", *SMALL_ARGS, "--grid-lo=5", "--grid-hi=30"]) == 0
        assert capsys.readouterr().out.startswith("x,density\n5,")

    def test_misaligned_domain_is_shifted_onto_zero(self, capsys):
        # With 160 elements of 0.251875 on (-10.3, 30), zero is 40.9 elements
        # from the left end: the grid shifts by 0.1 elements and solves.
        def tvs(lo):
            assert main(["compare", *SMALL_ARGS, f"--grid-lo={lo}", "--grid-hi=30"]) == 0
            return json.loads(capsys.readouterr().out)["tv"]

        aligned, shifted = tvs(-10), tvs(-10.3)
        assert aligned.keys() == shifted.keys()
        for key in aligned:
            assert abs(shifted[key] - aligned[key]) < 1e-4
        assert main(["projection", *SMALL_ARGS, "--grid-lo=-10.3", "--grid-hi=30"]) == 0
        assert capsys.readouterr().out.startswith("x,density\n")

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
