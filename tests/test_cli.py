"""End-to-end command-line checks through subprocess, including exit codes,
output determinism, and the environment-variable config hook."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moescale import (
    DenseLawParams,
    HardwareConfig,
    ScalingLawParams,
    cli,
    loss_optimal_result,
    min_cost_for_bounded_loss,
    predict_loss,
    runs_to_csv,
)

from conftest import DENSE_TRUTH, GEOMETRY_ROWS, TRUTH
from test_inference import measured_style_profile


BATCH_OVERFLOW = "serving batch must be finite; check the KV geometry and GPU memory"


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env.pop("MOESCALE_CONFIG", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "moescale", *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
    )


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture(scope="module")
def files(tmp_path_factory, runs_clean, hw, profile):
    """Canonical input files shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    (d / "truth.json").write_text(TRUTH.to_json())
    (d / "dense_truth.json").write_text(DENSE_TRUTH.to_json())
    (d / "hw.json").write_text(hw.to_json())
    (d / "profile.json").write_text(profile.to_json())
    (d / "measured.json").write_text(measured_style_profile().to_json())
    runs_to_csv(runs_clean, d / "runs.csv")
    with open(d / "geometry.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["hidden_dim", "n_layers", "n_params"])
        w.writerows(GEOMETRY_ROWS)
    return d


def serving_flags(files, profile="profile.json"):
    return (
        "--hardware", str(files / "hw.json"),
        "--profile", str(files / profile),
        "--geometry", str(files / "geometry.csv"),
    )


class TestFit:
    def test_fit_recovers_and_is_deterministic(self, files, tmp_path):
        out1 = tmp_path / "fit1.json"
        out2 = tmp_path / "fit2.json"
        results = []
        for out in (out1, out2):
            proc = run_cli(
                "fit",
                "--runs", str(files / "runs.csv"),
                "--params", str(out),
                "--max-starts", "192",
            )
            assert proc.returncode == 0, proc.stderr
            # drop the trailing "wrote <path>" line; the paths differ by design
            results.append(
                [line for line in proc.stdout.splitlines() if not line.startswith("wrote ")]
            )
        match = re.search(r"rmsle=([0-9.e+-]+)", "\n".join(results[0]))
        assert match and float(match.group(1)) < 1.0e-6
        assert results[0] == results[1]
        assert out1.read_bytes() == out2.read_bytes()

    def test_moe_and_dense_reports_share_one_format(self, files, tmp_path):
        reports = {}
        for kind, extra in (("moe", ()), ("dense", ("--dense",))):
            report = tmp_path / f"{kind}_report.json"
            proc = run_cli(
                "fit",
                "--runs", str(files / "runs.csv"),
                "--params", str(tmp_path / f"{kind}.json"),
                "--report", str(report),
                "--max-starts", "8",
                *extra,
            )
            assert proc.returncode == 0, proc.stderr
            reports[kind] = json.loads(report.read_text())
        assert list(reports["moe"]) == list(reports["dense"])
        ScalingLawParams.from_dict(reports["moe"]["params"])
        DenseLawParams.from_dict(reports["dense"]["params"])
        assert list(reports["dense"]["per_start"][0]["init"]) == [
            "alpha", "beta", "log_coef_n", "log_coef_d", "l0",
        ]

    def test_missing_column_exits_one(self, files, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n_dense,d_tokens,val_loss\n1e8,1e10,2.0\n")
        proc = run_cli("fit", "--runs", str(bad), "--params", str(tmp_path / "p.json"))
        assert proc.returncode == 1
        assert "experts" in proc.stderr

    def test_missing_file_exits_one(self, tmp_path):
        proc = run_cli(
            "fit", "--runs", str(tmp_path / "nope.csv"), "--params", str(tmp_path / "p.json")
        )
        assert proc.returncode == 1

    def test_usage_error_exits_one(self):
        proc = run_cli("fit")  # required flags absent
        assert proc.returncode == 1


class TestPredict:
    def test_single_point_matches_library(self, files):
        proc = run_cli(
            "predict", "--params", str(files / "truth.json"),
            "--n", "2e8", "--d", "1e10", "--e", "8",
        )
        assert proc.returncode == 0, proc.stderr
        got = float(proc.stdout.strip())
        assert got == float(predict_loss(2.0e8, 1.0e10, 8.0, TRUTH))

    def test_batch_csv_matches_library(self, files, tmp_path, runs_clean):
        out = tmp_path / "pred.csv"
        proc = run_cli(
            "predict", "--params", str(files / "truth.json"),
            "--csv", str(files / "runs.csv"), "-o", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(out.read_text())
        assert len(rows) == len(runs_clean)
        for row, run in zip(rows, sorted(runs_clean, key=lambda r: (r.n_dense, r.d_tokens, r.experts))):
            expected = float(predict_loss(run.n_dense, run.d_tokens, run.experts, TRUTH))
            assert float(row["predicted_loss"]) == expected

    def test_dense_params_reject_experts(self, files):
        proc = run_cli(
            "predict", "--params", str(files / "dense_truth.json"),
            "--n", "1e9", "--d", "1e10", "--e", "8",
        )
        assert proc.returncode == 1
        assert "expert" in proc.stderr.lower()

    def test_dense_params_work_for_one_expert(self, files):
        from moescale import predict_loss_dense

        proc = run_cli(
            "predict", "--params", str(files / "dense_truth.json"),
            "--n", "1e9", "--d", "1e10", "--e", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.strip()) == float(
            predict_loss_dense(1.0e9, 1.0e10, DENSE_TRUTH)
        )

    @staticmethod
    def predict_csv(files, tmp_path, params, lines, *extra):
        path = tmp_path / "points.csv"
        path.write_text("\n".join(["n_dense,d_tokens,experts", *lines]) + "\n")
        return run_cli("predict", "--params", str(files / params), "--csv", str(path), *extra)

    def test_header_only_csv_writes_an_empty_table(self, files, tmp_path):
        out = tmp_path / "pred.out"
        for fmt, expected in (("csv", b"\r\n"), ("json", b"[]\n")):
            proc = self.predict_csv(files, tmp_path, "truth.json", [], "--format", fmt, "-o", str(out))
            assert proc.returncode == 0, proc.stderr
            assert out.read_bytes() == expected

    def test_nonpositive_size_row_exits_one(self, files, tmp_path):
        proc = self.predict_csv(files, tmp_path, "truth.json", ["1e9,1e10,8", "0,1e10,8"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: N must be positive\n"

    def test_dense_params_reject_expert_rows(self, files, tmp_path):
        proc = self.predict_csv(files, tmp_path, "dense_truth.json", ["1e9,1e10,1", "1e9,1e10,4"])
        assert proc.returncode == 1
        assert proc.stderr == "error: dense-law parameters only predict experts=1 rows\n"

    @pytest.mark.parametrize(
        "params, lines, message",
        [
            ("truth.json", ["1e9,1e10,0.5", "-1,1e10,8"], "expert count must be >= 1"),
            ("dense_truth.json", ["-1,1e10,1", "1e9,1e10,4"], "N and D must be positive"),
        ],
    )
    def test_first_bad_row_names_the_error(self, files, tmp_path, params, lines, message):
        proc = self.predict_csv(files, tmp_path, params, lines)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"


class TestAllocate:
    def test_optimal_matches_library(self, files, arch, hw, geom, profile):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"),
            "--budget", "1e20", "--mode", "optimal", "--e-prime", "8",
            *serving_flags(files),
        )
        assert proc.returncode == 0, proc.stderr
        row = parse_csv(proc.stdout)[0]
        ref = loss_optimal_result(1.0e20, 8.0, TRUTH, arch, hw, geom, profile)
        assert float(row["n_dense"]) == ref.n_dense
        assert float(row["predicted_loss"]) == ref.predicted_loss
        assert float(row["cost_per_token"]) == ref.cost_per_token
        assert float(row["best_gpus"]) == ref.best_gpus

    def test_bound_loss_beats_base_cost(self, files, arch, hw, geom, profile):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"),
            "--budget", "1e20", "--mode", "bound-loss",
            "--e-base", "4", "--e-prime", "16",
            *serving_flags(files),
        )
        assert proc.returncode == 0, proc.stderr
        row = parse_csv(proc.stdout)[0]
        base = loss_optimal_result(1.0e20, 4.0, TRUTH, arch, hw, geom, profile)
        assert float(row["predicted_loss"]) <= base.predicted_loss * (1 + 1e-9)
        assert float(row["cost_per_token"]) < base.cost_per_token
        assert float(row["overtrain_ratio"]) < 1.0

    def test_unreachable_target_exits_two(self, files):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"),
            "--budget", "1e20", "--mode", "bound-loss",
            "--e-base", "4", "--e-prime", "16", "--target-loss", "0.5",
            *serving_flags(files),
        )
        assert proc.returncode == 2
        assert "unreachable" in proc.stderr

    def test_pinned_search_window_exits_two(self, files):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"),
            "--budget", "1e20", "--mode", "optimal", "--n-min", "1e12",
            *serving_flags(files),
        )
        assert proc.returncode == 2
        assert "bound" in proc.stderr.lower()

    def test_infinite_search_bound_exits_one(self, files):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"),
            "--budget", "1e20", "--n-max", "inf",
            *serving_flags(files),
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: n_bounds must be finite\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--budget", "inf"), "budget_flops must be finite"),
            (("--budget", "1e20", "--rel-tol", "inf"), "rel_tol must be finite"),
        ],
    )
    @pytest.mark.parametrize("mode", ["optimal", "bound-loss", "bound-cost"])
    def test_nonfinite_input_exits_one(self, files, mode, flags, message):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"), "--mode", mode,
            "--e-base", "4", "--e-prime", "16", *flags, *serving_flags(files),
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {message}\n"

    def test_infinite_batch_exits_one(self, files):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"), "--budget", "1e20",
            "--profile", str(files / "profile.json"), "--mu", "5e-324",
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {BATCH_OVERFLOW}\n"

    def test_overflowing_tokens_exit_one(self, files):
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"),
            "--budget", "1e20", "--mode", "bound-loss", "--e-base", "4", "--e-prime", "16",
            "--n-min", "1e-300",
            *serving_flags(files),
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: D must be finite\n"

    def test_duality_round_trip(self, files, arch, hw, geom, profile):
        r1 = min_cost_for_bounded_loss(1.0e20, 4.0, 16.0, TRUTH, arch, hw, geom, profile)
        base = loss_optimal_result(1.0e20, 4.0, TRUTH, arch, hw, geom, profile)
        proc = run_cli(
            "allocate", "--params", str(files / "truth.json"),
            "--budget", "1e20", "--mode", "bound-cost",
            "--e-base", "4", "--e-prime", "16",
            "--cost-bound", repr(r1.cost_per_token),
            *serving_flags(files),
        )
        assert proc.returncode == 0, proc.stderr
        row = parse_csv(proc.stdout)[0]
        assert float(row["predicted_loss"]) <= base.predicted_loss * (1.0 + 1.0e-4)
        assert float(row["cost_per_token"]) <= r1.cost_per_token * (1.0 + 1.0e-9)


class TestSweep:
    def test_row_count_and_determinism(self, files):
        args = (
            "sweep", "--params", str(files / "truth.json"),
            "--budgets", "1e19,1e20", "--experts", "4,16",
            *serving_flags(files),
        )
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        rows = parse_csv(a.stdout)
        assert len(rows) == 2 * 2 * 65
        assert {r["kind"] for r in rows} == {"optimal", "curve"}

    def test_json_format(self, files):
        proc = run_cli(
            "sweep", "--params", str(files / "truth.json"),
            "--budgets", "1e20", "--experts", "8",
            "--format", "json",
            *serving_flags(files),
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert len(rows) == 65
        assert isinstance(rows[0]["n_dense"], float)


class TestCost:
    def test_table_matches_library(self, files, hw, geom, profile):
        from moescale import min_cost_over_gpus

        proc = run_cli(
            "cost", "--n", "1e9", "--e", "8", *serving_flags(files),
        )
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        gpu_rows = [r for r in rows if r["kind"] == "gpu"]
        min_rows = [r for r in rows if r["kind"] == "min"]
        assert len(gpu_rows) == hw.max_gpus
        assert len(min_rows) == 1
        choice = min_cost_over_gpus(1.0e9, 8.0, hw, geom, profile)
        assert float(min_rows[0]["cost_per_token"]) == choice.cost_per_token
        assert int(float(min_rows[0]["gpus"])) == choice.gpus
        cheapest = min(
            (r for r in gpu_rows if r["feasible"] == "True"), key=lambda r: float(r["cost_per_token"])
        )
        assert min_rows[0] == {**cheapest, "kind": "min"}

    def test_infeasible_rows_flagged(self, files):
        proc = run_cli(
            "cost", "--n", "2e10", "--e", "8", *serving_flags(files),
        )
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        feas = [r["feasible"] for r in rows if r["kind"] == "gpu"]
        assert "False" in feas and "True" in feas

    def test_nothing_feasible_exits_two(self, files):
        proc = run_cli(
            "cost", "--n", "1e11", "--e", "8", *serving_flags(files),
        )
        assert proc.returncode == 2

    def test_overflowing_weights_exit_one(self, files):
        """The expanded parameter count overflows: one error line, no
        traceback and no numpy warning."""
        proc = run_cli(
            "cost", "--n", "1.7e308", "--e", "8", "--mu", "3.3", "--profile", str(files / "profile.json"),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: model weight bytes must be finite\n"

    @pytest.mark.parametrize("cause", ["kv_underflow", "infinite_memory"])
    def test_infinite_batch_exits_one(self, files, tmp_path, cause):
        """KV bytes per token that underflow, or GPU memory so large that two
        GPUs' worth overflows, make the batch infinite and the throughput
        nan: an error, not a row. (Memory that is itself infinite is a
        hardware field error; see TestNumericFlags.)"""
        if cause == "kv_underflow":
            serving = ("--profile", str(files / "profile.json"), "--mu", "5e-324")
        else:
            hw = json.loads((files / "hw.json").read_text())
            (tmp_path / "hw.json").write_text(json.dumps({**hw, "gpu_mem_bytes": 1.7e308}))
            serving = (*serving_flags(files), "--hardware", str(tmp_path / "hw.json"))
        proc = run_cli("cost", "--n", "1e9", "--e", "8", *serving)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {BATCH_OVERFLOW}\n"

    def test_nonpositive_latency_is_a_noted_row(self, files):
        """A measured-style profile extrapolates to a nonpositive latency on
        one GPU; that row is infeasible with a note and two GPUs serve."""
        proc = run_cli("cost", "--n", "1e9", "--e", "32", *serving_flags(files, "measured.json"))
        assert proc.returncode == 0, proc.stderr
        rows = parse_csv(proc.stdout)
        assert (rows[0]["feasible"], rows[0]["note"]) == ("False", "interpolated latency is nonpositive")
        assert rows[-1]["kind"] == "min" and rows[-1]["gpus"] == "2"


class TestSynthCommands:
    def test_runs_deterministic_and_noise_controlled(self, files, tmp_path):
        common = (
            "synth", "runs", "--params", str(files / "truth.json"),
            "--sizes", "1e8,2e8", "--tokens", "1e10,2e10", "--experts", "1,8",
            "--sigma", "0.01",
        )
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert run_cli(*common, "--seed", "3", "-o", str(a)).returncode == 0
        assert run_cli(*common, "--seed", "3", "-o", str(b)).returncode == 0
        assert run_cli(*common, "--seed", "4", "-o", str(c)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_profile_generation_round_trips(self, tmp_path):
        from moescale import LatencyProfile

        out = tmp_path / "prof.json"
        proc = run_cli(
            "synth", "profile",
            "--prompt", "0.004,2e-5,1e-12", "--decode", "0.002,1.5e-6,8e-13",
            "--gpus", "1,2", "-o", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        prof = LatencyProfile.from_json(out.read_text())
        # default grids: 4 batches x 4 model sizes x 2 stages x 2 gpu counts
        assert len(prof.samples) == 4 * 4 * 2 * 2


class TestVerify:
    def test_oracle_comparisons_pass(self, files):
        proc = run_cli("verify", *serving_flags(files), "--steps", "2048")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[PASS]" in proc.stdout
        assert "[FAIL]" not in proc.stdout

    def test_infinite_batch_exits_one(self, files):
        proc = run_cli("verify", "--profile", str(files / "profile.json"), "--mu", "5e-324")
        assert proc.returncode == 1
        assert proc.stderr == f"error: {BATCH_OVERFLOW}\n"


class TestColdImport:
    def test_non_fit_commands_load_no_scipy(self, files, tmp_path):
        """Importing the package and pricing a model loads no scipy module;
        fit and verify still import the optimizers they need."""
        argv = ["cost", "--n", "1e9", "--e", "8", *serving_flags(files), "-o", str(tmp_path / "cost.csv")]
        script = "\n".join([
            "import sys",
            "import moescale, moescale.cli",
            f"code = moescale.cli.main({argv!r})",
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]",
            "print(code, loaded)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n"
        fit = run_cli(
            "fit", "--runs", str(files / "runs.csv"), "--params", str(tmp_path / "fit.json"),
            "--max-starts", "4",
        )
        assert fit.returncode == 0, fit.stderr
        verify = run_cli("verify", *serving_flags(files), "--steps", "2048")
        assert verify.returncode == 0, verify.stdout + verify.stderr


class TestEnvConfig:
    def test_config_sets_defaults_and_flags_win(self, files, tmp_path):
        base = (
            "synth", "runs", "--params", str(files / "truth.json"),
            "--sizes", "1e8", "--tokens", "1e10", "--experts", "8",
        )
        clean, noisy, forced = tmp_path / "clean.csv", tmp_path / "noisy.csv", tmp_path / "forced.csv"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sigma": 0.05}))
        assert run_cli(*base, "-o", str(clean)).returncode == 0
        env = {"MOESCALE_CONFIG": str(cfg)}
        assert run_cli(*base, "-o", str(noisy), env=env).returncode == 0
        assert clean.read_bytes() != noisy.read_bytes()
        assert run_cli(*base, "--sigma", "0", "-o", str(forced), env=env).returncode == 0
        assert forced.read_bytes() == clean.read_bytes()

    # full_grid was the fit's run-every-start switch; the fit has no starts
    # grid any more, so the key is as unknown as any other.
    @pytest.mark.parametrize("key", ["bogus_option", "full_grid"])
    def test_unknown_config_key_exits_one(self, files, tmp_path, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: 1}))
        proc = run_cli(
            "synth", "runs", "--params", str(files / "truth.json"),
            "--sizes", "1e8", "--tokens", "1e10", "--experts", "8",
            "-o", str(tmp_path / "x.csv"), env={"MOESCALE_CONFIG": str(cfg)},
        )
        assert proc.returncode == 1
        assert key in proc.stderr

    def test_malformed_config_exits_one(self, files, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        proc = run_cli(
            "synth", "runs", "--params", str(files / "truth.json"),
            "--sizes", "1e8", "--tokens", "1e10", "--experts", "8",
            "-o", str(tmp_path / "x.csv"), env={"MOESCALE_CONFIG": str(cfg)},
        )
        assert proc.returncode == 1


# Edge numbers for the numeric flags, written as the flag's value so that
# argparse never reads a negative one as an option.
NUMBERS = st.one_of(
    st.sampled_from(["0", "5e-324", "-5e-324", "1.7e308", "-1.7e308", "inf", "-inf", "nan", "-1", "8", "1e20"]),
    st.floats().map(repr),
)
COST_FLAGS = ("--e", "--mu", "--ffn-fraction", "--top-k")
ALLOCATE_FLAGS = (
    "--e-base", "--e-prime", "--target-loss", "--cost-bound", "--rel-tol", "--n-min", "--n-max",
    "--mu", "--ffn-fraction", "--top-k",
)


# Edge values for the hardware JSON fields. max_gpus takes no huge finite
# value: the cost grid has one column per GPU count.
HARDWARE_NUMBERS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan, -1.0, 8.0, 1e20]),
    st.floats(),
)
MAX_GPUS = st.sampled_from([0.0, -1.0, 1.0, 2.5, 8.0, math.inf, -math.inf, math.nan])


class TestNumericFlags:
    """Any number on cost's and allocate's numeric flags ends in an exit code
    and at most one error line: no traceback and no warning."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["cost", "allocate"]), data=st.data())
    def test_main_returns_an_exit_code(self, files, command, data):
        if command == "cost":
            argv, optional = ["cost", f"--n={data.draw(NUMBERS)}"], COST_FLAGS
        else:
            mode = data.draw(st.sampled_from(["optimal", "bound-loss", "bound-cost"]))
            argv = ["allocate", f"--budget={data.draw(NUMBERS)}", "--mode", mode]
            argv += ["--params", str(files / "truth.json")]
            optional = ALLOCATE_FLAGS
        argv += [f"{flag}={data.draw(NUMBERS)}" for flag in optional if data.draw(st.booleans())]
        argv += ["--hardware", str(files / "hw.json")]
        argv += ["--profile", str(files / data.draw(st.sampled_from(["profile.json", "measured.json"])))]
        if not any(arg.startswith("--mu=") for arg in argv):
            argv += ["--geometry", str(files / "geometry.csv")]
        self.run_main(argv)

    @staticmethod
    def run_main(argv):
        """Run the CLI in process with warnings as errors, check that it ends
        in an exit code with one error line or none (and, for cost, no nan
        cost on a feasible row), and return the code and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
        if argv[0] == "cost" and code == 0:
            feasible = [r for r in parse_csv(out.getvalue()) if r["feasible"] == "True"]
            assert not any(math.isnan(float(r["cost_per_token"])) for r in feasible)
        return code, err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["cost", "allocate"]), data=st.data())
    def test_hardware_fields_end_in_an_exit_code(self, files, command, data):
        """Any number in a hardware JSON field ends in an exit code; a
        non-finite one is an input error that names its field."""
        hw = {
            f.name: data.draw(MAX_GPUS if f.name == "max_gpus" else HARDWARE_NUMBERS, label=f.name)
            for f in dataclasses.fields(HardwareConfig) if data.draw(st.booleans())
        }
        path = files / "fuzzed_hw.json"
        path.write_text(json.dumps(hw))
        if command == "cost":
            argv = ["cost", "--n=1e9", "--e=8"]
        else:
            argv = ["allocate", "--budget=1e20", "--mode", data.draw(st.sampled_from(["optimal", "bound-cost"])),
                    "--e-base=4", "--e-prime=16", "--params", str(files / "truth.json")]
        argv += ["--hardware", str(path), "--profile", str(files / "profile.json")]
        code, err = self.run_main(argv + ["--geometry", str(files / "geometry.csv")])
        if not all(math.isfinite(v) for v in hw.values()):
            named = re.match(r"error: (\w+) must be", err)
            assert code == 1 and named and named.group(1) in hw

    @pytest.mark.parametrize(
        "field, value",
        [("cost_per_gpu_second", math.inf), ("max_gpus", math.inf), ("max_gpus", math.nan),
         ("prompt_len", math.inf), ("gpu_mem_bytes", -math.inf), ("dtype_bytes", math.nan)],
    )
    def test_non_finite_hardware_field_is_named(self, files, tmp_path, field, value):
        (tmp_path / "hw.json").write_text(json.dumps({field: value}))
        proc = run_cli("cost", "--n", "1e9", "--e", "8", "--mu", "0.03", "--hardware", str(tmp_path / "hw.json"),
                       "--profile", str(files / "profile.json"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {field} must be finite\n"
