"""Tests for the command-line interface: exit codes, reports, artifacts."""

import json
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lagtime.cli import REPORT_SCHEMA, main
from lagtime.datasets import rossler
from lagtime.experiments import SQRT_METHODS


def read_report(out_dir):
    report = json.loads((out_dir / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    return report


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "lagtime" in capsys.readouterr().out

    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["generate", "--system", "quadwell", "--seed", "-1"],
        ["benchmark", "--seed", "-1"],
        ["bickley-experiment", "--ansatz-seed", "-1"],
    ])
    def test_negative_seed_is_rejected(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestSqrtExperimentCommand:
    def test_writes_validated_report_and_artifacts(self, tmp_path, capsys):
        code = main([
            "sqrt-experiment", "--methods", "tica,backtransform",
            "--n-frames", "400", "--n-folds", "3",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_report(tmp_path)
        assert report["experiment"] == "sqrt-experiment"
        assert report["seed"] == 0
        for method in ("tica", "backtransform"):
            assert f"{method}_vamp2" in report["metrics"]
            assert f"{method}_accuracy" in report["metrics"]
            assert (tmp_path / f"sqrt_projection_{method}.csv").exists()
        for name in report["artifacts"]:
            assert (tmp_path / name).exists()

    def test_same_seed_reproduces_metrics(self, tmp_path, capsys):
        args = ["sqrt-experiment", "--methods", "tica", "--n-frames", "300",
                "--n-folds", "3", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = read_report(tmp_path / "a")["metrics"]
        b = read_report(tmp_path / "b")["metrics"]
        assert a == b

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        code = main([
            "sqrt-experiment", "--methods", "astrology", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_csv_format_writes_metrics_table(self, tmp_path, capsys):
        code = main([
            "sqrt-experiment", "--methods", "backtransform",
            "--n-frames", "300", "--n-folds", "3",
            "--out", str(tmp_path), "--format", "csv",
        ])
        assert code == 0
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "metric,value,std"
        assert len(lines) >= 2


class TestBickleyExperimentCommand:
    def test_small_run_writes_validated_report(self, tmp_path, capsys):
        code = main([
            "bickley-experiment", "--methods", "vamp",
            "--n-particles", "200", "--n-sets", "3",
            "--restarts", "5", "--rounds", "2", "--round-size", "100",
            "--t1", "2.0", "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_report(tmp_path)
        assert report["experiment"] == "bickley-experiment"
        metrics = report["metrics"]
        assert "vamp_coherence" in metrics
        assert "vamp_vamp2" in metrics
        assert "vamp_kvad" in metrics
        assert 0.0 <= metrics["vamp_coherence"]["value"] <= 1.0
        assert report["parameters"]["ansatz_seed"] == 2
        assert (tmp_path / "bickley_projection_vamp.csv").exists()

    @pytest.mark.parametrize("flag, name", [("--round-size", "round_size"),
                                            ("--restarts", "restarts")])
    def test_zero_count_names_its_flag(self, tmp_path, capsys, flag, name):
        code = main(["bickley-experiment", "--methods", "vamp", flag, "0",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got 0\n"
        assert not (tmp_path / "report.json").exists()


class TestSindyCommand:
    def test_demo_system_recovers_sparse_dynamics(self, tmp_path, capsys):
        code = main([
            "sindy", "--demo-rossler", "--demo-t1", "20.0",
            "--threshold", "0.05", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_report(tmp_path)
        assert report["experiment"] == "sindy"
        assert report["metrics"]["n_terms"]["value"] == 7
        equations = (tmp_path / "equations.txt").read_text().strip().splitlines()
        assert len(equations) == 3
        coeffs = np.loadtxt(tmp_path / "coefficients.csv", delimiter=",", ndmin=2)
        assert coeffs.shape[0] == 3
        assert np.count_nonzero(coeffs) == 7

    def test_csv_input_continuous_time(self, tmp_path, capsys):
        t = np.linspace(0.0, 5.0, 501)
        X = np.column_stack([np.exp(-0.5 * t), 2.0 * np.exp(-0.25 * t)])
        path = tmp_path / "traj.csv"
        np.savetxt(path, X, delimiter=",")
        code = main([
            "sindy", "--input", str(path), "--dt", "0.01",
            "--degree", "1", "--threshold", "0.05",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        report = read_report(tmp_path / "out")
        assert report["metrics"]["max_derivative_error"]["value"] < 0.05

    def test_discrete_time_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        A = np.array([[0.9, 0.05], [0.0, 0.8]])
        X = np.empty((200, 2))
        X[0] = [1.0, -1.0]
        for k in range(199):
            X[k + 1] = A @ X[k] + 0.02 * rng.normal(size=2)
        path = tmp_path / "map.csv"
        np.savetxt(path, X, delimiter=",")
        code = main([
            "sindy", "--input", str(path), "--discrete",
            "--degree", "1", "--threshold", "0.02",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "equations.txt").exists()

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        assert main(["sindy", "--out", str(tmp_path)]) == 2
        assert "required" in capsys.readouterr().err

    def test_generated_file_supplies_its_time_step(self, tmp_path, capsys):
        assert main(["generate", "--system", "rossler", "--n-frames", "2000",
                     "--out", str(tmp_path)]) == 0
        printed = []
        for timing in ([], ["--dt", "1e-3"]):
            capsys.readouterr()
            assert main(["sindy", "--input", str(tmp_path / "rossler.csv"), *timing,
                         "--out", str(tmp_path / "out")]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "dx0/dt = " in printed[0]

    def test_zero_dt_is_usage_error_for_the_demo(self, tmp_path, capsys):
        code = main(["sindy", "--demo-rossler", "--demo-t1", "1", "--dt", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "dt" in err
        assert not (tmp_path / "report.json").exists()

    def test_missing_dt_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        np.savetxt(path, np.random.default_rng(1).normal(size=(50, 2)), delimiter=",")
        assert main(["sindy", "--input", str(path), "--out", str(tmp_path)]) == 2

    def test_nonexistent_file_is_usage_error(self, tmp_path, capsys):
        code = main([
            "sindy", "--input", str(tmp_path / "missing.csv"),
            "--dt", "0.01", "--out", str(tmp_path),
        ])
        assert code == 2

    def test_too_few_frames_is_insufficient_data(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        np.savetxt(path, np.ones((2, 2)), delimiter=",")
        code = main([
            "sindy", "--input", str(path), "--dt", "0.01", "--out", str(tmp_path),
        ])
        assert code == 3

    def test_non_finite_input_is_usage_error(self, tmp_path, capsys):
        X = np.random.default_rng(2).normal(size=(50, 2))
        X[7, 1] = np.nan
        X[20, 0] = np.inf
        path = tmp_path / "traj.csv"
        np.savetxt(path, X, delimiter=",")
        code = main([
            "sindy", "--input", str(path), "--dt", "0.01", "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "data row 8 " in err


class TestMsmCommand:
    def write_chain(self, tmp_path, seed=0, name="chain.txt"):
        from lagtime.markov import sample_markov_chain

        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        chain = sample_markov_chain(P, length=2000, seed=seed)
        path = tmp_path / name
        path.write_text("\n".join(str(int(s)) for s in chain) + "\n")
        return path

    def test_estimates_and_reports(self, tmp_path, capsys):
        path = self.write_chain(tmp_path)
        out = tmp_path / "out"
        code = main([
            "msm", "--input", str(path), "--lag", "1", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out)
        assert report["experiment"] == "msm"
        assert report["metrics"]["n_states"]["value"] == 2
        P = np.loadtxt(out / "transition_matrix.csv", delimiter=",", ndmin=2)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-10)
        mu = np.loadtxt(out / "stationary_distribution.csv", delimiter=",")
        assert mu.sum() == pytest.approx(1.0, abs=1e-10)
        assert (out / "timescales.csv").exists()

    def test_multiple_inputs_and_reversible(self, tmp_path, capsys):
        paths = [
            self.write_chain(tmp_path, seed=s, name=f"chain{s}.txt")
            for s in range(2)
        ]
        out = tmp_path / "out"
        code = main([
            "msm", "--input", *map(str, paths), "--lag", "2",
            "--reversible", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out)
        assert report["parameters"]["reversible"] is True
        assert report["parameters"]["lag"] == 2

    def test_bad_tokens_are_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 two 3\n")
        assert main(["msm", "--input", str(path), "--out", str(tmp_path)]) == 2

    def test_single_state_is_insufficient_data(self, tmp_path, capsys):
        path = tmp_path / "constant.txt"
        path.write_text("0 0 0 0 0 0\n")
        code = main(["msm", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "at least two connected states" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["3\n3\n3\n3\n", "1\n1\n1\n1\n0\n"])
    def test_single_state_tie_goes_to_a_state_with_counts(self, tmp_path, capsys, text):
        # Every component is one state: the kept one is the state that moves
        # to itself, not a lower one that was never seen or only seen last.
        path = tmp_path / "chain.txt"
        path.write_text(text)
        code = main(["msm", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "at least two connected states" in capsys.readouterr().err

    def test_lag_longer_than_data_is_insufficient(self, tmp_path, capsys):
        path = tmp_path / "short.txt"
        path.write_text("0 1 0 1\n")
        code = main([
            "msm", "--input", str(path), "--lag", "100", "--out", str(tmp_path),
        ])
        assert code == 3


class TestGenerateCommand:
    @pytest.mark.parametrize("system,filename", [
        ("quadwell", "quadwell.csv"),
        ("double-well", "double_well.csv"),
        ("sqrt-model", "sqrt_model.csv"),
    ])
    def test_writes_named_artifact(self, tmp_path, capsys, system, filename):
        code = main([
            "generate", "--system", system, "--n-frames", "50",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / filename).exists()

    def test_format_is_a_usage_error(self, tmp_path, capsys):
        # generate writes no report, so there is no metrics.csv to ask for.
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--system", "quadwell", "--n-frames", "10", "--format", "csv",
                  "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_rossler_generation(self, tmp_path, capsys):
        code = main([
            "generate", "--system", "rossler", "--n-frames", "100",
            "--out", str(tmp_path),
        ])
        assert code == 0
        frames = np.loadtxt(tmp_path / "rossler.csv", delimiter=",", ndmin=2)
        reference = rossler(t1=0.099)
        np.testing.assert_allclose(frames, reference.frames, rtol=1e-12)

    def test_rossler_writes_n_frames_and_no_seed(self, tmp_path, capsys):
        code = main(["generate", "--system", "rossler", "--n-frames", "1000",
                     "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        assert "seed" not in capsys.readouterr().out
        frames = np.loadtxt(tmp_path / "rossler.csv", delimiter=",", ndmin=2)
        assert frames.shape == (1000, 3)
        sidecar = json.loads((tmp_path / "rossler.csv.json").read_text())
        assert sidecar["n_frames"] == 1000
        assert sidecar["seed"] is None

    @pytest.mark.parametrize("n_frames", ["1", "0", "-5"])
    def test_rossler_needs_two_frames(self, tmp_path, capsys, n_frames):
        code = main(["generate", "--system", "rossler", "--n-frames", n_frames,
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "rossler.csv").exists()

    def test_same_seed_writes_identical_files(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code = main([
                "generate", "--system", "quadwell", "--n-frames", "40",
                "--seed", "5", "--out", str(tmp_path / sub),
            ])
            assert code == 0
        assert (
            (tmp_path / "a" / "quadwell.csv").read_bytes()
            == (tmp_path / "b" / "quadwell.csv").read_bytes()
        )

    def test_sqrt_model_also_writes_hidden_states(self, tmp_path, capsys):
        code = main([
            "generate", "--system", "sqrt-model", "--n-frames", "30",
            "--out", str(tmp_path),
        ])
        assert code == 0
        hidden = np.loadtxt(tmp_path / "sqrt_model_hidden.csv", delimiter=",",
                            skiprows=1)
        assert hidden.shape == (30,)
        assert set(np.unique(hidden)) <= {0.0, 1.0}


class TestBenchmarkCommand:
    def test_prints_throughput_without_output_directory(self, capsys):
        assert main(["benchmark", "--n-steps", "20000"]) == 0
        out = capsys.readouterr().out
        assert "steps/s" in out

    def test_writes_report_when_asked(self, tmp_path, capsys):
        code = main([
            "benchmark", "--n-steps", "20000", "--out", str(tmp_path),
        ])
        assert code == 0
        report = read_report(tmp_path)
        assert report["experiment"] == "benchmark"
        assert report["metrics"]["steps_per_second"]["value"] > 0

    @pytest.mark.parametrize("n_steps", ["0", "-10"])
    def test_rejects_fewer_than_one_step(self, capsys, n_steps):
        assert main(["benchmark", "--n-steps", n_steps]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: n_steps must be >= 1, got {n_steps}\n"
        assert "steps/s" not in captured.out


# Data files for the fuzz tests: empty files, one to three columns, NaN and
# infinities, values whose squares overflow, and ragged rows or text.
CSV_NUMBERS = st.one_of(st.sampled_from(["0", "1", "-2.5", "1e300", "-1e300"]),
                        st.floats().map(repr))
CSV_FILES = st.one_of(
    st.integers(1, 3).flatmap(lambda cols: st.lists(
        st.lists(CSV_NUMBERS, min_size=cols, max_size=cols).map(",".join), max_size=10)),
    st.lists(st.lists(st.one_of(CSV_NUMBERS, st.sampled_from(["abc", "", "#"])),
                      min_size=1, max_size=3).map(",".join), max_size=10),
).map("\n".join)
# Large indices cost nothing: the count matrix spans the observed states only.
STATE_FILES = st.lists(
    st.tuples(st.sampled_from(["0", "1", "2", "5", "-1", "1.5", "x", "nan", "",
                               "4000", str(10**9), str(2**40)]),
              st.sampled_from([" ", ",", "\n", "\t"])),
    max_size=30,
).map(lambda pairs: "".join(token + sep for token, sep in pairs))
FUZZ = settings(max_examples=400, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# Options for a sindy fit of a data file; the last three are usage errors,
# which a report would otherwise record as NaN or Infinity.
SINDY_OPTIONS = [["--dt", "0.1"], ["--discrete"]]
SINDY_REJECTED = [["--dt", "0.1", "--threshold", "nan"], ["--dt", "0.1", "--threshold", "inf"],
                  ["--discrete", "--dt", "nan"]]
# Forty frames of a rotation, which every accepted option fits.
ROTATION_FRAMES = "\n".join(f"{np.cos(0.1 * i)!r},{np.sin(0.1 * i)!r}" for i in range(40))


def strict_json_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestInputFuzz:
    """Whatever a data file holds, a command ends with exit code 0, 2 or 3,
    and prints one line to standard error when it fails, none otherwise."""

    @staticmethod
    def run(capfd, argv):
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capfd.readouterr().err
        assert code in (0, 2, 3)
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err
        assert err.count("\n") == (code != 0), err
        if code == 0 and "--out" in argv and argv[0] != "generate":  # generate writes no report
            report = Path(argv[argv.index("--out") + 1]) / "report.json"
            json.loads(report.read_text(), parse_constant=strict_json_constant)
        return code

    @FUZZ
    @given(text=CSV_FILES, options=st.sampled_from(SINDY_OPTIONS + SINDY_REJECTED))
    @example(text=ROTATION_FRAMES, options=SINDY_OPTIONS[0])
    @example(text=ROTATION_FRAMES, options=SINDY_REJECTED[0])
    @example(text=ROTATION_FRAMES, options=SINDY_REJECTED[1])
    @example(text=ROTATION_FRAMES, options=SINDY_REJECTED[2])
    def test_sindy_input(self, tmp_path, capfd, text, options):
        path = tmp_path / "frames.csv"
        path.write_text(text)
        code = self.run(capfd, ["sindy", "--input", str(path), *options, "--out", str(tmp_path)])
        if options in SINDY_REJECTED:
            assert code != 0

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # t1 = 1e20 and 1e300 ask for more frames than an address space holds,
    # so the rejection allocates nothing.
    @given(t1=st.floats(-1.0, 3.0) | st.sampled_from([np.nan, np.inf, -np.inf, 1e20, 1e300]),
           dt=st.floats(-1.0, 0.0) | st.floats(1e-3, 0.05)
           | st.sampled_from([np.nan, np.inf, -np.inf]))
    @example(t1=1e300, dt=1e-3)
    @example(t1=1e20, dt=0.05)
    def test_sindy_demo_options(self, tmp_path, capfd, t1, dt):
        self.run(capfd, ["sindy", "--demo-rossler", f"--demo-t1={t1}", f"--dt={dt}",
                         "--out", str(tmp_path)])

    @FUZZ
    @given(text=STATE_FILES, lag=st.integers(1, 3),
           counting=st.sampled_from(["sliding", "strided"]), reversible=st.booleans())
    def test_msm_input(self, tmp_path, capfd, text, lag, counting, reversible):
        path = tmp_path / "states.txt"
        path.write_text(text)
        self.run(capfd, ["msm", "--input", str(path), "--lag", str(lag),
                         "--counting", counting, *(["--reversible"] if reversible else []),
                         "--out", str(tmp_path)])

    def test_msm_input_ending_in_a_large_state(self, tmp_path, capfd):
        # A dense count matrix up to state 10**9 would need 8e18 bytes.
        path = tmp_path / "states.txt"
        path.write_text(f"0 1 0 1 1 0 {10**9}\n")
        assert self.run(capfd, ["msm", "--input", str(path), "--lag", "1",
                                "--out", str(tmp_path)]) == 0

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(methods=st.sampled_from(["all", "kvad", "vamp", "kernel_cca"]),
           particles=st.integers(0, 40), n_sets=st.integers(-1, 5),
           rounds=st.integers(-1, 2), round_size=st.integers(0, 30),
           restarts=st.integers(0, 3),
           t1=st.sampled_from(["nan", "inf", "-inf", "1e308", "0", "0.0305", "0.2", "-0.2"]),
           noise=st.sampled_from(["nan", "-1", "0", "0.1"]))
    def test_bickley_options(self, tmp_path, capfd, methods, particles, n_sets, rounds,
                             round_size, restarts, t1, noise):
        self.run(capfd, ["bickley-experiment", "--methods", methods,
                         "--n-particles", str(particles), "--n-sets", str(n_sets),
                         "--rounds", str(rounds), "--round-size", str(round_size),
                         "--restarts", str(restarts), f"--t1={t1}", f"--noise={noise}",
                         "--out", str(tmp_path)])

    def test_bickley_step_count_beyond_int64(self, tmp_path, capfd):
        # (t1 - t0) / dt overflows to infinity.
        code = self.run(capfd, ["bickley-experiment", "--methods", "vamp", "--n-particles", "4",
                                "--n-sets", "2", "--rounds", "1", "--round-size", "4",
                                "--t1=1e308", "--out", str(tmp_path)])
        assert code == 2

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(methods=st.sampled_from(["all", *SQRT_METHODS, "edmd,edmd", ",", "divination"]),
           n_frames=st.integers(-3, 60), n_folds=st.integers(-1, 12),
           seed=st.integers(-3, 2**64))
    def test_sqrt_options(self, tmp_path, capfd, methods, n_frames, n_folds, seed):
        self.run(capfd, ["sqrt-experiment", "--methods", methods, "--n-frames", str(n_frames),
                         "--n-folds", str(n_folds), "--seed", str(seed), "--out", str(tmp_path)])

    @FUZZ
    @given(system=st.sampled_from(["double-well", "quadwell", "rossler", "sqrt-model"]),
           n_frames=st.integers(-3, 2_000), seed=st.integers(-3, 2**64))
    def test_generate_options(self, tmp_path, capfd, system, n_frames, seed):
        self.run(capfd, ["generate", "--system", system, "--n-frames", str(n_frames),
                         "--seed", str(seed), "--out", str(tmp_path)])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_steps=st.integers(-20_000, 20_000), seed=st.integers(-3, 2**64),
           report=st.booleans())
    def test_benchmark_options(self, tmp_path, capfd, n_steps, seed, report):
        out = ["--out", str(tmp_path)] if report else []
        self.run(capfd, ["benchmark", "--n-steps", str(n_steps), "--seed", str(seed), *out])
