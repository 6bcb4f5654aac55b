from __future__ import annotations

import configparser
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blakit.cli import EXIT_CONFIG, EXIT_INSTABILITY, EXIT_OK, EXIT_TOLERANCE, main
from blakit.experiment import (
    _SCHEMA,
    ExperimentConfig,
    compare_reports,
    hammerstein_demo_config,
    hammerstein_demo_system,
    read_experiment_config,
    run_experiment,
    run_records,
    write_experiment_config,
)
from blakit.systems import (
    _SYSTEM_KEYS,
    ConfigurationError,
    PolynomialNonlinearity,
    RationalLTI,
    SystemDescription,
    write_system_file,
)


def write_config(tmp_path, name="config.ini", system=None, **overrides):
    system = system if system is not None else hammerstein_demo_system()
    config = hammerstein_demo_config(
        samples_per_period=overrides.pop("samples_per_period", 128),
        master_seed=overrides.pop("master_seed", 5),
    )
    fields = {**config.__dict__, "realizations": 3, "system": system,
              "excited_bins": tuple(range(1, config.samples_per_period // 2)),
              **overrides}
    config = ExperimentConfig(**fields)
    write_system_file(tmp_path / "system.ini", system)
    write_experiment_config(tmp_path / name, config, system_file="system.ini")
    return tmp_path / name, config


# A linear loop, so the closed-loop analytic reference applies.
LOOP_SYSTEM = SystemDescription(
    dynamics=RationalLTI(b=[0.25, 0.2], a=[1.0, -1.1, 0.46]),
    nonlinearity=PolynomialNonlinearity.identity(),
    actuator=RationalLTI(b=[0.9], a=[1.0, -0.3]),
    feedback=RationalLTI(b=[0.0, 0.4], a=[1.0, -0.1]),
)

# A linear loop whose realizations at N=64 and master seed 32 settle after
# different warm-ups (4, 3, 4, 4 periods).
STAGGERED_SYSTEM = SystemDescription(
    dynamics=RationalLTI(b=[0.1], a=[1.0, -0.9]),
    nonlinearity=PolynomialNonlinearity.identity(),
    actuator=RationalLTI(b=[0.5]),
    feedback=RationalLTI(b=[0.0, 0.5]),
)


def hash_tree(root: pathlib.Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def read_signal_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]


def swap_rows(text: str, i: int, j: int) -> str:
    """``text`` with its lines ``i`` and ``j`` (0 is the header) swapped."""
    lines = text.splitlines(True)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def full_grid(text: str, n: int = 128) -> str:
    """The full-grid spectrum CSV that older writers made of an ``n``-sample
    period at 1 Hz: the file's rows 0..n//2, then their conjugate mirror."""
    header, *rows = text.splitlines(True)
    rows = rows[: n // 2 + 1]
    for k in range(n // 2 + 1, n):
        _, _, real, imag = rows[n - k].rstrip("\n").split(",")
        imag = imag[1:] if imag.startswith("-") else "-" + imag
        rows.append(f"{k},{k * (1.0 / n):.17g},{real},{imag}\n")
    return header + "".join(rows)


def lti_arrays(system: SystemDescription) -> list:
    blocks = (system.dynamics, system.actuator, system.feedback)
    return [system.nonlinearity.coefficients.tolist()] + [
        None if b is None else (b.numerator.tolist(), b.denominator.tolist()) for b in blocks]


@st.composite
def experiment_configs(draw):
    """Any valid ExperimentConfig: open loop on the cubic demo system, or a linear
    loop, which its G_act and M blocks make a closed loop.

    Open loop has no input noise, so its input_noise_variance is 0.
    """
    n = draw(st.integers(4, 4096))
    top = (n - 1) // 2  # the largest k with 2k < N
    if draw(st.booleans()):
        lo = draw(st.integers(1, top))
        bins = tuple(range(lo, draw(st.integers(lo, top)) + 1))
    else:
        bins = tuple(sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=12))))
    loop = draw(st.sampled_from(["open", "closed"]))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    # The last sample's time, (N - 1) / fs, must be finite as well.
    frequency = positive.filter(lambda fs: math.isfinite((n - 1) * (1.0 / fs)))
    variance = st.floats(min_value=0.0, allow_infinity=False)
    return ExperimentConfig(
        realizations=draw(st.integers(2, 1000)),
        periods=draw(st.integers(2, 100)),
        samples_per_period=n,
        sampling_frequency=draw(frequency),
        excited_bins=bins,
        # The input variance rms**2 must be finite as well.
        input_rms=draw(st.floats(min_value=0.0, exclude_min=True, max_value=1e154)),
        system=LOOP_SYSTEM if loop == "closed" else hammerstein_demo_system(),
        process_noise_variance=draw(variance),
        output_noise_variance=draw(variance),
        input_noise_variance=draw(variance) if loop == "closed" else 0.0,
        master_seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


class TestConfigFile:
    @settings(max_examples=200, deadline=None)
    @given(config=experiment_configs())
    def test_round_trip_property(self, tmp_path_factory, config):
        # Every field comes back equal and of the same type; floats bit for bit.
        directory = tmp_path_factory.mktemp("config")
        write_system_file(directory / "system.ini", config.system)
        write_experiment_config(directory / "config.ini", config, system_file="system.ini")
        back = read_experiment_config(directory / "config.ini")
        assert back.loop == config.loop
        for field in dataclasses.fields(ExperimentConfig):
            wrote, read = getattr(config, field.name), getattr(back, field.name)
            if field.name == "system":
                assert lti_arrays(read) == lti_arrays(wrote)
            elif isinstance(wrote, float):
                assert struct.pack("<d", read) == struct.pack("<d", wrote), field.name
            else:
                assert (type(read), read) == (type(wrote), wrote), field.name

    def test_round_trip(self, tmp_path):
        path, config = write_config(tmp_path, process_noise_variance=0.04)
        back = read_experiment_config(path)
        assert back.realizations == config.realizations
        assert back.periods == config.periods
        assert back.samples_per_period == config.samples_per_period
        assert back.excited_bins == config.excited_bins
        assert back.process_noise_variance == 0.04
        assert back.master_seed == config.master_seed
        np.testing.assert_array_equal(back.system.dynamics.numerator,
                                      config.system.dynamics.numerator)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_experiment_config(tmp_path / "absent.ini")

    def test_excited_bin_list_forms(self, tmp_path):
        path, _ = write_config(tmp_path, excited_bins=(3, 7, 11))
        assert read_experiment_config(path).excited_bins == (3, 7, 11)
        text = path.read_text().replace("3, 7, 11", "5:9")
        path.write_text(text)
        assert read_experiment_config(path).excited_bins == (5, 6, 7, 8, 9)
        text = path.read_text().replace("5:9", "all")
        path.write_text(text)
        assert read_experiment_config(path).excited_bins == tuple(range(1, 64))

    def test_robust_estimation_needs_two_realizations(self, tmp_path):
        with pytest.raises(ConfigurationError, match="realizations"):
            write_config(tmp_path, realizations=1)

    def test_closed_loop_needs_loop_blocks(self, tmp_path, capsys):
        # G_act and M make the loop closed, so a system with one of them is neither loop.
        path, _ = write_config(tmp_path)
        system, out = (tmp_path / "system.ini").read_text(), tmp_path / "out"
        for block in ("G_act", "M"):
            (tmp_path / "system.ini").write_text(f"{system}[{block}]\nb = 0.5\n")
            message = TestInvalidInputExits2.assert_config_error(
                capsys, ["demo-hammerstein", "--config", str(path), "--out", str(out)])
            assert "both G_act and M" in message
            assert not out.exists()

    def test_cubic_closed_loop_has_no_analytic_reference(self, tmp_path, capsys):
        # The system alone makes the loop closed, and the oracle runs only
        # where its reference exists: in closed loop, for f(x) = x.
        system = SystemDescription(
            dynamics=RationalLTI(b=[0.3], a=[1.0, -0.5]),
            nonlinearity=PolynomialNonlinearity(coefficients=[1.0, 0.0, 0.1]),
            actuator=RationalLTI.identity(),
            feedback=RationalLTI(b=[0.0, 0.4]),
        )
        path, config = write_config(tmp_path, system=system, process_noise_variance=0.01)
        assert config.loop == "closed" and "loop" not in path.read_text()
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["demo-hammerstein", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"enabled": False}
        assert json.loads((out / "records" / "manifest.json").read_text())["closed_loop"] is True
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["loop"] == "closed"
        assert summary["analytic_comparison"] == {"enabled": False}
        assert summary["decomposition"] == {"enabled": False}
        assert summary["pass"] is True


class TestSubcommands:
    def test_generate_writes_signal_files(self, tmp_path):
        path, config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        files = sorted((out / "signals").iterdir())
        assert len(files) == 2 * config.realizations
        # The written excitation is exactly the one the experiment will use.
        from blakit.experiment import multisine_spec
        from blakit.signals import derive_rng, generate_multisine

        expected = generate_multisine(multisine_spec(config),
                                      derive_rng(config.master_seed, "input", 1))
        np.testing.assert_array_equal(
            read_signal_csv(out / "signals" / "u_m001.csv"), expected.samples)

    def test_simulate_then_estimate(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, process_noise_variance=0.01,
                               output_noise_variance=0.0009)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "records" / "manifest.json").exists()
        capsys.readouterr()
        assert main(["estimate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed["pass"] is True
        assert (out / "bla.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["analytic_comparison"]["pass"] is True

    @pytest.mark.parametrize("loop", ["open", "closed"])
    def test_simulate_then_estimate_matches_run_experiment(self, tmp_path, loop):
        system = LOOP_SYSTEM if loop == "closed" else None
        path, _ = write_config(tmp_path, system=system,
                               process_noise_variance=0.01, output_noise_variance=0.0009)
        split, whole = tmp_path / "split", tmp_path / "whole"
        assert main(["simulate", "--config", str(path), "--out", str(split)]) == EXIT_OK
        assert main(["estimate", "--config", str(path), "--out", str(split)]) == EXIT_OK
        run_experiment(read_experiment_config(path), whole)
        assert hash_tree(split / "records") == hash_tree(whole / "records")
        assert (split / "bla.csv").read_bytes() == (whole / "bla.csv").read_bytes()
        estimated = json.loads((split / "summary.json").read_text())
        simulated = json.loads((whole / "summary.json").read_text())
        # What ran before the record is known only to the run that simulated it.
        assert not {"lead_in_samples", "warmup_periods_used"} & set(estimated["estimate"])
        if loop == "open":  # 8 periods of 128 cover the demo S's 1000-sample floor
            assert simulated["estimate"].pop("lead_in_samples") == 1024
        else:  # period 2 repeats period 1, not exactly, so recording starts at period 2
            assert simulated["estimate"].pop("warmup_periods_used") == 2
        # The full run also copies its config and system into its directory.
        assert simulated["files"].pop("config.ini") and simulated["files"].pop("system.ini")
        assert estimated == simulated

    def test_estimate_against_a_wrong_reference_exits_4(self, tmp_path, capsys):
        # A bundle simulated at process variance 0.01, estimated under a config
        # that claims 1.0: the reference gain is off by 1.6/1.303 at every bin.
        path, _ = write_config(tmp_path, process_noise_variance=0.01,
                               output_noise_variance=0.0009)
        wrong, _ = write_config(tmp_path, name="wrong.ini", process_noise_variance=1.0,
                                output_noise_variance=0.0009)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["estimate", "--config", str(wrong), "--out", str(out)]) == EXIT_TOLERANCE
        assert json.loads(capsys.readouterr().out)["pass"] is False
        comparison = json.loads((out / "summary.json").read_text())["analytic_comparison"]
        assert comparison["tail_probability"] < comparison["false_fail_level"]
        assert comparison["pass"] is False

    @pytest.mark.parametrize("loop", ["open", "closed"])
    def test_estimate_writes_the_decomposition(self, tmp_path, loop):
        # The loop decides the decomposition, a closed form of the config: in
        # open loop simulate + estimate and demo-hammerstein --config both
        # write it and the same records and result, byte for byte; in closed
        # loop neither writes it.  Apart from the configs the demo copies,
        # the trees differ only in their summaries.
        system = LOOP_SYSTEM if loop == "closed" else None
        path, _ = write_config(tmp_path, system=system,
                               process_noise_variance=0.01, output_noise_variance=0.0009)
        assert "[decomposition]" not in path.read_text()
        runs = {"split": ["simulate", "estimate"], "demo": ["demo-hammerstein"]}
        trees = {}
        for name, commands in runs.items():
            for command in commands:
                assert main([command, "--config", str(path),
                             "--out", str(tmp_path / name)]) == EXIT_OK
            trees[name] = {k: v for k, v in hash_tree(tmp_path / name).items()
                           if k not in ("config.ini", "system.ini", "summary.json")}
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            assert summary["decomposition"] == {"enabled": loop == "open"}
        assert all(tree == trees["split"] for tree in trees.values())
        written = {"decomposition_report.json", "decomposition_variances.csv"} & set(trees["split"])
        assert len(written) == (2 if loop == "open" else 0)

    def test_estimate_without_bundle_is_config_error(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["estimate", "--config", str(path),
                     "--out", str(tmp_path / "empty")]) == EXIT_CONFIG

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nloop = sideways\n")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_overflowing_plant_exits_3_with_one_stderr_line(self, tmp_path):
        # rms = 1e120 has a finite square, but the demo's cubic overflows on
        # it.  The instability is the one line on stderr: no numpy warning.
        path, _ = write_config(tmp_path)
        text = path.read_text()
        assert "rms = 1\n" in text
        path.write_text(text.replace("rms = 1\n", "rms = 1e120\n"))
        out = tmp_path / "out"
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (str(src),
                                                           os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-m", "blakit.cli", "simulate", "--config", str(path),
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == EXIT_INSTABILITY
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert json.loads(lines[0])["error"] == "instability"
        assert not out.exists()

    def test_unreachable_steady_state_exits_3(self, tmp_path):
        system = SystemDescription(
            dynamics=RationalLTI(b=[1e-6], a=[1.0, -0.999999]),
            nonlinearity=PolynomialNonlinearity.identity(),
        )
        path, _ = write_config(tmp_path, system=system, samples_per_period=64)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_INSTABILITY

    @pytest.mark.parametrize("gain", ["0.0", "1e-320"])
    def test_summary_is_strict_json_without_a_finite_relative_error(self, tmp_path, gain):
        # A zero gain has no relative error, and a subnormal one's error,
        # divided by it, passes every float: either way no bin gives a number.
        path, _ = write_config(tmp_path, output_noise_variance=1.0, process_noise_variance=0.0)
        (tmp_path / "system.ini").write_text(f"[S]\nb = {gain}\n\n[f]\ncoefficients = 1.0\n")
        out = tmp_path / "out"
        assert main(["demo-hammerstein", "--config", str(path), "--out", str(out)]) == EXIT_OK

        def refuse(constant):
            raise ValueError(f"summary.json holds {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        comparison = summary["analytic_comparison"]
        assert comparison["defined_bins"] > 0
        assert comparison["max_relative_error"] is None

    def test_decompose_writes_reports(self, tmp_path):
        path, _ = write_config(tmp_path, process_noise_variance=0.01,
                               output_noise_variance=0.0009)
        out = tmp_path / "out"
        assert main(["demo-hammerstein", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "decomposition_report.json").read_text())
        assert set(report) == {"hermite", "input_variance", "process_noise_variance"}
        assert report["process_noise_variance"] == 0.01
        assert np.array(report["hermite"]).shape == (4, 4)  # the demo's cubic f
        assert (out / "decomposition_variances.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decomposition"] == {"enabled": True}

    def test_demo_prints_the_analytic_comparison(self, tmp_path, capsys):
        # What estimate prints: the block that says whether and why a run exits 4.
        path, _ = write_config(tmp_path, process_noise_variance=0.01)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["demo-hammerstein", "--config", str(path), "--out", str(out)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        summary = json.loads((out / "summary.json").read_text())
        assert printed == summary["analytic_comparison"]
        assert printed["pass"] is True and "tail_probability" in printed

    def test_decompose_takes_any_open_loop_polynomial(self, tmp_path):
        system = dataclasses.replace(hammerstein_demo_system(), nonlinearity=PolynomialNonlinearity(
            coefficients=[1.0, 0.3, 0.1, 0.0, -0.01]))
        path, _ = write_config(tmp_path, system=system, realizations=10,
                               samples_per_period=256, master_seed=0)
        out = tmp_path / "out"
        assert main(["demo-hammerstein", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "decomposition_report.json").read_text())
        assert np.array(report["hermite"]).shape == (6, 6)

    def test_noiseless_linear_config_has_zero_variances_and_error(self, tmp_path):
        system = SystemDescription(
            dynamics=RationalLTI(b=[0.25, 0.2], a=[1.0, -1.1, 0.46]),
            nonlinearity=PolynomialNonlinearity.identity(),
        )
        path, config = write_config(tmp_path, system=system,
                                    process_noise_variance=0.0,
                                    output_noise_variance=0.0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert main(["estimate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = (out / "bla.csv").read_text().splitlines()[1:]
        var_noise = np.array([float(r.split(",")[4]) for r in rows])
        var_total = np.array([float(r.split(",")[5]) for r in rows])
        assert var_noise.max() < 1e-28
        assert var_total.max() < 1e-26
        summary = json.loads((out / "summary.json").read_text())
        assert summary["analytic_comparison"]["max_abs_error"] < 1e-12

    @pytest.mark.parametrize("loop, dynamics, realizations, n", [
        ("open", RationalLTI(b=[0.5], a=[1.0, -0.5]), 2, 64),
        ("open", hammerstein_demo_system().dynamics, 2, 16384),
        *[("closed", None, m, n) for m in (2, 10) for n in (64, 1024)],
    ], ids=["first-order", "demo-dynamics", "loop-m2-n64", "loop-m2-n1024",
            "loop-m10-n64", "loop-m10-n1024"])
    def test_noise_free_linear_run_passes_its_oracle(self, tmp_path, loop, dynamics,
                                                     realizations, n):
        # Round-off alone, at most a few eps of the largest reference gain,
        # where var_total is round-off too: the band's 16-eps floor holds it.
        system = LOOP_SYSTEM if loop == "closed" else SystemDescription(
            dynamics=dynamics, nonlinearity=PolynomialNonlinearity.identity())
        config = ExperimentConfig(
            realizations=realizations, periods=2, samples_per_period=n,
            sampling_frequency=1.0, excited_bins=tuple(range(1, n // 2)), input_rms=1.0,
            system=system, master_seed=3)
        summary = run_experiment(config, tmp_path / "out")
        assert summary["analytic_comparison"]["fraction_in_band"] == 1.0
        assert summary["pass"]


class TestInvalidInputExits2:
    """Invalid configs and arguments exit 2 with the JSON error, never a traceback."""

    @staticmethod
    def assert_config_error(capsys, argv):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        error = json.loads(err)
        assert error["error"] == "configuration"
        return error["message"]

    @staticmethod
    def edit_config(path, old, new):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))

    def test_excited_bin_at_nyquist(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, samples_per_period=64)
        self.edit_config(path, "excited_bins = 1:31", "excited_bins = 1:32")
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert "N/2" in message

    def test_empty_bin_range(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, samples_per_period=64)
        self.edit_config(path, "excited_bins = 1:31", "excited_bins = 5:3")
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert "empty" in message

    def test_period_too_short(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, samples_per_period=64)
        self.edit_config(path, "samples_per_period = 64", "samples_per_period = 3")
        self.edit_config(path, "excited_bins = 1:31", "excited_bins = 1")
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert "samples_per_period" in message

    def test_negative_seed(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--seed", "-1",
                     "--out", str(tmp_path / "out")])
        assert "seed" in message

    # A demo run's config.ini with the [decomposition] section that held the
    # switch before the loop decided the decomposition.
    SWITCHED_DEMO_CONFIG = """\
[experiment]
realizations = 10
periods = 2
master_seed = 0

[multisine]
samples_per_period = 4096
sampling_frequency_hz = 1
excited_bins = 1:2047
rms = 1

[system]
file = system.ini

[noise]
process_variance = 0.010000000000000002
output_variance = 0.00089999999999999998
input_variance = 0

[decomposition]
enabled = true

"""

    @pytest.mark.parametrize("command", ["generate", "simulate", "estimate", "demo-hammerstein"])
    def test_retired_decomposition_switch_exits_2(self, tmp_path, capsys, command):
        # The loop decides the decomposition, so the switch is a key that no
        # reader reads, under every command and before anything is written.
        path = tmp_path / "config.ini"
        path.write_text(self.SWITCHED_DEMO_CONFIG)
        write_system_file(tmp_path / "system.ini", hammerstein_demo_system())
        message = self.assert_config_error(
            capsys, [command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert message == f"{path}: key 'enabled' in section [decomposition] is unknown"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, expected", [
        ("periods = 2\n", "periods = 2.5\n", "invalid config file"),
        ("realizations = 3\n", "", "invalid config file"),
        ("periods = 2\n", "", "invalid config file"),
        ("samples_per_period = 128\n", "", "invalid config file"),
        ("master_seed = 5\n", "master_seed = 5\nwarmup_periods = 4\n",
         "key 'warmup_periods' in section [experiment] is unknown"),
        ("sampling_frequency_hz = 1\n", "sampling_frequency_hz = 0\n", "sampling_frequency_hz"),
        ("sampling_frequency_hz = 1\n", "sampling_frequency_hz = -1\n",
         "sampling_frequency_hz"),
        ("sampling_frequency_hz = 1\n", "sampling_frequency_hz = nan\n",
         "sampling_frequency_hz"),
        ("rms = 1\n", "rms = -1\n", "rms must be finite and > 0"),
        ("rms = 1\n", "rms = nan\n", "rms must be finite and > 0"),
        ("rms = 1\n", "rms = 1e308\n", "rms = 1e+308 has no finite square"),
        ("output_variance = 0.00089999999999999998", "output_variance = inf",
         "output_variance must be finite"),
        ("process_variance = 0.010000000000000002", "process_variance = nan",
         "process_variance must be finite"),
        ("input_variance = 0", "input_variance = 0.5", "input_variance must be 0 in open loop"),
        ("master_seed = 5\n", "master_seed = 5\n\n[oracle]\nband_sigma = 3\n",
         "key 'band_sigma' in section [oracle] is unknown"),
        ("master_seed = 5\n", "master_seed = 5\n\n[oracle]\nmin_fraction_in_band = 0.95\n",
         "key 'min_fraction_in_band' in section [oracle] is unknown"),
        ("process_variance = ", "proces_variance = ",
         "key 'proces_variance' in section [noise] is unknown"),
        # The system decides the loop and whether the oracle's reference exists.
        ("[experiment]\n", "[experiment]\nloop = open\n",
         "key 'loop' in section [experiment] is unknown"),
        ("input_variance = 0\n", "input_variance = 0\n\n[oracle]\ncompare_analytic = true\n",
         "key 'compare_analytic' in section [oracle] is unknown"),
    ], ids=["fractional-int", "no-realizations", "no-periods",
            "no-samples-per-period", "warmup-periods-unknown",
            "fs-zero", "fs-negative", "fs-nan", "rms-negative", "rms-nan", "rms-overflow",
            "output-variance-inf", "process-variance-nan", "input-variance-open-loop",
            "band-sigma-unknown", "min-fraction-unknown", "misspelt-key", "retired-loop",
            "retired-compare-analytic"])
    def test_malformed_config_value(self, tmp_path, capsys, old, new, expected):
        path, _ = write_config(tmp_path)
        self.edit_config(path, old, new)
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert expected in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, expected", [
        (lambda text: text.replace(b"periods = 2\n", b"periods = 2\nperiods = 3\n"),
         "option 'periods' in section 'experiment' already exists"),
        (lambda text: b"periods = 2\n" + text, "File contains no section headers"),
        (lambda text: text + b"; \xff\n", "'utf-8' codec can't decode byte 0xff"),
    ], ids=["duplicate-key", "key-before-section", "non-utf8-byte"])
    def test_config_syntax_error(self, tmp_path, capsys, edit, expected):
        path, _ = write_config(tmp_path)
        path.write_bytes(edit(path.read_bytes()))
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert expected in message and str(path) in message
        assert not (tmp_path / "out").exists()

    def test_unknown_system_file_key(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        (tmp_path / "system.ini").write_text("[S]\nb = 0.1\nden = 1, -0.9\n\n"
                                             "[f]\ncoefficients = 1.0\n")
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert message == f"{tmp_path / 'system.ini'}: key 'den' in section [S] is unknown"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, schema", [("config.ini", _SCHEMA),
                                              ("system.ini", _SYSTEM_KEYS)],
                             ids=["config", "system"])
    @settings(max_examples=60, deadline=None)
    @given(config=experiment_configs(), data=st.data())
    def test_unread_key_or_section_exits_2(self, tmp_path_factory, name, schema, config, data):
        # A written file plus a key that its reader does not read, in a section
        # it reads or in [DEFAULT], or a section it does not read (empty or not).
        directory = tmp_path_factory.mktemp("unread")
        write_system_file(directory / "system.ini", config.system)
        write_experiment_config(directory / "config.ini", config, system_file="system.ini")
        names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,11}", fullmatch=True)
        if data.draw(st.booleans()):
            section = data.draw(st.sampled_from([*schema, "DEFAULT"]))
            key = data.draw(names.map(str.lower).filter(
                lambda key: key not in schema.get(section, ())))
        else:
            section = data.draw(names.filter(lambda name: name not in (*schema, "DEFAULT")))
            key = data.draw(st.none() | names.map(str.lower))
        parser = configparser.ConfigParser()
        parser.read(directory / name)
        if section != "DEFAULT" and not parser.has_section(section):
            parser.add_section(section)
        if key is not None:
            parser.set(section, key, "1")
        with open(directory / name, "w") as fh:
            parser.write(fh)
        out = directory / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["generate", "--config", str(directory / "config.ini"),
                           "--out", str(out)])
        assert status == EXIT_CONFIG
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["message"]
        named = f"key {key!r} in section" if key is not None else "section"
        assert message == f"{directory / name}: {named} [{section}] is unknown"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "demo-hammerstein"])
    def test_overflowing_excitation_writes_nothing(self, tmp_path, capsys, command):
        path, _ = write_config(tmp_path)
        self.edit_config(path, "rms = 1\n", "rms = 1e308\n")
        message = self.assert_config_error(
            capsys, [command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert "rms = 1e+308 has no finite square" in message
        assert not (tmp_path / "out").exists()

    def test_estimate_with_rms_without_finite_square(self, tmp_path, capsys):
        # The analytic model squares rms; on an existing bundle that must be
        # a configuration error too, not an OverflowError.
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        self.edit_config(path, "rms = 1\n", "rms = 1e308\n")
        message = self.assert_config_error(
            capsys, ["estimate", "--config", str(path), "--out", str(out)])
        assert "rms = 1e+308 has no finite square" in message
        assert sorted(p.name for p in out.iterdir()) == ["records"]

    def test_empty_coefficient_list(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        (tmp_path / "system.ini").write_text("[S]\nb = 0.25\na =\n\n[f]\ncoefficients = 1.0\n")
        message = self.assert_config_error(
            capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert "must be nonempty" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("estimate_with, field", [
        (dict(samples_per_period=128), "samples_per_period, excited_bins"),
        (dict(samples_per_period=512, realizations=4), "samples_per_period, excited_bins, "
                                                       "realizations"),
        (dict(periods=3), "periods"),
        (dict(system=LOOP_SYSTEM), "closed_loop"),
    ], ids=["smaller-grid", "larger-grid", "periods", "loop"])
    def test_bundle_not_matching_config(self, tmp_path, capsys, estimate_with, field):
        recorded, _ = write_config(tmp_path, name="recorded.ini", samples_per_period=256)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(recorded), "--out", str(out)]) == EXIT_OK
        other, _ = write_config(tmp_path, name="other.ini",
                                **{"samples_per_period": 256, **estimate_with})
        message = self.assert_config_error(
            capsys, ["estimate", "--config", str(other), "--out", str(out)])
        assert message.endswith(f"does not match the config in: {field}")
        assert sorted(p.name for p in out.iterdir()) == ["records"]

    @pytest.mark.parametrize("command", ["simulate", "demo-hammerstein"])
    def test_out_holding_another_bundle(self, tmp_path, capsys, command):
        # A run into another experiment's directory would mix the two runs'
        # files: a closed loop's summary would list the open loop's
        # decomposition, and its records/ the open loop's extra spectra.
        for name in ("open", "closed"):
            (tmp_path / name).mkdir()
        open_loop, _ = write_config(tmp_path / "open")
        closed_loop, _ = write_config(tmp_path / "closed", system=LOOP_SYSTEM, realizations=4)
        out = tmp_path / "out"
        assert main(["demo-hammerstein", "--config", str(open_loop), "--out", str(out)]) == EXIT_OK
        before = hash_tree(out)
        message = self.assert_config_error(
            capsys, [command, "--config", str(closed_loop), "--out", str(out)])
        assert message == (f"record bundle under {out / 'records'} does not match the "
                           f"config in: realizations, closed_loop")
        assert hash_tree(out) == before
        # A rerun on the bundle's own grid writes, here the same bytes.
        assert main([command, "--config", str(open_loop), "--out", str(out)]) == EXIT_OK
        assert hash_tree(out) == before

    # case -> (files under --out (a glob), their damaged text or None for no
    # file, the name the error message must hold); "compare" cases damage a
    # run's bla.csv and run compare, the others damage its record bundle and
    # run estimate.
    DAMAGED = {
        "missing-csv": ("records/y_m001_p00.csv", None, "y_m001_p00.csv"),
        "header-only-csv": ("records/y_m001_p00.csv",
                            lambda text: text.splitlines(True)[0], "y_m001_p00.csv"),
        "short-csv": ("records/y_m001_p00.csv",
                      lambda text: "".join(text.splitlines(True)[:-10]), "y_m001_p00.csv"),
        "truncated-csv": ("records/y_m001_p00.csv",
                          lambda text: text[:text.index(",", len(text) // 2)], "y_m001_p00.csv"),
        "non-numeric-cell": ("records/y_m001_p00.csv",
                             lambda text: text.replace("\n5,", "\n5,abc", 1), "y_m001_p00.csv"),
        "manifest-without-periods": ("records/manifest.json",
                                     lambda text: text.replace('"periods": 2,', ""),
                                     "manifest.json"),
        "manifest-text-periods": ("records/manifest.json",
                                  lambda text: text.replace('"periods": 2', '"periods": "2"'),
                                  "records"),
        # Sizes whose spectrum arrays no machine could hold: refused before allocation.
        "manifest-huge-realizations": ("records/manifest.json",
                                       lambda text: text.replace('"realizations": 3',
                                                                 '"realizations": 1000000000000'),
                                       "does not match the config in: realizations"),
        "manifest-huge-samples-per-period": (
            "records/manifest.json",
            lambda text: text.replace('"samples_per_period": 128',
                                      '"samples_per_period": 1000000000000'),
            "does not match the config in: samples_per_period"),
        "swapped-rows": ("records/y_m001_p00.csv", lambda text: swap_rows(text, 3, 4),
                         "y_m001_p00.csv"),
        "full-grid-bundle": ("records/*_m*.csv", full_grid, "u_m000.csv"),
        "compare-without-bla": ("bla.csv", None, "bla.csv"),
        "compare-fractional-bin": ("bla.csv", lambda text: text.replace("\n3,", "\n3.5,", 1),
                                   "bla.csv"),
        "compare-repeated-bin": ("bla.csv", lambda text: text.replace("\n4,", "\n3,", 1),
                                 "bla.csv"),
        "compare-swapped-rows": ("bla.csv", lambda text: swap_rows(text, 3, 4), "bla.csv"),
    }

    @pytest.mark.parametrize("case", sorted(DAMAGED))
    def test_damaged_input(self, tmp_path, capsys, case):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        estimate = ["estimate", "--config", str(path), "--out", str(out)]
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        compare = case.startswith("compare")
        if compare:
            assert main(estimate) == EXIT_OK
        name, damage, named = self.DAMAGED[case]
        targets = sorted(out.glob(name))
        assert targets
        for target in targets:
            if damage is None:
                target.unlink()
            else:
                damaged = damage(target.read_text())
                assert damaged != target.read_text()
                target.write_text(damaged)
        before = hash_tree(out)
        argv = ["compare", str(out), str(out)] if compare else estimate
        assert named in self.assert_config_error(capsys, argv)
        assert hash_tree(out) == before  # nothing written

    @pytest.mark.parametrize("argv", [
        ["generate", "--workers", "2"],
        ["estimate", "--workers", "2"],
        ["simulate", "--no-such-option"],
        ["demo-hammerstein", "--workers", "two"],
        # demo-hammerstein --config runs what decompose ran, and a config sets any size.
        ["decompose"],
        ["demo-hammerstein", "--realizations", "4"],
        ["demo-hammerstein", "--periods", "3"],
    ], ids=["generate-workers", "estimate-workers", "unknown-option", "non-integer-workers",
            "retired-decompose", "retired-realizations", "retired-periods"])
    def test_usage_error(self, tmp_path, capsys, argv):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        message = self.assert_config_error(
            capsys, [*argv, "--config", str(path), "--out", str(out)])
        assert any(arg in message for arg in argv[-2:])
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--g-rel-tol", "--var-ratio-tol"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_compare_tolerance_that_can_never_pass(self, tmp_path, capsys, flag, value):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert main(["estimate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        before = hash_tree(out)
        message = self.assert_config_error(capsys, ["compare", str(out), str(out), flag, value])
        assert f"{flag[2:].replace('-', '_')} must be finite and >= 0" in message
        assert hash_tree(out) == before

    @pytest.mark.parametrize("below", [False, True], ids=["file", "path-under-file"])
    @pytest.mark.parametrize("command", ["generate", "simulate", "demo-hammerstein"])
    def test_out_is_not_a_directory(self, tmp_path, capsys, command, below):
        path, _ = write_config(tmp_path)
        blocker = tmp_path / "out"
        blocker.write_text("a file, not a directory\n")
        out = blocker / "run" if below else blocker
        message = self.assert_config_error(
            capsys, [command, "--config", str(path), "--out", str(out)])
        assert f"{blocker} exists and is not a directory" in message
        assert blocker.read_text() == "a file, not a directory\n"

    @pytest.mark.parametrize("command", ["generate", "simulate", "estimate",
                                         "demo-hammerstein"])
    def test_out_name_too_long_for_the_os(self, tmp_path, capsys, command):
        path, _ = write_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / ("x" * 300)
        message = self.assert_config_error(
            capsys, [command, "--config", str(path), "--out", str(out)])
        assert message == f"--out {out}: {os.strerror(errno.ENAMETOOLONG)}"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("below", [False, True], ids=["link", "path-under-link"])
    @pytest.mark.parametrize("command", ["generate", "simulate", "estimate",
                                         "demo-hammerstein"])
    def test_out_dangling_symlink(self, tmp_path, capsys, command, below):
        # stat says a dangling link is missing, but no command could create it.
        path, _ = write_config(tmp_path)
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere" / "x")
        before = sorted(tmp_path.rglob("*"))
        out = link / "run" if below else link
        message = self.assert_config_error(
            capsys, [command, "--config", str(path), "--out", str(out)])
        assert message == f"--out {out}: {link} is a symbolic link whose target is missing"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", ["demo-hammerstein", "simulate"])
    def test_workers_below_one(self, tmp_path, capsys, command, workers):
        path, _ = write_config(tmp_path)
        out = tmp_path / "out"
        message = self.assert_config_error(
            capsys, [command, "--config", str(path), "--workers", workers, "--out", str(out)])
        assert "--workers" in message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "simulate", "demo-hammerstein"])
    def test_allocation_that_fails_exits_2(self, tmp_path, capsys, command):
        # 2**50 samples a period are beyond any 48-bit address space, so the
        # first array of that length cannot be allocated under any overcommit policy.
        path, _ = write_config(tmp_path)
        self.edit_config(path, "samples_per_period = 128\n", f"samples_per_period = {2 ** 50}\n")
        self.edit_config(path, "excited_bins = 1:63\n", "excited_bins = 1:3\n")
        out = tmp_path / "out"
        self.assert_config_error(capsys, [command, "--config", str(path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("fs", ["1e-308", "1e-310"])
    @pytest.mark.parametrize("command", ["generate", "simulate", "estimate",
                                         "demo-hammerstein"])
    def test_sample_time_without_finite_value(self, tmp_path, capsys, command, fs):
        # At 1e-308 Hz the last of 128 samples is at 127e308 s, and at 1e-310 Hz
        # even 1 / fs is inf, which puts sample 0 at 0 * inf, NaN.
        path, _ = write_config(tmp_path)
        self.edit_config(path, "sampling_frequency_hz = 1\n", f"sampling_frequency_hz = {fs}\n")
        out = tmp_path / "out"
        message = self.assert_config_error(
            capsys, [command, "--config", str(path), "--out", str(out)])
        assert f"sampling_frequency_hz = {fs} puts sample 127 at no finite time" in message
        assert not out.exists()


class TestImports:
    # Run in a fresh interpreter whose import system refuses every scipy
    # module, so any import of scipy, at load or at run time, fails the run.
    REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from blakit.cli import main
status = main(sys.argv[1:])
assert not [name for name in sys.modules if name.partition(".")[0] == "scipy"]
sys.exit(status)
"""

    def test_import_leaves_scipy_signal_unloaded(self, tmp_path):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (str(src),
                                                           os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", self.REFUSE_SCIPY, "demo-hammerstein",
             "--samples-per-period", "256", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["pass"] is True

    # np.unique imports numpy.ma on first use under numpy 2.x, which costs
    # import time and memory.  The check runs in a fresh interpreter, so that
    # other tests' imports do not count.  A numpy that imports numpy.ma
    # eagerly with numpy itself (allowed by the numpy>=1.24 dependency)
    # leaves nothing to check, and the test is skipped there.
    NUMPY_MA = """
import json
import sys

import numpy as np

eager = "numpy.ma" in sys.modules
from blakit.cli import main
from blakit.estimator import ExperimentRecord

status = main(sys.argv[1:])
record = ExperimentRecord(input_spectra=np.zeros((1, 33)), output_spectra=np.zeros((1, 2, 33)),
                          excited_bins=[3, 1, 3], samples_per_period=64,
                          sampling_frequency=1.0)
print(json.dumps({"status": status, "eager": eager, "loaded": "numpy.ma" in sys.modules,
                  "bins": record.excited_bins.tolist()}))
"""

    def test_demo_does_not_import_numpy_ma(self, tmp_path):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (str(src),
                                                           os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", self.NUMPY_MA, "demo-hammerstein",
             "--samples-per-period", "64", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["status"] == EXIT_OK
        assert result["bins"] == [1, 3]
        if result["eager"]:
            pytest.skip("this numpy imports numpy.ma together with numpy")
        assert not result["loaded"]

    # Every run is one process, whatever --workers says, so the process
    # pool's module (and the logging it imports) must stay unloaded.
    NO_POOL = """
import json
import sys

from blakit.cli import main

status = main(sys.argv[1:])
print(json.dumps({"status": status, "loaded": "concurrent.futures" in sys.modules}))
"""

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_run_does_not_import_the_process_pool(self, tmp_path, workers):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (str(src),
                                                           os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-c", self.NO_POOL, "demo-hammerstein", "--samples-per-period", "64",
             "--workers", workers, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"status": EXIT_OK, "loaded": False}


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        path, _ = write_config(tmp_path, process_noise_variance=0.01,
                               output_noise_variance=0.0009)
        config = read_experiment_config(path)
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        assert hash_tree(tmp_path / "a") == hash_tree(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        path, _ = write_config(tmp_path, process_noise_variance=0.01)
        config = read_experiment_config(path)
        other = ExperimentConfig(**{**config.__dict__, "master_seed": 99})
        run_experiment(config, tmp_path / "a")
        run_experiment(other, tmp_path / "b")
        a, b = hash_tree(tmp_path / "a"), hash_tree(tmp_path / "b")
        assert set(a) == set(b)
        assert a != b

    def test_seed_flag_overrides_config(self, tmp_path):
        path, _ = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out_a),
                     "--seed", "123"]) == EXIT_OK
        assert main(["simulate", "--config", str(path), "--out", str(out_b),
                     "--seed", "123"]) == EXIT_OK
        assert hash_tree(out_a) == hash_tree(out_b)
        out_c = tmp_path / "c"
        assert main(["simulate", "--config", str(path), "--out", str(out_c),
                     "--seed", "124"]) == EXIT_OK
        assert hash_tree(out_a) != hash_tree(out_c)

    @pytest.mark.parametrize("loop", ["open", "closed"])
    def test_realizations_do_not_depend_on_the_count(self, tmp_path, loop):
        # The staggered loop's realizations settle after 4, 3, 4 and 4 periods.
        settings = (dict(system=STAGGERED_SYSTEM, samples_per_period=64,
                         master_seed=32) if loop == "closed" else {})
        _, config = write_config(tmp_path, realizations=4, process_noise_variance=0.01,
                                 output_noise_variance=0.001, **settings)
        four, _ = run_records(config)
        two, _ = run_records(dataclasses.replace(config, realizations=2))
        names = ["input_spectra", "output_spectra"]
        if loop == "closed":
            names += ["reference_spectra", "input_spectra_per_period"]
        for name in names:
            np.testing.assert_array_equal(getattr(two, name), getattr(four, name)[:2])


class TestCompare:
    def make_two_runs(self, tmp_path, variance_b=0.01):
        path_a, _ = write_config(tmp_path, name="a.ini", master_seed=5,
                                 process_noise_variance=0.01)
        path_b, _ = write_config(tmp_path, name="b.ini", master_seed=5,
                                 process_noise_variance=variance_b)
        run_experiment(read_experiment_config(path_a), tmp_path / "run_a")
        run_experiment(read_experiment_config(path_b), tmp_path / "run_b")
        return tmp_path / "run_a", tmp_path / "run_b"

    def test_identical_bundles_empty_diff(self, tmp_path, capsys):
        a, _ = self.make_two_runs(tmp_path)
        assert main(["compare", str(a), str(a), "--g-rel-tol", "0.0"]) == EXIT_OK
        diff = json.loads(capsys.readouterr().out)
        assert diff["identical"] is True
        assert diff["max_abs_diff"] == 0.0

    def test_gain_change_flagged_and_tolerance_enforced(self, tmp_path, capsys):
        a, b = self.make_two_runs(tmp_path, variance_b=1.0)
        code = main(["compare", str(a), str(b), "--g-rel-tol", "0.01"])
        diff = json.loads(capsys.readouterr().out)
        assert code == EXIT_TOLERANCE
        assert diff["identical"] is False
        # Process-noise increase from 0.01 to 1.0 scales the response gain by
        # 1.6/1.303 at every bin; at 3 realizations expect a loose match.
        assert diff["gain_ratio"] == pytest.approx(1.6 / 1.303, rel=0.1)

    def test_grid_mismatch_is_config_error(self, tmp_path):
        path_a, _ = write_config(tmp_path, name="a.ini")
        path_c, _ = write_config(tmp_path, name="c.ini", samples_per_period=64)
        run_experiment(read_experiment_config(path_a), tmp_path / "run_a")
        run_experiment(read_experiment_config(path_c), tmp_path / "run_c")
        assert main(["compare", str(tmp_path / "run_a"),
                     str(tmp_path / "run_c")]) == EXIT_CONFIG

    def test_compare_reports_api_tolerances(self, tmp_path):
        a, b = self.make_two_runs(tmp_path, variance_b=1.0)
        summary, ok = compare_reports(a, b)
        assert ok  # no tolerances supplied, nothing to violate
        summary, ok = compare_reports(a, b, g_rel_tol=1e-6)
        assert not ok and summary["within_tolerance"] is False


class TestDemo:
    def test_demo_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = main(["demo-hammerstein", "--out", str(out), "--seed", "3",
                     "--samples-per-period", "256"])
        printed = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert printed["pass"] is True
        assert (out / "config.ini").exists()
        assert (out / "system.ini").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert printed == summary["analytic_comparison"]
        assert summary["analytic_comparison"]["fraction_in_band"] >= 0.95
        # c(10, 3) = 1 - (1 + 9/9)^-9, the in-band chance the gate tests against
        assert summary["analytic_comparison"]["expected_fraction_in_band"] == 1 - 2.0 ** -9
        assert summary["decomposition"]["enabled"] is True
        # The written config reproduces the whole run directory byte for
        # byte, in a new directory or in its own.
        tree = hash_tree(out)
        rerun = tmp_path / "rerun"
        run_experiment(read_experiment_config(out / "config.ini"), rerun)
        assert hash_tree(rerun) == tree
        assert main(["demo-hammerstein", "--config", str(out / "config.ini"),
                     "--out", str(out)]) == EXIT_OK
        assert hash_tree(out) == tree

    def test_overflowed_variance_fails_the_gate(self, tmp_path, capsys):
        # An output variance of 1e308 is finite, but the estimator's variance
        # sums overflow: every bin's band is inf, which holds no estimate.
        out = tmp_path / "demo"
        assert main(["demo-hammerstein", "--out", str(out), "--seed", "3",
                     "--samples-per-period", "256"]) == EXIT_OK
        TestInvalidInputExits2.edit_config(out / "config.ini",
                                           "output_variance = 0.00089999999999999998",
                                           "output_variance = 1e308")
        capsys.readouterr()
        code = main(["demo-hammerstein", "--config", str(out / "config.ini"),
                     "--out", str(tmp_path / "huge")])
        captured = capsys.readouterr()
        assert code == EXIT_TOLERANCE and captured.err == ""
        printed = json.loads(captured.out)
        assert printed["pass"] is False and printed["fraction_in_band"] == 0.0
        rows = (tmp_path / "huge" / "bla.csv").read_text().splitlines()[1:]
        assert len(rows) == 127
        assert all(row.split(",")[4:6] == ["inf", "inf"] for row in rows)

    @pytest.mark.parametrize("flag", ["--samples-per-period"])
    def test_size_flag_with_config_exits_2(self, tmp_path, capsys, flag):
        path, _ = write_config(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["demo-hammerstein", "--config", str(path), flag, "7",
                     "--out", str(out)]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "configuration"
        assert error["message"] == f"{flag} cannot be combined with --config"
        assert not out.exists()

    def test_run_directory_config_re_estimates(self, tmp_path):
        # A demo run from a closed-loop config writes that config's system
        # beside its own config.ini, so the run directory alone reproduces it.
        path, _ = write_config(tmp_path, system=LOOP_SYSTEM, process_noise_variance=0.01)
        out, again = tmp_path / "run", tmp_path / "again"
        assert main(["demo-hammerstein", "--config", str(path), "--out", str(out)]) == EXIT_OK
        own = str(out / "config.ini")
        assert main(["simulate", "--config", own, "--out", str(again)]) == EXIT_OK
        assert main(["estimate", "--config", own, "--out", str(again)]) == EXIT_OK
        assert (again / "bla.csv").read_bytes() == (out / "bla.csv").read_bytes()
