"""Command-line interface tests: exit codes, files, determinism."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dirtytx.cli import build_parser, main
from dirtytx.experiments import EXPERIMENT_KINDS

HW_BLOCK = {
    "gain2": [30.0, 30.0],
    "crosstalk2": [-50.0, -50.0],
    "rho": [-0.025, -0.025],
    "noise": -10.0,
}
UNITS = {
    "hardware.gain2": "dB",
    "hardware.crosstalk2": "dB",
    "hardware.noise": "dBm",
    "sweep.gain2": "dB",
    "sweep.crosstalk2": "dB",
}
CHANNEL = {"h": [[1.0, 0.0], [0.5, 0.5]], "sigma_n2": 1e-3}
ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name="config.json", **overrides):
    """A backoff-vs-gain config with ``overrides``; a None value drops the key."""
    cfg = {
        "experiment": "backoff-vs-gain",
        "seed": 9,
        "hardware": dict(HW_BLOCK),
        "units": dict(UNITS),
        "signal": {"beta": 1.0, "xi": 0.0},
        "sweep": {"gain2": [25.0, 30.0], "crosstalk2": [-50.0]},
    }
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestRunCommand:
    def test_happy_path_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "results.csv"
        code = main(["run", str(cfg), "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "p_x_opt [dBm]" in text
        assert "# experiment=backoff-vs-gain" in text
        assert "2 rows" in capsys.readouterr().out

    def test_json_format_inferred_from_suffix(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "results.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert "columns" in obj and "p_x_opt" in obj["columns"]

    def test_explicit_format_beats_suffix(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "results.json"
        assert main(["run", str(cfg), "--out", str(out), "--format", "csv"]) == 0
        assert out.read_text(encoding="utf-8").startswith("# ")

    def test_output_path_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, output="from_config.csv")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["run", str(cfg), "--out", str(first)]) == 0
        assert main(["run", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_override_changes_sampled_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            experiment="gaussian-validation",
            units=dict(UNITS, **{"p_x_points": "dBm"}),
            p_x_points=[-10.0],
            n_samples=2000,
        )
        # Strip the sweep key the template carries; it belongs to the
        # back-off experiment only.
        raw = json.loads(cfg.read_text(encoding="utf-8"))
        del raw["sweep"]
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        assert main(["run", str(cfg), "--out", str(a)]) == 0
        assert main(["run", str(cfg), "--out", str(b), "--seed", "123"]) == 0
        assert main(["run", str(cfg), "--out", str(c), "--seed", "123"]) == 0
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_empty_sweep_writes_header_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"gain2": [], "crosstalk2": [-50.0]})
        out = tmp_path / "empty.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 1 and data[0].startswith("gain2 [dB]")

    def test_zero_crosstalk_gaussian_validation_reads_the_floor(self, tmp_path, capsys):
        # Without crosstalk the sampled and model covariances agree exactly,
        # so the gap is 0 and its dB column reads the stated floor.
        units = {k: v for k, v in UNITS.items() if k != "hardware.crosstalk2"}
        cfg = write_config(
            tmp_path,
            experiment="gaussian-validation",
            sweep=None,
            hardware=dict(HW_BLOCK, crosstalk2=[0.0, 0.0]),
            units=dict(units, p_x_points="dBm"),
            p_x_points=[0.0],
            n_samples=200,
        )
        out = tmp_path / "zero.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        row = out.read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(-3076.53, abs=0.01)


class TestExitCodes:
    @pytest.mark.parametrize(
        "raw",
        # A config output is read only without --out, so it is probed here.
        [b"{", b'{"experiment": "se-average", "x": "\xe9"}',
         b'{"experiment": "backoff-vs-gain", "output": 5}'],
        ids=["invalid-json", "non-utf8", "numeric-output"],
    )
    def test_config_error_exits_two(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert main(["run", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="unknown-kind")
        assert main(["run", str(cfg)]) == 2

    def test_invalid_hardware_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, hardware=dict(HW_BLOCK, rho=[0.025, -0.025]))
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"hardware": dict(HW_BLOCK, rho=["a", -0.02])},
            {"hardware": dict(HW_BLOCK, rho=[float("nan"), -0.025])},
            {"sweep": {"gain2": [float("inf"), 30.0], "crosstalk2": [-50.0]}},
            {"sweep": {"gain2": {"start": 25.0, "stop": 30.0, "count": True}, "crosstalk2": [-50.0]}},
            # The sweep replaces this crosstalk, so only parsing can catch it.
            {"hardware": dict(HW_BLOCK, crosstalk2=[float("nan"), -50.0])},
            {"experiment": ["backoff-vs-gain"]},
            {"units": dict(UNITS, **{"hardware.noise": ["dBm"]})},
            # An empty sweep builds no hardware, so parsing must catch this one.
            {
                "hardware": dict(HW_BLOCK, gain2=[-1.0, 1000.0]),
                "units": dict(UNITS, **{"hardware.gain2": "linear"}),
                "sweep": {"gain2": [], "crosstalk2": [-50.0]},
            },
            # The square root of a negative sweep crosstalk is NaN.
            {
                "experiment": "nmse-sweep",
                "units": dict(UNITS, **{"sweep.p_x": "dBm", "sweep.crosstalk2": "linear"}),
                "sweep": {"p_x": [-10.0], "crosstalk2": [-1e-6]},
                "n_samples": 200,
            },
            # A misspelled unit path would leave the 30 dB gains read as linear.
            {"units": dict({k: v for k, v in UNITS.items() if k != "hardware.gain2"},
                           **{"hardware.gain": "dB"})},
            # Empty sweeps build no hardware, so parsing must reject the rho.
            {"hardware": dict(HW_BLOCK, rho=[0.025, -0.025]),
             "sweep": {"gain2": [], "crosstalk2": [-50.0]}},
            {"experiment": "se-vs-crosstalk", "signal": None,
             "hardware": dict(HW_BLOCK, rho=[0.025, -0.025]),
             "channel_distribution": {"count": 2, "sigma_n2": 1e-3},
             "sweep": {"crosstalk2": []}},
            # Single-channel kinds read only channel; a distribution is an unknown key.
            {"experiment": "se-perturbation", "signal": None, "sweep": None,
             "channel": CHANNEL, "channel_distribution": {"count": "bogus"}},
            {"experiment": "se-mrt-sweep", "signal": None, "sweep": {"p_x": [1e-3]},
             "channel": CHANNEL, "channel_distribution": {"count": "bogus"}},
            # The two-branch hardware needs a two-entry channel.
            {"experiment": "se-perturbation", "signal": None, "sweep": None,
             "channel": dict(CHANNEL, h=[[1.0, 0.0]])},
            {"experiment": "se-mrt-sweep", "signal": None, "sweep": {"p_x": [1e-3]},
             "channel": dict(CHANNEL, h=[[1.0, 0.0], [0.5, 0.5], [0.2, 0.1]])},
            # Channels need positive receiver noise.
            {"experiment": "se-average", "signal": None, "sweep": None,
             "channel_distribution": {"count": 2, "sigma_n2": 0.0}},
            {"experiment": "se-vs-crosstalk", "signal": None, "sweep": {"crosstalk2": [-50.0]},
             "channel_distribution": {"count": 2, "sigma_n2": 0.0}},
            {"experiment": "se-perturbation", "signal": None, "sweep": None,
             "channel": dict(CHANNEL, sigma_n2=0.0)},
            # Power grids must be positive (watt is the default unit).
            {"experiment": "gaussian-validation", "sweep": None, "p_x_points": [-0.001],
             "n_samples": 200},
            {"experiment": "gaussian-validation", "sweep": None, "p_x_points": [0.0],
             "n_samples": 200},
            {"experiment": "nmse-sweep", "sweep": {"p_x": [-0.001], "crosstalk2": [-50.0]},
             "n_samples": 200},
            {"experiment": "nmse-sweep", "sweep": {"p_x": [0.0], "crosstalk2": [-50.0]},
             "n_samples": 200},
            {"experiment": "se-mrt-sweep", "signal": None, "sweep": {"p_x": [-0.001]},
             "channel": CHANNEL},
            # The back-off and the NMSE sweep need both branches active.
            {"signal": {"beta": 0, "xi": 0.0}},
            {"experiment": "nmse-sweep", "signal": {"beta": 0, "xi": 0.0},
             "sweep": {"p_x": [1e-3], "crosstalk2": [-50.0]}, "n_samples": 200},
            # The SE designs need both branches strictly compressive.
            {"experiment": "se-average", "signal": None, "sweep": None,
             "hardware": dict(HW_BLOCK, rho=[0.0, -0.02]),
             "channel_distribution": {"count": 2, "sigma_n2": 1e-3}},
            {"experiment": "se-perturbation", "signal": None, "sweep": None,
             "hardware": dict(HW_BLOCK, rho=[0.0, -0.02]), "channel": CHANNEL},
            {"experiment": "se-mrt-sweep", "signal": None, "sweep": {"p_x": [1e-3]},
             "hardware": dict(HW_BLOCK, rho=[0.0, -0.02]), "channel": CHANNEL},
            {"experiment": "se-vs-crosstalk", "signal": None, "sweep": {"crosstalk2": [-50.0]},
             "hardware": dict(HW_BLOCK, rho=[0.0, -0.02]),
             "channel_distribution": {"count": 2, "sigma_n2": 1e-3}},
            # Malformed blocks and fields that only parsing sees.
            {"hardware": 5},
            {"units": dict(UNITS, **{"hardware.gain2": "dBm"})},
            {"hardware": dict(HW_BLOCK, rho=5)},
            {"experiment": "nmse-sweep", "sweep": {"p_x": "abc", "crosstalk2": [-50.0]},
             "n_samples": 200},
            {"signal": {"beta": 1.0, "xi": [2, 0]}},
            {"experiment": "se-perturbation", "signal": None, "sweep": None,
             "channel": dict(CHANNEL, h=[[0.0, 0.0], [0.0, 0.0]])},
            {"format": "xml"},
        ],
        ids=["string", "nan", "infinity", "bool-count", "nan-overridden", "experiment-list",
             "unit-list", "negative-hardware-gain", "negative-sweep-crosstalk", "unknown-unit-path",
             "positive-rho-empty-gain-sweep", "positive-rho-empty-crosstalk-sweep",
             "channel-and-distribution-perturbation", "channel-and-distribution-mrt-sweep",
             "one-entry-channel-perturbation", "three-entry-channel-mrt-sweep",
             "zero-noise-distribution-average", "zero-noise-distribution-vs-crosstalk",
             "zero-noise-channel-perturbation", "negative-power-gaussian",
             "zero-power-gaussian", "negative-power-nmse-sweep", "zero-power-nmse-sweep",
             "negative-power-mrt-sweep", "zero-beta-backoff", "zero-beta-nmse-sweep",
             "zero-rho-average",
             "zero-rho-perturbation", "zero-rho-mrt-sweep", "zero-rho-vs-crosstalk",
             "hardware-not-object", "power-unit-on-gain", "scalar-rho", "string-power-sweep",
             "xi-above-one", "zero-channel", "unknown-format"],
    )
    def test_malformed_number_exits_two(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # Zero compression is a legal hardware description, but the
        # worst-branch back-off then has no finite optimum.
        cfg = write_config(tmp_path, hardware=dict(HW_BLOCK, rho=[0.0, 0.0]))
        assert main(["run", str(cfg)]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestListExperiments:
    def test_prints_all_kinds_in_order(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert tuple(out) == EXPERIMENT_KINDS == (
            "gaussian-validation",
            "nmse-sweep",
            "backoff-vs-gain",
            "se-perturbation",
            "se-mrt-sweep",
            "se-average",
            "se-vs-crosstalk",
        )


class TestInstalledScript:
    @pytest.mark.skipif(shutil.which("dirtytx") is None, reason="script not on PATH")
    def test_console_script_smoke(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "script.csv"
        proc = subprocess.run(
            ["dirtytx", "run", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "dirtytx" in capsys.readouterr().out


class TestReadme:
    def test_examples_run(self, tmp_path):
        blocks = re.findall(r"```(\w+)\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                            re.S)
        tour = [body for lang, body in blocks if lang == "python"]
        assert len(tour) == 1
        proc = subprocess.run(
            [sys.executable, "-c", tour[0]],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        commands = [line for lang, body in blocks if lang == "sh"
                    for line in body.splitlines() if line.startswith("dirtytx ")]
        assert commands
        parser = build_parser()
        for line in commands:
            try:
                parser.parse_args(line.split()[1:])
            except SystemExit:
                pytest.fail("README command does not parse: " + line)
