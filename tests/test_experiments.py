"""Tests for the declarative experiment runner and its serialization."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from dirtytx import (
    HardwareConfig,
    ModelValidityWarning,
    SignalSpec,
    approx_nmse1,
    db_to_linear,
    dbm_to_watt,
    minmax_backoff,
    nmse_branches,
)
from dirtytx.errors import ConfigError, NumericalError
from dirtytx.experiments import (
    EXPERIMENT_KINDS,
    ResultTable,
    config_digest,
    load_config,
    render,
    run_experiment,
)

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
}


def hw_from_block():
    return HardwareConfig(
        gamma=(np.sqrt(1000.0),) * 2,
        kappa=(np.sqrt(1e-5),) * 2,
        rho=(-0.025, -0.025),
        sigma_w2=dbm_to_watt(-10.0),
    )


class TestConfigPlumbing:
    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_digest_ignores_key_order(self):
        a = {"experiment": "se-average", "seed": 1, "hardware": {"gain2": [1, 2]}}
        b = {"hardware": {"gain2": [1, 2]}, "seed": 1, "experiment": "se-average"}
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 64

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            run_experiment({"experiment": "mystery"})

    def test_non_object_config(self):
        with pytest.raises(ConfigError, match="must be an object"):
            run_experiment([])

    def test_unknown_top_level_key(self):
        cfg = {
            "experiment": "se-average",
            "hardware": HW_BLOCK,
            "units": UNITS,
            "channel_distribution": {"count": 1, "sigma_n2": 1.0},
            "bogus": 1,
        }
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_unknown_unit_name(self):
        cfg = {
            "experiment": "se-average",
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"hardware.gain2": "furlong"}),
            "channel_distribution": {"count": 1, "sigma_n2": 1.0},
        }
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_power_field_rejects_ratio_unit(self):
        cfg = {
            "experiment": "se-average",
            "hardware": dict(HW_BLOCK),
            "units": dict(UNITS, **{"hardware.noise": "dB"}),
            "channel_distribution": {"count": 1, "sigma_n2": 1.0},
        }
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_seed_validation(self):
        base = {
            "experiment": "se-average",
            "hardware": HW_BLOCK,
            "units": UNITS,
            "channel_distribution": {"count": 1, "sigma_n2": 1.0},
        }
        with pytest.raises(ConfigError):
            run_experiment(dict(base, seed=-1))
        with pytest.raises(ConfigError):
            run_experiment(dict(base, seed=True))
        with pytest.raises(ConfigError):
            run_experiment(base, n_threads=0)
        with pytest.raises(ConfigError):
            run_experiment(base, n_threads=True)

    def test_invalid_hardware_is_a_config_error(self):
        cfg = {
            "experiment": "se-average",
            "hardware": dict(HW_BLOCK, rho=[0.025, -0.025]),
            "units": UNITS,
            "channel_distribution": {"count": 1, "sigma_n2": 1.0},
        }
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestSweepGrids:
    def test_range_object_matches_explicit_list(self):
        base = {
            "experiment": "backoff-vs-gain",
            "seed": 5,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.gain2": "dB", "sweep.crosstalk2": "dB"}),
            "signal": {"beta": 1.0, "xi": 0.0},
        }
        explicit = run_experiment(
            dict(base, sweep={"gain2": [20.0, 25.0, 30.0], "crosstalk2": [-50.0]})
        )
        ranged = run_experiment(
            dict(
                base,
                sweep={
                    "gain2": {"start": 20.0, "stop": 30.0, "count": 3},
                    "crosstalk2": [-50.0],
                },
            )
        )
        assert explicit.rows == ranged.rows

    def test_bad_range_objects(self):
        base = {
            "experiment": "backoff-vs-gain",
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.gain2": "dB", "sweep.crosstalk2": "dB"}),
            "signal": {"beta": 1.0, "xi": 0.0},
        }
        with pytest.raises(ConfigError):
            run_experiment(
                dict(base, sweep={"gain2": {"start": 1, "stop": 2}, "crosstalk2": [-50.0]})
            )
        with pytest.raises(ConfigError):
            run_experiment(
                dict(
                    base,
                    sweep={
                        "gain2": {"start": 1, "stop": 2, "count": 0},
                        "crosstalk2": [-50.0],
                    },
                )
            )
        with pytest.raises(ConfigError):
            run_experiment(
                dict(
                    base,
                    sweep={
                        "gain2": {"start": 1, "stop": 2, "count": 2, "step": 1},
                        "crosstalk2": [-50.0],
                    },
                )
            )

    @pytest.mark.parametrize("count", [10 ** 6 + 1, 2 ** 70])
    def test_range_count_above_the_limit_is_rejected_before_allocation(self, count,
                                                                       monkeypatch):
        linspace = np.linspace

        def small_only(start, stop, num, **kwargs):
            assert num <= 10 ** 3, "a large grid reached np.linspace"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", small_only)
        gain = {"start": 1, "stop": 2, "count": count}
        cfg = {
            "experiment": "backoff-vs-gain",
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.gain2": "dB", "sweep.crosstalk2": "dB"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "sweep": {"gain2": gain, "crosstalk2": [-50.0]},
        }
        with pytest.raises(ConfigError, match="sweep.gain2.count must be at most 1000000"):
            run_experiment(cfg)
        perturbation = json.loads((Path(__file__).resolve().parents[1] / "configs"
                                   / "se_perturbation.json").read_text(encoding="utf-8"))
        with pytest.raises(ConfigError, match="phase_count must be at most"):
            run_experiment(dict(perturbation, phase_count=count))

    def test_empty_sweep_yields_empty_table(self):
        cfg = {
            "experiment": "backoff-vs-gain",
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.gain2": "dB", "sweep.crosstalk2": "dB"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "sweep": {"gain2": [], "crosstalk2": [-50.0]},
        }
        table = run_experiment(cfg)
        assert table.rows == []
        text = render(table, "csv")
        assert "p_x_opt [dBm]" in text


class TestBackoffVsGain:
    def run_table(self):
        cfg = {
            "experiment": "backoff-vs-gain",
            "seed": 2,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.gain2": "dB", "sweep.crosstalk2": "dB"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "sweep": {
                "gain2": {"start": 20.0, "stop": 40.0, "count": 9},
                "crosstalk2": [-60.0, -50.0],
            },
        }
        with warnings.catch_warnings():
            # The top of the gain sweep exceeds the documented loop-gain
            # validity bound; the warning is part of the sweep's point.
            warnings.simplefilter("ignore", ModelValidityWarning)
            return run_experiment(cfg)

    def test_optimal_power_decreases_with_gain(self):
        table = self.run_table()
        for k2 in (-60.0, -50.0):
            mask = table.column("crosstalk2") == k2
            p_opt = table.column("p_x_opt")[mask]
            assert np.all(np.diff(p_opt) < 0.0)

    def test_stronger_crosstalk_costs_more_nmse(self):
        table = self.run_table()
        weak = table.column("worst_nmse")[table.column("crosstalk2") == -60.0]
        strong = table.column("worst_nmse")[table.column("crosstalk2") == -50.0]
        assert np.all(strong > weak)

    def test_rows_match_direct_solver(self):
        table = self.run_table()
        row = table.rows[0]
        g2 = db_to_linear(row[0])
        k2 = db_to_linear(row[1])
        hw = HardwareConfig(
            gamma=(np.sqrt(g2),) * 2,
            kappa=(np.sqrt(k2),) * 2,
            rho=(-0.025, -0.025),
            sigma_w2=dbm_to_watt(-10.0),
        )
        sol = minmax_backoff(hw, SignalSpec(p_x=1.0, beta=1.0, xi=0.0))
        assert 10 * np.log10(sol.p_x_opt / 1e-3) == pytest.approx(row[2], abs=1e-9)
        assert row[4] in (1.0, 2.0, 3.0)


class TestNmseSweep:
    def test_columns_match_direct_calls(self):
        cfg = {
            "experiment": "nmse-sweep",
            "seed": 3,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.p_x": "dBm", "sweep.crosstalk2": "dB"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "sweep": {"p_x": [-10.0, -6.0], "crosstalk2": [-50.0]},
            "n_samples": 2000,
        }
        table = run_experiment(cfg)
        hw = hw_from_block()
        for row in table.rows:
            sig = SignalSpec(p_x=dbm_to_watt(row[1]), beta=1.0, xi=0.0)
            rep = nmse_branches(hw, sig)
            assert row[2] == pytest.approx(rep.nmse1_db, abs=1e-9)
            assert row[3] == pytest.approx(rep.nmse2_db, abs=1e-9)
            assert row[6] == pytest.approx(
                10 * np.log10(approx_nmse1(hw, sig)), abs=1e-9
            )
            # The empirical columns ride on only 2000 samples here, so
            # hold them to half a dB rather than the tight module bound.
            assert abs(row[4] - row[2]) < 0.5
            assert abs(row[5] - row[3]) < 0.5

    def test_power_round_trip_is_exact(self):
        cfg = {
            "experiment": "nmse-sweep",
            "seed": 3,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.p_x": "dBm", "sweep.crosstalk2": "dB"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "sweep": {"p_x": [-6.789], "crosstalk2": [-50.0]},
            "n_samples": 100,
        }
        table = run_experiment(cfg)
        assert abs(table.column("p_x")[0] - (-6.789)) < 1e-12


class TestGaussianValidation:
    def test_small_run_structure(self):
        cfg = {
            "experiment": "gaussian-validation",
            "seed": 4,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"p_x_points": "dBm"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "p_x_points": [-20.0, 0.0],
            "n_samples": 4000,
        }
        table = run_experiment(cfg)
        assert table.names[:2] == ["p_x", "covariance_nmse"]
        assert len(table.rows) == 2
        assert np.all(table.column("covariance_nmse") < -25.0)
        assert np.all(table.column("failure_rate") == 0.0)
        ks = np.array([row[2:6] for row in table.rows])
        assert ks.max() < 0.1

    def test_silent_second_branch_is_accepted(self):
        # Only the NMSE runners need power on both branches.
        cfg = {
            "experiment": "gaussian-validation",
            "seed": 4,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"p_x_points": "dBm"}),
            "signal": {"beta": 0.0, "xi": 0.0},
            "p_x_points": [-10.0],
            "n_samples": 500,
        }
        assert len(run_experiment(cfg).rows) == 1

    def test_empty_point_list_rejected(self):
        cfg = {
            "experiment": "gaussian-validation",
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"p_x_points": "dBm"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "p_x_points": [],
            "n_samples": 100,
        }
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestSePerturbation:
    def make_config(self):
        return {
            "experiment": "se-perturbation",
            "seed": 13,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"channel.sigma_n2": "watt"}),
            "channel": {"h": [[0.9, 0.2], [-0.5, 0.6]], "sigma_n2": 1.0},
        }

    def test_no_perturbation_beats_the_optimum(self):
        table = run_experiment(self.make_config())
        opt = table.metadata["optimal_se"]
        assert np.all(table.column("se") <= opt + 1e-9)

    def test_identity_rows_hit_the_optimum(self):
        table = run_experiment(self.make_config())
        opt = table.metadata["optimal_se"]
        for row in table.rows:
            if row[0] == 0.0 and row[1] == 1.0:
                assert row[2] == pytest.approx(opt, abs=1e-12)

    def test_row_count_follows_requested_grids(self):
        cfg = dict(
            self.make_config(),
            phase_count=12,
            amp_scales=[0.5, 1.0, 2.0],
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 12 + 3


class TestSeMrtSweep:
    def test_sweep_and_metadata(self):
        cfg = {
            "experiment": "se-mrt-sweep",
            "seed": 14,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"channel.sigma_n2": "watt", "sweep.p_x": "dBm"}),
            "channel": {"h": [[0.9, 0.2], [-0.5, 0.6]], "sigma_n2": 1.0},
            "sweep": {"p_x": {"start": -30.0, "stop": 10.0, "count": 21}},
        }
        table = run_experiment(cfg)
        assert len(table.rows) == 21
        for key in (
            "optimal_se",
            "conventional_opt_se",
            "distortion_aware_opt_se",
            "optimal_p_x_dbm",
        ):
            assert key in table.metadata
        se_conv = table.column("se_conventional")
        assert table.metadata["conventional_opt_se"] >= se_conv.max() - 1e-9
        assert table.metadata["optimal_se"] >= table.metadata["distortion_aware_opt_se"] - 1e-9


class TestSeAverage:
    def test_mean_ordering_and_per_channel_gaps(self):
        cfg = {
            "experiment": "se-average",
            "seed": 11,
            "hardware": HW_BLOCK,
            "units": UNITS,
            "channel_distribution": {"count": 25, "sigma_n2": 1.0},
        }
        table = run_experiment(cfg)
        meta = table.metadata
        assert meta["n_channels"] == 25
        assert meta["mean_se_optimal"] >= meta["mean_se_distortion_aware"] - 1e-9
        assert meta["mean_se_distortion_aware"] >= meta["mean_se_conventional"] - 1e-9
        gaps = table.column("se_optimal") - table.column("se_distortion_aware")
        assert gaps.min() > -1e-9

    def test_count_must_be_positive(self):
        cfg = {
            "experiment": "se-average",
            "hardware": HW_BLOCK,
            "units": UNITS,
            "channel_distribution": {"count": 0, "sigma_n2": 1.0},
        }
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestSeVsCrosstalk:
    def run_table(self):
        cfg = {
            "experiment": "se-vs-crosstalk",
            "seed": 12,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.crosstalk2": "dB"}),
            "channel_distribution": {"count": 15, "sigma_n2": 1.0},
            "sweep": {"crosstalk2": [-70.0, -60.0, -50.0, -45.0]},
        }
        with warnings.catch_warnings():
            # The -45 dB point crosses the documented validity boundary
            # of the linearized statistics; the warning is expected.
            warnings.simplefilter("ignore", ModelValidityWarning)
            return run_experiment(cfg)

    def test_aware_designs_are_flat_in_crosstalk(self):
        table = self.run_table()
        opt = table.column("mean_se_optimal")
        da = table.column("mean_se_distortion_aware")
        assert opt.max() - opt.min() < 0.01
        assert da.max() - da.min() < 0.01

    def test_conventional_design_degrades(self):
        table = self.run_table()
        conv = table.column("mean_se_conventional")
        assert np.all(np.diff(conv[1:]) < 0.0)
        assert conv[0] - conv[-1] > 0.02

    def test_channels_stable_when_sweep_grows(self):
        base = {
            "experiment": "se-vs-crosstalk",
            "seed": 12,
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.crosstalk2": "dB"}),
            "channel_distribution": {"count": 8, "sigma_n2": 1.0},
        }
        one = run_experiment(dict(base, sweep={"crosstalk2": [-60.0]}))
        two = run_experiment(dict(base, sweep={"crosstalk2": [-60.0, -50.0]}))
        assert one.rows[0] == two.rows[0]

    def test_empty_sweep_yields_empty_table(self):
        cfg = {
            "experiment": "se-vs-crosstalk",
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"sweep.crosstalk2": "dB"}),
            "channel_distribution": {"count": 8, "sigma_n2": 1.0},
            "sweep": {"crosstalk2": []},
        }
        table = run_experiment(cfg)
        assert table.rows == []
        assert "crosstalk2 [dB],mean_se_optimal [bit]" in render(table, "csv")


class TestResultTable:
    def test_non_finite_rows_rejected(self):
        with pytest.raises(NumericalError):
            ResultTable(names=["a"], units=["-"], rows=[[float("nan")]])

    def test_width_checks(self):
        with pytest.raises(ValueError):
            ResultTable(names=["a", "b"], units=["-"], rows=[])
        with pytest.raises(ValueError):
            ResultTable(names=["a"], units=["-"], rows=[[1.0, 2.0]])

    def test_column_accessor(self):
        table = ResultTable(names=["a", "b"], units=["-", "-"], rows=[[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(table.column("b"), [2.0, 4.0])
        with pytest.raises(KeyError):
            table.column("c")


class TestRender:
    def sample_table(self):
        return ResultTable(
            names=["p_x", "value"],
            units=["dBm", "dB"],
            rows=[[-10.0, 1.25], [0.0, -3.5]],
            metadata={"seed": 7, "experiment": "demo"},
        )

    def test_csv_layout(self):
        text = render(self.sample_table(), "csv")
        lines = text.split("\r\n")
        assert lines[0] == "# experiment=demo"
        assert lines[1] == "# seed=7"
        assert lines[2] == "p_x [dBm],value [dB]"
        assert lines[3].startswith("-10,")

    def test_json_layout(self):
        text = render(self.sample_table(), "json")
        obj = json.loads(text)
        assert obj["columns"]["value"] == [1.25, -3.5]
        assert obj["units"]["p_x"] == "dBm"
        assert obj["metadata"]["seed"] == 7
        assert text.endswith("\n")
        assert render(self.sample_table(), "json") == text

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            render(self.sample_table(), "yaml")

    def test_experiment_output_is_byte_stable(self):
        cfg = {
            "experiment": "se-average",
            "seed": 6,
            "hardware": HW_BLOCK,
            "units": UNITS,
            "channel_distribution": {"count": 5, "sigma_n2": 1.0},
        }
        first = render(run_experiment(cfg), "csv")
        second = render(run_experiment(cfg), "csv")
        assert first == second

    def test_seed_changes_monte_carlo_output(self):
        base = {
            "experiment": "gaussian-validation",
            "hardware": HW_BLOCK,
            "units": dict(UNITS, **{"p_x_points": "dBm"}),
            "signal": {"beta": 1.0, "xi": 0.0},
            "p_x_points": [-10.0],
            "n_samples": 2000,
        }
        a = run_experiment(dict(base, seed=1))
        b = run_experiment(dict(base, seed=2))
        assert a.rows != b.rows


# First 16 hex digits of the SHA-256 of each shipped config's CSV table,
# as printed by the README's behaviour-check one-liner.  A change that
# moves one edits the pin and says why.
CONFIG_DIGESTS = {
    "backoff_vs_gain": "ee7575449ffdc465",
    "gaussian_validation": "27c595080d8511b2",
    "nmse_sweep": "bc56e06e4cb26fb2",
    "se_average": "709dc09f4fd18aaa",
    "se_mrt_sweep": "c59ee4fa55b71dc2",
    "se_perturbation": "060d64dba53c6bb4",
    "se_vs_crosstalk": "16916b11c770205e",
}


def test_shipped_config_digests():
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(path.stem for path in configs.glob("*.json")) == sorted(CONFIG_DIGESTS)
    for name, digest in CONFIG_DIGESTS.items():
        table = run_experiment(load_config(str(configs / (name + ".json"))))
        assert hashlib.sha256(render(table, "csv").encode()).hexdigest()[:16] == digest, name
