"""Seeded mutation fuzz of the shipped configs.

Each mutation deletes one key or sets one value at any depth, list
entries included, to a hostile value.  Every run must give a table, a
``ConfigError`` or a ``NumericalError``, and the command line must exit
0, 2 or 3 without a traceback.  Sample and channel counts are clamped
after mutating, so that no run allocates a large array.
"""

import copy
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dirtytx.cli import main
from dirtytx.errors import ConfigError, NumericalError
from dirtytx.experiments import run_experiment

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {path.stem: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted((ROOT / "configs").glob("*.json"))}
DELETE = "<delete>"
VALUES = (DELETE, None, True, 0, -1, 1e-320, 1e308, -1e308, 2 ** 70, "x", [1.0, 2.0, 3.0])


def _paths(obj, prefix=()):
    """Every key path below ``obj``: dict keys and list indices, at any depth."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def mutate(name, path, value):
    """Config ``name`` with ``path`` set to ``value`` (or deleted), counts clamped."""
    cfg = copy.deepcopy(CONFIGS[name])
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    if type(cfg.get("n_samples")) is int:
        cfg["n_samples"] = min(cfg["n_samples"], 200)
    dist = cfg.get("channel_distribution")
    if isinstance(dist, dict) and type(dist.get("count")) is int:
        dist["count"] = min(dist["count"], 5)
    return cfg


# Only dict entries (string keys) can be deleted.
MUTATIONS = [(name, path, value) for name, cfg in CONFIGS.items() for path in _paths(cfg)
             for value in VALUES if value != DELETE or isinstance(path[-1], str)]
SAMPLE = random.Random(33).sample(MUTATIONS, 600)


def test_every_sampled_mutation_gives_a_table_or_a_typed_error():
    assert len(CONFIGS) == 7 and {name for name, _, _ in SAMPLE} == set(CONFIGS)
    escapes = []
    for name, path, value in SAMPLE:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_experiment(mutate(name, path, value))
        except (ConfigError, NumericalError):
            pass
        except Exception as exc:
            escapes.append("%s %s=%r: %r" % (name, path, value, exc))
    assert not escapes, "\n".join(escapes)


def test_cli_sample_exits_0_2_or_3(tmp_path, capsys):
    for k, (name, path, value) in enumerate(SAMPLE[:40]):
        cfg = tmp_path / ("%d.json" % k)
        cfg.write_text(json.dumps(mutate(name, path, value)), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["run", str(cfg), "--out", str(tmp_path / "out.csv")])
        assert code in (0, 2, 3), (name, path, value)
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name, path, value, code", [
    # Branch 2's NMSE denominator underflows: no candidate is finite.
    ("backoff_vs_gain", ("signal", "beta"), 1e-320, 3),
    # The input covariance overflows to inf + nan j.
    ("gaussian_validation", ("signal", "beta"), 1e308, 3),
    # A range count too large to allocate.
    ("nmse_sweep", ("sweep", "p_x", "count"), 2 ** 70, 2),
], ids=["subnormal-beta-backoff", "huge-beta-gaussian", "huge-range-count"])
def test_found_escapes_exit_typed_from_the_command_line(tmp_path, name, path, value, code):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(mutate(name, path, value)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "dirtytx.cli", "run", str(cfg), "--out", str(tmp_path / "o.csv")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
