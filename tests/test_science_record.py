"""tools/science_record.py runs the CLI with flags built from its overrides.

The full record takes minutes and is not part of the unit suite; this runs
one small grid through ``record_run`` and leaves ``SCIENCE.json`` alone.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "science_record.py"


@pytest.fixture
def science(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("science_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    # record_run writes nothing there; a stray write would land in tmp_path
    monkeypatch.setattr(module, "RECORD", tmp_path / "SCIENCE.json")
    return module


def test_record_run_takes_tuple_bool_and_renamed_flags(science, tmp_path):
    record = TOOL.parents[1] / "SCIENCE.json"
    before = record.read_bytes()
    overrides = {
        "map": "tent",
        "noise_mode": "output",
        "lambda": 4.0,
        "sigma": (0.1, 0.01),
        "n_list": (2, 4, 8),
        "length": 2000,
        "p_samples": 500,
        "miller_madow": True,
    }
    run = science.record_run("tent/output", overrides, 7, 1, tmp_path)
    assert (run["grid"], run["seed"], run["partitions"]) == ("tent/output", 7, 3)
    assert set(run["detect"]) == {"0.1", "0.01"}
    # the sweep ran the given grid: 2 sigmas x 3 partitions
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 6
    assert set(run["above_envelope_high"]) == set(science.SERIES)
    assert 0 <= run["companion_converged"] <= 3
    assert record.read_bytes() == before
    assert not (tmp_path / "SCIENCE.json").exists()
