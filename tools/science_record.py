"""Append one entry to SCIENCE.json: what the sweep's output says on a fixed
set of grids and master seeds.

A change that moves CSV bytes runs this before and after, so its effect on the
science is on record beside its effect on the bytes.  Each run goes through
``epsent sweep`` and ``epsent detect``; the companion's convergence, which the
CSV does not carry, is read with ``sweep.companion_stats``.  Per run it
records:

- the cells that fail acceptance criterion 4 (the rule of
  ``tests/test_acceptance.py::TestCriterion4BoundSandwich``, restated here);
- per series, the rows whose value lies above their own ``envelope_high``
  with no slack;
- ``epsent detect``'s status and estimate per sigma;
- how many of the companion's partitions report ``converged``.

Usage, from the repository root (the package is imported from
``PYTHONPATH``, so another checkout's ``src`` measures that checkout)::

    PYTHONPATH=src python tools/science_record.py LABEL [--workers 2]

Earlier entries are never changed; a label already on record is refused.
The full record takes a few minutes on 2 workers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

from epsent.cli import dispatch
from epsent.config import RunConfig, flag_of, from_mapping
from epsent.sweep import companion_stats

RECORD = Path(__file__).resolve().parents[1] / "SCIENCE.json"
DEFAULT_SEED = RunConfig.seed

# (name, config-key overrides, master seeds); every run is otherwise RunConfig()
GRIDS = (
    ("logistic/dynamical", {}, (DEFAULT_SEED, 1, 2, 3, 4)),
    ("tent/output", {"map": "tent", "noise_mode": "output"}, (DEFAULT_SEED,)),
    ("tent/dynamical", {"map": "tent", "noise_mode": "dynamical"}, (DEFAULT_SEED,)),
    ("doubling/dynamical", {"map": "doubling", "noise_mode": "dynamical"}, (DEFAULT_SEED,)),
    ("logistic/output", {"map": "logistic", "noise_mode": "output"}, (DEFAULT_SEED,)),
)

# cells whose rate sits within a few hundredths of a bit of criterion 4's
# gate, so that a move of p_hat alone can take them in or out: (grid, seed,
# sigma, N)
WATCHED = (("logistic/dynamical", 2, 0.01, 6),)

SERIES = ("compression_rate_bits", "cond_entropy_bits")

ABOUT = {
    "written_by": "tools/science_record.py; each entry is labelled by the change it measures",
    "grid": "RunConfig() with the map and noise mode named (seed 1592639710 is 0x5EEDC0DE)",
    "criterion4_failing": "sigma/N of the cells outside criterion 4's band, as in "
    "tests/test_acceptance.py (cells with p_halfwidth >= 0.02 are gated out)",
    "above_envelope_high": "per series, rows whose value exceeds their own envelope_high, no slack",
    "detect": "epsent detect's status and sigma estimate per sigma",
    "companion_converged": "partitions whose noise-free companion reports converged",
    "watched": "rate and upper gate of a cell that sits near criterion 4's gate",
}


def criterion4_gate(row: dict[str, float]) -> tuple[float, float] | None:
    """Criterion 4's [low, high] band for one row, or None when the row is
    gated out by a half-width of 0.02 or more."""
    if row["p_halfwidth"] >= 0.02:
        return None
    high = row["envelope_high"] + max(0.2, 0.15 * row["envelope_high"])
    return row["kifer_lower"] - 0.3, high


def cell_name(row: dict[str, float]) -> str:
    return f"{row['sigma']:g}/{int(row['n_cells'])}"


def read_detect(csv_path: str) -> dict[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if dispatch(["detect", csv_path]) != 0:
            raise RuntimeError(f"epsent detect failed on {csv_path}")
    result = {}
    for line in out.getvalue().splitlines():
        fields = dict(item.split("=", 1) for item in line.split())
        estimate = fields.get("sigma_estimate")
        result[fields["sigma"]] = {
            "status": fields["status"],
            "estimate": None if estimate is None else float(estimate),
        }
    return result


def record_run(grid: str, overrides: dict, seed: int, workers: int, tmp: Path) -> dict:
    csv_path = str(tmp / "sweep.csv")
    argv = ["sweep", "--seed", str(seed), "--workers", str(workers), "--out-csv", csv_path]
    for key, value in overrides.items():
        if isinstance(value, bool):
            # a bool field is a flag with no value, which can only turn it on
            argv += [flag_of(key)] * value
        else:
            # a tuple field is a repeatable flag
            for v in value if isinstance(value, tuple) else (value,):
                argv += [flag_of(key), str(v)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "length .* below recommended")
        if dispatch(argv) != 0:
            raise RuntimeError(f"epsent sweep failed: {argv}")
        selections = companion_stats(RunConfig(**from_mapping(overrides), seed=seed))
    with open(csv_path, newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]

    failing, watched = [], {}
    for row in rows:
        gate = criterion4_gate(row)
        fails = gate is not None and not gate[0] <= row["compression_rate_bits"] <= gate[1]
        if fails:
            failing.append(cell_name(row))
        for w_grid, w_seed, w_sigma, w_n in WATCHED:
            if (grid, seed, w_sigma, w_n) == (w_grid, w_seed, row["sigma"], row["n_cells"]):
                watched[cell_name(row)] = {
                    "rate": row["compression_rate_bits"],
                    "gate_high": None if gate is None else gate[1],
                    "fails": fails,
                }
    run = {
        "grid": grid,
        "seed": seed,
        "criterion4_failing": failing,
        "above_envelope_high": {
            s: sum(row[s] > row["envelope_high"] for row in rows) for s in SERIES
        },
        "detect": read_detect(csv_path),
        "companion_converged": sum(sel.converged for sel, _ in selections),
        "partitions": len(selections),
    }
    if watched:
        run["watched"] = watched
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="name of the entry, e.g. the change it measures")
    parser.add_argument("--workers", type=int, default=1, help="sweep workers (same bytes)")
    args = parser.parse_args(argv)

    if RECORD.exists():
        record = json.loads(RECORD.read_text())
    else:
        record = {"about": ABOUT, "entries": []}
    if any(entry["label"] == args.label for entry in record["entries"]):
        print(f"{RECORD.name}: entry {args.label!r} already on record", file=sys.stderr)
        return 2
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for grid, overrides, seeds in GRIDS:
            for seed in seeds:
                runs.append(record_run(grid, overrides, seed, args.workers, Path(tmp)))
                print(f"{grid} seed {seed}: {len(runs[-1]['criterion4_failing'])} criterion-4 "
                      f"cells", file=sys.stderr)
    record["entries"].append({"label": args.label, "runs": runs})
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
