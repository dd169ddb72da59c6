#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the epsent package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload headline --seed 7 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``headline``        - the shipped (sigma, eps) grid: logistic map, dynamical
                        noise, lz78, one process.
* ``tent_castore_w2`` - the same grid on the tent map with output noise,
                        castore and a pool of two worker processes.
* ``codec_roundtrip`` - ``epsent compress`` then ``epsent decompress`` for both
                        coders on symbol files with N in {2, 16, 250}.

All three call ``epsent.cli.dispatch`` in-process, with the package imported
from ``src/`` of the checkout.  ``--seed`` is the grid's master seed and the
seed of the codec input files.  With ``--trace 0`` the workload repeats for
``--seconds`` and throughput is total work over total wall; with
``--trace 1`` one traced single-worker repetition runs between untraced
ones and per-layer totals are reported from it (see tracing.py).

Every output is checked: a grid cell fails when its CSV row is missing or
breaks an invariant, a codec operation fails unless the decompressed file
equals the input byte for byte, and every repetition of one invocation must
produce the same output sha256.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the machine facts, output digests and workload-specific figures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0x5EEDC0DE
# Orbit length of every grid cell, and symbols per codec input file.  One
# grid repetition then takes about 4 s and one codec repetition about 1 s on
# a 2-core 2.0 GHz Xeon.
DEFAULT_LENGTH = 50_000
SETUP_SAMPLES = 7

# The shipped RunConfig grid, pinned so that both sides of a comparison run
# the same workload even if the defaults move.
SIGMAS = (0.5, 0.1, 0.02, 0.01, 0.001)
CELLS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 125, 250)
GRID_BASE = {
    "map": "logistic",
    "noise_mode": "dynamical",
    "boundary": "reflect",
    "algorithm": "lz78",
    "burn_in": 1000,
    "p_samples": 20_000,
    "workers": 1,
}
GRIDS = {
    "headline": GRID_BASE,
    "tent_castore_w2": GRID_BASE
    | {"map": "tent", "noise_mode": "output", "algorithm": "castore", "workers": 2},
}
CODEC_CELLS = (2, 16, 250)
CODEC_ALGORITHMS = ("lz78", "castore")
CODEC_SIGMA = 0.01
WORKLOADS = (*GRIDS, "codec_roundtrip")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_package() -> None:
    """Import epsent from this checkout's src/ and nowhere else."""
    if not (SRC / "epsent" / "__init__.py").is_file():
        raise SetupError(f"no epsent package under {SRC}")
    sys.path.insert(0, str(SRC))
    import epsent

    if Path(epsent.__file__).resolve().parent != SRC / "epsent":
        raise SetupError(f"imported epsent from {epsent.__file__}, not {SRC}")


def machine_facts() -> dict:
    import multiprocessing

    import numpy

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "loadavg": os.getloadavg(),
    }


# Set-up of the program proper, in a fresh interpreter: import the package,
# resolve and validate the run configuration, derive every cell seed.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import epsent, epsent.cli
from epsent.config import load_config
from epsent.seeds import cell_seed, companion_seed
cfg = load_config(None, json.loads(sys.argv[2]))
seeds = [cell_seed(cfg.seed, i, j) for i in range(len(cfg.sigma)) for j in range(len(cfg.n_list))]
companion_seed(cfg.seed)
print(time.perf_counter() - t0)
"""


def setup_seconds(overrides: dict) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(overrides)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def dispatch(argv: list[str]) -> int:
    """Run one CLI command in-process; show its stderr only if it fails."""
    import epsent.cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = epsent.cli.dispatch(argv)
    if rc != 0:
        sys.stderr.write(f"epsent {' '.join(argv)} exited {rc}\n{err.getvalue()}")
    return rc


class Rep:
    """Outcome of one repetition of a workload; ``extra`` holds the
    workload's own figures."""

    def __init__(self, wall: float, attempted: int, failed: int, digest: str, **extra):
        self.wall = wall
        self.attempted = attempted
        self.failed = failed
        self.digest = digest
        self.extra = extra


class Grid:
    def __init__(self, name: str, seed: int, length: int, work: Path):
        self.params = GRIDS[name] | {"length": length, "seed": seed}
        self.symbols = len(SIGMAS) * len(CELLS) * length
        self.csv = work / "sweep.csv"

    @property
    def workers(self) -> int:
        return self.params["workers"]

    def config_overrides(self) -> dict:
        return self.params | {"sigma": SIGMAS, "n_list": CELLS}

    def run(self, workers: int | None = None) -> Rep:
        params = self.params | ({} if workers is None else {"workers": workers})
        argv = ["sweep", "--out-csv", str(self.csv)]
        for key, value in params.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        for sigma in SIGMAS:
            argv += ["--sigma", repr(sigma)]
        for n in CELLS:
            argv += ["--cells", str(n)]
        self.csv.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc = dispatch(argv)
        wall = time.perf_counter() - t0
        expected = len(SIGMAS) * len(CELLS)
        if rc != 0 or not self.csv.is_file():
            return Rep(wall, expected, expected, "", bits_per_symbol=0.0, over=0)
        good, over, rates = self.check_csv()
        return Rep(
            wall,
            expected,
            expected - len(good),
            hashlib.sha256(self.csv.read_bytes()).hexdigest(),
            bits_per_symbol=statistics.fmean(rates) if rates else 0.0,
            over=over,
        )

    def check_csv(self) -> tuple[set, int, list[float]]:
        """Cells with exactly one row meeting every invariant, cells whose
        compression rate exceeds envelope_high, and the coded rates."""
        from epsent.seeds import cell_seed

        seen: dict[tuple[int, int], int] = {}
        bad: set[tuple[int, int]] = set()
        over = 0
        rates = []
        with open(self.csv, newline="") as fh:
            for row in csv.DictReader(fh):
                try:
                    key = (SIGMAS.index(float(row["sigma"])), CELLS.index(int(row["n_cells"])))
                    values = [float(v) for v in row.values()]
                    ok = (
                        all(math.isfinite(v) for v in values)
                        and int(row["orbit_len"]) == self.params["length"]
                        and int(row["cell_seed"]) == cell_seed(self.params["seed"], *key)
                    )
                    ceiling = math.log2(int(row["n_cells"])) + 1e-9
                    for col in ("block_rate_bits", "cond_entropy_bits"):
                        ok = ok and 0.0 <= float(row[col]) <= ceiling
                except (KeyError, TypeError, ValueError):
                    continue
                seen[key] = seen.get(key, 0) + 1
                if not ok:
                    bad.add(key)
                    continue
                rate = float(row["compression_rate_bits"])
                rates.append(rate)
                over += rate > float(row["envelope_high"])
        good = {k for k, c in seen.items() if c == 1 and k not in bad}
        return good, over, rates


class Codec:
    workers = 1

    def __init__(self, seed: int, length: int, work: Path):
        self.work = work
        self.symbols = 2 * len(CODEC_ALGORITHMS) * len(CODEC_CELLS) * length
        self.inputs = {n: work / f"symbols_{n}.txt" for n in CODEC_CELLS}
        for n, text in codec_inputs(seed, length).items():
            self.inputs[n].write_text(text)

    def config_overrides(self) -> dict:
        return {}

    def run(self, workers: int | None = None) -> Rep:
        compress_s = decompress_s = 0.0
        failed = 0
        bits = 0
        digest = hashlib.sha256()
        for algorithm in CODEC_ALGORITHMS:
            for n, src in self.inputs.items():
                stream = self.work / f"{algorithm}_{n}.epsc"
                back = self.work / f"{algorithm}_{n}.out"
                stream.unlink(missing_ok=True)
                back.unlink(missing_ok=True)
                t0 = time.perf_counter()
                rc = dispatch(["compress", "--cells", str(n), "--algorithm", algorithm, str(src), str(stream)])
                t1 = time.perf_counter()
                rc = rc or dispatch(["decompress", str(stream), str(back)])
                t2 = time.perf_counter()
                compress_s += t1 - t0
                decompress_s += t2 - t1
                if rc != 0 or not back.is_file() or back.read_bytes() != src.read_bytes():
                    failed += 1
                    continue
                data = stream.read_bytes()
                bits += 8 * len(data)
                digest.update(data)
        return Rep(
            compress_s + decompress_s,
            len(CODEC_ALGORITHMS) * len(CODEC_CELLS),
            failed,
            digest.hexdigest(),
            bits_per_symbol=bits / (self.symbols / 2),
            compress_s=compress_s,
            decompress_s=decompress_s,
        )


def codec_inputs(seed: int, length: int) -> dict[int, str]:
    """Symbol files from a noisy logistic orbit (lambda = 4, dynamical noise,
    reflecting boundary), written by this benchmark, not by epsent.dynamics,
    so that every commit compresses the same bytes."""
    import numpy as np

    rng = np.random.default_rng([seed & (2**64 - 1), 0xC0DEC])
    burn = 1000
    noise = rng.uniform(-CODEC_SIGMA, CODEC_SIGMA, size=burn + length).tolist()
    x = float(rng.uniform(0.0, 1.0))
    orbit = []
    for w in noise:
        y = 4.0 * x * (1.0 - x) + w
        x = -y if y < 0.0 else (2.0 - y if y > 1.0 else y)
        orbit.append(x)
    points = np.asarray(orbit[burn:])
    out = {}
    for n in CODEC_CELLS:
        symbols = np.minimum((points * n).astype(np.int64), n - 1)
        out[n] = "".join(f"{s}\n" for s in symbols.tolist())
    return out


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--length",
        type=int,
        default=DEFAULT_LENGTH,
        help="grid orbit length and codec symbols per file (>= 1000)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts()
    print("machine " + json.dumps(facts))

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "codec_roundtrip":
            workload = Codec(args.seed, args.length, work)
        else:
            workload = Grid(args.workload, args.seed, args.length, work)
        if args.trace:
            reps, metrics = run_traced(workload)
        else:
            reps, metrics = run_untraced(workload, args.seconds)
            # After the measurement, so that the set-up interpreters do not
            # count towards the children's peak RSS.
            metrics["setup_s"] = setup_seconds(workload.config_overrides())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    digests = {r.digest for r in reps}
    print(f"output_sha256 {' '.join(sorted(digests))}")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    deterministic = len(digests) == 1 and "" not in digests
    if not deterministic:
        print("perfbench: repetitions disagree on the output sha256", file=sys.stderr)

    names = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in names["per_layer" if args.trace else "end_to_end"]}
    print(
        json.dumps(
            {
                "correct": deterministic and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


def run_untraced(workload, seconds: float) -> tuple[list[Rep], dict]:
    """Repeat the workload for ``seconds``; throughputs are total work over
    total wall, which the host's slow spells bias less than a median does."""
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        reps.append(workload.run())
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {
        "symbols_per_s": workload.symbols * len(reps) / sum(r.wall for r in reps),
        "peak_rss_mib": peak_rss_mib(),
        "bits_per_symbol": reps[0].extra["bits_per_symbol"],
        "ok_ratio": (attempted - failed) / attempted,
    }
    figures = {
        "repetitions": len(reps),
        "rep_wall_s": [r.wall for r in reps],
        "failed_ratio": failed / attempted,
    }
    if isinstance(workload, Codec):
        for step in ("compress", "decompress"):
            total = sum(r.extra[f"{step}_s"] for r in reps)
            figures[f"{step}_symbols_per_s"] = workload.symbols / 2 * len(reps) / total
    else:
        figures["cells_over_envelope"] = reps[0].extra["over"]
    print("figures " + json.dumps(figures))
    return reps, metrics


def run_traced(workload) -> tuple[list[Rep], dict]:
    """One repetition with the workload's workers, then a traced one-worker
    repetition between two untraced ones, whose mean wall is the reference
    for the tracing overhead and the parallel efficiency."""
    from tracing import Tracer, layer_metrics, traced

    first = workload.run()
    before = workload.run(workers=1) if workload.workers > 1 else first
    tracer = Tracer()
    with traced(tracer):
        traced_rep = workload.run(workers=1)
    after = workload.run(workers=1)
    w1_wall = (before.wall + after.wall) / 2
    metrics = layer_metrics(tracer)
    metrics["sweep.cells_failed"] = traced_rep.failed if isinstance(workload, Grid) else 0
    metrics["sweep.cells_over_envelope"] = traced_rep.extra.get("over", 0)
    metrics["sweep.parallel_efficiency"] = w1_wall / (workload.workers * first.wall)
    metrics["trace.overhead_s"] = traced_rep.wall - w1_wall
    reps = [first, traced_rep, after] + ([before] if before is not first else [])
    return reps, metrics


if __name__ == "__main__":
    sys.exit(main())
