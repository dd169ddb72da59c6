"""The (sigma, eps) grid experiment: run, detect, export.

Each sigma of the grid generates one noisy orbit, and every partition of the
grid observes that same orbit: each grid cell codes it symbolically and
measures its compression rate, block-entropy rate and conditional entropy,
alongside the one-step mismatch probability and the analytic bounds.  The
mismatch probe is the images f(z) of the orbit's first states z: the
observed points themselves under dynamical noise, the clean orbit beneath
them under output noise.  It is mapped once per sigma and shared by its
partitions.  The orbit is seeded by (master seed, sigma index) on the sorted
grid, so results are independent of execution order and worker count;
re-running a sweep reproduces the output byte for byte.  ``cell_seed`` is a
row id and seeds no draw.

The work goes out as orbit tasks: each sigma's partitions are split into
k = min(workers, partitions) strided slices, and a task builds its sigma's
orbit, maps its probe, observes both with every partition of its slice and
frees them on return.  So each sigma's orbit is built k times, once on
1 worker.

The noise-free quantities the bounds need (entropy proxy, convergence depth,
refined-partition diameter) come from one companion run with sigma = 0,
encoded against each partition of the grid.  A cell that fails aborts the
sweep with a ``RuntimeError`` naming its sigma and cell count, and a failing
companion partition names its cell count, so a grid is never returned with
a cell missing.  :func:`run_grid` returns one :class:`CurvePoint` per cell
in CSV order, and the writers keep the order they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter
from typing import Sequence

import numpy as np

from .bounds import envelope
from .compressor import CODERS, castore_encode, lz78_encode
from .config import RunConfig
from .dynamics import MapSpec, NoiseSpec, iterate_map_array, sample_invariant_orbit
from .estimators import (
    DepthSelection,
    block_entropy_rate,
    choose_n0,
    conditional_entropy,
    default_max_block,
    estimate_p,
)
from .partition import Partition, encode, refine_cylinders
from .seeds import cell_seed, companion_seed, orbit_seed

@dataclass(frozen=True)
class CurvePoint:
    """One grid cell: its CSV row, whose columns are these fields in order
    (see :data:`CSV_COLUMNS`)."""

    sigma: float
    eps: float
    n_cells: int
    orbit_len: int
    compression_rate_bits: float
    block_rate_bits: float
    cond_entropy_bits: float
    n0: int
    p_hat: float
    p_halfwidth: float
    pure_noise_line: float
    kifer_lower: float
    upper_bound: float
    envelope_high: float
    cell_seed: int


@dataclass(frozen=True)
class SigmaDetection:
    """Edges of the flat and pure-noise regimes of one curve."""

    eps1: float
    eps2: float
    status: str  # detected | plateau_only | noise_only | undetermined

    @property
    def sigma_estimate(self) -> float:
        if self.status != "detected":
            return math.nan
        return math.sqrt(self.eps1 * self.eps2)


def _sorted_grid(config: RunConfig) -> tuple[tuple[float, ...], tuple[int, ...]]:
    return (
        # + 0.0 reads -0.0 as 0.0, so the flag order cannot pick the spelling
        tuple(sorted({s + 0.0 for s in config.sigma}, reverse=True)),
        tuple(sorted(set(config.n_list))),
    )


def _max_block(config: RunConfig, n: int) -> int:
    """Deepest block length of an ``n``-cell partition: ``max_block``, else
    :func:`default_max_block` of the orbit length."""
    if config.max_block is not None:
        return config.max_block
    return default_max_block(config.length, n)


def companion_stats(config: RunConfig) -> list[tuple[DepthSelection, float]]:
    """Noise-free run of the configured system: for each sorted partition,
    the companion orbit's :class:`DepthSelection` and eps_n0, the diameter of
    the partition refined to depth ``n0``."""
    spec = MapSpec(config.map, config.lam)
    _, cells = _sorted_grid(config)
    noise0 = NoiseSpec(
        sigma=0.0, mode="none", boundary=config.boundary, seed=companion_seed(config.seed)
    )
    orbit = sample_invariant_orbit(spec, noise0, config.length, config.burn_in).points
    out = []
    for n in cells:
        try:
            part = Partition(n)
            seq = encode(orbit, part)
            sel = choose_n0(
                seq,
                config.delta,
                max_depth=_max_block(config, n) - 1,
                miller_madow=config.miller_madow,
            )
            cyl = refine_cylinders(spec, part, sel.n0)
        except Exception as exc:
            raise RuntimeError(f"noise-free companion n_cells={n} failed: {exc!r}") from exc
        out.append((sel, cyl.min_diameter))
    return out


def _orbit_task(
    args: tuple[RunConfig, int, float, Sequence[tuple[int, int, DepthSelection, float]]],
) -> list[CurvePoint]:
    """Build grid sigma ``si``'s noisy orbit and mismatch probe and observe
    them with each partition of its slice, given as sorted index ``ei``, cell
    count ``n`` and companion pair; both die with the task.  The probe is
    the images f(z) of the orbit's first ``p_samples`` states z (at most
    length - 1); the states are dropped once it is mapped."""
    config, si, sigma, partitions = args
    seed = orbit_seed(config.seed, si)
    noise = NoiseSpec(sigma=sigma, mode=config.noise_mode, boundary=config.boundary, seed=seed)
    spec = MapSpec(config.map, config.lam)
    orbit = sample_invariant_orbit(spec, noise, config.length, config.burn_in)
    fx = iterate_map_array(spec, orbit.states[: min(config.p_samples, config.length - 1)])
    points = orbit.points
    del orbit  # under output noise the states are a second full-length array
    return [_cell_task(config, points, fx, noise, si, *part) for part in partitions]


def _cell_task(
    config: RunConfig, orbit: np.ndarray, fx: np.ndarray, noise: NoiseSpec, si: int,
    ei: int, n: int, sel: DepthSelection, eps_n0: float,
) -> CurvePoint:
    try:
        part = Partition(n)
        eps = part.diameter

        seq = encode(orbit, part)

        # the coder names imported above, looked up as this module's globals
        _, report = globals()[CODERS[config.algorithm][0]](seq)

        block_rate = block_entropy_rate(seq, _max_block(config, n), config.miller_madow)
        cond_e = conditional_entropy(seq, sel.n0, config.miller_madow)

        p_hat, p_half = estimate_p(fx, seq, noise)
        return CurvePoint(
            sigma=noise.sigma,
            eps=eps,
            n_cells=n,
            orbit_len=config.length,
            compression_rate_bits=report.rate,
            block_rate_bits=block_rate,
            cond_entropy_bits=cond_e,
            n0=sel.n0,
            p_hat=p_hat,
            p_halfwidth=p_half,
            **envelope(sel.deepest, sel.gap, p_hat, eps, eps_n0, noise),
            cell_seed=cell_seed(config.seed, si, ei),
        )
    except Exception as exc:
        raise RuntimeError(f"grid cell sigma={noise.sigma} n_cells={n} failed: {exc!r}") from exc


def run_grid(config: RunConfig) -> list[CurvePoint]:
    """Run the full grid and return its cells in CSV order: sigma
    descending, then eps descending."""
    sigmas, cells = _sorted_grid(config)
    grid = [(ei, n, *comp) for ei, (n, comp) in enumerate(zip(cells, companion_stats(config)))]

    # one orbit build per slice; strided slices mix cheap and costly partitions
    k = min(config.workers, len(cells))
    tasks = [
        (config, si, sigma, grid[c::k])
        for si, sigma in enumerate(sigmas)
        for c in range(k)
    ]
    if config.workers == 1:
        results = [_orbit_task(t) for t in tasks]
    else:
        # imported here, so a 1-worker sweep loads no multiprocessing; a
        # forking pool starts all max_workers processes at the first submit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(tasks))) as pool:
            results = list(pool.map(_orbit_task, tasks))
    return sorted((p for points in results for p in points), key=lambda p: (-p.sigma, -p.eps))


# detect_sigma's default slope thresholds, also the defaults of `epsent detect`
FLAT_SLOPE = 0.15
NOISE_SLOPE = 0.85


def detect_sigma(
    rows: Sequence[tuple[float, float, float]],
    flat_slope: float = FLAT_SLOPE,
    noise_slope: float = NOISE_SLOPE,
) -> SigmaDetection:
    """Locate the flat-regime edge eps1 and the noise-regime edge eps2 of
    one curve, given as (eps, rate, plateau value) rows in any order.

    All slopes are taken against log2(1/eps) on the grid sorted by
    decreasing eps.  eps1 is the smallest eps whose whole trailing window
    (every coarser scale) has mean slope below ``flat_slope``: down to that
    scale the entropy estimate has not started growing.  eps2 is the largest
    eps whose whole leading window (every finer scale) has local slope above
    ``noise_slope``: from that scale on the curve climbs like -log2(eps).
    When both edges exist with eps2 < eps1, the interval (eps2, eps1)
    brackets the noise amplitude.

    A sweep passes its conditional entropies as the plateau values: they
    stay flat where the dictionary coder's size-dependent redundancy already
    slopes upward.  Its compression rates, which judge the noise edge, climb
    steeply and monotonically in the noise regime.

    Raises ValueError naming the row when it is not a triple, and naming the
    value when an eps is not finite and > 0 or repeats, or when a rate or
    plateau value is not finite.
    """
    triples = []
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"row {tuple(row)!r} is not an (eps, rate, plateau value) triple")
        triples.append(tuple(map(float, row)))
    triples.sort(key=lambda t: -t[0])
    seen: set[float] = set()
    for e, rate, plateau in triples:
        if not (math.isfinite(e) and e > 0.0):
            raise ValueError(f"eps {e!r} must be finite and > 0")
        if e in seen:
            raise ValueError(f"eps {e!r} repeats")
        seen.add(e)
        for name, v in (("rate", rate), ("plateau value", plateau)):
            if not math.isfinite(v):
                raise ValueError(f"{name} {v!r} at eps {e!r} is not finite")
    eps = [r[0] for r in triples]
    noise_series = [r[1] for r in triples]
    plateau_series = [r[2] for r in triples]
    m = len(eps)
    if m < 4:
        return SigmaDetection(math.nan, math.nan, "undetermined")

    t = [math.log2(1.0 / e) for e in eps]

    eps1 = math.nan
    for i in range(1, m):
        mean_slope = (plateau_series[i] - plateau_series[0]) / (t[i] - t[0])
        if mean_slope < flat_slope:
            eps1 = eps[i]
        else:
            break

    local = []
    for i in range(m):
        lo = max(0, i - 1)
        hi = min(m - 1, i + 1)
        local.append((noise_series[hi] - noise_series[lo]) / (t[hi] - t[lo]))
    eps2 = math.nan
    for i in range(m - 1, -1, -1):
        if local[i] > noise_slope:
            eps2 = eps[i]
        else:
            break

    have1 = not math.isnan(eps1)
    have2 = not math.isnan(eps2)
    if have1 and have2:
        status = "detected" if eps2 < eps1 else "undetermined"
    elif have1:
        status = "plateau_only"
    elif have2:
        status = "noise_only"
    else:
        status = "undetermined"
    return SigmaDetection(eps1=eps1, eps2=eps2, status=status)


def _fmt(value: float | int) -> str:
    if isinstance(value, (int,)):
        return str(value)
    return f"{value:.9g}"


def _fields_with_envelope_low(low: str) -> tuple[str, ...]:
    """CurvePoint's field names in order, with ``low`` before envelope_high."""
    names = [f.name for f in fields(CurvePoint)]
    at = names.index("envelope_high")
    return (*names[:at], low, *names[at:])


# envelope_low, the one column that is not a field, repeats kifer_lower
CSV_COLUMNS = _fields_with_envelope_low("envelope_low")
_row_values = attrgetter(*_fields_with_envelope_low("kifer_lower"))


def curves_to_rows(cells: Sequence[CurvePoint]) -> list[list[str]]:
    """CSV body rows, one per cell in order, floats at 9 significant digits."""
    return [[_fmt(value) for value in _row_values(p)] for p in cells]


def emit_csv(cells: Sequence[CurvePoint], path: str) -> None:
    """Write the cells as CSV rows in the given order, which for
    :func:`run_grid`'s list is sigma descending, then eps descending;
    identical inputs produce identical bytes."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in curves_to_rows(cells):
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_plot_data(cells: Sequence[CurvePoint], path: str) -> None:
    """Whitespace table for gnuplot, x = eps, y = rate, in the given order:
    one block per run of cells with equal sigma."""
    try:
        with open(path, "w") as fh:
            for i, (sigma, block) in enumerate(groupby(cells, key=lambda p: p.sigma)):
                if i:
                    fh.write("\n\n")
                fh.write(f"# sigma = {_fmt(sigma)}\n")
                for p in block:
                    fh.write(f"{_fmt(p.eps)} {_fmt(p.compression_rate_bits)}\n")
    except OSError as exc:
        raise OSError(f"cannot write plot data to {path}: {exc}") from exc
