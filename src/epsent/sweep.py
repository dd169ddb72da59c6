"""The (sigma, eps) grid experiment: run, detect, export.

Each sigma of the grid generates one noisy orbit, and every partition of the
grid observes that same orbit: each grid cell codes it symbolically and
measures its compression rate, block-entropy rate and conditional entropy,
alongside the one-step mismatch probability and the analytic bound set.  The
mismatch probe (the images f(x) of points x sampled from the perturbed
system) is likewise built once per sigma and shared by its partitions; each
cell only draws its own noise on it.  The orbit and the probe are seeded by
(master seed, sigma index) and a cell's noise draws by (master seed, sigma
index, eps index) on the sorted grid, so results are independent of
execution order and worker count; re-running a sweep reproduces the output
byte for byte.

The work goes out as orbit tasks: each sigma's partitions are split into
k = min(workers, partitions) strided slices, and a task builds its sigma's
orbit and probe, observes them with every partition of its slice and frees
them on return.  So each sigma's orbit and probe are built k times, once on
1 worker.

The noise-free quantities the bounds need (entropy proxy, convergence depth,
refined-partition diameter) come from one companion run with sigma = 0,
encoded against each partition of the grid.  A cell that fails aborts the
sweep with a ``RuntimeError`` naming its sigma and cell count, and a failing
companion partition names its cell count, so a curve is never returned with
a point missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import BoundSet, envelope
from .compressor import CODERS, castore_encode, lz78_encode
from .config import RunConfig
from .dynamics import MapSpec, NoiseSpec, RealOrbit, sample_invariant_orbit
from .estimators import (
    block_entropy_rate,
    choose_n0,
    conditional_entropy,
    default_max_block,
    estimate_p,
    mismatch_probe,
)
from .partition import Partition, encode, refine_cylinders
from .seeds import cell_seed, companion_seed, orbit_seed

@dataclass(frozen=True)
class CompanionStats:
    """Noise-free reference quantities for one partition of the grid."""

    n_cells: int
    h_eps: float
    delta_gap: float
    n0: int
    eps_n0: float
    converged: bool


@dataclass(frozen=True)
class CurvePoint:
    eps: float
    n_cells: int
    compression_rate: float
    block_rate: float
    cond_entropy: float
    n0: int
    p_hat: float
    p_halfwidth: float
    bounds: BoundSet
    cell_seed: int


@dataclass
class EntropyCurve:
    """Measured h(eps) curve for one noise amplitude, eps decreasing."""

    sigma: float
    points: list[CurvePoint]
    orbit_len: int


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
        tuple(sorted(set(config.sigma), reverse=True)),
        tuple(sorted(set(config.n_list))),
    )


def _max_block(config: RunConfig, n: int) -> int:
    """Deepest block length of an ``n``-cell partition: ``max_block``, else
    :func:`default_max_block` of the orbit length."""
    if config.max_block is not None:
        return config.max_block
    return default_max_block(config.length, n)


def companion_stats(config: RunConfig) -> list[CompanionStats]:
    """Noise-free run of the configured system, summarized per partition."""
    spec = MapSpec(config.map, config.lam)
    _, cells = _sorted_grid(config)
    noise0 = NoiseSpec(
        sigma=0.0, mode="none", boundary=config.boundary, seed=companion_seed(config.seed)
    )
    orbit = sample_invariant_orbit(spec, noise0, config.length, config.burn_in)
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
        out.append(
            CompanionStats(
                n_cells=n,
                h_eps=sel.deepest,
                delta_gap=sel.gap,
                n0=sel.n0,
                eps_n0=cyl.min_diameter,
                converged=sel.converged,
            )
        )
    return out


def _orbit_task(
    args: tuple[RunConfig, int, float, Sequence[tuple[int, int, CompanionStats]]],
) -> list[CurvePoint]:
    """Build grid sigma ``si``'s noisy orbit and mismatch probe and observe
    them with each partition ``(ei, n, comp)`` of ``parts``; both die with
    the task."""
    config, si, sigma, parts = args
    seed = orbit_seed(config.seed, si)
    noise = NoiseSpec(sigma=sigma, mode=config.noise_mode, boundary=config.boundary, seed=seed)
    spec = MapSpec(config.map, config.lam)
    orbit = sample_invariant_orbit(spec, noise, config.length, config.burn_in)
    fx = mismatch_probe(spec, noise, config.p_samples, config.burn_in)
    return [_cell_task(config, orbit, fx, noise, si, ei, n, comp) for ei, n, comp in parts]


def _cell_task(
    config: RunConfig, orbit: RealOrbit, fx: np.ndarray, noise: NoiseSpec, si: int,
    ei: int, n: int, comp: CompanionStats,
) -> CurvePoint:
    try:
        part = Partition(n)
        eps = part.diameter
        seed = cell_seed(config.seed, si, ei)

        seq = encode(orbit, part)

        # the coder names imported above, looked up as this module's globals
        _, report = globals()[CODERS[config.algorithm][0]](seq)

        block_rate = block_entropy_rate(seq, _max_block(config, n), config.miller_madow)
        cond_e = conditional_entropy(seq, comp.n0, config.miller_madow)

        # the seed draws only this cell's noise on the sigma's mismatch probe
        p_hat, p_half = estimate_p(fx, part, replace(noise, seed=seed))
        bset = envelope(comp.h_eps, comp.delta_gap, p_hat, eps, comp.eps_n0, noise)
        return CurvePoint(
            eps=eps,
            n_cells=n,
            compression_rate=report.rate,
            block_rate=block_rate,
            cond_entropy=cond_e,
            n0=comp.n0,
            p_hat=p_hat,
            p_halfwidth=p_half,
            bounds=bset,
            cell_seed=seed,
        )
    except Exception as exc:
        raise RuntimeError(f"grid cell sigma={noise.sigma} n_cells={n} failed: {exc!r}") from exc


def run_grid(config: RunConfig) -> list[EntropyCurve]:
    """Run the full grid and return one curve per sigma, largest sigma first."""
    sigmas, cells = _sorted_grid(config)
    comps = companion_stats(config)

    # one orbit build per slice; strided slices mix cheap and costly partitions
    k = min(config.workers, len(cells))
    parts = list(zip(range(len(cells)), cells, comps))
    tasks = [(config, si, sigma, parts[c::k]) for si, sigma in enumerate(sigmas) for c in range(k)]
    if config.workers == 1:
        results = [_orbit_task(t) for t in tasks]
    else:
        # imported here, so a 1-worker sweep loads no multiprocessing; a
        # forking pool starts all max_workers processes at the first submit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(tasks))) as pool:
            results = list(pool.map(_orbit_task, tasks))

    curves = []
    for si, sigma in enumerate(sigmas):
        points = sorted(sum(results[si * k : (si + 1) * k], []), key=lambda p: -p.eps)
        curves.append(EntropyCurve(sigma=sigma, points=points, orbit_len=config.length))
    return curves


# detect_sigma's default slope thresholds, also the defaults of `epsent detect`
FLAT_SLOPE = 0.15
NOISE_SLOPE = 0.85


def detect_sigma(
    curve: EntropyCurve | Sequence[tuple[float, float]],
    flat_slope: float = FLAT_SLOPE,
    noise_slope: float = NOISE_SLOPE,
) -> SigmaDetection:
    """Locate the flat-regime edge eps1 and the noise-regime edge eps2.

    All slopes are taken against log2(1/eps) on the grid sorted by
    decreasing eps.  eps1 is the smallest eps whose whole trailing window
    (every coarser scale) has mean slope below ``flat_slope``: down to that
    scale the entropy estimate has not started growing.  eps2 is the largest
    eps whose whole leading window (every finer scale) has local slope above
    ``noise_slope``: from that scale on the curve climbs like -log2(eps).
    When both edges exist with eps2 < eps1, the interval (eps2, eps1)
    brackets the noise amplitude.

    On a full :class:`EntropyCurve` the plateau edge is judged on the
    conditional-entropy estimates, which stay flat where the dictionary
    coder's size-dependent redundancy already slopes upward, while the noise
    edge is judged on the compression rate, whose climb in the noise regime
    is steep and monotone.  A bare (eps, rate) sequence uses the one series
    for both edges; (eps, rate, plateau_value) triples split them the same
    way the full curve does.
    """
    if isinstance(curve, EntropyCurve):
        curve = [(p.eps, p.compression_rate, p.cond_entropy) for p in curve.points]
    rows = sorted((tuple(map(float, row)) for row in curve), key=lambda t: -t[0])
    eps = [r[0] for r in rows]
    noise_series = [r[1] for r in rows]
    plateau_series = [r[2] if len(r) > 2 else r[1] for r in rows]
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


# each CSV column and its value for curve c and point p, in column order
_CSV_TABLE = (
    ("sigma", lambda c, p: c.sigma),
    ("eps", lambda c, p: p.eps),
    ("n_cells", lambda c, p: p.n_cells),
    ("orbit_len", lambda c, p: c.orbit_len),
    ("compression_rate_bits", lambda c, p: p.compression_rate),
    ("block_rate_bits", lambda c, p: p.block_rate),
    ("cond_entropy_bits", lambda c, p: p.cond_entropy),
    ("n0", lambda c, p: p.n0),
    ("p_hat", lambda c, p: p.p_hat),
    ("p_halfwidth", lambda c, p: p.p_halfwidth),
    ("pure_noise_line", lambda c, p: p.bounds.pure_noise_line),
    ("kifer_lower", lambda c, p: p.bounds.kifer_lower),
    ("upper_bound", lambda c, p: p.bounds.upper_bound),
    ("envelope_low", lambda c, p: p.bounds.kifer_lower),
    ("envelope_high", lambda c, p: p.bounds.envelope_high),
    ("cell_seed", lambda c, p: p.cell_seed),
)
CSV_COLUMNS = tuple(name for name, _ in _CSV_TABLE)


def curves_to_rows(curves: Sequence[EntropyCurve]) -> list[list[str]]:
    """CSV body rows (sigma desc, eps desc), floats at 9 significant digits."""
    return [
        [_fmt(value(c, p)) for _, value in _CSV_TABLE]
        for c in sorted(curves, key=lambda c: -c.sigma)
        for p in sorted(c.points, key=lambda p: -p.eps)
    ]


def emit_csv(curves: Sequence[EntropyCurve], path: str) -> None:
    """Write the curves as CSV; identical inputs produce identical bytes."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in curves_to_rows(curves):
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_plot_data(curves: Sequence[EntropyCurve], path: str) -> None:
    """Whitespace table for gnuplot: one block per sigma, x = eps, y = rate."""
    ordered = sorted(curves, key=lambda c: -c.sigma)
    try:
        with open(path, "w") as fh:
            for i, curve in enumerate(ordered):
                if i:
                    fh.write("\n\n")
                fh.write(f"# sigma = {_fmt(curve.sigma)}\n")
                for p in sorted(curve.points, key=lambda p: -p.eps):
                    fh.write(f"{_fmt(p.eps)} {_fmt(p.compression_rate)}\n")
    except OSError as exc:
        raise OSError(f"cannot write plot data to {path}: {exc}") from exc
