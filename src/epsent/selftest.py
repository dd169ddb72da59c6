"""Analytic oracles behind ``epsent selftest``.

Each oracle checks one layer against a closed-form value or an exact
property; :data:`ORACLES` is the one table the command and the tests run.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, compressor, dynamics, estimators
from .config import RunConfig
from .dynamics import MapSpec, NoiseSpec, generate_orbit, iterate_map_array, sample_noise
from .partition import Partition, SymbolicSequence, encode, refine_cylinders
from .sweep import curves_to_rows, detect_sigma, run_grid


def _expect(ok: bool, why: str = "") -> None:
    """Fail a selftest oracle; unlike ``assert``, ``python -O`` keeps it."""
    if not ok:
        raise AssertionError(why)


def map_arithmetic() -> None:
    logistic = iterate_map_array(MapSpec("logistic", 4.0), np.array([0.5, 0.0]))
    _expect(logistic.tolist() == [1.0, 0.0])
    _expect(abs(float(iterate_map_array(MapSpec("doubling"), 0.3)) - 0.6) < 1e-12)
    _expect(abs(float(iterate_map_array(MapSpec("tent"), 0.75)) - 0.5) < 1e-12)


def noise_statistics() -> None:
    noise = NoiseSpec(sigma=0.1, mode="dynamical", seed=7)
    draws = sample_noise(noise, 100_000)
    _expect(abs(float(draws.mean())) < 3 * (0.1 / math.sqrt(3)) / math.sqrt(100_000))
    _expect(float(np.abs(draws).max()) <= 0.1)


def orbit_determinism() -> None:
    spec = MapSpec("logistic", 4.0)
    noise = NoiseSpec(sigma=0.01, mode="dynamical", seed=11)
    a = generate_orbit(spec, 0.2, 5000, noise)
    b = generate_orbit(spec, 0.2, 5000, noise)
    _expect(np.array_equal(a, b))
    _expect(float(a.min()) >= 0.0 and float(a.max()) <= 1.0)


def doubling_rate_oracle() -> None:
    spec = MapSpec("doubling")
    noise = NoiseSpec(sigma=0.0, mode="none", seed=23)
    orbit = dynamics.sample_invariant_orbit(spec, noise, 200_000).points
    seq = encode(orbit, Partition(2))
    _, report = compressor.lz78_encode(seq)
    _expect(0.85 <= report.rate <= 1.2, f"rate {report.rate:.4f}")
    rate10 = estimators.block_entropy_rate(seq, 10)
    _expect(0.9 <= rate10 <= 1.1, f"block rate {rate10:.4f}")


def iid_rate_oracle() -> None:
    rng = np.random.default_rng(2)
    symbols = rng.integers(0, 4, size=200_000, dtype=np.int32)
    _, report = compressor.lz78_encode(SymbolicSequence(symbols, 4))
    _expect(0.9 * 2.0 <= report.rate <= 1.3 * 2.0, f"rate {report.rate:.4f}")


def bound_arithmetic() -> None:
    _expect(abs(bounds.output_noise_upper(1.0, 0.1, 0.1, 0.5) - 1.5690) < 1e-3)
    _expect(abs(bounds.output_noise_upper(1.0, 0.5, 0.02, 0.004) - 3.66096) < 1e-3)
    _expect(abs(bounds.kifer_lower(1.0 / 250.0, 1.0) - math.log2(250)) < 1e-9)
    _expect(abs(bounds.dynamical_noise_upper(1.0, 0.05, 0.1, 0.02, 0.125) - 1.6190) < 1e-3)


def round_trips() -> None:
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        length = int(rng.integers(0, 400))
        seq = SymbolicSequence(rng.integers(0, n, size=length, dtype=np.int32), n)
        for enc in (compressor.lz78_encode, compressor.castore_encode):
            stream, _ = enc(seq)
            _expect(np.array_equal(compressor.decode(stream)[0].symbols, seq.symbols))


def cylinder_geometry() -> None:
    cyl = refine_cylinders(MapSpec("logistic", 4.0), Partition(2), 2)
    lo = 0.5 * (1.0 - math.sqrt(0.5))
    _expect(abs(cyl.min_diameter - lo) < 1e-12)
    _expect(len(cyl.intervals) == 4)
    dy = refine_cylinders(MapSpec("doubling"), Partition(2), 3)
    _expect(len(dy.intervals) == 8)
    _expect(abs(dy.min_diameter - 0.125) < 1e-12)


def periodic_estimators() -> None:
    # odd length keeps the sliding-window word counts exactly balanced
    seq = encode(np.tile([0.25, 0.75], 500)[:-1], Partition(2))
    _expect(abs(estimators.block_entropy_rate(seq, 4) - 0.25) < 1e-9)
    _expect(estimators.conditional_entropy(seq, 2) < 1e-9)
    # 499 each of 01 and 10: the ladder's counts give exactly one bit, half a bit per symbol
    _expect(estimators.block_entropy_rate(seq, 2) == 0.5)


def mismatch_probability() -> None:
    spec, part = MapSpec("logistic", 4.0), Partition(2)

    def probe(noise: NoiseSpec, samples: int) -> np.ndarray:
        # as in a sweep: images of a burned-in orbit driven by the noise's feedback
        orbit = dynamics.sample_invariant_orbit(spec, noise.feedback, samples).points
        return iterate_map_array(spec, orbit)

    silent = NoiseSpec(sigma=0.0, mode="dynamical", seed=5)
    p0, _ = estimators.estimate_p(probe(silent, 10_000), part, silent)
    _expect(p0 == 0.0)
    loud = NoiseSpec(sigma=1.0, mode="dynamical", seed=5)
    p1, _ = estimators.estimate_p(probe(loud, 50_000), part, loud)
    _expect(p1 >= 0.25, f"p_hat {p1:.4f}")


def sweep_determinism() -> None:
    cfg = RunConfig(sigma=(0.05,), n_list=(2, 4), length=2000, p_samples=1000)
    _expect(curves_to_rows(run_grid(cfg)) == curves_to_rows(run_grid(cfg)))


def knee_detection() -> None:
    eps = [2 ** (-k / 4) for k in range(2, 40)]
    knee = detect_sigma([(e, max(1.0, -math.log2(e)), max(1.0, -math.log2(e))) for e in eps])
    _expect(knee.status == "detected")
    _expect(0.3 <= knee.sigma_estimate <= 0.8, f"estimate {knee.sigma_estimate:.3f}")
    _expect(detect_sigma([(e, 1.0, 1.0) for e in eps]).status == "plateau_only")
    _expect(detect_sigma([(e, -math.log2(e), -math.log2(e)) for e in eps]).status == "noise_only")


ORACLES = (
    ("map arithmetic", map_arithmetic),
    ("noise statistics", noise_statistics),
    ("orbit determinism", orbit_determinism),
    ("doubling-map rate oracle", doubling_rate_oracle),
    ("iid source rate oracle", iid_rate_oracle),
    ("bound arithmetic", bound_arithmetic),
    ("compressor round trips", round_trips),
    ("cylinder geometry", cylinder_geometry),
    ("periodic-sequence estimators", periodic_estimators),
    ("mismatch probability", mismatch_probability),
    ("sweep determinism", sweep_determinism),
    ("knee detection", knee_detection),
)

