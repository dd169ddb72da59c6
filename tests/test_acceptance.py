"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one line of the form ``ACCEPTANCE <id>: PASS|FAIL ...`` so a
plain ``pytest -s tests/test_acceptance.py`` doubles as the acceptance report.
The headline grid (criterion 1) is computed once and shared by criteria 4
and 5.

One check, the bound sandwich of criterion 4, is implemented at its stated
tolerance even though the dictionary coder's finite-length redundancy still
lifts the compression rate above the envelope slack in some cells whose true
rate is near 1 bit; the "Tests" section of the README carries the numbers.
Everything else is expected green.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from epsent.bounds import dynamical_noise_upper, kifer_lower, output_noise_upper
from epsent.compressor import castore_encode, decode, lz78_encode
from epsent.config import RunConfig
from epsent.dynamics import MapSpec, NoiseSpec, sample_invariant_orbit
from epsent.estimators import bernoulli_entropy, block_entropy_rate, conditional_entropy
from epsent.partition import Partition, SymbolicSequence, encode
from epsent.sweep import detect_sigma, emit_csv, run_grid

EXPERIMENT = RunConfig()  # logistic lam=4, dynamical noise, full sigma and cell grids, 1e6 symbols


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="session")
def experiment_cells():
    t0 = time.time()
    cells = run_grid(EXPERIMENT)
    print(f"\n[experiment grid: {len(cells)} cells in {time.time() - t0:.0f}s, single worker]")
    return cells


def curve_for(cells, sigma):
    """The cells of one sigma, eps descending."""
    return [p for p in cells if p.sigma == sigma]


def point_for(cells, sigma, eps):
    return next(p for p in curve_for(cells, sigma) if abs(p.eps - eps) < 1e-12)


class TestCriterion1FigureReproduction:
    def test_a_coarse_scale_rate_near_one_bit(self, experiment_cells):
        ok = True
        for sigma in (0.02, 0.01, 0.001):
            rate = point_for(experiment_cells, sigma, 0.5).compression_rate
            ok &= report(
                "1a", 0.85 <= rate <= 1.15, f"sigma={sigma} eps=0.5 rate={rate:.4f} in [0.85, 1.15]"
            )
        assert ok

    def test_b_half_noise_curve_tracks_pure_noise_line(self, experiment_cells):
        ok = True
        for p in curve_for(experiment_cells, 0.5):
            if p.eps > 0.25:
                continue
            target = -math.log2(p.eps)
            ok &= report(
                "1b",
                abs(p.compression_rate - target) <= 0.2 * target,
                f"sigma=0.5 eps={p.eps:.6g} rate={p.compression_rate:.4f} "
                f"vs -log2(eps)={target:.4f} (20% band)",
            )
        assert ok

    def test_c_curves_ordered_by_sigma_at_finest_scale(self, experiment_cells):
        rates = [point_for(experiment_cells, s, 0.004).compression_rate
                 for s in (0.5, 0.1, 0.02, 0.01, 0.001)]
        inversions = sum(1 for a, b in zip(rates, rates[1:]) if a < b)
        assert report(
            "1c", inversions <= 1,
            f"rates at eps=0.004 by sigma desc: {[round(r, 3) for r in rates]}, "
            f"{inversions} inversion(s), tolerance 1",
        )


class TestCriterion2PureNoiseOracle:
    @pytest.mark.parametrize("n_cells", [2, 4, 16])
    def test_iid_uniform_rate_band(self, n_cells):
        rng = np.random.default_rng(2_000 + n_cells)
        symbols = rng.integers(0, n_cells, size=1_000_000, dtype=np.int32)
        _, rep = lz78_encode(symbols, alphabet_size=n_cells)
        entropy = math.log2(n_cells)
        assert report(
            "2", 0.9 * entropy <= rep.rate <= 1.3 * entropy,
            f"iid N={n_cells}: rate={rep.rate:.4f}, band [{0.9 * entropy:.2f}, {1.3 * entropy:.2f}]",
        )


class TestCriterion3ComplexityMatchesKSEntropy:
    def test_doubling_map_both_estimates_near_one_bit(self):
        orbit = sample_invariant_orbit(MapSpec("doubling"), NoiseSpec(sigma=0.0, mode="none", seed=3), 1_000_000).points
        seq = encode(orbit, Partition(2))
        block = block_entropy_rate(seq, 10)
        _, rep = lz78_encode(seq)
        ok_block = report("3", 0.9 <= block <= 1.1, f"doubling block rate={block:.4f} in [0.9, 1.1]")
        ok_comp = report("3", 0.9 <= rep.rate <= 1.1, f"doubling compression rate={rep.rate:.4f} in [0.9, 1.1]")
        assert ok_block and ok_comp


class TestCriterion4BoundSandwich:
    def test_every_cell_between_bounds(self, experiment_cells):
        violations = []
        checked = 0
        for p in experiment_cells:
            if p.p_halfwidth >= 0.02:
                continue
            checked += 1
            low = p.bounds.kifer_lower - 0.3
            high = p.bounds.envelope_high + max(0.2, 0.15 * p.bounds.envelope_high)
            if not low <= p.compression_rate <= high:
                violations.append(
                    f"sigma={p.sigma} N={p.n_cells}: rate={p.compression_rate:.3f} "
                    f"outside [{low:.3f}, {high:.3f}]"
                )
        assert report(
            "4", not violations,
            f"{checked} cells gated in, {len(violations)} violation(s)"
            + (": " + "; ".join(violations) if violations else ""),
        )


class TestCriterion5SigmaDetection:
    @pytest.mark.parametrize("sigma", [0.1, 0.02, 0.01])
    def test_detects_noise_amplitude(self, experiment_cells, sigma):
        curve = curve_for(experiment_cells, sigma)
        det = detect_sigma([(p.eps, p.compression_rate, p.cond_entropy) for p in curve])
        est = det.sigma_estimate
        ok = det.status == "detected" and max(est / sigma, sigma / est) <= 5.0
        assert report(
            "5", ok,
            f"sigma={sigma}: status={det.status} eps2={det.eps2:.4g} eps1={det.eps1:.4g} "
            f"geo-mean={est:.4g} (factor-5 band)",
        )


class TestCriterion6CompressorCorrectness:
    def test_random_round_trips_both_algorithms(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(10_000):
            length = int(math.exp(rng.uniform(0.0, math.log(10_001.0)))) - 1
            n_sym = int(rng.integers(2, 65))
            symbols = rng.integers(0, n_sym, size=length, dtype=np.int32)
            for encoder in (lz78_encode, castore_encode):
                stream, _ = encoder(symbols, alphabet_size=n_sym)
                out, _ = decode(stream)
                assert np.array_equal(out.symbols, symbols), (encoder, n_sym, length)
            checked += 1
        assert report("6", checked == 10_000, f"{checked} random sequences round-tripped, both coders")

    def test_exhaustive_binary_round_trips(self):
        count = 0
        for length in range(13):
            for value in range(1 << length):
                symbols = [(value >> i) & 1 for i in range(length)]
                for encoder in (lz78_encode, castore_encode):
                    stream, _ = encoder(symbols, alphabet_size=2)
                    out, _ = decode(stream)
                    assert out.symbols.tolist() == symbols
                count += 1
        assert report("6", count == 8191, f"all {count} binary strings of length <= 12 round-tripped")


class TestCriterion7AnalyticOracles:
    def test_unit_oracles(self):
        checks = [
            ("bernoulli_entropy(0.5) == 1", bernoulli_entropy(0.5) == 1.0),
            ("H(0) == H(1) == 0", bernoulli_entropy(0.0) == 0.0 and bernoulli_entropy(1.0) == 0.0),
            (
                "output bound examples within 1e-3",
                abs(output_noise_upper(1.0, 0.1, 0.1, 0.5) - 1.5690) < 1e-3
                and abs(output_noise_upper(1.0, 0.5, 0.02, 0.004) - 3.66096) < 1e-3,
            ),
            (
                "kifer_lower(1/250, 1) == log2(250) within 1e-9",
                abs(kifer_lower(1.0 / 250.0, 1.0) - math.log2(250.0)) < 1e-9,
            ),
            (
                "dynamical bound example within 1e-3",
                abs(dynamical_noise_upper(1.0, 0.05, 0.1, 0.02, 0.125) - 1.6190) < 1e-3,
            ),
        ]
        seq = SymbolicSequence(np.tile([0, 1], 2000)[:-1], 2)
        checks.append(("period-2 conditional entropy == 0 within 1e-9", conditional_entropy(seq, 2) <= 1e-9))
        ok = True
        for name, passed in checks:
            ok &= report("7", passed, name)
        assert ok

    def test_perturbed_entropy_approaches_noise_free_limit(self):
        rates = {}
        for sigma in (0.1, 0.01, 0.001, 0.0):
            noise = NoiseSpec(sigma=sigma, mode="dynamical", seed=7)
            orbit = sample_invariant_orbit(MapSpec("doubling"), noise, 200_000).points
            _, rep = lz78_encode(encode(orbit, Partition(2)))
            rates[sigma] = rep.rate
        ordered = [rates[0.1], rates[0.01], rates[0.001]]
        monotone = all(a >= b - 0.05 for a, b in zip(ordered, ordered[1:]))
        converges = abs(rates[0.001] - rates[0.0]) <= 0.05
        assert report(
            "7", monotone and converges,
            f"doubling eps=0.5 rates by sigma {dict((k, round(v, 4)) for k, v in rates.items())}, "
            "nonincreasing toward the noise-free value within 0.05",
        )


class TestCriterion8Determinism:
    def test_worker_count_does_not_change_output_bytes(self, tmp_path):
        cfg = RunConfig(sigma=(0.1, 0.01), n_list=(2, 4, 8), length=5000, p_samples=2000)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit_csv(run_grid(cfg), str(serial))
        emit_csv(run_grid(dataclasses.replace(cfg, workers=2)), str(parallel))
        identical = serial.read_bytes() == parallel.read_bytes()
        assert report("8", identical, "1-worker and 2-worker sweeps emit byte-identical CSV")
