import math
from dataclasses import fields

import pytest

from epsent.bounds import (
    BoundSet,
    dynamical_noise_upper,
    envelope,
    kifer_lower,
    noise_density_bound,
    output_noise_upper,
)
from epsent.dynamics import NoiseSpec
from epsent.estimators import bernoulli_entropy


class TestOutputNoiseUpper:
    def test_noise_free_reduction(self):
        assert output_noise_upper(1.0, 0.0, 0.3, 0.1) == 1.0
        assert output_noise_upper(1.0, 0.0, 0.0, 0.1) == 1.0

    def test_single_cell_reach(self):
        # ceil(0.1/0.5) = 1, so the cell factor is log2(2) = 1
        value = output_noise_upper(1.0, 0.1, 0.1, 0.5)
        assert value == pytest.approx(1.5690, abs=1e-3)

    def test_five_cell_reach(self):
        # ceil(0.02/0.004) = 5 exactly despite float division
        value = output_noise_upper(1.0, 0.5, 0.02, 0.004)
        assert value == pytest.approx(1.0 + 0.5 * math.log2(10.0) + 1.0, abs=1e-9)
        assert value == pytest.approx(3.66096, abs=1e-3)

    def test_sigma_zero_with_positive_p_is_inconsistent(self):
        with pytest.raises(ValueError, match="inconsistent"):
            output_noise_upper(1.0, 0.1, 0.0, 0.5)

    def test_continuity_as_p_vanishes(self):
        assert abs(output_noise_upper(1.0, 1e-9, 0.1, 0.02) - 1.0) < 1e-6

    def test_monotone_in_p_below_half(self):
        values = [output_noise_upper(1.0, p, 0.1, 0.02) for p in (0.0, 0.1, 0.25, 0.4, 0.5)]
        assert values == sorted(values)

    def test_step_structure_in_sigma(self):
        eps = 0.02
        at_09 = output_noise_upper(1.0, 0.3, 0.9 * eps, eps)
        at_10 = output_noise_upper(1.0, 0.3, eps, eps)
        above = output_noise_upper(1.0, 0.3, 1.000001 * eps, eps)
        assert at_09 == at_10
        assert above > at_10


class TestDynamicalNoiseUpper:
    def test_noise_free_reduction(self):
        assert dynamical_noise_upper(1.0, 0.0, 0.0, 0.0, 0.125) == 1.0

    def test_sub_cell_noise(self):
        value = dynamical_noise_upper(1.0, 0.05, 0.1, 0.02, 0.125)
        assert value == pytest.approx(1.6190, abs=1e-3)

    def test_ten_cell_reach(self):
        value = dynamical_noise_upper(1.0, 0.05, 0.9, 0.1, 0.01)
        expected = 1.05 + 0.9 * math.log2(20.0) + bernoulli_entropy(0.9)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(5.40873, abs=1e-4)

    def test_monotone_in_p_below_half(self):
        values = [dynamical_noise_upper(1.0, 0.05, p, 0.05, 0.01) for p in (0.0, 0.2, 0.5)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamical_noise_upper(1.0, -0.01, 0.1, 0.05, 0.01)
        with pytest.raises(ValueError):
            dynamical_noise_upper(1.0, 0.0, 0.1, 0.05, 0.0)


class TestKiferLower:
    def test_half_with_unit_density(self):
        assert kifer_lower(0.5, 1.0) == pytest.approx(1.0)

    def test_fine_partition(self):
        assert kifer_lower(1.0 / 250.0, 1.0) == pytest.approx(math.log2(250.0), abs=1e-9)

    def test_matched_noise(self):
        assert kifer_lower(0.01, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_algebraic_identity(self):
        for eps, k in ((0.5, 1.0), (0.004, 125.0), (0.03, 7.0)):
            assert abs(kifer_lower(eps, k) + math.log2(k) - math.log2(1.0 / eps)) < 1e-12

    def test_infinite_density_bound(self):
        assert kifer_lower(0.1, math.inf) == -math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            kifer_lower(0.0, 1.0)
        with pytest.raises(ValueError):
            kifer_lower(0.1, 0.0)


class TestNoiseDensityBound:
    def test_reflect_folds_two_preimages_below_unit_sigma(self):
        # at x = 0, w and -w land on the same point: density 2/(2*sigma)
        assert noise_density_bound(0.5, "reflect") == 2.0
        assert noise_density_bound(0.01, "reflect") == pytest.approx(100.0)

    def test_reflect_wide_noise(self):
        # a width-3 window holds at most 2*floor(1.5) + 2 = 4 preimages
        assert noise_density_bound(1.5, "reflect") == pytest.approx(4.0 / 3.0)

    def test_clamp_keeps_nominal_density(self):
        assert noise_density_bound(0.5, "clamp") == 1.0

    def test_no_noise(self):
        assert noise_density_bound(0.0, "reflect") == math.inf
        with pytest.raises(ValueError):
            noise_density_bound(-0.1, "reflect")


def clamped(sigma, mode="dynamical"):
    """Clamped uniform noise, whose density bound is the nominal 1/(2*sigma)."""
    return NoiseSpec(sigma=sigma, mode=mode, boundary="clamp")


class TestEnvelope:
    def test_reports_the_bounds_of_a_row(self):
        names = [f.name for f in fields(BoundSet)]
        assert names == ["pure_noise_line", "kifer_lower", "upper_bound", "envelope_high"]

    def test_collapses_to_h_without_noise_effects(self):
        bs = envelope(1.0, 0.0, 0.0, 0.5, 0.5, clamped(0.001))
        assert bs.envelope_high == 1.0
        assert bs.pure_noise_line == pytest.approx(1.0)

    def test_fine_regime_takes_the_minimum(self):
        bs = envelope(1.0, 0.05, 0.95, 0.004, 0.002, clamped(0.5))
        loose = 1.05 + 0.95 * math.log2(500.0) + bernoulli_entropy(0.95)
        assert loose == pytest.approx(9.8539, abs=1e-3)
        assert bs.envelope_high == pytest.approx(-math.log2(0.004), abs=1e-9)
        assert bs.upper_bound == pytest.approx(loose, abs=1e-12)

    def test_coarse_regime_uses_unit_cell_factor(self):
        bs = envelope(1.0, 0.01, 0.1, 0.004, 0.004, clamped(0.001))
        expected = 1.0 + 0.01 + 0.1 * 1.0 + bernoulli_entropy(0.1)
        assert bs.envelope_high == pytest.approx(expected, abs=1e-12)

    def test_lower_edge_is_kifer(self):
        bs = envelope(1.0, 0.05, 0.4, 0.01, 0.005, clamped(0.02))
        assert bs.kifer_lower == pytest.approx(math.log2(100.0) - math.log2(25.0))

    def test_upper_bound_follows_the_noise_mode(self):
        args = (1.0, 0.05, 0.3, 0.02, 0.01)
        assert envelope(*args, clamped(0.1, "output")).upper_bound == output_noise_upper(
            1.0, 0.3, 0.1, 0.02
        )
        for mode in ("dynamical", "none"):
            assert envelope(*args, clamped(0.1, mode)).upper_bound == dynamical_noise_upper(
                1.0, 0.05, 0.3, 0.1, 0.01
            )

    def test_sigma_zero_keeps_the_configured_mode(self):
        # sigma = 0 acts like mode "none" on an orbit, but the bound still
        # follows the configured mode: no convergence gap under output noise
        assert clamped(0.0, "output").effective_mode == "none"
        assert envelope(1.0, 0.05, 0.0, 0.25, 0.125, clamped(0.0, "output")).upper_bound == 1.0
        bs = envelope(1.0, 0.05, 0.0, 0.25, 0.125, clamped(0.0, "dynamical"))
        assert bs.upper_bound == bs.envelope_high == 1.05

    def test_envelope_consistent_on_experiment_domain(self):
        # h near 1 bit, sigma <= 0.5: the lower edge must not cross the upper
        for sigma in (0.5, 0.1, 0.02, 0.01, 0.001):
            for n_cells in (2, 4, 16, 64, 250):
                eps = 1.0 / n_cells
                p = min(0.95, sigma / eps)
                bs = envelope(1.0, 0.05, p, eps, eps, clamped(sigma))
                assert bs.kifer_lower <= bs.envelope_high + 1e-9, (sigma, n_cells)
