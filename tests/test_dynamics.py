import math

import numpy as np
import pytest

from epsent.dynamics import (
    MapSpec,
    NoiseSpec,
    RealOrbit,
    _lazy_bits,
    apply_boundary_array,
    dump_orbit,
    generate_orbit,
    iterate_map_array,
    map_branches,
    sample_invariant_orbit,
    sample_noise,
)


_MASK64 = 2**64 - 1


def iterate_map(spec: MapSpec, x: float) -> float:
    """The map applied once to one point, as a float."""
    return float(iterate_map_array(spec, np.float64(x)))


def _shift_state(kind: str, state: int, bit: int) -> int:
    """Reference map step on the 64-bit binary-expansion window."""
    top = state >> 63
    state = ((state << 1) | bit) & _MASK64
    if kind == "tent" and top:
        state = _MASK64 - state
    return state


def apply_boundary(y: float, policy: str) -> float:
    """Reference fold of one real into [0,1] by clamping or reflection."""
    if policy == "clamp":
        return 0.0 if y < 0.0 else 1.0 if y > 1.0 else y
    if 0.0 <= y <= 1.0:
        return y
    y = y % 2.0
    return 2.0 - y if y > 1.0 else y


class TestIterateMap:
    def test_logistic_peak(self):
        assert iterate_map(MapSpec("logistic", 4.0), 0.5) == 1.0

    def test_logistic_fixed_point(self):
        assert iterate_map(MapSpec("logistic", 4.0), 0.0) == 0.0

    def test_doubling(self):
        assert iterate_map(MapSpec("doubling"), 0.3) == pytest.approx(0.6)
        assert iterate_map(MapSpec("doubling"), 0.75) == pytest.approx(0.5)

    def test_tent(self):
        assert iterate_map(MapSpec("tent"), 0.25) == pytest.approx(0.5)
        assert iterate_map(MapSpec("tent"), 0.75) == pytest.approx(0.5)
        assert iterate_map(MapSpec("tent"), 1.0) == pytest.approx(0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MapSpec("circle")
        with pytest.raises(ValueError):
            MapSpec("logistic", 4.5)
        with pytest.raises(ValueError):
            MapSpec("logistic", 0.0)

    def test_branches_cover_interval(self):
        # each inverse sends [0, top] into its own half of [0,1]
        for spec in (MapSpec("logistic", 3.7), MapSpec("doubling"), MapSpec("tent")):
            top, inverses = map_branches(spec)
            assert len(inverses) == 2
            mid_y = 0.5 * top
            for (lo, hi), inverse in zip([(0.0, 0.5), (0.5, 1.0)], inverses):
                x = inverse(mid_y)
                assert lo <= x <= hi
                assert iterate_map(spec, x) == pytest.approx(mid_y, abs=1e-12)


class TestSampleNoise:
    def test_zero_sigma_all_zeros(self):
        noise = NoiseSpec(sigma=0.0, mode="dynamical", seed=1)
        assert np.array_equal(sample_noise(noise, 5), np.zeros(5))

    def test_support(self):
        noise = NoiseSpec(sigma=0.1, mode="output", seed=2)
        draws = sample_noise(noise, 1_000_000)
        assert float(np.abs(draws).max()) <= 0.1

    def test_mean_clt_bound(self):
        noise = NoiseSpec(sigma=0.1, mode="output", seed=3)
        draws = sample_noise(noise, 1_000_000)
        assert abs(float(draws.mean())) <= 3 * (0.1 / math.sqrt(3)) / 1e3

    def test_reproducible(self):
        noise = NoiseSpec(sigma=0.2, mode="dynamical", seed=4)
        assert np.array_equal(sample_noise(noise, 100), sample_noise(noise, 100))

    def test_negative_count(self):
        with pytest.raises(ValueError):
            sample_noise(NoiseSpec(sigma=0.1, seed=0), -1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1)


class TestGenerateOrbit:
    def test_doubling_short(self):
        orbit = generate_orbit(MapSpec("doubling"), 0.3, 3, NoiseSpec(seed=0))
        assert orbit.points == pytest.approx([0.3, 0.6, 0.2], abs=1e-12)

    def test_logistic_sigma_zero_dynamical(self):
        noise = NoiseSpec(sigma=0.0, mode="dynamical", seed=5)
        orbit = generate_orbit(MapSpec("logistic", 4.0), 0.5, 3, noise)
        assert orbit.points == pytest.approx([0.5, 1.0, 0.0])

    def test_noise_free_logistic_keeps_the_sign_of_zero(self):
        # x0 = -0.0 is in [0,1]; its orbit is -0.0 at every step, as lam*x*(1-x) gives
        orbit = generate_orbit(MapSpec("logistic", 4.0), -0.0, 4, NoiseSpec(seed=0))
        assert orbit.points.tobytes() == np.full(4, -0.0).tobytes()

    def test_invalid_inputs(self):
        spec = MapSpec("logistic", 4.0)
        with pytest.raises(ValueError):
            generate_orbit(spec, 1.2, 10, NoiseSpec(seed=0))
        with pytest.raises(ValueError):
            generate_orbit(spec, 0.2, 0, NoiseSpec(seed=0))

    @pytest.mark.parametrize("kind", ["logistic", "doubling", "tent"])
    @pytest.mark.parametrize("mode", ["output", "dynamical"])
    def test_sigma_zero_matches_none(self, kind, mode):
        spec = MapSpec(kind, 4.0)
        base = generate_orbit(spec, 0.37, 200, NoiseSpec(sigma=0.0, mode="none", seed=7))
        noisy = generate_orbit(spec, 0.37, 200, NoiseSpec(sigma=0.0, mode=mode, seed=7))
        assert np.array_equal(base.points, noisy.points)

    @pytest.mark.parametrize("kind", ["logistic", "doubling", "tent"])
    def test_output_noise_rides_on_unperturbed_orbit(self, kind):
        spec = MapSpec(kind, 4.0)
        noise = NoiseSpec(sigma=0.05, mode="output", boundary="clamp", seed=11)
        quiet = NoiseSpec(sigma=0.0, mode="none", seed=11)
        noisy = generate_orbit(spec, 0.61, 500, noise).points
        clean = generate_orbit(spec, 0.61, 500, quiet).points
        w = sample_noise(noise, 500)
        expected = np.clip(clean + w, 0.0, 1.0)
        assert np.array_equal(noisy, expected)

    @pytest.mark.parametrize("boundary", ["clamp", "reflect"])
    @pytest.mark.parametrize("mode", ["output", "dynamical"])
    def test_boundary_closure(self, boundary, mode):
        spec = MapSpec("logistic", 4.0)
        noise = NoiseSpec(sigma=0.3, mode=mode, boundary=boundary, seed=13)
        pts = generate_orbit(spec, 0.2, 5000, noise).points
        assert float(pts.min()) >= 0.0
        assert float(pts.max()) <= 1.0

    def test_spec_example_clamped_dynamical(self):
        noise = NoiseSpec(sigma=0.01, mode="dynamical", boundary="clamp", seed=17)
        pts = generate_orbit(MapSpec("logistic", 4.0), 0.2, 10_000, noise).points
        assert float(pts.min()) >= 0.0 and float(pts.max()) <= 1.0

    def test_deterministic(self):
        spec = MapSpec("tent")
        noise = NoiseSpec(sigma=0.02, mode="dynamical", seed=19)
        a = generate_orbit(spec, 0.41, 3000, noise).points
        b = generate_orbit(spec, 0.41, 3000, noise).points
        assert np.array_equal(a, b)

    def test_doubling_does_not_collapse(self):
        # plain float iteration of 2x mod 1 hits 0 after ~52 steps; the
        # lazy-bit state must keep the orbit statistically alive
        orbit = generate_orbit(MapSpec("doubling"), 0.3, 10_000, NoiseSpec(seed=23))
        tail = orbit.points[100:]
        assert float(tail.std()) > 0.2
        assert abs(float(tail.mean()) - 0.5) < 0.02

    def test_tent_does_not_collapse(self):
        orbit = generate_orbit(MapSpec("tent"), 0.3, 10_000, NoiseSpec(seed=29))
        tail = orbit.points[100:]
        assert float(tail.std()) > 0.2


def stepped_shift_orbit(kind: str, x0: float, length: int, noise: NoiseSpec) -> np.ndarray:
    """Reference doubling/tent orbit: one :func:`_shift_state` call per step.

    Under dynamical noise each step also folds ``state / 2**64 + w`` back
    into [0,1] by :func:`apply_boundary` and re-quantizes it to a window.
    """
    mode = noise.effective_mode
    bits = _lazy_bits(noise, length).tolist()
    w = sample_noise(noise, length)
    state = min(int(x0 * 2.0**64), _MASK64)
    points = np.empty(length)
    for n in range(length):
        points[n] = state / 2.0**64
        state = _shift_state(kind, state, bits[n])
        if mode == "dynamical" and n + 1 < length:
            y = apply_boundary(state / 2.0**64 + float(w[n + 1]), noise.boundary)
            state = min(int(y * 2.0**64), _MASK64)
    if mode == "output":
        points = apply_boundary_array(points + w, noise.boundary)
    return points


def stepped_logistic_orbit(lam: float, x0: float, length: int, noise: NoiseSpec) -> np.ndarray:
    """Reference dynamical-noise logistic orbit: one apply_boundary call per step."""
    w = sample_noise(noise, length).tolist()
    points = np.empty(length)
    x = x0
    for n in range(length):
        points[n] = x
        if n + 1 < length:
            x = apply_boundary(lam * x * (1.0 - x) + w[n + 1], noise.boundary)
    return points


class TestExactOrbits:
    @pytest.mark.parametrize("kind", ["doubling", "tent"])
    @pytest.mark.parametrize("mode", ["none", "output"])
    @pytest.mark.parametrize("x0", [0.0, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_windows_match_stepped_shift(self, kind, mode, x0):
        spec = MapSpec(kind)
        for length in (1, 2, 63, 64, 65, 66, 130, 3000):
            for seed in range(25):
                noise = NoiseSpec(sigma=0.05, mode=mode, seed=seed)
                got = generate_orbit(spec, x0, length, noise).points
                want = stepped_shift_orbit(kind, x0, length, noise)
                assert got.tobytes() == want.tobytes(), (length, seed)

    @pytest.mark.parametrize("kind", ["doubling", "tent"])
    @pytest.mark.parametrize("boundary", ["clamp", "reflect"])
    @pytest.mark.parametrize("sigma", [0.05, 0.4, 2.5])
    def test_dynamical_shift_matches_stepped(self, kind, boundary, sigma):
        spec = MapSpec(kind)
        for x0 in (0.0, 0.3, 1.0):
            for length in (1, 2, 3, 64, 65, 3000):
                for seed in range(4):
                    noise = NoiseSpec(sigma=sigma, mode="dynamical", boundary=boundary, seed=seed)
                    got = generate_orbit(spec, x0, length, noise).points
                    want = stepped_shift_orbit(kind, x0, length, noise)
                    assert got.tobytes() == want.tobytes(), (x0, length, seed)

    @pytest.mark.parametrize("boundary", ["clamp", "reflect"])
    @pytest.mark.parametrize("sigma", [0.05, 0.4, 2.5])
    def test_logistic_matches_stepped_boundary(self, boundary, sigma):
        # sigma = 2.5 sends points up to 3.5 outside [0,1]: several folds
        for lam in (4.0, 3.7):
            for seed in range(5):
                noise = NoiseSpec(sigma=sigma, mode="dynamical", boundary=boundary, seed=seed)
                got = generate_orbit(MapSpec("logistic", lam), 0.3, 2000, noise).points
                want = stepped_logistic_orbit(lam, 0.3, 2000, noise)
                assert got.tobytes() == want.tobytes(), (lam, seed)


class TestBoundaryPolicy:
    def test_clamp(self):
        assert apply_boundary(-0.1, "clamp") == 0.0
        assert apply_boundary(1.1, "clamp") == 1.0
        assert apply_boundary(0.4, "clamp") == 0.4

    def test_reflect(self):
        assert apply_boundary(-0.3, "reflect") == pytest.approx(0.3)
        assert apply_boundary(1.3, "reflect") == pytest.approx(0.7)
        assert apply_boundary(2.5, "reflect") == pytest.approx(0.5)
        assert apply_boundary(0.9, "reflect") == 0.9


def fold_every_point(y: np.ndarray, policy: str) -> np.ndarray:
    """Reference boundary fold applied to every point, inside [0,1] or not."""
    if policy == "clamp":
        return np.clip(y, 0.0, 1.0)
    y = np.mod(y, 2.0)
    return np.where(y > 1.0, 2.0 - y, y)


class TestBoundaryArray:
    @pytest.mark.parametrize("policy", ["clamp", "reflect"])
    def test_bit_identical_to_folding_every_point(self, policy):
        edges = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.5])
        special = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        rng = np.random.default_rng(41)
        for size in (0, 1, 5, 100, 5000):
            y = np.concatenate([rng.uniform(-3.0, 4.0, size), rng.choice(special, size), special])
            rng.shuffle(y)
            before = y.copy()
            got = apply_boundary_array(y, policy)
            assert got.tobytes() == fold_every_point(y, policy).tobytes()
            assert y.tobytes() == before.tobytes()


class TestSampleInvariantOrbit:
    def test_length_and_burn_in(self):
        spec = MapSpec("logistic", 4.0)
        noise = NoiseSpec(sigma=0.01, mode="dynamical", seed=31)
        orbit = sample_invariant_orbit(spec, noise, 1000, burn_in=50)
        assert len(orbit) == 1000
        full = generate_orbit(spec, _seeded_x0(noise), 1050, noise).points
        assert np.array_equal(orbit.points, full[50:])

    @pytest.mark.parametrize("length", [0, -5])
    def test_rejects_empty_orbit(self, length):
        # burn_in + length >= 1 would otherwise hide the bad length
        with pytest.raises(ValueError, match="length must be >= 1"):
            sample_invariant_orbit(MapSpec("logistic", 4.0), NoiseSpec(seed=31), length, 1000)

    def test_logistic_visits_both_halves(self):
        orbit = sample_invariant_orbit(MapSpec("logistic", 4.0), NoiseSpec(seed=37), 5000)
        frac_low = float((orbit.points < 0.5).mean())
        assert 0.3 < frac_low < 0.7


class TestDumpOrbit:
    @pytest.mark.parametrize("chunk", [3, 1 << 18])
    @pytest.mark.parametrize("length", [0, 1, 1000])
    def test_bytes_match_one_fstring_per_point(self, tmp_path, monkeypatch, chunk, length):
        import epsent.dynamics

        monkeypatch.setattr(epsent.dynamics, "_DUMP_CHUNK", chunk)
        rng = np.random.default_rng(length)
        points = np.concatenate([[0.0, 1.0, 1.0 - 2.0**-53], rng.random(length)])
        path = tmp_path / "orbit.txt"
        dump_orbit(RealOrbit(points=points), str(path))
        assert path.read_bytes() == "".join(f"{x:.17g}\n" for x in points).encode()


def _seeded_x0(noise: NoiseSpec) -> float:
    from epsent.seeds import INIT_STREAM, mix

    rng = np.random.default_rng(mix(noise.seed, INIT_STREAM))
    return float(rng.uniform(0.0, 1.0))
