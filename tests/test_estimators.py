import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epsent.dynamics
from epsent.dynamics import MapSpec, NoiseSpec, iterate_map_array, sample_invariant_orbit
from epsent.estimators import (
    _entropy_from_counts,
    bernoulli_entropy,
    block_entropy_rate,
    choose_n0,
    conditional_entropy,
    default_max_block,
    estimate_p,
)
from epsent.partition import Partition, SymbolicSequence, encode, refine_cylinders


def iid_bits(n: int, seed: int = 0) -> SymbolicSequence:
    rng = np.random.default_rng(seed)
    return SymbolicSequence(rng.integers(0, 2, size=n), 2)


def periodic(n: int) -> SymbolicSequence:
    # odd length keeps sliding-window counts of the two words exactly equal
    return SymbolicSequence(np.tile([0, 1], n // 2)[:-1], 2)


class TestBlockEntropyRate:
    def test_iid_depth_eight(self):
        rate = block_entropy_rate(iid_bits(1_000_000), 8)
        assert rate == pytest.approx(1.0, abs=0.02)

    def test_constant_sequence(self):
        seq = SymbolicSequence(np.zeros(1000, dtype=np.int32), 2)
        assert block_entropy_rate(seq, 3) == 0.0

    def test_period_two_depth_four(self):
        assert block_entropy_rate(periodic(1000), 4) == pytest.approx(0.25, abs=1e-12)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            block_entropy_rate(iid_bits(100), 0)

    def test_undersampling_warns(self):
        with pytest.warns(UserWarning, match="recommended"):
            block_entropy_rate(iid_bits(200), 8)

    @pytest.mark.parametrize("estimate", [block_entropy_rate, conditional_entropy])
    def test_undersampling_warning_names_the_caller(self, estimate):
        with pytest.warns(UserWarning, match="recommended") as record:
            estimate(iid_bits(200), 8)
        assert [w.filename for w in record] == [__file__]

    def test_block_entropy_monotone_in_depth(self):
        for seq in (periodic(2000), iid_bits(20_000, seed=3)):
            values = [n * block_entropy_rate(seq, n) for n in range(1, 6)]
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-6


def reference_block_entropy(symbols, depth: int, miller_madow: bool = False) -> float:
    """H_depth from every sliding window counted as a tuple, words sorted.

    Kept as the oracle for the word-rank ladder: the sorted tuples are the
    lexicographic order in which the ladder hands out its counts.
    """
    windows = Counter(tuple(symbols[i : i + depth]) for i in range(len(symbols) - depth + 1))
    counts = np.array([windows[word] for word in sorted(windows)])
    return _entropy_from_counts(counts, miller_madow)


@st.composite
def ladder_inputs(draw):
    """(N, symbols, depth): N in 2..300, depth in 1..8, at most 2000 symbols.

    Draws over a few letters of the alphabet repeat deep words; plain draws
    over all N symbols make most words distinct.
    """
    n = draw(st.integers(2, 300))
    depth = draw(st.integers(1, 8))
    letters = list(range(n))
    if draw(st.booleans()):
        letters = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(letters) - 1), min_size=depth + 1, max_size=2000))
    return n, [letters[i] for i in picks], depth


def assert_matches_reference(n, symbols, depth, miller_madow):
    seq = SymbolicSequence(np.array(symbols), n)
    hs = [reference_block_entropy(symbols, d, miller_madow) for d in range(1, depth + 2)]
    ces = tuple(min(max(hi - lo, 0.0), math.log2(n)) for lo, hi in zip(hs, hs[1:]))
    assert block_entropy_rate(seq, depth, miller_madow) == hs[depth - 1] / depth
    assert conditional_entropy(seq, depth, miller_madow) == ces[-1]
    assert choose_n0(seq, 0.05, depth, miller_madow).cond_entropies == ces


@pytest.mark.filterwarnings("ignore:length .* below recommended")
class TestLadderReference:
    @settings(max_examples=200, deadline=None)
    @given(ladder_inputs(), st.booleans())
    @example((2, [0, 1] * 500, 8), False)
    @example((3, [2] * 9, 8), True)
    @example((300, list(range(300)) * 3, 2), True)
    def test_property_matches_reference(self, case, miller_madow):
        assert_matches_reference(*case, miller_madow)

    @pytest.mark.parametrize("miller_madow", [False, True])
    def test_seeded_widest_alphabet(self, miller_madow):
        # 65535 ids pass twice the length at depth 1: every depth is sorted
        rng = np.random.default_rng(65535)
        letters = rng.integers(0, 65535, size=40)
        symbols = letters[rng.integers(0, 40, size=5000)].tolist()
        assert_matches_reference(65535, symbols, 3, miller_madow)

    @pytest.mark.parametrize("miller_madow", [False, True])
    def test_seeded_250_cells_at_depth_8(self, miller_madow):
        # 250^8 > 2^62 words: beyond any int64 word id
        rng = np.random.default_rng(250)
        symbols = np.where(
            rng.random(4000) < 0.1, rng.integers(0, 250, size=4000), rng.choice([3, 77, 249], 4000)
        ).tolist()
        assert_matches_reference(250, symbols, 8, miller_madow)

    def test_depth_validation(self):
        seq = SymbolicSequence(np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError, match="start at 1, got first=0"):
            block_entropy_rate(seq, 0)
        with pytest.raises(ValueError, match="start at 1, got first=0"):
            conditional_entropy(seq, 0)
        with pytest.raises(ValueError, match="length 3 has no 4-blocks"):
            block_entropy_rate(seq, 4)
        with pytest.raises(ValueError, match="length 3 has no 4-blocks"):
            conditional_entropy(seq, 3)
        with pytest.raises(ValueError, match="length 3 has no 4-blocks"):
            choose_n0(seq, 0.05, max_depth=3)


class TestConditionalEntropy:
    def test_iid_memoryless(self):
        assert conditional_entropy(iid_bits(1_000_000, seed=5), 4) == pytest.approx(1.0, abs=0.03)

    def test_period_two(self):
        assert conditional_entropy(periodic(1000), 2) == pytest.approx(0.0, abs=1e-9)

    def test_constant(self):
        seq = SymbolicSequence(np.zeros(500, dtype=np.int32), 2)
        assert conditional_entropy(seq, 3) == 0.0

    def test_range_clamp(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            seq = SymbolicSequence(rng.integers(0, 3, size=60), 3)
            ce = conditional_entropy(seq, 2)
            assert 0.0 <= ce <= math.log2(3)

    @pytest.mark.filterwarnings("ignore:length .* below recommended")
    def test_miller_madow_increment_clipped_to_log2_n(self):
        # the corrected H_2 - H_1 of these 100 bits is 1.014 bits; both
        # estimators clip it to the alphabet's 1 bit
        seq = iid_bits(100, seed=1)
        assert conditional_entropy(seq, 1, miller_madow=True) == 1.0
        assert choose_n0(seq, 0.05, 1, miller_madow=True).cond_entropies == (1.0,)


class TestBernoulliEntropy:
    def test_half_is_exactly_one(self):
        assert bernoulli_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert bernoulli_entropy(0.0) == 0.0
        assert bernoulli_entropy(1.0) == 0.0

    def test_point_one(self):
        assert bernoulli_entropy(0.1) == pytest.approx(0.4690, abs=1e-4)

    def test_symmetry(self):
        for p in (0.03, 0.2, 0.41):
            assert abs(bernoulli_entropy(p) - bernoulli_entropy(1 - p)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            bernoulli_entropy(1.1)
        with pytest.raises(ValueError):
            bernoulli_entropy(-0.1)


class TestChooseN0:
    def test_iid_is_memoryless(self):
        sel = choose_n0(iid_bits(200_000, seed=11), 0.05, max_depth=10)
        assert sel.n0 == 1
        assert sel.converged

    def test_doubling_map_is_one_step_markov(self):
        orbit = sample_invariant_orbit(MapSpec("doubling"), NoiseSpec(seed=13), 200_000).points
        sel = choose_n0(encode(orbit, Partition(2)), 0.05, max_depth=10)
        assert sel.n0 == 1
        assert sel.converged

    def test_period_two_converges_immediately(self):
        # H2 - H1 = 0 = deepest value, so depth 1 already qualifies
        sel = choose_n0(periodic(2000), 0.05, max_depth=4)
        assert sel.n0 == 1
        assert sel.gap == pytest.approx(0.0, abs=1e-6)

    def test_max_depth_is_unconfirmed(self):
        # no deeper depth can confirm the deepest one
        sel = choose_n0(iid_bits(50_000, seed=17), 0.05, max_depth=1)
        assert (sel.n0, sel.gap, sel.converged) == (1, 0.0, False)

    def test_explicit_max_depth(self):
        sel = choose_n0(iid_bits(50_000, seed=17), 0.05, max_depth=3)
        assert len(sel.cond_entropies) == 3

    def test_target_is_taken_at_the_deepest_sampled_depth(self):
        # 2000 symbols give 50 samples to each of 32 5-words, not 64 6-words;
        # deeper words turn distinct and their increments fall toward 0
        sel = choose_n0(iid_bits(2000), 0.05, max_depth=20)
        assert len(sel.cond_entropies) == 20
        assert sel.depth == 4
        assert sel.deepest == sel.cond_entropies[3] > 0.9
        assert sel.converged == (sel.n0 < 4)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            choose_n0(iid_bits(1000), 0.0, max_depth=3)

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_max_depth_validation(self, max_depth):
        # a depth-0 request used to be answered with a depth-1 selection
        with pytest.raises(ValueError, match=f"max_depth must be >= 1, got {max_depth}"):
            choose_n0(iid_bits(1000), 0.05, max_depth=max_depth)

    def test_default_max_block(self):
        assert default_max_block(1_000_000, 2) == 14
        assert default_max_block(1_000_000, 250) == 2
        assert default_max_block(5000, 2) == 6
        # below 2 * SAMPLES_PER_WORD symbols no depth is positive; the floor is 2
        assert [default_max_block(length, 2) for length in (1, 49, 50, 99)] == [2] * 4


def exact_block_entropy(spec, part, depth, cdf):
    """H_depth of the invariant measure with distribution function ``cdf``:
    the exact cylinder intervals, grouped by word, each word weighted by the
    measure of its intervals."""
    mass = defaultdict(float)
    for lo, hi, word in refine_cylinders(spec, part, depth).intervals:
        mass[word] += cdf(hi) - cdf(lo)
    p = np.array([m for m in mass.values() if m > 0.0])
    return float(-(p * np.log2(p)).sum())


def arcsine_cdf(x):
    """Invariant distribution of the logistic map at lambda = 4."""
    return 2.0 / math.pi * math.asin(math.sqrt(x))


class TestExactCylinderEntropy:
    # 10^6 noise-free symbols at seed 7 came within 6.4e-4 bits of the exact
    # increments at every depth below; seeds 1-7 within 1.4e-3
    TOLERANCE = 3e-3

    @pytest.mark.parametrize(
        "kind, n_cells, max_depth, cdf, pinned",
        [
            ("logistic", 3, 10, arcsine_cdf, []),
            ("logistic", 32, 4, arcsine_cdf, [1.3622, 1.1507, 1.0560, 1.0331]),
            # three cells do not generate for the tent map: 2/3 bit at every depth
            ("tent", 3, 10, lambda x: x, [2 / 3] * 10),
        ],
        ids=["logistic_3", "logistic_32", "tent_3"],
    )
    def test_cond_entropies_match_the_exact_increments(
        self, kind, n_cells, max_depth, cdf, pinned
    ):
        spec, part = MapSpec(kind), Partition(n_cells)
        orbit = sample_invariant_orbit(spec, NoiseSpec(seed=7), 1_000_000).points
        sel = choose_n0(encode(orbit, part), 0.01, max_depth)
        assert sel.depth == max_depth  # every depth compared below is sampled
        hs = [exact_block_entropy(spec, part, d, cdf) for d in range(1, max_depth + 2)]
        exact = [hi - lo for lo, hi in zip(hs, hs[1:])]
        assert exact[: len(pinned)] == pytest.approx(pinned, abs=1e-4)
        assert sel.cond_entropies == pytest.approx(exact, abs=self.TOLERANCE)


def probe(spec, noise, samples):
    """The sweep's mismatch probe: images f(x) of a burned-in orbit driven by
    the noise's feedback."""
    orbit = sample_invariant_orbit(spec, noise.feedback, samples, 1000).points
    return iterate_map_array(spec, orbit)


def probe_p(spec, part, noise, samples):
    return estimate_p(probe(spec, noise, samples), part, noise)


class TestEstimateP:
    def test_zero_sigma_exact_zero(self):
        p, hw = probe_p(
            MapSpec("logistic", 4.0), Partition(2), NoiseSpec(sigma=0.0, mode="dynamical", seed=1), 10_000
        )
        assert p == 0.0 and hw == 0.0

    def test_huge_noise_flips_often(self):
        noise = NoiseSpec(sigma=1.0, mode="dynamical", seed=2)
        p, _ = probe_p(MapSpec("logistic", 4.0), Partition(2), noise, 100_000)
        assert p >= 0.25

    def test_doubling_small_noise_band(self):
        # crossing fraction ~ E|w| / cell spacing = sigma/2 = 0.005
        noise = NoiseSpec(sigma=0.01, mode="dynamical", boundary="clamp", seed=3)
        p, hw = probe_p(MapSpec("doubling"), Partition(2), noise, 1_000_000)
        assert 0.002 <= p <= 0.02
        assert p == pytest.approx(0.005, abs=0.001)

    def test_deterministic_given_seed(self):
        noise = NoiseSpec(sigma=0.05, mode="dynamical", seed=4)
        a = probe_p(MapSpec("logistic", 4.0), Partition(4), noise, 20_000)
        b = probe_p(MapSpec("logistic", 4.0), Partition(4), noise, 20_000)
        assert a == b

    def test_halfwidth_shrinks_with_samples(self):
        noise = NoiseSpec(sigma=0.1, mode="dynamical", seed=5)
        _, hw_small = probe_p(MapSpec("logistic", 4.0), Partition(4), noise, 10_000)
        _, hw_big = probe_p(MapSpec("logistic", 4.0), Partition(4), noise, 160_000)
        assert hw_big < hw_small / 3.0

    def test_output_mode_uses_clean_base_orbit(self):
        noise = NoiseSpec(sigma=0.05, mode="output", seed=6)
        p, _ = probe_p(MapSpec("logistic", 4.0), Partition(2), noise, 50_000)
        assert 0.0 < p < 0.2


class TestSharedProbe:
    """One probe serves every cell of a sigma; each cell draws its own noise."""

    @pytest.fixture
    def fx(self):
        noise = NoiseSpec(sigma=0.05, mode="dynamical", seed=7)
        return probe(MapSpec("logistic", 4.0), noise, 20_000)

    def test_cell_seeds_draw_different_noise(self, fx):
        a = estimate_p(fx, Partition(8), NoiseSpec(sigma=0.05, mode="dynamical", seed=1))
        b = estimate_p(fx, Partition(8), NoiseSpec(sigma=0.05, mode="dynamical", seed=2))
        assert a != b

    def test_one_seed_repeats_and_leaves_the_probe_alone(self, fx):
        before = fx.copy()
        noise = NoiseSpec(sigma=0.05, mode="dynamical", seed=1)
        a = estimate_p(fx, Partition(8), noise)
        b = estimate_p(fx, Partition(8), noise)
        assert a == b
        assert np.array_equal(fx, before)

    def test_estimate_builds_no_orbit(self, fx, monkeypatch):
        def no_orbit(*args, **kwargs):
            raise AssertionError("estimate_p built an orbit")

        # every orbit, sample_invariant_orbit's included, comes from generate_orbit
        monkeypatch.setattr(epsent.dynamics, "generate_orbit", no_orbit)
        estimate_p(fx, Partition(8), NoiseSpec(sigma=0.05, mode="dynamical", seed=1))

    def test_validation(self, fx):
        noise = NoiseSpec(sigma=0.05, mode="dynamical", seed=1)
        with pytest.raises(ValueError):
            estimate_p(fx[:0], Partition(8), noise)
