import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from epsent.dynamics import MapSpec, NoiseSpec, generate_orbit, iterate_map_array
from epsent.partition import (
    Partition,
    ResourceLimitError,
    SymbolicSequence,
    block_counts,
    encode,
    refine_cylinders,
)


class TestEncode:
    def test_binary_threshold(self):
        seq = encode(np.array([0.3, 0.6, 0.2]), Partition(2))
        assert seq.symbols.tolist() == [0, 1, 0]

    def test_right_endpoint_in_last_cell(self):
        seq = encode(np.array([1.0]), Partition(4))
        assert seq.symbols.tolist() == [3]

    def test_half_open_cells(self):
        seq = encode(np.array([0.49999, 0.5]), Partition(2))
        assert seq.symbols.tolist() == [0, 1]

    def test_orbit_carries_meta(self):
        orbit = generate_orbit(MapSpec("doubling"), 0.3, 5, NoiseSpec(seed=0))
        seq = encode(orbit, Partition(8))
        assert seq.alphabet_size == 8

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(1)


# sha256 over repr((intervals, min_diameter)) of each refinement of
# test_refinement_pinned_exactly, in its loop order
REFINE_SHA256 = {
    ("logistic", 4.0): "1fec74c7822051e43f33cbace952e7c06bbe4e7addf25dd9fc858550559d5f27",
    ("logistic", 3.7): "edaee3f6f4480ca3c60d9926f53024f64e4e7793d35fa928d0e49d93db6d71ad",
    ("logistic", 3.0): "8bbb002230f8ab300954c5192354ca6cf9f108cfc15f3dfd3792e51297f8f1d9",
    ("doubling", 4.0): "d113516dfb9a612f00bf572f7a3d056de9844877ae6caf0d5d58106e2f3caa0e",
    ("tent", 4.0): "22c854fdd64fb564c4361858aa6fa517c0ce185642a26ac7104d04a335ceeb63",
}


class TestRefineCylinders:
    def test_depth_one_is_the_partition(self):
        for kind in ("logistic", "doubling", "tent"):
            cyl = refine_cylinders(MapSpec(kind, 4.0), Partition(5), 1)
            assert len(cyl.intervals) == 5
            assert cyl.min_diameter == pytest.approx(0.2)
            assert [w for _, _, w in cyl.intervals] == [(i,) for i in range(5)]

    def test_doubling_depth_three_dyadic(self):
        cyl = refine_cylinders(MapSpec("doubling"), Partition(2), 3)
        assert len(cyl.intervals) == 8
        assert cyl.min_diameter == pytest.approx(0.125, abs=1e-12)
        # cylinder k is [k/8, (k+1)/8] with word = binary digits of k
        for k, (lo, hi, word) in enumerate(sorted(cyl.intervals)):
            assert lo == pytest.approx(k / 8, abs=1e-12)
            assert hi == pytest.approx((k + 1) / 8, abs=1e-12)
            assert word == ((k >> 2) & 1, (k >> 1) & 1, k & 1)

    def test_logistic_depth_two_breakpoints(self):
        cyl = refine_cylinders(MapSpec("logistic", 4.0), Partition(2), 2)
        lo_break = 0.5 * (1.0 - math.sqrt(0.5))
        hi_break = 0.5 * (1.0 + math.sqrt(0.5))
        edges = sorted({round(x, 12) for iv in cyl.intervals for x in iv[:2]})
        assert edges == pytest.approx([0.0, lo_break, 0.5, hi_break, 1.0], abs=1e-9)
        assert len(cyl.intervals) == 4
        assert cyl.min_diameter == pytest.approx(lo_break, abs=1e-12)
        words = [w for _, _, w in sorted(cyl.intervals)]
        assert words == [(0, 0), (0, 1), (1, 1), (1, 0)]

    @pytest.mark.parametrize(
        "kind,n_cells,depth",
        [("logistic", 3, 4), ("tent", 2, 5), ("doubling", 4, 3), ("logistic", 2, 6)],
    )
    def test_intervals_tile_unit_interval(self, kind, n_cells, depth):
        cyl = refine_cylinders(MapSpec(kind, 4.0), Partition(n_cells), depth)
        total = sum(hi - lo for lo, hi, _ in cyl.intervals)
        assert total == pytest.approx(1.0, abs=1e-9)
        ivs = sorted(cyl.intervals)
        for (al, ah, _), (bl, bh, _) in zip(ivs, ivs[1:]):
            assert bl >= ah - 1e-9

    @pytest.mark.parametrize("kind,n_cells,depth", [("logistic", 3, 4), ("tent", 3, 4)])
    def test_words_round_trip_through_midpoints(self, kind, n_cells, depth):
        spec = MapSpec(kind, 4.0)
        part = Partition(n_cells)
        cyl = refine_cylinders(spec, part, depth)
        for lo, hi, word in cyl.intervals:
            x = 0.5 * (lo + hi)
            itinerary = []
            for _ in range(depth):
                itinerary.append(int(encode([x], part).symbols[0]))
                x = float(iterate_map_array(spec, x))
            assert tuple(itinerary) == word, f"cylinder [{lo},{hi}]"

    def test_odd_cell_count_merges_pieces_across_branch_point(self):
        # the middle cell of an odd partition straddles x=0.5; its preimage
        # pieces from the two branches must not double-count cylinders
        cyl = refine_cylinders(MapSpec("tent"), Partition(3), 2)
        total = sum(hi - lo for lo, hi, _ in cyl.intervals)
        assert total == pytest.approx(1.0, abs=1e-12)
        mid = [iv for iv in cyl.intervals if iv[0] < 0.5 < iv[1]]
        assert len(mid) <= 1

    @pytest.mark.parametrize("kind,lam", list(REFINE_SHA256))
    def test_refinement_pinned_exactly(self, kind, lam):
        # exact floats, not approx: N in {2, 3, 5, 8} and depths 1..5
        digest = hashlib.sha256()
        for n_cells in (2, 3, 5, 8):
            for depth in range(1, 6):
                cyl = refine_cylinders(MapSpec(kind, lam), Partition(n_cells), depth)
                digest.update(repr((cyl.intervals, cyl.min_diameter)).encode())
        assert digest.hexdigest() == REFINE_SHA256[(kind, lam)]

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError, match="cap"):
            refine_cylinders(MapSpec("doubling"), Partition(2), 25)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            refine_cylinders(MapSpec("doubling"), Partition(2), 0)


def window_words(symbols: np.ndarray, depth: int) -> set[tuple[int, ...]]:
    """Every length-``depth`` sliding window of ``symbols``, as a tuple."""
    windows = np.lib.stride_tricks.sliding_window_view(symbols, depth)
    return set(map(tuple, windows.tolist()))


class TestNoisyWordInclusion:
    def test_unperturbed_words_survive_small_noise(self):
        # words realizable without noise stay realizable with noise: every
        # 6-word seen in a long quiet run must appear in a perturbed run too
        from epsent.dynamics import sample_invariant_orbit

        spec = MapSpec("doubling")
        part = Partition(2)
        quiet = sample_invariant_orbit(spec, NoiseSpec(sigma=0.0, mode="none", seed=47), 200_000).points
        noisy = sample_invariant_orbit(
            spec, NoiseSpec(sigma=0.01, mode="dynamical", seed=48), 200_000
        ).points
        for depth in range(1, 7):
            quiet_words = window_words(encode(quiet, part).symbols, depth)
            noisy_words = window_words(encode(noisy, part).symbols, depth)
            assert quiet_words <= noisy_words


def frequencies(seq: SymbolicSequence, depth: int) -> np.ndarray:
    """Sliding-window word frequencies at ``depth``, in lexicographic order."""
    counts = next(block_counts(seq, depth))
    return counts / counts.sum()


class TestFrequencies:
    def test_alternating_pairs(self):
        seq = SymbolicSequence(np.array([0, 1, 0, 1, 0]), 2)
        assert frequencies(seq, 2).tolist() == [0.5, 0.5]  # 01, 10

    def test_constant_singletons(self):
        seq = SymbolicSequence(np.array([0, 0, 0, 0]), 2)
        assert frequencies(seq, 1).tolist() == [1.0]

    def test_iid_triples_near_uniform(self):
        rng = np.random.default_rng(41)
        seq = SymbolicSequence(rng.integers(0, 2, size=200_000), 2)
        freqs = frequencies(seq, 3)
        assert len(freqs) == 8
        assert np.all(np.abs(freqs - 0.125) < 0.01)

    def test_normalization(self):
        rng = np.random.default_rng(43)
        seq = SymbolicSequence(rng.integers(0, 5, size=3000), 5)
        for depth, counts in enumerate(itertools.islice(block_counts(seq), 4), start=1):
            assert counts.min() >= 1
            assert counts.sum() == len(seq) - depth + 1

    def test_too_short(self):
        seq = SymbolicSequence(np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="length 2 has no 3-blocks"):
            next(block_counts(seq, 3))


def ladder_case(n_cells, length, seed):
    """``length`` symbols over three letters of an ``n_cells`` alphabet, with
    one symbol in ten drawn from the whole alphabet."""
    rng = np.random.default_rng(seed)
    letters = rng.choice(n_cells, 3, replace=False)
    symbols = np.where(
        rng.random(length) < 0.1, rng.integers(0, n_cells, length), rng.choice(letters, length)
    )
    return SymbolicSequence(symbols, n_cells)


class TestLazyLadder:
    # N = 250 over 4000 symbols renumbers its 1-words (250^2 passes twice the
    # length) and sorts from depth 2; N = 65535 over 40000 symbols counts
    # depth 1 in place, renumbers it, then sorts
    CASES = [(250, 4000, 8), (65535, 40_000, 4)]

    @pytest.mark.parametrize("n_cells, length, depths", CASES, ids=["N250", "N65535"])
    def test_counts_do_not_depend_on_how_far_the_caller_walks(self, n_cells, length, depths):
        seq = ladder_case(n_cells, length, n_cells)
        walk = block_counts(seq)
        counts = [next(walk) for _ in range(depths)]
        kept = [c.copy() for c in counts]
        next(walk)  # walking on leaves the arrays already handed out alone
        for d, c in enumerate(counts, start=1):
            assert np.array_equal(c, kept[d - 1])
            # a walk stopped at depth d, or started there, yields the same array
            stopped = list(itertools.islice(block_counts(seq), d))[-1]
            assert np.array_equal(stopped, c)
            assert np.array_equal(next(block_counts(seq, d)), c)
            windows = Counter(map(tuple, np.lib.stride_tricks.sliding_window_view(seq.symbols, d)))
            assert c.tolist() == [windows[w] for w in sorted(windows)]

    def test_depth_past_the_length_raises_value_error(self):
        seq = SymbolicSequence(np.array([0, 1, 1]), 2)
        walk = block_counts(seq)
        assert [c.tolist() for c in itertools.islice(walk, 3)] == [[1, 2], [1, 1], [1]]
        # a ValueError, never a StopIteration that would end a caller's loop quietly
        with pytest.raises(ValueError, match="length 3 has no 4-blocks"):
            next(walk)
        with pytest.raises(ValueError, match="length 3 has no 5-blocks"):
            next(block_counts(seq, 5))
        with pytest.raises(ValueError, match="length 3 has no 4-blocks"):
            list(itertools.islice(block_counts(seq, 2), 10))
        with pytest.raises(ValueError, match="length 0 has no 1-blocks"):
            next(block_counts(SymbolicSequence(np.array([], dtype=np.int32), 2)))


class TestSymbolicSequence:
    def test_symbol_range_validation(self):
        with pytest.raises(ValueError):
            SymbolicSequence(np.array([0, 3]), 2)

    def test_wide_integers_checked_before_the_int32_cast(self):
        # as int32, 2**32 + 1 would read as 1 and 1 - 2**32 as 1
        with pytest.raises(ValueError, match="out of alphabet range"):
            SymbolicSequence(np.array([0, 2**32 + 1]), 4)
        with pytest.raises(ValueError, match="negative symbol"):
            SymbolicSequence(np.array([0, 1 - 2**32]), 4)
        seq = SymbolicSequence(np.array([0, 3], dtype=np.uint64), 4)
        assert seq.symbols.dtype == np.int32
        assert seq.symbols.tolist() == [0, 3]

    def test_integer_dtype_required(self):
        with pytest.raises(ValueError, match="integer dtype"):
            SymbolicSequence(np.array([0.5, 1.7, 2.2]), 4)
        with pytest.raises(ValueError, match="integer dtype"):
            SymbolicSequence([0, 1, 1.0], 4)
        # no symbol to narrow: an empty float array is an empty sequence
        assert len(SymbolicSequence(np.array([]), 2)) == 0
