"""Plug-in entropy estimators for symbolic sequences.

All entropies are in bits.  Block entropies use the maximum-likelihood
(plug-in) estimator over sliding windows; an optional Miller-Madow correction
is available but off by default.  The conditional entropy of depth n is the
increment H_{n+1} - H_n, which converges to the per-symbol entropy rate much
faster than H_n / n.

Each call reads its block entropies off one lazy word-rank ladder
(:func:`~epsent.partition.block_counts`), taking only the depths it needs:
H_1..H_D cost one pass per depth, never index the N^D word space, and sum
each depth's counts in lexicographic word order.

The one-step mismatch probability p that the bounds take is estimated by
:func:`estimate_p` on the probe images f(x) that the sweep builds once per
sigma, comparing cells for one partition.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import NoiseSpec, apply_boundary_array
from .partition import Partition, SymbolicSequence, block_counts, encode
from .seeds import PROBE_NOISE_STREAM, mix


def _entropy_from_counts(counts: np.ndarray, miller_madow: bool = False) -> float:
    total = counts.sum()
    p = counts / total
    h = float(-(p * np.log2(p)).sum())
    if miller_madow:
        h += (len(counts) - 1) / (2.0 * total * math.log(2.0))
    return h


def block_entropy_rate(seq: SymbolicSequence, n: int, miller_madow: bool = False) -> float:
    """H_n / n, the depth-n block estimate of the entropy rate."""
    counts = next(block_counts(seq, n))
    _warn_if_undersampled(seq, n, counts)
    return _entropy_from_counts(counts, miller_madow) / n


def _increments(seq: SymbolicSequence, counts: list[np.ndarray], miller_madow: bool) -> list[float]:
    """Increments H_{d+1} - H_d over consecutive ladder ``counts``, each
    clipped into [0, log2 N]."""
    hs = [_entropy_from_counts(c, miller_madow) for c in counts]
    top = math.log2(seq.alphabet_size)
    return [min(max(hi - lo, 0.0), top) for lo, hi in zip(hs, hs[1:])]


def conditional_entropy(seq: SymbolicSequence, n: int, miller_madow: bool = False) -> float:
    """Entropy increment H_{n+1} - H_n, clipped into [0, log2 N].

    This is the entropy of the next symbol conditioned on the previous n,
    under the empirical sliding-window measure.
    """
    counts = list(itertools.islice(block_counts(seq, n), 2))
    _warn_if_undersampled(seq, n + 1, counts[1])
    (h,) = _increments(seq, counts, miller_madow)
    return h


# samples per observed word that a block count needs to be trusted
SAMPLES_PER_WORD = 50


def _undersampled(counts: np.ndarray, length: int) -> bool:
    """Whether ``length`` symbols give the observed words of ``counts``
    fewer than SAMPLES_PER_WORD samples each."""
    return len(counts) * SAMPLES_PER_WORD > length


def _warn_if_undersampled(seq: SymbolicSequence, n: int, counts: np.ndarray) -> None:
    """Warn, blaming the estimator's caller, when ``counts`` is undersampled."""
    if _undersampled(counts, len(seq)):
        warnings.warn(
            f"length {len(seq)} below recommended {SAMPLES_PER_WORD * len(counts)} for "
            f"{n}-blocks over {seq.alphabet_size} symbols ({len(counts)} distinct words "
            "seen); estimate may be biased",
            stacklevel=3,
        )


def bernoulli_entropy(p: float) -> float:
    """Entropy of a coin with bias p, in bits; H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0,1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def default_max_block(length: int, alphabet_size: int) -> int:
    """Deepest block length with >= SAMPLES_PER_WORD expected samples per
    word, of all N^n possible ones (min 2)."""
    return max(2, int(math.floor(math.log(length / SAMPLES_PER_WORD) / math.log(alphabet_size))))


@dataclass(frozen=True)
class DepthSelection:
    """Result of scanning conditional entropies for convergence.

    ``depth`` is the deepest depth searched; ``cond_entropies`` lists every
    depth counted, down to ``max_depth``.
    """

    n0: int
    gap: float
    converged: bool
    depth: int
    cond_entropies: tuple[float, ...]

    @property
    def deepest(self) -> float:
        """Deepest sampled conditional entropy: the working proxy for the rate."""
        return self.cond_entropies[self.depth - 1]


def choose_n0(
    seq: SymbolicSequence,
    delta: float,
    max_depth: int,
    miller_madow: bool = False,
) -> DepthSelection:
    """Smallest depth whose conditional entropy sits within ``delta`` of the
    deepest estimable one.

    The true entropy rate is the limit of the conditional entropies; the
    deepest estimable value stands in for it, so some depth always
    qualifies.  That value is taken at the deepest depth d <= ``max_depth``
    (at least 1) whose (d+1)-words keep SAMPLES_PER_WORD samples per
    observed word: past it every word turns distinct and the increments fall
    to 0.  ``converged`` says whether a deeper depth confirmed n0: it is
    False when n0 is that depth itself.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    counts = list(itertools.islice(block_counts(seq), max_depth + 1))
    ces = _increments(seq, counts, miller_madow)
    sampled = [d for d in range(1, max_depth + 1) if not _undersampled(counts[d], len(seq))]
    depth = max(sampled, default=1)
    target = ces[depth - 1]
    n0 = next(d for d, ce in enumerate(ces, start=1) if abs(ce - target) <= delta)
    return DepthSelection(n0, abs(ces[n0 - 1] - target), n0 < depth, depth, tuple(ces))


def estimate_p(fx: np.ndarray, partition: Partition, noise: NoiseSpec) -> tuple[float, float]:
    """Monte-Carlo one-step cell-mismatch probability and 95% half-width.

    Estimates P{ cell(policy(f(x) + w)) != cell(f(x)) } over the probe
    images ``fx`` that the sweep builds, with one w per image drawn fresh
    from the noise law, seeded by ``mix(noise.seed, PROBE_NOISE_STREAM)``.
    ``fx`` is not modified.
    """
    samples = len(fx)
    if samples < 1:
        raise ValueError("no probe points")
    if noise.effective_mode == "none":
        return 0.0, 0.0

    w_rng = np.random.default_rng(mix(noise.seed, PROBE_NOISE_STREAM))
    w = w_rng.uniform(-noise.sigma, noise.sigma, size=samples)
    moved = apply_boundary_array(fx + w, noise.boundary)

    before = encode(fx, partition).symbols
    after = encode(moved, partition).symbols
    p_hat = float(np.mean(before != after))
    halfwidth = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return p_hat, halfwidth
