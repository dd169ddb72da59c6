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

The one-step mismatch probability p that the bounds take is read by
:func:`estimate_p` off the transitions of the orbit the cell observes,
against the images f(z) of that orbit's first states z.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import NoiseSpec
from .partition import Partition, SymbolicSequence, block_counts, encode


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


def estimate_p(fx: np.ndarray, seq: SymbolicSequence, noise: NoiseSpec) -> tuple[float, float]:
    """One-step cell-mismatch probability read off the orbit, and its 95% half-width.

    ``seq`` is the observed orbit y coded on the uniform partition of its own
    alphabet, and ``fx`` the images f(z[t]) of y's first n states z: y
    itself under dynamical noise, the clean orbit beneath y under output
    noise.  p is the share of t < n in which cell(f(z[t])) differs from
    y[t+1]'s symbol; no noise is drawn, and with none p is exactly 0.  The
    half-width 1.96 sqrt(p(1 - p) / n) treats the transitions along one
    orbit as independent.  On the five grids of SCIENCE.json it agreed with
    an independent Monte Carlo within 2 combined standard errors in 55-59 of
    60 cells per grid, with a largest gap of 2.97.
    """
    reads = len(fx)
    if not 0 < reads < len(seq):
        raise ValueError(f"{reads} probe points need 1 to {len(seq) - 1}, one per successor symbol")
    if noise.effective_mode == "none":
        return 0.0, 0.0

    images = encode(fx, Partition(seq.alphabet_size)).symbols
    p_hat = float(np.mean(images != seq.symbols[1 : reads + 1]))
    halfwidth = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / reads)
    return p_hat, halfwidth
