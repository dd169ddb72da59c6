"""Uniform partitions of [0,1], symbolic coding and cylinder geometry.

A partition of N cells has diameter 1/N; cells are half-open except the last,
so every point of [0,1] lands in exactly one cell.  Refining a partition under
a piecewise monotone map yields the cylinder intervals of depth n: maximal
intervals of initial conditions sharing a length-n symbol word.  These are
computed exactly by pulling cell endpoints back through the two branch
inverses, never from sampled data.  This relies on the layout every map
shares (:func:`~epsent.dynamics.map_branches`): each half of [0,1] maps onto
[0, top], so each preimage lands in its own half.  The sliding-window word
counts of a symbolic sequence come from one lazy word-rank ladder
(:func:`block_counts`), walked only as deep as its caller asks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dynamics import MapSpec, map_branches

_WIDTH_TOL = 1e-14
_TOUCH_TOL = 1e-12
REFINE_CAP = 10**6


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


@dataclass(frozen=True)
class Partition:
    """Uniform partition of [0,1] into ``n_cells`` half-open cells."""

    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells < 2:
            raise ValueError(f"need at least 2 cells, got {self.n_cells}")

    @property
    def diameter(self) -> float:
        return 1.0 / self.n_cells


@dataclass
class SymbolicSequence:
    """Finite word over the alphabet {0..N-1}, N = ``alphabet_size``."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self) -> None:
        # checked before the cast to int32, which would wrap or truncate
        symbols = np.asarray(self.symbols)
        if symbols.size:
            if symbols.dtype.kind not in "iu":
                raise ValueError(f"symbols must have an integer dtype, not {symbols.dtype}")
            limit = min(self.alphabet_size, 2**31)
            if int(symbols.max()) >= limit or int(symbols.min()) < 0:
                # name the first offending symbol in sequence order
                bad = int(symbols[np.argmax((symbols < 0) | (symbols >= limit))])
                if bad < 0:
                    raise ValueError(f"negative symbol {bad}")
                raise ValueError(f"symbol {bad} out of alphabet range [0, {limit})")
        self.symbols = symbols.astype(np.int32, copy=False)

    def __len__(self) -> int:
        return int(self.symbols.size)


@dataclass
class CylinderSet:
    """Exact interval decomposition of a refined partition."""

    intervals: list[tuple[float, float, tuple[int, ...]]]
    min_diameter: float


def encode(points: np.ndarray | Sequence[float], partition: Partition) -> SymbolicSequence:
    """Symbol j is the partition cell containing point j."""
    points = np.asarray(points, dtype=float)
    n = partition.n_cells
    symbols = np.minimum(np.floor(points * n).astype(np.int32), n - 1)
    return SymbolicSequence(symbols=symbols, alphabet_size=n)


def refine_cylinders(spec: MapSpec, partition: Partition, n: int) -> CylinderSet:
    """Cylinder intervals of depth ``n``: words (i0..i_{n-1}) with their
    exact interval of initial conditions.

    Built by recursion: depth-1 cylinders are the cells; a depth-(j+1)
    cylinder is a cell intersected with a branchwise preimage of a depth-j
    cylinder: its part in the shared range [0, top] pulled back through one
    branch inverse.  Only nonempty intervals are kept; pieces of one
    cylinder that touch at a branch point are merged.  A refinement that may
    hold more than REFINE_CAP intervals raises :class:`ResourceLimitError`.
    """
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    top, inverses = map_branches(spec)
    bound = partition.n_cells * len(inverses) ** n
    if bound > REFINE_CAP:
        raise ResourceLimitError(
            f"refinement may produce up to {bound} intervals, over the cap {REFINE_CAP}"
        )

    ncells = partition.n_cells
    grid = [i / ncells for i in range(ncells + 1)]
    grid[-1] = 1.0

    def cell_pieces(lo: float, hi: float, word: tuple[int, ...]):
        """Split [lo,hi] along the cell grid, prepending the cell symbol."""
        i_lo = min(int(lo * ncells), ncells - 1)
        i_hi = min(int(np.ceil(hi * ncells)) - 1, ncells - 1)
        for i in range(i_lo, i_hi + 1):
            a = max(lo, grid[i])
            b = min(hi, grid[i + 1])
            if b - a > _WIDTH_TOL:
                yield (a, b, (i,) + word)

    cyls = list(cell_pieces(0.0, 1.0, ()))
    for _ in range(n - 1):
        nxt: list[tuple[float, float, tuple[int, ...]]] = []
        for inverse in inverses:
            for lo, hi, word in cyls:
                # a piece reaching less than _WIDTH_TOL into [0, top] would
                # pull back to a sliver about 1e-7 wide
                b = min(hi, top)
                if b - lo <= _WIDTH_TOL:
                    continue
                u, v = sorted((inverse(lo), inverse(b)))
                if v - u > _WIDTH_TOL:
                    nxt.extend(cell_pieces(u, v, word))
        if len(nxt) > REFINE_CAP:
            raise ResourceLimitError(f"refinement exceeded the cap {REFINE_CAP}")
        cyls = nxt

    cyls.sort(key=lambda t: (t[0], t[1]))
    merged: list[tuple[float, float, tuple[int, ...]]] = []
    for lo, hi, word in cyls:
        if merged and merged[-1][2] == word and lo - merged[-1][1] < _TOUCH_TOL:
            prev = merged.pop()
            merged.append((prev[0], max(prev[1], hi), word))
        else:
            merged.append((lo, hi, word))

    min_diam = min((hi - lo) for lo, hi, _ in merged)
    return CylinderSet(intervals=merged, min_diameter=min_diam)


def block_counts(seq: SymbolicSequence, first: int = 1) -> Iterator[np.ndarray]:
    """Sliding-window word counts for block lengths ``first, first + 1, ...``
    in turn, each in lexicographic word order.

    Counted on one word-rank ladder: the ids of the d-words extend to the
    (d+1)-words as ``ids[:-1] * N + x[d:]``, which keeps their order.  Ids
    below twice the sequence length are counted in place, which beats
    sorting them; larger ones are sorted.  When the caller asks for the next
    depth and its ids could pass that limit, the distinct words are first
    renumbered 0..K-1, so no N^d word space is ever indexed.  A depth past
    the sequence's length raises ``ValueError``.
    """
    if first < 1:
        raise ValueError(f"block lengths start at 1, got first={first}")
    x, n = seq.symbols, seq.alphabet_size
    limit = 2 * x.size
    ids, bound = x.astype(np.int64), n  # ids of the d-words, all below bound
    for d in itertools.count(1):
        if max(d, first) > x.size:
            raise ValueError(f"sequence of length {x.size} has no {max(d, first)}-blocks")
        if bound > limit:
            _, ids, counts = np.unique(ids, return_inverse=True, return_counts=True)
            bound = len(counts)
        elif d >= first or bound * n > limit:
            counts = np.bincount(ids, minlength=bound)
            seen = counts != 0
            counts = counts[seen]
        if d >= first:
            yield counts
        if bound * n > limit and len(counts) < bound:  # some ids are unused
            ids, bound = (np.cumsum(seen) - 1)[ids], len(counts)
        ids = ids[:-1]
        ids *= n
        ids += x[d:]
        bound *= n
