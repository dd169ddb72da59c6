"""Uniform partitions of [0,1], symbolic coding and cylinder geometry.

A partition of N cells has diameter 1/N; cells are half-open except the last,
so every point of [0,1] lands in exactly one cell.  Refining a partition under
a piecewise monotone map yields the cylinder intervals of depth n: maximal
intervals of initial conditions sharing a length-n symbol word.  These are
computed exactly by pulling cell endpoints back through the monotone branch
inverses, never from sampled data.  The sliding-window word counts of a
symbolic sequence come from one word-rank ladder (:func:`block_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import MapSpec, RealOrbit, map_branches

_WIDTH_TOL = 1e-14
_TOUCH_TOL = 1e-12


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
        self.symbols = np.asarray(self.symbols, dtype=np.int32)
        if self.symbols.size and int(self.symbols.max()) >= self.alphabet_size:
            raise ValueError("symbol out of alphabet range")
        if self.symbols.size and int(self.symbols.min()) < 0:
            raise ValueError("negative symbol")

    def __len__(self) -> int:
        return int(self.symbols.size)


@dataclass
class CylinderSet:
    """Exact interval decomposition of a refined partition."""

    depth: int
    intervals: list[tuple[float, float, tuple[int, ...]]]
    min_diameter: float


def encode(orbit: RealOrbit | np.ndarray | Sequence[float], partition: Partition) -> SymbolicSequence:
    """Symbol j is the partition cell containing orbit point j."""
    points = orbit.points if isinstance(orbit, RealOrbit) else np.asarray(orbit, dtype=float)
    n = partition.n_cells
    symbols = np.minimum(np.floor(points * n).astype(np.int32), n - 1)
    return SymbolicSequence(symbols=symbols, alphabet_size=n)


def refine_cylinders(
    spec: MapSpec,
    partition: Partition,
    n: int,
    cap: int = 10**6,
) -> CylinderSet:
    """Cylinder intervals of depth ``n``: words (i0..i_{n-1}) with their
    exact interval of initial conditions.

    Built by recursion: depth-1 cylinders are the cells; a depth-(j+1)
    cylinder is a cell intersected with a branchwise preimage of a depth-j
    cylinder.  Only nonempty intervals are kept; pieces of one cylinder that
    touch at a branch point are merged.
    """
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    branches = map_branches(spec)
    bound = partition.n_cells * len(branches) ** n
    if bound > cap:
        raise ResourceLimitError(
            f"refinement may produce up to {bound} intervals, over the cap {cap}"
        )

    ncells = partition.n_cells
    grid = [i / ncells for i in range(ncells + 1)]
    grid[-1] = 1.0

    def cell_pieces(lo: float, hi: float, word: tuple[int, ...]):
        """Split [lo,hi] along the cell grid, prepending the cell symbol."""
        i_lo = max(0, min(int(lo * ncells), ncells - 1))
        i_hi = max(0, min(int(np.ceil(hi * ncells)) - 1, ncells - 1))
        for i in range(i_lo, i_hi + 1):
            a = max(lo, grid[i])
            b = min(hi, grid[i + 1])
            if b - a > _WIDTH_TOL:
                yield (a, b, (i,) + word)

    cyls = list(cell_pieces(0.0, 1.0, ()))
    for _ in range(n - 1):
        nxt: list[tuple[float, float, tuple[int, ...]]] = []
        for br in branches:
            for lo, hi, word in cyls:
                a = max(lo, br.range_lo)
                b = min(hi, br.range_hi)
                if b - a <= _WIDTH_TOL:
                    continue
                u, v = br.inverse(a), br.inverse(b)
                if not br.increasing:
                    u, v = v, u
                u = max(u, br.lo)
                v = min(v, br.hi)
                if v - u > _WIDTH_TOL:
                    nxt.extend(cell_pieces(u, v, word))
        if len(nxt) > cap:
            raise ResourceLimitError(f"refinement exceeded the cap {cap}")
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
    return CylinderSet(depth=n, intervals=merged, min_diameter=min_diam)


def block_counts(seq: SymbolicSequence, first: int, last: int) -> list[np.ndarray]:
    """Sliding-window word counts for each block length ``first..last``,
    each in lexicographic word order.

    Counted on one word-rank ladder: the ids of the d-words extend to the
    (d+1)-words as ``ids[:-1] * N + x[d:]``, which keeps their order.  Ids
    below twice the sequence length are counted in place, which beats
    sorting them; larger ones are sorted.  Before the next depth's ids could
    pass that limit, the distinct words are renumbered 0..K-1, so no N^d
    word space is ever indexed.
    """
    if not 1 <= first <= last:
        raise ValueError(f"block lengths must satisfy 1 <= first <= last, got {first}..{last}")
    x, n = seq.symbols, seq.alphabet_size
    if x.size < last:
        raise ValueError(f"sequence of length {x.size} has no {last}-blocks")
    limit = 2 * x.size
    ids, bound = x.astype(np.int64), n  # ids of the d-words, all below bound
    out: list[np.ndarray] = []
    for d in range(1, last + 1):
        if d > 1:
            ids = ids[:-1]
            ids *= n
            ids += x[d - 1 :]
            bound *= n
        renumber = d < last and bound * n > limit
        if bound > limit:
            _, ids, counts = np.unique(ids, return_inverse=True, return_counts=True)
            bound = len(counts)
        elif d >= first or renumber:
            counts = np.bincount(ids, minlength=bound)
            seen = counts != 0
            counts = counts[seen]
            if renumber:
                ids, bound = (np.cumsum(seen) - 1)[ids], len(counts)
        if d >= first:
            out.append(counts)
    return out
