"""Orbits of one-dimensional interval maps under i.i.d. bounded noise.

Three map families on [0,1] are supported: the logistic family
``x -> lam*x*(1-x)``, the doubling map ``x -> 2x mod 1`` and the tent map
``x -> 1 - |1 - 2x|``.  Noise is uniform on [-sigma, sigma] and acts either on
the observations only (``output``) or inside the recurrence (``dynamical``).
A boundary policy (clamp or reflect) keeps every emitted point in [0,1].

Precision note: for the doubling and tent maps the recurrence is exact in
binary floating point, so a double-precision orbit runs out of mantissa bits
after ~52 steps and collapses onto a fixed point.  Orbit generation for those
maps therefore tracks the state as a 64-bit integer window onto the binary
expansion of the initial condition, appending one seeded random bit per step.
This samples the initial condition lazily to unbounded precision and is
statistically exact for Lebesgue-random starting points; emitted points are
the rounded doubles.  Without dynamical noise the windows are computed for
all steps at once with numpy: a doubling window is 64 consecutive bits of
the expansion, and a tent window is the same over the expansion with the
tent folds XORed in at stride 65 (see :func:`_window_orbit`).  Dynamical
noise re-quantizes the state from a double at every step, so that orbit is
stepped one point at a time by one integer loop.  The logistic map has no
such degeneracy and is iterated directly in double precision by one float
loop, with or without dynamical noise.  In both loops the boundary policy
acts only on points that the noise sent outside [0,1].
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .seeds import BITS_STREAM, INIT_STREAM, NOISE_STREAM, mix

MAP_KINDS = ("logistic", "doubling", "tent")
NOISE_MODES = ("none", "output", "dynamical")
BOUNDARIES = ("clamp", "reflect")

_MASK64 = (1 << 64) - 1
_SCALE64 = float(2**64)
# points formatted per write of dump_orbit
_DUMP_CHUNK = 1 << 18


@dataclass(frozen=True)
class MapSpec:
    """A piecewise monotone map of [0,1] with its branch structure."""

    kind: str
    lam: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == "logistic" and not 0.0 < self.lam <= 4.0:
            raise ValueError(f"logistic parameter must be in (0, 4], got {self.lam}")


@dataclass(frozen=True)
class NoiseSpec:
    """i.i.d. uniform noise on [-sigma, sigma] plus how it enters the system."""

    sigma: float = 0.0
    mode: str = "none"
    boundary: str = "reflect"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary policy {self.boundary!r}")

    @property
    def effective_mode(self) -> str:
        """sigma == 0 behaves exactly like mode 'none' regardless of mode."""
        return "none" if self.sigma == 0.0 else self.mode


@dataclass
class RealOrbit:
    """A finite orbit; a pure function of (map, noise incl. seed, x0, length)."""

    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def iterate_map_array(spec: MapSpec, x: np.ndarray) -> np.ndarray:
    """Apply the map once to every point (no domain check)."""
    if spec.kind == "logistic":
        return spec.lam * x * (1.0 - x)
    if spec.kind == "doubling":
        y = 2.0 * x
        return y - np.floor(y)
    return 1.0 - np.abs(1.0 - 2.0 * x)


def map_branches(spec: MapSpec) -> tuple[float, tuple[Callable[[float], float], ...]]:
    """The shared two-branch layout, as ``(top, inverses)``.

    Every supported map takes [0, 1/2] and [1/2, 1] each monotonically onto
    [0, top], with top = lam/4 for the logistic map and 1 otherwise.
    ``inverses[k]`` sends [0, top] back into branch k's half of [0,1].
    """
    if spec.kind == "logistic":
        lam = spec.lam

        def inv_left(y: float) -> float:
            return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * y / lam)))

        def inv_right(y: float) -> float:
            return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * y / lam)))

        return lam / 4.0, (inv_left, inv_right)
    if spec.kind == "doubling":
        return 1.0, (lambda y: 0.5 * y, lambda y: 0.5 * (1.0 + y))
    return 1.0, (lambda y: 0.5 * y, lambda y: 1.0 - 0.5 * y)


def sample_noise(noise: NoiseSpec, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform values in [-sigma, sigma], seeded.

    sigma == 0 returns zeros without consuming any generator state.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if noise.sigma == 0.0:
        return np.zeros(count)
    rng = np.random.default_rng(mix(noise.seed, NOISE_STREAM))
    return rng.uniform(-noise.sigma, noise.sigma, size=count)


def apply_boundary_array(y: np.ndarray, policy: str) -> np.ndarray:
    """Map every point into [0,1] by the boundary policy; returns a new array."""
    if policy == "clamp":
        return np.clip(y, 0.0, 1.0)
    # reflect only the points outside [0,1]; the fold also maps -0.0 to +0.0,
    # so the sign bit, not y < 0, picks the low side
    out = y.copy()
    outside = np.flatnonzero(np.signbit(y) | (y > 1.0))
    folded = np.mod(y[outside], 2.0)
    out[outside] = np.where(folded > 1.0, 2.0 - folded, folded)
    return out


def _lazy_bits(noise: NoiseSpec, count: int) -> np.ndarray:
    rng = np.random.default_rng(mix(noise.seed, BITS_STREAM))
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def _window_orbit(kind: str, state0: int, bits: np.ndarray) -> np.ndarray:
    """Points state_n / 2**64, n = 0..len(bits), of the noise-free shift orbit.

    Gives the same states as the exact shift step of :func:`generate_orbit`
    taken once per bit: shift the bit in, and for tent complement the window
    when the bit shifted out was 1.  Let ``ext`` be the 64 bits of
    ``state0``, most significant first, followed by ``bits``.  For doubling,
    state_n is the window ext[n : n+64]; all windows are packed at once by
    shift-and-OR over spans 1, 2, 4, ..., 32.  A tent fold complements the
    whole window, so tent windows come from the folded sequence
    e[k] = ext[k] ^ e[k-65] (e[k] = ext[k] for k < 65), a cumulative XOR down
    the columns of ``ext`` laid out in rows of 65 bits: state_n is the window
    e[n : n+64], complemented where e[n-1] == 1.
    """
    length = bits.size + 1
    ext = np.empty(bits.size + 64, dtype=np.uint8)
    ext[:64] = np.unpackbits(np.frombuffer(state0.to_bytes(8, "big"), dtype=np.uint8))
    ext[64:] = bits
    if kind == "tent":
        rows = np.zeros(-(-ext.size // 65) * 65, dtype=np.uint8)
        rows[: ext.size] = ext
        rows = rows.reshape(-1, 65)
        np.bitwise_xor.accumulate(rows, axis=0, out=rows)
        ext = rows.reshape(-1)[: ext.size]
    win = ext.astype(np.uint64)
    tmp = np.empty_like(win)
    m = win.size
    for span in (1, 2, 4, 8, 16, 32):
        m -= span
        np.left_shift(win[:m], span, out=tmp[:m])
        np.bitwise_or(tmp[:m], win[span : span + m], out=tmp[:m])
        win, tmp = tmp, win
    states = win[:length]
    if kind == "tent":
        # -e[n-1] is MASK where e[n-1] == 1 and 0 elsewhere
        states[1:] ^= np.negative(ext[: length - 1], dtype=np.uint64)
    points = tmp[:length].view(np.float64)  # the spare buffer takes the points
    np.divide(states, _SCALE64, out=points)
    return points


def generate_orbit(spec: MapSpec, x0: float, length: int, noise: NoiseSpec) -> RealOrbit:
    """Generate an orbit of ``length`` points starting from ``x0``.

    mode 'none':      x_{n+1} = f(x_n), emits x_n.
    mode 'output':    internal orbit unperturbed, emits policy(x_n + w_n).
    mode 'dynamical': x_{n+1} = policy(f(x_n) + w_{n+1}), emits x_n.

    The first emitted point is x0 (policy(x0 + w_0) for output noise).
    """
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 {x0} outside [0,1]")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")

    mode = noise.effective_mode
    clamp = noise.boundary == "clamp"
    w = sample_noise(noise, length) if mode != "none" else None

    acc = array("d")
    append = acc.append
    if spec.kind == "logistic":
        lam = spec.lam
        x = x0
        append(x)
        # -0.0, unlike 0.0, adds to every double without changing its bits
        steps = w[1:].tolist() if mode == "dynamical" else repeat(-0.0, length - 1)
        for wn in steps:
            x = lam * x * (1.0 - x) + wn
            if not 0.0 <= x <= 1.0:
                if clamp:
                    x = 0.0 if x < 0.0 else 1.0
                else:
                    x %= 2.0
                    if x > 1.0:
                        x = 2.0 - x
            append(x)
        points = np.frombuffer(acc, dtype=np.float64)
    else:
        bits = _lazy_bits(noise, length)[:-1]
        state = min(int(x0 * _SCALE64), _MASK64)
        if mode != "dynamical":
            points = _window_orbit(spec.kind, state, bits)
        else:
            # one exact shift step, then the noise re-quantizes the window
            tent = spec.kind == "tent"
            for bit, wn in zip(bits.tolist(), w[1:].tolist()):
                append(state / _SCALE64)
                top = state >> 63
                state = ((state << 1) | bit) & _MASK64
                if tent and top:
                    state = _MASK64 - state
                y = state / _SCALE64 + wn
                if not 0.0 <= y <= 1.0:
                    if clamp:
                        y = 0.0 if y < 0.0 else 1.0
                    else:
                        y %= 2.0
                        if y > 1.0:
                            y = 2.0 - y
                state = min(int(y * _SCALE64), _MASK64)
            append(state / _SCALE64)
            points = np.frombuffer(acc, dtype=np.float64)

    if mode == "output":
        points = apply_boundary_array(points + w, noise.boundary)
    return RealOrbit(points=points)


def sample_invariant_orbit(
    spec: MapSpec,
    noise: NoiseSpec,
    length: int,
    burn_in: int = 1000,
) -> RealOrbit:
    """Orbit whose start is relaxed onto the (empirical) invariant measure.

    Draws x0 from the seed's init stream, runs ``burn_in`` discarded iterates
    under the same noise action, then emits ``length`` points.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(mix(noise.seed, INIT_STREAM))
    x0 = float(rng.uniform(0.0, 1.0))
    full = generate_orbit(spec, x0, burn_in + length, noise)
    return RealOrbit(points=full.points[burn_in:])


def dump_orbit(orbit: RealOrbit, path: str) -> None:
    """Debug dump: one point per line, 17 significant digits."""
    points = orbit.points
    with open(path, "w") as fh:
        for start in range(0, len(points), _DUMP_CHUNK):
            block = points[start : start + _DUMP_CHUNK].tolist()
            fh.write("".join([f"{v:.17g}\n" for v in block]))
