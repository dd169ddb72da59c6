"""Deterministic seed derivation.

Every random quantity in the package is a pure function of a 64-bit seed.
Sub-streams (noise draws, initial conditions, lazy mantissa bits, Monte-Carlo
probes, sweep orbits and cells) are derived with the SplitMix64 finalizer
chained over integer tags:

    s0 = splitmix64(seed)
    s_{k+1} = splitmix64(s_k XOR tag_k)

This mixer is part of the output contract: grid results must not depend on
execution order or worker count, so orbit and cell seeds are derived from
indices, never from shared RNG state. Do not change the constants.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

# Stream tags. New tags may be appended; existing values are frozen.
NOISE_STREAM = 0x01
INIT_STREAM = 0x02
BITS_STREAM = 0x03
PROBE_ORBIT_STREAM = 0x04
PROBE_NOISE_STREAM = 0x05
COMPANION_STREAM = 0xC0
CELL_STREAM = 0xCE
ORBIT_STREAM = 0xB0


def splitmix64(value: int) -> int:
    """One round of the SplitMix64 finalizer (Steele et al.)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix(seed: int, *tags: int) -> int:
    """Derive a 64-bit sub-seed from ``seed`` and a sequence of integer tags."""
    state = splitmix64(seed & _MASK)
    for tag in tags:
        state = splitmix64(state ^ (tag & _MASK))
    return state


def cell_seed(master_seed: int, sigma_index: int, eps_index: int) -> int:
    """Seed for one (sigma, eps) grid cell; independent of execution order."""
    return mix(master_seed, CELL_STREAM, sigma_index, eps_index)


def orbit_seed(master_seed: int, sigma_index: int) -> int:
    """Seed for the noisy orbit that every partition of one sigma observes."""
    return mix(master_seed, ORBIT_STREAM, sigma_index)


def probe_seed(master_seed: int, sigma_index: int) -> int:
    """Seed for the orbit whose images are one sigma's mismatch probe."""
    return mix(orbit_seed(master_seed, sigma_index), PROBE_ORBIT_STREAM)


def companion_seed(master_seed: int) -> int:
    """Seed for the noise-free companion run of a sweep."""
    return mix(master_seed, COMPANION_STREAM)
