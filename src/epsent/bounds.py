"""Analytic envelopes for the scale-dependent entropy of a noisy system.

All values are in bits.  The upper bounds combine the noise-free entropy
estimate h(eps) with the one-step cell-mismatch probability p: a perturbed
symbol stream can be described by flagging mismatched symbols (a p-coin,
H(p) bits each) plus, per mismatch, which of the 2*ceil(sigma/scale) reachable
cells the noise chose.  The lower bound is Kifer's density bound
-log2(eps) - log2(K) for transition densities bounded by K.  Uniform noise on
[-sigma, sigma] has density 1/(2*sigma) before the boundary policy folds it
back into [0,1].  Reflection maps up to 2*floor(sigma) + 2 points of a
width-2*sigma window onto one point, so the reflected kernel has
K = (floor(sigma) + 1)/sigma, which is 1/sigma for sigma < 1.  Clamping puts
point masses at 0 and 1, so no finite K exists; it keeps the nominal
1/(2*sigma) and is documented as breaking the bound.
"""

from __future__ import annotations

import math

from .dynamics import NoiseSpec
from .estimators import bernoulli_entropy

_CEIL_REL_TOL = 1e-9


def _ceil_cells(sigma: float, scale: float) -> int:
    """ceil(sigma/scale), snapping ratios within 1e-9 of an integer down.

    Floating division can land an exact ratio like 0.02/0.004 a hair above 5;
    the snap keeps the bound piecewise constant exactly between multiples.
    """
    q = sigma / scale
    k = math.ceil(q - _CEIL_REL_TOL * max(1.0, q))
    return max(1, k)


def output_noise_upper(h_eps: float, p: float, sigma: float, eps: float) -> float:
    """Upper bound on the perturbed entropy under output noise: the
    dynamical bound at the partition scale eps, with no convergence gap."""
    return dynamical_noise_upper(h_eps, 0.0, p, sigma, eps)


def dynamical_noise_upper(
    h_eps: float, delta: float, p: float, sigma: float, eps_n0: float
) -> float:
    """Upper bound under dynamical noise, at the refined-partition scale."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0,1]")
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if eps_n0 <= 0.0:
        raise ValueError(f"scale must be > 0, got {eps_n0}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        if p > 0.0:
            raise ValueError("sigma = 0 is inconsistent with p > 0")
        return h_eps + delta
    return (
        h_eps
        + delta
        + p * math.log2(2 * _ceil_cells(sigma, eps_n0))
        + bernoulli_entropy(p)
    )


def noise_density_bound(sigma: float, boundary: str) -> float:
    """Density bound K of the noise kernel after the boundary policy.

    ``reflect`` gives (floor(sigma) + 1)/sigma; ``clamp`` keeps the nominal
    1/(2*sigma) of the unfolded noise (see the module docstring).
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return math.inf
    if boundary == "reflect":
        return (math.floor(sigma) + 1.0) / sigma
    return 1.0 / (2.0 * sigma)


def kifer_lower(eps: float, density_bound: float) -> float:
    """Lower bound -log2(eps) - log2(K) for transition densities <= K."""
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if not density_bound > 0.0:
        raise ValueError(f"density bound must be > 0, got {density_bound}")
    if math.isinf(density_bound):
        return -math.inf
    return -math.log2(eps) - math.log2(density_bound)


def envelope(
    h_eps: float, delta: float, p: float, eps: float, eps_n0: float, noise: NoiseSpec
) -> dict[str, float]:
    """The two-regime envelope of one grid cell under ``noise``: the four
    bounds its row reports, keyed by their CSV columns.

    ``upper_bound`` follows the configured noise mode, also at sigma = 0: the
    output-noise bound at eps under output noise, the dynamical bound at
    eps_n0 otherwise.  ``envelope_high`` is the dynamical bound in both modes
    in the coarse regime (eps >= sigma and eps_n0 > sigma), whose cell factor
    collapses to log2(2), and that bound capped by the pure-noise line
    -log2(eps) in the fine regime.  The lower edge is Kifer's bound with the
    density bound of the noise kernel after its boundary policy.  Regime
    violations are the caller's to flag, not errors.
    """
    sigma = noise.sigma
    pure = -math.log2(eps)
    dyn_up = dynamical_noise_upper(h_eps, delta, p, sigma, eps_n0)
    upper = output_noise_upper(h_eps, p, sigma, eps) if noise.mode == "output" else dyn_up
    if sigma == 0.0 or (eps >= sigma and eps_n0 > sigma):
        high = dyn_up
    else:
        high = min(pure, dyn_up)
    return {
        "pure_noise_line": pure,
        "kifer_lower": kifer_lower(eps, noise_density_bound(sigma, noise.boundary)),
        "upper_bound": upper,
        "envelope_high": high,
    }
