"""epsent: scale-dependent entropy estimation for noisy one-dimensional maps.

Simulate interval maps under bounded i.i.d. noise, code orbits against uniform
partitions, estimate the per-symbol information rate by dictionary
compression and block entropies, compare against analytic envelopes, and read
the noise amplitude off the rate-versus-scale curve.
"""

from .bounds import BoundSet, dynamical_noise_upper, envelope, kifer_lower, output_noise_upper
from .compressor import CompressionReport, DecodeError, castore_encode, decode, lz78_encode
from .config import DEFAULT_CELLS, DEFAULT_SIGMAS, ConfigError, RunConfig, load_config
from .dynamics import (
    MapSpec,
    NoiseSpec,
    RealOrbit,
    generate_orbit,
    iterate_map,
    sample_invariant_orbit,
    sample_noise,
)
from .estimators import (
    DepthSelection,
    bernoulli_entropy,
    block_entropy,
    block_entropy_rate,
    choose_n0,
    conditional_entropy,
    estimate_p,
    mismatch_probe,
)
from .partition import (
    CylinderSet,
    Partition,
    ResourceLimitError,
    SymbolicSequence,
    empirical_cell_frequencies,
    encode,
    refine_cylinders,
)
from .sweep import (
    EntropyCurve,
    SigmaDetection,
    companion_stats,
    detect_sigma,
    emit_csv,
    emit_plot_data,
    run_grid,
)

__version__ = "0.1.0"
