"""epsent: scale-dependent entropy estimation for noisy one-dimensional maps.

Simulate interval maps under bounded i.i.d. noise, code orbits against uniform
partitions, estimate the per-symbol information rate by dictionary
compression and block entropies, compare against analytic envelopes, and read
the noise amplitude off the rate-versus-scale curve.

The package root exports nothing; import the module that holds a name
(``from epsent.sweep import run_grid``), so a caller loads only what it uses.
"""
