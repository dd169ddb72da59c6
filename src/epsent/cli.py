"""Command-line front door.

Subcommands: ``sweep`` (grid experiment -> CSV / plot data), ``simulate``
(single orbit dump), ``compress`` / ``decompress`` (standalone symbol files),
``detect`` (read a sweep CSV, locate the noise scale per curve) and
``selftest`` (run the built-in analytic oracles).

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  Warnings go
to stderr; bulk data goes to files only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from array import array
from collections import defaultdict

import numpy as np

from . import compressor, dynamics, selftest
from .config import SCHEMA, ConfigError, RunConfig, flag_of, load_config
from .dynamics import MapSpec, NoiseSpec, dump_orbit, generate_orbit, sample_invariant_orbit
from .sweep import FLAT_SLOPE, NOISE_SLOPE, detect_sigma, emit_csv, emit_plot_data, run_grid

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="epsent",
        description="Scale-dependent entropy estimation for noisy one-dimensional maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the (sigma, eps) grid and write CSV/plot data")
    sweep.add_argument("--config", help="JSON config file; flags override it")
    for key, f in SCHEMA.items():
        meta = f.metadata
        kwargs = {"dest": key, "help": meta["help"]}
        if meta["type"] is bool:
            kwargs.update(action="store_const", const=True, default=None)
        elif isinstance(f.default, tuple):
            kwargs.update(action="append", type=meta["type"])
        else:
            kwargs.update(type=meta["type"], choices=meta["choices"])
        sweep.add_argument(flag_of(key), **kwargs)

    sim = sub.add_parser("simulate", help="dump one orbit, one point per line")
    sim.add_argument("--map", default=RunConfig.map, choices=dynamics.MAP_KINDS)
    sim.add_argument("--lambda", dest="lam", type=float, default=RunConfig.lam)
    sim.add_argument("--noise-mode", default="none", choices=dynamics.NOISE_MODES)
    sim.add_argument("--boundary", default=RunConfig.boundary, choices=dynamics.BOUNDARIES)
    sim.add_argument("--sigma", type=float, default=0.0)
    sim.add_argument("--length", type=int, default=1000)
    sim.add_argument("--burn-in", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--x0", type=float, help="explicit start point (skips burn-in)")
    sim.add_argument("--out", required=True)

    comp = sub.add_parser("compress", help="compress a whitespace-separated symbol file")
    comp.add_argument("--cells", type=int, required=True, help="alphabet size N")
    comp.add_argument("--algorithm", default=RunConfig.algorithm, choices=compressor.ALGORITHMS)
    comp.add_argument("input")
    comp.add_argument("output")

    dec = sub.add_parser("decompress", help="decompress a bitstream back to symbols")
    dec.add_argument("input")
    dec.add_argument("output")

    det = sub.add_parser("detect", help="locate the noise scale from a sweep CSV")
    det.add_argument("csv")
    det.add_argument("--flat-slope", type=float, default=FLAT_SLOPE)
    det.add_argument("--noise-slope", type=float, default=NOISE_SLOPE)

    sub.add_parser("selftest", help="run the built-in analytic oracles")
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key in SCHEMA}
    cfg = load_config(args.config, overrides)
    out_csv = cfg.out_csv or "sweep.csv"
    # the plot, written second, would replace the CSV
    if cfg.out_plot and os.path.realpath(cfg.out_plot) == os.path.realpath(out_csv):
        raise ConfigError(f"out_plot: {cfg.out_plot!r} is the out_csv path {out_csv!r}")
    # a path that cannot be written would fail only after the whole grid ran
    for key, path in (("out_csv", out_csv), ("out_plot", cfg.out_plot)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{key}: no directory {os.path.dirname(path)!r} for {path!r}")
        if path and os.path.isdir(path):
            raise ConfigError(f"{key}: {path!r} is a directory")
    cells = run_grid(cfg)
    emit_csv(cells, out_csv)
    print(f"wrote {out_csv}", file=sys.stderr)
    if cfg.out_plot:
        emit_plot_data(cells, cfg.out_plot)
        print(f"wrote {cfg.out_plot}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    # sigma, lambda, burn-in and seed follow sweep's rules, length
    # [1, MAX_SYMBOLS] and x0 the unit interval, so a bad one exits 2 naming
    # its key before any orbit is built
    RunConfig(
        map=args.map, lam=args.lam, sigma=(args.sigma,), burn_in=args.burn_in, seed=args.seed
    )
    if not 1 <= args.length <= compressor.MAX_SYMBOLS:
        raise ConfigError(f"length: must be in [1, {compressor.MAX_SYMBOLS}], got {args.length}")
    # nan fails this comparison too
    if args.x0 is not None and not 0.0 <= args.x0 <= 1.0:
        raise ConfigError(f"x0: must be in [0, 1], got {args.x0}")
    spec = MapSpec(args.map, args.lam)
    noise = NoiseSpec(sigma=args.sigma, mode=args.noise_mode, boundary=args.boundary, seed=args.seed)
    if args.x0 is not None:
        orbit = generate_orbit(spec, args.x0, args.length, noise)
    else:
        orbit = sample_invariant_orbit(spec, noise, args.length, args.burn_in).points
    dump_orbit(orbit, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


# bytes of a symbol file parsed, or symbols of one written, per step
_TEXT_CHUNK = 1 << 18


def _read_symbols(path: str) -> np.ndarray:
    """Unsigned decimals separated by ASCII whitespace, as int32.

    Any other token, or a value past int32, raises ValueError naming it.
    """
    out = array("i")
    tail = b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_TEXT_CHUNK)
            text, tail = tail + chunk, b""
            if chunk and not chunk[-1:].isspace():
                # the last token may go on in the next chunk
                *head, tail = text.rsplit(None, 1)
                text = head[0] if head else b""
            if text.translate(None, b"0123456789 \t\n\v\f\r"):
                # bytes split and isdigit know ASCII whitespace and digits alone
                bad = next(tok for tok in text.split() if not tok.isdigit())
                raise ValueError(f"symbol {repr(bad)[1:]} is not an unsigned decimal")
            # numpy reads a blank text as [0], and a number past int64 as its maximum
            if not text.isspace():
                values = np.fromstring(text, dtype=np.int64, sep=" ")
                if values.max(initial=0) >= 2**31:
                    bad = text.split()[int(np.argmax(values >= 2**31))]
                    raise ValueError(f"symbol {bad.decode()} out of bounds for int32")
                out.frombytes(values.astype(np.int32).tobytes())
            if not chunk:
                return np.frombuffer(out, dtype=np.int32)


def _cmd_compress(args: argparse.Namespace) -> int:
    # the alphabet follows sweep's --cells rule, checked before the file is read
    RunConfig(n_list=(args.cells,))
    symbols = _read_symbols(args.input)
    encoder = getattr(compressor, compressor.CODERS[args.algorithm][0])
    stream, report = encoder(symbols, alphabet_size=args.cells)
    with open(args.output, "wb") as fh:
        fh.write(stream)
    print(
        f"{report.algorithm}: {report.input_len} symbols -> {report.encoded_bits} bits "
        f"({report.rate:.4f} bits/symbol, {report.phrase_count} phrases)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_decompress(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        stream = fh.read()
    seq, algorithm = compressor.decode(stream)
    lines = [f"{s}\n" for s in range(seq.alphabet_size)]
    with open(args.output, "w") as fh:
        for start in range(0, len(seq), _TEXT_CHUNK):
            block = seq.symbols[start : start + _TEXT_CHUNK].tolist()
            fh.write("".join([lines[s] for s in block]))
    print(f"{algorithm}: recovered {len(seq)} symbols", file=sys.stderr)
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    for flag, slope in (("--flat-slope", args.flat_slope), ("--noise-slope", args.noise_slope)):
        # a nan threshold fails every comparison, so each edge would read undetected
        if not math.isfinite(slope):
            raise ConfigError(f"{flag}: must be finite, got {slope!r}")
    # the (eps, rate, plateau value) triple of a row that detect_sigma reads
    columns = ("eps", "compression_rate_bits", "cond_entropy_bits")
    by_sigma: dict[float, list[tuple[float, ...]]] = defaultdict(list)
    with open(args.csv, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in ("sigma", *columns):
            if column not in (reader.fieldnames or ()):
                print(f"{args.csv}: not a sweep CSV, no {column} column", file=sys.stderr)
                return EXIT_RUNTIME
        for row in reader:
            values = []
            for column in ("sigma", *columns):
                text = row[column]
                try:
                    values.append(float(text))
                except (TypeError, ValueError):
                    what = "no value" if text is None else f"{text!r} is not a number"
                    where = f"{args.csv} line {reader.line_num}, column {column}"
                    raise ValueError(f"{where}: {what}") from None
            sigma, *triple = values
            if not math.isfinite(sigma):
                raise ValueError(f"sigma {sigma!r} is not finite")
            if sigma < 0.0:
                raise ValueError(f"sigma {sigma!r} must be >= 0")
            by_sigma[sigma + 0.0].append(tuple(triple))  # -0.0 joins 0.0's curve
    if not by_sigma:
        raise ValueError(f"{args.csv}: no rows")
    # every curve is read before any line is printed, so a bad one leaves stdout empty
    lines = []
    for sigma in sorted(by_sigma, reverse=True):
        try:
            det = detect_sigma(by_sigma[sigma], args.flat_slope, args.noise_slope)
        except ValueError as exc:
            raise ValueError(f"sigma={sigma:g}: {exc}") from exc
        est = f" sigma_estimate={det.sigma_estimate:.6g}" if det.status == "detected" else ""
        lines.append(
            f"sigma={sigma:g} status={det.status} eps2={det.eps2:.6g} eps1={det.eps1:.6g}{est}\n"
        )
    sys.stdout.write("".join(lines))
    return EXIT_OK


def _cmd_selftest(_args: argparse.Namespace) -> int:
    width = max(len(name) for name, _ in selftest.ORACLES)
    failures = 0
    for name, oracle in selftest.ORACLES:
        try:
            oracle()
            status = "PASS"
        except Exception as exc:
            status = f"FAIL: {exc}"
            failures += 1
        print(f"{name:<{width}}  {status}")
    print(f"{len(selftest.ORACLES) - failures}/{len(selftest.ORACLES)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
        "compress": _cmd_compress,
        "decompress": _cmd_decompress,
        "detect": _cmd_detect,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures map to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
