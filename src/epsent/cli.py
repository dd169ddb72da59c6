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
import sys
import warnings
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
    curves = run_grid(cfg)
    out_csv = cfg.out_csv or "sweep.csv"
    emit_csv(curves, out_csv)
    print(f"wrote {out_csv}", file=sys.stderr)
    if cfg.out_plot:
        emit_plot_data(curves, cfg.out_plot)
        print(f"wrote {cfg.out_plot}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    # sigma and lambda follow sweep's rules, so a bad one exits 2 naming its key
    RunConfig(map=args.map, lam=args.lam, sigma=(args.sigma,))
    spec = MapSpec(args.map, args.lam)
    noise = NoiseSpec(sigma=args.sigma, mode=args.noise_mode, boundary=args.boundary, seed=args.seed)
    if args.x0 is not None:
        orbit = generate_orbit(spec, args.x0, args.length, noise)
    else:
        orbit = sample_invariant_orbit(spec, noise, args.length, args.burn_in)
    dump_orbit(orbit, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


# characters of a symbol file parsed, or symbols of one written, per step
_TEXT_CHUNK = 1 << 18


# digits to "1", and the whitespace that numpy's text reader skips as well
# as str.split to " "
_TOKEN_CHARS = bytes.maketrans(b"0123456789\t\n\v\f\r", b"1" * 10 + b" " * 5)


def _read_symbols(path: str) -> np.ndarray:
    """Whitespace-separated integers as int32, without an object per symbol."""
    out = array("i")
    tail = ""
    with open(path) as fh:
        while chunk := fh.read(_TEXT_CHUNK):
            text = tail + chunk
            # the last token may go on in the next chunk
            if chunk[-1].isspace():
                tail = ""
            else:
                *head, tail = text.rsplit(None, 1)
                text = head[0] if head else ""
            _extend_symbols(out, text)
    _extend_symbols(out, tail)
    return np.frombuffer(out, dtype=np.int32)


def _digit_tokens(text: str) -> int | None:
    """The number of tokens in text, if it holds only digits and ASCII
    whitespace; otherwise None."""
    if not text.isascii():
        return None
    kind = text.encode("ascii").translate(_TOKEN_CHARS)
    if kind.translate(None, b" 1"):
        return None
    return kind.count(b" 1") + kind.startswith(b"1")


def _extend_symbols(out: array, text: str) -> None:
    """Append the whitespace-separated integers of text to out, as int() reads them.

    Text of digits and ASCII whitespace alone is parsed by numpy's C reader:
    each token is an unsigned decimal, which int() would read the same.  The
    result is kept when it has one value per token and each fits in int32.
    Any other text takes the int() loop, so it gives the same symbols or the
    same error as that loop.
    """
    tokens = _digit_tokens(text)
    if tokens is not None:
        try:
            with warnings.catch_warnings():
                # numpy reports a partial read by ValueError, or in older
                # versions by this warning; either sends the text to int()
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(text, dtype=np.int64, sep=" ")
        except (DeprecationWarning, ValueError):
            values = None
        # a blank text reads as [0]; a number past int64 reads clamped
        if values is not None and values.size == tokens and values.max(initial=0) < 2**31:
            out.frombytes(values.astype(np.int32).tobytes())
            return
    tokens = text.split()
    try:
        out.extend(map(int, tokens))
    except OverflowError:
        bad = next(tok for tok in tokens if not -(2**31) <= int(tok) < 2**31)
        raise ValueError(f"symbol {bad} out of bounds for int32") from None


def _cmd_compress(args: argparse.Namespace) -> int:
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
            by_sigma[float(row["sigma"])].append(tuple(float(row[c]) for c in columns))
    for sigma in sorted(by_sigma, reverse=True):
        det = detect_sigma(by_sigma[sigma], args.flat_slope, args.noise_slope)
        est = f" sigma_estimate={det.sigma_estimate:.6g}" if det.status == "detected" else ""
        print(
            f"sigma={sigma:g} status={det.status} eps2={det.eps2:.6g} eps1={det.eps1:.6g}{est}"
        )
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
