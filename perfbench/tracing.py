"""Spans around the calls that ``epsent.sweep`` and ``epsent.cli`` make.

Nothing in the package is edited: :func:`traced` swaps the module-level
names those two modules look up at call time for timing wrappers, and puts
the originals back on exit.  Spans nest through a stack, so a span's self
time is its duration minus the durations of the spans it directly caused.
Spans are kept in memory and summarised by :func:`layer_metrics`.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field

import epsent.cli
import epsent.compressor
import epsent.sweep


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced_call(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.duration
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced_call

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str, key: str | None = None) -> float:
        spans = self.named(name)
        if key is None:
            return sum(s.duration for s in spans)
        return sum(s.counts.get(key, 0) for s in spans)


def _orbit_steps(args, kwargs, result):
    # sample_invariant_orbit(spec, noise, length, burn_in=1000) iterates
    # burn_in + length steps.
    burn_in = args[3] if len(args) > 3 else kwargs.get("burn_in", 1000)
    return {"steps": len(result.points) + burn_in}


def _encode_counts(args, kwargs, result):
    stream, report = result
    return {
        "symbols": report.input_len,
        "phrases": report.phrase_count,
        "bits": report.encoded_bits,
        "bytes": len(stream),
    }


def _decode_counts(args, kwargs, result):
    return {"symbols": len(result[0])}


# (module, attribute, span name, counter).  Sweep imported its callees by
# name, the CLI reaches the coders through the ``compressor`` module.
TARGETS = (
    (epsent.sweep, "sample_invariant_orbit", "dynamics.orbit", _orbit_steps),
    (epsent.sweep, "encode", "partition.encode", None),
    (epsent.sweep, "refine_cylinders", "partition.refine_cylinders", None),
    (epsent.sweep, "lz78_encode", "compressor.lz78_encode", _encode_counts),
    (epsent.sweep, "castore_encode", "compressor.castore_encode", _encode_counts),
    (epsent.sweep, "block_entropy_rate", "estimators.block_entropy", None),
    (epsent.sweep, "conditional_entropy", "estimators.cond_entropy", None),
    (epsent.sweep, "choose_n0", "estimators.choose_n0", None),
    (epsent.sweep, "estimate_p", "estimators.estimate_p", None),
    (epsent.sweep, "envelope", "bounds.envelope", None),
    (epsent.sweep, "companion_stats", "sweep.companion", None),
    (epsent.sweep, "_cell_task", "sweep.cell", None),
    (epsent.cli, "run_grid", "sweep.run_grid", None),
    (epsent.cli, "emit_csv", "sweep.emit_csv", None),
    (epsent.compressor, "lz78_encode", "compressor.lz78_encode", _encode_counts),
    (epsent.compressor, "castore_encode", "compressor.castore_encode", _encode_counts),
    (epsent.compressor, "decode", "compressor.decode", _decode_counts),
    (epsent.cli, "_cmd_sweep", "cli.sweep", None),
    (epsent.cli, "_cmd_compress", "cli.compress", None),
    (epsent.cli, "_cmd_decompress", "cli.decompress", None),
    (epsent.cli, "dispatch", "cli.dispatch", None),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the targets' calls through ``tracer`` for the duration."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for (module, attr, name, count), (_, _, original) in zip(TARGETS, saved):
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _per(seconds: float, n: float, scale: float = 1e9) -> float:
    return seconds * scale / n if n else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span of the traced run."""
    t = tracer.total

    def enc(key=None):
        return t("compressor.lz78_encode", key) + t("compressor.castore_encode", key)

    cells = [s.duration for s in tracer.named("sweep.cell")]
    cli_spans = [s for s in tracer.spans if s.name.startswith("cli.")]

    return {
        "dynamics.orbit_s": t("dynamics.orbit"),
        "dynamics.orbit_ns_per_step": _per(t("dynamics.orbit"), t("dynamics.orbit", "steps")),
        "partition.encode_s": t("partition.encode"),
        "partition.refine_cylinders_s": t("partition.refine_cylinders"),
        "compressor.lz78_encode_s": t("compressor.lz78_encode"),
        "compressor.castore_encode_s": t("compressor.castore_encode"),
        "compressor.encode_ns_per_symbol": _per(enc(), enc("symbols")),
        "compressor.decode_s": t("compressor.decode"),
        "compressor.decode_ns_per_symbol": _per(
            t("compressor.decode"), t("compressor.decode", "symbols")
        ),
        "compressor.phrases": enc("phrases"),
        "compressor.encoded_bits": enc("bits"),
        "compressor.stream_bytes": enc("bytes"),
        "estimators.block_entropy_s": t("estimators.block_entropy"),
        "estimators.cond_entropy_s": t("estimators.cond_entropy"),
        "estimators.choose_n0_s": t("estimators.choose_n0"),
        "estimators.estimate_p_s": t("estimators.estimate_p"),
        "bounds.envelope_s": t("bounds.envelope"),
        "sweep.companion_s": t("sweep.companion"),
        "sweep.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "sweep.cell_s_p80": statistics.quantiles(cells, n=5)[3] if len(cells) > 1 else sum(cells),
        "sweep.cell_self_s": sum(s.self_s for s in tracer.named("sweep.cell")),
        "sweep.emit_csv_s": t("sweep.emit_csv"),
        "cli.compress_s": t("cli.compress"),
        "cli.decompress_s": t("cli.decompress"),
        "cli.self_s": sum(s.self_s for s in cli_spans),
    }
