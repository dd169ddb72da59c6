"""The benchmark's trace spans (perfbench/tracing.py) wrap package names.

``--trace 1`` swaps each (module, attribute) pair of ``TARGETS`` for a timing
wrapper, so renaming or removing one of those names, or calling past it,
breaks the traced benchmark; these tests catch that in the unit suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import epsent.cli
import epsent.compressor
import epsent.sweep
from epsent.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_bound_and_callable(tracing):
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


# the traced stages each grid cell calls once
CELL_STAGES = (
    "partition.encode",
    "estimators.block_entropy",
    "estimators.cond_entropy",
    "estimators.estimate_p",
    "bounds.envelope",
)
# the traced stages the noise-free companion calls once per partition
COMPANION_STAGES = ("partition.encode", "estimators.choose_n0", "partition.refine_cylinders")


def test_sweep_stages_run_through_traced_names(tracing):
    config = RunConfig(sigma=(0.1, 0.01), n_list=(2, 4, 8), length=2000, p_samples=500)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        epsent.sweep.run_grid(config)

    orbits = tracer.named("dynamics.orbit")
    # the noise-free companion's orbit, then each sigma's orbit and its probe's
    observed, probe = config.length + config.burn_in, config.p_samples + config.burn_in
    assert [span.counts["steps"] for span in orbits] == [observed] + [observed, probe] * len(config.sigma)
    assert len(tracer.named("sweep.cell")) == len(config.sigma) * len(config.n_list)
    for span in orbits:
        parent = span.parent
        while parent >= 0:
            assert tracer.spans[parent].name != "sweep.cell", "a cell built an orbit"
            parent = tracer.spans[parent].parent

    def children(name):
        """Names of the direct children of each ``name`` span."""
        kids = {i: [] for i, span in enumerate(tracer.spans) if span.name == name}
        for span in tracer.spans:
            if span.parent in kids:
                kids[span.parent].append(span.name)
        return list(kids.values())

    # a stage routed past its traced name would read 0 under --trace 1
    for kids in children("sweep.cell"):
        for stage in CELL_STAGES:
            assert kids.count(stage) == 1, stage
    (kids,) = children("sweep.companion")
    for stage in COMPANION_STAGES:
        assert kids.count(stage) == len(config.n_list), stage


@pytest.mark.parametrize("algorithm", epsent.compressor.ALGORITHMS)
def test_each_cell_encodes_through_its_traced_coder(tracing, algorithm):
    config = RunConfig(
        map="tent",
        noise_mode="output",
        algorithm=algorithm,
        sigma=(0.1, 0.01),
        n_list=(2, 4, 8),
        length=2000,
        p_samples=500,
    )
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        epsent.sweep.run_grid(config)

    cells = tracer.named("sweep.cell")
    assert len(cells) == len(config.sigma) * len(config.n_list)
    encodes = tracer.named(f"compressor.{algorithm}_encode")
    assert [tracer.spans[span.parent] for span in encodes] == cells
    for other in set(epsent.compressor.ALGORITHMS) - {algorithm}:
        assert not tracer.named(f"compressor.{other}_encode")


@pytest.mark.parametrize("algorithm", epsent.compressor.ALGORITHMS)
def test_cli_compress_encodes_through_its_traced_coder(tracing, tmp_path, algorithm):
    src = tmp_path / "symbols.txt"
    src.write_text("0 1 1 0 1 0 0 0 1\n")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        argv = ["compress", "--cells", "2", "--algorithm", algorithm, str(src), str(tmp_path / "out")]
        assert epsent.cli.dispatch(argv) == 0

    (encode,) = tracer.named(f"compressor.{algorithm}_encode")
    assert tracer.spans[encode.parent].name == "cli.compress"
