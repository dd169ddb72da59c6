"""The benchmark's trace spans (perfbench/tracing.py) wrap package names.

``--trace 1`` swaps each (module, attribute) pair of ``TARGETS`` for a timing
wrapper, so renaming or removing one of those names breaks the traced
benchmark; this test catches that in the unit suite.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_is_bound_and_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
