"""Each module imports on its own, and loads only what it depends on.

Every import runs in a fresh interpreter, so modules that an earlier test
loaded cannot hide a missing or circular import.
"""

import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import epsent

SRC = str(Path(epsent.__file__).resolve().parents[1])
# __main__ runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(epsent.__path__) if m.name != "__main__")


def loaded_after(statement: str) -> set[str]:
    """The modules in sys.modules after ``statement`` runs in a fresh interpreter."""
    script = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    assert f"epsent.{module}" in loaded_after(f"import epsent.{module}")


def test_package_root_imports_no_module():
    loaded = loaded_after("import epsent")
    assert not {name for name in loaded if name.startswith("epsent.")}
    assert "numpy" not in loaded


def test_coder_loads_neither_the_sweep_nor_a_process_pool():
    loaded = loaded_after("import epsent.compressor")
    assert "epsent.sweep" not in loaded
    assert "multiprocessing" not in loaded


def test_cli_loads_no_process_pool():
    # only a sweep with several workers imports the pool
    loaded = loaded_after("import epsent.cli")
    assert "epsent.sweep" in loaded
    assert "multiprocessing" not in loaded
