"""The layers perfbench's traced run wraps must exist in the program.

perfbench/tracing.py replaces module attributes by name; a name removed from
the program would fail only in ``perfbench/run.py --trace 1``.  The file uses
the standard library alone, so it is loaded here from its path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()
TARGETS = _MODULE.CORE_TARGETS + _MODULE.CLI_TARGETS + _MODULE.SETUP_TARGETS


@pytest.mark.parametrize("module, attribute", [t[:2] for t in TARGETS])
def test_traced_target_resolves(module, attribute):
    assert hasattr(importlib.import_module(module), attribute)
