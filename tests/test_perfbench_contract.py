"""The benchmark harness's contract with the library.

``perfbench/tracer.py`` wraps library functions by name.  A function it
names that the library no longer has breaks every benchmark run, so each
name is checked here.  The tracer is read by path and nothing is written
beside it (no bytecode cache).
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.modules[spec.name] = module      # dataclasses look their module up here
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        del sys.modules[spec.name]
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize("name", [target.name for target in _tracer.TARGETS])
def test_every_traced_name_resolves(name):
    module_name, *path = name.split(".")
    owner = importlib.import_module(f"{_tracer.PACKAGE}.{module_name}")
    if len(path) == 2:      # a classmethod, which the tracer rebinds in the class __dict__
        assert isinstance(getattr(owner, path[0]).__dict__.get(path[1]), classmethod)
    else:
        assert callable(getattr(owner, path[0], None))
