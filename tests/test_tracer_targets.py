"""The benchmark's span tracer names library functions by module and class;
each name must still resolve the way ``Tracer.install`` reads it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("stem,mod_name,owner,attr", _targets())
def test_tracer_target_resolves(stem, mod_name, owner, attr):
    module = importlib.import_module(f"covar.{mod_name}")
    if owner is None:
        # a module-level function
        assert callable(getattr(module, attr, None)), stem
    else:
        # a method defined on the class itself, not inherited
        raw = getattr(module, owner).__dict__.get(attr)
        # a classmethod is wrapped through its function
        assert callable(getattr(raw, "__func__", raw)), stem
