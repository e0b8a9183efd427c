"""The benchmark's tracer wraps each of its targets where the owner itself
defines it: Tracer.install reads vars(owner)[attr], so a method a class only
inherits (say GLPoint.__mul__ moved up into SuperMatrix) would stop the
traced run.  This reads bench/tracer.py's table and imports nothing else
from bench/."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)


@pytest.mark.parametrize("key, modname, path, kind", _tracer.TARGETS,
                         ids=[f"{modname}.{path}" for _, modname, path, _ in _tracer.TARGETS])
def test_every_tracer_target_is_defined_by_its_owner(key, modname, path, kind):
    owner = importlib.import_module(modname)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{key}: {path} is not in vars() of its owner"
