"""The benchmark's traced run patches stochsub at the attribute sites that
`bench/tracer.py` lists; a rename in the library must fail here, not only
when the benchmark installs its tracer."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


SITES = sorted({site for sites in load_sites().values() for site in sites})


@pytest.mark.parametrize("site", SITES)
def test_tracer_site_resolves(site):
    module_name, attr = site.split(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = inspect.getattr_static(owner, part)
    if isinstance(owner, (classmethod, staticmethod)):
        owner = owner.__func__
    assert callable(owner), site
