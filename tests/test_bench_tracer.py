"""The benchmark's traced run patches stochsub at the attribute sites that
`bench/tracer.py` lists; a rename in the library must fail here, not only
when the benchmark installs its tracer.  A traced `check` run shows that the
patched sites are the ones the library calls."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = sorted({site for sites in load_tracer().SITES.values() for site in sites})


@pytest.mark.parametrize("site", SITES)
def test_tracer_site_resolves(site):
    module_name, attr = site.split(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = inspect.getattr_static(owner, part)
    if isinstance(owner, (classmethod, staticmethod)):
        owner = owner.__func__
    assert callable(owner), site


def test_traced_check_times_the_float_conversion(tmp_path):
    # every PF solve converts its matrix through the patched to_float
    out = tmp_path / "spans.json"
    subprocess.run([sys.executable, "bench/child.py", "--spans", str(out), "cli", "check",
                    "--config", "src/stochsub/configs/fibonacci.json"],
                   cwd=REPO, env=child_env(PYTHONPATH="src"), capture_output=True, check=True)
    spans = json.loads(out.read_text())
    conversions = [s for s in spans if s["name"] == "spectral.to_float"]
    assert conversions
    assert all(spans[s["parent"]]["name"] == "spectral.pf" for s in conversions)
    assert load_tracer().layer_metrics([spans])["spectral.to_float_s"] > 0
