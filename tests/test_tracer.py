"""The benchmark's tracer wraps the program's functions by name.

``perfbench/tracer.py`` rebinds module functions and the ``contains`` and
``ray_boundary`` each domain kind holds in its own class body; a renamed
function or a dropped rebinding makes ``install`` raise.  This test finds
that here instead of in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import funkgeo  # noqa: F401  (imports every traced module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = tracer.wrapped_attributes()
        assert "funkgeo.projection.forward_ball_reaches" in wrapped
        assert "funkgeo.convex_core.HPolytope.ray_boundary" in wrapped
    finally:
        t.uninstall()
    assert tracer.wrapped_attributes() == []
