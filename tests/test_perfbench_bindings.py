"""The benchmark's tracer binds library names; deleting one breaks --trace."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    plan = tracer.Tracer()._collect()  # raises KeyError on a missing name
    assert plan
    for owner, name, original, _ in plan:
        assert vars(owner)[name] is original  # collecting installs nothing
