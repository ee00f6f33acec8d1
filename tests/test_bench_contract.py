"""The benchmark's traced run can still find every function it times.

obsbench/tracer.py wraps public obsavg functions by name and silently skips
a name that no longer exists, which drops that layer's metric from the
traced result. This test fails instead.
"""
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "obsbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("obsbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        expected = {f"{module.split('.', 1)[1]}.{attr}" for module, attr in tracing.TARGETS}
        assert tracer.wrapped == expected
    finally:
        tracer.uninstall()
