"""The benchmark's tracer finds every package name it wraps.

``benchmark/tracer.py`` wraps functions of ``matchformer`` by name and the
traced benchmark counts a name it cannot find as a failed check; this test
finds a deleted or renamed name at test time instead.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def test_tracer_wraps_every_name_it_lists():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
