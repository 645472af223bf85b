"""The benchmark's layer tracer still finds every function it wraps.

`perfbench/tracing.py` wraps package functions by module and attribute
name and reads some of their parameters by name, so a renamed function
or parameter would silently empty the benchmark's per-layer metrics.
"""

import importlib.util
from pathlib import Path

import stubborn.cli  # noqa: F401  (the tracer wraps `cli.COMMANDS` and `checks`)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = stubborn.dynamics.simulate_batch
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert tracer.missing == set()
        assert stubborn.dynamics.simulate_batch is not original
    finally:
        uninstall()
    assert stubborn.dynamics.simulate_batch is original
