"""The benchmark's per-layer hooks find every function they wrap."""

import importlib.util
from pathlib import Path

import nehari.cli  # noqa: F401  (puts every nehari module in sys.modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracing_hook_finds_its_target():
    """Renaming a hooked name (``initial_states``, ``eigenbasis``,
    ``SolutionSet.add``, ...) would leave its layer silently at zero."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
