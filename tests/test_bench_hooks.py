"""The benchmark's tracing hooks still find every function they wrap."""

import importlib.util
import time
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    # a renamed or moved target would silently blank its metrics
    tracing = load_tracing()
    recorder = tracing.Recorder(time.perf_counter)
    try:
        recorder.install()
        assert recorder.absent_hooks == []
        assert set(recorder.sites) == {name for name, *_ in tracing.HOOKS}
    finally:
        recorder.uninstall()
