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


def test_tau1_reaches_lin_solve_once_per_lobpcg_step(coarse_problem, monkeypatch):
    # bench/selftest.py expects spectrum.tau1_lin_solves on branch_disk, so a
    # tau_1 path that bypassed Linearization.solve would blank it silently
    from gelfand import spectrum
    from gelfand.meanfield import Linearization

    state = coarse_problem.solve_mp(4.0)
    lin = Linearization.at_state(coarse_problem, state)
    lobpcg, steps = spectrum._lobpcg, []

    def counted(A, B, X, precond, Y=None):
        return lobpcg(A, B, X, lambda R: steps.append(R.shape) or precond(R), Y)

    monkeypatch.setattr(spectrum, "_lobpcg", counted)
    tracing = load_tracing()
    recorder = tracing.Recorder(time.perf_counter)
    try:
        recorder.install()
        close = recorder.op()
        spectrum.standard_tau1(coarse_problem, state, lin=lin)
        metrics = recorder.layer_metrics(close())
    finally:
        recorder.uninstall()
    assert len(steps) > 1
    assert metrics["spectrum.tau1_lin_solves"] == len(steps)
