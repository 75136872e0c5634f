"""The names that bench/tracer.py patches exist in the package.

The tracer wraps package functions by name from outside the program, so a
rename or a removal breaks ``bench/run.py --trace 1`` while every other test
passes. The tracer's tables are read by running its source, which imports
only the standard library; nothing under bench/ is written.
"""
import inspect
import runpy
from pathlib import Path

from simplexflow import ConstantSpeed, Parameters, analysis, dynamics, make_point, ode

import oracles

TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracer.py"))
MODULES = {"dynamics": dynamics, "analysis": analysis, "ode": ode}


def test_every_name_the_tracer_patches_exists():
    spanned = TRACER["SPANNED"]
    assert set(TRACER["SUMMARY_CALLS"]) <= set(spanned["analysis"])
    for short, names in spanned.items():
        for name in names:
            assert callable(getattr(MODULES[short], name, None)), f"{short}.{name}"
    assert callable(dynamics.log_sum_exp)
    assert callable(analysis.CesaroState.push)


def test_reference_path_keeps_the_arguments_the_tracer_binds():
    assert {"horizon", "h"} <= set(inspect.signature(ode.reference_path).parameters)


def test_tracer_installs_and_uninstalls():
    patched = [(MODULES[short], name) for short, names in TRACER["SPANNED"].items()
               for name in names] + [(dynamics, "log_sum_exp"), (analysis.CesaroState, "push")]
    originals = [getattr(owner, name) for owner, name in patched]
    tracer = TRACER["Tracer"]()
    try:
        tracer.install()
        assert all(getattr(owner, name) is not fn for (owner, name), fn in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(patched, originals))


# The tracer reads the calls to dynamics.log_sum_exp minus the log steps as
# firings of the cancellation-free branch. The compiled log loop makes no
# such calls, so with the tracer installed the log steps must run in Python.
def test_the_traced_cancel_free_fires_are_the_oracle_count():
    tracer = TRACER["Tracer"]()
    n, abc, f = 600, (1.0, 1.0, 1.0), 1.0
    try:
        tracer.install()
        span = tracer.invocation(1)
        try:
            traj = dynamics.iterate(make_point(0.5, 0.3, 0.2), Parameters(*abc), ConstantSpeed(f),
                                    n, mode="log")
        finally:
            tracer.end(span)
    finally:
        tracer.uninstall()
    fires = sum(oracles.cancel_free_fires(*traj.logs[k].tolist(), *traj.coords[k].tolist(), *abc, f)
                for k in range(n))
    traced = tracer.metrics()
    assert traced["dynamics.steps_log"] == n
    assert traced["dynamics.cancel_free_fires"] >= 0
    assert traced["dynamics.cancel_free_fires"] == fires
