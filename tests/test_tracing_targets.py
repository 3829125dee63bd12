"""The benchmark tracer names library functions by string; every name must
still resolve, or `perfbench/run.py --trace 1` breaks on a rename."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_and_cache_resolves():
    tracing = _tracing()
    assert tracing.LAYERS and tracing.CACHES
    for prefix, modname, clsname, attr, _ in tracing.LAYERS:
        mod = importlib.import_module("localchar." + modname)
        if clsname is None:
            assert callable(getattr(mod, attr, None)), prefix
        else:
            # Tracer.install reads the attribute from the class's own dict
            assert attr in vars(getattr(mod, clsname)), prefix
    for metric, modname, attr in tracing.CACHES:
        fn = getattr(importlib.import_module("localchar." + modname), attr)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        assert fn.cache_info() is not None, metric
