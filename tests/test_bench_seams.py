"""The benchmark's tracer (``perfbench/spans.py``) wraps library functions
at the module bindings their callers look up. A refactor that drops or
renames one of those bindings breaks the traced benchmark run; these
tests catch it with the library tests. The tracer module is loaded by
path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_callable(spans):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_stop_restores_the_originals(spans):
    bindings = [(module, attr) for module, attr, _, _ in spans.TARGETS]
    originals = [getattr(module, attr) for module, attr in bindings]
    tracer = spans.Tracer()
    try:
        tracer.start()
        wrapped = [getattr(module, attr) for module, attr in bindings]
    finally:
        tracer.stop()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(
        getattr(module, attr) is o for (module, attr), o in zip(bindings, originals)
    )
