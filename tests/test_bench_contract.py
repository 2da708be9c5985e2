"""The benchmark names library functions that it traces.

`perfbench/tracer.py` lists them in TARGETS by module and attribute path,
and every benchmark run resolves them; a rename in src/ fails here first.
The tracer is loaded from its file and only read.
"""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _tracer()
    bindings = tracer.target_bindings()
    assert {name for *_, name in tracer.TARGETS} <= {name for *_, name in bindings}
    for owner, attr, obj, name in bindings:
        assert callable(obj) and not tracer.is_wrapper(obj), (owner, attr, name)
