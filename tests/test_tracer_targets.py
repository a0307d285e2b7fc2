"""The names that `perfbench/tracing.py` patches still exist.

The tracer wraps each of its `TARGETS` by name: a module attribute, or a
method read from its class's own `__dict__`, so a method that moves into a
base class breaks a traced benchmark run.  The tracer module is loaded by
path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

import designcodes

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr", [t[:2] for t in tracing.TARGETS], ids=[f"{m}.{a}" for m, a, _ in tracing.TARGETS]
)
def test_tracer_target_resolves(module, attr):
    owner = getattr(designcodes, module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth)), f"{attr} is not in its class body"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{attr} is missing"
