"""The benchmark tracer's targets still name live chebint functions.

``bench/tracer.py`` wraps each (owner, attribute) of its TARGETS list.  A
function deleted or renamed in the package would otherwise go unnoticed until
``bench/run.py --trace 1`` fails.  The tracer file is only read here.
"""

import importlib.util
from pathlib import Path

from chebint import fusion

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = [f"{label}: {getattr(owner, '__name__', owner)}.{attr}"
               for label, owner, attr, _ in load_tracer().TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_install_traces_and_uninstall_restores():
    original = fusion.apply_op
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert fusion.apply_op(fusion.min_op(), 0.2, 0.5) == 0.2
    finally:
        tracer.uninstall()
    assert fusion.apply_op is original
    assert tracer.layers["fusion.apply_op"][0] == 1
