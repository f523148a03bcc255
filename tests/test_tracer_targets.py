"""The benchmark's tracer hooks gupsim functions by name and reads some of
their arguments by position; a rename or a reordered signature would only
show in a traced benchmark run. This loads `perfbench/tracer.py` by path and
checks both against the program.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module: str, attr: str):
    obj = importlib.import_module(f"gupsim.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_target_resolves():
    tracer = load_tracer()
    for module, attr in tracer.TARGETS:
        assert callable(target(module, attr)), f"{module}.{attr}"


# (module, function, position, parameter) the tracer's trace ids and hooks read
POSITIONAL = [
    ("protocol", "run_cycle", 1, "cycle_index"),
    ("storage", "save_record", 1, "path"),
    ("storage", "save_raw", 1, "path"),
    ("storage", "load_record", 0, "path"),
    ("storage", "load_raw", 0, "path"),
    ("detection", "complex_ou_segment", 1, "n"),
]


@pytest.mark.parametrize("module,name,position,param", POSITIONAL,
                         ids=[f"{m}.{n}" for m, n, _, _ in POSITIONAL])
def test_hooked_argument_positions(module, name, position, param):
    params = list(inspect.signature(target(module, name)).parameters)
    assert params[position] == param
