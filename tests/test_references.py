"""Every public module-level function and class of `gupsim`, and every public
method and property of its classes, is used by the program: by `src/`,
`scripts/` or `perfbench/`, not by tests alone. Every error kind of
`gupsim.errors` is raised in `src/`.

A module-level name counts as used where it appears as a name, an attribute,
an imported name, or a part of a dotted-identifier string (`perfbench/tracer.py`
names its targets that way) in any of those files. A property counts as used
where it appears as an attribute, and a plain method only where it is called
as one (`x.name(...)`): a field of the same name on another class, such as
`res.params` of a least-squares result, does not count for it. Either counts
where it is a part after the first of a dotted-identifier string; a bare word
such as an option value does not. A method that overrides a base-class method
is called by the base class and is left out. Its own definition does not count.
"""

import ast
import importlib
import inspect
from pathlib import Path

from gupsim import errors

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "gupsim").glob("*.py"))
SOURCES = [*MODULES,
           *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# kept although only tests call them, each for the check or the planned work named
KEPT = {
    "integrate_trajectory": "acceptance 1: the deformed-dynamics oracle",
    "frequency_vs_amplitude": "acceptance 1: the deformed-dynamics oracle",
    "third_harmonic_fraction": "acceptance 1: the deformed-dynamics oracle",
    "equations_of_motion": "acceptance 1: the deformed-dynamics oracle",
    "deformed_factor": "acceptance 1: the deformed-dynamics oracle",
    "MechanicalMode.period": "acceptance 1: the oracle's integration step",
    "Trajectory.energies": "the deformed-dynamics oracle: energy conservation",
    "rethermalization_rate": "acceptance 2: the rethermalization constant",
    "DetectionConfig.record_rate": "acceptance 6: the lock-in output sample rate",
    "lockin_filter_response": "ROADMAP item 2: forward model of the lock-in",
    "coherent_peak_analysis": "acceptance 5 and ROADMAP item 8: coherent amplitude",
}


def _public_definitions() -> dict[str, str]:
    defs = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.name
    return defs


def _public_methods() -> dict[str, tuple[str, bool]]:
    """'Class.method' -> (module file, whether it is a property), for the public
    methods and properties of every class, overrides of a base-class method left out."""
    defs = {}
    for path in MODULES:
        module = importlib.import_module(f"gupsim.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        and not any(hasattr(b, item.name) for b in cls.__mro__[1:])):
                    is_property = isinstance(inspect.getattr_static(cls, item.name),
                                             property)
                    defs[f"{node.name}.{item.name}"] = (path.name, is_property)
    return defs


def _references() -> tuple[set[str], set[str], set[str]]:
    """(names, attributes, called attributes) referenced in SOURCES, as the
    module docstring counts them."""
    names, attributes, called = set(), set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(p.isidentifier() for p in parts):
                    names.update(parts)
                    attributes.update(parts[1:])
                    called.update(parts[1:])
    return names, attributes, called


def test_every_public_definition_is_used():
    defs, (used, _, _) = _public_definitions(), _references()
    unused = sorted(f"{module}: {name}" for name, module in defs.items()
                    if name not in used and name not in KEPT)
    assert unused == [], "public definitions that only tests use"


def test_every_public_method_is_used():
    defs, (_, attributes, called) = _public_methods(), _references()
    unused = sorted(f"{module}: {name}" for name, (module, is_property) in defs.items()
                    if name.split(".")[1] not in (attributes if is_property else called)
                    and name not in KEPT)
    assert unused == [], "public methods and properties that only tests use"


def test_kept_names_exist():
    assert sorted(set(KEPT) - set(_public_definitions()) - set(_public_methods())) == []


def test_every_error_kind_is_raised():
    # an error kind that no `raise` in src/ names can no longer happen
    kinds = {name for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.GupsimError)
             and cls is not errors.GupsimError}
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(node.exc)
                              if isinstance(n, (ast.Name, ast.Attribute)))
    assert sorted(kinds - raised) == []
