"""Every public module-level function and class of `gupsim` is used by the
program: by `src/`, `scripts/` or `perfbench/`, not by tests alone.

A name counts as used where it appears as a name, an attribute, an imported
name, or a part of a dotted-identifier string (`perfbench/tracer.py` names its
targets that way) in any of those files. Its own definition does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "src" / "gupsim").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

# kept although only tests call them, each for the check or the planned work named
KEPT = {
    "integrate_trajectory": "acceptance 1: the deformed-dynamics oracle",
    "frequency_vs_amplitude": "acceptance 1: the deformed-dynamics oracle",
    "third_harmonic_fraction": "acceptance 1: the deformed-dynamics oracle",
    "equations_of_motion": "acceptance 1: the deformed-dynamics oracle",
    "deformed_factor": "acceptance 1: the deformed-dynamics oracle",
    "rethermalization_rate": "acceptance 2: the rethermalization constant",
    "lockin_filter_response": "ROADMAP item 1: forward model of the lock-in",
    "coherent_peak_analysis": "acceptance 5 and ROADMAP item 5: coherent amplitude",
}


def _public_definitions() -> dict[str, str]:
    defs = {}
    for path in sorted((ROOT / "src" / "gupsim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.name
    return defs


def _referenced_names() -> set[str]:
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(p.isidentifier() for p in parts):
                    names.update(parts)
    return names


def test_every_public_definition_is_used():
    defs, used = _public_definitions(), _referenced_names()
    unused = sorted(f"{module}: {name}" for name, module in defs.items()
                    if name not in used and name not in KEPT)
    assert unused == [], "public definitions that only tests use"
    assert sorted(set(KEPT) - set(defs)) == [], "kept names that no longer exist"
