"""Every package name the benchmark looks up resolves.

The benchmark reaches into fujitacert by name: the tracer rebinds the functions of its TRACED
table and the CyclotomicNumber methods of TRACED_METHODS, counts surfaces.family_orbit through
sys.modules, and the workloads, the pin script, the runner and the set-up probe use module
attributes.  A name moved or renamed in the package would break only a traced or benchmark run,
so this test reads those files with ast, without importing them, and looks each name up.
"""

import ast
import importlib
from pathlib import Path

import fujitacert

BENCH = Path(__file__).resolve().parent.parent / "bench"
FILES = ("tracer.py", "workloads.py", "pin.py", "run.py", "probe_setup.py")


def _path(node, bound):
    """The package path ("monodromy", "group_closure") that an expression names, or None.

    bound maps the names a file imports from fujitacert to their paths.
    """
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        head = _path(node.value, bound)
        return None if head is None else head + (node.attr,)
    if (
        isinstance(node, ast.Subscript)
        and ast.unparse(node.value) == "sys.modules"
        and isinstance(node.slice, ast.Constant)
        and node.slice.value.startswith("fujitacert.")
    ):
        return tuple(node.slice.value.split(".")[1:])
    return None


def _lookups(tree):
    """(path, method) of each package name a parsed file uses; method names a class attribute."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fujitacert":
            bound.update((a.asname or a.name, (a.name,)) for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name, ()) for a in node.names if a.name == "fujitacert")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (path := _path(node, bound)) is not None:
            found.add((path, None))
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            found.update(((module, attr), None) for module, attr in ast.literal_eval(node.value))
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED_METHODS"]:
            for cls, attr, _ in (entry.elts for entry in node.value.elts):  # (class, attribute, span name)
                if (path := _path(cls, bound)) is not None:
                    found.add((path, attr.value))
    return found


def _resolves(path, method):
    """Whether the path names something, its head a submodule where there is one, as bench imports it."""
    try:
        obj, path = importlib.import_module(f"fujitacert.{path[0]}"), path[1:]
    except ModuleNotFoundError:
        obj = fujitacert
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return method is None or method in vars(obj)


def test_bench_lookups_resolve_in_the_package():
    lookups = {name: _lookups(ast.parse((BENCH / name).read_text())) for name in FILES}
    assert all(lookups.values()), lookups
    everything = set().union(*lookups.values())
    assert any(method for _, method in everything)  # TRACED_METHODS was read
    assert (("surfaces", "family_orbit"), None) in lookups["tracer.py"]  # and the sys.modules lookup
    missing = [(name, path, method) for name, found in lookups.items() for path, method in found if not _resolves(path, method)]
    assert not missing
