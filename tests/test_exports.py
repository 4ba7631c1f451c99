"""Package exports: declared names resolve, re-exported functions are
declared, and every public function and class has a caller."""
import ast
import importlib
import inspect
import pathlib
import pkgutil

import smjd

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Public functions and classes that no code under src/, demos/ or the
# benchmark calls, each kept as library API for the reason given.
UNCALLED_API = {
    "integrability_report": "adjoint integrability hypothesis (ROADMAP "
                            "item 4)",
    "dynkin_check": "dynamic-programming martingale check (ROADMAP item 3)",
}


def test_module_exports_resolve():
    for info in pkgutil.iter_modules(smjd.__path__):
        module = importlib.import_module(f"smjd.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


def test_reexported_functions_are_declared():
    imports = [node for node in ast.parse(inspect.getsource(smjd)).body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"smjd.{node.module}")
        for alias in node.names:
            obj = getattr(module, alias.name)
            assert getattr(smjd, alias.name) is obj
            if inspect.isfunction(obj):
                assert alias.name in module.__all__, (node.module, alias.name)


def test_public_functions_and_classes_have_a_caller():
    # a caller is a name or attribute in code (not an import, __all__ or a
    # docstring) of the package, the demos or the non-test benchmark files
    package = sorted((ROOT / "src" / "smjd").glob("*.py"))
    callers = [*package, *(ROOT / "demos").glob("*.py"),
               *(p for p in (ROOT / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))]
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = {node.name for path in package
                for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in used}
    assert uncalled - UNCALLED_API.keys() == set(), "no caller"
    assert UNCALLED_API.keys() - uncalled == set(), "called: drop from list"
